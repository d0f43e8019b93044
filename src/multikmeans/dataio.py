"""Vector file formats and synthetic dataset generation.

The three on-disk formats share one record layout: a little-endian int32
component count, then that many components. `.fvecs` stores float32
components, `.bvecs` uint8, `.ivecs` int32 (used for neighbor-id lists);
the suffix alone picks the element kind, for reading and writing alike.
Every record in a file carries the same count, so file size must be an
exact multiple of the record size; anything else raises FormatError with
the byte offset of the first inconsistency.
"""

from __future__ import annotations

import mmap
import os
import struct
from dataclasses import dataclass

import numpy as np

from .core import _BLOCK_ELEMENTS, FormatError, _count, _row_ids, _seed, as_matrix, atomic_write, derive_seed, read_exact
from .evaluate import brute_force_gt

__all__ = [
    "VectorFile",
    "VectorReader",
    "read_vectors",
    "write_vectors",
    "read_labels",
    "write_labels",
    "SyntheticSpec",
    "SyntheticDataset",
    "generate_synthetic",
]

# element kind: (payload dtype in the file, dtype that read() and take() return)
_KINDS = {
    "float32": ("<f4", np.float32),
    "uint8": ("u1", np.float32),
    "int32": ("<i4", np.int32),
}
_SUFFIX_KIND = {".fvecs": "float32", ".bvecs": "uint8", ".ivecs": "int32"}

# Bytes of whole records that one VectorReader.read chunk holds: the read's
# only memory beside its output array. Measured on a 103 MB .fvecs (200 000
# x 128, page cache warm, 2-core x86): in 65 536-row calls, 0.5-16 MB chunks
# read it in 43-51 ms, within one another's spread; in 4096-row calls, 2 MB
# and larger chunks took 89-100 ms against 25, as glibc handed each call's
# freed buffer back to the kernel.
_READ_CHUNK_BYTES = 1 << 20

# sub-stream tags for the synthetic generator
_CENTERS_STREAM = 10
_BASE_STREAM = 11
_QUERIES_STREAM = 12
_LEARNING_STREAM = 13


def element_kind_for(path) -> str:
    """The element kind that the file suffix names, in any letter case."""
    suffix = os.path.splitext(str(path))[1].lower()
    if suffix not in _SUFFIX_KIND:
        raise ValueError(f"cannot infer element kind from suffix {suffix!r}; use .fvecs, .bvecs or .ivecs")
    return _SUFFIX_KIND[suffix]


def _record_dtype(kind: str, dim: int) -> np.dtype:
    payload, _ = _KINDS[kind]
    return np.dtype([("dim", "<i4"), ("data", payload, (dim,))])


@dataclass(frozen=True)
class VectorFile:
    """Shape summary of one vector file."""

    path: str
    element_kind: str
    dim: int
    count: int

    @property
    def record_size(self) -> int:
        return 4 + self.dim * np.dtype(_KINDS[self.element_kind][0]).itemsize


def _inspect(f, path, kind: str) -> VectorFile:
    """Read the leading header and validate the whole-file size invariant."""
    size = os.fstat(f.fileno()).st_size
    if size == 0:
        raise FormatError(f"{path}: empty vector file", offset=0)
    head = read_exact(f, 4, "record header")
    dim = struct.unpack("<i", head)[0]
    if dim < 1:
        raise FormatError(f"{path}: invalid component count {dim} in record header", offset=0)
    rec = 4 + dim * np.dtype(_KINDS[kind][0]).itemsize
    if size % rec:
        raise FormatError(
            f"{path}: size {size} is not a whole number of {rec}-byte records",
            offset=size - (size % rec),
        )
    return VectorFile(path=str(path), element_kind=kind, dim=dim, count=size // rec)


def _payload(rows: np.ndarray, meta: VectorFile, record_ids) -> np.ndarray:
    """Payloads of whole records gathered as (n, record_size) uint8 rows.

    Checks every row's header (its first 4 bytes as <i4) against meta.dim;
    record_ids[i] is the file record of row i, named in the error. Returns
    the payloads as a view of `rows` in the file's element dtype.
    """
    headers = rows[:, :4].view("<i4")[:, 0]
    bad = np.flatnonzero(headers != meta.dim)
    if bad.size:
        rec_no = int(record_ids[int(bad[0])])
        raise FormatError(
            f"{meta.path}: record {rec_no} declares {int(headers[bad[0]])} components, expected {meta.dim}",
            offset=rec_no * meta.record_size,
        )
    return rows[:, 4:].view(_KINDS[meta.element_kind][0])


def read_vectors(path) -> np.ndarray:
    """Load the whole file as a 2-D array: one VectorReader.read of every
    record, which holds the output and one chunk, not the file's pages.

    Returns float32 for descriptor files (bvecs widen from uint8) and int32
    for id-list files. Validates every record header. VectorReader.read
    reads a range.
    """
    with VectorReader(path) as reader:
        return reader.read(0, reader.count)


def write_vectors(path, vectors) -> VectorFile:
    """Write a 2-D array in the record format that the suffix names.

    Values must be representable in the element kind: finite for float32,
    integral and in range for uint8/int32.
    """
    kind = element_kind_for(path)
    arr = as_matrix(vectors, "vectors")
    n, dim = arr.shape
    if kind == "float32":
        with np.errstate(over="ignore"):
            cast = np.ascontiguousarray(arr, dtype=np.float32)
        if not np.isfinite(cast).all():
            raise ValueError("values overflow float32")
    else:
        if np.issubdtype(arr.dtype, np.floating) and not (arr == np.floor(arr)).all():
            raise ValueError(f"fractional values are not representable as {kind}")
        lo, hi = (0, 255) if kind == "uint8" else (-(2**31), 2**31 - 1)
        if (arr < lo).any() or (arr > hi).any():
            raise ValueError(f"values outside [{lo}, {hi}] are not representable as {kind}")
        cast = np.ascontiguousarray(arr, dtype=np.uint8 if kind == "uint8" else np.int32)
    recs = np.empty(n, dtype=_record_dtype(kind, dim))
    recs["dim"] = dim
    recs["data"] = cast
    with atomic_write(path) as f:
        f.write(recs.data)
    return VectorFile(path=str(path), element_kind=kind, dim=dim, count=n)


class VectorReader:
    """Random access over a vector file without loading it fully.

    The reader opens the file once and keeps its descriptor. read() copies
    a range of records with positional reads (os.preadv) into a chunk
    buffer of at most _READ_CHUNK_BYTES, checks each chunk's headers and
    copies its payloads into one fresh output array, so a walk over the
    file in read() calls holds the output and one chunk, never the file's
    pages. read_vectors() is one whole read(). Positional reads share no
    file offset, so threads may read one reader at once.

    take() gathers scattered records from a read-only memory map of the
    same descriptor in one copy, validates their headers, and returns the
    payload as a dtype view of that copy: float32 for .fvecs, int32 for
    .ivecs; only .bvecs widens uint8 to a new float32 array. A reader can
    stand in for an in-memory base array in search.

    A file that shrinks while open raises FormatError naming its first
    missing record: read() sees the short read itself, take() checks the
    size first, which narrows the race but does not close it.
    """

    def __init__(self, path):
        kind = element_kind_for(path)
        self._file = open(path, "rb", buffering=0)
        try:
            self.meta = _inspect(self._file, path, kind)
            mapped = mmap.mmap(self._file.fileno(), self.meta.count * self.meta.record_size, access=mmap.ACCESS_READ)
        except BaseException:
            self._file.close()
            raise
        self._mm = np.frombuffer(mapped, dtype=np.uint8).reshape(self.meta.count, self.meta.record_size)

    @property
    def dim(self) -> int:
        return self.meta.dim

    @property
    def count(self) -> int:
        return self.meta.count

    def __len__(self) -> int:
        return self.meta.count

    def _missing(self, size: int) -> FormatError:
        """The error for a file cut to `size` bytes since it was opened."""
        rec_no = size // self.meta.record_size
        return FormatError(
            f"{self.meta.path}: record {rec_no} is missing; the file held {self.meta.count} records when opened",
            offset=rec_no * self.meta.record_size,
        )

    def take(self, ids) -> np.ndarray:
        """Records `ids`, in order, gathered from the map in one copy.

        Compares the file's size with the map first (one fstat), so a file
        cut since it was opened raises FormatError; a cut between that
        check and the gather still ends the process with SIGBUS.
        """
        if self._mm is None:
            raise ValueError("reader is closed")
        idx = _row_ids(ids, self.meta.count, "ids", "vector id {id} outside file with {n} records")
        size = os.fstat(self._file.fileno()).st_size
        if size < self._mm.nbytes:
            raise self._missing(size)
        # np.take copies whole rows faster than fancy indexing does
        rows = np.take(self._mm, idx, axis=0)
        return _payload(rows, self.meta, idx).astype(_KINDS[self.meta.element_kind][1], copy=False)

    def read(self, start: int, count: int) -> np.ndarray:
        """Records [start, start+count) as a fresh, writable, C-ordered array.

        Reads _READ_CHUNK_BYTES of whole records (at least one) at a time
        into one buffer, so the read holds its output and one chunk.
        """
        if self._mm is None:
            raise ValueError("reader is closed")
        if start < 0 or count < 0 or start + count > self.meta.count:
            raise ValueError(f"range [{start}, {start + count}) exceeds {self.meta.count} records")
        rec = self.meta.record_size
        out = np.empty((count, self.meta.dim), dtype=_KINDS[self.meta.element_kind][1])
        step = max(1, _READ_CHUNK_BYTES // rec)
        buf = np.empty((min(step, count), rec), dtype=np.uint8)
        for s in range(0, count, step):
            rows = buf[: min(step, count - s)]
            self._pread(rows, (start + s) * rec)
            out[s : s + len(rows)] = _payload(rows, self.meta, range(start + s, start + s + len(rows)))
        return out

    def _pread(self, rows: np.ndarray, offset: int) -> None:
        """Fill the C-ordered rows with the file's bytes from offset on."""
        view = memoryview(rows).cast("B")
        done = 0
        while done < len(view):
            got = os.preadv(self._file.fileno(), [view[done:]], offset + done)
            if got == 0:
                raise self._missing(offset + done)
            done += got

    def __getitem__(self, i: int):
        """Record i, checked by take: a float or bool i raises ValueError."""
        return self.take(np.asarray([i]))[0]

    def close(self) -> None:
        """Release the map and the descriptor; later reads raise ValueError."""
        self._mm = None
        self._file.close()

    def __enter__(self) -> "VectorReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def write_labels(path, labels) -> None:
    """One integer class label per line, aligned with vector row order."""
    arr = np.asarray(labels)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("labels must be a nonempty 1-D sequence")
    if not np.issubdtype(arr.dtype, np.integer):
        # NaN fails every comparison; inf and values past int64 fail the range
        if not ((arr == np.floor(arr)) & (arr >= -(2.0**63)) & (arr < 2.0**63)).all():
            raise ValueError("labels must be integers within the int64 range")
        arr = arr.astype(np.int64)
    with atomic_write(path, "w", encoding="utf-8") as f:
        f.write("\n".join(str(int(v)) for v in arr) + "\n")


def read_labels(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as f:
        lines = [line.strip() for line in f]
    values = []
    for lineno, line in enumerate(lines, start=1):
        if not line:
            continue
        try:
            value = int(line)
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno} is not an integer label: {line!r}") from exc
        if not -(2**63) <= value < 2**63:
            raise ValueError(f"{path}: line {lineno} label {line!r} is outside the int64 range")
        values.append(value)
    if not values:
        raise ValueError(f"{path}: no labels found")
    return np.asarray(values, dtype=np.int64)


@dataclass(frozen=True)
class SyntheticSpec:
    """Geometry and sizes for a clustered Gaussian dataset.

    Cluster centers are uniform in [-center_scale, center_scale]^dim; base,
    query, and learning points are centers plus isotropic Gaussian noise of
    scale cluster_spread. Queries and learning points cycle through the
    clusters round-robin. n_learning defaults to a quarter of the base size
    (at least 2 points per cluster). The counts (n_clusters,
    points_per_cluster, dim, n_queries, n_learning) must pass core._count.
    """

    n_clusters: int
    points_per_cluster: int
    dim: int
    cluster_spread: float = 0.05
    center_scale: float = 1.0
    seed: int = 0
    n_queries: int = 100
    n_learning: int | None = None

    def __post_init__(self):
        for name in ("n_clusters", "points_per_cluster", "dim", "n_queries"):
            _count(getattr(self, name), name)
        if self.n_learning is not None:
            _count(self.n_learning, "n_learning")
        if self.n_clusters < 2:
            raise ValueError("need at least 2 clusters")
        if self.points_per_cluster < 1:
            raise ValueError("need at least 1 point per cluster")
        if self.dim < 2:
            raise ValueError("dim must be at least 2")
        f32_max = float(np.finfo(np.float32).max)  # the files are float32
        for name in ("cluster_spread", "center_scale"):
            if not (0.0 < getattr(self, name) <= f32_max):
                raise ValueError(f"{name} must be positive and at most {f32_max:.7g}")
        _seed(self.seed, "seed")
        if self.n_queries < 1:
            raise ValueError("need at least 1 query")
        if self.n_learning is None:
            derived = max(2 * self.n_clusters, self.n_clusters * self.points_per_cluster // 4)
            object.__setattr__(self, "n_learning", derived)
        elif self.n_learning < 1:
            raise ValueError("need at least 1 learning point")


@dataclass(frozen=True)
class SyntheticDataset:
    """Base/query/learning splits plus cluster labels and exact ground truth."""

    base: np.ndarray
    queries: np.ndarray
    learning: np.ndarray
    base_labels: np.ndarray
    query_labels: np.ndarray
    ground_truth: np.ndarray  # (n_queries, gt_depth) base row ids


def generate_synthetic(spec: SyntheticSpec, gt_depth: int = 100) -> SyntheticDataset:
    """Draw a clustered dataset with exact Euclidean ground truth.

    Every split draws from its own sub-stream of spec.seed, so e.g. the base
    set is reproducible independently of how many queries are requested.
    Each split is drawn _BLOCK_ELEMENTS // dim rows at a time straight into
    its float32 array; a stream's draws do not depend on how they are cut,
    so neither do the bytes. gt_depth must pass core._count.
    """
    if _count(gt_depth, "gt_depth") < 1:
        raise ValueError("gt_depth must be at least 1")
    centers = np.random.default_rng(derive_seed(spec.seed, _CENTERS_STREAM)).uniform(
        -spec.center_scale, spec.center_scale, size=(spec.n_clusters, spec.dim)
    )
    step = max(1, _BLOCK_ELEMENTS // spec.dim)

    def draw(stream: int, labels: np.ndarray) -> np.ndarray:
        rng = np.random.default_rng(derive_seed(spec.seed, stream))
        out = np.empty((len(labels), spec.dim), dtype=np.float32)
        for s in range(0, len(out), step):
            block = rng.normal(0.0, spec.cluster_spread, size=out[s : s + step].shape)
            block += centers[labels[s : s + step]]
            out[s : s + step] = block
        return out

    base_labels = np.repeat(np.arange(spec.n_clusters, dtype=np.int64), spec.points_per_cluster)
    query_labels = np.arange(spec.n_queries, dtype=np.int64) % spec.n_clusters
    base = draw(_BASE_STREAM, base_labels)
    queries = draw(_QUERIES_STREAM, query_labels)
    learning = draw(_LEARNING_STREAM, np.arange(spec.n_learning, dtype=np.int64) % spec.n_clusters)
    return SyntheticDataset(
        base=base,
        queries=queries,
        learning=learning,
        base_labels=base_labels,
        query_labels=query_labels,
        ground_truth=brute_force_gt(base, queries, min(gt_depth, len(base))),
    )
