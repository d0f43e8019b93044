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

import os
import struct
from dataclasses import dataclass

import numpy as np

from .core import _BLOCK_ELEMENTS, FormatError, as_matrix, atomic_write, derive_seed, read_exact
from .evaluate import brute_force_gt

__all__ = [
    "VectorFile",
    "VectorReader",
    "inspect_vectors",
    "read_vectors",
    "write_vectors",
    "read_labels",
    "write_labels",
    "SyntheticSpec",
    "SyntheticDataset",
    "generate_synthetic",
]

_KINDS = {
    "float32": ("<f4", 4),
    "uint8": ("u1", 1),
    "int32": ("<i4", 4),
}
_SUFFIX_KIND = {".fvecs": "float32", ".bvecs": "uint8", ".ivecs": "int32"}

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
        return 4 + self.dim * _KINDS[self.element_kind][1]


def inspect_vectors(path) -> VectorFile:
    """Read the leading header and validate the whole-file size invariant."""
    kind = element_kind_for(path)
    size = os.path.getsize(path)
    if size == 0:
        raise FormatError(f"{path}: empty vector file", offset=0)
    with open(path, "rb") as f:
        head = read_exact(f, 4, "record header")
    dim = struct.unpack("<i", head)[0]
    if dim < 1:
        raise FormatError(f"{path}: invalid component count {dim} in record header", offset=0)
    rec = 4 + dim * _KINDS[kind][1]
    if size % rec:
        raise FormatError(
            f"{path}: size {size} is not a whole number of {rec}-byte records",
            offset=size - (size % rec),
        )
    return VectorFile(path=str(path), element_kind=kind, dim=dim, count=size // rec)


def _decode(rows: np.ndarray, meta: VectorFile, record_ids) -> np.ndarray:
    """Payloads of whole records gathered as (n, record_size) uint8 rows.

    Checks every row's header (its first 4 bytes as <i4) against meta.dim;
    record_ids[i] is the file record of row i, named in the error. float32
    and int32 payloads come back as dtype views of `rows`; uint8 widens to
    a fresh float32 array.
    """
    headers = rows[:, :4].view("<i4")[:, 0]
    bad = np.flatnonzero(headers != meta.dim)
    if bad.size:
        rec_no = int(record_ids[int(bad[0])])
        raise FormatError(
            f"{meta.path}: record {rec_no} declares {int(headers[bad[0]])} components, expected {meta.dim}",
            offset=rec_no * meta.record_size,
        )
    payload = rows[:, 4:].view(_KINDS[meta.element_kind][0])
    return payload.astype(np.int32 if meta.element_kind == "int32" else np.float32, copy=False)


def read_vectors(path) -> np.ndarray:
    """Load the whole file as a 2-D array, through a VectorReader.

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

    The file is memory-mapped as a (count, record_size) uint8 array. take()
    gathers the whole records it is asked for in one copy, validates their
    headers, and returns the payload as a dtype view of that copy: float32
    for .fvecs, int32 for .ivecs; only .bvecs widens uint8 to a new float32
    array. read() copies a decoded slice of the map, and read_vectors() reads
    through it. A reader can stand in for an in-memory base array in search.
    """

    def __init__(self, path):
        self.meta = inspect_vectors(path)
        shape = (self.meta.count, self.meta.record_size)
        self._mm = np.asarray(np.memmap(path, dtype=np.uint8, mode="r", shape=shape))

    @property
    def dim(self) -> int:
        return self.meta.dim

    @property
    def count(self) -> int:
        return self.meta.count

    def __len__(self) -> int:
        return self.meta.count

    def take(self, ids) -> np.ndarray:
        if self._mm is None:
            raise ValueError("reader is closed")
        idx = np.asarray(ids)
        if idx.ndim != 1:
            raise ValueError("ids must be 1-D")
        if idx.size and idx.dtype.kind not in "iu":
            raise ValueError(f"ids must be integers, got dtype {idx.dtype}")
        if idx.size and (idx.min() < 0 or idx.max() >= self.meta.count):
            bad = idx[(idx < 0) | (idx >= self.meta.count)][0]
            raise LookupError(f"vector id {int(bad)} outside file with {self.meta.count} records")
        idx = idx.astype(np.int64, copy=False)
        # np.take copies whole rows faster than fancy indexing does
        return _decode(np.take(self._mm, idx, axis=0), self.meta, idx)

    def read(self, start: int, count: int) -> np.ndarray:
        """Records [start, start+count) as a fresh, writable, C-ordered array."""
        if self._mm is None:
            raise ValueError("reader is closed")
        if start < 0 or count < 0 or start + count > self.meta.count:
            raise ValueError(f"range [{start}, {start + count}) exceeds {self.meta.count} records")
        out = _decode(self._mm[start : start + count], self.meta, range(start, start + count))
        return out if out.flags.writeable else out.copy()

    def __getitem__(self, i: int):
        return self.take(np.asarray([int(i)]))[0]

    def close(self) -> None:
        self._mm = None

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
    (at least 2 points per cluster).
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
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in an unsigned 64-bit integer")
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
    so neither do the bytes.
    """
    if gt_depth < 1:
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
