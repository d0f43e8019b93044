"""Shared primitives: dense vectors, bit-packed hash codes, distance measures.

Vectors are 1-D numpy float arrays; files and codebooks store float32
components and every reduction here accumulates in float64. Hash codes pack
bit j into bit (j % 64) of little-endian word (j // 64), and bits past the
logical length stay zero so word-wise popcounts equal logical Hamming
weights.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass

import numpy as np

WORD_BITS = 64
# elements per block (8 MB of float64), cut into rows in one place per walk:
# kmeans._assign_work (Lloyd assign: a block's float64 rows and distances),
# encoder._encode_rows (encode_many and encode_queries: the same two),
# index._exact_topk (brute_force_gt's walk over the base) and its screen's
# query chunks, and dataio.generate_synthetic (each split's draw). Each
# walk's transients stay within a few blocks whatever the data's size.
_BLOCK_ELEMENTS = 1 << 20

__all__ = ["FormatError", "HashCode", "pack_bits", "derive_seed"]


class FormatError(ValueError):
    """A binary file does not match its declared layout."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


def _require(f, n: int, what: str) -> None:
    """Raise FormatError at the current offset unless n more bytes are left.

    f must be seekable. Readers check a size declared by a header here
    before they allocate it, so a corrupt header ends as FormatError, not
    as a huge allocation.
    """
    pos = f.tell()
    left = f.seek(0, os.SEEK_END) - pos
    f.seek(pos)
    if n > left:
        raise FormatError(
            f"truncated file while reading {what}: wanted {n} bytes, {left} left",
            offset=pos,
        )


def read_exact(f, n: int, what: str) -> bytes:
    """Read exactly n bytes or raise FormatError at the current offset."""
    _require(f, n, what)
    return f.read(n)


def read_array(f, dtype, shape: tuple, what: str) -> np.ndarray:
    """read_exact straight into a new array of the given dtype and shape,
    with no bytes object in between; the caller owns the array."""
    dt = np.dtype(dtype)
    n = math.prod(shape) * dt.itemsize
    _require(f, n, what)
    out = np.empty(shape, dtype=dt)
    if f.readinto(memoryview(out).cast("B")) != n:
        raise FormatError(f"truncated file while reading {what}", offset=f.tell())
    return out


@contextlib.contextmanager
def atomic_write(path, mode: str = "wb", **open_kwargs):
    """Open `path + ".tmp"` for writing and move it over path with os.replace
    once the block ends, so path holds either its old bytes or all the new
    ones. If the block raises, the temp file is removed; if the temp file
    cannot be opened, the OSError names path.

    A symlink is followed (the file it points at is replaced); a target
    that exists but is not a regular file, such as /dev/null or a pipe, is
    written in place, because replacing it would swap the device for a file.
    """
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        with open(target, mode, **open_kwargs) as f:
            yield f
        return
    tmp = target + ".tmp"
    try:
        try:
            f = open(tmp, mode, **open_kwargs)
        except OSError as exc:  # name the caller's file, not the temp file
            raise type(exc)(exc.errno, exc.strerror, os.fspath(path)) from exc
        with f:
            yield f
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _numeric(x, ndim: int, name: str, nonfinite: str | None = None) -> np.ndarray:
    """x as a nonempty, numeric ndim-D array, else ValueError naming `name`.
    With `nonfinite` set (as_vector, as_matrix), every element must also be
    finite, and the error calls the elements `nonfinite`."""
    arr = np.asarray(x)
    if arr.ndim != ndim or 0 in arr.shape:
        raise ValueError(f"{name} must be a nonempty {ndim}-D array, got shape {arr.shape}")
    if not (np.issubdtype(arr.dtype, np.floating) or np.issubdtype(arr.dtype, np.integer)):
        raise ValueError(f"{name} must be numeric, got dtype {arr.dtype}")
    if nonfinite and not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite {nonfinite}")
    return arr


def _row_source(x, name: str) -> tuple:
    """(n, d, read) for the rows of a numeric 2-D array, checked by
    _numeric naming `name`, or of a VectorReader (any object with
    read(start, count), dim and len): read(start, count) returns rows
    start..start + count - 1, as an array view or a reader's block."""
    if callable(getattr(x, "read", None)):
        return len(x), x.dim, x.read
    arr = _numeric(x, 2, name)
    return arr.shape[0], arr.shape[1], lambda start, count: arr[start : start + count]


def as_vector(x, name: str = "vector") -> np.ndarray:
    """Validate a single descriptor: nonempty 1-D, numeric, finite."""
    return _numeric(x, 1, name, "components")


def as_matrix(x, name: str = "data") -> np.ndarray:
    """Validate a stack of descriptors: nonempty 2-D, numeric, finite."""
    return _numeric(x, 2, name, "values")


def _sq_distances(A64, a_sq, B64, b_sq, out=None, row_pure=False) -> np.ndarray:
    """Squared Euclidean distances between the rows of A64 and of B64, shape
    (len(A64), len(B64)); the seeding, the assign step and encode_many score
    with it, each in blocks it cuts from _BLOCK_ELEMENTS.

    The one fork between the two dot kernels. By default the dots come from
    one BLAS matrix product, whose last bits depend on how many rows share
    it and which OpenBLAS may run on threads that spin after it returns.
    With row_pure they come from einsum, whose sum for a row runs over that
    row alone, so a row's distances do not depend on which other rows share
    the call; queries are hashed this way, several times slower per row but
    a small share of a search. A64 must then be C-ordered: einsum sums a
    strided row in another order.

    Computes ||x||^2 + ||y||^2 - 2 x.y in float64. Entries small enough to
    be dominated by cancellation error are recomputed with the exact
    difference form, so bitwise-equal rows get exactly 0. The caller has
    checked that A64's rows are finite; A64 and B64 are float64 and equally
    wide, and a_sq and b_sq hold their squared norms. out, if given, is the
    (len(A64), len(B64)) float64 array the result goes into.

    The element-wise passes after the product run in place on slices of
    ~256 KB, which stay in cache and change no value; each entry's passes
    read its own row alone, so they keep a row-pure product row-pure.
    """
    n, m = A64.shape[0], B64.shape[0]
    if out is None:
        out = np.empty((n, m), dtype=np.float64)
    if row_pure:
        np.einsum("nd,md->nm", A64, B64, out=out)
    else:
        np.matmul(A64, B64.T, out=out)
    step = max(1, (1 << 15) // m)
    scale_buf = np.empty((min(n, step), m), dtype=np.float64)
    tiny_buf = np.empty((min(n, step), m), dtype=bool)
    for t in range(0, n, step):
        chunk = out[t : t + step]
        scale, tiny = scale_buf[: chunk.shape[0]], tiny_buf[: chunk.shape[0]]
        np.add(a_sq[t : t + step, None], b_sq[None, :], out=scale)
        chunk *= 2.0
        np.subtract(scale, chunk, out=chunk)
        scale *= 1e-8
        np.less_equal(chunk, scale, out=tiny)
        if tiny.any():
            ii, jj = np.nonzero(tiny)
            diffs = A64[ii + t] - B64[jj]
            chunk[ii, jj] = np.einsum("nd,nd->n", diffs, diffs)
    return out


def words_for(length: int) -> int:
    """Number of 64-bit words needed for a code of the given bit length."""
    return (length + WORD_BITS - 1) // WORD_BITS


def _non_negative_integers(x, name: str) -> np.ndarray:
    """x as an array of integers none of which is negative, else ValueError:
    packed words and ids, which no cast may truncate or wrap, pass here."""
    arr = np.asarray(x)
    if arr.dtype.kind not in "iu":
        raise ValueError(f"{name} must be integers, got dtype {arr.dtype}")
    if arr.dtype.kind == "i" and (arr < 0).any():
        raise ValueError(f"{name} must be non-negative")
    return arr


def _count(x, name: str) -> int:
    """x as an int, else TypeError naming `name`: a Python or numpy
    integer, and not a bool. The one statement of an integer argument."""
    if isinstance(x, (bool, np.bool_)) or not isinstance(x, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(x).__name__}")
    return int(x)


def _seed(x, name: str) -> int:
    """x as a seed: an integer by _count, in [0, 2^64), else ValueError
    naming `name`. The one statement of the seed range."""
    seed = _count(x, name)
    if not 0 <= seed < 2**64:
        raise ValueError(f"{name} must fit in an unsigned 64-bit integer")
    return seed


def _row_ids(ids, n: int, name: str, missing: str) -> np.ndarray:
    """ids as int64 row numbers of an n-row store. ids must be 1-D and,
    unless empty, integers, else ValueError naming `name`; an id outside
    [0, n) raises LookupError(missing.format(id=id, n=n)) for the first
    such id. The range is checked before the cast, so no id wraps."""
    arr = np.asarray(ids)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D")
    if arr.size and arr.dtype.kind not in "iu":
        raise ValueError(f"{name} must be integers, got dtype {arr.dtype}")
    if arr.size and (arr.min() < 0 or arr.max() >= n):
        raise LookupError(missing.format(id=int(arr[(arr < 0) | (arr >= n)][0]), n=n))
    return arr.astype(np.int64, copy=False)


def pack_bits(bits) -> np.ndarray:
    """Pack bits (shape (..., length)) into little-endian uint64 words.

    Bit j of a row lands in bit (j % 64) of word (j // 64); pad bits past
    the length are zero. Accepts 1-D or 2-D input and keeps leading shape.
    """
    arr = np.asarray(bits)
    if arr.ndim not in (1, 2) or arr.shape[-1] == 0:
        raise ValueError(f"bits must be a nonempty 1-D or 2-D array, got shape {arr.shape}")
    packed = np.packbits(arr.astype(np.uint8), axis=-1, bitorder="little")
    nbytes = words_for(arr.shape[-1]) * 8
    pad = nbytes - packed.shape[-1]
    if pad:
        pad_widths = [(0, 0)] * (packed.ndim - 1) + [(0, pad)]
        packed = np.pad(packed, pad_widths)
    return np.ascontiguousarray(packed).view("<u8").astype(np.uint64, copy=False)


@dataclass(frozen=True, eq=False)
class HashCode:
    """A fixed-length binary signature packed into uint64 words."""

    words: np.ndarray
    length: int

    def __post_init__(self):
        if self.length < 1:
            raise ValueError("code length must be positive")
        # a copy, so freezing it below leaves the caller's array writable
        w = np.array(_non_negative_integers(self.words, "code words"), dtype=np.uint64, order="C")
        if w.ndim != 1 or w.shape[0] != words_for(self.length):
            raise ValueError(
                f"expected {words_for(self.length)} words for length {self.length}, "
                f"got shape {np.shape(self.words)}"
            )
        tail = self.length % WORD_BITS
        if tail and int(w[-1]) >> tail:
            raise ValueError("non-canonical padding: bits set past the code length")
        w.setflags(write=False)
        object.__setattr__(self, "words", w)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HashCode):
            return NotImplemented
        return self.length == other.length and bool(np.array_equal(self.words, other.words))

    def __repr__(self) -> str:
        return f"HashCode(length={self.length}, popcount={int(np.bitwise_count(self.words).sum())})"


def hamming_distances(codes: np.ndarray, query_words: np.ndarray) -> np.ndarray:
    """Hamming distance from one packed query row to many packed code rows.

    Returns uint16, or uint32 when the codes hold more than 65535 bits, so
    no distance wraps.
    """
    c = np.asarray(_non_negative_integers(codes, "codes"), dtype=np.uint64)
    q = np.asarray(_non_negative_integers(query_words, "query words"), dtype=np.uint64)
    if c.ndim != 2 or q.ndim != 1 or c.shape[1] != q.shape[0]:
        raise ValueError(f"shape mismatch: codes {c.shape} vs query words {q.shape}")
    dtype = np.uint16 if c.shape[1] * WORD_BITS <= 0xFFFF else np.uint32
    if c.shape[1] == 0:
        return np.zeros(c.shape[0], dtype=dtype)
    return _shifted_hamming(c, q, 0, dtype)


def _shifted_hamming(c: np.ndarray, q: np.ndarray, shift: int, dtype) -> np.ndarray:
    """The one XOR/popcount scan: each code's Hamming distance to q, shifted
    left by `shift` bits, as `dtype`, which must hold the shifted sum.

    hamming_distances scans with shift 0; the shortlist shifts distances
    above each row, its id, to build its packed keys. It runs one word
    column at a time: a sum over axis 1 of a (N, words) array is several
    times slower once there are two or more words.
    """
    out = np.left_shift(np.bitwise_count(np.bitwise_xor(c[:, 0], q[0])), shift, dtype=dtype)
    for j in range(1, c.shape[1]):
        out += np.left_shift(np.bitwise_count(np.bitwise_xor(c[:, j], q[j])), shift, dtype=dtype)
    return out


def derive_seed(seed: int, tag: int) -> int:
    """Deterministic sub-stream seed: child `tag` of `seed` via spawn keys.

    Keeps independent pipeline stages (training split, sub-codebook
    training, query sampling, synthetic data streams) on distinct PCG64
    streams even when the user supplies a single seed. seed must pass
    _seed and tag _count.
    """
    ss = np.random.SeedSequence(entropy=_seed(seed, "seed"), spawn_key=(_count(tag, "tag"),))
    return int(ss.generate_state(1, dtype=np.uint64)[0])
