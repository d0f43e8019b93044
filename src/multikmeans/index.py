"""Searchable store of packed hash codes: Hamming shortlist, exact re-rank.

A query is encoded with the same spec and codebook(s) the index was built
with, the L codes nearest in Hamming distance form a shortlist, and the
shortlisted descriptors are re-ranked with the exact metric. Every
ordering breaks ties by ascending id, so results are deterministic.
"""

from __future__ import annotations

import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import (
    FormatError,
    HashCode,
    Metric,
    WORD_BITS,
    _BLOCK_ELEMENTS,
    _non_negative_integers,
    _row_ids,
    _row_source,
    _shifted_hamming,
    as_matrix,
    as_vector,
    atomic_write,
    read_array,
    read_exact,
    words_for,
)
from .encoder import (
    DualCodebook,
    EncoderSpec,
    code_length,
    encode_queries,
    read_quantizer_record,
    read_spec_record,
    write_quantizer_record,
    write_spec_record,
)
from .kmeans import Codebook

__all__ = [
    "SearchIndex",
    "SearchResult",
    "build_index",
    "shortlist",
    "search",
    "search_ids",
    "save_index",
    "load_index",
]

INDEX_MAGIC = b"MKMI"
INDEX_VERSION = 2
_INDEX_HEADER = struct.Struct("<IIQ")  # version, code_length, count


@dataclass(frozen=True, eq=False)
class SearchIndex:
    """Immutable code store plus the encoder needed to hash queries."""

    codes: np.ndarray  # (count, words) uint64, canonical padding; row i has id i
    code_length: int
    spec: EncoderSpec
    quantizer: Codebook | DualCodebook
    # the shortlist's tie-break: each row's number, its id, in the packed keys' dtype
    _ranks: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return self.codes.shape[0]

    @property
    def ids(self) -> np.ndarray:
        """Each row's id, its row number: 0..size-1 as int64."""
        return np.arange(self.size, dtype=np.int64)

    def __repr__(self) -> str:
        return f"SearchIndex(size={self.size}, code_length={self.code_length})"


@dataclass(frozen=True)
class SearchResult:
    """Top-R ids with their exact scores, best first."""

    ranked: tuple  # ((id, score), ...) distances ascending or similarities descending
    metric: Metric
    shortlist_size: int

    def ids(self) -> list[int]:
        return [i for i, _ in self.ranked]


def build_index(codes, ids, spec: EncoderSpec, quantizer) -> SearchIndex:
    """Assemble and validate an index from packed codes; row i's id is i.

    codes is a packed uint64 array shaped (N, words); every code must have
    the length the spec/quantizer pair produces, with canonical zero padding.
    ids must be 0..N-1, the rows' own numbers: an index stores no ids. The
    index keeps its own copy of the codes.
    """
    packed = np.array(_non_negative_integers(codes, "codes"), dtype=np.uint64, order="C")
    index = _own_index(packed, spec, quantizer)
    if not np.array_equal(_non_negative_integers(ids, "ids"), index.ids):
        raise ValueError(f"ids must be the row numbers 0..{index.size - 1} in order")
    return index


def _key_dtype(count: int, length: int):
    """The dtype of the shortlist's packed keys, distance << bitlen(count - 1)
    | row: uint32 while both parts fit 32 bits, else uint64, which holds
    any index that fits in memory."""
    return np.uint32 if (count - 1).bit_length() + length.bit_length() <= 32 else np.uint64


def _own_index(packed: np.ndarray, spec: EncoderSpec, quantizer) -> SearchIndex:
    """build_index on a C-ordered uint64 code array that no caller holds,
    which the index keeps as it is."""
    length = code_length(spec, quantizer)
    width = words_for(length)
    if packed.ndim != 2 or packed.shape[1] != width:
        raise ValueError(f"expected packed codes shaped (N, {width}), got {packed.shape}")
    if packed.shape[0] == 0:
        raise ValueError("an index needs at least one code")
    tail = length % WORD_BITS
    if tail and (packed[:, -1] >> np.uint64(tail)).any():
        raise ValueError("non-canonical padding: bits set past the code length")
    ranks = np.arange(packed.shape[0], dtype=_key_dtype(packed.shape[0], length))
    for arr in (packed, ranks):
        arr.setflags(write=False)
    return SearchIndex(packed, length, spec, quantizer, ranks)


def _topk(keys: np.ndarray, ids: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k smallest keys, ties by ascending id; the same as
    np.lexsort((ids, keys))[:k] for 1 <= k <= len(keys), but only keys up to
    the k-th are sorted."""
    cut = np.partition(keys, k - 1)[k - 1]
    # `not >` rather than `<=` keeps every key when the cut is NaN, so NaN
    # keys still sort last as they do in a full lexsort
    cand = np.flatnonzero(~(keys > cut))
    return cand[np.lexsort((ids[cand], keys[cand]))[:k]]


def _direct_distances(rows, q64: np.ndarray) -> np.ndarray:
    """Euclidean distances from q64 to each row, by float64 direct differences.

    The one exact kernel of the Euclidean re-rank and ground truth: a row's
    sum runs over that row alone, so its distance does not depend on which
    other rows share the call."""
    diff = np.asarray(rows, dtype=np.float64) - q64
    return np.sqrt(np.einsum("nd,nd->n", diff, diff))


def _gamma(n: int, unit: float) -> float:
    """Higham's gamma_n: the relative error of n roundings of unit size."""
    return n * unit / (1.0 - n * unit)


_U32 = 2.0**-24  # unit roundoff of float32
_U64 = 2.0**-53  # unit roundoff of float64
_UNDERFLOW32 = 2.0**-150  # largest error of a float32 product that underflows
_TINY64 = 2.0**-500  # above every float64 underflow effect, in distance units
_FLT_MAX = float(np.finfo(np.float32).max)


def _screen_margins(d: int) -> tuple[float, float]:
    """G and h of the proof in _lower, for dimension d."""
    g = _gamma(d, _U32)
    h = _gamma(d + 16, _U64)
    return 2.0 * g / (1.0 - g) + h, h


class _EuclideanScreen(NamedTuple):
    """The query-independent half of the screen in _lower, and the float64
    work array that every query's screen values overwrite."""

    rows: np.ndarray  # the rows as read, which the finish kernel scores
    ids: np.ndarray  # the rows' ids, which break the seeds' ties in lo
    rows32: np.ndarray  # the rows as float32
    a_lo: np.ndarray  # a (1 - G) in float64, -inf where a is not finite
    a_max: float  # the largest finite a
    cast: float  # the largest cast-error bound ||x - x'|| of a row with a finite a
    lo: np.ndarray  # work array: one query's screen values


def _euclidean_screen(rows, ids: np.ndarray) -> _EuclideanScreen:
    """The rows' float32 squared norms a, narrowed by the screen's margin,
    and their cast error (0.0 when the dtype casts to float32 exactly).

    A row holding inf or nan raises ValueError naming its id. Only rows
    whose a is not finite are checked element by element: a finite row
    whose a overflows (a component past ~1.8e19, or a float64 one past the
    float32 range) is kept by every query and ranked by the finish kernel.
    """
    n, d = rows.shape
    G, h = _screen_margins(d)
    err = None
    if not np.can_cast(rows.dtype, np.float32):
        # each row's ||x - x'|| sums that row alone; the walk's block is
        # small enough to take whole, and its float64 difference is freed
        # before rows32 exists, so the two never sit side by side
        with np.errstate(over="ignore", invalid="ignore"):
            diff = np.subtract(rows, rows.astype(np.float32), dtype=np.float64)
            err = np.sqrt(np.einsum("nd,nd->n", diff, diff))
        del diff
    with np.errstate(over="ignore", invalid="ignore"):
        rows32 = np.asarray(rows, dtype=np.float32)
        a = np.einsum("nd,nd->n", rows32, rows32)
    finite = np.isfinite(a)
    bad = np.flatnonzero(~finite)
    if bad.size:
        nonfinite = bad[~np.isfinite(rows[bad]).all(axis=1)]
        if nonfinite.size:
            raise ValueError(f"euclidean re-rank is undefined for non-finite base vector id {ids[nonfinite[0]]}")
    a_lo = np.multiply(a, 1.0 - G, dtype=np.float64)
    a_lo[bad] = -np.inf  # a finite row whose a overflows has no bound: no cut drops it
    cast = 0.0
    if err is not None:
        cast = float(np.max(err, where=finite, initial=0.0)) * (1.0 + h) + _TINY64
    if not G < 0.5:  # d of ~2.8 million or more, where gamma_d is no longer small: no bound
        cast = np.inf
    a_max = float(np.max(a, where=finite, initial=0.0))
    return _EuclideanScreen(rows, ids, rows32, a_lo, a_max, cast, np.empty(n))


class _Query(NamedTuple):
    """The row-independent half of one query's screen in _lower, computed
    once per query however many blocks of rows it screens."""

    q64: np.ndarray
    q32: np.ndarray  # q64 rounded to float32
    b: float  # ||q32||^2, summed in float64
    cast: float  # the cast-error bound ||q64 - q32||, 0.0 when q64 is exact in float32


def _query_screen(q64: np.ndarray) -> _Query:
    """q64's float32 rounding, squared norm and cast error (step 3 of the
    proof in _lower)."""
    h = _screen_margins(q64.shape[0])[1]
    with np.errstate(over="ignore", invalid="ignore"):
        q32 = q64.astype(np.float32)
        q32_64 = q32.astype(np.float64)
        b = float(q32_64 @ q32_64)
        dq = q64 - q32_64
        cast = float(np.sqrt(dq @ dq)) * (1.0 + h) + _TINY64 if dq.any() else 0.0
    return _Query(q64, q32, b, cast)


def _screen_terms(screen: _EuclideanScreen, query: _Query) -> tuple:
    """The scalars (beta-, e, h) of one query over one screen's rows, which
    _lower and _lower_cut map screen values with."""
    d = query.q64.shape[0]
    G, h = _screen_margins(d)
    e = screen.cast + query.cast
    if not (screen.a_max + d * _UNDERFLOW32) * query.b <= _FLT_MAX * _FLT_MAX / 4.0:
        e = np.inf
    return query.b * (1.0 - G) - 4.0 * d * _UNDERFLOW32, e, h


def _lower(lo, terms):
    """The lower bound L on a row's finish distance from its screen value
    lo = -2c + a (1 - G), where c is the row's float32 product with the
    query's float32 rounding, in any summation order: L <=
    _direct_distances(rows, q64) for every row with a finite a.

    The proof. Let x be a row as the finish kernel reads it (float64), q the
    query, x', q' their float32 roundings, d the dimension, u = 2^-24,
    v = 2^-53, gamma_n = n u / (1 - n u), h = gamma_{d+16} in v,
    delta = d 2^-150 and tau = 4 delta.

    1. Screen. a = fl32(||x'||^2) and c = fl32(x'.q') are float32 dot
       products in any summation order, with or without FMA; b = ||q'||^2
       is summed in float64. The dot-product bound (Higham, Accuracy and
       Stability of Numerical Algorithms, ch. 3), plus 2^-150 per product
       for gradual underflow, gives |c - x'.q'| <= gamma_d sum|x'_i q'_i|
       + delta <= gamma_d ||x'|| ||q'|| + delta, and likewise for a and b.
       As ||x' - q'||^2 = ||x'||^2 + ||q'||^2 - 2 x'.q' and
       2 ||x'|| ||q'|| <= ||x'||^2 + ||q'||^2, in real numbers
           (a + b)(1 - G + h) - 2c - tau <= ||x' - q'||^2
       with G = 2 gamma_d / (1 - gamma_d) + h.
    2. Evaluation. The screen sums the bound in float64 in two parts: per
       row lo = -2c + a (1 - G), where -2c is exact and a (1 - G) comes once
       per block; per query the scalar beta- = b (1 - G) - tau; and the sum
       lo + beta-. That is seven roundings: 1 - G, the products by a and by
       b, the adds of -2c and of tau, and the last sum. Each operand is at
       most 4.5 (a + b) + tau in size (|2c| <= 1.5 (a + b) while
       gamma_d < 0.2), so their errors total at most 12 v (a + b) + 2 v tau.
       The h (a + b) >= 17 v (a + b) that G holds beyond step 1 covers the
       first part; b's delta covers the second, since float32 squares never
       underflow in float64. So lo + beta- <= ||x' - q'||^2 after rounding.
    3. Cast. By the triangle inequality ||x - q|| lies within
       e = ||x - x'|| + ||q - q'|| of ||x' - q'||. The row term is the
       largest of the rows' bounds, so one scalar serves every row. A term
       is 0 when its vectors are exact in float32; otherwise it is summed
       in float64 from the exact differences and rounded up by (1 + h)
       plus 2^-500.
    4. Finish. The kernel's float64 distance f is within gamma_{d+3} in v
       of ||x - q||, plus 2^-500 for float64 underflow.
    Hence f >= (sqrt(max(lo + beta-, 0)) - e)(1 - h) - 2^-500, where h
    covers gamma_{d+3} and the few roundings that evaluate the map.

    Overflow. A float32 dot product that overflows would void step 1. By
    Cauchy-Schwarz no partial sum of c exceeds (1 + gamma_d) ||x'|| ||q'||,
    which stays below the float32 maximum M while (a_max + delta) b <=
    M^2 / 4 (a_max the largest finite a). A larger query sets e = inf: no
    row is then ruled out. A row whose a overflows has no bound either; its
    a (1 - G) is set to -inf, so its lo, -inf or nan, is never above a cut.
    """
    beta_lo, e, h = terms
    return (np.sqrt(np.maximum(lo + beta_lo, 0.0)) - e) * (1.0 - h) - _TINY64


def _lower_cut(T, terms) -> float:
    """A screen value X such that every lo with _lower(lo, terms) <= T is at
    most X: _lower inverted in float64 and rounded outward, +inf when that
    is not finite.

    Undoing _lower's roundings one at a time (each moves its result by at
    most v, i.e. 2^-53, of its size) gives lo <= (1 + 12 v) w^2 - beta-
    for the real w = (T + 2^-500) / (1 - h) + e. The computed w^2 may fall
    11 v short of the real one, and the 32 v (w^2 + |beta-|) added here
    covers both and the three roundings that evaluate X.
    """
    beta_lo, e, h = terms
    w = (T + _TINY64) / (1.0 - h) + e
    x = w * w
    cut = (x - beta_lo) + 32.0 * _U64 * (x + abs(beta_lo))
    return cut if cut < np.inf else np.inf


def _screened_rows(screen: _EuclideanScreen, query: _Query, top: int, dots, T: float):
    """The positions of the screen's rows that may be among the `top`
    nearest the query by (distance, id), and their finish distances, each
    row scored once; None when no row may be. A finite T is a distance
    within which `top` rows scored elsewhere lie; T = inf when there are
    none. 1 <= top <= the screen's row count; `dots` are the float32
    products rows32 @ q32, in any summation order.

    The cut comes from exact distances. The seeds, the `top` rows with the
    smallest lo by _topk (ties by id, nan last) among those with
    lo <= _lower_cut(T) (all rows when T = inf), are scored first, and T
    becomes min(T, the largest of their distances). `top` real rows then
    lie within T, so every row of the top has a finish distance f <= T;
    its L = _lower(lo) <= f <= T; and as _lower is non-decreasing (a chain
    of correctly rounded sqrt, max, sums with a constant and products by a
    positive constant), its lo <= X = _lower_cut(T). T is itself a finish
    distance, so it needs no rounding bound. Every row with lo <= X is
    kept; a lo of nan, which bounds nothing, is never above a cut. The
    kernel scores each row alone, so the top of the rows kept, with the
    rows scored elsewhere, is the top of all of them, ids and float64
    distances bit for bit.
    """
    terms = _screen_terms(screen, query)
    lo = screen.lo
    with np.errstate(invalid="ignore"):  # inf - inf: a row with no bound
        np.multiply(dots, -2.0, out=lo, dtype=np.float64)
        lo += screen.a_lo
    if T < np.inf:
        near = np.flatnonzero(~(lo > _lower_cut(T, terms)))
        if not near.size:  # the common case once the running top-k is full
            return None
        if near.size <= top:
            return near, _direct_distances(screen.rows[near], query.q64)
        seeds = near[_topk(lo[near], screen.ids[near], top)]
    else:
        seeds = _topk(lo, screen.ids, top)
    found = _direct_distances(screen.rows[seeds], query.q64)
    T = min(T, float(found.max()))
    keep = ~(lo > _lower_cut(T, terms))
    keep[seeds] = False
    rest = np.flatnonzero(keep)
    if rest.size:
        seeds = np.concatenate((seeds, rest))
        found = np.concatenate((found, _direct_distances(screen.rows[rest], query.q64)))
    return seeds, found


def _exact_topk(source, Q64, k: int, metric: Metric, ids=None) -> list:
    """The exact top k of every float64 query in Q64 (a 2-D array, or a
    list of vectors) over the rows of source: one (ids, scores) pair per
    query, best first by (score, id). Scores are float64 Euclidean
    distances or cosine similarities; ids are row positions, or ids[row]
    when given. The search re-rank runs it over one query's gathered
    shortlist, and brute_force_gt over a whole base.

    source is core._row_source's (n, d, read) of a 2-D array or a
    VectorReader, walked once in blocks of _BLOCK_ELEMENTS // d rows, so
    no array ever holds all of a reader's rows. Each query keeps a running
    top-k of (key, id), where the key is the distance or the negated
    similarity, and _topk merges each block's candidates in. A Euclidean
    block's screen drops every row it proves farther than the running k-th
    distance; a cosine block offers its own top-k. Every score comes from a
    row-pure kernel, so the result is that of one ranking over all rows,
    bit for bit, at any block size. A row
    holding inf or nan, or for cosine a zero-norm row, raises ValueError
    naming its id; a cosine query whose norm is zero or overflows float64
    raises ValueError too. Rows are checked a block at a time, each block
    before the queries that score it, so a bad row in a later block loses
    to a cosine zero-norm row or query met in an earlier one.
    """
    n, d, read = source
    step = min(n, max(1, _BLOCK_ELEMENTS // d))
    cosine = metric is Metric.COSINE
    qs = None if cosine else [_query_screen(q64) for q64 in Q64]
    run = [None] * len(Q64)  # each query's running top-k (keys, ids), ascending by (key, id)
    for s in range(0, n, step):
        rows = read(s, min(step, n - s))
        block = np.arange(s, s + rows.shape[0]) if ids is None else ids[s : s + step]
        top = min(k, rows.shape[0])
        if cosine:
            found = _cosine_block(rows, block, Q64, top)
        else:
            cuts = [np.inf if r is None or r[0].size < k else float(r[0][-1]) for r in run]
            found = _euclidean_block(rows, block, qs, top, cuts)
        for i, keep, keys in found:
            cand = block[keep]
            if run[i] is not None:  # the first block fills the running top-k directly
                keys = np.concatenate((run[i][0], keys))
                cand = np.concatenate((run[i][1], cand))
            sel = _topk(keys, cand, min(k, keys.size))
            run[i] = keys[sel], cand[sel]
    return [(cand, -keys if cosine else keys) for keys, cand in run]


def _euclidean_block(rows, block, qs, top, cuts):
    """For each query i whose screen keeps a row of this block nearer than
    cuts[i] (inf for no cut): (i, the kept positions, their distances). The
    screen's float32 products take _BLOCK_ELEMENTS // len(rows) queries at a
    time."""
    screen = _euclidean_screen(rows, block)
    chunk = max(1, _BLOCK_ELEMENTS // rows.shape[0])
    for c in range(0, len(qs), chunk):
        # The one fork. A lone query, each search re-rank's, takes its dots
        # from einsum, which wakes no BLAS thread and raises no
        # floating-point warnings: a lone BLAS call can be faster, but
        # OpenBLAS's threads would take the cores search_ids' workers run
        # on (a BLAS product per query more than halved
        # search_ids(threads=2)). brute_force_gt's several queries share
        # one BLAS product. The screen holds for any rounding, so the fork
        # changes no id or distance.
        if len(qs) == 1:
            dots = [np.einsum("nd,d->n", screen.rows32, qs[0].q32)]
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                dots = np.array([q.q32 for q in qs[c : c + chunk]]) @ screen.rows32.T
        for i, row_dots in enumerate(dots, start=c):
            kept = _screened_rows(screen, qs[i], top, row_dots, cuts[i])
            if kept is not None:
                yield i, *kept


def _cosine_block(rows, block, Q64, top):
    """For each query i: (i, the positions of this block's `top` rows most
    similar to it, their negated cosine similarities, clipped to [-1, 1]):
    the one cosine kernel of the exact walk.

    The rows are checked before any query: a non-finite or zero-norm row
    raises ValueError naming its id in `block`. A query whose norm is zero,
    or overflows float64 (which would turn every similarity into 0), raises
    ValueError. The rows are read as C-ordered float64, so each row's dot
    product sums over that row alone and its score does not depend on which
    other rows share the call.
    """
    # np.linalg.norm's sums, but its float64 squares are freed before the
    # float64 copy of the rows is made, so the two never sit side by side
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.add.reduce(np.square(rows, dtype=np.float64, order="C"), axis=1))
    if not np.isfinite(norms).all():
        raise ValueError(f"cosine similarity is undefined for non-finite base vector id {block[~np.isfinite(norms)][0]}")
    if (norms == 0.0).any():
        raise ValueError(f"cosine similarity is undefined for zero-norm base vector id {block[norms == 0.0][0]}")
    rows64 = np.ascontiguousarray(rows, dtype=np.float64)
    for i, q64 in enumerate(Q64):
        with np.errstate(over="ignore"):
            qn = np.linalg.norm(q64)
        if qn == 0.0:
            raise ValueError("cosine similarity is undefined for a zero-norm query")
        if not np.isfinite(qn):
            raise ValueError("cosine similarity is undefined for a query whose norm overflows float64")
        keys = -np.clip(np.einsum("nd,d->n", rows64, q64) / (norms * qn), -1.0, 1.0)
        keep = _topk(keys, block, top)
        yield i, keep, keys[keep]


def _nearest_codes(index: SearchIndex, words: np.ndarray, limit: int) -> np.ndarray:
    """Ids of the `limit` codes Hamming-nearest to one packed query row,
    ordered by (distance, id); the caller has checked 1 <= limit <= size.

    Each code's key is its distance shifted above its row, which is its id,
    so keys are unique and sort in (distance, id) order: one partition and a
    sort of `limit` keys select the shortlist, with no tie set to break."""
    shift = (index.size - 1).bit_length()
    keys = _shifted_hamming(index.codes, words, shift, index._ranks.dtype)
    keys |= index._ranks
    keys.partition(limit - 1)
    nearest = np.sort(keys[:limit])
    nearest &= (1 << shift) - 1
    return nearest.astype(np.int64)


def shortlist(index: SearchIndex, code: HashCode, limit: int) -> np.ndarray:
    """The `limit` index entries Hamming-nearest to `code`, ordered by
    (distance, id). Requires 1 <= limit <= index.size."""
    if not isinstance(code, HashCode):
        raise TypeError("shortlist expects a HashCode query")
    if code.length != index.code_length:
        raise ValueError(f"code length {code.length} does not match index {index.code_length}")
    if not (1 <= limit <= index.size):
        raise ValueError(f"shortlist size {limit} outside [1, {index.size}]")
    return _nearest_codes(index, code.words, limit)


def _gather(base_vectors, ids: np.ndarray) -> np.ndarray:
    """Fetch descriptors for ids from a 2-D array or a store with take(ids).
    A missing id means the index and the store disagree."""
    if isinstance(base_vectors, np.ndarray):
        if base_vectors.ndim != 2:
            raise ValueError("base vectors array must be 2-D")
        rows = _row_ids(ids, base_vectors.shape[0], "ids", "base store has no vector for id {id}")
        return np.take(base_vectors, rows, axis=0)
    take = getattr(base_vectors, "take", None)
    if not callable(take):
        raise TypeError("base store must be a 2-D array or an object with take(ids)")
    return np.asarray(take(ids))


def _rerank_arrays(q64: np.ndarray, cand_ids: np.ndarray, base_vectors, top: int, metric: Metric):
    """Exact top ids and scores among the candidates, ties by ascending id."""
    vecs = _gather(base_vectors, cand_ids)
    if vecs.ndim != 2 or vecs.shape[0] != cand_ids.shape[0] or vecs.shape[1] != q64.shape[0]:
        raise ValueError(f"base store returned shape {vecs.shape} for {cand_ids.shape[0]} ids")
    return _exact_topk(_row_source(vecs, "base store rows"), [q64], top, metric, cand_ids)[0]


def _usable_cpus() -> int:
    """The CPUs this process may run on, search_ids' default thread count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _search_block(index: SearchIndex, base_vectors, Q, shortlist_size: int, top: int, metric, threads: int | None):
    """The query path for a block of queries: encode, Hamming shortlist,
    exact re-rank. Returns (ids, scores), each shaped (len(Q), top).

    min(threads, len(Q)) worker threads take every workers-th query each;
    threads=None means _usable_cpus(). Every kernel on the path is
    row-pure, so no result depends on the count or on a query's position."""
    metric = Metric(metric)
    if threads is None:
        threads = _usable_cpus()
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    if not (1 <= top <= shortlist_size):
        raise ValueError(f"top={top} outside [1, shortlist={shortlist_size}]")
    if not (1 <= shortlist_size <= index.size):
        raise ValueError(f"shortlist size {shortlist_size} outside [1, {index.size}]")
    Q = as_matrix(Q, "queries")
    codes = encode_queries(Q, index.quantizer, index.spec)
    Q64 = np.ascontiguousarray(Q, dtype=np.float64)  # einsum sums a strided row in another order
    n = Q.shape[0]
    ids = np.empty((n, top), dtype=np.int64)
    scores = np.empty((n, top), dtype=np.float64)
    workers = min(threads, n)

    def part(w: int) -> None:
        for i in range(w, n, workers):
            cand = _nearest_codes(index, codes[i], shortlist_size)
            ids[i], scores[i] = _rerank_arrays(Q64[i], cand, base_vectors, top, metric)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(part, range(workers)))
    else:
        part(0)
    return ids, scores


def search(
    index: SearchIndex,
    base_vectors,
    query,
    shortlist_size: int,
    top: int,
    metric: Metric = Metric.EUCLIDEAN,
) -> SearchResult:
    """Hash the query, shortlist by Hamming distance, re-rank exactly.

    Scores are Euclidean distances (ascending) or cosine similarities
    (descending); ties in either stage break by ascending id. base_vectors
    is a 2-D array indexed by id, or any store with a take(ids) method.
    Runs on the calling thread.
    """
    v = as_vector(query, "query")
    metric = Metric(metric)
    ids, scores = _search_block(index, base_vectors, v[None, :], shortlist_size, top, metric, threads=1)
    ranked = tuple(zip(ids[0].tolist(), scores[0].tolist()))
    return SearchResult(ranked=ranked, metric=metric, shortlist_size=shortlist_size)


def search_ids(
    index: SearchIndex,
    base_vectors,
    queries,
    shortlist_size: int,
    top: int,
    metric: Metric = Metric.EUCLIDEAN,
    threads: int | None = None,
) -> np.ndarray:
    """Bulk search keeping only the ranked ids, shaped (len(queries), top).

    Same ordering rules as search(); meant for metric sweeps where holding
    per-query score tuples would be wasteful. The queries are spread over
    `threads` worker threads, at most one per query; None (the default)
    means one per CPU this process may run on. The count changes no
    result: row i is what search() returns for queries[i].
    """
    return _search_block(index, base_vectors, queries, shortlist_size, top, metric, threads)[0]


def save_index(index: SearchIndex, path) -> None:
    with atomic_write(path) as f:
        f.write(INDEX_MAGIC)
        f.write(_INDEX_HEADER.pack(INDEX_VERSION, index.code_length, index.size))
        write_spec_record(f, index.spec)
        write_quantizer_record(f, index.quantizer)
        f.write(np.ascontiguousarray(index.codes, dtype="<u8").data)


def load_index(path) -> SearchIndex:
    with open(path, "rb") as f:
        start = f.tell()
        magic = read_exact(f, 4, "index magic")
        if magic != INDEX_MAGIC:
            raise FormatError(f"bad index magic {magic!r}", offset=start)
        version, length, count = _INDEX_HEADER.unpack(
            read_exact(f, _INDEX_HEADER.size, "index header")
        )
        if version != INDEX_VERSION:
            raise FormatError(f"unsupported index format version {version}", offset=start + 4)
        if length < 1 or count < 1:
            raise FormatError(f"invalid index header: code_length={length} count={count}", offset=start + 8)
        spec = read_spec_record(f)
        quantizer_at = f.tell()
        quantizer = read_quantizer_record(f)
        try:
            expected = code_length(spec, quantizer)
        except (TypeError, ValueError) as exc:
            raise FormatError(f"encoder spec does not fit its codebook: {exc}", offset=quantizer_at) from exc
        if expected != length:
            raise FormatError(f"header code_length {length} does not match codebook ({expected})", offset=start + 8)
        codes = read_array(f, "<u8", (count, words_for(length)), "packed codes")
        if f.read(1):
            raise FormatError("trailing bytes after index payload", offset=f.tell() - 1)
    try:
        return _own_index(codes, spec, quantizer)
    except ValueError as exc:
        raise FormatError(f"inconsistent index payload: {exc}") from exc
