"""Searchable store of packed hash codes: Hamming shortlist, exact re-rank.

A query is encoded with the same spec and codebook(s) the index was built
with, the L codes nearest in Hamming distance form a shortlist, and the
shortlisted descriptors are re-ranked by exact Euclidean distance. Every
ordering breaks ties by ascending id, so results are deterministic.
"""

from __future__ import annotations

import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

from .core import (
    FormatError,
    HashCode,
    WORD_BITS,
    _BLOCK_ELEMENTS,
    _non_negative_integers,
    _row_ids,
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
# elements (queries x L x dimension) one chunk of a search worker's queries
# gathers for one _rerank call, and at least one query: a chunk makes one set
# of numpy calls for all its queries, so search_ids' workers queue less on
# the GIL held between them (README, "Search cost")
_CHUNK_ELEMENTS = 1 << 20
# elements (rows x dimension) each shard of a query's shortlist must gather
# before _search_block splits the query over worker threads: below it the
# hand-off costs more than the split saves, as measured at N = 200 000 and
# d = 128 only (search)
_SHARD_ELEMENTS = 1 << 17


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

    ranked: tuple  # ((id, distance), ...) distances ascending
    metric: str  # always "euclidean"
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
    other rows share the call. rows is (..., d), q64 one query (d,) or any
    shape that broadcasts against rows, such as one query per row; the
    distances come back flat, one per row."""
    diff = np.asarray(rows, dtype=np.float64) - q64
    diff = diff.reshape(-1, diff.shape[-1])
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
    ids names the rows in that error only.
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
    return _EuclideanScreen(rows, rows32, a_lo, a_max, cast, np.empty(n))


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


def _lower_cut(T, terms):
    """A screen value X such that every lo with _lower(lo, terms) <= T is at
    most X: _lower inverted in float64 and rounded outward, +inf when that
    overflows. T and the terms may be scalars or per-query arrays.

    Undoing _lower's roundings one at a time (each moves its result by at
    most v, i.e. 2^-53, of its size) gives lo <= (1 + 12 v) w^2 - beta-
    for the real w = (T + 2^-500) / (1 - h) + e. The computed w^2 may fall
    11 v short of the real one, and the 32 v (w^2 + |beta-|) added here
    covers both and the three roundings that evaluate X. X is never nan:
    T >= 0 and e >= 0 make w >= 0, and beta- is finite.
    """
    beta_lo, e, h = terms
    w = (T + _TINY64) / (1.0 - h) + e
    x = w * w
    return (x - beta_lo) + 32.0 * _U64 * (x + abs(beta_lo))


def _screen_values(dots, a_lo, out) -> np.ndarray:
    """Each row's screen value lo = -2c + a (1 - G) of _lower, from its
    float32 product c and its a_lo, written into the float64 array out."""
    with np.errstate(invalid="ignore"):  # inf - inf: a row with no bound
        np.multiply(dots, -2.0, out=out, dtype=np.float64)
        out += a_lo
    return out


def _screened_rows(screen: _EuclideanScreen, query: _Query, top: int, dots, T: float):
    """The positions of the screen's rows that may be among the `top`
    nearest the query by (distance, id), and their finish distances, each
    row scored once; None when no row may be. A finite T is a distance
    within which `top` rows scored elsewhere lie; T = inf when there are
    none. 1 <= top <= the screen's row count; `dots` are the float32
    products rows32 @ q32, in any summation order.

    The cut comes from exact distances. The seeds, `top` rows of least lo
    by np.argpartition (nan last) among those with lo <= _lower_cut(T)
    (all rows when T = inf), are scored first, and T becomes min(T, the
    largest of their distances). `top` real rows then lie within T, so
    every row of the top has a finish distance f <= T; its
    L = _lower(lo) <= f <= T; and as _lower is non-decreasing (a chain of
    correctly rounded sqrt, max, sums with a constant and products by a
    positive constant), its lo <= X = _lower_cut(T). T is itself a finish
    distance, so it needs no rounding bound. Every row with lo <= X is
    kept; a lo of nan, which bounds nothing, is never above a cut. The
    kernel scores each row alone, so the top of the rows kept, with the
    rows scored elsewhere, is the top of all of them, ids and float64
    distances bit for bit, whichever `top` rows the seeds are.
    """
    terms = _screen_terms(screen, query)
    lo = _screen_values(dots, screen.a_lo, screen.lo)
    if T < np.inf:
        near = np.flatnonzero(~(lo > _lower_cut(T, terms)))
        if not near.size:  # the common case once the running top-k is full
            return None
        if near.size <= top:
            return near, _direct_distances(screen.rows[near], query.q64)
        seeds = near[np.argpartition(lo[near], top - 1)[:top]]
    else:
        seeds = np.argpartition(lo, top - 1)[:top]
    found = _direct_distances(screen.rows[seeds], query.q64)
    T = min(T, float(found.max()))
    keep = ~(lo > _lower_cut(T, terms))
    keep[seeds] = False
    rest = np.flatnonzero(keep)
    if rest.size:
        seeds = np.concatenate((seeds, rest))
        found = np.concatenate((found, _direct_distances(screen.rows[rest], query.q64)))
    return seeds, found


def _exact_topk(source, Q64, k: int) -> list:
    """Ground truth's walk: the exact top k of every float64 query in Q64
    (a 2-D array) over the rows of source, one (ids, distances) pair per
    query, nearest first by (distance, id). Distances are float64
    Euclidean; ids are row positions.

    source is core._row_source's (n, d, read) of a 2-D array or a
    VectorReader, walked once in blocks of _BLOCK_ELEMENTS // d rows, so
    no array ever holds all of a reader's rows. Each query keeps a running
    top-k of (distance, id), and _topk merges each block's kept rows in.
    A block's screen drops every row it proves farther than the running
    k-th distance, and its float32 products come from one BLAS product per
    _BLOCK_ELEMENTS // (block rows) queries; the screen holds for any
    rounding, so a lone query takes one too. Every distance comes from the
    row-pure _direct_distances, so the result is that of one ranking over
    all rows, bit for bit, at any block size. A row holding inf or nan
    raises ValueError naming its id.
    """
    n, d, read = source
    step = min(n, max(1, _BLOCK_ELEMENTS // d))
    qs = [_query_screen(q64) for q64 in Q64]
    run = [None] * len(qs)  # each query's running top-k (distances, ids), ascending by (distance, id)
    for s in range(0, n, step):
        rows = read(s, min(step, n - s))
        block = np.arange(s, s + rows.shape[0])
        top = min(k, rows.shape[0])
        screen = _euclidean_screen(rows, block)
        chunk = max(1, _BLOCK_ELEMENTS // rows.shape[0])
        for c in range(0, len(qs), chunk):
            with np.errstate(over="ignore", invalid="ignore"):
                dots = np.array([q.q32 for q in qs[c : c + chunk]]) @ screen.rows32.T
            for i, row_dots in enumerate(dots, start=c):
                prev = run[i]
                cut = np.inf if prev is None or prev[0].size < k else float(prev[0][-1])
                kept = _screened_rows(screen, qs[i], top, row_dots, cut)
                if kept is None:
                    continue
                keep, dist = kept
                cand = block[keep]
                if prev is not None:  # the first block fills the running top-k directly
                    dist = np.concatenate((prev[0], dist))
                    cand = np.concatenate((prev[1], cand))
                sel = _topk(dist, cand, min(k, dist.size))
                run[i] = dist[sel], cand[sel]
    return [(cand, dist) for dist, cand in run]


def _nearest_keys(index: SearchIndex, words: np.ndarray, limit: int, start: int, stop: int) -> np.ndarray:
    """The min(limit, stop - start) smallest packed keys of codes
    start..stop-1 against one packed query row, unordered.

    Each code's key is its distance shifted above its row, which is its id,
    so keys are unique and sort in (distance, id) order."""
    keys = _shifted_hamming(index.codes[start:stop], words, (index.size - 1).bit_length(), index._ranks.dtype)
    keys |= index._ranks[start:stop]
    if limit < keys.size:
        keys.partition(limit - 1)
    return keys[:limit]


def _key_ids(index: SearchIndex, keys: np.ndarray, limit: int) -> np.ndarray:
    """Ids of the `limit` smallest of `keys`, ordered by (distance, id): one
    partition and a sort of `limit` keys, with no tie set to break. keys
    may be one scan's, or the union of several ranges' _nearest_keys."""
    if limit < keys.size:
        keys.partition(limit - 1)
    nearest = np.sort(keys[:limit])
    nearest &= (1 << (index.size - 1).bit_length()) - 1
    return nearest.astype(np.int64)


def _nearest_codes(index: SearchIndex, words: np.ndarray, limit: int) -> np.ndarray:
    """Ids of the `limit` codes Hamming-nearest to one packed query row,
    ordered by (distance, id); the caller has checked 1 <= limit <= size."""
    return _key_ids(index, _nearest_keys(index, words, limit, 0, index.size), limit)


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


def _rerank(base_vectors, Q64: np.ndarray, cands: np.ndarray, top: int):
    """The re-rank of a chunk of m queries: the exact top `top` of each
    float64 query in Q64 (m, d) over its own row of the shortlists cands
    (m, L), 1 <= top <= L, nearest first by (distance, id). Returns (ids,
    distances), each (m, top).

    One gather fetches all m * L rows: the store's take(ids) receives them
    in one call, and a shape it returns that is not (m * L, d) raises
    ValueError counting the m * L ids. A row holding inf or nan raises
    ValueError naming its id, the first in query order. One float32
    einsum gives every query's products with its own rows. A lone query
    then runs _screened_rows; in a chunk of several, its screen runs for
    all m queries at once: each query takes as seeds the `top` rows of
    least lo, scores them, and keeps every row with
    lo <= _lower_cut(the largest seed distance). The rows' cast
    error and a_max are taken over the whole chunk, which only widens each
    query's bound: the proof in _lower holds for any larger e or a_max.
    One lexsort by (query, distance, id) picks each query's top. Every
    distance comes from the row-pure _direct_distances, so each query's
    ids and distances are those of a re-rank of its rows alone, bit for
    bit, however the queries are chunked.
    """
    m, L = cands.shape
    flat = cands.ravel()
    rows = _gather(base_vectors, flat)
    if rows.ndim != 2 or rows.shape[0] != flat.size or rows.shape[1] != Q64.shape[1]:
        raise ValueError(f"base store returned shape {rows.shape} for {flat.size} ids")
    screen = _euclidean_screen(rows, flat)
    qs = [_query_screen(q64) for q64 in Q64]
    with np.errstate(over="ignore", invalid="ignore"):
        dots = np.einsum("mld,md->ml", screen.rows32.reshape(m, L, -1), np.array([q.q32 for q in qs]))
    if m == 1:  # a lone query, as each split shard is: ground truth's per-query screen makes fewer numpy calls
        keep, dist = _screened_rows(screen, qs[0], top, dots[0], np.inf)
        sel = _topk(dist, flat[keep], top)
        return flat[keep[sel]][None], dist[sel][None]
    terms = tuple(np.array(t) for t in zip(*(_screen_terms(screen, q) for q in qs)))
    lo = _screen_values(dots, screen.a_lo.reshape(m, L), screen.lo.reshape(m, L))
    seeds = np.argpartition(lo, top - 1, axis=1)[:, :top] + (np.arange(m) * L)[:, None]
    found = _direct_distances(rows[seeds], Q64[:, None, :])
    keep = ~(lo > _lower_cut(found.reshape(m, top).max(axis=1), terms)[:, None]).ravel()
    keep[seeds] = False
    rest = np.flatnonzero(keep)
    pos = np.concatenate((seeds.ravel(), rest))
    dist = np.concatenate((found, _direct_distances(rows[rest], Q64[rest // L])))
    query = pos // L
    order = np.lexsort((flat[pos], dist, query))
    counts = np.bincount(query, minlength=m)
    starts = np.cumsum(counts) - counts
    pick = order[starts[:, None] + np.arange(top)]
    return flat[pos[pick]], dist[pick]


def _usable_cpus() -> int:
    """The CPUs this process may run on: search's worker count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


_IN_POOL = threading.local()  # .active is set on the pool's own threads
_POOL = None
_POOL_LOCK = threading.Lock()


def _mark_pool_thread() -> None:
    """The executor's initializer: mark the new thread as the pool's."""
    _IN_POOL.active = True


def _worker_pool() -> ThreadPoolExecutor:
    """The process's one executor, made on first use with one thread per
    usable CPU but the caller's. If the affinity mask widens later, a
    call's tasks queue on these threads; as _run_tasks waits for every
    task, no result changes."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = ThreadPoolExecutor(max(1, _usable_cpus() - 1), "multikmeans-search", _mark_pool_thread)
        return _POOL


def _forget_pool() -> None:
    """Drop the executor in a forked child, which has none of its threads."""
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _run_tasks(tasks: list) -> list:
    """Each task's result, in task order. The first task runs on the
    calling thread and the rest on the pool; once all have finished, the
    first failure in task order is raised. One task, or any task list that
    a pool thread hands in (a store's take that searches), runs on the
    calling thread alone, so no pool thread ever waits on the pool."""
    if len(tasks) == 1 or getattr(_IN_POOL, "active", False):
        return [task() for task in tasks]
    pool = _worker_pool()
    futures = [pool.submit(task) for task in tasks[1:]]
    try:
        first = tasks[0]()
    finally:
        for future in futures:
            future.exception()  # waits for it, raising nothing
    return [first] + [future.result() for future in futures]


def _count(x, name: str) -> int:
    """x as an int, else TypeError naming `name`: a Python or numpy
    integer, and not a bool."""
    if isinstance(x, (bool, np.bool_)) or not isinstance(x, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(x).__name__}")
    return int(x)


def _shared_store(base_vectors) -> bool:
    """Whether threads may read base_vectors at once: a 2-D array, or a
    VectorReader, whose reads and takes share no file offset. Only such a
    store is searched by _usable_cpus() workers; any other store is read on
    the calling thread."""
    from .dataio import VectorReader  # dataio imports this module through evaluate

    return isinstance(base_vectors, (np.ndarray, VectorReader))


def _search_block(index: SearchIndex, base_vectors, Q, shortlist_size: int, top: int):
    """The query path for a block of queries: encode, Hamming shortlist,
    exact re-rank. Returns (ids, scores), each shaped (len(Q), top).

    With workers = _usable_cpus() for a _shared_store and 1 for any other
    store, each query gets max(1, workers // len(Q)) shards, but no more
    than keeps L * d / shards >= _SHARD_ELEMENTS. One shard per query:
    min(workers, len(Q)) workers take every workers-th query each, and
    re-rank them in chunks of max(1, _CHUNK_ELEMENTS // (L * d)) queries,
    one _rerank per chunk. More: each query's scan and re-rank are cut into
    shards of contiguous codes and of shortlist rows, and the caller merges
    them. Every kernel on the path is row-pure and every merge selects by
    (distance, id), so no result depends on the count, the shards, the
    chunks or a query's position."""
    shortlist_size, top = _count(shortlist_size, "shortlist_size"), _count(top, "top")
    if not (1 <= top <= shortlist_size):
        raise ValueError(f"top={top} outside [1, shortlist={shortlist_size}]")
    if not (1 <= shortlist_size <= index.size):
        raise ValueError(f"shortlist size {shortlist_size} outside [1, {index.size}]")
    Q = as_matrix(Q, "queries")
    codes = encode_queries(Q, index.quantizer, index.spec)
    Q64 = np.ascontiguousarray(Q, dtype=np.float64)  # einsum sums a strided row in another order
    n, d = Q.shape
    ids = np.empty((n, top), dtype=np.int64)
    scores = np.empty((n, top), dtype=np.float64)
    workers = _usable_cpus() if _shared_store(base_vectors) else 1
    shards = min(workers // n, shortlist_size, shortlist_size * d // _SHARD_ELEMENTS)
    if shards > 1:
        _search_shards(index, base_vectors, codes, Q64, shortlist_size, top, shards, ids, scores)
        return ids, scores
    workers = min(workers, n)
    chunk = max(1, _CHUNK_ELEMENTS // (shortlist_size * d))

    def part(w: int) -> None:
        for c in range(w, n, workers * chunk):
            sel = slice(c, c + workers * chunk, workers)
            cands = np.array([_nearest_codes(index, codes[i], shortlist_size) for i in range(n)[sel]])
            ids[sel], scores[sel] = _rerank(base_vectors, Q64[sel], cands, top)

    _run_tasks([partial(part, w) for w in range(workers)])
    return ids, scores


def _search_shards(index: SearchIndex, base_vectors, codes, Q64, limit: int, top: int, shards: int, ids, scores):
    """_search_block's split path: every query's scan and re-rank, each cut
    into `shards` tasks, fill ids and scores.

    A scan shard keeps the min(limit, range) smallest keys of its range of
    codes; keys are unique, so the `limit` smallest of their union are
    _nearest_codes'. A re-rank shard keeps the exact top of its slice of
    the shortlist; the kernel scores each row alone, so _topk's
    (distance, id) merge of those tops is one walk's result."""
    n = Q64.shape[0]
    ranges = [(index.size * s // shards, index.size * (s + 1) // shards) for s in range(shards)]
    keys = _run_tasks([partial(_nearest_keys, index, codes[i], limit, a, b) for i in range(n) for a, b in ranges])
    cands = [_key_ids(index, np.concatenate(keys[i * shards : (i + 1) * shards]), limit) for i in range(n)]
    slices = [slice(limit * s // shards, limit * (s + 1) // shards) for s in range(shards)]
    tops = _run_tasks([
        partial(_rerank, base_vectors, Q64[i : i + 1], cands[i][None, r], min(top, r.stop - r.start))
        for i in range(n) for r in slices
    ])
    for i in range(n):
        part = tops[i * shards : (i + 1) * shards]
        cand = np.concatenate([c[0] for c, _ in part])
        dist = np.concatenate([d[0] for _, d in part])
        sel = _topk(dist, cand, top)
        ids[i], scores[i] = cand[sel], dist[sel]


def search(index: SearchIndex, base_vectors, query, shortlist_size: int, top: int) -> SearchResult:
    """Hash the query, shortlist by Hamming distance, re-rank exactly.

    Scores are Euclidean distances, ascending; ties in either stage break
    by ascending id. base_vectors is a 2-D array indexed by id, or any
    store with a take(ids) method. Any store other than an array or a
    VectorReader is read on the calling thread alone.

    Over an array or a VectorReader, a query splits into one shard per
    usable CPU while each shard gathers at least _SHARD_ELEMENTS = 2^17
    elements of the shortlist (L * d / shards): each scans a contiguous
    range of codes for its own L nearest keys, then each gathers and
    re-ranks a slice of the merged shortlist. The calling thread runs one
    shard and one persistent pool's threads the rest, and the caller
    merges them by (distance, id), so the split changes no id or score.
    Lone-query throughput with two shards against one, on a 2-core x86
    machine (N = 200 000, d = 128, variant t, top = 10, memory-mapped
    base; medians of 7 alternating passes over 200 queries):

        L      1000   2000   3000   5000  10 000  20 000
        gain   -7 %   +2 %  +12 %  +27 %   +42 %   +53 %

    so at d = 128 a query splits from L = 2048 on. The budget was set from
    this one sweep: it counts only the gathered elements, not the N codes
    the scan round also splits, and is unmeasured at other N or d.
    """
    v = as_vector(query, "query")
    ids, scores = _search_block(index, base_vectors, v[None, :], shortlist_size, top)
    ranked = tuple(zip(ids[0].tolist(), scores[0].tolist()))
    return SearchResult(ranked=ranked, metric="euclidean", shortlist_size=shortlist_size)


def search_ids(index: SearchIndex, base_vectors, queries, shortlist_size: int, top: int) -> np.ndarray:
    """Bulk search keeping only the ranked ids, shaped (len(queries), top).

    Same ordering rules as search(); meant for evaluation runs, where
    holding per-query score tuples would be wasteful. Over an array or a
    VectorReader the queries are spread over one worker per usable CPU,
    each taking every workers-th query while there are at least as many
    queries as workers, and split like search()'s otherwise; any other
    store is read on the calling thread. The worker count changes no
    result: row i is what search() returns for queries[i].

    A worker re-ranks its queries in chunks of m = max(1, 2^20 // (L * d))
    (8 at L = 1000, d = 128), so a store's take(ids) receives a chunk's
    m * L shortlisted ids, query after query, in one call. A store that
    returns rows of the wrong shape raises "base store returned shape ...
    for m * L ids"; a missing id anywhere in the chunk raises before any
    of its rows is screened, so it wins over a non-finite row of an
    earlier query of the same chunk.
    """
    return _search_block(index, base_vectors, queries, shortlist_size, top)[0]


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
