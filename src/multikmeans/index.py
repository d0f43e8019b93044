"""Searchable store of packed hash codes: Hamming shortlist, exact re-rank.

A query is encoded with the same spec and codebook(s) the index was built
with, the L codes nearest in Hamming distance form a shortlist, and the
shortlisted descriptors are re-ranked with the exact metric. Every
ordering breaks ties by ascending id, so results are deterministic.
"""

from __future__ import annotations

import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import (
    FormatError,
    HashCode,
    Metric,
    WORD_BITS,
    as_matrix,
    as_vector,
    atomic_write,
    hamming_distances,
    pairwise_sq_distances,
    read_exact,
    words_for,
)
from .encoder import (
    DualCodebook,
    EncoderSpec,
    Variant,
    code_length,
    encode_many,
    read_dual_record,
    read_spec_record,
    write_dual_record,
    write_spec_record,
)
from .kmeans import Codebook, read_codebook_record, write_codebook_record

__all__ = [
    "SearchIndex",
    "SearchResult",
    "build_index",
    "shortlist",
    "search",
    "search_many",
    "search_ids",
    "save_index",
    "load_index",
]

INDEX_MAGIC = b"MKMI"
INDEX_VERSION = 1
_INDEX_HEADER = struct.Struct("<IIQ")  # version, code_length, count


@dataclass(frozen=True, eq=False)
class SearchIndex:
    """Immutable code store plus the encoder needed to hash queries."""

    codes: np.ndarray  # (count, words) uint64, canonical padding
    ids: np.ndarray  # (count,) int64, unique, non-negative
    code_length: int
    spec: EncoderSpec
    quantizer: Codebook | DualCodebook

    @property
    def size(self) -> int:
        return self.ids.shape[0]

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
    """Assemble and validate an index from packed codes aligned with ids.

    codes is a packed uint64 array shaped (N, words); every code must have
    the length the spec/quantizer pair produces, with canonical zero padding.
    """
    length = code_length(spec, quantizer)
    width = words_for(length)
    packed = np.array(codes, dtype=np.uint64, order="C")
    if packed.ndim != 2 or packed.shape[1] != width:
        raise ValueError(f"expected packed codes shaped (N, {width}), got {packed.shape}")
    if packed.shape[0] == 0:
        raise ValueError("an index needs at least one code")
    tail = length % WORD_BITS
    if tail and (packed[:, -1] >> np.uint64(tail)).any():
        raise ValueError("non-canonical padding: bits set past the code length")
    ids_arr = np.asarray(ids, dtype=np.int64).copy()
    if ids_arr.ndim != 1 or ids_arr.shape[0] != packed.shape[0]:
        raise ValueError(f"ids shape {ids_arr.shape} does not align with {packed.shape[0]} codes")
    if (ids_arr < 0).any():
        raise ValueError("ids must be non-negative")
    if np.unique(ids_arr).shape[0] != ids_arr.shape[0]:
        raise ValueError("ids must be unique")
    packed.setflags(write=False)
    ids_arr.setflags(write=False)
    return SearchIndex(packed, ids_arr, length, spec, quantizer)


def _topk(keys: np.ndarray, ids: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k smallest keys, ties by ascending id; the same as
    np.lexsort((ids, keys))[:k] for 1 <= k <= len(keys), but only keys up to
    the k-th are sorted."""
    cut = np.partition(keys, k - 1)[k - 1]
    # `not >` rather than `<=` keeps every key when the cut is NaN, so NaN
    # keys still sort last as they do in a full lexsort
    cand = np.flatnonzero(~(keys > cut))
    return cand[np.lexsort((ids[cand], keys[cand]))[:k]]


def _nearest_codes(index: SearchIndex, words: np.ndarray, limit: int) -> np.ndarray:
    """Ids of the `limit` codes Hamming-nearest to one packed query row,
    ordered by (distance, id); the caller has checked 1 <= limit <= size."""
    ham = hamming_distances(index.codes, words)
    return index.ids[_topk(ham, index.ids, limit)]


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
        if ids.size and (ids.min() < 0 or ids.max() >= base_vectors.shape[0]):
            bad = ids[(ids < 0) | (ids >= base_vectors.shape[0])][0]
            raise LookupError(f"base store has no vector for id {bad}")
        return base_vectors[ids]
    take = getattr(base_vectors, "take", None)
    if not callable(take):
        raise TypeError("base store must be a 2-D array or an object with take(ids)")
    return np.asarray(take(ids))


def _rerank_arrays(q64: np.ndarray, cand_ids: np.ndarray, base_vectors, top: int, metric: Metric):
    """Exact top ids and scores among the candidates, ties by ascending id."""
    vecs = _gather(base_vectors, cand_ids)
    if vecs.ndim != 2 or vecs.shape[0] != cand_ids.shape[0] or vecs.shape[1] != q64.shape[0]:
        raise ValueError(f"base store returned shape {vecs.shape} for {cand_ids.shape[0]} ids")
    if metric is Metric.EUCLIDEAN:
        # pairwise_sq_distances checks the rows in their stored dtype and
        # widens them to float64 itself
        try:
            scores = np.sqrt(pairwise_sq_distances(q64[None, :], vecs)[0])
        except ValueError:
            # only the error path looks for the id, so the hot path keeps its
            # O(L) check
            bad = cand_ids[~np.isfinite(vecs).all(axis=1)] if vecs.dtype.kind == "f" else ()
            if len(bad):
                raise ValueError(f"euclidean re-rank is undefined for non-finite base vector id {bad[0]}") from None
            raise
        keep = _topk(scores, cand_ids, top)
    else:
        vecs = np.asarray(vecs, dtype=np.float64)
        qn = np.linalg.norm(q64)
        norms = np.linalg.norm(vecs, axis=1)
        if qn == 0.0:
            raise ValueError("cosine re-rank is undefined for a zero-norm query")
        if not np.isfinite(norms).all():
            bad = cand_ids[~np.isfinite(norms)][0]
            raise ValueError(f"cosine re-rank is undefined for non-finite base vector id {bad}")
        if (norms == 0.0).any():
            bad = cand_ids[norms == 0.0][0]
            raise ValueError(f"cosine re-rank is undefined for zero-norm base vector id {bad}")
        scores = np.clip((vecs @ q64) / (norms * qn), -1.0, 1.0)
        keep = _topk(-scores, cand_ids, top)
    return cand_ids[keep], scores[keep]


def _search_block(index: SearchIndex, base_vectors, Q, shortlist_size: int, top: int, metric, threads: int):
    """The query path for a block of queries: encode, Hamming shortlist,
    exact re-rank. Returns (ids, scores), each shaped (len(Q), top)."""
    metric = Metric(metric)
    if not (1 <= top <= shortlist_size):
        raise ValueError(f"top={top} outside [1, shortlist={shortlist_size}]")
    if not (1 <= shortlist_size <= index.size):
        raise ValueError(f"shortlist size {shortlist_size} outside [1, {index.size}]")
    Q = as_matrix(Q, "queries")
    codes = encode_many(Q, index.quantizer, index.spec)
    Q64 = np.asarray(Q, dtype=np.float64)
    ids = np.empty((Q.shape[0], top), dtype=np.int64)
    scores = np.empty((Q.shape[0], top), dtype=np.float64)

    def one(i: int) -> None:
        cand = _nearest_codes(index, codes[i], shortlist_size)
        ids[i], scores[i] = _rerank_arrays(Q64[i], cand, base_vectors, top, metric)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(one, range(Q.shape[0])))
    else:
        for i in range(Q.shape[0]):
            one(i)
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
    """
    v = as_vector(query, "query")
    return search_many(index, base_vectors, v[None, :], shortlist_size, top, metric)[0]


def search_many(
    index: SearchIndex,
    base_vectors,
    queries,
    shortlist_size: int,
    top: int,
    metric: Metric = Metric.EUCLIDEAN,
    threads: int = 1,
) -> list[SearchResult]:
    """search() over a stack of queries; optionally fanned out over threads."""
    metric = Metric(metric)
    ids, scores = _search_block(index, base_vectors, queries, shortlist_size, top, metric, threads)
    return [
        SearchResult(ranked=tuple(zip(i.tolist(), s.tolist())), metric=metric, shortlist_size=shortlist_size)
        for i, s in zip(ids, scores)
    ]


def search_ids(
    index: SearchIndex,
    base_vectors,
    queries,
    shortlist_size: int,
    top: int,
    metric: Metric = Metric.EUCLIDEAN,
    threads: int = 1,
) -> np.ndarray:
    """Bulk search keeping only the ranked ids, shaped (len(queries), top).

    Same ordering rules as search(); meant for metric sweeps where holding
    per-query score tuples would be wasteful.
    """
    return _search_block(index, base_vectors, queries, shortlist_size, top, metric, threads)[0]


def save_index(index: SearchIndex, path) -> None:
    with atomic_write(path) as f:
        f.write(INDEX_MAGIC)
        f.write(_INDEX_HEADER.pack(INDEX_VERSION, index.code_length, index.size))
        write_spec_record(f, index.spec)
        if isinstance(index.quantizer, DualCodebook):
            write_dual_record(f, index.quantizer)
        else:
            write_codebook_record(f, index.quantizer)
        f.write(np.ascontiguousarray(index.codes, dtype="<u8").tobytes())
        f.write(index.ids.astype("<u8").tobytes())


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
        if spec.variant in (Variant.T2, Variant.N2):
            quantizer = read_dual_record(f)
        else:
            quantizer = read_codebook_record(f)
        if code_length(spec, quantizer) != length:
            raise FormatError(
                f"header code_length {length} does not match codebook ({code_length(spec, quantizer)})",
                offset=start + 8,
            )
        width = words_for(length)
        codes = np.frombuffer(
            read_exact(f, count * width * 8, "packed codes"), dtype="<u8"
        ).reshape(count, width)
        raw_ids = np.frombuffer(read_exact(f, count * 8, "ids"), dtype="<u8")
        if f.read(1):
            raise FormatError("trailing bytes after index payload", offset=f.tell() - 1)
    if (raw_ids >= np.uint64(2**63)).any():
        raise FormatError("id does not fit a signed 64-bit integer")
    try:
        return build_index(codes, raw_ids.astype(np.int64), spec, quantizer)
    except ValueError as exc:
        raise FormatError(f"inconsistent index payload: {exc}") from exc
