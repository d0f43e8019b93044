"""Naive reference for the ranking contract the benchmark checks outputs against.

It shares no code with the library's search path: full Hamming distances
with a full stable sort (no partition), then exact float64 Euclidean
distances by direct differences (no norm expansion). Both stages order by
(distance, ascending id). The base rows it re-ranks come from fvecs_rows,
which reads the file with numpy alone, not through the library's readers.
"""

from __future__ import annotations

import numpy as np

# scores come from ||x||^2 + ||q||^2 - 2 x.q in the library and from direct
# differences here, so they agree to rounding, not bit for bit
SCORE_RTOL = 1e-9


def fvecs_rows(path) -> np.ndarray:
    """The (n, d) float32 rows of an .fvecs file, memory-mapped by numpy.

    Every record must be an int32 d followed by d float32 values.
    """
    d = int(np.fromfile(path, dtype=np.int32, count=1)[0])
    recs = np.memmap(path, dtype=np.float32, mode="r").reshape(-1, d + 1)
    if not (recs[:, 0].view(np.int32) == d).all():
        raise ValueError(f"{path}: records do not all hold {d} values")
    return recs[:, 1:]


def reference_shortlist(codes: np.ndarray, ids: np.ndarray, query_words: np.ndarray, limit: int) -> np.ndarray:
    """ids of the `limit` codes nearest `query_words`, by (Hamming distance, id)."""
    ham = np.bitwise_count(codes ^ query_words[None, :]).sum(axis=1)
    # the narrowest integer type lets numpy's stable sort use radix sort
    key = ham.astype(np.min_scalar_type(int(ham.max())))
    by_id = np.argsort(ids, kind="stable")
    order = by_id[np.argsort(key[by_id], kind="stable")]
    return ids[order[:limit]]


def reference_rerank(candidates: np.ndarray, vectors: np.ndarray, query: np.ndarray, top: int):
    """Top ids and Euclidean distances among candidates; `vectors` row i is candidate i."""
    diff = np.asarray(vectors, dtype=np.float64) - np.asarray(query, dtype=np.float64)[None, :]
    dist = np.sqrt(np.einsum("nd,nd->n", diff, diff))
    order = np.lexsort((candidates, dist))[:top]
    return candidates[order], dist[order]


def reference_search(codes, ids, query_words, query, fetch, limit: int, top: int):
    """Shortlist then exact re-rank; fetch(ids) returns the base rows for ids."""
    cand = reference_shortlist(codes, ids, query_words, limit)
    return reference_rerank(cand, fetch(cand), query, top)


def same_ranking(got_ids, got_scores, want_ids, want_scores) -> bool:
    """Exactly the same ids in the same order; scores equal to rounding."""
    got_ids = np.asarray(got_ids)
    if got_ids.shape != want_ids.shape or not np.array_equal(got_ids, want_ids):
        return False
    if got_scores is None:
        return True
    return bool(np.allclose(got_scores, want_scores, rtol=SCORE_RTOL, atol=0.0))


def reference_knn(base: np.ndarray, query: np.ndarray, depth: int, chunk_rows: int = 16384) -> np.ndarray:
    """Exact `depth` nearest base rows by direct-difference distance, ties by row."""
    q = np.asarray(query, dtype=np.float64)
    dist = np.empty(base.shape[0], dtype=np.float64)
    for s in range(0, base.shape[0], chunk_rows):
        diff = np.asarray(base[s : s + chunk_rows], dtype=np.float64) - q[None, :]
        dist[s : s + chunk_rows] = np.einsum("nd,nd->n", diff, diff)
    return np.argsort(dist, kind="stable")[:depth]
