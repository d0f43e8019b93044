"""Brute-force ground truth and retrieval metrics (recall@R, average precision).

Every exact ranking here breaks ties by ascending id, matching the search
path, so metric computations never depend on sort accidents.
"""

from __future__ import annotations

import warnings

import numpy as np

from .core import _BLOCK_ELEMENTS, Metric, _numeric_matrix, as_matrix
from .index import (
    _cosine_screen,
    _cosine_topk,
    _direct_distances,
    _euclidean_screen,
    _query_screen,
    _screened_rows,
    _topk,
)

__all__ = [
    "brute_force_gt",
    "recall_at_r",
    "average_precision",
    "label_relevance",
]


def brute_force_gt(base, queries, k: int, metric: Metric = Metric.EUCLIDEAN) -> np.ndarray:
    """Exact k-nearest ids (base row positions) for every query, shape (Q, k).

    base is a 2-D array or a VectorReader (any object with read(start,
    count), dim and len). Euclidean ranks ascending distance, cosine
    descending similarity; equal scores rank the lower id first, as in the
    search path's re-rank. A base row holding inf or nan raises ValueError
    naming its id (the lowest such id).

    The base is walked once, in blocks of _BLOCK_ELEMENTS // d rows, each a
    view of the array or one read of the reader, so no array ever holds all
    of a reader's rows. Each query keeps a running top-k of (key, id),
    where the key is the distance or the negated similarity, and _topk
    merges each block's candidates in. A Euclidean block's screen drops
    every row it proves farther than the running k-th distance; a cosine
    block offers its own top-k. Every score comes from a row-pure kernel,
    so the ids are those of one ranking over all rows. Cosine checks its
    rows a block at a time: a bad row in a later block loses to a zero-norm
    row or query met in an earlier one.
    """
    reader = callable(getattr(base, "read", None))
    B = None if reader else _numeric_matrix(base, "base")
    n, d = (len(base), base.dim) if reader else B.shape
    Q = as_matrix(queries, "queries")
    if d != Q.shape[1]:
        raise ValueError(f"dimension mismatch: base {d} vs queries {Q.shape[1]}")
    if not (1 <= k <= n):
        raise ValueError(f"k={k} outside [1, {n}]")
    Q64 = np.asarray(Q, dtype=np.float64)
    cosine = Metric(metric) is Metric.COSINE
    step = min(n, max(1, _BLOCK_ELEMENTS // d))
    qs = None if cosine else [_query_screen(q64) for q64 in Q64]
    Q32 = None if cosine else np.array([q.q32 for q in qs])  # the roundings the query terms bound
    ids = np.empty((Q.shape[0], k), dtype=np.int64)
    keys = np.empty((Q.shape[0], k))  # each query's running top-k, ascending by (key, id)
    filled = 0  # rows in every running top-k: min(k, rows walked)
    for s in range(0, n, step):
        rows = base.read(s, min(step, n - s)) if reader else B[s : s + step]
        block = np.arange(s, s + rows.shape[0])
        top = min(k, rows.shape[0])
        if cosine:
            found = _cosine_block(rows, block, Q64, top)
        else:
            cuts = keys[:, k - 1] if filled == k else np.full(Q.shape[0], np.inf)
            found = _euclidean_block(rows, block, qs, Q32, top, cuts)
        for i, keep, block_keys in found:
            cand_k = np.concatenate((keys[i, :filled], block_keys))
            cand_i = np.concatenate((ids[i, :filled], keep + s))
            sel = _topk(cand_k, cand_i, min(k, filled + rows.shape[0]))
            keys[i, : sel.size], ids[i, : sel.size] = cand_k[sel], cand_i[sel]
        filled = min(k, filled + rows.shape[0])
    return ids


def _euclidean_block(rows, block, qs, Q32, top, cuts):
    """For each query i whose screen keeps a row of this block nearer than
    cuts[i]: (i, the kept positions, their distances). The screen's float32
    products take _BLOCK_ELEMENTS // len(rows) queries at a time."""
    screen = _euclidean_screen(rows, block)
    chunk = max(1, _BLOCK_ELEMENTS // rows.shape[0])
    for c in range(0, len(qs), chunk):
        with np.errstate(over="ignore", invalid="ignore"):
            dots = Q32[c : c + chunk] @ screen.rows32.T
        for i, row_dots in enumerate(dots, start=c):
            keep = _screened_rows(screen, qs[i], top, row_dots, float(cuts[i]))
            if keep.size:
                yield i, keep, _direct_distances(rows[keep], qs[i].q64)


def _cosine_block(rows, block, Q64, top):
    """For each query i: (i, the positions of this block's `top` rows most
    similar to it, their negated similarities). A bad row raises first."""
    screen = _cosine_screen(rows, block)
    for i, q64 in enumerate(Q64):
        keep, scores = _cosine_topk(rows, q64, block, top, screen)
        yield i, keep, -scores


def recall_at_r(results, ground_truth, r: int) -> float:
    """Fraction of queries whose true first neighbor is in the first r of its ranked ids."""
    if r < 1:
        raise ValueError("r must be at least 1")
    gt = np.asarray(ground_truth, dtype=np.int64)
    if gt.ndim != 2 or gt.shape[0] == 0 or gt.shape[1] == 0:
        raise ValueError(f"ground truth must be a nonempty (Q, k) array, got {gt.shape}")
    results = list(results)
    if len(results) != gt.shape[0]:
        raise ValueError(f"{len(results)} results for {gt.shape[0]} ground-truth rows")
    hits = 0
    for res, row in zip(results, gt):
        ids = np.asarray(res, dtype=np.int64)
        if ids.shape[0] < r:
            raise ValueError(f"result holds {ids.shape[0]} ids, cannot score recall@{r}")
        hits += int((ids[:r] == row[0]).any())
    return hits / gt.shape[0]


def average_precision(relevance, total_relevant: int) -> float:
    """Mean precision over the relevant ranks, normalized by total_relevant.

    A query with no relevant items scores 0 (with a warning), so aggregate
    means stay defined.
    """
    rel = np.asarray(relevance)
    if rel.ndim != 1 or rel.size == 0:
        raise ValueError("relevance must be a nonempty 1-D sequence")
    if not np.isin(rel, (0, 1)).all():
        raise ValueError("relevance flags must be 0 or 1")
    if total_relevant < 0:
        raise ValueError("total_relevant must be non-negative")
    found = int((rel == 1).sum())
    if found > total_relevant:
        raise ValueError(f"{found} relevant results exceed total_relevant={total_relevant}")
    if total_relevant == 0:
        warnings.warn("query has no relevant items; average precision defaults to 0", stacklevel=2)
        return 0.0
    ranks = np.flatnonzero(rel == 1)
    precisions = (np.arange(ranks.size) + 1.0) / (ranks + 1.0)
    return float(precisions.sum() / total_relevant)


def label_relevance(query_label, result_ids, labels) -> np.ndarray:
    """Binary flags: 1 where a result id carries the query's label."""
    ids = np.asarray(result_ids)
    if ids.ndim != 1:
        raise ValueError("result_ids must be 1-D")
    if ids.size and ids.dtype.kind not in "iu":
        raise ValueError(f"result_ids must be integers, got dtype {ids.dtype}")
    ids = ids.astype(np.int64, copy=False)
    lab = np.asarray(labels)
    if lab.ndim != 1:
        raise ValueError("labels must be a 1-D array indexed by id")
    if ids.size and (ids.min() < 0 or ids.max() >= lab.shape[0]):
        bad = ids[(ids < 0) | (ids >= lab.shape[0])][0]
        raise LookupError(f"no label for id {int(bad)}")
    return (lab[ids] == query_label).astype(np.int8)

