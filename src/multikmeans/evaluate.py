"""Brute-force ground truth and retrieval metrics (recall@R, average precision).

Every exact ranking here breaks ties by ascending id, matching the search
path, so metric computations never depend on sort accidents.
"""

from __future__ import annotations

import warnings

import numpy as np

from .core import _count, _row_ids, _row_source, as_matrix
from .index import _exact_topk

__all__ = [
    "brute_force_gt",
    "recall_at_r",
    "average_precision",
    "label_relevance",
]


def brute_force_gt(base, queries, k: int) -> np.ndarray:
    """Exact k-nearest ids (base row positions) for every query, shape (Q, k).

    base is a 2-D array or a VectorReader (any object with read(start,
    count), dim and len). Rows rank by ascending Euclidean distance, equal
    distances the lower id first, as in the search path's re-rank, whose
    screen and finish kernel index._exact_topk shares. k must be an
    integer (not a bool), else TypeError. A base row holding inf or nan
    raises ValueError naming its id (the lowest such id). The base is
    walked once, in blocks, so no array ever holds all of a reader's rows.
    """
    k = _count(k, "k")
    source = _row_source(base, "base")
    n, d, _ = source
    Q = as_matrix(queries, "queries")
    if d != Q.shape[1]:
        raise ValueError(f"dimension mismatch: base {d} vs queries {Q.shape[1]}")
    if not (1 <= k <= n):
        raise ValueError(f"k={k} outside [1, {n}]")
    return np.array([ids for ids, _ in _exact_topk(source, np.asarray(Q, dtype=np.float64), k)])


def recall_at_r(results, ground_truth, r: int) -> float:
    """Fraction of queries whose true first neighbor is in the first r of
    its ranked ids. r must be an integer (not a bool), else TypeError."""
    r = _count(r, "r")
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
    means stay defined. total_relevant must be an integer (not a bool),
    else TypeError.
    """
    total_relevant = _count(total_relevant, "total_relevant")
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
    lab = np.asarray(labels)
    if lab.ndim != 1:
        raise ValueError("labels must be a 1-D array indexed by id")
    ids = _row_ids(result_ids, lab.shape[0], "result_ids", "no label for id {id}")
    return (lab[ids] == query_label).astype(np.int8)

