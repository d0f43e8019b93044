"""Brute-force ground truth and retrieval metrics (recall@R, average precision).

Every exact ranking here breaks ties by ascending id, matching the search
path, so metric computations never depend on sort accidents.
"""

from __future__ import annotations

import warnings

import numpy as np

from .core import _BLOCK_ELEMENTS, Metric, _numeric_matrix, as_matrix
from .index import _cosine_screen, _cosine_topk, _euclidean_screen, _euclidean_topk

__all__ = [
    "brute_force_gt",
    "recall_at_r",
    "average_precision",
    "label_relevance",
]


def brute_force_gt(base, queries, k: int, metric: Metric = Metric.EUCLIDEAN) -> np.ndarray:
    """Exact k-nearest ids (base row positions) for every query, shape (Q, k).

    Euclidean ranks ascending distance, cosine descending similarity; equal
    scores rank the lower id first, as in the search path's re-rank. A base
    row holding inf or nan raises ValueError naming its id.
    """
    B = _numeric_matrix(base, "base")
    Q = as_matrix(queries, "queries")
    if B.shape[1] != Q.shape[1]:
        raise ValueError(f"dimension mismatch: base {B.shape[1]} vs queries {Q.shape[1]}")
    if not (1 <= k <= B.shape[0]):
        raise ValueError(f"k={k} outside [1, {B.shape[0]}]")
    metric = Metric(metric)
    out = np.empty((Q.shape[0], k), dtype=np.int64)
    positions = np.arange(B.shape[0], dtype=np.int64)
    if metric is Metric.EUCLIDEAN:
        topk, screen, dtype = _euclidean_topk, _euclidean_screen(B, positions), np.float32
    else:
        topk, screen, dtype = _cosine_topk, _cosine_screen(B, positions), np.float64
    chunk = max(1, _BLOCK_ELEMENTS // B.shape[0])
    for s in range(0, Q.shape[0], chunk):
        Q64 = np.asarray(Q[s : s + chunk], dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            dots = np.asarray(Q64, dtype=dtype) @ screen[0].T
        for r, q64 in enumerate(Q64):
            out[s + r] = topk(B, q64, positions, k, screen, dots[r])[0]
    return out


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

