"""Codebook training: D-squared seeding followed by Lloyd refinement.

The trainer accumulates in float64 and stores finished centroids as
float32, the dtype the file formats use. All randomness flows from one
integer seed through numpy's PCG64 generator, so identical inputs
reproduce bit-identical codebooks.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .core import _BLOCK_ELEMENTS, FormatError, _sq_distances, as_matrix, read_exact

__all__ = [
    "TrainParams",
    "TrainMeta",
    "Codebook",
    "kmeanspp_seed",
    "train",
]

CODEBOOK_MAGIC = b"MKMC"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<IIIQ")  # version, k, dim, seed


@dataclass(frozen=True)
class TrainParams:
    """Stopping rule and RNG seed for codebook training."""

    max_iters: int = 100
    rel_tol: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not (self.rel_tol >= 0.0):
            raise ValueError("rel_tol must be non-negative")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in an unsigned 64-bit integer")


@dataclass(frozen=True)
class TrainMeta:
    """How a codebook came to be; loaded codebooks only know their seed."""

    iterations: int | None
    objective: float | None
    seed: int
    history: tuple = ()  # objective after seeding and after each Lloyd sweep


@dataclass(frozen=True, eq=False)
class Codebook:
    """k centroids over one descriptor space; centroid j owns code bit j."""

    centroids: np.ndarray
    train_meta: TrainMeta

    def __post_init__(self):
        c = as_matrix(self.centroids, "centroids")
        if c.shape[0] < 2:
            raise ValueError("a codebook needs at least 2 centroids")
        with np.errstate(over="ignore"):  # a copy: freezing it leaves the caller's array writable
            c = np.array(c, dtype=np.float32, order="C")
        if not np.isfinite(c).all():
            raise ValueError("centroids overflow float32")
        c.setflags(write=False)
        object.__setattr__(self, "centroids", c)

    @classmethod
    def from_centroids(cls, centroids, seed: int = 0) -> "Codebook":
        return cls(centroids, TrainMeta(iterations=None, objective=None, seed=seed))

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    @property
    def dim(self) -> int:
        return self.centroids.shape[1]

    def __repr__(self) -> str:
        return f"Codebook(k={self.k}, dim={self.dim})"


def _training_input(data, k: int):
    """(X, X64, x_sq) for seeding or training k centroids: the checked
    data, the data widened to float64, and its squared norms."""
    X = as_matrix(data)
    if k < 2:
        raise ValueError("k must be at least 2")
    if X.shape[0] < k:
        raise ValueError(f"need at least k={k} points, got {X.shape[0]}")
    X64 = np.asarray(X, dtype=np.float64)
    return X, X64, np.einsum("nd,nd->n", X64, X64)


def kmeanspp_seed(data, k: int, seed: int = 0) -> np.ndarray:
    """Pick k starting centroids from data by D-squared sampling.

    The first pick is uniform; each later pick lands on a data point with
    probability proportional to its squared distance to the nearest centroid
    chosen so far. If the remaining mass is all zero (duplicate points), the
    next pick is uniform over indices not selected yet.
    """
    return _kmeanspp_seed(*_training_input(data, k), k, seed)


def _kmeanspp_seed(X: np.ndarray, X64: np.ndarray, x_sq: np.ndarray, k: int, seed: int) -> np.ndarray:
    """kmeanspp_seed after its checks: X64 is X widened to float64 and x_sq
    its squared norms, computed once for all k picks."""
    n = X.shape[0]
    col = np.empty((n, 1), dtype=np.float64)

    def sq_distances_to(i: int) -> np.ndarray:
        row = X64[i][None, :]
        return _sq_distances(X64, x_sq, row, np.einsum("md,md->m", row, row), out=col)[:, 0]

    rng = np.random.default_rng(int(seed))
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = rng.integers(n)
    d2 = sq_distances_to(chosen[0]).copy()
    for i in range(1, k):
        total = d2.sum()
        if total > 0.0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            remaining = np.setdiff1d(np.arange(n), chosen[:i])
            idx = int(rng.choice(remaining))
        chosen[i] = idx
        np.minimum(d2, sq_distances_to(idx), out=d2)
    return X[chosen]


def _assign_work(n: int, k: int):
    """The arrays _assign fills for n points and k centroids: distances of
    one block of _BLOCK_ELEMENTS // k points (at most n), labels and
    nearest squared distances."""
    return (
        np.empty((min(n, max(1, _BLOCK_ELEMENTS // k)), k), dtype=np.float64),
        np.empty(n, dtype=np.int64),
        np.empty(n, dtype=np.float64),
    )


def _assign(X64, x_sq, C64, c_sq, work):
    """Nearest-centroid labels (int64) and squared distances (float64) of
    the rows of X64, ties to the lowest index, in blocks of as many points
    as work's distance buffer has rows (_assign_work sizes it). X64's rows
    are finite and as wide as C64's, and x_sq and c_sq hold their squared
    norms. work, from _assign_work, is reused across calls; the labels and
    distances returned live in it."""
    d2, labels, d2min = work
    n, chunk_rows = X64.shape[0], d2.shape[0]
    for s in range(0, n, chunk_rows):
        blk = X64[s : s + chunk_rows]
        dist = _sq_distances(blk, x_sq[s : s + chunk_rows], C64, c_sq, out=d2[: blk.shape[0]])
        lab = labels[s : s + chunk_rows]
        np.argmin(dist, axis=1, out=lab)
        d2min[s : s + chunk_rows] = np.take_along_axis(dist, lab[:, None], axis=1)[:, 0]
    return labels, d2min


def train(data, k: int, params: TrainParams = TrainParams()) -> "Codebook":
    """Train a k-centroid codebook: D-squared seeding plus Lloyd sweeps.

    Stops when the relative objective improvement is at most
    params.rel_tol (so rel_tol 0 stops at a fixed point) or the objective
    hits zero, else after max_iters sweeps. A cluster left empty by an
    update is reseeded to the point farthest from its currently assigned
    centroid, so k never shrinks.

    The data is checked, widened and squared once, and each sweep reuses
    buffers allocated here. A new centroid is the mean of its cluster's
    points summed in data order by np.add.reduceat, one component at a
    time over a contiguous row of the transposed data: the first point
    plus numpy's pairwise sum of the rest, bit for bit what reduceat over
    the label-sorted rows gives. A slice sum over axis 0, or np.bincount
    with weights, adds in sequence and differs in the last bits.
    """
    X, X64, x_sq = _training_input(data, k)
    C = np.array(_kmeanspp_seed(X, X64, x_sq, k, params.seed), dtype=np.float64)
    n, d = X.shape
    work = _assign_work(n, k)
    # gathered in X's own dtype, then widened: the same values as a gather
    # of X64, from half the bytes when X is float32
    XT = np.ascontiguousarray(X.T)
    gathered = np.empty(n, dtype=X.dtype)
    column = gathered if X.dtype == np.float64 else np.empty(n, dtype=np.float64)
    sumsT = np.empty((d, k), dtype=np.float64)

    def assign():
        c_sq = np.einsum("md,md->m", C, C)
        # a centroid sum that overflowed; O(k), as a non-finite row has a
        # non-finite norm
        if not np.isfinite(c_sq).all():
            as_matrix(C, "centroids")
        return _assign(X64, x_sq, C, c_sq, work)

    history: list[float] = []
    prev = None
    for _ in range(params.max_iters):
        labels, d2min = assign()
        obj = float(d2min.sum())
        history.append(obj)
        if obj == 0.0 or (prev is not None and prev - obj <= params.rel_tol * prev):
            break
        prev = obj
        counts = np.bincount(labels, minlength=k)
        order = np.argsort(labels, kind="stable")
        nz = np.flatnonzero(counts)
        starts = (np.cumsum(counts) - counts)[nz]
        sums = sumsT[:, : nz.size]
        for j in range(d):
            np.take(XT[j], order, out=gathered)
            if column is not gathered:
                column[:] = gathered
            np.add.reduceat(column, starts, out=sums[j])
        C[nz] = sums.T / counts[nz][:, None]
        empties = np.flatnonzero(counts == 0)
        if empties.size:
            farthest = np.argsort(-d2min, kind="stable")[: empties.size]
            C[empties] = X64[farthest]
    else:
        _, d2min = assign()
        history.append(float(d2min.sum()))
    meta = TrainMeta(
        iterations=len(history) - 1,
        objective=history[-1],
        seed=params.seed,
        history=tuple(history),
    )
    return Codebook(C, meta)


def write_codebook_record(f, codebook: Codebook) -> None:
    seed = codebook.train_meta.seed
    f.write(CODEBOOK_MAGIC)
    f.write(_HEADER.pack(FORMAT_VERSION, codebook.k, codebook.dim, seed))
    f.write(np.ascontiguousarray(codebook.centroids, dtype="<f4").tobytes())


def read_codebook_record(f) -> Codebook:
    start = f.tell()
    magic = read_exact(f, 4, "codebook magic")
    if magic != CODEBOOK_MAGIC:
        raise FormatError(f"bad codebook magic {magic!r}", offset=start)
    version, k, dim, seed = _HEADER.unpack(read_exact(f, _HEADER.size, "codebook header"))
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported codebook format version {version}", offset=start + 4)
    if k < 2 or dim < 1:
        raise FormatError(f"invalid codebook shape k={k} dim={dim}", offset=start + 8)
    payload = read_exact(f, k * dim * 4, "centroid payload")
    cents = np.frombuffer(payload, dtype="<f4").reshape(k, dim)
    if not np.isfinite(cents).all():
        raise FormatError("codebook contains non-finite centroids", offset=start + 4 + _HEADER.size)
    return Codebook(cents, TrainMeta(iterations=None, objective=None, seed=seed))
