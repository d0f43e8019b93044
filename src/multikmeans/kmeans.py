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

from .core import FormatError, _sq_distances, as_matrix, as_vector, atomic_write, pairwise_sq_distances, read_exact

__all__ = [
    "TrainParams",
    "TrainMeta",
    "Codebook",
    "kmeanspp_seed",
    "assign_nearest",
    "objective",
    "train",
    "distances_to_centroids",
    "save_codebook",
    "load_codebook",
    "write_codebook_record",
    "read_codebook_record",
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
        c = np.ascontiguousarray(c, dtype=np.float32)
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


def kmeanspp_seed(data, k: int, seed: int = 0) -> np.ndarray:
    """Pick k starting centroids from data by D-squared sampling.

    The first pick is uniform; each later pick lands on a data point with
    probability proportional to its squared distance to the nearest centroid
    chosen so far. If the remaining mass is all zero (duplicate points), the
    next pick is uniform over indices not selected yet.
    """
    X = as_matrix(data)
    if k < 2:
        raise ValueError("k must be at least 2")
    if X.shape[0] < k:
        raise ValueError(f"need at least k={k} points, got {X.shape[0]}")
    X64 = np.asarray(X, dtype=np.float64)
    # what pairwise_sq_distances(X64, one_row) would check and compute on
    # every pick, done once
    x_sq = np.einsum("nd,nd->n", X64, X64)

    def sq_distances_to(i: int) -> np.ndarray:
        row = X64[i][None, :]
        return _sq_distances(X64, row, np.einsum("md,md->m", row, row), a_sq=x_sq)[:, 0]

    rng = np.random.default_rng(int(seed))
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = rng.integers(X.shape[0])
    d2 = sq_distances_to(chosen[0])
    for i in range(1, k):
        total = d2.sum()
        if total > 0.0:
            idx = int(rng.choice(X.shape[0], p=d2 / total))
        else:
            remaining = np.setdiff1d(np.arange(X.shape[0]), chosen[:i])
            idx = int(rng.choice(remaining))
        chosen[i] = idx
        d2 = np.minimum(d2, sq_distances_to(idx))
    return X[chosen].copy()


def assign_nearest(data, centroids, chunk_rows: int | None = None):
    """Nearest-centroid labels and squared distances, ties to the lowest index.

    Returns (labels int64, sq_dist float64), both shaped (len(data),).
    """
    X = as_matrix(data)
    C = as_matrix(centroids, "centroids")
    if X.shape[1] != C.shape[1]:
        raise ValueError(f"dimension mismatch: data {X.shape[1]} vs centroids {C.shape[1]}")
    n = X.shape[0]
    labels = np.empty(n, dtype=np.int64)
    d2min = np.empty(n, dtype=np.float64)
    if chunk_rows is None:
        chunk_rows = max(1, (1 << 23) // C.shape[0])
    for s in range(0, n, chunk_rows):
        d2 = pairwise_sq_distances(X[s : s + chunk_rows], C)
        lab = np.argmin(d2, axis=1)
        labels[s : s + chunk_rows] = lab
        d2min[s : s + chunk_rows] = np.take_along_axis(d2, lab[:, None], axis=1)[:, 0]
    return labels, d2min


def objective(data, centroids) -> float:
    """Sum over points of squared distance to the nearest centroid."""
    _, d2min = assign_nearest(data, centroids)
    return float(d2min.sum())


def _segment_sums(X64: np.ndarray, labels: np.ndarray, k: int):
    """Per-label row sums and counts, summed in sorted-label order."""
    counts = np.bincount(labels, minlength=k)
    order = np.argsort(labels, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(counts)))[:-1]
    nz = np.flatnonzero(counts)
    sums = np.add.reduceat(X64[order], bounds[nz], axis=0)
    return sums, counts, nz


def train(data, k: int, params: TrainParams = TrainParams()) -> "Codebook":
    """Train a k-centroid codebook: D-squared seeding plus Lloyd sweeps.

    Stops when the relative objective improvement drops below
    params.rel_tol (or the objective hits zero), else after max_iters
    sweeps. A cluster left empty by an update is reseeded to the point
    farthest from its currently assigned centroid, so k never shrinks.
    """
    X = as_matrix(data)
    seeds = kmeanspp_seed(X, k, params.seed)
    C = np.asarray(seeds, dtype=np.float64).copy()
    X64 = np.asarray(X, dtype=np.float64)
    history: list[float] = []
    prev = None
    iterations = 0
    for _ in range(params.max_iters):
        labels, d2min = assign_nearest(X64, C)
        obj = float(d2min.sum())
        history.append(obj)
        if obj == 0.0 or (prev is not None and prev - obj < params.rel_tol * prev):
            break
        prev = obj
        sums, counts, nz = _segment_sums(X64, labels, k)
        C = C.copy()
        C[nz] = sums / counts[nz][:, None]
        empties = np.flatnonzero(counts == 0)
        if empties.size:
            farthest = np.argsort(-d2min, kind="stable")[: empties.size]
            C[empties] = X64[farthest]
        iterations += 1
    else:
        _, d2min = assign_nearest(X64, C)
        history.append(float(d2min.sum()))
    meta = TrainMeta(
        iterations=iterations,
        objective=history[-1],
        seed=params.seed,
        history=tuple(history),
    )
    return Codebook(C.astype(np.float32), meta)


def distances_to_centroids(x, codebook: Codebook) -> np.ndarray:
    """Euclidean distance from one descriptor to every centroid, shape (k,)."""
    v = as_vector(x)
    if v.shape[0] != codebook.dim:
        raise ValueError(f"dimension mismatch: vector {v.shape[0]} vs codebook {codebook.dim}")
    return np.sqrt(pairwise_sq_distances(v[None, :], codebook.centroids)[0])


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


def save_codebook(codebook: Codebook, path) -> None:
    with atomic_write(path) as f:
        write_codebook_record(f, codebook)


def load_codebook(path) -> Codebook:
    with open(path, "rb") as f:
        cb = read_codebook_record(f)
        trailing = f.read(1)
        if trailing:
            raise FormatError("trailing bytes after codebook record", offset=f.tell() - 1)
    return cb
