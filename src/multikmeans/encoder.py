"""Hash-code construction by multiple-centroid assignment.

A descriptor's code carries one bit per centroid. Variant "t" sets every
bit whose centroid lies within a mean-derived distance threshold
(arithmetic or geometric mean of the distances to all centroids); variant
"n" sets the bits of a fixed count of nearest centroids. The "t2"/"n2"
variants concatenate the codes from two codebooks trained on disjoint
random halves of the learning set, which doubles the code length for the
same per-codebook cost.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .core import (
    _BLOCK_ELEMENTS,
    FormatError,
    HashCode,
    _numeric,
    _sq_distances,
    as_matrix,
    as_vector,
    atomic_write,
    derive_seed,
    pack_bits,
    read_exact,
    words_for,
)
from .kmeans import (
    Codebook,
    TrainParams,
    read_codebook_record,
    train,
    write_codebook_record,
)

__all__ = [
    "Variant",
    "MeanKind",
    "EncoderSpec",
    "DualCodebook",
    "encode",
    "encode_many",
    "train_dual_codebook",
    "save_quantizer",
    "load_quantizer",
]

DUAL_MAGIC = b"MKM2"

# sub-stream tags for deriving split/training seeds from one run seed
_SPLIT_STREAM = 1
_FIRST_STREAM = 2
_SECOND_STREAM = 3


class Variant(str, Enum):
    T = "t"
    N = "n"
    T2 = "t2"
    N2 = "n2"


class MeanKind(str, Enum):
    ARITHMETIC = "arith"
    GEOMETRIC = "geom"


_VARIANT_TAGS = {Variant.T: 0, Variant.N: 1, Variant.T2: 2, Variant.N2: 3}
_TAG_VARIANTS = {v: k for k, v in _VARIANT_TAGS.items()}
_MEAN_TAGS = {MeanKind.ARITHMETIC: 0, MeanKind.GEOMETRIC: 1}
_TAG_MEANS = {v: k for k, v in _MEAN_TAGS.items()}
_SPEC_RECORD = struct.Struct("<BBI")  # variant tag, mean tag, n_nearest


@dataclass(frozen=True)
class EncoderSpec:
    """Which bit rule to apply and its parameters.

    mean_kind matters for the threshold variants (the nearest-count ones
    keep ARITHMETIC); n_nearest counts bits per codebook for the
    nearest-count variants (so an n2 code sets 2*n_nearest bits in total).
    """

    variant: Variant
    mean_kind: MeanKind = MeanKind.ARITHMETIC
    n_nearest: int = 0

    def __post_init__(self):
        object.__setattr__(self, "variant", Variant(self.variant))
        object.__setattr__(self, "mean_kind", MeanKind(self.mean_kind))
        if self.variant in (Variant.N, Variant.N2):
            if self.n_nearest < 1:
                raise ValueError(f"variant {self.variant.value} needs n_nearest >= 1")
            object.__setattr__(self, "mean_kind", MeanKind.ARITHMETIC)
        else:
            object.__setattr__(self, "n_nearest", 0)


@dataclass(frozen=True, eq=False)
class DualCodebook:
    """Two same-shape codebooks trained on disjoint halves of a learning set."""

    first: Codebook
    second: Codebook

    def __post_init__(self):
        if not isinstance(self.first, Codebook) or not isinstance(self.second, Codebook):
            raise TypeError("DualCodebook wraps two Codebook values")
        if self.first.dim != self.second.dim:
            raise ValueError(f"dimension mismatch: {self.first.dim} vs {self.second.dim}")
        if self.first.k != self.second.k:
            raise ValueError(f"sub-codebook sizes differ: {self.first.k} vs {self.second.k}")

    @property
    def k(self) -> int:
        return self.first.k

    @property
    def dim(self) -> int:
        return self.first.dim

    @property
    def code_length(self) -> int:
        return self.first.k + self.second.k

    def __repr__(self) -> str:
        return f"DualCodebook(k={self.k}+{self.k}, dim={self.dim})"


def _threshold_rows(dists: np.ndarray, mean_kind: MeanKind) -> np.ndarray:
    if mean_kind is MeanKind.ARITHMETIC:
        return dists.mean(axis=1)
    # geometric mean; any zero distance collapses the product to zero
    zero = (dists == 0.0).any(axis=1)
    safe = np.where(dists > 0.0, dists, 1.0)
    means = np.exp(np.log(safe).mean(axis=1))
    return np.where(zero, 0.0, means)


def _bits_threshold(dists: np.ndarray, mean_kind: MeanKind) -> np.ndarray:
    return dists <= _threshold_rows(dists, mean_kind)[:, None]


def _bits_nearest(dists: np.ndarray, n: int) -> np.ndarray:
    # stable argsort: equal distances rank the lower centroid index first
    order = np.argsort(dists, axis=1, kind="stable")
    bits = np.zeros(dists.shape, dtype=bool)
    np.put_along_axis(bits, order[:, :n], True, axis=1)
    return bits


def code_length(spec: EncoderSpec, quantizer) -> int:
    """Bits per code for this spec/quantizer pair; validates the pairing."""
    if not isinstance(spec, EncoderSpec):
        raise TypeError(f"spec must be an EncoderSpec, not {type(spec).__name__}")
    dual = spec.variant in (Variant.T2, Variant.N2)
    if not isinstance(quantizer, DualCodebook if dual else Codebook):
        raise TypeError(f"variant {spec.variant.value} requires a {'dual' if dual else 'single'} codebook")
    # n_nearest is 0 for the threshold variants, so they always pass
    if spec.n_nearest > quantizer.k:
        raise ValueError(f"n_nearest={spec.n_nearest} exceeds {'sub-codebook ' if dual else ''}k={quantizer.k}")
    return quantizer.code_length if dual else quantizer.k


def encode_many(vectors, quantizer, spec: EncoderSpec) -> np.ndarray:
    """Encode a stack of descriptors; returns packed codes shaped (N, words).

    vectors is a 2-D array or a VectorReader (any object with read(start,
    count), dim and len). Rows go in blocks of _BLOCK_ELEMENTS // (d + code
    bits), each sliced from the array or read from the reader: a block
    holds its float64 rows and its distances to every codebook at once, so
    those stay within _BLOCK_ELEMENTS values whatever N and d are. Their
    codes go straight into the one output array, and no array ever holds
    all of a reader's rows. Each block is checked, widened and squared once
    for all codebooks, and the centroids once for all blocks.

    Each block is scored with one matrix product, so a row within a few ulps
    of a flip of the rule can get another code than encode_queries gives it.
    """
    return _encode_rows(vectors, quantizer, spec, row_pure=False)


def encode_queries(Q, quantizer, spec: EncoderSpec) -> np.ndarray:
    """encode_many on the row-pure kernel: a row's code comes from sums over
    that row alone, so it is the same whichever rows share the call, and no
    BLAS thread is woken. encode, search and search_ids hash queries here."""
    return _encode_rows(Q, quantizer, spec, row_pure=True)


def _encode_rows(vectors, quantizer, spec: EncoderSpec, row_pure: bool) -> np.ndarray:
    """encode_many, scoring each block with _sq_distances(row_pure=row_pure)."""
    reader = callable(getattr(vectors, "read", None))
    X = vectors if reader else _numeric(vectors, 2, "vectors")
    n, d = (len(X), X.dim) if reader else X.shape
    length = code_length(spec, quantizer)
    if d != quantizer.dim:
        raise ValueError(f"dimension mismatch: vectors {d} vs codebook {quantizer.dim}")
    centroids = []
    for cb in (quantizer,) if isinstance(quantizer, Codebook) else (quantizer.first, quantizer.second):
        C64 = np.asarray(cb.centroids, dtype=np.float64)
        centroids.append((C64, np.einsum("md,md->m", C64, C64)))
    rows = max(1, _BLOCK_ELEMENTS // (d + length))
    out = np.empty((n, words_for(length)), dtype=np.uint64)
    for s in range(0, n, rows):
        # the block is an argument, so it and its temporaries are freed
        # before the next block is read
        block = X.read(s, min(rows, n - s)) if reader else X[s : s + rows]
        out[s : s + rows] = _encode_block(block, centroids, spec, row_pure)
    return out


def _encode_block(block, centroids, spec: EncoderSpec, row_pure: bool) -> np.ndarray:
    """Packed codes of one block of rows, against each codebook's float64
    centroids and their squared norms in centroids."""
    X64 = np.ascontiguousarray(as_matrix(block, "vectors"), dtype=np.float64)
    x_sq = np.einsum("nd,nd->n", X64, X64)
    dists = [_sq_distances(X64, x_sq, C64, c_sq, row_pure=row_pure) for C64, c_sq in centroids]
    del X64  # freed before the bit rules allocate theirs
    threshold = spec.variant in (Variant.T, Variant.T2)
    parts = []
    for d in dists:
        np.sqrt(d, out=d)
        parts.append(_bits_threshold(d, spec.mean_kind) if threshold else _bits_nearest(d, spec.n_nearest))
    return pack_bits(parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1))


def encode(x, quantizer, spec: EncoderSpec) -> HashCode:
    """Encode one descriptor into a HashCode, as encode_queries does."""
    v = as_vector(x)
    words = encode_queries(v[None, :], quantizer, spec)[0]
    return HashCode(words, code_length(spec, quantizer))


def split_training(data, seed: int = 0):
    """Shuffle-split rows into two disjoint halves (sizes differ by <= 1)."""
    X = np.asarray(data)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("need at least two training points to split")
    perm = np.random.default_rng(int(seed)).permutation(X.shape[0])
    half = (X.shape[0] + 1) // 2
    return X[perm[:half]].copy(), X[perm[half:]].copy()


def train_dual_codebook(data, k_sub: int, params: TrainParams = TrainParams()) -> DualCodebook:
    """Split the learning set and train one k_sub codebook per half."""
    half_a, half_b = split_training(data, derive_seed(params.seed, _SPLIT_STREAM))
    first = train(half_a, k_sub, replace(params, seed=derive_seed(params.seed, _FIRST_STREAM)))
    second = train(half_b, k_sub, replace(params, seed=derive_seed(params.seed, _SECOND_STREAM)))
    return DualCodebook(first, second)


def write_spec_record(f, spec: EncoderSpec) -> None:
    f.write(_SPEC_RECORD.pack(_VARIANT_TAGS[spec.variant], _MEAN_TAGS[spec.mean_kind], spec.n_nearest))


def read_spec_record(f) -> EncoderSpec:
    start = f.tell()
    vtag, mtag, n_nearest = _SPEC_RECORD.unpack(read_exact(f, _SPEC_RECORD.size, "encoder spec"))
    if vtag not in _TAG_VARIANTS:
        raise FormatError(f"unknown variant tag {vtag}", offset=start)
    if mtag not in _TAG_MEANS:
        raise FormatError(f"unknown mean tag {mtag}", offset=start + 1)
    variant = _TAG_VARIANTS[vtag]
    if variant in (Variant.N, Variant.N2) and n_nearest < 1:
        raise FormatError(f"variant {variant.value} stored with n_nearest={n_nearest}", offset=start + 2)
    return EncoderSpec(variant, _TAG_MEANS[mtag], n_nearest)


def write_quantizer_record(f, quantizer) -> None:
    """One codebook record, or the dual magic followed by two of them."""
    if isinstance(quantizer, DualCodebook):
        f.write(DUAL_MAGIC)
        write_codebook_record(f, quantizer.first)
        write_codebook_record(f, quantizer.second)
    else:
        write_codebook_record(f, quantizer)


def read_quantizer_record(f):
    """Read what write_quantizer_record wrote; the leading magic picks the kind."""
    start = f.tell()
    if read_exact(f, 4, "codebook magic") != DUAL_MAGIC:
        f.seek(start)
        return read_codebook_record(f)
    first = read_codebook_record(f)
    second = read_codebook_record(f)
    try:
        return DualCodebook(first, second)
    except ValueError as exc:
        raise FormatError(f"inconsistent dual codebook: {exc}", offset=start) from exc


def save_quantizer(quantizer, path) -> None:
    """Write a Codebook (.mkmc) or a DualCodebook (.mkm2) file."""
    with atomic_write(path) as f:
        write_quantizer_record(f, quantizer)


def load_quantizer(path):
    """Load a Codebook or a DualCodebook file, whichever it holds."""
    with open(path, "rb") as f:
        quantizer = read_quantizer_record(f)
        if f.read(1):
            raise FormatError("trailing bytes after codebook record", offset=f.tell() - 1)
    return quantizer
