import importlib
import math
import pkgutil

import numpy as np
import pytest

import multikmeans
from multikmeans.core import (
    HashCode,
    _sq_distances,
    derive_seed,
    hamming_distances,
    pack_bits,
    unpack_bits,
    words_for,
)


def naive_euclidean(a, b):
    return math.sqrt(sum((float(x) - float(y)) ** 2 for x, y in zip(a, b)))


def sq_distances(a, b):
    A64, B64 = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return _sq_distances(A64, np.einsum("nd,nd->n", A64, A64), B64, np.einsum("md,md->m", B64, B64))


class TestPairwiseSqDistances:
    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((13, 5)).astype(np.float32)
        b = rng.standard_normal((9, 5)).astype(np.float32)
        got = sq_distances(a, b)
        want = np.array(
            [[naive_euclidean(x, y) ** 2 for y in b] for x in a], dtype=np.float64
        )
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_self_diagonal_exact_zero(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((30, 12)).astype(np.float32)
        d = sq_distances(a, a)
        assert (np.diag(d) == 0.0).all()
        assert (d >= 0.0).all()


class TestPacking:
    def test_known_words(self):
        # bit j lands in bit j of the first word
        assert pack_bits([1, 0, 1, 1]).tolist() == [0b1101]
        assert pack_bits([0] * 63 + [1]).tolist() == [1 << 63]
        two = pack_bits([1] + [0] * 63 + [1])
        assert two.tolist() == [1, 1]

    def test_roundtrip_many_lengths(self):
        rng = np.random.default_rng(12)
        for length in [1, 2, 7, 8, 9, 63, 64, 65, 127, 128, 129, 200]:
            bits = rng.integers(0, 2, size=length).astype(bool)
            words = pack_bits(bits)
            assert words.shape == (words_for(length),)
            np.testing.assert_array_equal(unpack_bits(words, length), bits)

    def test_roundtrip_2d(self):
        rng = np.random.default_rng(13)
        bits = rng.integers(0, 2, size=(10, 70)).astype(bool)
        words = pack_bits(bits)
        assert words.shape == (10, 2)
        np.testing.assert_array_equal(unpack_bits(words, 70), bits)

    def test_padding_is_zero(self):
        words = pack_bits([1] * 5)
        assert words[0] == 0b11111

    def test_unpack_validates_width(self):
        with pytest.raises(ValueError):
            unpack_bits(np.zeros(2, dtype=np.uint64), 64)


class TestHashCode:
    def test_from_to_bits(self):
        bits = np.array([1, 0, 0, 1, 1], dtype=bool)
        code = HashCode.from_bits(bits)
        assert code.length == 5
        assert code.popcount() == 3
        np.testing.assert_array_equal(code.to_bits(), bits)

    def test_equality(self):
        a = HashCode.from_bits([1, 0, 1])
        b = HashCode.from_bits([1, 0, 1])
        c = HashCode.from_bits([1, 1, 1])
        assert a == b
        assert a != c
        assert a != HashCode.from_bits([1, 0, 1, 0])

    def test_rejects_non_canonical_padding(self):
        with pytest.raises(ValueError):
            HashCode(np.array([0b10000], dtype=np.uint64), 4)

    def test_rejects_wrong_word_count(self):
        with pytest.raises(ValueError):
            HashCode(np.zeros(2, dtype=np.uint64), 10)
        with pytest.raises(ValueError):
            HashCode(np.zeros(1, dtype=np.uint64), 0)

    def test_words_read_only(self):
        code = HashCode.from_bits([1, 0, 1])
        with pytest.raises(ValueError):
            code.words[0] = 0


def hamming(a: HashCode, b: HashCode) -> int:
    return int(hamming_distances(a.words[None, :], b.words)[0])


class TestHamming:
    def test_known_value(self):
        a = HashCode.from_bits([1, 0, 1, 1, 0])
        b = HashCode.from_bits([0, 0, 1, 1, 1])
        assert hamming(a, b) == 2

    def test_self_zero_and_symmetry(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            length = int(rng.integers(1, 130))
            a = HashCode.from_bits(rng.integers(0, 2, length))
            b = HashCode.from_bits(rng.integers(0, 2, length))
            assert hamming(a, a) == 0
            assert hamming(a, b) == hamming(b, a)

    def test_equals_bit_count(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            length = int(rng.integers(1, 130))
            abits = rng.integers(0, 2, length)
            bbits = rng.integers(0, 2, length)
            want = int(np.sum(abits != bbits))
            assert hamming(HashCode.from_bits(abits), HashCode.from_bits(bbits)) == want

    def test_triangle_inequality(self):
        rng = np.random.default_rng(16)
        for _ in range(30):
            bits = rng.integers(0, 2, size=(3, 48))
            a, b, c = (HashCode.from_bits(row) for row in bits)
            assert hamming(a, c) <= hamming(a, b) + hamming(b, c)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            hamming_distances(np.zeros((3, 2), dtype=np.uint64), np.zeros(1, dtype=np.uint64))

    def test_batch_matches_single(self):
        rng = np.random.default_rng(17)
        length = 90
        codes = [HashCode.from_bits(rng.integers(0, 2, length)) for _ in range(25)]
        q = HashCode.from_bits(rng.integers(0, 2, length))
        packed = np.stack([c.words for c in codes])
        got = hamming_distances(packed, q.words)
        want = [np.sum(c.to_bits() != q.to_bits()) for c in codes]
        np.testing.assert_array_equal(got, want)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, 1) == derive_seed(42, 1)

    def test_tags_and_seeds_separate_streams(self):
        seen = {derive_seed(s, t) for s in (0, 1, 42) for t in (1, 2, 3, 10, 20)}
        assert len(seen) == 15

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            derive_seed(-1, 0)


def test_public_names_resolve():
    """Every name in a submodule's __all__ resolves, and every package
    export but __version__ is one of those, resolving to the same object,
    with no duplicates: a re-export of a deleted name fails here."""
    exported = {}
    for info in pkgutil.iter_modules(multikmeans.__path__):
        module = importlib.import_module(f"multikmeans.{info.name}")
        for name in getattr(module, "__all__", ()):
            exported.setdefault(name, getattr(module, name))
    top = multikmeans.__all__
    assert len(top) == len(set(top))
    for name in top:
        if name != "__version__":
            assert name in exported, name
            assert getattr(multikmeans, name) is exported[name], name
