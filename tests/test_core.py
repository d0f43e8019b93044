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
    words_for,
)
from multikmeans.dataio import VectorReader, write_vectors
from multikmeans.encoder import EncoderSpec, Variant, encode_many
from multikmeans.evaluate import label_relevance
from multikmeans.index import _gather, build_index, search
from multikmeans.kmeans import Codebook


# packed words that a uint64 cast would truncate or wrap, and the error each gives
INEXACT_WORDS = [
    (np.array([1.7]), "must be integers, got dtype float64"),
    (np.array([True]), "must be integers, got dtype bool"),
    (np.array([1], dtype=object), "must be integers, got dtype object"),
    (np.array([-1]), "must be non-negative"),
]


def code_of(bits) -> HashCode:
    return HashCode(pack_bits(bits), len(bits))


def bits_of(words, length: int) -> np.ndarray:
    """Bit j of each packed row read by shifts, (words[j // 64] >> j % 64) & 1:
    arithmetic that pack_bits does not use."""
    w = np.asarray(words, dtype=np.uint64)
    cols = [(w[..., j // 64] >> np.uint64(j % 64)) & np.uint64(1) for j in range(length)]
    return np.stack(cols, axis=-1).astype(bool)


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
            np.testing.assert_array_equal(bits_of(words, length), bits)

    def test_roundtrip_2d(self):
        rng = np.random.default_rng(13)
        bits = rng.integers(0, 2, size=(10, 70)).astype(bool)
        words = pack_bits(bits)
        assert words.shape == (10, 2)
        np.testing.assert_array_equal(bits_of(words, 70), bits)

    def test_padding_is_zero(self):
        words = pack_bits([1] * 5)
        assert words[0] == 0b11111


class TestHashCode:
    def test_from_to_bits(self):
        bits = np.array([1, 0, 0, 1, 1], dtype=bool)
        code = code_of(bits)
        assert code.length == 5
        assert np.bitwise_count(code.words).sum() == 3
        assert repr(code) == "HashCode(length=5, popcount=3)"
        np.testing.assert_array_equal(bits_of(code.words, code.length), bits)

    def test_equality(self):
        a = code_of([1, 0, 1])
        b = code_of([1, 0, 1])
        c = code_of([1, 1, 1])
        assert a == b
        assert a != c
        assert a != code_of([1, 0, 1, 0])

    def test_rejects_non_canonical_padding(self):
        with pytest.raises(ValueError):
            HashCode(np.array([0b10000], dtype=np.uint64), 4)

    def test_rejects_wrong_word_count(self):
        with pytest.raises(ValueError):
            HashCode(np.zeros(2, dtype=np.uint64), 10)
        with pytest.raises(ValueError):
            HashCode(np.zeros(1, dtype=np.uint64), 0)

    @pytest.mark.parametrize("words, message", INEXACT_WORDS)
    def test_rejects_words_a_cast_would_change(self, words, message):
        with pytest.raises(ValueError, match=message):
            HashCode(words, 16)

    def test_accepts_non_negative_signed_words(self):
        assert HashCode(np.array([5], dtype=np.int32), 16) == code_of([1, 0, 1] + [0] * 13)

    def test_words_read_only(self):
        code = code_of([1, 0, 1])
        with pytest.raises(ValueError):
            code.words[0] = 0

    def test_leaves_the_callers_words_writable(self):
        # a C-contiguous uint64 input needs no conversion, yet the code
        # freezes its own copy, not the caller's array
        words = np.zeros(1, dtype=np.uint64)
        code = HashCode(words, 4)
        words[0] = 1
        assert code.words.tolist() == [0]


def hamming(a: HashCode, b: HashCode) -> int:
    return int(hamming_distances(a.words[None, :], b.words)[0])


class TestHamming:
    def test_known_value(self):
        a = code_of([1, 0, 1, 1, 0])
        b = code_of([0, 0, 1, 1, 1])
        assert hamming(a, b) == 2

    def test_self_zero_and_symmetry(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            length = int(rng.integers(1, 130))
            a = code_of(rng.integers(0, 2, length))
            b = code_of(rng.integers(0, 2, length))
            assert hamming(a, a) == 0
            assert hamming(a, b) == hamming(b, a)

    def test_equals_bit_count(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            length = int(rng.integers(1, 130))
            abits = rng.integers(0, 2, length)
            bbits = rng.integers(0, 2, length)
            want = int(np.sum(abits != bbits))
            assert hamming(code_of(abits), code_of(bbits)) == want

    def test_triangle_inequality(self):
        rng = np.random.default_rng(16)
        for _ in range(30):
            bits = rng.integers(0, 2, size=(3, 48))
            a, b, c = (code_of(row) for row in bits)
            assert hamming(a, c) <= hamming(a, b) + hamming(b, c)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            hamming_distances(np.zeros((3, 2), dtype=np.uint64), np.zeros(1, dtype=np.uint64))

    @pytest.mark.parametrize("words, message", INEXACT_WORDS)
    def test_rejects_words_a_cast_would_change(self, words, message):
        zero = np.zeros(1, dtype=np.uint64)
        with pytest.raises(ValueError, match=f"^codes {message}"):
            hamming_distances(words[None, :], zero)
        with pytest.raises(ValueError, match=f"^query words {message}"):
            hamming_distances(zero[None, :], words)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(17)
        length = 90
        codes = [code_of(rng.integers(0, 2, length)) for _ in range(25)]
        q = code_of(rng.integers(0, 2, length))
        packed = np.stack([c.words for c in codes])
        got = hamming_distances(packed, q.words)
        want = [np.sum(bits_of(c.words, length) != bits_of(q.words, length)) for c in codes]
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


# the library modules whose __all__ together make the package's exports
LIBRARY_MODULES = ("core", "dataio", "encoder", "evaluate", "index", "kmeans")


def test_public_names_resolve():
    """Every name in a submodule's __all__ resolves, and the package
    exports __version__ plus exactly the library modules' __all__, each
    name the same object, with no duplicates: a re-export of a deleted name
    fails here. Helpers left out of __all__ still import by name."""
    exported = {}
    for info in pkgutil.iter_modules(multikmeans.__path__):
        module = importlib.import_module(f"multikmeans.{info.name}")
        for name in getattr(module, "__all__", ()):
            exported.setdefault(name, getattr(module, name))
    top = multikmeans.__all__
    assert len(top) == len(set(top))
    library = [name for m in LIBRARY_MODULES for name in importlib.import_module(f"multikmeans.{m}").__all__]
    assert top == ["__version__", *library]
    for name in top:
        if name != "__version__":
            assert name in exported, name
            assert getattr(multikmeans, name) is exported[name], name
    unexported = {
        "core": ["WORD_BITS", "hamming_distances", "words_for"],
        "encoder": [
            "code_length",
            "write_spec_record",
            "read_spec_record",
            "write_quantizer_record",
            "read_quantizer_record",
            "split_training",
        ],
        "kmeans": ["write_codebook_record", "read_codebook_record"],
    }
    for module, names in unexported.items():
        for name in names:
            assert name not in top, name
            exec(f"from multikmeans.{module} import {name}", {})


N_ROWS = 4
# bad ids for an N_ROWS-row store: (ids, error class, the end of the message
# with the caller's own wording filled in)
BAD_ROW_IDS = {
    "negative": (np.array([0, -1]), LookupError, "{missing} -1{records}$"),
    "n": (np.array([0, N_ROWS]), LookupError, f"{{missing}} {N_ROWS}{{records}}$"),
    "past-int64": (
        np.array([0, 2**63 + 5], dtype=np.uint64),
        LookupError,
        "{missing} 9223372036854775813{records}$",
    ),
    "float": (np.array([1.0, 0.0]), ValueError, "^{name} must be integers, got dtype float64$"),
    "bool-mask": (np.array([True, False]), ValueError, "^{name} must be integers, got dtype bool$"),
}


@pytest.mark.parametrize("caller", ["search", "take", "label_relevance"])
@pytest.mark.parametrize("case", list(BAD_ROW_IDS))
def test_row_id_check_through_each_caller(tmp_path, caller, case):
    """core._row_ids behind each caller: an id outside the store or of the
    wrong dtype raises the caller's own error class and message, and an id
    past int64 is named unwrapped. The one bad id a shortlist can hold is
    one past a base shorter than the index, so search meets that one; the
    others reach its array gather directly."""
    ids, error, text = BAD_ROW_IDS[case]
    base = np.arange(N_ROWS * 2, dtype=np.float32).reshape(N_ROWS, 2)
    path = tmp_path / "base.fvecs"
    write_vectors(path, base)
    words = {
        "search": dict(name="ids", missing="base store has no vector for id", records=""),
        "take": dict(name="ids", missing="vector id", records=f" outside file with {N_ROWS} records"),
        "label_relevance": dict(name="result_ids", missing="no label for id", records=""),
    }[caller]
    with VectorReader(path) as reader, pytest.raises(error, match=text.format(**words)):
        if caller == "take":
            reader.take(ids)
        elif caller == "label_relevance":
            label_relevance(1, ids, np.ones(N_ROWS, dtype=np.int64))
        elif case == "n":
            longer = np.vstack([base, base[-1:] + 1.0])
            cb = Codebook.from_centroids(longer[:2])
            spec = EncoderSpec(Variant.N, n_nearest=1)
            index = build_index(encode_many(longer, cb, spec), np.arange(N_ROWS + 1), spec, cb)
            search(index, base, longer[-1], N_ROWS + 1, 1)
        else:
            _gather(base, ids)
