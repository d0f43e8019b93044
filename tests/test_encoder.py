import math
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest

import multikmeans.encoder as encoder_mod
from multikmeans.core import FormatError
from multikmeans.dataio import VectorReader, read_vectors, write_vectors
from multikmeans.encoder import (
    DualCodebook,
    EncoderSpec,
    MeanKind,
    Variant,
    code_length,
    encode,
    encode_many,
    load_quantizer,
    read_spec_record,
    save_quantizer,
    split_training,
    train_dual_codebook,
    write_spec_record,
)
from multikmeans.kmeans import Codebook, TrainParams


def code_bits(code) -> list[int]:
    """The code's bits read by shifts, (words[j // 64] >> j % 64) & 1."""
    return [int(code.words[j // 64] >> np.uint64(j % 64)) & 1 for j in range(code.length)]


def popcount(code) -> int:
    return int(np.bitwise_count(code.words).sum())


def naive_code_bits(x, centroids, variant, mean="arith", n=0):
    """Reference implementation in plain python; geometric mean uses the
    product form rather than the exp/log form."""
    dists = [
        math.sqrt(sum((float(xi) - float(ci)) ** 2 for xi, ci in zip(x, c)))
        for c in centroids
    ]
    if variant == "t":
        if mean == "arith":
            delta = sum(dists) / len(dists)
        else:
            delta = math.prod(dists) ** (1.0 / len(dists))
        return [1 if d <= delta else 0 for d in dists]
    order = sorted(range(len(dists)), key=lambda j: (dists[j], j))
    bits = [0] * len(dists)
    for j in order[:n]:
        bits[j] = 1
    return bits


def random_codebook(rng, k, dim):
    return Codebook.from_centroids(rng.standard_normal((k, dim)).astype(np.float32))


class TestEncoderSpec:
    def test_string_coercion(self):
        spec = EncoderSpec("t", "geom")
        assert spec.variant is Variant.T and spec.mean_kind is MeanKind.GEOMETRIC

    def test_variant_table(self):
        """The one statement of which rule is dual and which is nearest."""
        table = {v.value: (v.dual, v.nearest) for v in Variant}
        assert table == {"t": (False, False), "n": (False, True), "t2": (True, False), "n2": (True, True)}

    def test_threshold_variants_ignore_n(self):
        assert EncoderSpec(Variant.T, n_nearest=7).n_nearest == 0

    @pytest.mark.parametrize("variant", [Variant.N, Variant.N2])
    def test_nearest_variants_ignore_mean(self, variant, tmp_path):
        # the n rule never reads the mean, so the spec, its record and the
        # report all keep the default
        spec = EncoderSpec(variant, MeanKind.GEOMETRIC, 4)
        assert spec == EncoderSpec(variant, n_nearest=4)
        assert spec.mean_kind is MeanKind.ARITHMETIC
        path = tmp_path / "spec.bin"
        path.write_bytes(struct.pack("<BBI", 1 if variant is Variant.N else 3, 1, 4))  # mean tag 1: geom
        with open(path, "rb") as f:
            assert read_spec_record(f) == spec

    def test_nearest_variants_need_n(self):
        with pytest.raises(ValueError):
            EncoderSpec(Variant.N)
        with pytest.raises(ValueError):
            EncoderSpec(Variant.N2, n_nearest=0)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            EncoderSpec("q")


class TestEncodeT:
    def test_matches_naive_arith(self):
        rng = np.random.default_rng(40)
        for _ in range(50):
            k, dim = int(rng.integers(2, 12)), int(rng.integers(2, 8))
            cb = random_codebook(rng, k, dim)
            x = rng.standard_normal(dim).astype(np.float32)
            got = code_bits(encode(x, cb, EncoderSpec(Variant.T)))
            assert got == naive_code_bits(x, cb.centroids, "t", mean="arith")

    def test_matches_naive_geom(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            k, dim = int(rng.integers(2, 12)), int(rng.integers(2, 8))
            cb = random_codebook(rng, k, dim)
            x = rng.standard_normal(dim).astype(np.float32)
            got = code_bits(encode(x, cb, EncoderSpec(Variant.T, MeanKind.GEOMETRIC)))
            assert got == naive_code_bits(x, cb.centroids, "t", mean="geom")

    def test_boundary_is_inclusive(self):
        # all centroids exactly at distance 1: delta = 1 under both means,
        # and <= keeps every bit set
        cb = Codebook.from_centroids(
            np.array([[1, 0], [-1, 0], [0, 1], [0, -1]], dtype=np.float32)
        )
        x = np.zeros(2, dtype=np.float32)
        for kind in MeanKind:
            code = encode(x, cb, EncoderSpec(Variant.T, kind))
            assert popcount(code) == 4

    def test_mean_kinds_can_differ(self):
        # distances 1, 5, 12: arithmetic mean 6 keeps two bits, geometric
        # mean ~3.9 keeps one
        cb = Codebook.from_centroids(np.array([[1.0], [5.0], [12.0]], dtype=np.float32))
        x = np.zeros(1, dtype=np.float32)
        arith = code_bits(encode(x, cb, EncoderSpec(Variant.T, MeanKind.ARITHMETIC)))
        geom = code_bits(encode(x, cb, EncoderSpec(Variant.T, MeanKind.GEOMETRIC)))
        assert arith == [1, 1, 0]
        assert geom == [1, 0, 0]

    def test_vector_on_centroid_with_geometric_mean(self):
        # exact zero distance collapses the geometric threshold to zero, so
        # only exact-zero bits survive
        cents = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]], dtype=np.float32)
        cb = Codebook.from_centroids(cents)
        code = encode(cents[0], cb, EncoderSpec(Variant.T, MeanKind.GEOMETRIC))
        assert code_bits(code) == [1, 0, 0]

    def test_code_length_is_k(self):
        rng = np.random.default_rng(42)
        cb = random_codebook(rng, 9, 4)
        assert encode(rng.standard_normal(4), cb, EncoderSpec(Variant.T)).length == 9

    def test_at_least_one_bit_set(self):
        # the nearest centroid is never above either mean
        rng = np.random.default_rng(43)
        for _ in range(100):
            cb = random_codebook(rng, int(rng.integers(2, 20)), 3)
            x = rng.standard_normal(3).astype(np.float32)
            for kind in MeanKind:
                assert popcount(encode(x, cb, EncoderSpec(Variant.T, kind))) >= 1


class TestEncodeN:
    def test_matches_naive(self):
        rng = np.random.default_rng(44)
        for _ in range(50):
            k, dim = int(rng.integers(2, 12)), int(rng.integers(2, 8))
            n = int(rng.integers(1, k + 1))
            cb = random_codebook(rng, k, dim)
            x = rng.standard_normal(dim).astype(np.float32)
            got = code_bits(encode(x, cb, EncoderSpec(Variant.N, n_nearest=n)))
            assert got == naive_code_bits(x, cb.centroids, "n", n=n)

    def test_popcount_is_exactly_n(self):
        rng = np.random.default_rng(45)
        cb = random_codebook(rng, 16, 5)
        x = rng.standard_normal(5).astype(np.float32)
        for n in range(1, 17):
            assert popcount(encode(x, cb, EncoderSpec(Variant.N, n_nearest=n))) == n

    def test_nested_in_n(self):
        rng = np.random.default_rng(46)
        cb = random_codebook(rng, 12, 4)
        x = rng.standard_normal(4).astype(np.float32)
        prev = np.zeros(12, dtype=bool)
        for n in range(1, 13):
            bits = np.array(code_bits(encode(x, cb, EncoderSpec(Variant.N, n_nearest=n))), dtype=bool)
            assert (bits | prev).tolist() == bits.tolist()  # superset of previous
            prev = bits

    def test_ties_take_lowest_centroid_index(self):
        cb = Codebook.from_centroids(
            np.array([[1, 0], [-1, 0], [0, 1], [0, -1]], dtype=np.float32)
        )
        code = encode(np.zeros(2, dtype=np.float32), cb, EncoderSpec(Variant.N, n_nearest=2))
        assert code_bits(code) == [1, 1, 0, 0]

    def test_n_bounds(self):
        rng = np.random.default_rng(47)
        cb = random_codebook(rng, 4, 3)
        x = rng.standard_normal(3)
        with pytest.raises(ValueError):
            encode(x, cb, EncoderSpec(Variant.N, n_nearest=0))
        with pytest.raises(ValueError):
            encode(x, cb, EncoderSpec(Variant.N, n_nearest=5))


def rows_at_code_flips(cb, spec, rng, count):
    """float64 rows on both sides of points where the one-row code flips.

    Bisects the segment between two rows with different codes down to
    adjacent float64 steps of its parameter, so the distances that decide
    the flipped bit (one against the threshold, or two at the n-th rank)
    tie to within a few ulps."""
    rows = []
    while len(rows) < 2 * count:
        a, b = rng.standard_normal((2, cb.dim))
        lo, hi = 0.0, 1.0
        first = encode(a, cb, spec)
        if encode(b, cb, spec) == first:
            continue
        while lo < (mid := (lo + hi) / 2) < hi:
            if encode(a + mid * (b - a), cb, spec) == first:
                lo = mid
            else:
                hi = mid
        rows += [a + lo * (b - a), a + hi * (b - a)]
    return np.array(rows)


BIT_RULES = (
    EncoderSpec(Variant.T, MeanKind.ARITHMETIC),
    EncoderSpec(Variant.T, MeanKind.GEOMETRIC),
    EncoderSpec(Variant.N, n_nearest=3),
)


def assert_rows_match_one_block(X, cb, spec):
    packed = encode_many(X, cb, spec)
    for i, x in enumerate(X):
        np.testing.assert_array_equal(packed[i], encode(x, cb, spec).words)


class TestEncodeBatch:
    def test_encode_many_matches_single(self):
        """Per-row encode against one encode_many block, on random rows and
        rows at or near ties: the centroids, where the geometric mean
        collapses, and midpoints of centroid pairs."""
        rng = np.random.default_rng(48)
        cb = random_codebook(rng, 10, 24)
        C = cb.centroids
        ties = np.vstack([C, (C[:-1] + C[1:]) / 2]).astype(np.float32)
        for spec in BIT_RULES:
            for X in (rng.standard_normal((30, 24)).astype(np.float32), ties):
                assert_rows_match_one_block(X, cb, spec)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="encode scores a row with the row-pure einsum kernel, while "
        "encode_many scores a block with one matrix product, whose last bits "
        "differ, so a row within a few ulps of a flip can take another code",
    )
    @pytest.mark.parametrize("spec", BIT_RULES, ids=["t-arith", "t-geom", "n"])
    def test_encode_many_matches_single_near_code_flips(self, spec):
        """The same check on rows within a few ulps of a flip of the rule."""
        rng = np.random.default_rng(48)
        cb = random_codebook(rng, 10, 24)
        assert_rows_match_one_block(rows_at_code_flips(cb, spec, rng, 20), cb, spec)

    def test_chunking_does_not_change_codes(self):
        rng = np.random.default_rng(49)
        cb = random_codebook(rng, 8, 5)
        X = rng.standard_normal((50, 5)).astype(np.float32)
        spec = EncoderSpec(Variant.N, n_nearest=3)
        with mock.patch.object(encoder_mod, "_BLOCK_ELEMENTS", 7 * (5 + 8)):  # 7 rows per block
            chunked = encode_many(X, cb, spec)
        np.testing.assert_array_equal(chunked, encode_many(X, cb, spec))

    @pytest.mark.parametrize("variant", [Variant.T, Variant.N2])
    @pytest.mark.parametrize("k, d", [(6, 20), (24, 5)], ids=["d-above-k", "k-above-d"])
    def test_each_kernel_call_fits_the_budget(self, variant, k, d):
        """Every block encode_many scores holds at most
        _BLOCK_ELEMENTS // (d + code bits) rows, since its float64 rows and
        its distances to every codebook are held at once, and the blocks
        cover each row once per codebook."""
        rng = np.random.default_rng(51)
        books = [random_codebook(rng, k, d) for _ in range(2)]
        quantizer = books[0] if variant is Variant.T else DualCodebook(*books)
        X = rng.standard_normal((47, d)).astype(np.float32)
        spec = EncoderSpec(variant, n_nearest=2)
        bits = k if variant is Variant.T else 2 * k
        budget = 10 * (d + bits) + 3  # 10 rows per block, the last one 7
        with mock.patch.object(encoder_mod, "_BLOCK_ELEMENTS", budget), mock.patch.object(
            encoder_mod, "_sq_distances", wraps=encoder_mod._sq_distances
        ) as kernel:
            encode_many(X, quantizer, spec)
        shapes = [(c.args[0].shape[0], c.args[2].shape[0]) for c in kernel.call_args_list]
        assert all(rows * (d + bits) <= budget for rows, _ in shapes)
        assert sum(rows for rows, _ in shapes) == 47 * (1 if variant is Variant.T else 2)
        assert [rows for rows, _ in shapes][-1] == 7

    @pytest.mark.parametrize("n", [20_000, 80_000])
    def test_peak_memory_is_blocks_not_rows(self, n):
        """encode_many allocates at most 16 MB at its peak, whatever the
        number of rows: a block's float64 rows and distances (8 MB at most)
        and its bit rule's arrays, plus the packed output. The float64 rows
        of all 80 000 rows alone would take 41 MB."""
        rng = np.random.default_rng(52)
        cb = random_codebook(rng, 32, 64)
        X = rng.standard_normal((n, 64)).astype(np.float32)
        for spec in BIT_RULES:
            tracemalloc.start()
            try:
                encode_many(X, cb, spec)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 16 * 2**20, spec

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(50)
        cb = random_codebook(rng, 4, 5)
        with pytest.raises(ValueError):
            encode_many(rng.standard_normal((3, 4)), cb, EncoderSpec(Variant.T))

    def test_wrong_quantizer_kind(self):
        rng = np.random.default_rng(51)
        cb = random_codebook(rng, 4, 3)
        dual = DualCodebook(cb, random_codebook(rng, 4, 3))
        with pytest.raises(TypeError):
            encode(np.zeros(3), dual, EncoderSpec(Variant.T))
        with pytest.raises(TypeError):
            encode(np.zeros(3), cb, EncoderSpec(Variant.T2))


class TestEncodeReader:
    """encode_many over a VectorReader reads the file itself, one encode
    block per read, into the codes of the array."""

    N, D, K = 23, 6, 5

    def reader_fixture(self, tmp_path, suffix, variant):
        rng = np.random.default_rng(52)
        path = tmp_path / f"base{suffix}"
        write_vectors(path, rng.integers(0, 256, (self.N, self.D)))  # exact in uint8 and float32
        books = [Codebook.from_centroids(rng.uniform(0, 255, (self.K, self.D))) for _ in range(2)]
        quantizer = books[0] if variant is Variant.T else DualCodebook(*books)
        return path, quantizer, EncoderSpec(variant, n_nearest=2)

    @pytest.mark.parametrize("suffix", [".fvecs", ".bvecs"])
    @pytest.mark.parametrize("variant", [Variant.T, Variant.N2])
    @pytest.mark.parametrize("rows", [1, 5, 23], ids=["1-row", "ragged", "one-block"])
    def test_reads_blocks_into_the_codes_of_the_array(self, tmp_path, suffix, variant, rows):
        path, quantizer, spec = self.reader_fixture(tmp_path, suffix, variant)
        reads = []
        read = VectorReader.read

        def counted(self, start, count):
            reads.append(count)
            return read(self, start, count)

        bits = self.K if variant is Variant.T else 2 * self.K
        with mock.patch.object(encoder_mod, "_BLOCK_ELEMENTS", rows * (self.D + bits)):
            with VectorReader(path) as reader, mock.patch.object(VectorReader, "read", counted):
                got = encode_many(reader, quantizer, spec)
            want = encode_many(read_vectors(path), quantizer, spec)
        assert got.tobytes() == want.tobytes()
        assert reads == [min(rows, self.N - s) for s in range(0, self.N, rows)]

    def test_dimension_mismatch(self, tmp_path):
        path, _, spec = self.reader_fixture(tmp_path, ".fvecs", Variant.T)
        cb = random_codebook(np.random.default_rng(53), self.K, self.D + 1)
        with VectorReader(path) as reader:
            with pytest.raises(ValueError, match="dimension mismatch: vectors 6 vs codebook 7"):
                encode_many(reader, cb, spec)

    def test_closed_reader(self, tmp_path):
        path, quantizer, spec = self.reader_fixture(tmp_path, ".fvecs", Variant.T)
        reader = VectorReader(path)
        reader.close()
        with pytest.raises(ValueError, match="reader is closed"):
            encode_many(reader, quantizer, spec)


class TestSplitTraining:
    def test_partition(self):
        rng = np.random.default_rng(52)
        data = rng.standard_normal((11, 3)).astype(np.float32)
        a, b = split_training(data, seed=5)
        assert len(a) == 6 and len(b) == 5
        rows = {tuple(r) for r in data}
        assert {tuple(r) for r in a} | {tuple(r) for r in b} == rows
        assert {tuple(r) for r in a} & {tuple(r) for r in b} == set()

    def test_deterministic_by_seed(self):
        rng = np.random.default_rng(53)
        data = rng.standard_normal((20, 2)).astype(np.float32)
        a1, b1 = split_training(data, seed=3)
        a2, b2 = split_training(data, seed=3)
        a3, _ = split_training(data, seed=4)
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(b1, b2)
        assert not np.array_equal(a1, a3)

    def test_too_small(self):
        with pytest.raises(ValueError):
            split_training(np.zeros((1, 2)))


class TestDualCodebook:
    def test_train_dual_shapes_and_determinism(self):
        rng = np.random.default_rng(54)
        data = rng.standard_normal((120, 4)).astype(np.float32)
        d1 = train_dual_codebook(data, 8, TrainParams(seed=6))
        d2 = train_dual_codebook(data, 8, TrainParams(seed=6))
        assert d1.first.k == d1.second.k == 8
        assert d1.code_length == 16
        np.testing.assert_array_equal(d1.first.centroids, d2.first.centroids)
        np.testing.assert_array_equal(d1.second.centroids, d2.second.centroids)
        assert not np.array_equal(d1.first.centroids, d1.second.centroids)

    def test_mismatched_subbooks_rejected(self):
        rng = np.random.default_rng(55)
        with pytest.raises(ValueError):
            DualCodebook(random_codebook(rng, 4, 3), random_codebook(rng, 4, 2))
        with pytest.raises(ValueError):
            DualCodebook(random_codebook(rng, 4, 3), random_codebook(rng, 6, 3))

    def test_encode_dual_concatenates(self):
        rng = np.random.default_rng(56)
        first = random_codebook(rng, 6, 4)
        second = random_codebook(rng, 6, 4)
        dual = DualCodebook(first, second)
        x = rng.standard_normal(4).astype(np.float32)
        code = encode(x, dual, EncoderSpec(Variant.T2, MeanKind.ARITHMETIC))
        assert code.length == 12
        want = naive_code_bits(x, first.centroids, "t") + naive_code_bits(
            x, second.centroids, "t"
        )
        assert code_bits(code) == want

    def test_n2_sets_n_bits_per_half(self):
        rng = np.random.default_rng(57)
        dual = DualCodebook(random_codebook(rng, 8, 3), random_codebook(rng, 8, 3))
        x = rng.standard_normal(3).astype(np.float32)
        code = encode(x, dual, EncoderSpec(Variant.N2, n_nearest=3))
        bits = np.array(code_bits(code))
        assert bits[:8].sum() == 3 and bits[8:].sum() == 3

    def test_n2_beyond_sub_codebook_k(self):
        """n_nearest counts bits per codebook, so n2 is bounded by the
        sub-codebook k, not by the 2k bits of the code."""
        rng = np.random.default_rng(58)
        dual = DualCodebook(random_codebook(rng, 4, 3), random_codebook(rng, 4, 3))
        assert code_length(EncoderSpec(Variant.N2, n_nearest=4), dual) == 8
        with pytest.raises(ValueError, match="^n_nearest=5 exceeds sub-codebook k=4$"):
            code_length(EncoderSpec(Variant.N2, n_nearest=5), dual)


class TestSerialization:
    def test_spec_record_roundtrip(self, tmp_path):
        for spec in (
            EncoderSpec(Variant.T, MeanKind.GEOMETRIC),
            EncoderSpec(Variant.N, n_nearest=5),
            EncoderSpec(Variant.T2),
            EncoderSpec(Variant.N2, n_nearest=16),
        ):
            path = tmp_path / "spec.bin"
            with open(path, "wb") as f:
                write_spec_record(f, spec)
            with open(path, "rb") as f:
                assert read_spec_record(f) == spec

    def test_spec_record_rejects_unknown_tags(self, tmp_path):
        path = tmp_path / "spec.bin"
        path.write_bytes(struct.pack("<BBI", 9, 0, 0))
        with open(path, "rb") as f:
            with pytest.raises(FormatError):
                read_spec_record(f)
        path.write_bytes(struct.pack("<BBI", 0, 7, 0))
        with open(path, "rb") as f:
            with pytest.raises(FormatError):
                read_spec_record(f)

    def test_dual_roundtrip(self, tmp_path):
        rng = np.random.default_rng(59)
        data = rng.standard_normal((60, 3)).astype(np.float32)
        dual = train_dual_codebook(data, 4, TrainParams(seed=2))
        path = tmp_path / "dual.mkm2"
        save_quantizer(dual, path)
        loaded = load_quantizer(path)
        np.testing.assert_array_equal(loaded.first.centroids, dual.first.centroids)
        np.testing.assert_array_equal(loaded.second.centroids, dual.second.centroids)

    def test_load_quantizer_dispatch(self, tmp_path):
        rng = np.random.default_rng(60)
        cb = random_codebook(rng, 4, 3)
        dual = DualCodebook(random_codebook(rng, 4, 3), random_codebook(rng, 4, 3))
        save_quantizer(cb, tmp_path / "one.mkmc")
        save_quantizer(dual, tmp_path / "two.mkm2")
        assert isinstance(load_quantizer(tmp_path / "one.mkmc"), Codebook)
        assert isinstance(load_quantizer(tmp_path / "two.mkm2"), DualCodebook)

    def test_dual_with_mismatched_halves_rejected(self, tmp_path):
        rng = np.random.default_rng(61)
        a = random_codebook(rng, 4, 3)
        b = random_codebook(rng, 4, 2)
        path = tmp_path / "bad.mkm2"
        from multikmeans.kmeans import write_codebook_record

        with open(path, "wb") as f:
            f.write(b"MKM2")
            write_codebook_record(f, a)
            write_codebook_record(f, b)
        with pytest.raises(FormatError):
            load_quantizer(path)
