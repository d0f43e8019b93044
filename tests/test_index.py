import struct

import numpy as np
import pytest

from multikmeans.cli import main
from multikmeans.core import HashCode, Metric, FormatError, pack_bits
from multikmeans.dataio import write_vectors
from multikmeans.encoder import DualCodebook, EncoderSpec, MeanKind, Variant, encode, encode_many
from multikmeans.evaluate import brute_force_gt
from multikmeans.index import (
    _search_block,
    build_index,
    load_index,
    save_index,
    search,
    search_ids,
    shortlist,
)
from multikmeans.kmeans import Codebook, TrainParams, train


def bits_of(words, length):
    """Bit j of a packed code read by shifts, (words[j // 64] >> j % 64) & 1."""
    return np.array([int(words[j // 64] >> np.uint64(j % 64)) & 1 for j in range(length)])


def naive_shortlist(bits, query_bits, ids, size):
    """Plain python reference: hamming distance, ties by ascending id."""
    hams = [
        (sum(int(b) != int(q) for b, q in zip(row, query_bits)), int(i))
        for row, i in zip(bits, ids)
    ]
    hams.sort()
    return [i for _, i in hams[:size]]

def naive_search(base, ids, cand_ids, q, metric, top):
    by_id = {int(i): base[pos] for pos, i in enumerate(ids)}
    scored = []
    for i in cand_ids:
        v = by_id[int(i)].astype(np.float64)
        qq = q.astype(np.float64)
        if metric is Metric.EUCLIDEAN:
            key = float(np.sqrt(((v - qq) ** 2).sum()))
            scored.append((key, int(i)))
        else:
            sim = float(v @ qq / (np.linalg.norm(v) * np.linalg.norm(qq)))
            scored.append((-sim, int(i)))
    scored.sort()
    return [(i, abs(s) if metric is Metric.COSINE else s) for s, i in scored[:top]]


def make_fixture(seed=7, n=200, dim=8, k=12):
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((n, dim)).astype(np.float32)
    k = min(k, n)
    cb = train(base, k, TrainParams(seed=seed))
    spec = EncoderSpec(Variant.N, n_nearest=min(4, k))
    codes = encode_many(base, cb, spec)
    ids = np.arange(n, dtype=np.int64)
    index = build_index(codes, ids, spec, cb)
    return rng, base, cb, spec, index


class TestBuildIndex:
    def test_from_packed_array(self):
        _, base, cb, spec, index = make_fixture()
        assert index.size == len(base)
        assert index.code_length == cb.k

    def test_rejects_duplicate_ids(self):
        _, base, cb, spec, index = make_fixture(n=10)
        ids = np.zeros(10, dtype=np.int64)
        with pytest.raises(ValueError):
            build_index(index.codes, ids, spec, cb)

    def test_rejects_negative_ids(self):
        _, base, cb, spec, index = make_fixture(n=10)
        ids = np.arange(10) - 5
        with pytest.raises(ValueError):
            build_index(index.codes, ids, spec, cb)

    @pytest.mark.parametrize("ids", [np.arange(10) + 0.9, np.arange(10) % 2 == 0, np.arange(10).astype(object)])
    def test_rejects_non_integer_ids(self, ids):
        _, base, cb, spec, index = make_fixture(n=10)
        with pytest.raises(ValueError, match="ids must be integers"):
            build_index(index.codes, ids, spec, cb)

    @pytest.mark.parametrize(
        "inexact, message",
        [
            (lambda c: c + 0.5, "codes must be integers, got dtype float64"),
            (lambda c: c.astype(bool), "codes must be integers, got dtype bool"),
            (lambda c: c.astype(object), "codes must be integers, got dtype object"),
            (lambda c: c.astype(np.int64) - 2**12, "codes must be non-negative"),
        ],
    )
    def test_rejects_codes_a_cast_would_change(self, inexact, message):
        _, base, cb, spec, index = make_fixture(n=10)  # cb.k = 12 bits
        with pytest.raises(ValueError, match=message):
            build_index(inexact(index.codes), np.arange(10), spec, cb)
        signed = build_index(index.codes.astype(np.int64), np.arange(10), spec, cb)
        np.testing.assert_array_equal(signed.codes, index.codes)

    def test_rejects_length_mismatch(self):
        _, base, cb, spec, index = make_fixture(n=10)
        with pytest.raises(ValueError):
            build_index(index.codes, np.arange(9), spec, cb)

    def test_rejects_noncanonical_padding(self):
        _, base, cb, spec, index = make_fixture(n=10)
        codes = index.codes.copy()
        codes[3, -1] |= np.uint64(1) << np.uint64(63)  # cb.k = 12 < 64
        with pytest.raises(ValueError):
            build_index(codes, np.arange(10), spec, cb)

    def test_rejects_word_count_mismatch(self):
        _, base, cb, spec, index = make_fixture(n=10)
        wide = np.hstack([index.codes, index.codes])
        with pytest.raises(ValueError):
            build_index(wide, np.arange(10), spec, cb)

    def test_rejects_tuple_spec(self):
        _, base, cb, spec, index = make_fixture(n=20)
        with pytest.raises(TypeError, match="EncoderSpec"):
            build_index(index.codes, index.ids, ("t",), cb)
        with pytest.raises(TypeError, match="EncoderSpec"):
            encode_many(base, cb, ("t",))

    def test_arrays_are_read_only(self):
        _, _, _, _, index = make_fixture(n=10)
        with pytest.raises(ValueError):
            index.codes[0, 0] = np.uint64(0)
        with pytest.raises(ValueError):
            index.ids[0] = 5


class TestShortlist:
    def test_matches_naive(self):
        rng, base, cb, spec, index = make_fixture()
        bits = np.vstack([bits_of(row, cb.k) for row in index.codes])
        for _ in range(20):
            q = rng.standard_normal(base.shape[1]).astype(np.float32)
            qcode = encode(q, cb, spec)
            got = shortlist(index, qcode, 15).tolist()
            want = naive_shortlist(bits, bits_of(qcode.words, qcode.length), index.ids, 15)
            assert got == want

    def test_tie_breaks_by_ascending_id(self):
        # two pairs of identical codes at swapped id order
        bits = np.array(
            [[1, 0, 1, 0], [0, 1, 1, 0], [1, 0, 1, 0], [0, 1, 1, 0]], dtype=np.uint8
        )
        codes = pack_bits(bits)
        rng = np.random.default_rng(0)
        cb = Codebook.from_centroids(rng.standard_normal((4, 3)).astype(np.float32))
        spec = EncoderSpec(Variant.N, n_nearest=2)
        index = build_index(codes, np.array([9, 1, 4, 2]), spec, cb)
        q = HashCode(pack_bits([1, 0, 1, 0]), 4)
        assert shortlist(index, q, 4).tolist() == [4, 9, 1, 2]

    def test_prefix_monotone(self):
        rng, base, cb, spec, index = make_fixture()
        q = encode(rng.standard_normal(base.shape[1]).astype(np.float32), cb, spec)
        full = shortlist(index, q, index.size).tolist()
        for size in (1, 5, 40, 199):
            assert shortlist(index, q, size).tolist() == full[:size]

    def test_rejects_oversized_limit(self):
        rng, base, cb, spec, index = make_fixture(n=30)
        q = encode(base[0], cb, spec)
        with pytest.raises(ValueError):
            shortlist(index, q, 31)

    def test_rejects_bad_inputs(self):
        rng, base, cb, spec, index = make_fixture(n=10)
        q = encode(base[0], cb, spec)
        with pytest.raises(ValueError):
            shortlist(index, q, 0)
        wrong = HashCode(pack_bits(np.ones(cb.k + 1)), cb.k + 1)
        with pytest.raises(ValueError):
            shortlist(index, wrong, 5)


class TestSearch:
    def test_matches_naive_euclidean(self):
        rng, base, cb, spec, index = make_fixture()
        for _ in range(10):
            q = rng.standard_normal(base.shape[1]).astype(np.float32)
            res = search(index, base, q, shortlist_size=50, top=10)
            cand = shortlist(index, encode(q, cb, spec), 50)
            want = naive_search(base, index.ids, cand, q, Metric.EUCLIDEAN, 10)
            assert res.ids() == [i for i, _ in want]
            got_scores = [s for _, s in res.ranked]
            np.testing.assert_allclose(got_scores, [s for _, s in want], rtol=1e-6)

    def test_matches_naive_cosine(self):
        rng, base, cb, spec, index = make_fixture()
        for _ in range(10):
            q = rng.standard_normal(base.shape[1]).astype(np.float32)
            res = search(
                index, base, q, shortlist_size=50, top=10, metric=Metric.COSINE
            )
            cand = shortlist(index, encode(q, cb, spec), 50)
            want = naive_search(base, index.ids, cand, q, Metric.COSINE, 10)
            assert res.ids() == [i for i, _ in want]

    @pytest.mark.parametrize("metric", [Metric.EUCLIDEAN, Metric.COSINE])
    def test_full_shortlist_equals_brute_force(self, metric):
        rng, base, cb, spec, index = make_fixture()
        queries = rng.standard_normal((5, base.shape[1])).astype(np.float32)
        gt = brute_force_gt(base, queries, 10, metric=metric)
        for qi, q in enumerate(queries):
            res = search(index, base, q, shortlist_size=index.size, top=10, metric=metric)
            assert res.ids() == gt[qi].tolist()

    def test_result_metadata(self):
        rng, base, cb, spec, index = make_fixture(n=40)
        res = search(index, base, base[0], shortlist_size=20, top=5)
        assert res.metric is Metric.EUCLIDEAN
        assert res.shortlist_size == 20
        assert len(res.ranked) == 5
        # querying with a base vector puts that exact row first at distance 0
        assert res.ranked[0][0] == 0
        assert res.ranked[0][1] == 0.0

    def test_rejects_top_above_shortlist(self):
        rng, base, cb, spec, index = make_fixture(n=30)
        with pytest.raises(ValueError):
            search(index, base, base[0], shortlist_size=8, top=100)

    def test_base_as_mapping(self):
        # a store is a 2-D array or has take(ids); a dict is neither
        rng, base, cb, spec, index = make_fixture(n=25)
        lookup = {int(i): base[i] for i in range(25)}
        with pytest.raises(TypeError):
            search(index, lookup, base[3], shortlist_size=10, top=5)

    def test_missing_vector_raises(self):
        rng, base, cb, spec, index = make_fixture(n=25)
        with pytest.raises(LookupError):  # id 24 missing
            search(index, base[:24], base[3], shortlist_size=25, top=5)

    @pytest.mark.parametrize("metric", [Metric.EUCLIDEAN, Metric.COSINE])
    def test_nonfinite_base_row_rejected(self, metric):
        # the index is built from finite rows; the store's row 2 holds an inf
        rng, base, cb, spec, index = make_fixture(n=5, dim=3, k=4)
        store = base.copy()
        store[2, 1] = np.inf
        with pytest.raises(ValueError, match="non-finite base vector id 2$"):
            search(index, store, base[0], shortlist_size=5, top=5, metric=metric)

    def test_zero_norm_base_row_rejected_for_cosine(self):
        # search and ground truth share one check, which names the row's id
        rng, base, cb, spec, index = make_fixture(n=5, dim=3, k=4)
        store = base.copy()
        store[3] = 0.0
        with pytest.raises(ValueError, match="zero-norm base vector id 3$"):
            search(index, store, base[0], shortlist_size=5, top=5, metric=Metric.COSINE)
        with pytest.raises(ValueError, match="zero-norm base vector id 3$"):
            brute_force_gt(store, base[:2], 2, metric=Metric.COSINE)
        # a block's rows are checked before the queries that score them, so
        # a zero-norm query meets the bad row first, in either path
        zero = np.zeros((1, 3), dtype=np.float32)
        with pytest.raises(ValueError, match="zero-norm base vector id 3$"):
            search(index, store, zero[0], shortlist_size=5, top=5, metric=Metric.COSINE)
        with pytest.raises(ValueError, match="zero-norm base vector id 3$"):
            brute_force_gt(store, zero, 2, metric=Metric.COSINE)

    def test_store_returning_wrong_shape_rejected(self):
        rng, base, cb, spec, index = make_fixture(n=10)

        class Narrow:
            def take(self, ids):
                return base[ids, :-1]

        with pytest.raises(ValueError, match=r"base store returned shape \(5, 7\) for 5 ids"):
            search(index, Narrow(), base[0], shortlist_size=5, top=3)

    def test_base_array_must_be_2d(self):
        rng, base, cb, spec, index = make_fixture(n=10)
        with pytest.raises(ValueError, match="base vectors array must be 2-D"):
            search(index, base.ravel(), base[0], shortlist_size=5, top=3)

    def test_zero_norm_cosine_rejected(self):
        rng, base, cb, spec, index = make_fixture(n=10)
        with pytest.raises(ValueError):
            search(
                index,
                base,
                np.zeros(base.shape[1], dtype=np.float32),
                shortlist_size=5,
                top=3,
                metric=Metric.COSINE,
            )

    @pytest.mark.parametrize(
        "call, bad, message",
        [
            ("search", np.zeros((1, 8)), r"query must be a nonempty 1-D array, got shape \(1, 8\)"),
            ("search", np.array(list("abcdefgh")), "query must be numeric, got dtype <U1"),
            ("search", np.array([np.nan] + [0.0] * 7), "query contains non-finite components"),
            ("search_ids", np.zeros(8), r"queries must be a nonempty 2-D array, got shape \(8,\)"),
            ("search_ids", np.array([list("abcdefgh")]), "queries must be numeric, got dtype <U1"),
            ("encode_many", np.zeros(8), r"vectors must be a nonempty 2-D array, got shape \(8,\)"),
            ("encode_many", np.array([list("abcdefgh")]), "vectors must be numeric, got dtype <U1"),
        ],
        ids=["search-2d", "search-str", "search-nan", "search_ids-1d", "search_ids-str",
             "encode_many-1d", "encode_many-str"],
    )
    def test_rejects_malformed_queries(self, call, bad, message):
        _, base, cb, spec, index = make_fixture(n=20)
        calls = {
            "search": lambda: search(index, base, bad, shortlist_size=5, top=3),
            "search_ids": lambda: search_ids(index, base, bad, shortlist_size=5, top=3),
            "encode_many": lambda: encode_many(bad, cb, spec),
        }
        with pytest.raises(ValueError, match=message):
            calls[call]()


class TestSearchMany:
    def test_shortlist_above_index_size(self):
        _, base, _, _, index = make_fixture(n=40)
        with pytest.raises(ValueError, match=r"shortlist size 41 outside \[1, 40\]"):
            search_ids(index, base, base[:2], shortlist_size=41, top=5)

    def test_matches_single_query_search(self):
        rng, base, cb, spec, index = make_fixture()
        queries = rng.standard_normal((8, base.shape[1])).astype(np.float32)
        ids = search_ids(index, base, queries, shortlist_size=30, top=6)
        assert ids.shape == (8, 6)
        for q, row in zip(queries, ids):
            assert row.tolist() == search(index, base, q, shortlist_size=30, top=6).ids()

    def test_threads_do_not_change_results(self):
        # ids and scores of the query block that search and search_ids share
        rng, base, cb, spec, index = make_fixture()
        queries = rng.standard_normal((16, base.shape[1])).astype(np.float32)
        one = _search_block(index, base, queries, 30, 6, Metric.EUCLIDEAN, threads=1)
        four = _search_block(index, base, queries, 30, 6, Metric.EUCLIDEAN, threads=4)
        for a, b in zip(one, four):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("threads", [0, -3])
    def test_rejects_threads_below_one(self, threads):
        rng, base, cb, spec, index = make_fixture()
        queries = rng.standard_normal((4, base.shape[1])).astype(np.float32)
        with pytest.raises(ValueError, match="threads must be at least 1"):
            search_ids(index, base, queries, shortlist_size=30, top=6, threads=threads)


class TestIndexIO:
    def test_roundtrip_preserves_results(self, tmp_path):
        rng, base, cb, spec, index = make_fixture()
        path = tmp_path / "idx.mkmi"
        save_index(index, path)
        loaded = load_index(path)
        np.testing.assert_array_equal(loaded.codes, index.codes)
        np.testing.assert_array_equal(loaded.ids, index.ids)
        assert loaded.spec == index.spec
        q = rng.standard_normal(base.shape[1]).astype(np.float32)
        a = search(index, base, q, shortlist_size=40, top=10)
        b = search(loaded, base, q, shortlist_size=40, top=10)
        assert a.ranked == b.ranked

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "idx.mkmi"
        path.write_bytes(b"XXXX" + b"\x00" * 64)
        with pytest.raises(FormatError):
            load_index(path)

    def test_truncated(self, tmp_path):
        rng, base, cb, spec, index = make_fixture(n=20)
        path = tmp_path / "idx.mkmi"
        save_index(index, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 7])
        with pytest.raises(FormatError):
            load_index(path)

    def test_trailing_bytes(self, tmp_path):
        rng, base, cb, spec, index = make_fixture(n=20)
        path = tmp_path / "idx.mkmi"
        save_index(index, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError):
            load_index(path)

    def test_huge_ids_rejected_on_load(self, tmp_path):
        _, base, cb, spec, index = make_fixture(n=4)
        path = tmp_path / "idx.mkmi"
        save_index(index, path)
        blob = bytearray(path.read_bytes())
        # the last 8 bytes are the final id; max int64 is fine, 2**63 is not
        blob[-8:] = (2**63 - 1).to_bytes(8, "little")
        path.write_bytes(bytes(blob))
        assert load_index(path).ids[-1] == 2**63 - 1
        blob[-8:] = (2**63).to_bytes(8, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load_index(path)

    @pytest.mark.parametrize(
        "at, field, message",
        [
            (4, struct.pack("<I", 2), "unsupported index format version 2"),
            (8, struct.pack("<I", 0), "invalid index header: code_length=0 count=4"),
            (12, struct.pack("<Q", 0), "invalid index header: code_length=4 count=0"),
            (8, struct.pack("<I", 5), r"header code_length 5 does not match codebook \(4\)"),
            (-8, (0).to_bytes(8, "little"), "inconsistent index payload: ids must be unique"),
        ],
        ids=["version", "zero-code-length", "zero-count", "code-length-mismatch", "duplicate-ids"],
    )
    def test_bad_header_or_payload(self, tmp_path, at, field, message):
        # the header is magic, then version, code length and count at byte
        # 4, 8 and 12; the last 8 bytes (at -8) are the final id, here set to 0
        _, base, cb, spec, index = make_fixture(n=4)
        path = tmp_path / "idx.mkmi"
        save_index(index, path)
        blob = bytearray(path.read_bytes())
        start = at % len(blob)
        blob[start : start + len(field)] = field
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=message):
            load_index(path)

    @pytest.mark.parametrize(
        "stored, tag, n_nearest, message",
        [
            ("single", 2, 0, "variant t2 requires a dual codebook"),
            ("dual", 0, 0, "variant t requires a single codebook"),
            ("single", 1, 13, "n_nearest=13 exceeds k=12"),
        ],
        ids=["t2-spec-over-single", "t-spec-over-dual", "n-spec-beyond-k"],
    )
    def test_spec_that_does_not_fit_its_codebook(self, tmp_path, capsys, stored, tag, n_nearest, message):
        _, base, cb, spec, index = make_fixture(n=20)
        if stored == "dual":
            dual = DualCodebook(cb, Codebook.from_centroids(cb.centroids[::-1]))
            spec = EncoderSpec(Variant.T2)
            index = build_index(encode_many(base, dual, spec), index.ids, spec, dual)
        path = tmp_path / "idx.mkmi"
        save_index(index, path)
        blob = bytearray(path.read_bytes())
        blob[20:26] = struct.pack("<BBI", tag, 0, n_nearest)  # the spec record follows the header
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=f"encoder spec does not fit its codebook: {message}"):
            load_index(path)
        write_vectors(tmp_path / "base.fvecs", base)
        argv = ["query", "--index", str(path), "--base", str(tmp_path / "base.fvecs"),
                "--query-file", str(tmp_path / "base.fvecs")]
        assert main(argv) == 3
        assert message in capsys.readouterr().err
