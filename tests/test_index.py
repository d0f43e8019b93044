import io
import os
import struct
import threading
import warnings
from concurrent.futures import Future

import numpy as np
import pytest

import multikmeans.index as index_mod
from multikmeans.cli import main
from multikmeans.core import HashCode, FormatError, pack_bits
from multikmeans.dataio import VectorReader, write_vectors
from multikmeans.encoder import (
    DualCodebook,
    EncoderSpec,
    Variant,
    encode,
    encode_many,
    write_quantizer_record,
    write_spec_record,
)
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
from test_encoder import BIT_RULES, random_codebook, rows_at_code_flips


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

def naive_search(base, ids, cand_ids, q, top):
    by_id = {int(i): base[pos] for pos, i in enumerate(ids)}
    scored = []
    for i in cand_ids:
        v = by_id[int(i)].astype(np.float64)
        qq = q.astype(np.float64)
        scored.append((float(np.sqrt(((v - qq) ** 2).sum())), int(i)))
    scored.sort()
    return [(i, s) for s, i in scored[:top]]


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

    @pytest.mark.parametrize(
        "ids",
        [
            np.arange(10)[::-1],
            np.arange(10) + 1,
            np.arange(9),
            np.arange(11),
            np.arange(10).reshape(1, 10),
        ],
        ids=["shuffled", "offset", "short", "long", "2-d"],
    )
    def test_rejects_ids_other_than_row_numbers(self, ids):
        # an index stores no ids: row i's id is i
        _, base, cb, spec, index = make_fixture(n=10)
        with pytest.raises(ValueError, match=r"ids must be the row numbers 0\.\.9 in order"):
            build_index(index.codes, ids, spec, cb)

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
            index._ranks[0] = 5
        with pytest.raises(AttributeError):
            index.ids = np.arange(10)
        np.testing.assert_array_equal(index.ids, np.arange(10))


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
        # two pairs of identical codes, the nearer pair on the odd rows
        bits = np.array(
            [[0, 1, 1, 0], [1, 0, 1, 0], [0, 1, 1, 0], [1, 0, 1, 0]], dtype=np.uint8
        )
        codes = pack_bits(bits)
        rng = np.random.default_rng(0)
        cb = Codebook.from_centroids(rng.standard_normal((4, 3)).astype(np.float32))
        spec = EncoderSpec(Variant.N, n_nearest=2)
        index = build_index(codes, np.arange(4), spec, cb)
        q = HashCode(pack_bits([1, 0, 1, 0]), 4)
        assert shortlist(index, q, 4).tolist() == [1, 3, 0, 2]

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
            want = naive_search(base, index.ids, cand, q, 10)
            assert res.ids() == [i for i, _ in want]
            got_scores = [s for _, s in res.ranked]
            np.testing.assert_allclose(got_scores, [s for _, s in want], rtol=1e-6)

    def test_full_shortlist_equals_brute_force(self):
        rng, base, cb, spec, index = make_fixture()
        queries = rng.standard_normal((5, base.shape[1])).astype(np.float32)
        gt = brute_force_gt(base, queries, 10)
        for qi, q in enumerate(queries):
            res = search(index, base, q, shortlist_size=index.size, top=10)
            assert res.ids() == gt[qi].tolist()

    def test_result_metadata(self):
        rng, base, cb, spec, index = make_fixture(n=40)
        res = search(index, base, base[0], shortlist_size=20, top=5)
        assert res.metric == "euclidean"
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

    def test_nonfinite_base_row_rejected(self):
        # the index is built from finite rows; the store's row 2 holds an inf
        rng, base, cb, spec, index = make_fixture(n=5, dim=3, k=4)
        store = base.copy()
        store[2, 1] = np.inf
        with pytest.raises(ValueError, match="non-finite base vector id 2$"):
            search(index, store, base[0], shortlist_size=5, top=5)

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

    @pytest.mark.parametrize(
        "call, bad, message",
        [
            ("search", np.zeros((1, 8)), r"query must be a nonempty 1-D array, got shape \(1, 8\)"),
            ("search", np.array(list("abcdefgh")), "query must be numeric, got dtype <U1"),
            ("search", np.array([np.nan] + [0.0] * 7), "query contains non-finite components"),
            ("search", np.zeros(0), r"query must be a nonempty 1-D array, got shape \(0,\)"),
            ("search_ids", np.zeros(8), r"queries must be a nonempty 2-D array, got shape \(8,\)"),
            ("search_ids", np.array([list("abcdefgh")]), "queries must be numeric, got dtype <U1"),
            ("search_ids", np.zeros((0, 8)), r"queries must be a nonempty 2-D array, got shape \(0, 8\)"),
            ("encode_many", np.zeros(8), r"vectors must be a nonempty 2-D array, got shape \(8,\)"),
            ("encode_many", np.array([list("abcdefgh")]), "vectors must be numeric, got dtype <U1"),
        ],
        ids=["search-2d", "search-str", "search-nan", "search-empty", "search_ids-1d", "search_ids-str",
             "search_ids-empty", "encode_many-1d", "encode_many-str"],
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

    def test_threads_do_not_change_results(self, monkeypatch):
        # ids and scores of the query block that search and search_ids share
        rng, base, cb, spec, index = make_fixture()
        queries = rng.standard_normal((16, base.shape[1])).astype(np.float32)
        one = on_cpus(monkeypatch, 1, _search_block, index, base, queries, 30, 6)
        four = on_cpus(monkeypatch, 4, _search_block, index, base, queries, 30, 6)
        for a, b in zip(one, four):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("spec", BIT_RULES, ids=["t-arith", "t-geom", "n"])
    def test_search_equals_its_row_near_code_flips(self, spec, monkeypatch):
        """Queries within a few ulps of a flip of the rule keep their code at
        every position of a search_ids block and at every CPU count, so
        search(q) returns that row's ids and scores bit for bit."""
        rng = np.random.default_rng(53)
        cb = random_codebook(rng, 10, 24)
        base = rng.standard_normal((300, 24)).astype(np.float32)
        index = build_index(encode_many(base, cb, spec), np.arange(300), spec, cb)
        # 8 flip rows among 9 plain ones; each shift moves every row one place
        Q = np.vstack([rows_at_code_flips(cb, spec, rng, 4), rng.standard_normal((9, 24))])
        want = [search(index, base, q, shortlist_size=20, top=5).ranked for q in Q]
        for shift in range(len(Q)):
            order = np.roll(np.arange(len(Q)), shift)
            for cpus in (1, 2, 4):
                ids, scores = on_cpus(monkeypatch, cpus, _search_block, index, base, Q[order], 20, 5)
                got = [tuple(zip(i.tolist(), s.tolist())) for i, s in zip(ids, scores)]
                assert got == [want[j] for j in order], (shift, cpus)
                if shift == 0:
                    np.testing.assert_array_equal(on_cpus(monkeypatch, cpus, search_ids, index, base, Q, 20, 5), ids)
        # einsum would sum the strided rows of a Fortran-ordered block in another order
        ids, scores = _search_block(index, base, np.asfortranarray(Q), 20, 5)
        assert [tuple(zip(i.tolist(), s.tolist())) for i, s in zip(ids, scores)] == want

    def test_fortran_ordered_block_matches_search(self):
        """A query's row of a Fortran-ordered float64 block is summed as a
        C-ordered row, so its scores are search()'s bit for bit."""
        rng = np.random.default_rng(54)
        base = rng.standard_normal((3000, 37))
        cb = Codebook.from_centroids(rng.standard_normal((16, 37)))
        spec = EncoderSpec(Variant.N, n_nearest=3)
        index = build_index(encode_many(base, cb, spec), np.arange(3000), spec, cb)
        Q = np.asfortranarray(rng.standard_normal((64, 37)))
        ids, scores = _search_block(index, base, Q, 500, 50)
        for q, i, sc in zip(Q, ids, scores):
            assert search(index, base, np.ascontiguousarray(q), 500, 50).ranked == tuple(
                zip(i.tolist(), sc.tolist())
            )

    def test_each_take_fits_the_chunk_budget(self, monkeypatch):
        """A worker gathers each chunk of its queries with one take of at
        most _CHUNK_ELEMENTS // d rows, whole shortlists, and of one
        shortlist when the budget holds less; the takes cover every
        query's shortlist once."""
        rng, base, cb, spec, index = make_fixture()
        d = base.shape[1]
        queries = rng.standard_normal((8, d)).astype(np.float32)
        want = search_ids(index, base, queries, 30, 6)
        sizes = []

        class Store:
            def take(self, ids):
                sizes.append(len(ids))
                return base[ids]

        for budget, takes in ((3 * 30 * d + 5, [90, 90, 60]), (30 * d - 1, [30] * 8), (8 * 30 * d, [240])):
            sizes.clear()
            monkeypatch.setattr(index_mod, "_CHUNK_ELEMENTS", budget)
            np.testing.assert_array_equal(search_ids(index, Store(), queries, 30, 6), want)
            assert sizes == takes
            assert all(rows * d <= max(budget, 30 * d) for rows in sizes)

    def test_chunk_fault_names_what_one_query_would(self, monkeypatch):
        """In a chunk of four queries with one fault, a non-finite row or a
        missing id, search_ids raises the error, naming the same id, that
        the first query holding it raises alone. A base of the wrong width
        counts the chunk's ids, one take's worth. One usable CPU keeps the
        four queries on one worker."""
        rng, base, cb, spec, index = make_fixture()
        queries = rng.standard_normal((4, base.shape[1])).astype(np.float32)
        monkeypatch.setattr(index_mod, "_CHUNK_ELEMENTS", 4 * 30 * base.shape[1])
        monkeypatch.setattr(index_mod, "_usable_cpus", lambda: 1)
        cands = [shortlist(index, encode(q, cb, spec), 30) for q in queries]
        first = next(i for i in cands[2] if i not in cands[0] and i not in cands[1])
        bad = base.astype(np.float64)
        bad[first] = np.nan
        with pytest.raises(ValueError) as alone:
            search(index, bad, queries[2], 30, 6)
        with pytest.raises(ValueError) as chunk:
            search_ids(index, bad, queries, 30, 6)
        assert str(chunk.value) == str(alone.value) == f"euclidean re-rank is undefined for non-finite base vector id {first}"
        short = base[: index.size - 1]  # the last id is missing
        holder = next(q for q, c in zip(queries, cands) if index.size - 1 in c)
        with pytest.raises(LookupError) as alone:
            search(index, short, holder, 30, 6)
        with pytest.raises(LookupError) as chunk:
            search_ids(index, short, queries, 30, 6)
        assert str(chunk.value) == str(alone.value) == f"base store has no vector for id {index.size - 1}"
        with pytest.raises(ValueError, match=r"^base store returned shape \(120, 9\) for 120 ids$"):
            search_ids(index, np.ones((index.size, 9)), queries, 30, 6)

    def test_missing_id_of_a_later_query_wins_in_its_chunk(self, monkeypatch):
        """One take gathers the whole chunk, so a later query's missing id
        raises LookupError before the screen reaches an earlier query's
        non-finite row, which that query alone raises first."""
        rng, base, cb, spec, index = make_fixture()
        queries = rng.standard_normal((4, base.shape[1])).astype(np.float32)
        monkeypatch.setattr(index_mod, "_CHUNK_ELEMENTS", 4 * 30 * base.shape[1])
        cands = [set(shortlist(index, encode(q, cb, spec), 30).tolist()) for q in queries]
        nonfinite = min(cands[0] - cands[3])
        missing = min(cands[3] - cands[0])
        bad = base.astype(np.float64)
        bad[nonfinite] = np.inf

        class Store:
            def take(self, ids):
                if missing in ids:
                    raise LookupError(f"base store has no vector for id {missing}")
                return bad[ids]

        with pytest.raises(ValueError, match=f"non-finite base vector id {nonfinite}$"):
            search(index, Store(), queries[0], 30, 6)
        with pytest.raises(LookupError, match=f"no vector for id {missing}"):
            search_ids(index, Store(), queries, 30, 6)

    def test_query_path_never_reaches_matmul(self, monkeypatch):
        """Queries are hashed and re-ranked without a BLAS product, whose
        OpenBLAS threads spin on after it returns; a base block still takes
        one."""
        rng, base, cb, spec, index = make_fixture()
        queries = rng.standard_normal((8, base.shape[1])).astype(np.float32)
        matmul = np.matmul

        def no_blas(*args, **kwargs):
            raise AssertionError("np.matmul on the query path")

        with monkeypatch.context() as m:
            m.setattr(np, "matmul", no_blas)
            search(index, base, queries[0], shortlist_size=30, top=6)
            for cpus in (1, 2, 4):
                on_cpus(monkeypatch, cpus, search_ids, index, base, queries, 30, 6)
        calls = []
        monkeypatch.setattr(np, "matmul", lambda *a, **k: calls.append(a[0].shape) or matmul(*a, **k))
        encode_many(base, cb, spec)
        assert calls == [base.shape]

    @pytest.mark.parametrize("cpus, n, asked", [(2, 3, [2]), (5, 8, [5]), (5, 3, [3]), (1, 8, []), (2, 1, [2, 2])])
    def test_worker_count(self, monkeypatch, cpus, n, asked):
        """workers = the usable CPUs, and max(1, workers // queries) shards
        a query. With one shard, min(workers, queries) workers take query
        stripes; a lone query here splits into a scan round and a re-rank
        round of two tasks each (the shard budget is lifted). One task runs
        on the calling thread and never reaches the pool, which is replaced
        by one that records each call's task count and runs them inline."""
        rng, base, cb, spec, index = make_fixture()
        queries = rng.standard_normal((n, base.shape[1])).astype(np.float32)
        want = [on_cpus(monkeypatch, 1, search_ids, index, base, q[None], 30, 6)[0] for q in queries]
        sizes = []

        class Inline:
            def submit(self, task):
                sizes[-1] += 1
                future = Future()
                future.set_result(task())
                return future

        def inline_pool():
            sizes.append(1)  # the calling thread runs one task
            return Inline()

        monkeypatch.setattr(index_mod, "_worker_pool", inline_pool)
        monkeypatch.setattr(index_mod, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(index_mod, "_SHARD_ELEMENTS", 1)
        got = search_ids(index, base, queries, shortlist_size=30, top=6)
        assert sizes == asked
        np.testing.assert_array_equal(got, want)

    def test_usable_cpus(self, monkeypatch):
        assert index_mod._usable_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")  # as on a platform without it
        assert index_mod._usable_cpus() == (os.cpu_count() or 1)

    def test_takes_no_thread_count(self):
        """The usable CPUs set the worker count: neither a sixth positional
        argument nor a threads keyword is accepted."""
        rng, base, cb, spec, index = make_fixture()
        queries = rng.standard_normal((4, base.shape[1])).astype(np.float32)
        with pytest.raises(TypeError):
            search_ids(index, base, queries, 30, 6, 2)
        with pytest.raises(TypeError, match="threads"):
            search_ids(index, base, queries, 30, 6, threads=2)


class TestSearchArguments:
    """shortlist_size and top are checked for integers, numpy's
    included and bool excluded, before any query is encoded."""

    @pytest.fixture
    def case(self, monkeypatch):
        rng, base, cb, spec, index = make_fixture()
        queries = rng.standard_normal((3, base.shape[1])).astype(np.float32)

        def no_work(*args, **kwargs):
            raise AssertionError("a query was encoded")

        monkeypatch.setattr(index_mod, "encode_queries", no_work)
        return base, index, queries

    @pytest.mark.parametrize("name, shortlist_size, top", [
        ("shortlist_size", 10.0, 3), ("shortlist_size", False, 1), ("top", 10, 3.0), ("top", 10, True),
        ("shortlist_size", np.float32(10), 3), ("top", 10, "3"),
    ])
    def test_shortlist_and_top_must_be_integers(self, case, name, shortlist_size, top):
        base, index, queries = case
        with pytest.raises(TypeError, match=rf"^{name} must be an integer, got "):
            search(index, base, queries[0], shortlist_size, top)
        with pytest.raises(TypeError, match=rf"^{name} must be an integer, got "):
            search_ids(index, base, queries, shortlist_size, top)

    def test_numpy_integers_are_accepted(self):
        rng, base, cb, spec, index = make_fixture()
        q = rng.standard_normal(base.shape[1]).astype(np.float32)
        assert search(index, base, q, np.int32(30), np.uint8(6)) == search(index, base, q, 30, 6)
        want = search_ids(index, base, q[None], 30, 6)
        np.testing.assert_array_equal(search_ids(index, base, q[None], np.int32(30), np.uint8(6)), want)


def on_cpus(monkeypatch, cpus, call, *args):
    """call(*args) as on a machine with `cpus` usable CPUs."""
    with monkeypatch.context() as m:
        m.setattr(index_mod, "_usable_cpus", lambda: cpus)
        return call(*args)


def on_one_cpu(monkeypatch, *args):
    """search(*args) as on a one-CPU machine, on the calling thread alone."""
    return on_cpus(monkeypatch, 1, search, *args)


def pool_threads() -> int:
    return sum(t.name.startswith("multikmeans-search") for t in threading.enumerate())


class TestWorkerPool:
    """The pool that splits a query's shards and search_ids' stripes. The
    shard budget is lifted and two CPUs are reported, so a lone query
    splits in two on the test fixture."""

    @pytest.fixture
    def split(self, monkeypatch):
        monkeypatch.setattr(index_mod, "_SHARD_ELEMENTS", 1)
        monkeypatch.setattr(index_mod, "_usable_cpus", lambda: 2)
        return make_fixture()

    @pytest.fixture
    def reader(self, split, tmp_path):
        """The fixture's base written to a file, for stores built on VectorReader."""
        path = tmp_path / "base.fvecs"
        write_vectors(path, split[1])
        return path

    def test_repeated_calls_keep_the_pool_size(self, split, monkeypatch):
        """The pool is made once, with one thread per usable CPU but the
        caller's, and every later call reuses it."""
        rng, base, cb, spec, index = split
        queries = rng.standard_normal((4, base.shape[1])).astype(np.float32)
        monkeypatch.setattr(index_mod, "_POOL", None)  # a fresh pool, whose threads this test counts
        before = set(threading.enumerate())
        want = on_cpus(monkeypatch, 1, search_ids, index, base, queries, 30, 6)
        np.testing.assert_array_equal(search_ids(index, base, queries, 30, 6), want)
        pool = index_mod._POOL
        for i in range(50):
            assert search(index, base, queries[i % 4], 30, 6).ids() == want[i % 4].tolist()
            np.testing.assert_array_equal(search_ids(index, base, queries, 30, 6), want)
            np.testing.assert_array_equal(search_ids(index, base, queries[:1], 30, 6), want[:1])
        assert pool is not None and index_mod._POOL is pool
        new = [t for t in threading.enumerate() if t not in before and t.name.startswith("multikmeans-search")]
        assert len(new) <= index_mod._usable_cpus() - 1

    def test_one_thread_never_reaches_the_pool(self, split, monkeypatch):
        rng, base, cb, spec, index = split
        queries = rng.standard_normal((4, base.shape[1])).astype(np.float32)

        def no_pool():
            raise AssertionError("one CPU reached the pool")

        monkeypatch.setattr(index_mod, "_worker_pool", no_pool)
        on_cpus(monkeypatch, 1, search_ids, index, base, queries[:1], 30, 6)
        on_cpus(monkeypatch, 1, search_ids, index, base, queries, 30, 6)
        on_one_cpu(monkeypatch, index, base, queries[0], 30, 6)
        with pytest.raises(AssertionError, match="reached the pool"):
            search(index, base, queries[0], 30, 6)

    def test_short_shortlist_stays_on_the_calling_thread(self, monkeypatch):
        """At the default budget, L = 30 at d = 8 is far too short to split."""
        rng, base, cb, spec, index = make_fixture()
        monkeypatch.setattr(index_mod, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(index_mod, "_worker_pool", lambda: pytest.fail("a short shortlist was split"))
        search(index, base, base[0], 30, 6)

    def test_other_stores_stay_on_the_calling_thread(self, split, monkeypatch):
        """A store that is neither an array nor a VectorReader is never
        split: search() and a lone query of search_ids read it on the
        calling thread, as one thread would."""
        rng, base, cb, spec, index = split
        q = rng.standard_normal(base.shape[1]).astype(np.float32)
        seen = []

        class Store:
            def take(self, ids):
                seen.append(threading.current_thread())
                return base[ids]

        monkeypatch.setattr(index_mod, "_worker_pool", lambda: pytest.fail("a store of unknown safety was split"))
        assert search(index, Store(), q, 30, 6) == on_one_cpu(monkeypatch, index, base, q, 30, 6)
        np.testing.assert_array_equal(search_ids(index, Store(), q[None], 30, 6),
                                      on_cpus(monkeypatch, 1, search_ids, index, base, q[None], 30, 6))
        assert seen == [threading.current_thread()] * 2

    def test_search_ids_reads_other_stores_on_the_calling_thread(self, split):
        """A block of four queries over a store that is neither an array nor
        a VectorReader takes no stripes on two CPUs: every take runs on the
        calling thread."""
        rng, base, cb, spec, index = split
        queries = rng.standard_normal((4, base.shape[1])).astype(np.float32)
        seen = []

        class Store:
            def take(self, ids):
                seen.append(threading.current_thread())
                return base[ids]

        np.testing.assert_array_equal(search_ids(index, Store(), queries, 30, 6), search_ids(index, base, queries, 30, 6))
        assert seen and seen == [threading.current_thread()] * len(seen)

    def test_split_runs_no_blas_product(self, split, monkeypatch):
        rng, base, cb, spec, index = split
        q = rng.standard_normal(base.shape[1]).astype(np.float32)
        want = on_one_cpu(monkeypatch, index, base, q, 30, 6)
        monkeypatch.setattr(np, "matmul", lambda *a, **k: pytest.fail("np.matmul on the query path"))
        assert search(index, base, q, 30, 6) == want

    def test_worker_shard_failure_reaches_the_caller(self, split, reader):
        """take raises LookupError on a pool thread only; the next call,
        on the same pool, succeeds."""
        rng, base, cb, spec, index = split
        q = rng.standard_normal(base.shape[1]).astype(np.float32)

        class Store(VectorReader):
            fail = True

            def take(self, ids):
                if self.fail and threading.current_thread() is not threading.main_thread():
                    raise LookupError("no row on this thread")
                return super().take(ids)

        with Store(reader) as store:
            with pytest.raises(LookupError, match="no row on this thread"):
                search(index, store, q, 30, 6)
            store.fail = False
            assert search(index, store, q, 30, 6) == search(index, base, q, 30, 6)

    def test_first_failing_shard_names_the_error(self, split, monkeypatch):
        """Two shards both hold a non-finite row: the caller raises the first
        shard's error, the one the calling thread alone would raise."""
        rng, base, cb, spec, index = split
        q = base[0]
        cand = shortlist(index, encode(q, cb, spec), 30)
        bad = base.astype(np.float64)
        bad[cand[[3, 20]]] = np.inf
        with pytest.raises(ValueError) as one:
            on_one_cpu(monkeypatch, index, bad, q, 30, 6)
        with pytest.raises(ValueError) as two:
            search(index, bad, q, 30, 6)
        assert str(two.value) == str(one.value) == f"euclidean re-rank is undefined for non-finite base vector id {cand[3]}"

    def test_store_that_searches_in_a_shard_runs_inline(self, split, reader):
        """A pool task never waits on the pool: a search made from inside
        a worker shard runs on that worker's thread."""
        rng, base, cb, spec, index = split
        q = rng.standard_normal(base.shape[1]).astype(np.float32)
        inner = []

        class Store(VectorReader):
            def take(self, ids):
                inner.append(search(index, base, q, 30, 6))
                return super().take(ids)

        with Store(reader) as store:
            assert search(index, store, q, 30, 6) == search(index, base, q, 30, 6)
        assert len(inner) == 2 and inner[0] == inner[1]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")
    def test_forked_child_can_search(self, split):
        rng, base, cb, spec, index = split
        q = rng.standard_normal(base.shape[1]).astype(np.float32)
        want = search(index, base, q, 30, 6)  # the parent's pool now has a thread
        read_end, write_end = os.pipe()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # fork() of a threaded process
            pid = os.fork()
        if pid == 0:  # pragma: no cover - the child reports through the pipe
            code = 1
            try:
                got = search(index, base, q, 30, 6)
                os.write(write_end, repr(got.ranked).encode())
                code = 0 if pool_threads() == index_mod._usable_cpus() - 1 else 2
            finally:
                os._exit(code)
        os.close(write_end)
        with os.fdopen(read_end, "rb") as f:
            out = f.read()
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert out.decode() == repr(want.ranked)


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

    @pytest.mark.parametrize(
        "at, field, message",
        [
            (4, struct.pack("<I", 3), "unsupported index format version 3"),
            (8, struct.pack("<I", 0), "invalid index header: code_length=0 count=4"),
            (12, struct.pack("<Q", 0), "invalid index header: code_length=4 count=0"),
            (8, struct.pack("<I", 5), r"header code_length 5 does not match codebook \(4\)"),
            (-8, (1 << 63).to_bytes(8, "little"), "inconsistent index payload: non-canonical padding"),
        ],
        ids=["version", "zero-code-length", "zero-count", "code-length-mismatch", "noncanonical-padding"],
    )
    def test_bad_header_or_payload(self, tmp_path, at, field, message):
        # the header is magic, then version, code length and count at byte
        # 4, 8 and 12; the last 8 bytes (at -8) are the final code, whose
        # bits past the code length are here set
        _, base, cb, spec, index = make_fixture(n=4)
        path = tmp_path / "idx.mkmi"
        save_index(index, path)
        blob = bytearray(path.read_bytes())
        start = at % len(blob)
        blob[start : start + len(field)] = field
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=message):
            load_index(path)

    def test_file_is_header_records_and_codes(self, tmp_path):
        # no id array: the file holds N * words * 8 bytes beyond its records
        _, base, cb, spec, index = make_fixture(n=50)
        path = tmp_path / "idx.mkmi"
        save_index(index, path)
        records = io.BytesIO()
        write_spec_record(records, spec)
        write_quantizer_record(records, cb)
        assert path.stat().st_size == 4 + 16 + len(records.getvalue()) + 50 * index.codes.shape[1] * 8
        assert path.read_bytes().endswith(index.codes.astype("<u8").tobytes())

    def test_version_1_file_rejected(self, tmp_path, capsys):
        # a version-1 file is this index's version-2 bytes with the version
        # field at 1 and each id, its row number, appended as int64
        _, base, cb, spec, index = make_fixture(n=20)
        path = tmp_path / "idx.mkmi"
        save_index(index, path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 1)
        path.write_bytes(bytes(blob) + np.arange(20, dtype="<i8").tobytes())
        with pytest.raises(FormatError, match="unsupported index format version 1"):
            load_index(path)
        write_vectors(tmp_path / "base.fvecs", base)
        write_vectors(tmp_path / "queries.fvecs", base[:3])
        write_vectors(tmp_path / "gt.ivecs", brute_force_gt(base, base[:3], 5))
        common = ["--index", str(path), "--base", str(tmp_path / "base.fvecs")]
        query = ["query", *common, "--query-file", str(tmp_path / "queries.fvecs"), "--shortlist", "10", "--top", "5"]
        evaluate = ["eval", *common, "--queries", str(tmp_path / "queries.fvecs"), "--gt", str(tmp_path / "gt.ivecs"),
                    "--recall-at", "1", "--shortlist", "10"]
        for argv in (query, evaluate):
            assert main(argv) == 3
            assert "unsupported index format version 1" in capsys.readouterr().err

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
