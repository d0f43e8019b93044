"""Property tests: the partitioned top-k selector, the narrow Hamming keys,
the packed-key shortlist over multi-word codes and its key width rule, the
bit-plane shortlist of n and n2 indexes for chunks of queries and for
hand-made codes of any weight, the partitioned n-nearest bit rule against
a stable argsort, the
search path over a memory-mapped VectorReader (single query, batched and
threaded), a lone query split into 1 to 5 shards, VectorReader.take, the float32-screened Euclidean top-k against
its float64 kernel run over every row, its keep rule at the cutoff, its
query and row cast-error terms, each query's terms whichever queries
share the call, the rows it keeps with and without a running cut and the
exact seed distances its cut comes from, its cut map, a query whose
float32 dot or norm overflows, one kernel score per (query, row),
brute_force_gt's independence from the query block, the base block, the
base's input kind (array or VectorReader) and the query order, its
allocation peak over a reader, a search re-rank that the exact walk cuts
into several blocks, the independence of that kernel from the rows scored
with it, core._sq_distances over wide blocks, k-means++ seeding, Lloyd training,
the assign step (kmeans._assign) and encode_many against inline copies of
their earlier forms, which made one checked distance call per block where
they now reach core._sq_distances directly, each against a naive
full-sort, popcount, whole-file or inline reference on inputs full of ties
and duplicates."""

import contextlib
import os
import tempfile
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import multikmeans.encoder as encoder_mod
import multikmeans.index as index_mod
import multikmeans.kmeans as km
from multikmeans.core import (
    HashCode,
    _shifted_hamming,
    _sq_distances,
    as_matrix,
    hamming_distances,
    pack_bits,
)
from multikmeans.dataio import VectorReader, read_vectors, write_vectors
from multikmeans.encoder import (
    DualCodebook,
    EncoderSpec,
    Variant,
    _bits_nearest,
    _bits_threshold,
    encode,
    encode_many,
)
from multikmeans.evaluate import brute_force_gt
from multikmeans.index import (
    _direct_distances,
    _euclidean_screen,
    _lower,
    _lower_cut,
    _rerank,
    _screen_terms,
    _screened_rows,
    _topk,
    build_index,
    search,
    search_ids,
    shortlist,
)
from multikmeans.kmeans import Codebook, TrainMeta, TrainParams

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def tied_keys_and_ids(draw):
    """Keys with many duplicates (small ints, or floats drawn from a few
    values that may include NaN), and unique, shuffled, non-contiguous ids."""
    n = draw(st.integers(1, 40))
    if draw(st.booleans()):
        keys = np.array(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)), dtype=np.int64)
    else:
        value = st.one_of(st.floats(-1e3, 1e3), st.just(float("nan")))
        pool = draw(st.lists(value, min_size=1, max_size=4))
        keys = np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)), dtype=np.float64)
    ids = draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n, unique=True))
    return keys, np.array(ids, dtype=np.int64)


@SETTINGS
@given(tied_keys_and_ids())
def test_topk_equals_full_lexsort(case):
    keys, ids = case
    full = np.lexsort((ids, keys))
    for k in range(1, keys.shape[0] + 1):
        np.testing.assert_array_equal(_topk(keys, ids, k), full[:k])


def popcount_reference(codes, words):
    return np.array([sum(bin(int(c) ^ int(w)).count("1") for c, w in zip(row, words)) for row in codes], dtype=np.int64)


def naive_shortlist(codes, words, limit):
    """Row numbers, which are the ids, of a full sort of (distance, row)."""
    ham = popcount_reference(codes, words)
    return np.array([i for _, i in sorted(zip(ham.tolist(), range(len(ham))))[:limit]])


@st.composite
def multiword_codes(draw):
    """Packed codes of 1-4 words or of 5 words (a code longer than 255 bits,
    so distances above 255 occur), a single code or many with duplicated
    rows, and a query that may be all ones."""
    length = draw(st.one_of(st.integers(1, 4 * 64), st.integers(256, 5 * 64)))
    n = draw(st.one_of(st.just(1), st.integers(1, 40)))
    n_unique = draw(st.integers(1, min(6, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    unique = rng.random((n_unique, length)) < draw(st.sampled_from([0.05, 0.5, 0.95]))
    bits = unique[rng.integers(0, n_unique, size=n)]
    query = np.ones(length, dtype=bool) if draw(st.booleans()) else rng.random(length) < 0.5
    return length, pack_bits(bits), pack_bits(query)


@SETTINGS
@given(multiword_codes())
def test_hamming_distances_are_narrow_and_exact(case):
    length, codes, words = case
    ham = hamming_distances(codes, words)
    assert ham.dtype.kind == "u" and ham.dtype.itemsize >= 2
    np.testing.assert_array_equal(ham.astype(np.int64), popcount_reference(codes, words))


def test_hamming_distances_widen_past_16_bits():
    codes = np.full((2, 1025), np.uint64(2**64 - 1))
    ham = hamming_distances(codes, np.zeros(1025, dtype=np.uint64))
    assert ham.dtype == np.uint32
    np.testing.assert_array_equal(ham, [1025 * 64, 1025 * 64])


@SETTINGS
@given(multiword_codes(), st.booleans(), st.data())
def test_shortlist_on_multiword_codes_matches_naive(case, wide, data):
    """The packed (distance, row) key select against a full sort of
    (distance, id) pairs, in uint32 keys and, with the width rule forced,
    in uint64 keys."""
    length, codes, words = case
    assume(length >= 2)  # a codebook, one centroid per bit, needs two centroids
    n = codes.shape[0]
    cb = Codebook.from_centroids(np.arange(2 * length, dtype=np.float32).reshape(length, 2))
    limit = data.draw(st.one_of(st.sampled_from([1, n]), st.integers(1, n)))
    forced = mock.patch.object(index_mod, "_key_dtype", lambda count, length: np.uint64)
    with forced if wide else contextlib.nullcontext():
        index = build_index(codes, np.arange(n), EncoderSpec(Variant.T), cb)
    assert index._ranks.dtype == (np.uint64 if wide else np.uint32)
    np.testing.assert_array_equal(shortlist(index, HashCode(words, length), limit), naive_shortlist(codes, words, limit))


def test_key_width_rule_at_the_32_bit_boundary():
    """Rank bits bitlen(count - 1) plus distance bits bitlen(length): 26 + 6
    fits uint32, one more bit on either side does not."""
    assert index_mod._key_dtype(2**26, 63) is np.uint32
    assert index_mod._key_dtype(2**26, 64) is np.uint64
    assert index_mod._key_dtype(2**26 + 1, 63) is np.uint64
    assert index_mod._key_dtype(1, 2**32 - 1) is np.uint32
    assert index_mod._key_dtype(1, 2**32) is np.uint64


def test_shifted_hamming_keeps_the_top_key_bit():
    """At the boundary the largest distance fills the key's top bits."""
    codes = np.array([[2**63 - 1], [1], [0]], dtype=np.uint64)
    keys = _shifted_hamming(codes, np.zeros(1, dtype=np.uint64), 26, np.uint32)
    assert keys.dtype == np.uint32
    np.testing.assert_array_equal(keys, [63 << 26, 1 << 26, 0])


def parent_sq_distances(a, b, chunk_rows=None):
    """The checked squared-distance call, with an element-wise finiteness
    check of both inputs, that the seeding, the assign step and encode_many
    made once per block before they reached core._sq_distances directly."""
    A = as_matrix(a, "a")
    B = as_matrix(b, "b")
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"dimension mismatch: {A.shape[1]} vs {B.shape[1]}")
    B64 = np.asarray(B, dtype=np.float64)
    b_sq = np.einsum("md,md->m", B64, B64)
    n, m = A.shape[0], B64.shape[0]
    out = np.empty((n, m), dtype=np.float64)
    if chunk_rows is None:
        chunk_rows = max(1, (1 << 23) // m)
    for s in range(0, n, chunk_rows):
        blk = np.asarray(A[s : s + chunk_rows], dtype=np.float64)
        a_sq = np.einsum("nd,nd->n", blk, blk)
        scale = a_sq[:, None] + b_sq[None, :]
        chunk = scale - 2.0 * (blk @ B64.T)
        tiny = chunk <= 1e-8 * scale
        if tiny.any():
            ii, jj = np.nonzero(tiny)
            diffs = blk[ii] - B64[jj]
            chunk[ii, jj] = np.einsum("nd,nd->n", diffs, diffs)
        out[s : s + chunk_rows] = chunk
    np.maximum(out, 0.0, out=out)
    return out


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from([np.float32, np.float64]), st.data())
def test_sq_distances_match_whole_block_passes(seed, wide, b_dtype, data):
    """core._sq_distances bit for bit against the element-wise passes run
    over whole blocks. A wide b splits each block into several slices, and
    rows of a copied from b put exact zeros in the later ones."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(30, 91) if wide else rng.integers(1, 6))
    m = int(rng.integers(500, 1501) if wide else rng.integers(1, 9))
    d = int(rng.integers(1, 7))
    a = rng.standard_normal((n, d))
    b = rng.standard_normal((m, d)).astype(b_dtype)
    b[rng.integers(0, m, size=m // 2)] = a[0]
    a[rng.integers(0, n, size=n // 2)] = b[rng.integers(0, m, size=n // 2)]
    chunk_rows = data.draw(st.sampled_from([None, 40] if wide else [None, 1, 2]))
    B64 = b.astype(np.float64)
    b_sq = np.einsum("md,md->m", B64, B64)
    step = chunk_rows or n  # one kernel call per block of the reference
    blocks = [a[s : s + step] for s in range(0, n, step)]
    got = np.vstack([_sq_distances(blk, np.einsum("nd,nd->n", blk, blk), B64, b_sq) for blk in blocks])
    assert got.tobytes() == parent_sq_distances(a, b, chunk_rows).tobytes()


def naive_search(base, cand, q, top):
    """Distances as the re-rank computes them over the same candidate order,
    ranked by a full sort of (distance, id)."""
    vecs = base[cand].astype(np.float64)
    q64 = q.astype(np.float64)
    scores = np.sqrt(np.einsum("nd,nd->n", vecs - q64, vecs - q64))
    order = sorted(range(cand.shape[0]), key=lambda j: (scores[j], cand[j]))[:top]
    return cand[order], scores[order]


@st.composite
def stores(draw):
    """A small base with duplicated rows of small positive ints, a codebook,
    an encoder spec and a few queries."""
    dim = draw(st.integers(2, 5))
    n_unique = draw(st.integers(2, 8))
    n = draw(st.integers(n_unique, 30))
    cell = st.integers(1, 4)
    unique = np.array(draw(st.lists(st.lists(cell, min_size=dim, max_size=dim), min_size=n_unique, max_size=n_unique)))
    base = unique[draw(st.lists(st.integers(0, n_unique - 1), min_size=n, max_size=n))]
    k = draw(st.integers(2, 8))
    cents = np.array(draw(st.lists(st.lists(cell, min_size=dim, max_size=dim), min_size=k, max_size=k)))
    spec = EncoderSpec(Variant.T) if draw(st.booleans()) else EncoderSpec(Variant.N, n_nearest=draw(st.integers(1, k)))
    queries = np.array(draw(st.lists(st.lists(cell, min_size=dim, max_size=dim), min_size=1, max_size=3)))
    limit = draw(st.integers(1, n))
    top = draw(st.integers(1, limit))
    suffix = draw(st.sampled_from([".fvecs", ".bvecs"]))
    cpus = draw(st.sampled_from([1, 2]))
    cb = Codebook.from_centroids(cents.astype(np.float32))
    return base, cb, spec, queries, limit, top, suffix, cpus


@SETTINGS
@given(stores())
def test_search_over_reader_matches_full_sort(case):
    base, cb, spec, queries, limit, top, suffix, cpus = case
    index = build_index(encode_many(base.astype(np.float32), cb, spec), np.arange(len(base)), spec, cb)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "base" + suffix)
        write_vectors(path, base)
        with VectorReader(path) as reader, mock.patch.object(index_mod, "_usable_cpus", lambda: cpus):
            got_ids = search_ids(index, reader, queries, limit, top)
            got_scores = index_mod._search_block(index, reader, queries, limit, top)[1]
            for qi, q in enumerate(queries):
                code = encode(q, cb, spec)
                cand = shortlist(index, code, limit)
                np.testing.assert_array_equal(cand, naive_shortlist(index.codes, code.words, limit))
                want_ids, want_scores = naive_search(base, cand, q, top)
                res = search(index, reader, q, limit, top)
                np.testing.assert_array_equal([i for i, _ in res.ranked], want_ids)
                np.testing.assert_array_equal([s for _, s in res.ranked], want_scores)
                np.testing.assert_array_equal(got_ids[qi], want_ids)
                np.testing.assert_array_equal(got_scores[qi], want_scores)


@st.composite
def split_cases(draw):
    """A small base of a few distinct rows of small ints, so codes repeat
    (Hamming tie runs that cross shard cuts) and distances tie between
    rows of different codes (ties the re-rank merge breaks by id), with
    queries, a shard count of 1 to 5 and a store kind."""
    dim = draw(st.integers(2, 4))
    n_unique = draw(st.integers(2, 10))
    n = draw(st.integers(max(n_unique, 5), 40))
    cell = st.integers(0, 3)
    unique = np.array(draw(st.lists(st.lists(cell, min_size=dim, max_size=dim), min_size=n_unique, max_size=n_unique)))
    base = unique[draw(st.lists(st.integers(0, n_unique - 1), min_size=n, max_size=n))]
    k = draw(st.integers(2, 6))
    cents = np.array(draw(st.lists(st.lists(cell, min_size=dim, max_size=dim), min_size=k, max_size=k)))
    spec = EncoderSpec(Variant.T) if draw(st.booleans()) else EncoderSpec(Variant.N, n_nearest=draw(st.integers(1, k)))
    queries = np.array(draw(st.lists(st.lists(cell, min_size=dim, max_size=dim), min_size=1, max_size=3)))
    limit = draw(st.integers(1, n))
    top = draw(st.integers(1, limit))
    shards = draw(st.integers(1, 5))
    reader = draw(st.booleans())
    return base, Codebook.from_centroids(cents.astype(np.float32)), spec, queries, limit, top, shards, reader


@SETTINGS
@given(split_cases())
def test_split_query_equals_one_thread(case):
    """A lone query split over t usable CPUs equals one thread's ids and
    distances byte for byte, with the shard budget lifted, so it splits
    into min(t, limit) shards; search() and search_ids' rows, whose
    queries split or take stripes, equal it too."""
    base, cb, spec, queries, limit, top, shards, reader = case
    index = build_index(encode_many(base.astype(np.float32), cb, spec), np.arange(len(base)), spec, cb)
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(index_mod, "_SHARD_ELEMENTS", 1))
        stack.enter_context(mock.patch.object(index_mod, "_usable_cpus", lambda: shards))
        store = base
        if reader:
            path = os.path.join(stack.enter_context(tempfile.TemporaryDirectory()), "base.fvecs")
            write_vectors(path, base)
            store = stack.enter_context(VectorReader(path))
        rows = []
        for q in queries:
            with mock.patch.object(index_mod, "_usable_cpus", lambda: 1):
                one = index_mod._search_block(index, store, q[None, :], limit, top)
            many = index_mod._search_block(index, store, q[None, :], limit, top)
            assert [a.tobytes() for a in many] == [a.tobytes() for a in one]
            assert search(index, store, q, limit, top).ranked == tuple(zip(one[0][0].tolist(), one[1][0].tolist()))
            rows.append(one[0][0])
        np.testing.assert_array_equal(search_ids(index, store, queries, limit, top), rows)


@SETTINGS
@given(
    st.sampled_from([".ivecs", ".bvecs"]),
    st.integers(1, 20),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_take_matches_read_vectors(suffix, n, dim, seed, data):
    rng = np.random.default_rng(seed)
    if suffix == ".ivecs":
        rows, want_dtype = rng.integers(-(2**31), 2**31, size=(n, dim)), np.int32
    else:
        rows, want_dtype = rng.integers(0, 256, size=(n, dim)), np.float32
    ids = np.array(data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n)), dtype=np.int64)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rows" + suffix)
        write_vectors(path, rows)
        whole = read_vectors(path)
        with VectorReader(path) as reader:
            got = reader.take(ids)
        assert got.dtype == want_dtype and whole.dtype == want_dtype
        assert got.shape == (ids.shape[0], dim)
        np.testing.assert_array_equal(got, whole[ids])
        np.testing.assert_array_equal(whole, rows)


def exhaustive_topk(rows, q64, ids, top):
    """The finish kernel of the Euclidean re-rank over every row, then a full
    sort by (distance, id): positions and distances."""
    with np.errstate(over="ignore"):
        diff = np.asarray(rows, dtype=np.float64) - q64
        scores = np.sqrt(np.einsum("nd,nd->n", diff, diff))
    order = np.lexsort((ids, scores))[:top]
    return order, scores[order]


def walk_topk(rows, q64, ids, top):
    """One query's re-rank over the rows, as a search runs it: each row sits
    at its id in an array store and the shortlist is ids, in their order.
    The query is re-ranked alone and in a chunk with a copy of itself,
    which must agree byte for byte; the `top` nearest ids by
    (distance, id) and their distances."""
    store = np.zeros((int(ids.max()) + 1, rows.shape[1]), dtype=rows.dtype)
    store[ids] = rows
    got_ids, got_scores = _rerank(store, q64[None, :], ids[None, :], top)
    pair_ids, pair_scores = _rerank(store, np.stack([q64, q64]), np.stack([ids, ids]), top)
    for i, s in zip(pair_ids, pair_scores):
        np.testing.assert_array_equal(i, got_ids[0])
        assert s.tobytes() == got_scores[0].tobytes()
    return got_ids[0], got_scores[0]


def screen_with_dots(rows, q64, ids):
    """The screen, the query's terms and the float32 products the walk
    gives _screened_rows for one query."""
    screen = _euclidean_screen(rows, ids)
    Q32, terms = _screen_terms(screen, q64[None, :])
    return screen, terms, np.einsum("nd,d->n", screen.rows32, Q32[0])


def screen_values(screen, dots):
    """Each row's screen value lo = -2c + a (1 - G), as _screened_rows sums
    it, in a new array."""
    with np.errstate(invalid="ignore"):
        return np.multiply(dots, -2.0, dtype=np.float64) + screen.a_lo


def _nudge(rows, rng, count):
    """Copy `count` random rows onto others, each with one component moved by
    one unit in the last place of the rows' dtype: near-ties an ulp apart."""
    n, d = rows.shape
    for _ in range(count):
        src, dst, j = rng.integers(0, n), rng.integers(0, n), rng.integers(0, d)
        rows[dst] = rows[src]
        rows[dst, j] = np.nextafter(rows[src, j], np.inf if rng.random() < 0.5 else -np.inf)


@st.composite
def screen_cases(draw):
    """Rows around a query, built to stress the float32 screen: a spread
    that is tiny next to the norms (heavy cancellation in ||x||^2 + ||q||^2 -
    2 x.q), norms whose float32 squares underflow or overflow, duplicate
    rows and near-ties one ulp apart, float64 rows that are not exact in
    float32 or lie beyond its range, queries that are not exact in float32,
    rows served by .fvecs/.bvecs VectorReader stores, and top up to L."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.one_of(st.integers(1, 4), st.integers(5, 40), st.just(128)))
    n = draw(st.integers(1, 60))
    store = draw(st.sampled_from(["float32", "float64", "fvecs", "bvecs"]))
    if store == "bvecs":
        rows = rng.integers(100, 103, size=(n, d)).astype(np.float64)
        q = rows[rng.integers(0, n)] + rng.standard_normal(d) * draw(st.sampled_from([0.0, 1e-3, 1.0]))
    else:
        scale = draw(st.sampled_from([1.0, 1e-21, 1e6, 1e15, 1e20]))
        spread = draw(st.sampled_from([1.0, 2.0**-11, 2.0**-16, 2.0**-22, 0.0]))
        center = rng.standard_normal(d) * scale
        rows = center + rng.standard_normal((n, d)) * (scale * spread)
        q = center + rng.standard_normal(d) * (scale * spread * draw(st.sampled_from([0.0, 0.5, 1.0])))
        if store == "float64" and draw(st.booleans()):
            rows[rng.integers(0, n, size=max(1, n // 4))] = rng.standard_normal(d) * draw(st.sampled_from([1e39, 1e300]))
    if draw(st.booleans()):
        rows[rng.integers(0, n, size=n // 2)] = rows[rng.integers(0, n)]
    if store != "float64":
        with np.errstate(over="ignore"):
            rows = rows.astype(np.float32)
    _nudge(rows, rng, draw(st.integers(0, n)))
    if draw(st.booleans()):
        with np.errstate(over="ignore"):
            q = q.astype(np.float32).astype(np.float64)
    assume(np.isfinite(q).all() and np.isfinite(rows).all())
    ids = rng.permutation(10 * n)[:n].astype(np.int64)
    top = draw(st.one_of(st.just(n), st.integers(1, n)))
    if store in ("fvecs", "bvecs"):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "rows." + store)
            write_vectors(path, rows.astype(np.uint8) if store == "bvecs" else rows)
            with VectorReader(path) as reader:
                rows = np.array(reader.take(np.arange(n)))
    return rows, q, ids, top


def screen_lower_per_row(rows, q, ids):
    """Each row's L: the screen's scalar map applied element-wise to its
    per-row values lo."""
    screen, terms, dots = screen_with_dots(rows, q, ids)
    with np.errstate(over="ignore", invalid="ignore"):
        return _lower(screen_values(screen, dots), terms)


@SETTINGS
@given(screen_cases(), st.data())
def test_a_querys_screen_terms_are_its_own(case, data):
    """Each row of _screen_terms over a block of queries, the float32
    rounding, beta- and e, has the bytes of a call on that query alone,
    whichever queries share the block: queries exact in float32, queries
    it cannot hold, and queries whose float32 rounding overflows."""
    rows, q, ids, _ = case
    d = rows.shape[1]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    kinds = data.draw(st.lists(st.sampled_from(["exact", "inexact", "overflow"]), min_size=1, max_size=9))
    Q64 = q + rng.standard_normal((len(kinds), d)) * np.abs(q).max() * data.draw(st.sampled_from([0.0, 1e-6, 1.0]))
    with np.errstate(over="ignore"):
        for i, kind in enumerate(kinds):
            if kind == "exact":
                Q64[i] = Q64[i].astype(np.float32)
            elif kind == "overflow":
                Q64[i, rng.integers(0, d)] = rng.choice([-1.0, 1.0]) * data.draw(st.sampled_from([3.5e38, 1e39, 1e300]))
    screen = _euclidean_screen(rows, ids)
    Q32, (beta_lo, e, h) = _screen_terms(screen, Q64)
    for i in range(len(kinds)):
        one32, (one_beta, one_e, one_h) = _screen_terms(screen, Q64[i : i + 1])
        assert one32.tobytes() == Q32[i : i + 1].tobytes()
        assert one_beta.tobytes() == beta_lo[i : i + 1].tobytes()
        assert one_e.tobytes() == e[i : i + 1].tobytes()
        assert one_h == h
    assert np.isfinite(beta_lo).all()


@settings(max_examples=400, deadline=None)
@given(screen_cases())
def test_screened_topk_equals_the_kernel_over_every_row(case):
    rows, q, ids, top = case
    with np.errstate(over="ignore"):
        lower = screen_lower_per_row(rows, q, ids)
        got_ids, got_scores = walk_topk(rows, q, ids, top)
    want_pos, want_scores = exhaustive_topk(rows, q, ids, top)
    every = exhaustive_topk(rows, q, ids, rows.shape[0])
    exact = np.empty(rows.shape[0])
    exact[every[0]] = every[1]
    # a nan bound (a row whose float32 norm overflows) bounds nothing
    assert not (lower > exact).any()
    np.testing.assert_array_equal(got_ids, ids[want_pos])
    assert got_scores.tobytes() == want_scores.tobytes()
    # with more than one query, the walk screens with one float32 matrix
    # product for all of them
    with np.errstate(over="ignore"):
        gt = brute_force_gt(rows, np.stack([q, q]), top)
    want_gt = exhaustive_topk(rows, q, np.arange(rows.shape[0]), top)[0]
    np.testing.assert_array_equal(gt, [want_gt, want_gt])


@SETTINGS
@given(screen_cases(), st.data())
def test_screened_topk_names_the_first_nonfinite_row(case, data):
    rows, q, ids, top = case
    rows = rows.astype(np.float64 if rows.dtype == np.float64 else np.float32)
    n, d = rows.shape
    bad = sorted(set(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))))
    for r in bad:
        rows[r, data.draw(st.integers(0, d - 1))] = data.draw(st.sampled_from([np.inf, -np.inf, np.nan]))
    with pytest.raises(ValueError, match=f"non-finite base vector id {ids[bad[0]]}$"), np.errstate(all="ignore"):
        walk_topk(rows, q, ids, top)


@SETTINGS
@given(
    st.integers(0, 2**32 - 1),
    st.one_of(st.integers(1, 40), st.integers(100, 300)),
    st.integers(1, 40),
    st.sampled_from([np.float32, np.float64]),
    st.data(),
)
def test_direct_distances_do_not_depend_on_the_other_rows(seed, d, n, dtype, data):
    rng = np.random.default_rng(seed)
    rows = (rng.standard_normal((n, d)) * 10.0 ** rng.integers(-3, 4)).astype(dtype)
    q = rng.standard_normal(d)
    full = _direct_distances(rows, q)
    sel = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n)), dtype=np.int64)
    assert _direct_distances(rows[sel], q).tobytes() == full[sel].tobytes()
    assert _direct_distances(rows[::-1], q).tobytes() == full[::-1].tobytes()


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(4, 40), st.data())
def test_one_query_id_pair_gets_one_distance(seed, dim, n, data):
    """search at two shortlist lengths, and brute_force_gt, agree on every
    (query, id) pair, on a base full of near-ties an ulp apart."""
    rng = np.random.default_rng(seed)
    base = (rng.standard_normal((n, dim)) * 100.0).astype(np.float32)
    _nudge(base, rng, n)
    cb = Codebook.from_centroids(rng.standard_normal((4, dim)).astype(np.float32) * 100.0)
    spec = EncoderSpec(Variant.T)
    index = build_index(encode_many(base, cb, spec), np.arange(n), spec, cb)
    q = base[rng.integers(0, n)].astype(np.float64) + rng.standard_normal(dim) * data.draw(st.sampled_from([0.0, 1e-6, 1.0]))
    short = data.draw(st.integers(1, n))
    top = data.draw(st.integers(1, short))
    full = search(index, base, q, n, n)
    part = search(index, base, q, short, top)
    scores = dict(full.ranked)
    for i, s in part.ranked:
        assert np.float64(s).tobytes() == np.float64(scores[i]).tobytes()
    np.testing.assert_array_equal(brute_force_gt(base, q[None, :], n)[0], full.ids())
    np.testing.assert_array_equal([s for _, s in full.ranked], _direct_distances(base[full.ids()], q))


def parent_kmeanspp_seed(data, k, seed=0):
    """kmeanspp_seed as it was, with one checked distance call per pick."""
    X = as_matrix(data)
    if k < 2:
        raise ValueError("k must be at least 2")
    if X.shape[0] < k:
        raise ValueError(f"need at least k={k} points, got {X.shape[0]}")
    X64 = np.asarray(X, dtype=np.float64)
    rng = np.random.default_rng(int(seed))
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = rng.integers(X.shape[0])
    d2 = parent_sq_distances(X64, X64[chosen[0]][None, :])[:, 0]
    for i in range(1, k):
        total = d2.sum()
        if total > 0.0:
            idx = int(rng.choice(X.shape[0], p=d2 / total))
        else:
            remaining = np.setdiff1d(np.arange(X.shape[0]), chosen[:i])
            idx = int(rng.choice(remaining))
        chosen[i] = idx
        d2 = np.minimum(d2, parent_sq_distances(X64, X64[idx][None, :])[:, 0])
    return X[chosen].copy()


def parent_assign_nearest(data, centroids, chunk_rows=None):
    """The nearest-centroid assignment as it was: one checked distance call
    per block."""
    X = as_matrix(data)
    C = as_matrix(centroids, "centroids")
    n = X.shape[0]
    labels = np.empty(n, dtype=np.int64)
    d2min = np.empty(n, dtype=np.float64)
    if chunk_rows is None:
        chunk_rows = max(1, (1 << 23) // C.shape[0])
    for s in range(0, n, chunk_rows):
        d2 = parent_sq_distances(X[s : s + chunk_rows], C)
        lab = np.argmin(d2, axis=1)
        labels[s : s + chunk_rows] = lab
        d2min[s : s + chunk_rows] = np.take_along_axis(d2, lab[:, None], axis=1)[:, 0]
    return labels, d2min


def parent_train(data, k, params, seeds=None):
    """train as it was: re-checked data and re-squared norms on every sweep,
    and the centroid sums from one axis-0 np.add.reduceat over the
    label-sorted rows. seeds, if given, replaces the seeding. Returns
    (centroids, meta, clusters reseeded)."""
    X = as_matrix(data)
    if seeds is None:
        seeds = parent_kmeanspp_seed(X, k, params.seed)
    C = np.asarray(seeds, dtype=np.float64).copy()
    X64 = np.asarray(X, dtype=np.float64)
    history, prev, iterations, reseeded = [], None, 0, 0
    for _ in range(params.max_iters):
        labels, d2min = parent_assign_nearest(X64, C)
        obj = float(d2min.sum())
        history.append(obj)
        if obj == 0.0 or (prev is not None and prev - obj <= params.rel_tol * prev):
            break
        prev = obj
        counts = np.bincount(labels, minlength=k)
        order = np.argsort(labels, kind="stable")
        bounds = np.concatenate(([0], np.cumsum(counts)))[:-1]
        nz = np.flatnonzero(counts)
        C = C.copy()
        C[nz] = np.add.reduceat(X64[order], bounds[nz], axis=0) / counts[nz][:, None]
        empties = np.flatnonzero(counts == 0)
        if empties.size:
            C[empties] = X64[np.argsort(-d2min, kind="stable")[: empties.size]]
            reseeded += empties.size
        iterations += 1
    else:
        history.append(float(parent_assign_nearest(X64, C)[1].sum()))
    meta = TrainMeta(iterations=iterations, objective=history[-1], seed=params.seed, history=tuple(history))
    return C.astype(np.float32), meta, reseeded


def assert_same_training(got, want):
    """Centroid bytes and the whole TrainMeta, history compared bit for bit."""
    centroids, meta, _ = want
    assert got.centroids.tobytes() == centroids.tobytes()
    assert got.train_meta == meta
    assert np.array(got.train_meta.history).tobytes() == np.array(meta.history).tobytes()


@SETTINGS
@given(
    st.integers(0, 2**32 - 1),
    st.integers(0, 2**32 - 1),
    st.integers(1, 12),
    st.integers(2, 8),
    st.integers(1, 40),
    st.sampled_from([np.float32, np.float64]),
)
def test_kmeanspp_seed_and_train_match_one_call_per_pick(seed, data_seed, dim, k, extra, dtype):
    """Same seeds, centroid bytes and objective history as the seeding that
    re-checked the data and recomputed its norms on every pick, also with
    fewer distinct points than k (the zero-mass branch)."""
    rng = np.random.default_rng(data_seed)
    n = k + extra
    distinct = rng.standard_normal((int(rng.integers(1, n + 1)), dim)) * 10.0 ** rng.integers(-2, 3)
    X = distinct[rng.integers(0, distinct.shape[0], size=n)].astype(dtype)
    np.testing.assert_array_equal(km.kmeanspp_seed(X, k, seed), parent_kmeanspp_seed(X, k, seed))
    params = TrainParams(max_iters=6, seed=seed)
    assert_same_training(km.train(X, k, params), parent_train(X, k, params))


@st.composite
def training_sets(draw):
    """Learning sets where the summation order shows: float64 values not
    exact in float32 (or float32, or small integers), clusters of up to a
    few hundred points, columns that are -0.0 throughout, and repeated
    points, also fewer distinct ones than k."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 9))
    k = draw(st.integers(2, 6))
    n = k + draw(st.integers(0, 400))
    dtype = draw(st.sampled_from([np.float64, np.float64, np.float32, np.int16]))
    if draw(st.booleans()):
        rows = rng.standard_normal((n, d)) * 10.0 ** draw(st.integers(-3, 5))
    else:
        distinct = rng.standard_normal((draw(st.integers(1, 2 * k)), d)) * 100.0
        rows = distinct[rng.integers(0, distinct.shape[0], size=n)]
        rows[rng.integers(0, n, size=n // 3)] += rng.standard_normal((n // 3, d)) * 1e-9
    X = rows.astype(dtype)
    if dtype != np.int16:
        X[:, rng.random(d) < 0.3] = -0.0
    params = TrainParams(
        max_iters=draw(st.integers(1, 8)),
        rel_tol=draw(st.sampled_from([0.0, 1e-4])),
        seed=draw(st.integers(0, 2**64 - 1)),
    )
    return X, k, params


@settings(max_examples=80, deadline=None)
@given(training_sets())
def test_train_matches_the_trainer_it_replaced(case):
    X, k, params = case
    assert_same_training(km.train(X, k, params), parent_train(X, k, params))


@pytest.mark.parametrize("seed", range(4))
def test_train_reseeds_empty_clusters_like_the_trainer_it_replaced(seed):
    """A forced seeding with a repeated centroid and one far from every
    point: neither owns a point after the first assignment, and the sweep
    reseeds both to the points farthest from their centroids."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((60, 4)) * 10.0
    forced = np.vstack([X[:3], X[:1], np.full((1, 4), 1e3)])
    params = TrainParams(max_iters=5, rel_tol=0.0, seed=seed)
    want = parent_train(X, 5, params, forced)
    assert want[2] >= 2
    with mock.patch.object(km, "_kmeanspp_seed", lambda X, X64, x_sq, k, seed: forced.copy()):
        got = km.train(X, 5, params)
    assert_same_training(got, want)


@SETTINGS
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 120),
    st.integers(2, 12),
    st.integers(2, 9),
    st.sampled_from([np.float32, np.float64, np.int16]),
    st.sampled_from([None, 1, 2, 3, 7, 33, 1000]),
)
def test_assign_nearest_matches_one_checked_call_per_block(seed, n, d, k, dtype, chunk_rows):
    """Labels and distances bit for bit, whatever the block size, with each
    block widened from X's own dtype; the matrix product's bits depend on
    how many rows share it, so a change in the blocking shows."""
    rng = np.random.default_rng(seed)
    X = (rng.standard_normal((n, d)) * 10.0 ** rng.integers(-2, 4)).astype(dtype)
    C = X[rng.integers(0, n, size=k)].astype(np.float64) + rng.standard_normal((k, d)) * rng.choice([0.0, 1.0])
    X64 = X.astype(np.float64)
    with mock.patch.object(km, "_BLOCK_ELEMENTS", chunk_rows * (d + k)) if chunk_rows else contextlib.nullcontext():
        work = km._assign_work(X, k)
        got = km._assign(X, np.einsum("nd,nd->n", X64, X64), C, np.einsum("md,md->m", C, C), work)
    want = parent_assign_nearest(X, C, chunk_rows=chunk_rows)
    assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()


@SETTINGS
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 90),
    st.integers(1, 12),
    st.sampled_from([Variant.T, Variant.N, Variant.T2, Variant.N2]),
    st.sampled_from([1, 7, 65536]),
)
def test_encode_many_matches_one_checked_call_per_chunk(seed, n, d, variant, chunk_rows):
    """Codes bit for bit against the bit rules applied to the checked
    distance call that encode_many made per chunk and per codebook."""
    rng = np.random.default_rng(seed)
    X = (rng.standard_normal((n, d)) * 10.0).astype(np.float32)
    books = [
        Codebook.from_centroids(X[rng.integers(0, n, size=4)] + rng.standard_normal((4, d)).astype(np.float32))
        for _ in range(2)
    ]
    quantizer = books[0] if variant in (Variant.T, Variant.N) else DualCodebook(*books)
    spec = EncoderSpec(variant, n_nearest=2)
    want = []
    for s in range(0, n, chunk_rows):
        parts = []
        for cb in books[: 1 if quantizer is books[0] else 2]:
            dist = np.sqrt(parent_sq_distances(X[s : s + chunk_rows], cb.centroids))
            if variant in (Variant.T, Variant.T2):
                parts.append(_bits_threshold(dist, spec.mean_kind))
            else:
                parts.append(_bits_nearest(dist, 2))
        want.append(pack_bits(np.concatenate(parts, axis=1)))
    bits = 4 if quantizer is books[0] else 8
    with mock.patch.object(encoder_mod, "_BLOCK_ELEMENTS", chunk_rows * (d + bits)):
        got = encode_many(X, quantizer, spec)
    assert got.tobytes() == np.vstack(want).tobytes()


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 40), st.data())
def test_screened_topk_keeps_rows_tied_at_the_cutoff(seed, d, n, data):
    """With exact screen values and an identity cut map, lo is the kernel's
    distance and the cut X = T, the largest seed distance (the re-rank and
    ground truth) or the running k-th distance of the blocks before (ground
    truth): a row whose lo equals the cut can still be in the top (it is
    the top-th row itself, or tied with it and has a lower id), so the keep
    rule must keep it."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(-2, 3, size=(int(rng.integers(1, n + 1)), d)).astype(np.float32)
    rows = rows[rng.integers(0, rows.shape[0], size=n)]
    q = rng.integers(-2, 3, size=d).astype(np.float64)
    ids = rng.permutation(10 * n)[:n].astype(np.int64)
    top = data.draw(st.integers(1, n))
    block_rows = data.draw(st.integers(1, n))

    def exact_screen(rows, ids):
        # zero float32 rows give zero dots, so each lo is its a_lo: the
        # kernel's distance to the walk's one query
        screen = _euclidean_screen(rows, ids)
        return screen._replace(rows32=np.zeros_like(screen.rows32), a_lo=_direct_distances(rows, q))

    def identity(y, terms):
        return y

    with (
        mock.patch.object(index_mod, "_euclidean_screen", exact_screen),
        mock.patch.object(index_mod, "_lower_cut", identity),
        mock.patch.object(index_mod, "_BLOCK_ELEMENTS", block_rows * d),
    ):
        got_ids, got_scores = walk_topk(rows, q, ids, top)
        gt = brute_force_gt(rows, q[None, :], top)
    want_pos, want_scores = exhaustive_topk(rows, q, ids, top)
    np.testing.assert_array_equal(got_ids, ids[want_pos])
    assert got_scores.tobytes() == want_scores.tobytes()
    np.testing.assert_array_equal(gt[0], exhaustive_topk(rows, q, np.arange(n), top)[0])


@pytest.mark.parametrize("seed", range(5))
def test_screen_widens_by_the_query_cast_error(seed):
    """A float64 query that float32 cannot hold lowers L by at least its
    cast error ||q64 - q32||, below the bound of the float32 query itself;
    the screen is the same float32 product for both."""
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((50, 4)).astype(np.float32)
    q64 = rng.standard_normal(4)
    q32 = q64.astype(np.float32).astype(np.float64)
    cast = float(np.linalg.norm(q64 - q32))
    assert cast > 0.0
    ids = np.arange(50)
    lower = screen_lower_per_row(rows, q64, ids)
    lower32 = screen_lower_per_row(rows, q32, ids)
    assert (lower32 - lower >= (1.0 - 1e-6) * cast).all()


@pytest.mark.parametrize("seed", range(5))
def test_screen_widens_by_the_largest_row_cast_error(seed):
    """float64 rows that float32 cannot hold lower L of every row by at
    least the largest row cast error, below the bounds of their float32
    roundings; the screen values lo are the same for both."""
    rng = np.random.default_rng(seed)
    rows64 = rng.standard_normal((50, 4))
    rows32 = rows64.astype(np.float32)
    cast = float(np.linalg.norm(rows64 - rows32, axis=1).max())
    assert cast > 0.0
    q = rng.standard_normal(4).astype(np.float32).astype(np.float64)
    lower = screen_lower_per_row(rows64, q, np.arange(50))
    lower32 = screen_lower_per_row(rows32, q, np.arange(50))
    assert (lower32 - lower >= (1.0 - 1e-6) * cast).all()


def test_screen_keeps_a_row_whose_float32_dot_overflows():
    """Row 0's float32 product with this query overflows to -inf, so its
    screen values are +inf, yet in float64 it ties with row 1 and ranks
    first by id: a query large enough to overflow a dot bounds no row."""
    rows = np.array([[-4.0, 4.0], [0.0, 0.0]], dtype=np.float32)
    q = np.array([1e38, -1e38])
    with np.errstate(over="ignore"):
        assert np.isneginf(np.einsum("nd,d->n", rows, q.astype(np.float32))[0])
        want_pos, want_scores = exhaustive_topk(rows, q, np.arange(2), 1)
        got_ids, got_scores = walk_topk(rows, q, np.arange(2), 1)
        gt = brute_force_gt(rows, q[None, :], 1)
    assert want_pos.tolist() == [0] and gt.tolist() == [[0]]
    np.testing.assert_array_equal(got_ids, want_pos)
    assert got_scores.tobytes() == want_scores.tobytes()


def test_float64_row_past_the_float32_range_warns_nowhere():
    """A float64 row with a finite component past the float32 range
    overflows its float32 cast, which the screen expects: neither
    brute_force_gt nor search over an in-memory base warns, and both rank
    as the float64 kernel over every row does."""
    rng = np.random.default_rng(11)
    base = rng.standard_normal((50, 4))
    base[7, 2] = 1e300
    queries = rng.standard_normal((3, 4))
    cb = Codebook.from_centroids(rng.standard_normal((4, 4)).astype(np.float32))
    index = build_index(np.zeros((50, 1), dtype=np.uint64), np.arange(50), EncoderSpec(Variant.T), cb)
    positions = np.arange(50)
    want = np.array([exhaustive_topk(base, q, positions, 50)[0] for q in queries])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gt = brute_force_gt(base, queries, 50)
        got = np.array([search(index, base, q, 50, 50).ids() for q in queries])
    assert (want[:, -1] == 7).all()
    np.testing.assert_array_equal(gt, want)
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("big", [1e39, 1e300])
def test_query_whose_float32_norm_overflows_warns_nowhere(big):
    """A finite float64 query with a component past the float32 range has
    b = ||q32||^2 = inf. Its terms set e = inf and beta- = 0, so the cut is
    +inf rather than inf - inf = nan: search_ids on one CPU, which screens
    both queries in one chunk, warns nowhere and returns search()'s rows,
    and brute_force_gt ranks as the float64 kernel over every row does."""
    rng = np.random.default_rng(13)
    base = rng.standard_normal((50, 4))
    queries = rng.standard_normal((2, 4))
    queries[1, 2] = big
    cb = Codebook.from_centroids(rng.standard_normal((4, 4)).astype(np.float32))
    index = build_index(np.zeros((50, 1), dtype=np.uint64), np.arange(50), EncoderSpec(Variant.T), cb)
    want = np.array([exhaustive_topk(base, q, np.arange(50), 10)[0] for q in queries])
    with warnings.catch_warnings(), mock.patch.object(index_mod, "_usable_cpus", lambda: 1):
        warnings.simplefilter("error")
        got = search_ids(index, base, queries, 50, 10)
        one = [search(index, base, q, 50, 10).ids() for q in queries]
        gt = brute_force_gt(base, queries, 10)
    np.testing.assert_array_equal(got, one)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(gt, want)


def recorded(fn):
    """fn wrapped to record each call's arguments and result, and the list
    it records into."""
    calls = []

    def record(*args):
        out = fn(*args)
        calls.append((args, out))
        return out

    return record, calls


def screened_with_spies(screen, q64, terms, top, dots, T0):
    """_screened_rows' kept positions and distances (empty for its None),
    each batch of rows the finish kernel scored (their distances), and the
    cut T of its last _lower_cut call, which is the one that chose the rows
    kept."""
    kernel, scored = recorded(_direct_distances)
    cut, cuts = recorded(_lower_cut)
    with mock.patch.object(index_mod, "_direct_distances", kernel), mock.patch.object(index_mod, "_lower_cut", cut):
        kept = _screened_rows(screen, q64, terms, top, dots, T0)
    kept, distances = (np.empty(0, dtype=np.int64), np.empty(0)) if kept is None else kept
    return kept, distances, [out for _, out in scored], cuts[-1][0][0]


@settings(max_examples=200, deadline=None)
@given(screen_cases(), st.data())
def test_screen_keeps_every_row_it_cannot_rule_out(case, data):
    """With no running cut, the finish kernel first scores `top` rows, the
    seeds, and the cut T is the largest of their distances, so T is at
    least the exhaustive top-th distance; the rows kept hold the exhaustive
    top and every row with L <= T, each scored once. Planted on top of
    screen_cases: copies of the top-th row (ties at the cut) and finite
    rows whose float32 norm overflows."""
    rows, q, ids, top = case
    n, d = rows.shape
    rows = rows.copy()
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    cut_row = exhaustive_topk(rows, q, ids, top)[0][-1]
    rows[rng.integers(0, n, size=data.draw(st.integers(0, 3)))] = rows[cut_row]
    if data.draw(st.booleans()):
        big = data.draw(st.sampled_from([3e38, 1e39, 1e300] if rows.dtype == np.float64 else [3e38]))
        rows[rng.integers(0, n)] = rng.choice([-big, big], size=d)
    with np.errstate(over="ignore", invalid="ignore"):
        lower = screen_lower_per_row(rows, q, ids)
        screen, terms, dots = screen_with_dots(rows, q, ids)
        kept, distances, scored, T = screened_with_spies(screen, q, terms, top, dots, np.inf)
        got_ids, got_scores = walk_topk(rows, q, ids, top)
    want_pos, want_scores = exhaustive_topk(rows, q, ids, top)
    assert scored[0].size == top and T == scored[0].max()
    assert T >= want_scores[-1]
    assert np.unique(kept).size == kept.size
    assert set(want_pos.tolist()) <= set(kept.tolist())
    assert set(np.flatnonzero(~(lower > T)).tolist()) <= set(kept.tolist())
    assert distances.tobytes() == _direct_distances(rows[kept], q).tobytes()
    np.testing.assert_array_equal(got_ids, ids[want_pos])
    assert got_scores.tobytes() == want_scores.tobytes()


@settings(max_examples=200, deadline=None)
@given(screen_cases(), st.data())
def test_screen_under_a_running_cut_keeps_every_row_it_cannot_rule_out(case, data):
    """Given a finite cut T0, as the block walk of brute_force_gt passes
    one, _screened_rows keeps exactly the rows with lo <= _lower_cut(T0)
    when at most `top` pass; when more pass, it scores `top` of them, the
    seeds, first, tightens the cut to T = min(T0, the largest seed
    distance), which is at least min(T0, the top-th distance among the
    passing rows), and keeps every passing row with L <= T. No row is
    scored twice."""
    rows, q, ids, top = case
    every = exhaustive_topk(rows, q, ids, rows.shape[0])[1]
    T0 = float(every[data.draw(st.integers(0, rows.shape[0] - 1))])
    assume(T0 < np.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        lower = screen_lower_per_row(rows, q, ids)
        screen, terms, dots = screen_with_dots(rows, q, ids)
        passed = ~(screen_values(screen, dots) > _lower_cut(T0, terms))
        kept, distances, scored, T = screened_with_spies(screen, q, terms, top, dots, T0)
    assert np.unique(kept).size == kept.size
    assert distances.tobytes() == _direct_distances(rows[kept], q).tobytes()
    if passed.sum() <= top:
        np.testing.assert_array_equal(kept, np.flatnonzero(passed))
    else:
        assert scored[0].size == top and T == min(T0, scored[0].max())
        assert T >= min(T0, np.sort(_direct_distances(rows[passed], q))[top - 1])
        assert set(np.flatnonzero(passed & ~(lower > T)).tolist()) <= set(kept.tolist())


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(2, 40), st.integers(1, 5), st.data())
def test_no_query_row_pair_is_scored_twice(seed, d, n, block_rows, data):
    """The finish kernel scores each (query, row) pair at most once, in
    brute_force_gt over blocks of block_rows rows and in the search
    re-rank over chunks of block_rows queries, while the ids stay those of
    the kernel over every row."""
    rng = np.random.default_rng(seed)
    base = (rng.standard_normal((n, d)) * 100.0).astype(np.float32)
    _nudge(base, rng, n)
    base = np.unique(base, axis=0)  # a row's bytes name it
    queries = base[rng.integers(0, base.shape[0], size=3)] + rng.standard_normal((3, d)) * data.draw(st.sampled_from([0.0, 1e-3, 10.0]))
    queries = np.unique(queries, axis=0)
    k = data.draw(st.integers(1, base.shape[0]))
    kernel, scored = recorded(_direct_distances)
    cb = Codebook.from_centroids(rng.standard_normal((4, d)).astype(np.float32) * 100.0)
    spec = EncoderSpec(Variant.T)
    index = build_index(encode_many(base, cb, spec), np.arange(base.shape[0]), spec, cb)

    def scored_pairs():
        """(query, row) bytes of each row the kernel scored, whether it was
        given one query or one per row; then the record is cleared."""
        pairs = []
        for (rows, q), _ in scored:
            rows = np.asarray(rows)
            qs = np.broadcast_to(q, rows.shape).reshape(-1, d)
            pairs += [(a.tobytes(), b.tobytes()) for a, b in zip(qs, rows.reshape(-1, d))]
        scored.clear()
        return pairs

    with (
        mock.patch.object(index_mod, "_direct_distances", kernel),
        mock.patch.object(index_mod, "_BLOCK_ELEMENTS", block_rows * d),
        mock.patch.object(index_mod, "_CHUNK_ELEMENTS", block_rows * base.shape[0] * d),
        mock.patch.object(index_mod, "_usable_cpus", lambda: 1),
    ):
        gt = brute_force_gt(base, queries, k)
        gt_pairs = scored_pairs()
        got = search_ids(index, base, queries, base.shape[0], k)
        search_pairs = scored_pairs()
    for pairs in (gt_pairs, search_pairs):
        assert len(pairs) == len(set(pairs))
    want = [exhaustive_topk(base, q, np.arange(base.shape[0]), k)[0] for q in queries]
    np.testing.assert_array_equal(gt, want)
    np.testing.assert_array_equal(got, want)


@SETTINGS
@given(
    st.floats(2.0**-500, 1e40),
    st.one_of(st.just(0.0), st.floats(-1e-40, 1e-40), st.floats(0.0, 1e80)),
    st.one_of(st.just(0.0), st.floats(0.0, 1e40)),
    st.integers(1, 5000),
)
def test_lower_cut_rounds_outward(T, beta_lo, e, d):
    """Every lo with _lower(lo) <= T is at most the cut X: as _lower is
    non-decreasing, it is enough that the float just above X maps above T."""
    terms = (beta_lo, e, index_mod._screen_margins(d)[1])
    cut = _lower_cut(np.float64(T), terms)
    if cut < np.inf:
        assert _lower(np.nextafter(cut, np.inf), terms) > T


@st.composite
def ground_truth_cases(draw):
    """A float32 or float64 base with duplicate rows and near-ties an ulp
    apart, and queries near its rows, far from them, or beyond them."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, d = draw(st.integers(1, 80)), draw(st.one_of(st.integers(1, 8), st.just(128)))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    base = (rng.standard_normal((n, d)) * 100.0).astype(dtype)
    _nudge(base, rng, draw(st.integers(0, n)))
    nq = draw(st.integers(1, 12))
    noise = rng.choice([0.0, 1e-6, 1.0, 1e4], size=(nq, 1))
    queries = base[rng.integers(0, n, size=nq)] + rng.standard_normal((nq, d)) * noise
    return base, queries, draw(st.integers(1, n))


@SETTINGS
@given(ground_truth_cases())
def test_brute_force_gt_ids_do_not_depend_on_the_query_block(case):
    """Blocks of 1, 2, 3 and all queries share the float32 product
    differently, yet give the ids of the kernel over every row. The budget
    sets both block sizes: c < d elements give 1-row base blocks and chunks
    of c queries; c * N elements give one base block and chunks of c."""
    base, queries, k = case
    n, d = base.shape
    positions = np.arange(n)
    want = np.array([exhaustive_topk(base, q, positions, k)[0] for q in queries])
    for block in (1, 2, 3, queries.shape[0]):
        with mock.patch.object(index_mod, "_BLOCK_ELEMENTS", block if block < d else block * n):
            np.testing.assert_array_equal(brute_force_gt(base, queries, k), want)


def _base_block_sizes(k: int) -> list[int]:
    """Base blocks of 1, 2, 3, k - 1, k and k + 1 rows: the running top-k
    fills inside a block, at its edge, or across several."""
    return sorted({1, 2, 3, max(1, k - 1), k, k + 1})


def _fvecs_file(tmp: str, rows: np.ndarray) -> str:
    """rows written as .fvecs records as they are, inf and nan included,
    which write_vectors refuses."""
    n, d = rows.shape
    recs = np.empty(n, dtype=[("dim", "<i4"), ("data", "<f4", (d,))])
    recs["dim"], recs["data"] = d, rows
    path = os.path.join(tmp, "base.fvecs")
    recs.tofile(path)
    return path


@st.composite
def base_block_cases(draw):
    """A float32 or float64 base for the block walk: copies of one row
    spread over the base (exact ties that straddle block edges, more than k
    of them at times, so a tie at the running k-th distance goes to the
    lower id), near-ties an ulp apart, in float64 one row whose cast error
    is the largest (so it sits in one block), and at times a finite row
    whose float32 norm overflows; queries on, near or far from the copied
    row, and k up to N."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, d = draw(st.integers(2, 60)), draw(st.one_of(st.integers(1, 6), st.just(128)))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    base = (rng.standard_normal((n, d)) * 100.0).astype(np.float32).astype(dtype)
    src = rng.integers(0, n)
    base[rng.integers(0, n, size=draw(st.integers(0, n)))] = base[src]
    _nudge(base, rng, draw(st.integers(0, n // 4)))
    if dtype is np.float64:
        base[rng.integers(0, n)] += rng.standard_normal(d) * draw(st.sampled_from([1e-3, 1e6]))
    if draw(st.booleans()):
        big = draw(st.sampled_from([3e19] if dtype is np.float32 else [3e19, 1e39, 1e300]))
        base[rng.integers(0, n)] = rng.choice([-big, big], size=d)
    nq = draw(st.integers(1, 6))
    noise = rng.choice([0.0, 1e-6, 1.0, 1e3], size=(nq, 1))
    queries = base[np.where(rng.random(nq) < 0.5, src, rng.integers(0, n, size=nq))] + rng.standard_normal((nq, d)) * noise
    assume(np.isfinite(queries).all())
    return base, queries, draw(st.one_of(st.just(n), st.integers(1, n)))


@settings(max_examples=150, deadline=None)
@given(base_block_cases())
def test_brute_force_gt_base_blocks_give_the_ids_of_every_row(case):
    """Any base block size gives the ids of the kernel over every row, from
    an array and, for a float32 base, from a VectorReader over its file."""
    base, queries, k = case
    n, d = base.shape
    positions = np.arange(n)
    want = np.array([exhaustive_topk(base, q, positions, k)[0] for q in queries])
    with tempfile.TemporaryDirectory() as tmp, contextlib.ExitStack() as stack:
        inputs = [base]
        if base.dtype == np.float32:
            inputs.append(stack.enter_context(VectorReader(_fvecs_file(tmp, base))))
        for rows in _base_block_sizes(k):
            with mock.patch.object(index_mod, "_BLOCK_ELEMENTS", rows * d), np.errstate(over="ignore"):
                for given_base in inputs:
                    np.testing.assert_array_equal(brute_force_gt(given_base, queries, k), want)


@settings(max_examples=60, deadline=None)
@given(base_block_cases(), st.data())
def test_brute_force_gt_names_the_first_nonfinite_row_in_any_block(case, data):
    """Non-finite rows past the first block still raise the message that
    names the lowest bad id, from an array and, for a float32 base, from a
    VectorReader over its file."""
    base, queries, k = case
    n, d = base.shape
    bad = sorted(set(data.draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=3))))
    for r in bad:
        base[r, data.draw(st.integers(0, d - 1))] = data.draw(st.sampled_from([np.inf, -np.inf, np.nan]))
    with tempfile.TemporaryDirectory() as tmp, contextlib.ExitStack() as stack:
        inputs = [base]
        if base.dtype == np.float32:
            inputs.append(stack.enter_context(VectorReader(_fvecs_file(tmp, base))))
        for rows in _base_block_sizes(k):
            with mock.patch.object(index_mod, "_BLOCK_ELEMENTS", rows * d), np.errstate(over="ignore"):
                for given_base in inputs:
                    with pytest.raises(ValueError, match=f"non-finite base vector id {bad[0]}$"):
                        brute_force_gt(given_base, queries, k)


@st.composite
def chunk_cases(draw):
    """A base of a few distinct rows of small ints, copied, so codes tie at
    the Hamming cut and distances at the exact one, with near-ties an ulp
    apart (but in .bvecs, which holds bytes); a store kind: a float32
    or float64 array, or an .fvecs or .bvecs VectorReader over its file.
    The float64 base carries noise float32 cannot hold on some rows (a
    non-zero cast error), and a float32 or float64 base at times a finite
    row whose float32 norm overflows. Variant t or n; 5 or 7 queries, so
    no chunk of 2 or 3 queries divides them."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(2, 6))
    n_unique = draw(st.integers(2, 8))
    n = draw(st.integers(max(n_unique, 8), 40))
    unique = rng.integers(0, 4, size=(n_unique, d)).astype(np.float64)
    base = unique[rng.integers(0, n_unique, size=n)]
    store = draw(st.sampled_from(["float32", "float64", "fvecs", "bvecs"]))
    if store == "float64":
        base += rng.standard_normal((n, d)) * 1e-3 * rng.integers(0, 2, size=(n, 1))
    if store != "bvecs" and draw(st.booleans()):
        big = draw(st.sampled_from([3e19, 1e39] if store == "float64" else [3e19]))
        base[rng.integers(0, n)] = rng.choice([-big, big], size=d)
    if store != "float64":
        base = base.astype(np.float32)
    if store != "bvecs":
        _nudge(base, rng, draw(st.integers(0, n // 4)))
    k = draw(st.integers(2, 6))
    cb = Codebook.from_centroids(rng.integers(0, 4, size=(k, d)).astype(np.float32))
    spec = EncoderSpec(Variant.T) if draw(st.booleans()) else EncoderSpec(Variant.N, n_nearest=draw(st.integers(1, k)))
    nq = draw(st.sampled_from([5, 7]))
    queries = unique[rng.integers(0, n_unique, size=nq)] + rng.standard_normal((nq, d)) * rng.choice([0.0, 0.5], size=(nq, 1))
    limit = draw(st.integers(1, n))
    return base, store, cb, spec, queries, limit, draw(st.integers(1, limit))


@settings(max_examples=40, deadline=None)
@given(chunk_cases())
def test_chunked_rerank_equals_search(case):
    """Chunks of 1, 2 and 3 queries and of the whole block, over the
    workers of 1, 2 and 4 usable CPUs, give each query search()'s ids and
    float64 scores bit for bit."""
    base, store, cb, spec, queries, limit, top = case
    n, d = base.shape
    index = build_index(encode_many(base, cb, spec), np.arange(n), spec, cb)
    with tempfile.TemporaryDirectory() as tmp, contextlib.ExitStack() as stack:
        if store in ("fvecs", "bvecs"):
            path = os.path.join(tmp, "base." + store)
            write_vectors(path, base.astype(np.uint8) if store == "bvecs" else base)
            base = stack.enter_context(VectorReader(path))
        want = [search(index, base, q, limit, top).ranked for q in queries]
        want_ids = np.array([[i for i, _ in r] for r in want])
        want_scores = np.array([[s for _, s in r] for r in want])
        for per_chunk in (1, 2, 3, len(queries)):
            with mock.patch.object(index_mod, "_CHUNK_ELEMENTS", per_chunk * limit * d):
                for cpus in (1, 2, 4):
                    with mock.patch.object(index_mod, "_usable_cpus", lambda: cpus):
                        ids, scores = index_mod._search_block(index, base, queries, limit, top)
                    np.testing.assert_array_equal(ids, want_ids)
                    assert scores.tobytes() == want_scores.tobytes()


def test_brute_force_gt_over_a_reader_holds_blocks_not_the_base():
    """With blocks of N/8 rows, ground truth over a VectorReader allocates
    less than half the base's bytes at its peak: numpy reports its data
    allocations to tracemalloc, and the reader's memory map is not one."""
    rng = np.random.default_rng(5)
    n, d = 4096, 64
    base = rng.standard_normal((n, d)).astype(np.float32)
    queries = base[:8] + rng.standard_normal((8, d)).astype(np.float32)
    with tempfile.TemporaryDirectory() as tmp, VectorReader(_fvecs_file(tmp, base)) as reader:
        with mock.patch.object(index_mod, "_BLOCK_ELEMENTS", n // 8 * d):
            tracemalloc.start()
            try:
                gt = brute_force_gt(reader, queries, 10)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    assert peak < base.nbytes / 2
    np.testing.assert_array_equal(gt, brute_force_gt(base, queries, 10))


@SETTINGS
@given(ground_truth_cases())
def test_brute_force_gt_reversed_queries_give_reversed_rows(case):
    """The screen's work arrays carry nothing from one query to the next."""
    base, queries, k = case
    np.testing.assert_array_equal(brute_force_gt(base, queries[::-1], k), brute_force_gt(base, queries, k)[::-1])


def nearest_bits_reference(dists, n):
    """The n-bit rule as it was: the first n of a stable argsort per row."""
    bits = np.zeros(dists.shape, dtype=bool)
    np.put_along_axis(bits, np.argsort(dists, axis=1, kind="stable")[:, :n], True, axis=1)
    return bits


@st.composite
def tied_distances(draw):
    """Distance rows with heavy ties: a few small values, duplicated
    columns (duplicate centroids), and at times inf, nan or whole rows of
    nan, as distances that overflow give."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, k = draw(st.integers(1, 30)), draw(st.integers(1, 12))
    dists = rng.integers(0, draw(st.integers(1, 4)), size=(rows, k)).astype(np.float64)
    if k > 1 and draw(st.booleans()):
        dists[:, rng.integers(0, k, size=k // 2)] = dists[:, rng.integers(0, k, size=k // 2)]
    for value in (np.inf, np.nan):
        if draw(st.booleans()):
            dists[rng.random((rows, k)) < draw(st.sampled_from([0.1, 0.5, 1.0]))] = value
    if draw(st.booleans()):
        dists[rng.integers(0, rows)] = np.nan
    return dists, draw(st.integers(1, k))


@settings(max_examples=300, deadline=None)
@given(tied_distances())
def test_nearest_bits_match_a_stable_argsort(case):
    """The partition bit rule sets the bits a stable argsort's first n
    name: ties at the n-th distance go to the lower centroid indices, and
    nan sorts after inf, so a row of nan gets its lowest n indices."""
    dists, n = case
    np.testing.assert_array_equal(_bits_nearest(dists, n), nearest_bits_reference(dists, n))


@st.composite
def plane_cases(draw):
    """An n or n2 index whose N rows repeat a few codes of weight n per
    codebook, so Hamming ties abound; N on either side of the 64-row word
    edge; n2 with k = 40, codes of 80 bits over 2 words. A chunk of 1-9
    queries of the same rule, some equal to the first, and a limit of 1,
    N, or a cut boundary of the first query (the row count within a
    distance) or one off it."""
    dual = draw(st.booleans())
    k = 40 if dual else draw(st.integers(6, 12))
    n_nearest = draw(st.integers(1, min(8, k)))
    n = draw(st.sampled_from([1, 63, 64, 65, 130]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def codes(count):
        return np.concatenate([rng.random((count, k)).argsort(axis=1) < n_nearest for _ in range(1 + dual)], axis=1)

    unique = codes(draw(st.integers(1, 6)))
    base = unique[rng.integers(0, len(unique), size=n)]
    m = draw(st.integers(1, 9))
    queries = codes(m)
    queries[rng.random(m) < 0.3] = queries[0]
    cents = rng.standard_normal((2, k, 2)).astype(np.float32)
    quantizer = DualCodebook(*map(Codebook.from_centroids, cents)) if dual else Codebook.from_centroids(cents[0])
    spec = EncoderSpec(Variant.N2 if dual else Variant.N, n_nearest=n_nearest)
    codes_packed = pack_bits(base)
    ham = popcount_reference(codes_packed, pack_bits(queries[0]))
    cut = int((ham <= draw(st.sampled_from(sorted(set(ham.tolist()))))).sum())
    limit = draw(st.sampled_from([1, n, cut, max(1, cut - 1), min(n, cut + 1)]))
    return build_index(codes_packed, np.arange(n), spec, quantizer), pack_bits(queries), limit


@settings(max_examples=150, deadline=None)
@given(plane_cases(), st.sampled_from([None, 1, 3]))
def test_plane_shortlists_match_a_full_sort(case, group):
    """The bit-plane kernel against a full (Hamming, id) sort, for a chunk
    of queries at once, in groups of 1 or 3 queries too; then hand-made
    codes of any weight, 0 and every bit included: one at a time through
    shortlist(), and all four as one chunk of mixed weights. The plane
    kernel takes only chunks whose codes all have the index's weight w, so
    _shortlists sends such a code, alone, to the kernel and every other
    code, and the mixed chunk, to the XOR scan; the ids must be the sort's
    either way."""
    index, words, limit = case
    assert index._planes is not None
    levels = index_mod._plane_weight(index.spec, words.shape[1]) + 2
    budget = index_mod._CHUNK_ELEMENTS if group is None else group * levels * index._planes.shape[1]
    with mock.patch.object(index_mod, "_CHUNK_ELEMENTS", budget):
        got = index_mod._shortlists(index, words, limit)
    assert got.shape == (len(words), limit)
    for row, w in zip(got, words):
        np.testing.assert_array_equal(row, naive_shortlist(index.codes, w, limit))
    length = index.code_length
    rng = np.random.default_rng(int(words[0, 0]) + limit)
    mixed = pack_bits(np.array([rng.permutation(length) < w for w in (0, 1, rng.integers(0, length + 1), length)]))
    for q, row in zip(mixed, index_mod._shortlists(index, mixed, limit)):
        want = naive_shortlist(index.codes, q, limit)
        np.testing.assert_array_equal(shortlist(index, HashCode(q, length), limit), want)
        np.testing.assert_array_equal(row, want)
