"""Property tests: the partitioned top-k selector, the narrow Hamming keys
and the shortlist over multi-word codes, pairwise_sq_distances against the
element-wise finiteness check it replaced, the search path over a
memory-mapped VectorReader (single query, batched and threaded),
VectorReader.take, the float32-screened Euclidean top-k against its float64
kernel run over every row, that kernel's independence from the rows scored
with it, k-means++ seeding against its one-call-per-pick form, and the id
check of build_index, each against a naive full-sort, popcount, whole-file
or inline reference on inputs full of ties and duplicates."""

import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import multikmeans.kmeans as km
from multikmeans.core import HashCode, Metric, as_matrix, hamming_distances, pack_bits, pairwise_sq_distances
from multikmeans.dataio import VectorReader, read_vectors, write_vectors
from multikmeans.encoder import EncoderSpec, Variant, encode, encode_many
from multikmeans.evaluate import brute_force_gt
from multikmeans.index import (
    _direct_distances,
    _euclidean_topk,
    _screen_bounds,
    _topk,
    build_index,
    search,
    search_ids,
    search_many,
    shortlist,
)
from multikmeans.kmeans import Codebook, TrainParams

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


def naive_shortlist(index, words, limit):
    ham = popcount_reference(index.codes, words)
    return np.array([i for _, i in sorted(zip(ham.tolist(), index.ids.tolist()))[:limit]])


@st.composite
def multiword_codes(draw):
    """Packed codes of 1-4 words or of 5 words (a code longer than 255 bits,
    so distances above 255 occur), with duplicated rows and a query that may
    be all ones."""
    length = draw(st.one_of(st.integers(1, 4 * 64), st.integers(256, 5 * 64)))
    n_unique = draw(st.integers(1, 6))
    n = draw(st.integers(n_unique, 40))
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
@given(multiword_codes(), st.data())
def test_shortlist_on_multiword_codes_matches_naive(case, data):
    length, codes, words = case
    assume(length >= 2)  # a codebook, one centroid per bit, needs two centroids
    n = codes.shape[0]
    cb = Codebook.from_centroids(np.arange(2 * length, dtype=np.float32).reshape(length, 2))
    ids = np.array(data.draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n, unique=True)), dtype=np.int64)
    index = build_index(codes, ids, EncoderSpec(Variant.T), cb)
    limit = data.draw(st.integers(1, n))
    np.testing.assert_array_equal(shortlist(index, HashCode(words, length), limit), naive_shortlist(index, words, limit))


def parent_pairwise_sq_distances(a, b, chunk_rows=None):
    """pairwise_sq_distances as it was with the element-wise check of b."""
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


@st.composite
def distance_inputs(draw):
    """a and b with inf, -inf, nan or a square-overflowing 1e200 planted at
    random positions (in b mostly, sometimes in a), duplicated rows so exact
    zeros occur, and now and then a dimension mismatch."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, m, d = draw(st.integers(1, 5)), draw(st.integers(1, 8)), draw(st.integers(1, 6))
    b_dtype = draw(st.sampled_from([np.float32, np.float64]))
    a = rng.standard_normal((n, d))
    b = rng.standard_normal((m, d if draw(st.integers(0, 9)) else d + 1)).astype(b_dtype)
    b[rng.integers(0, m, size=m // 2)] = a[0, : b.shape[1]] if b.shape[1] == d else 0.0
    plants = st.sampled_from([np.inf, -np.inf, np.nan] + ([1e200] if b_dtype is np.float64 else []))
    for _ in range(draw(st.integers(0, 3))):
        b[rng.integers(0, m), rng.integers(0, b.shape[1])] = draw(plants)
    if draw(st.integers(0, 9)) == 0:
        a[rng.integers(0, n), rng.integers(0, d)] = draw(st.sampled_from([np.inf, np.nan, 1e200]))
    chunk_rows = draw(st.sampled_from([None, 1, 2]))
    return a, b, chunk_rows


def outcome(fn, *args):
    with np.errstate(all="ignore"):
        try:
            return fn(*args)
        except Exception as exc:  # the type and message are compared
            return exc


@settings(max_examples=300, deadline=None)
@given(distance_inputs())
def test_pairwise_sq_distances_matches_elementwise_check(case):
    a, b, chunk_rows = case
    got = outcome(pairwise_sq_distances, a, b, chunk_rows)
    want = outcome(parent_pairwise_sq_distances, a, b, chunk_rows)
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
    else:
        assert isinstance(got, np.ndarray) and got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def naive_search(base, cand, q, top, metric):
    """Scores as the re-rank computes them over the same candidate order,
    ranked by a full sort of (score, id)."""
    vecs = base[cand].astype(np.float64)
    q64 = q.astype(np.float64)
    if metric is Metric.EUCLIDEAN:
        scores = np.sqrt(np.einsum("nd,nd->n", vecs - q64, vecs - q64))
        key = scores
    else:
        scores = np.clip((vecs @ q64) / (np.linalg.norm(vecs, axis=1) * np.linalg.norm(q64)), -1.0, 1.0)
        key = -scores
    order = sorted(range(cand.shape[0]), key=lambda j: (key[j], cand[j]))[:top]
    return cand[order], scores[order]


@st.composite
def stores(draw):
    """A small base with duplicated rows of small positive ints, a codebook,
    an encoder spec, index ids in shuffled order, and a few queries."""
    dim = draw(st.integers(2, 5))
    n_unique = draw(st.integers(2, 8))
    n = draw(st.integers(n_unique, 30))
    cell = st.integers(1, 4)
    unique = np.array(draw(st.lists(st.lists(cell, min_size=dim, max_size=dim), min_size=n_unique, max_size=n_unique)))
    base = unique[draw(st.lists(st.integers(0, n_unique - 1), min_size=n, max_size=n))]
    k = draw(st.integers(2, 8))
    cents = np.array(draw(st.lists(st.lists(cell, min_size=dim, max_size=dim), min_size=k, max_size=k)))
    spec = EncoderSpec(Variant.T) if draw(st.booleans()) else EncoderSpec(Variant.N, n_nearest=draw(st.integers(1, k)))
    order = np.array(draw(st.permutations(range(n))), dtype=np.int64)
    queries = np.array(draw(st.lists(st.lists(cell, min_size=dim, max_size=dim), min_size=1, max_size=3)))
    limit = draw(st.integers(1, n))
    top = draw(st.integers(1, limit))
    metric = draw(st.sampled_from([Metric.EUCLIDEAN, Metric.COSINE]))
    suffix = draw(st.sampled_from([".fvecs", ".bvecs"]))
    threads = draw(st.sampled_from([1, 2]))
    cb = Codebook.from_centroids(cents.astype(np.float32))
    return base, cb, spec, order, queries, limit, top, metric, suffix, threads


@SETTINGS
@given(stores())
def test_search_over_reader_matches_full_sort(case):
    base, cb, spec, order, queries, limit, top, metric, suffix, threads = case
    codes = encode_many(base.astype(np.float32), cb, spec)
    index = build_index(codes[order], order, spec, cb)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "base" + suffix)
        write_vectors(path, base)
        with VectorReader(path) as reader:
            got_ids = search_ids(index, reader, queries, limit, top, metric, threads)
            many = search_many(index, reader, queries, limit, top, metric, threads)
            for qi, q in enumerate(queries):
                code = encode(q, cb, spec)
                cand = shortlist(index, code, limit)
                np.testing.assert_array_equal(cand, naive_shortlist(index, code.words, limit))
                want_ids, want_scores = naive_search(base, cand, q, top, metric)
                for res in (search(index, reader, q, limit, top, metric), many[qi]):
                    np.testing.assert_array_equal([i for i, _ in res.ranked], want_ids)
                    np.testing.assert_array_equal([s for _, s in res.ranked], want_scores)
                np.testing.assert_array_equal(got_ids[qi], want_ids)


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


@settings(max_examples=400, deadline=None)
@given(screen_cases())
def test_screened_topk_equals_the_kernel_over_every_row(case):
    rows, q, ids, top = case
    with np.errstate(over="ignore"):
        lower, upper = _screen_bounds(rows, q)
        got_pos, got_scores = _euclidean_topk(rows, q, ids, top)
    want_pos, want_scores = exhaustive_topk(rows, q, ids, top)
    every = exhaustive_topk(rows, q, ids, rows.shape[0])
    exact = np.empty(rows.shape[0])
    exact[every[0]] = every[1]
    assert (lower <= exact).all() and (exact <= upper).all()
    np.testing.assert_array_equal(got_pos, want_pos)
    assert got_scores.tobytes() == want_scores.tobytes()
    # brute_force_gt screens with one float32 matrix product for all queries
    with np.errstate(over="ignore"):
        gt = brute_force_gt(rows, q[None, :], top)
    np.testing.assert_array_equal(gt[0], exhaustive_topk(rows, q, np.arange(rows.shape[0]), top)[0])


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
        _euclidean_topk(rows, q, ids, top)


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
    """kmeanspp_seed as it was, with one checked pairwise_sq_distances call
    per pick."""
    X = as_matrix(data)
    if k < 2:
        raise ValueError("k must be at least 2")
    if X.shape[0] < k:
        raise ValueError(f"need at least k={k} points, got {X.shape[0]}")
    X64 = np.asarray(X, dtype=np.float64)
    rng = np.random.default_rng(int(seed))
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = rng.integers(X.shape[0])
    d2 = pairwise_sq_distances(X64, X64[chosen[0]][None, :])[:, 0]
    for i in range(1, k):
        total = d2.sum()
        if total > 0.0:
            idx = int(rng.choice(X.shape[0], p=d2 / total))
        else:
            remaining = np.setdiff1d(np.arange(X.shape[0]), chosen[:i])
            idx = int(rng.choice(remaining))
        chosen[i] = idx
        d2 = np.minimum(d2, pairwise_sq_distances(X64, X64[idx][None, :])[:, 0])
    return X[chosen].copy()


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
    got = km.train(X, k, params)
    with mock.patch.object(km, "kmeanspp_seed", parent_kmeanspp_seed):
        want = km.train(X, k, params)
    assert got.centroids.tobytes() == want.centroids.tobytes()
    assert got.train_meta == want.train_meta


@SETTINGS
@given(st.lists(st.integers(0, 30), min_size=1, max_size=30), st.booleans())
def test_build_index_id_check_matches_unique(ids, ascending):
    ids = np.array(sorted(ids) if ascending else ids, dtype=np.int64)
    cb = Codebook.from_centroids(np.arange(4, dtype=np.float32).reshape(2, 2))
    codes = np.zeros((ids.shape[0], 1), dtype=np.uint64)
    if np.unique(ids).shape[0] == ids.shape[0]:
        np.testing.assert_array_equal(build_index(codes, ids, EncoderSpec(Variant.T), cb).ids, ids)
    else:
        with pytest.raises(ValueError, match="^ids must be unique$"):
            build_index(codes, ids, EncoderSpec(Variant.T), cb)
