"""Property tests: the partitioned top-k selector, the search path over a
memory-mapped VectorReader (single query, batched and threaded), and
VectorReader.take, each against a naive full-sort or whole-file reference
on inputs full of ties and duplicates."""

import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from multikmeans.core import Metric, hamming_distances, pairwise_sq_distances
from multikmeans.dataio import VectorReader, read_vectors, write_vectors
from multikmeans.encoder import EncoderSpec, Variant, encode, encode_many
from multikmeans.index import _topk, build_index, search, search_ids, search_many, shortlist
from multikmeans.kmeans import Codebook

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


def naive_shortlist(index, words, limit):
    ham = hamming_distances(index.codes, words)
    return np.array([i for _, i in sorted(zip(ham.tolist(), index.ids.tolist()))[:limit]])


def naive_search(base, cand, q, top, metric):
    """Scores as the re-rank computes them over the same candidate order,
    ranked by a full sort of (score, id)."""
    vecs = base[cand].astype(np.float64)
    q64 = q.astype(np.float64)
    if metric is Metric.EUCLIDEAN:
        scores = np.sqrt(pairwise_sq_distances(q64[None, :], vecs)[0])
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
