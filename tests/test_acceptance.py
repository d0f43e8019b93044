"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single
"[acceptance] name: PASS/FAIL" line before asserting, so a scan of the
output shows exactly which guarantees hold.
"""

import math
import time

import numpy as np
import pytest

from multikmeans.core import pack_bits
from multikmeans.dataio import (
    SyntheticSpec,
    generate_synthetic,
    read_vectors,
    write_vectors,
)
from multikmeans.encoder import (
    DualCodebook,
    EncoderSpec,
    MeanKind,
    Variant,
    encode_many,
    load_quantizer,
    save_quantizer,
    train_dual_codebook,
)
from multikmeans.evaluate import (
    average_precision,
    brute_force_gt,
    recall_at_r,
)
from multikmeans.index import (
    _rerank_arrays,
    build_index,
    load_index,
    save_index,
    search,
    search_ids,
)
from multikmeans.kmeans import Codebook, TrainParams, train


def check(name, ok, detail=""):
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def naive_code_bits(x, centroids, variant, mean="arith", n=0):
    """Independent reference encoder in plain python (geometric mean via the
    product form, nearest-n via an explicit stable sort)."""
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


def popcounts(words):
    return np.bitwise_count(words).sum(axis=1)


def test_lloyd_objective_monotone():
    rng = np.random.default_rng(100)
    t0 = time.perf_counter()
    violations = 0
    for trial in range(50):
        X = rng.standard_normal((2000, 32)).astype(np.float32)
        cb = train(X, 16, TrainParams(seed=trial))
        h = cb.train_meta.history
        assert len(h) >= 2
        violations += sum(1 for a, b in zip(h, h[1:]) if b > a + 1e-9 * a)
    dt = time.perf_counter() - t0
    check(
        "lloyd-objective-monotone",
        violations == 0 and dt < 30.0,
        f"50 instances, {violations} violations, {dt:.1f}s",
    )


def test_encoder_popcount_laws():
    rng = np.random.default_rng(101)
    cb = train(rng.standard_normal((4000, 32)).astype(np.float32), 64, TrainParams(seed=7))
    X = rng.standard_normal((1000, 32)).astype(np.float32)

    ok = True
    for n in (1, 8, 32, 64):
        words = encode_many(X, cb, EncoderSpec(Variant.N, n_nearest=n))
        ok = ok and (popcounts(words) == n).all()

    for mean in MeanKind:
        words = encode_many(X, cb, EncoderSpec(Variant.T, mean_kind=mean))
        ok = ok and (popcounts(words) >= 1).all()

    # n=1 must agree with hard nearest-centroid assignment
    one_hot = encode_many(X, cb, EncoderSpec(Variant.N, n_nearest=1))
    d = np.linalg.norm(
        X[:, None, :].astype(np.float64) - cb.centroids[None, :, :].astype(np.float64),
        axis=2,
    )
    nearest = d.argmin(axis=1)
    expect = np.zeros((1000, 64), dtype=np.uint8)
    expect[np.arange(1000), nearest] = 1
    ok = ok and (pack_bits(expect) == one_hot).all()

    check("encoder-popcount-laws", bool(ok), "1000 vectors, k=64, n in {1,8,32,64}")


def test_encoder_matches_naive_reference():
    rng = np.random.default_rng(102)
    cases = 10_000
    mismatches = 0
    for case in range(cases):
        k = int(rng.integers(2, 17))
        dim = int(rng.integers(2, 9))
        cents = rng.standard_normal((k, dim)).astype(np.float32)
        cb = Codebook.from_centroids(cents)
        x = rng.standard_normal(dim).astype(np.float32)
        which = case % 3
        if which == 0:
            spec = EncoderSpec(Variant.T, MeanKind.ARITHMETIC)
            want = naive_code_bits(x, cents, "t", mean="arith")
        elif which == 1:
            spec = EncoderSpec(Variant.T, MeanKind.GEOMETRIC)
            want = naive_code_bits(x, cents, "t", mean="geom")
        else:
            n = int(rng.integers(1, k + 1))
            spec = EncoderSpec(Variant.N, n_nearest=n)
            want = naive_code_bits(x, cents, "n", n=n)
        got = pack_bits(np.array(want, dtype=np.uint8))
        if not (encode_many(x[None, :], cb, spec)[0] == got).all():
            mismatches += 1
    check(
        "encoder-matches-naive-reference",
        mismatches == 0,
        f"{cases} cases, {mismatches} mismatches",
    )


def test_scale_equivariance():
    rng = np.random.default_rng(103)
    dim = 16
    X = rng.standard_normal((200, dim)).astype(np.float32)
    single = Codebook.from_centroids(rng.standard_normal((32, dim)).astype(np.float32))
    dual = DualCodebook(
        Codebook.from_centroids(rng.standard_normal((16, dim)).astype(np.float32)),
        Codebook.from_centroids(rng.standard_normal((16, dim)).astype(np.float32)),
    )
    plans = [
        ("t-arith", single, EncoderSpec(Variant.T, MeanKind.ARITHMETIC)),
        ("t-geom", single, EncoderSpec(Variant.T, MeanKind.GEOMETRIC)),
        ("n", single, EncoderSpec(Variant.N, n_nearest=8)),
        ("t2", dual, EncoderSpec(Variant.T2, MeanKind.ARITHMETIC)),
        ("n2", dual, EncoderSpec(Variant.N2, n_nearest=4)),
    ]
    bad = []
    for name, quantizer, spec in plans:
        reference = encode_many(X, quantizer, spec)
        for s in (0.001, 1.0, 1000.0):
            if isinstance(quantizer, DualCodebook):
                scaled_q = DualCodebook(
                    Codebook.from_centroids(quantizer.first.centroids * np.float32(s)),
                    Codebook.from_centroids(quantizer.second.centroids * np.float32(s)),
                )
            else:
                scaled_q = Codebook.from_centroids(quantizer.centroids * np.float32(s))
            scaled = encode_many(X * np.float32(s), scaled_q, spec)
            if not (scaled == reference).all():
                bad.append(f"{name}@{s}")
    check("scale-equivariance", not bad, "all variants, s in {0.001, 1, 1000}" if not bad else ", ".join(bad))


def test_full_shortlist_matches_exact_search():
    spec = SyntheticSpec(
        n_clusters=50, points_per_cluster=100, dim=32, cluster_spread=0.05, seed=104
    )
    ds = generate_synthetic(spec, gt_depth=10)
    cb = train(ds.learning, 32, TrainParams(seed=104))
    espec = EncoderSpec(Variant.T)
    codes = encode_many(ds.base, cb, espec)
    index = build_index(codes, np.arange(len(ds.base)), espec, cb)

    ids = search_ids(index, ds.base, ds.queries, shortlist_size=len(ds.base), top=10)
    exact = (ids == ds.ground_truth).all()
    recall = recall_at_r(ids, ds.ground_truth, 1)
    check(
        "full-shortlist-matches-exact-search",
        bool(exact) and recall == 1.0,
        f"5000 base, 100 queries, recall@1={recall:.3f}",
    )


def test_metric_correctness():
    ap = average_precision([1, 0, 1], 2)
    ap_ok = abs(ap - 5.0 / 6.0) <= 1e-9

    rng = np.random.default_rng(105)
    base = rng.standard_normal((200, 8)).astype(np.float32)
    queries = rng.standard_normal((30, 8)).astype(np.float32)
    gt = brute_force_gt(base, queries, 1)
    results = np.vstack([rng.permutation(200)[:50] for _ in range(30)])
    rates = [recall_at_r(results, gt, r) for r in (1, 2, 5, 10, 25, 50)]
    monotone = all(b >= a for a, b in zip(rates, rates[1:]))

    perfect = np.mean([average_precision(r, int(r.sum())) for r in np.ones((10, 20), dtype=np.int64)])

    check(
        "metric-correctness",
        ap_ok and monotone and perfect == 1.0,
        f"AP={ap:.10f}, recall monotone={monotone}, perfect MAP={perfect}",
    )


def test_format_fidelity(tmp_path):
    rng = np.random.default_rng(106)

    floats = rng.standard_normal((40, 9)).astype(np.float32)
    write_vectors(tmp_path / "a.fvecs", floats)
    fv_ok = read_vectors(tmp_path / "a.fvecs").tobytes() == floats.tobytes()

    bytes_ = rng.integers(0, 256, size=(40, 9)).astype(np.uint8)
    write_vectors(tmp_path / "a.bvecs", bytes_)
    bv_ok = (read_vectors(tmp_path / "a.bvecs") == bytes_).all()

    ints = rng.integers(-(2**31), 2**31, size=(40, 9)).astype(np.int32)
    write_vectors(tmp_path / "a.ivecs", ints)
    iv_ok = read_vectors(tmp_path / "a.ivecs").tobytes() == ints.tobytes()

    data = rng.standard_normal((300, 12)).astype(np.float32)
    cb = train(data, 16, TrainParams(seed=9))
    save_quantizer(cb, tmp_path / "cb.mkmc")
    cb_ok = load_quantizer(tmp_path / "cb.mkmc").centroids.tobytes() == cb.centroids.tobytes()

    dual = train_dual_codebook(data, 8, TrainParams(seed=9))
    save_quantizer(dual, tmp_path / "cb.mkm2")
    back = load_quantizer(tmp_path / "cb.mkm2")
    dual_ok = (
        back.first.centroids.tobytes() == dual.first.centroids.tobytes()
        and back.second.centroids.tobytes() == dual.second.centroids.tobytes()
    )

    espec = EncoderSpec(Variant.N, n_nearest=3)
    index = build_index(encode_many(data, cb, espec), np.arange(300), espec, cb)
    save_index(index, tmp_path / "idx.mkmi")
    loaded = load_index(tmp_path / "idx.mkmi")
    queries = rng.standard_normal((5, 12)).astype(np.float32)
    idx_ok = all(
        search(index, data, q, 50, 10).ranked == search(loaded, data, q, 50, 10).ranked
        for q in queries
    )

    ok = fv_ok and bv_ok and iv_ok and cb_ok and dual_ok and idx_ok
    check(
        "format-fidelity",
        bool(ok),
        f"fvecs={fv_ok} bvecs={bv_ok} ivecs={iv_ok} codebook={cb_ok} dual={dual_ok} index={idx_ok}",
    )


def test_retrieval_lift_over_random_shortlist():
    # targets calibrated once on this fixture (seed 8) and frozen: the hash
    # shortlist reached recall@100 = 1.00 and the random 500-candidate
    # baseline 0.03-0.07 across seeds, a ~25x lift
    t0 = time.perf_counter()
    spec = SyntheticSpec(
        n_clusters=64, points_per_cluster=160, dim=128, cluster_spread=0.05, seed=8
    )
    ds = generate_synthetic(spec, gt_depth=1)
    cb = train(ds.learning, 64, TrainParams(seed=8))
    espec = EncoderSpec(Variant.T, MeanKind.ARITHMETIC)
    codes = encode_many(ds.base, cb, espec)
    index = build_index(codes, np.arange(len(ds.base)), espec, cb)

    ids = search_ids(index, ds.base, ds.queries, shortlist_size=500, top=100)
    truth = ds.ground_truth[:, 0][:, None]
    method = float((ids == truth).any(axis=1).mean())

    rng = np.random.default_rng(8)
    hits = 0
    for qi, q in enumerate(ds.queries):
        cand = rng.choice(len(ds.base), size=500, replace=False).astype(np.int64)
        rids, _ = _rerank_arrays(q.astype(np.float64), cand, ds.base, 100)
        hits += int((rids == ds.ground_truth[qi, 0]).any())
    baseline = hits / len(ds.queries)
    dt = time.perf_counter() - t0

    ok = (
        method >= 0.90
        and baseline <= 0.30
        and method >= 3.0 * max(baseline, 1e-9)
        and dt < 60.0
    )
    check(
        "retrieval-lift-over-random-shortlist",
        ok,
        f"recall@100 {method:.2f} vs baseline {baseline:.2f}, {dt:.1f}s",
    )
