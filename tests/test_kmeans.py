import struct
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest

import multikmeans.kmeans as km
from multikmeans.core import FormatError
from multikmeans.dataio import SyntheticSpec, generate_synthetic
from multikmeans.encoder import load_quantizer, save_quantizer
from multikmeans.kmeans import (
    Codebook,
    TrainParams,
    kmeanspp_seed,
    train,
)


def naive_objective(data, centroids):
    total = 0.0
    for x in np.asarray(data, dtype=np.float64):
        best = min(float(np.sum((x - c) ** 2)) for c in np.asarray(centroids, np.float64))
        total += best
    return total


class TestTrainParams:
    def test_defaults(self):
        p = TrainParams()
        assert p.max_iters == 100 and p.rel_tol == 1e-4 and p.seed == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainParams(max_iters=0)
        with pytest.raises(ValueError):
            TrainParams(rel_tol=-1e-3)
        with pytest.raises(ValueError):
            TrainParams(seed=-1)
        with pytest.raises(ValueError):
            TrainParams(seed=2**64)


class TestSeeding:
    def test_exactly_k_points_returns_them_all(self):
        rng = np.random.default_rng(21)
        for seed in range(10):
            pts = rng.standard_normal((6, 3)).astype(np.float32)
            seeds = kmeanspp_seed(pts, 6, seed=seed)
            assert {tuple(r) for r in seeds} == {tuple(r) for r in pts}

    def test_duplicate_points_fall_back_to_uniform(self):
        pts = np.tile(np.array([[2.0, 3.0]], dtype=np.float32), (5, 1))
        seeds = kmeanspp_seed(pts, 3, seed=0)
        assert seeds.shape == (3, 2)
        np.testing.assert_array_equal(seeds, np.tile([[2.0, 3.0]], (3, 1)))

    def test_distance_squared_sampling_frequency(self):
        # 20 points near the origin plus one far outlier; the chance that the
        # outlier ends up among 2 seeds follows directly from the sampling rule
        rng = np.random.default_rng(22)
        cluster = rng.standard_normal((20, 2)).astype(np.float32)
        outlier = np.array([[100.0, 0.0]], dtype=np.float32)
        pts = np.vstack([cluster, outlier])
        n = len(pts)
        d2 = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                d2[i, j] = float(np.sum((pts[i].astype(np.float64) - pts[j]) ** 2))
        want = 1.0 / n
        for f in range(n - 1):
            want += (1.0 / n) * d2[n - 1, f] / d2[:, f].sum()
        trials = 2000
        hits = 0
        for seed in range(trials):
            seeds = kmeanspp_seed(pts, 2, seed=seed)
            if any(np.array_equal(s, outlier[0]) for s in seeds):
                hits += 1
        freq = hits / trials
        assert abs(freq - want) < 0.03
        assert freq > 5.0 * (2.0 / n)  # far above uniform sampling

    def test_validation(self):
        pts = np.zeros((4, 2), dtype=np.float32)
        with pytest.raises(ValueError):
            kmeanspp_seed(pts, 1)
        with pytest.raises(ValueError):
            kmeanspp_seed(pts, 5)


def assign(data, centroids):
    """kmeans._assign on checked inputs, in their own dtype: (labels,
    squared distances)."""
    X, C64 = np.asarray(data), np.asarray(centroids, dtype=np.float64)
    X64 = X.astype(np.float64)
    work = km._assign_work(X, C64.shape[0])
    return km._assign(X, np.einsum("nd,nd->n", X64, X64), C64, np.einsum("md,md->m", C64, C64), work)


class TestObjective:
    def test_matches_naive(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            data = rng.standard_normal((40, 4)).astype(np.float32)
            cents = rng.standard_normal((5, 4)).astype(np.float32)
            np.testing.assert_allclose(assign(data, cents)[1].sum(), naive_objective(data, cents), rtol=1e-12)

    def test_zero_when_centroids_cover_points(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
        assert assign(pts, pts)[1].sum() == 0.0

    def test_assignment_ties_take_lowest_index(self):
        cents = np.array([[-1.0, 0.0], [1.0, 0.0]], dtype=np.float32)
        labels, d2 = assign(np.array([[0.0, 0.0]]), cents)
        assert labels[0] == 0
        assert d2[0] == 1.0


class TestTrain:
    def test_history_non_increasing(self):
        rng = np.random.default_rng(24)
        for seed in range(5):
            data = rng.standard_normal((300, 6)).astype(np.float32)
            cb = train(data, 8, TrainParams(seed=seed))
            h = cb.train_meta.history
            assert len(h) >= 1
            assert cb.train_meta.objective == h[-1]
            for a, b in zip(h, h[1:]):
                assert b <= a * (1.0 + 1e-9)

    def test_objective_matches_recomputation(self):
        rng = np.random.default_rng(25)
        data = rng.standard_normal((200, 5)).astype(np.float32)
        cb = train(data, 6, TrainParams(seed=1))
        # final centroids are stored as float32; recomputing on them agrees
        # with the recorded float64 objective to float32 rounding
        np.testing.assert_allclose(naive_objective(data, cb.centroids), cb.train_meta.objective, rtol=1e-5)

    def test_perfect_fit_reaches_zero(self):
        rng = np.random.default_rng(26)
        data = rng.standard_normal((7, 3)).astype(np.float32)
        cb = train(data, 7, TrainParams(seed=0))
        assert cb.train_meta.objective == 0.0
        assert cb.k == 7

    def test_deterministic_and_seed_sensitive(self):
        rng = np.random.default_rng(27)
        data = rng.standard_normal((150, 4)).astype(np.float32)
        a = train(data, 5, TrainParams(seed=9))
        b = train(data, 5, TrainParams(seed=9))
        c = train(data, 5, TrainParams(seed=10))
        np.testing.assert_array_equal(a.centroids, b.centroids)
        assert a.train_meta.history == b.train_meta.history
        assert not np.array_equal(a.centroids, c.centroids)

    def test_max_iters_cap(self):
        rng = np.random.default_rng(28)
        data = rng.standard_normal((200, 3)).astype(np.float32)
        cb = train(data, 4, TrainParams(max_iters=2, rel_tol=0.0, seed=0))
        assert cb.train_meta.iterations <= 2
        assert len(cb.train_meta.history) == cb.train_meta.iterations + 1

    def test_zero_tol_stops_at_a_fixed_point(self):
        # the objective is flat from the fourth sweep; a stop rule of
        # improvement < tol * prev would run all 200 sweeps at tol 0
        learning = generate_synthetic(SyntheticSpec(8, 250, 128, seed=1, n_learning=500)).learning
        flat = train(learning, 16, TrainParams(max_iters=200, rel_tol=0.0, seed=0))
        meta = flat.train_meta
        assert meta.iterations < 200
        assert meta.history[-1] == meta.history[-2]
        capped = train(learning, 16, TrainParams(max_iters=meta.iterations, rel_tol=0.0, seed=0))
        assert capped.centroids.tobytes() == flat.centroids.tobytes()
        assert capped.train_meta.history == meta.history

    def test_empty_cluster_repair(self, monkeypatch):
        # force a seeding whose third centroid owns no points: after one
        # update it must be reseeded to the farthest point, keep k centroids,
        # and keep the objective trajectory non-increasing
        data = np.array([[0.0], [0.2], [1.8], [2.0], [2.2]], dtype=np.float32)
        forced = np.array([[0.0], [2.0], [5.0]], dtype=np.float32)
        monkeypatch.setattr(km, "_kmeanspp_seed", lambda X, X64, x_sq, k, seed: forced.copy())
        cb = train(data, 3, TrainParams(seed=0))
        h = cb.train_meta.history
        assert cb.k == 3
        for a, b in zip(h, h[1:]):
            assert b <= a * (1.0 + 1e-9)
        # reseeding lands on the farthest point (1.8) and Lloyd then settles
        # on {0.1, 1.8, 2.1} with objective 5 * 0.1^2
        np.testing.assert_allclose(sorted(cb.centroids[:, 0]), [0.1, 1.8, 2.1], atol=1e-6)
        np.testing.assert_allclose(cb.train_meta.objective, 0.04, rtol=1e-5)
        assert len(h) == cb.train_meta.iterations + 1

    def test_each_assign_call_fits_the_budget(self, monkeypatch):
        """Every block the assign step scores holds at most
        _BLOCK_ELEMENTS // (d + k) points, its float64 rows and distances
        together; the seeding scores all points against one pick at a time."""
        rng = np.random.default_rng(31)
        data = rng.standard_normal((95, 3)).astype(np.float32)
        budget = 20 * (3 + 6) + 5  # 20 points per block for d = 3, k = 6
        monkeypatch.setattr(km, "_BLOCK_ELEMENTS", budget)
        kernel = mock.MagicMock(wraps=km._sq_distances)
        monkeypatch.setattr(km, "_sq_distances", kernel)
        cb = train(data, 6, TrainParams(max_iters=3, rel_tol=0.0))
        calls = [(c.args[0].shape, c.args[0].dtype, c.args[2].shape[0]) for c in kernel.call_args_list]
        seeding = [(shape, k) for shape, _, k in calls if k == 1]
        assign = [(shape, dtype, k) for shape, dtype, k in calls if k != 1]
        assert seeding == [((95, 3), 1)] * 6
        assert all(rows * (d + k) <= budget and k == 6 and dtype == np.float64 for (rows, d), dtype, k in assign)
        assert [rows for (rows, _), _, _ in assign] == [20, 20, 20, 20, 15] * (cb.train_meta.iterations + 1)

    def test_peak_memory_is_the_float64_copy_plus_blocks(self):
        """train allocates at most 3x a float32 learning set's bytes at its
        peak: the float64 copy that the seeding scores at once (2x), while
        each sweep holds the transposed data (1x) and blocks of the shared
        budget. numpy reports its data allocations to tracemalloc, so the
        figure is deterministic; a float64 copy kept through the sweeps
        beside the transposed copy and the distances reads above 4x."""
        X = np.random.default_rng(35).standard_normal((80_000, 64)).astype(np.float32)
        tracemalloc.start()
        try:
            train(X, 32, TrainParams(max_iters=3, rel_tol=0.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * X.nbytes

    def test_validation(self):
        data = np.zeros((3, 2), dtype=np.float32)
        with pytest.raises(ValueError):
            train(data, 4)
        with pytest.raises(ValueError):
            train(data, 1)

    def test_centroids_stored_float32_read_only(self):
        rng = np.random.default_rng(29)
        data = rng.standard_normal((50, 3)).astype(np.float32)
        cb = train(data, 3)
        assert cb.centroids.dtype == np.float32
        with pytest.raises(ValueError):
            cb.centroids[0, 0] = 0.0

    def test_from_centroids_leaves_the_callers_array_writable(self):
        """The codebook freezes its own copy, with the same bytes."""
        a = np.random.default_rng(30).standard_normal((3, 4)).astype(np.float32)
        cb = Codebook.from_centroids(a)
        assert cb.centroids is not a and a.flags.writeable and not cb.centroids.flags.writeable
        assert cb.centroids.tobytes() == a.tobytes()
        a[0, 0] = 7.0
        assert cb.centroids[0, 0] != 7.0

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Codebook.from_centroids(np.array([[1e39, 0.0], [0.0, 0.0]])),
            lambda: train(np.random.default_rng(37).standard_normal((50, 3)) * 1e39, 3),
        ],
        ids=["from_centroids", "train"],
    )
    def test_centroids_past_the_float32_range_are_rejected(self, make):
        """A centroid that float32 cannot hold raises ValueError and warns
        nowhere: stored as inf, it gave every t row an all-zero code and
        files that no loader reads."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^centroids overflow float32$"):
                make()


class TestCodebookIO:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(31)
        data = rng.standard_normal((80, 5)).astype(np.float32)
        cb = train(data, 4, TrainParams(seed=77))
        path = tmp_path / "cb.mkmc"
        save_quantizer(cb, path)
        loaded = load_quantizer(path)
        np.testing.assert_array_equal(loaded.centroids, cb.centroids)
        assert loaded.k == cb.k and loaded.dim == cb.dim
        assert loaded.train_meta.seed == 77
        assert loaded.train_meta.iterations is None
        assert loaded.train_meta.objective is None

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.mkmc"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FormatError):
            load_quantizer(path)

    def test_truncated_payload_reports_offset(self, tmp_path):
        rng = np.random.default_rng(32)
        cb = Codebook.from_centroids(rng.standard_normal((3, 4)).astype(np.float32))
        path = tmp_path / "cb.mkmc"
        save_quantizer(cb, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(FormatError) as err:
            load_quantizer(path)
        assert err.value.offset is not None

    def test_trailing_bytes_rejected(self, tmp_path):
        rng = np.random.default_rng(33)
        cb = Codebook.from_centroids(rng.standard_normal((3, 4)).astype(np.float32))
        path = tmp_path / "cb.mkmc"
        save_quantizer(cb, path)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(FormatError):
            load_quantizer(path)

    def test_unsupported_version(self, tmp_path):
        rng = np.random.default_rng(34)
        save_quantizer(Codebook.from_centroids(rng.standard_normal((2, 2)).astype(np.float32)), tmp_path / "v.mkmc")
        blob = bytearray((tmp_path / "v.mkmc").read_bytes())
        blob[4:8] = struct.pack("<I", 99)
        (tmp_path / "v.mkmc").write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load_quantizer(tmp_path / "v.mkmc")

    @pytest.mark.parametrize("k, dim", [(1, 2), (2, 0)])
    def test_invalid_shape_rejected(self, tmp_path, k, dim):
        path = tmp_path / "shape.mkmc"
        path.write_bytes(b"MKMC" + struct.pack("<IIIQ", 1, k, dim, 0) + b"\x00" * 16)
        with pytest.raises(FormatError, match=f"invalid codebook shape k={k} dim={dim}") as err:
            load_quantizer(path)
        assert err.value.offset == 8

    def test_non_finite_centroids_rejected(self, tmp_path):
        path = tmp_path / "nan.mkmc"
        header = b"MKMC" + struct.pack("<IIIQ", 1, 2, 2, 0)
        payload = np.array([[0, 0], [np.nan, 0]], dtype="<f4").tobytes()
        path.write_bytes(header + payload)
        with pytest.raises(FormatError):
            load_quantizer(path)
