import math

import numpy as np
import pytest

from multikmeans.evaluate import (
    average_precision,
    brute_force_gt,
    label_relevance,
    recall_at_r,
)


def naive_gt(base, queries, depth):
    """Reference neighbor table computed row by row in plain python."""
    out = []
    for q in queries:
        keyed = []
        for i, v in enumerate(base):
            v64 = v.astype(np.float64)
            q64 = q.astype(np.float64)
            keyed.append((math.sqrt(float(((v64 - q64) ** 2).sum())), i))
        keyed.sort()
        out.append([i for _, i in keyed[:depth]])
    return np.array(out, dtype=np.int64)


class TestBruteForceGT:
    def test_matches_naive_euclidean(self):
        rng = np.random.default_rng(70)
        base = rng.standard_normal((60, 5)).astype(np.float32)
        queries = rng.standard_normal((12, 5)).astype(np.float32)
        got = brute_force_gt(base, queries, 10)
        np.testing.assert_array_equal(got, naive_gt(base, queries, 10))

    def test_duplicate_rows_tie_by_ascending_id(self):
        base = np.array([[1.0, 0.0], [0.5, 0.5], [1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
        q = np.array([[1.0, 0.0]], dtype=np.float32)
        got = brute_force_gt(base, q, 4)
        assert got[0].tolist() == [0, 2, 1, 3]

    def test_self_query_ranks_itself_first(self):
        rng = np.random.default_rng(72)
        base = rng.standard_normal((100, 4)).astype(np.float32)
        got = brute_force_gt(base, base[:9], 1)
        assert got[:, 0].tolist() == list(range(9))

    def test_depth_bounds(self):
        rng = np.random.default_rng(73)
        base = rng.standard_normal((10, 3)).astype(np.float32)
        q = rng.standard_normal((2, 3)).astype(np.float32)
        assert brute_force_gt(base, q, 10).shape == (2, 10)
        with pytest.raises(ValueError):
            brute_force_gt(base, q, 11)
        with pytest.raises(ValueError):
            brute_force_gt(base, q, 0)

    def test_dimension_mismatch(self):
        base = np.ones((4, 3), dtype=np.float32)
        with pytest.raises(ValueError, match="dimension mismatch: base 3 vs queries 2"):
            brute_force_gt(base, np.ones((1, 2), dtype=np.float32), 1)


class TestRecallAtR:
    def test_hand_case(self):
        # nearest neighbors 7 and 3; result lists hold them at ranks 3 and 1
        results = np.array([[5, 6, 7, 8], [3, 9, 9, 9]])
        gt = np.array([[7, 1], [3, 1]])
        assert recall_at_r(results, gt, 1) == 0.5
        assert recall_at_r(results, gt, 3) == 1.0

    def test_zero_when_absent(self):
        results = np.array([[4, 5], [6, 7]])
        gt = np.array([[1], [2]])
        assert recall_at_r(results, gt, 2) == 0.0

    def test_monotone_in_r(self):
        rng = np.random.default_rng(74)
        base = rng.standard_normal((80, 4)).astype(np.float32)
        queries = rng.standard_normal((15, 4)).astype(np.float32)
        gt = brute_force_gt(base, queries, 1)
        results = np.vstack(
            [rng.permutation(80)[:20] for _ in range(15)]
        )
        rates = [recall_at_r(results, gt, r) for r in (1, 2, 5, 10, 20)]
        assert all(b >= a for a, b in zip(rates, rates[1:]))

    def test_validation(self):
        results = np.array([[1, 2], [3, 4]])
        gt = np.array([[1], [3]])
        with pytest.raises(ValueError):
            recall_at_r(results, gt, 0)
        with pytest.raises(ValueError):
            recall_at_r(results, gt, 3)
        with pytest.raises(ValueError):
            recall_at_r(results, gt[:1], 1)
        with pytest.raises(ValueError, match=r"nonempty \(Q, k\) array, got \(2,\)"):
            recall_at_r(results, gt[:, 0], 1)  # a 1-D truth is not promoted


class TestAveragePrecision:
    def test_frozen_values(self):
        assert average_precision([1, 0, 1], 2) == pytest.approx(
            (1.0 / 1.0 + 2.0 / 3.0) / 2.0, rel=1e-12
        )
        assert average_precision([0, 0, 1], 1) == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert average_precision([1, 1, 0], 2) == pytest.approx(1.0, rel=1e-12)
        assert average_precision([0, 0, 0], 3) == 0.0

    def test_unretrieved_relevant_lower_the_score(self):
        # same ranking, one extra relevant item that never shows up
        assert average_precision([1, 0, 1], 3) < average_precision([1, 0, 1], 2)

    def test_truncation_beyond_last_relevant_is_free(self):
        a = average_precision([1, 0, 1], 2)
        b = average_precision([1, 0, 1, 0, 0, 0], 2)
        assert a == b

    def test_zero_total_warns_and_returns_zero(self):
        with pytest.warns(UserWarning):
            assert average_precision([0, 0], 0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            average_precision([1, 2, 0], 2)
        with pytest.raises(ValueError):
            average_precision([1, 0], -1)
        with pytest.raises(ValueError):
            average_precision([1, 0], 0)  # relevant retrieved but total says none


class TestLabelRelevance:
    def test_with_label_array(self):
        labels = np.array([3, 1, 3, 2, 3])
        rel = label_relevance(3, np.array([0, 1, 2, 4]), labels)
        assert rel.tolist() == [1, 0, 1, 1]

    @pytest.mark.parametrize("ids", [[True, False, True], [1.0, 0.0]], ids=["bool-mask", "float"])
    def test_rejects_non_integer_ids(self, ids):
        # a mask read as positions would score ids 1, 0, 1
        labels = np.array([1, 2, 1])
        with pytest.raises(ValueError, match="result_ids must be integers, got dtype"):
            label_relevance(1, np.asarray(ids), labels)
        assert label_relevance(1, [], labels).tolist() == []

    def test_missing_id(self):
        with pytest.raises(LookupError):
            label_relevance(1, np.array([0, 5]), np.array([1, 2]))
        with pytest.raises(ValueError):
            label_relevance(0, np.array([7]), {1: 0})

    def test_missing_id_past_int64_is_named_unwrapped(self):
        with pytest.raises(LookupError, match="no label for id 9223372036854775813$"):
            label_relevance(1, np.array([0, 2**63 + 5], dtype=np.uint64), np.array([1, 2]))

