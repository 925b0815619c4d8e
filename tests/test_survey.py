import numpy as np
import pytest

from actidist.survey import (
    ht_mean,
    median_heuristic_sigma_from_matrix,
    weighted_median,
    weighted_r2,
)
from oracles import median_heuristic_sigma


class TestHtMean:
    def test_hand_example(self):
        assert ht_mean([1, 3], [1, 3]) == 2.5

    def test_equal_weights_is_arithmetic_mean(self):
        x = [2.0, 5.0, 11.0]
        assert ht_mean(x, [2, 2, 2]) == pytest.approx(np.mean(x))

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(0)
        x, w = rng.normal(size=20), rng.uniform(0.1, 5, size=20)
        assert ht_mean(x, 13.7 * w) == pytest.approx(ht_mean(x, w), abs=1e-12)

    def test_empty(self):
        with pytest.raises(ValueError):
            ht_mean([], [])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="weights must be positive and finite"):
            ht_mean([1.0, 2.0], [1.0, np.inf])
        with pytest.raises(ValueError, match="values must be finite"):
            ht_mean([1.0, np.nan], [1.0, 1.0])


class TestWeightedMedian:
    def test_hand_examples(self):
        assert weighted_median([1, 2, 3], [1, 1, 2]) == 2
        assert weighted_median([1, 2], [3, 1]) == 1

    def test_single_value(self):
        assert weighted_median([4.2], [0.3]) == 4.2

    def test_unordered_input(self):
        # sorted values (1, 2, 3) carry weights (1, 1, 2): F(2) = 0.5
        assert weighted_median([3, 1, 2], [2, 1, 1]) == 2

    def test_rescaling_invariance_at_exact_half(self):
        # cumulative weight hits exactly 0.5 at the first of two equal weights
        for c in (1.0, 0.1, 3.0, 1e6):
            assert weighted_median([1.0, 2.0, 3.0, 4.0],
                                   c * np.ones(4)) == 2.0

    def test_matches_scan_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = rng.integers(1, 12)
            v = rng.normal(size=n)
            w = rng.uniform(0.1, 3.0, size=n)
            order = np.argsort(v)
            cum = np.cumsum(w[order])
            expected = v[order][int(np.argmax(cum >= 0.5 * w.sum() - 1e-12))]
            assert weighted_median(v, w) == expected


class TestMedianHeuristicSigma:
    def test_single_pair(self):
        assert median_heuristic_sigma([0.0, 3.0]) == 3.0

    def test_enumerated_pairs(self):
        # pairs: (0,0) -> 0, (0,3) -> 9, (0,3) -> 9; weighted median of
        # {0, 9, 9} with equal pair weights is 9
        assert median_heuristic_sigma([0.0, 0.0, 3.0]) == 3.0

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=7)
        w = rng.uniform(0.5, 2.0, size=7)
        pairs, pw = [], []
        for i in range(7):
            for j in range(i + 1, 7):
                pairs.append((x[i] - x[j]) ** 2)
                pw.append(w[i] * w[j])
        expected = np.sqrt(weighted_median(np.array(pairs), np.array(pw)))
        assert median_heuristic_sigma(x, w) == pytest.approx(expected, abs=1e-15)

    def test_matrix_variant_agrees(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=6)
        w = rng.uniform(0.5, 2.0, size=6)
        d = np.abs(x[:, None] - x[None, :])
        assert median_heuristic_sigma_from_matrix(d, w) == pytest.approx(
            median_heuristic_sigma(x, w), abs=1e-15)

    def test_rescaling_invariance(self):
        x = np.array([0.0, 1.0, 5.0, 9.0])
        w = np.array([1.0, 2.0, 0.5, 3.0])
        assert median_heuristic_sigma(x, 4.0 * w) == median_heuristic_sigma(x, w)

    def test_degenerate(self):
        with pytest.raises(ValueError, match="degenerate predictor set"):
            median_heuristic_sigma([2.0, 2.0, 2.0])


class TestWeightedR2:
    def test_perfect_predictions(self):
        y = np.array([1.0, 2.0, 3.0])
        assert weighted_r2(y, y, [1, 2, 3]) == 1.0

    def test_predicting_weighted_mean_scores_zero(self):
        y = np.array([0.0, 2.0, 5.0])
        w = np.array([1.0, 3.0, 2.0])
        center = np.sum(w * y) / w.sum()
        assert weighted_r2(y, np.full(3, center), w) == pytest.approx(0.0, abs=1e-15)

    def test_can_be_negative(self):
        assert weighted_r2([0, 2], [2, 0], [1, 1]) == -3.0

    def test_constant_response(self):
        with pytest.raises(ValueError, match="zero variance response"):
            weighted_r2([2, 2, 2], [2, 2, 2], [1, 1, 1])

    def test_constant_response_with_rounded_mean(self):
        # sum(w * y) / sum(w) is not exactly 1.25 at these weights
        with pytest.raises(ValueError, match="zero variance response"):
            weighted_r2([1.25, 1.25, 1.25], [1.35, 1.05, 1.55], [0.1, 0.1, 0.1])

    def test_underflowing_variance_is_zero_variance(self):
        # the responses differ, but their weighted variance underflows to 0
        y = [2.2e-313, 0.0, 0.0]
        with pytest.raises(ValueError, match="zero variance response"):
            weighted_r2(y, [0.0, 0.0, 0.0], [1, 1, 1])

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(4)
        y, yhat = rng.normal(size=15), rng.normal(size=15)
        w = rng.uniform(0.1, 4, size=15)
        assert weighted_r2(y, yhat, 0.01 * w) == pytest.approx(
            weighted_r2(y, yhat, w), abs=1e-12)

    def test_missing_predictions_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            weighted_r2([1.0, 2.0], [np.nan, 2.0], [1, 1])


class TestDuplicateSplit:
    def test_ht_mean_and_r2_exact(self):
        y = np.array([1.0, 4.0, 2.0])
        w = np.array([2.0, 1.0, 4.0])
        y_split = np.array([1.0, 1.0, 4.0, 2.0])
        w_split = np.array([1.0, 1.0, 1.0, 4.0])
        assert ht_mean(y_split, w_split) == ht_mean(y, w)
        yhat = np.array([0.5, 3.0, 2.5])
        yhat_split = np.array([0.5, 0.5, 3.0, 2.5])
        assert weighted_r2(y_split, yhat_split, w_split) == weighted_r2(y, yhat, w)

    def test_weighted_median_unchanged(self):
        v = np.array([1.0, 2.0, 3.0])
        w = np.array([2.0, 2.0, 4.0])
        v_split = np.array([1.0, 2.0, 3.0, 3.0])
        w_split = np.array([2.0, 2.0, 2.0, 2.0])
        assert weighted_median(v_split, w_split) == weighted_median(v, w)
