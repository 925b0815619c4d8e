import numpy as np
import pytest

from actidist.distribution import QuantileGrid
from actidist.evaluation import group_profiles, weighted_auc
from actidist.geometry import frechet_mean, frechet_variance, pointwise_sd_curve, summarize
from actidist.regression import SurveySample
from actidist.survey import (
    check_weights,
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

    def test_nan_distance_rejected(self):
        d = np.array([[0.0, 1.0, np.nan], [1.0, 0.0, 2.0], [np.nan, 2.0, 0.0]])
        with pytest.raises(ValueError, match="distances must be nonnegative, not NaN"):
            median_heuristic_sigma_from_matrix(d)

    def test_negative_distance_rejected(self):
        d = np.array([[0.0, 1.0, -3.0], [1.0, 0.0, 2.0], [-3.0, 2.0, 0.0]])
        with pytest.raises(ValueError, match="distances must be nonnegative, not NaN"):
            median_heuristic_sigma_from_matrix(d)


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


GRIDS = np.array([[0.0, 1.0, 2.0], [1.0, 1.0, 3.0], [0.0, 2.0, 5.0]])
POINTS = np.array([0.0, 1.0, 3.0])

# every weighted entry point, called on a three-unit sample with weights w
WEIGHTED_ENTRY_POINTS = {
    "ht_mean": lambda w: ht_mean(POINTS, w),
    "weighted_median": lambda w: weighted_median(POINTS, w),
    "weighted_r2": lambda w: weighted_r2(POINTS, POINTS[::-1], w),
    "median_heuristic_sigma_from_matrix": lambda w: median_heuristic_sigma_from_matrix(
        np.abs(POINTS[:, None] - POINTS[None, :]), w),
    "frechet_mean": lambda w: frechet_mean(GRIDS, w),
    "frechet_variance": lambda w: frechet_variance(GRIDS, QuantileGrid(GRIDS[0]), w),
    "pointwise_sd_curve": lambda w: pointwise_sd_curve(GRIDS, QuantileGrid(GRIDS[0]), w),
    "summarize": lambda w: summarize(GRIDS, w),
    "group_profiles": lambda w: group_profiles(GRIDS, w, ["a", "b", "a"]),
    "SurveySample": lambda w: SurveySample(GRIDS, POINTS, w),
    "weighted_auc": lambda w: weighted_auc([0.9, 0.2, 0.4], [1, 0, 1], w),
}

BAD_WEIGHTS = {
    "nan": [1.0, np.nan, 1.0],
    "inf": [1.0, np.inf, 1.0],
    "zero": [1.0, 0.0, 1.0],
    "negative": [1.0, -1.0, 1.0],
    "wrong_length": [1.0, 1.0],
    "overflowing_sum": [1e308, 1e308, 1.0],
}


class TestWeightRule:
    @pytest.mark.parametrize("bad", BAD_WEIGHTS.values(), ids=BAD_WEIGHTS.keys())
    @pytest.mark.parametrize("call", WEIGHTED_ENTRY_POINTS.values(),
                             ids=WEIGHTED_ENTRY_POINTS.keys())
    def test_bad_weights_rejected(self, call, bad):
        with pytest.raises(ValueError, match="weights must"):
            call(bad)

    def test_check_weights(self):
        assert check_weights(None, 3).tolist() == [1.0, 1.0, 1.0]
        w = np.array([2.0, 3.0])
        checked = check_weights(w, 2)
        assert checked.tolist() == [2.0, 3.0] and checked is not w
        assert check_weights([1e-320, 1e300], 2).tolist() == [1e-320, 1e300]


class TestHeuristicWeightRange:
    def distances(self, n=9):
        x = np.random.default_rng(11).normal(size=n)
        return np.abs(x[:, None] - x[None, :])

    @pytest.mark.parametrize("c", [1e-170, 1e170])
    def test_equal_weights_of_any_size_give_unit_sigma(self, c):
        d = self.distances()
        assert (median_heuristic_sigma_from_matrix(d, [c] * 9)
                == median_heuristic_sigma_from_matrix(d))

    def test_weights_spanning_200_decades(self):
        sigma = median_heuristic_sigma_from_matrix(self.distances(),
                                                   np.logspace(-200, 0, 9))
        assert np.isfinite(sigma) and sigma > 0

    def test_one_dominant_weight_keeps_its_pairs(self):
        # every pair weight but those of unit 0 underflows: sigma is the
        # unit-weight median over unit 0's pairs
        d = self.distances()
        w = [1e300] + [1e-30] * 8
        expected = np.sqrt(weighted_median(d[0, 1:] ** 2))
        assert median_heuristic_sigma_from_matrix(d, w) == expected


class TestWeightedAucWeightRange:
    @pytest.mark.parametrize("c", [1e-170, 1e200])
    def test_equal_weights_of_any_size(self, c):
        p, y = [0.9, 0.2, 0.4, 0.4], [1, 0, 1, 0]
        assert weighted_auc(p, y, [c] * 4) == weighted_auc(p, y, [1.0] * 4) == 0.875

    def test_non_finite_probabilities_rejected(self):
        with pytest.raises(ValueError, match="probabilities must be finite"):
            weighted_auc([0.9, np.nan], [1, 0], [1.0, 1.0])
