import warnings

import numpy as np
import pytest

from actidist.datagen import (
    StratifiedDesign,
    draw_sample,
    simulate_population,
    spread_response_spec,
    tac_response_spec,
    two_cluster_spec,
)
from actidist.distribution import QuantileGrid
from actidist.evaluation import (
    RISK_GROUP_A,
    RISK_GROUP_B,
    UNASSIGNED,
    ClassificationOutcome,
    assign_risk_groups,
    classify_mortality,
    compare_r2,
    group_profiles,
    stratify_age,
    survey_sample_from_subjects,
    weighted_auc,
)
from actidist.geometry import summarize
from actidist.regression import SurveySample
from oracles import refit_loo


def make_outcome(predicted, actual, classified=None):
    n = len(predicted)
    predicted = np.asarray(predicted)
    actual = np.asarray(actual)
    if classified is None:
        classified = np.ones(n, dtype=bool)
    return ClassificationOutcome(
        probabilities=predicted.astype(float), predicted=predicted, actual=actual,
        weights=np.ones(n), classified=classified, threshold=0.5, bandwidth=1.0,
        tp=0.0, fp=0.0, tn=0.0, fn=0.0, auc=float("nan"),
    )


class TestCompareR2:
    def test_spread_signal_prefers_distribution(self):
        pop, _ = simulate_population(spread_response_spec(80, seed=1, minutes=600))
        subjects = draw_sample(pop, StratifiedDesign({"all": 0.9}), seed=2)
        dist = survey_sample_from_subjects(subjects, "quantiles", "response", m=120)
        tac = survey_sample_from_subjects(subjects, "tac", "response")
        result = compare_r2(dist, tac)
        assert result.distribution.r2 > result.tac.r2

    def test_tac_signal_is_captured_by_tac(self):
        pop, _ = simulate_population(tac_response_spec(100, seed=3, minutes=400))
        subjects = draw_sample(pop, StratifiedDesign({"all": 1.0}), seed=4)
        dist = survey_sample_from_subjects(subjects, "quantiles", "response", m=120)
        tac = survey_sample_from_subjects(subjects, "tac", "response")
        result = compare_r2(dist, tac)
        assert result.tac.r2 >= 0.95

    def test_noise_response_scores_low(self):
        lows = 0
        reps = 50
        for rep in range(reps):
            rng = np.random.default_rng(100 + rep)
            grids = [QuantileGrid(np.sort(rng.gamma(2, 30, size=40)))
                     for _ in range(60)]
            tac_vals = np.asarray([1440 * g.mean() for g in grids])
            w = rng.uniform(0.5, 3, size=60)
            y = rng.standard_normal(60)
            y = y - np.sum(w * y) / w.sum()
            result = compare_r2(SurveySample(grids, y, w),
                                SurveySample(tac_vals, y, w))
            if result.distribution.r2 <= 0.1 and result.tac.r2 <= 0.1:
                lows += 1
        assert lows >= 0.9 * reps

    def test_each_degenerate_entry_refitted_once_per_side(self, monkeypatch):
        # compare_r2 refits nothing, and on each side the entries with
        # 1 - H_ii below 1e-10 agree with the explicit refit
        from actidist import regression

        rng = np.random.default_rng(15)
        y, w = rng.normal(size=40), np.full(40, 1e9)
        grids = [QuantileGrid(np.sort(rng.gamma(2, 30, size=8))) for _ in range(40)]
        sides = {"grid": SurveySample(grids, y, w),
                 "tac": SurveySample(rng.normal(size=40), y, w)}
        lambda_grid = [1e-9, 1e-6, 1e-3]
        fits = []
        real = regression.krr_fit

        def counting(*args, **kwargs):
            fits.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(regression, "krr_fit", counting)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            compare_r2(sides["grid"], sides["tac"], lambda_grid)
        monkeypatch.undo()
        assert fits == []
        marked = 0
        for s in sides.values():
            sigma = regression._median_sigma(s)
            _, denom = regression._krr_loo_hat(s, np.asarray(lambda_grid), sigma)
            every = regression.krr_loo(s, np.asarray(lambda_grid), sigma=sigma)
            for j, lam in enumerate(lambda_grid):
                degenerate = denom[:, j] < 1e-10
                marked += int(degenerate.sum())
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)
                    refit = refit_loo(s, lam, sigma)
                np.testing.assert_allclose(every[degenerate, j], refit[degenerate],
                                           rtol=0, atol=1e-8)
        assert marked

    def test_mismatched_responses_rejected(self):
        grids = [QuantileGrid(np.array([0.0, 1.0])), QuantileGrid(np.array([2.0, 3.0]))]
        a = SurveySample(grids, np.array([0.0, 1.0]))
        b = SurveySample(np.array([1.0, 2.0]), np.array([0.0, 2.0]))
        with pytest.raises(ValueError, match="responses differ"):
            compare_r2(a, b)

    @pytest.mark.parametrize("tac, weights, message", [
        ([1.0, 2.0, 3.0], None, "samples must cover the same subjects"),
        ([1.0, 2.0], [1.0, 2.0], "weights differ between samples"),
    ], ids=["size", "weights"])
    def test_mismatched_samples_rejected(self, tac, weights, message):
        grids = [QuantileGrid(np.array([0.0, 1.0])), QuantileGrid(np.array([2.0, 3.0]))]
        a = SurveySample(grids, np.array([0.0, 1.0]))
        b = SurveySample(np.array(tac), np.arange(len(tac), dtype=float), weights)
        with pytest.raises(ValueError, match=message):
            compare_r2(a, b)

    def test_unknown_predictor_kind_rejected(self):
        pop, _ = simulate_population(spread_response_spec(3, seed=1, minutes=20))
        with pytest.raises(ValueError, match="unknown predictor kind 'grids'"):
            survey_sample_from_subjects(pop, predictor="grids")


class TestClassifyMortality:
    def test_all_negative_cohort(self):
        rng = np.random.default_rng(5)
        sample = SurveySample(rng.normal(size=10), np.zeros(10))
        out = classify_mortality(sample, 1.0)
        assert np.all(out.probabilities == 0.0)
        assert out.tp == 0.0 and out.fp == 0.0

    @pytest.mark.parametrize("threshold", [True, np.nan, "0.5"], ids=["bool", "nan", "text"])
    def test_threshold_that_is_no_number_in_unit_interval_rejected(self, threshold):
        sample = SurveySample(np.arange(4.0), [0.0, 1.0, 0.0, 1.0])
        with pytest.raises(ValueError, match=r"threshold must lie in \[0, 1\]"):
            classify_mortality(sample, 1.0, threshold=threshold)

    def test_zero_threshold_predicts_all_positive(self):
        rng = np.random.default_rng(6)
        y = (rng.random(10) < 0.5).astype(float)
        sample = SurveySample(rng.normal(size=10), y)
        out = classify_mortality(sample, 1.0, threshold=0.0)
        assert np.all(out.predicted == 1)
        assert out.fn == 0.0

    def test_separated_clusters_classify_perfectly(self):
        pop, _ = simulate_population(two_cluster_spec(60, seed=7, minutes=300))
        subjects = draw_sample(pop, StratifiedDesign({"frail": 0.9, "active": 0.9}),
                               seed=8)
        sample = survey_sample_from_subjects(subjects, "quantiles", "mortality", m=100)
        out = classify_mortality(sample, threshold=0.5)
        assert out.weighted_accuracy == 1.0

    def test_nonbinary_rejected(self):
        sample = SurveySample(np.array([0.0, 1.0]), np.array([0.0, 2.0]))
        with pytest.raises(ValueError, match="0/1"):
            classify_mortality(sample, 1.0)

    def test_partition_law_with_dyadic_weights(self):
        rng = np.random.default_rng(9)
        n = 24
        y = (rng.random(n) < 0.4).astype(float)
        w = rng.integers(1, 9, size=n) / 4.0
        sample = SurveySample(rng.normal(size=n) + 2 * y, y, w)
        out = classify_mortality(sample, 0.8)
        assert out.tp + out.fp + out.tn + out.fn == w[out.classified].sum()

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(10)
        n = 20
        y = (rng.random(n) < 0.5).astype(float)
        sample = SurveySample(rng.normal(size=n), y, rng.uniform(0.5, 2, n))
        bandwidth = 1.0
        prev = np.inf
        for threshold in (0.0, 0.25, 0.5, 0.75, 1.0):
            out = classify_mortality(sample, bandwidth, threshold=threshold)
            assert out.tp + out.fp <= prev + 1e-12
            prev = out.tp + out.fp


class TestWeightedAuc:
    def test_perfect_separation(self):
        assert weighted_auc([0.9, 0.8, 0.1], [1, 1, 0], [1, 1, 1]) == 1.0

    def test_ties_count_half(self):
        assert weighted_auc([0.5, 0.5], [1, 0], [2.0, 3.0]) == 0.5

    def test_single_class_is_nan(self):
        assert np.isnan(weighted_auc([0.2, 0.4], [1, 1], [1, 1]))


class TestRiskGroups:
    def test_truth_table(self):
        outcome = make_outcome(predicted=[1, 0, 1, 0], actual=[0, 0, 1, 1])
        assert assign_risk_groups(outcome) == [
            RISK_GROUP_A, RISK_GROUP_B, UNASSIGNED, UNASSIGNED]

    def test_unclassified_is_unassigned(self):
        outcome = make_outcome(predicted=[0], actual=[0],
                               classified=np.array([False]))
        assert assign_risk_groups(outcome) == [UNASSIGNED]

    def test_groups_are_exclusive(self):
        rng = np.random.default_rng(11)
        outcome = make_outcome(predicted=rng.integers(0, 2, 50),
                               actual=rng.integers(0, 2, 50))
        labels = assign_risk_groups(outcome)
        for pred, act, label in zip(outcome.predicted, outcome.actual, labels):
            expected = (RISK_GROUP_A if (pred, act) == (1, 0)
                        else RISK_GROUP_B if (pred, act) == (0, 0)
                        else UNASSIGNED)
            assert label == expected


class TestStratifyAge:
    def test_boundaries(self):
        assert stratify_age([75]) == ["68-75"]
        assert stratify_age([76]) == ["76-80"]
        assert stratify_age([68, 80, 81, 85]) == ["68-75", "76-80", "81-85", "81-85"]

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="outside target population"):
            stratify_age([90])

    def test_fractional_age_rejected(self):
        with pytest.raises(ValueError, match="outside target population"):
            stratify_age([75.5])

    def test_integral_float_accepted(self):
        assert stratify_age([75.0]) == ["68-75"]
        assert stratify_age(np.array([70, 77])) == ["68-75", "76-80"]

    @pytest.mark.parametrize("age", [np.inf, np.nan, "70", True],
                             ids=["inf", "nan", "text", "bool"])
    def test_age_that_is_no_whole_number_rejected(self, age):
        with pytest.raises(ValueError, match=f"outside target population: age {age!r}"):
            stratify_age([70, age])


class TestGroupProfiles:
    def grids(self):
        return [QuantileGrid(np.full(6, float(v))) for v in (0, 0, 4, 4)]

    def test_single_group_equals_global(self):
        grids = self.grids()
        w = np.array([1.0, 2.0, 1.0, 2.0])
        profiles = group_profiles(grids, w, ["all"] * 4)
        expected = summarize(grids, w)
        np.testing.assert_array_equal(profiles["all"].mean.values,
                                      expected.mean.values)

    def test_point_mass_groups(self):
        grids = self.grids()
        labels = ["lo", "lo", "hi", "hi"]
        profiles = group_profiles(grids, np.ones(4), labels)
        assert np.all(profiles["lo"].mean.values == 0.0)
        assert np.all(profiles["hi"].mean.values == 4.0)

    def test_labels_must_match_grids(self):
        with pytest.raises(ValueError, match="labels must match grids"):
            group_profiles(self.grids(), np.ones(4), ["a", "b", "a"])

    def test_duplicated_members_identical_summaries(self):
        grids = self.grids()
        labels = ["a", "b", "a", "b"]
        profiles = group_profiles(grids, np.ones(4), labels)
        np.testing.assert_array_equal(profiles["a"].mean.values,
                                      profiles["b"].mean.values)
