import re
import warnings

import numpy as np
import pytest

from actidist import io
from actidist.distribution import QuantileGrid, check_quantile_rows, quantiles_from_values
from actidist.evaluation import group_profiles
from actidist.geometry import (
    frechet_mean,
    frechet_variance,
    pairwise_wasserstein,
    pointwise_sd_curve,
    summarize,
)
from actidist.regression import KrrModel, SurveySample, krr_fit, krr_predict_batch
from oracles import broadcast_distances, frechet_objective, wasserstein2


def point_mass(value, m=10):
    return QuantileGrid(np.full(m, float(value)))


def uniform_grid(upper, m):
    t = (np.arange(1, m + 1) - 0.5) / m
    return QuantileGrid(upper * t)


def random_grids(rng, n, m):
    return [QuantileGrid(np.sort(rng.gamma(2.0, 40.0, size=m))) for _ in range(n)]


def distance(a, b):
    """The distance between two grids, from a 1 x 1 pairwise_wasserstein."""
    return pairwise_wasserstein([a], [b])[0, 0]


class TestWasserstein2:
    def test_identity(self):
        g = point_mass(3.0)
        assert distance(g, g) == 0.0

    def test_point_masses(self):
        assert distance(point_mass(2), point_mass(5)) == 3.0

    def test_uniform_closed_form(self):
        # int_0^1 t^2 dt = 1/3 between Uniform(0,1) and Uniform(0,2)
        d = distance(uniform_grid(1.0, 1000), uniform_grid(2.0, 1000))
        assert d == pytest.approx(np.sqrt(1 / 3), abs=1e-3)

    def test_grid_mismatch(self):
        with pytest.raises(ValueError, match="grid mismatch"):
            distance(point_mass(1, m=4), point_mass(1, m=5))

    def test_metric_axioms_on_random_triples(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            d = pairwise_wasserstein(random_grids(rng, 3, 25))
            np.testing.assert_array_equal(d, d.T)
            np.testing.assert_array_equal(np.diag(d), 0.0)
            assert d[0, 2] <= d[0, 1] + d[1, 2] + 1e-12

    def test_grid_refinement_consistency(self):
        vals = np.random.default_rng(1).lognormal(3, 1, size=64)
        other = np.random.default_rng(2).lognormal(3.5, 0.8, size=64)
        m = 100
        d_m = distance(quantiles_from_values(vals, m),
                       quantiles_from_values(other, m))
        d_2m = distance(quantiles_from_values(vals, 2 * m),
                        quantiles_from_values(other, 2 * m))
        assert abs(d_m - d_2m) <= max(np.ptp(vals), np.ptp(other)) / m

    def test_grid_refinement_on_uniform_example(self):
        for m in (50, 100, 500):
            d_m = distance(uniform_grid(1.0, m), uniform_grid(2.0, m))
            d_2m = distance(uniform_grid(1.0, 2 * m), uniform_grid(2.0, 2 * m))
            assert abs(d_m - d_2m) <= 2.0 / m

    def test_pairwise_matrix_matches_scalar(self):
        rng = np.random.default_rng(3)
        grids = random_grids(rng, 5, 12)
        mat = pairwise_wasserstein(grids)
        for i in range(5):
            for j in range(5):
                assert mat[i, j] == pytest.approx(wasserstein2(grids[i], grids[j]),
                                                  abs=1e-12)


class TestPairwiseGramForm:
    @pytest.mark.parametrize("shift", [0.0, 1e4])
    def test_matches_broadcast_oracle(self, shift):
        # the +1e4 shift puts every value far from zero, where the Gram form
        # would cancel without column centring
        rng = np.random.default_rng(31)
        x = np.sort(rng.gamma(2.0, 30.0, size=(40, 60)), axis=1) + shift
        q = np.sort(rng.gamma(2.0, 30.0, size=(7, 60)), axis=1) + shift
        for got, want in ((pairwise_wasserstein(x), broadcast_distances(x, x)),
                          (pairwise_wasserstein(q, x), broadcast_distances(q, x))):
            pos = want > 0
            assert np.max(np.abs(got - want)[pos] / want[pos]) <= 1e-10
            assert np.all(got[~pos] == 0.0)

    def test_duplicates_exact_zero_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(32)
        x = np.sort(rng.gamma(2.0, 30.0, size=(20, 50)), axis=1) + 1e4
        x[5] = x[2]
        x[11] = x[2]
        d = pairwise_wasserstein(x)
        twins = [2, 5, 11]
        assert np.all(d[np.ix_(twins, twins)] == 0.0)
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0.0)
        assert np.count_nonzero(d == 0.0) == 20 + 6
        assert np.all(pairwise_wasserstein(x[[5]], x)[0, twins] == 0.0)

    def test_scalars_are_point_masses(self):
        x = np.array([0.5, -2.0, 3.25])
        np.testing.assert_array_equal(pairwise_wasserstein(x),
                                      np.abs(x[:, None] - x[None, :]))


class TestFrechetMean:
    def test_identical_grids(self):
        g = point_mass(4.0)
        np.testing.assert_array_equal(frechet_mean([g, g]).values, g.values)

    def test_uniform_weights_midpoint(self):
        mean = frechet_mean([point_mass(0), point_mass(4)])
        assert np.all(mean.values == 2.0)

    def test_unequal_weights(self):
        mean = frechet_mean([point_mass(0), point_mass(4)], weights=[1, 3])
        assert np.all(mean.values == 3.0)

    def test_empty_list(self):
        with pytest.raises(ValueError):
            frechet_mean([])

    def test_weight_rescaling_invariance(self):
        rng = np.random.default_rng(4)
        grids = random_grids(rng, 6, 15)
        w = rng.uniform(0.5, 4.0, size=6)
        a = frechet_mean(grids, w)
        b = frechet_mean(grids, 7.3 * w)
        np.testing.assert_allclose(a.values, b.values, atol=1e-12)


class TestFrechetVariance:
    def test_identical_grids(self):
        g = point_mass(1.0)
        assert frechet_variance([g, g, g], g) == 0.0

    def test_two_point_masses_unweighted(self):
        grids = [point_mass(0), point_mass(4)]
        mean = frechet_mean(grids)
        # squared distances to the mean are 4 and 4, each of weight 1/2
        assert frechet_variance(grids, mean) == 4.0

    def test_translation_invariance(self):
        rng = np.random.default_rng(5)
        grids = random_grids(rng, 5, 20)
        mean = frechet_mean(grids)
        shifted = [QuantileGrid(g.values + 11.0) for g in grids]
        shifted_mean = QuantileGrid(mean.values + 11.0)
        assert frechet_variance(shifted, shifted_mean) == pytest.approx(
            frechet_variance(grids, mean), rel=1e-12)

    def test_mean_of_another_grid_size_rejected(self):
        with pytest.raises(ValueError, match="grid mismatch"):
            frechet_variance([point_mass(0), point_mass(4)], point_mass(2, m=5))

    def test_single_unweighted_grid_has_zero_dispersion(self):
        g = point_mass(1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert frechet_variance([g], g) == 0.0
            assert np.all(pointwise_sd_curve([g], g) == 0.0)
            summary = summarize([g])
        assert summary.variance == 0.0 and np.all(summary.pointwise_sd == 0.0)


class TestPointwiseSd:
    def test_identical_grids(self):
        g = point_mass(2.0)
        assert np.all(pointwise_sd_curve([g, g], g) == 0.0)

    def test_two_point_masses(self):
        grids = [point_mass(0), point_mass(4)]
        sd = pointwise_sd_curve(grids, frechet_mean(grids))
        np.testing.assert_allclose(sd, 2.0)

    def test_integral_identity(self):
        rng = np.random.default_rng(6)
        grids = random_grids(rng, 7, 30)
        mean = frechet_mean(grids)
        sd = pointwise_sd_curve(grids, mean)
        assert np.mean(sd ** 2) == pytest.approx(frechet_variance(grids, mean),
                                                 rel=1e-12)

    def test_weighted_integral_identity(self):
        rng = np.random.default_rng(7)
        grids = random_grids(rng, 7, 30)
        w = rng.uniform(0.2, 5.0, size=7)
        mean = frechet_mean(grids, w)
        sd = pointwise_sd_curve(grids, mean, w)
        assert np.mean(sd ** 2) == pytest.approx(
            frechet_variance(grids, mean, w), rel=1e-12)


class TestMinimizer:
    def test_mean_beats_monotone_perturbations(self):
        rng = np.random.default_rng(8)
        grids = random_grids(rng, 6, 25)
        w = rng.uniform(0.5, 3.0, size=6)
        mean = frechet_mean(grids, w)
        base = frechet_objective(grids, mean, w)
        for _ in range(25):
            bumps = np.maximum.accumulate(rng.normal(0, 5.0, size=25))
            candidate = QuantileGrid(np.maximum(mean.values + bumps - bumps.min(), 0.0))
            assert base <= frechet_objective(grids, candidate, w) + 1e-12


class TestSummarize:
    def test_matches_components(self):
        rng = np.random.default_rng(9)
        grids = random_grids(rng, 5, 18)
        w = rng.uniform(1, 2, size=5)
        summary = summarize(grids, w)
        np.testing.assert_array_equal(summary.mean.values,
                                      frechet_mean(grids, w).values)
        assert summary.variance == frechet_variance(grids, summary.mean, w)
        assert summary.total_weight == pytest.approx(w.sum())


def summary_fields(summary):
    return summary.mean.values, summary.variance, summary.pointwise_sd, summary.total_weight


# every Frechet function, called on cohort x with weights w, as a tuple of
# its result's fields
FRECHET_FUNCTIONS = {
    "frechet_mean": lambda x, w: (frechet_mean(x, w).values,),
    "frechet_variance": lambda x, w: (frechet_variance(x, QuantileGrid(x[0]), w),),
    "pointwise_sd_curve": lambda x, w: (pointwise_sd_curve(x, QuantileGrid(x[0]), w),),
    "summarize": lambda x, w: summary_fields(summarize(x, w)),
}


@pytest.mark.parametrize("function", FRECHET_FUNCTIONS)
def test_no_weights_are_unit_weights_bit_for_bit(function):
    x = np.stack([g.values for g in random_grids(np.random.default_rng(11), 7, 20)])
    got = FRECHET_FUNCTIONS[function](x, None)
    want = FRECHET_FUNCTIONS[function](x, np.ones(7))
    assert [np.asarray(v).tobytes() for v in got] == [np.asarray(v).tobytes() for v in want]
    assert summarize(x).total_weight == 7


# a row of each kind that check_quantile_rows rejects, added to two good rows
BAD_ROWS = {"nan": [0.0, np.nan, 2.0], "inf": [0.0, 1.0, np.inf],
            "decreasing": [0.0, 2.0, 1.0], "negative": [-1.0, 0.0, 1.0]}
GOOD_ROWS = np.array([[0.0, 1.0, 2.0], [1.0, 1.5, 4.0]])

# every public function that takes a cohort, called on cohort x in directory d;
# x has three rows, or is one grid of three values
COHORT_TAKERS = {
    "pairwise_wasserstein": lambda x, d: pairwise_wasserstein(x),
    "pairwise_wasserstein_y": lambda x, d: pairwise_wasserstein(GOOD_ROWS, x),
    "frechet_mean": lambda x, d: frechet_mean(x),
    "frechet_variance": lambda x, d: frechet_variance(x, QuantileGrid(GOOD_ROWS[0])),
    "pointwise_sd_curve": lambda x, d: pointwise_sd_curve(x, QuantileGrid(GOOD_ROWS[0])),
    "summarize": lambda x, d: summarize(x),
    "group_profiles": lambda x, d: group_profiles(x, None, ["g"] * 3),
    "write_quantile_csv": lambda x, d: io.write_quantile_csv(d / "q.csv", "abc", x),
    "SurveySample": lambda x, d: SurveySample(x, np.zeros(3)),
    "KrrModel": lambda x, d: KrrModel(x, np.zeros(3), sigma=1.0, lam=0.5),
    "krr_predict_batch": lambda x, d: krr_predict_batch(
        krr_fit(SurveySample(GOOD_ROWS, [0.0, 1.0]), lam=0.5, sigma=1.0), x),
}


class TestCohortForms:
    """A cohort may be a list of QuantileGrid or the (n, m) matrix of its rows."""

    @pytest.mark.parametrize("bad", BAD_ROWS)
    @pytest.mark.parametrize("taker", COHORT_TAKERS)
    def test_every_cohort_taker_rejects_a_bad_row(self, tmp_path, taker, bad):
        with pytest.raises(ValueError) as expected:
            check_quantile_rows(np.array(BAD_ROWS[bad]))
        cohort = np.vstack([GOOD_ROWS, BAD_ROWS[bad]])
        for form in (cohort, list(cohort)):
            with pytest.raises(ValueError, match=re.escape(str(expected.value))):
                COHORT_TAKERS[taker](form, tmp_path)
        assert not (tmp_path / "q.csv").exists()

    @pytest.mark.parametrize("taker", COHORT_TAKERS)
    def test_every_cohort_taker_rejects_a_bare_grid(self, tmp_path, taker):
        # as an array, the grid would be three scalar predictors
        with pytest.raises(ValueError, match=re.escape("pass one grid as [grid]")):
            COHORT_TAKERS[taker](QuantileGrid(GOOD_ROWS[0]), tmp_path)
        assert not (tmp_path / "q.csv").exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_scalars_rejected_before_any_warning(self, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: pairwise_wasserstein([1.0, value]),
                         lambda: pairwise_wasserstein([0.5, 2.0], [1.0, value])):
                with pytest.raises(ValueError, match="finite scalars"):
                    call()

    def test_list_and_matrix_agree(self):
        rng = np.random.default_rng(10)
        grids = random_grids(rng, 6, 20)
        x = np.stack([g.values for g in grids])
        w = rng.uniform(0.5, 3.0, size=6)
        np.testing.assert_array_equal(pairwise_wasserstein(grids), pairwise_wasserstein(x))
        np.testing.assert_array_equal(pairwise_wasserstein(grids[:2], grids),
                                      pairwise_wasserstein(x[:2], x))
        for weights in (None, w):
            mean = frechet_mean(grids, weights)
            np.testing.assert_array_equal(mean.values, frechet_mean(x, weights).values)
            assert frechet_variance(grids, mean, weights) == frechet_variance(x, mean, weights)
            np.testing.assert_array_equal(pointwise_sd_curve(grids, mean, weights),
                                          pointwise_sd_curve(x, mean, weights))
            a, b = summarize(grids, weights), summarize(x, weights)
            np.testing.assert_array_equal(a.mean.values, b.mean.values)
            np.testing.assert_array_equal(a.pointwise_sd, b.pointwise_sd)
            assert (a.variance, a.total_weight) == (b.variance, b.total_weight)

    def test_ragged_list_is_a_grid_mismatch(self):
        ragged = [point_mass(1.0, m=4), point_mass(2.0, m=5)]
        for call in (lambda: pairwise_wasserstein(ragged),
                     lambda: pairwise_wasserstein(ragged[:1], ragged),
                     lambda: frechet_mean(ragged),
                     lambda: summarize(ragged)):
            with pytest.raises(ValueError, match="grid mismatch"):
                call()

    def test_value_that_is_no_number_keeps_numpys_message(self):
        with pytest.raises(ValueError, match="could not convert string to float: 'a'"):
            pairwise_wasserstein([[0.0, "a"], [1.0, 2.0]])

    def test_single_grid_is_not_a_cohort(self):
        g = uniform_grid(4.0, 5)
        for call in (lambda: frechet_mean(g),
                     lambda: frechet_variance(g.values, g),
                     lambda: pointwise_sd_curve(g, g),
                     lambda: summarize(g)):
            with pytest.raises(ValueError, match="an \\(n, m\\) matrix"):
                call()
        np.testing.assert_array_equal(pairwise_wasserstein([g]), [[0.0]])

    def test_matrix_widths_must_match(self):
        with pytest.raises(ValueError, match="grid mismatch"):
            pairwise_wasserstein(np.zeros((2, 4)), np.zeros((3, 5)))
