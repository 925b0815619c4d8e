import numpy as np
import pytest

from actidist.distribution import (
    ActivitySeries,
    CensorSpec,
    MAX_GRID_SIZE,
    MixedDistribution,
    NO_CENSOR,
    QuantileGrid,
    build_mixed,
    inactive_proportion,
    quantiles_from_values,
    tac_per_day,
)
from oracles import censor_series, empirical_quantiles


def series(readings, **kwargs):
    readings = np.asarray(readings, dtype=float)
    return ActivitySeries("s", np.arange(readings.size, dtype=float), readings, **kwargs)


class TestActivitySeries:
    def test_empty_series_rejected(self):
        with pytest.raises(ValueError, match="empty series"):
            ActivitySeries("s", np.array([]), np.array([]))

    def test_negative_readings_rejected(self):
        with pytest.raises(ValueError):
            series([1.0, -2.0])

    @pytest.mark.parametrize("timestamps, readings", [
        ([0.0, 1.0], [1.0, 2.0, 3.0]),
        ([[0.0, 1.0]], [[1.0, 2.0]]),
    ], ids=["misaligned", "two_axes"])
    def test_timestamps_and_readings_must_be_aligned_1d(self, timestamps, readings):
        with pytest.raises(ValueError, match="timestamps and readings must be 1-d and aligned"):
            ActivitySeries("s", np.array(timestamps), np.array(readings))

    def test_nonincreasing_timestamps_rejected(self):
        with pytest.raises(ValueError):
            ActivitySeries("s", np.array([0.0, 0.0]), np.array([1.0, 2.0]))

    @pytest.mark.parametrize("timestamps", [[0.0, np.nan, 2.0], [0.0, np.inf], [np.nan]],
                             ids=["nan_inside", "inf_last", "lone_nan"])
    def test_non_finite_timestamps_rejected(self, timestamps):
        with pytest.raises(ValueError, match="timestamps must be finite"):
            ActivitySeries("s", np.array(timestamps), np.ones(len(timestamps)))

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            series([1.0], survey_weight=0.0)

    @pytest.mark.parametrize("weight", [np.inf, np.nan], ids=["inf", "nan"])
    def test_non_finite_weight_rejected(self, weight):
        with pytest.raises(ValueError, match="survey_weight must be positive and finite"):
            series([1.0], survey_weight=weight)

    @pytest.mark.parametrize("weight", [True, "2", None], ids=["bool", "text", "none"])
    def test_weight_that_is_no_number_rejected(self, weight):
        with pytest.raises(ValueError, match="survey_weight must be positive and finite"):
            series([1.0], survey_weight=weight)

    def test_numpy_weight_becomes_a_float(self):
        assert type(series([1.0], survey_weight=np.float32(2.0)).survey_weight) is float


class TestInactiveProportion:
    def test_zero_atom_count(self):
        assert inactive_proportion(series([0, 0, 5, 0, 3])) == 0.6

    def test_no_zeros(self):
        assert inactive_proportion(series([2, 7])) == 0.0

    def test_lower_cutoff_predicate(self):
        censor = CensorSpec(lower=100)
        assert inactive_proportion(series([0, 50, 150]), censor) == pytest.approx(2 / 3)

    def test_boundary_reading_counts_as_inactive(self):
        assert inactive_proportion(series([100, 150]), CensorSpec(lower=100)) == 0.5


class TestCensorSeries:
    def test_lower(self):
        out = censor_series(series([0, 50, 150]), CensorSpec(lower=100))
        assert out.readings.tolist() == [100, 100, 150]

    def test_upper(self):
        out = censor_series(series([4000, 200]), CensorSpec(upper=3500))
        assert out.readings.tolist() == [3500, 200]

    def test_no_bounds_identity(self):
        out = censor_series(series([0, 5]), NO_CENSOR)
        assert out.readings.tolist() == [0, 5]

    def test_invalid_bounds(self):
        with pytest.raises(ValueError, match="invalid censor bounds"):
            CensorSpec(lower=200, upper=100)

    @pytest.mark.parametrize("lower, upper", [(True, 3500), (None, True), ("100", None)],
                             ids=["lower_bool", "upper_bool", "lower_text"])
    def test_bound_that_is_no_number_rejected(self, lower, upper):
        with pytest.raises(ValueError, match="invalid censor bounds"):
            CensorSpec(lower=lower, upper=upper)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        s = series(rng.integers(0, 5000, size=50))
        censor = CensorSpec(lower=100, upper=3500)
        once = censor_series(s, censor)
        twice = censor_series(once, censor)
        assert np.array_equal(once.readings, twice.readings)

    def test_metadata_untouched(self):
        s = series([1, 2], survey_weight=3.5)
        out = censor_series(s, CensorSpec(upper=1.5))
        assert out.survey_weight == 3.5
        assert np.array_equal(out.timestamps, s.timestamps)


def quantile_oracle(values, m):
    """Scan-based generalized inverse inf{x : F(x) >= t}, independent of the
    rank arithmetic used by the implementation."""
    ordered = np.sort(np.asarray(values, dtype=float))
    n = ordered.size
    out = []
    for k in range(1, m + 1):
        t = (k - 0.5) / m
        for j in range(n):
            if (j + 1) / n >= t - 1e-15:
                out.append(ordered[j])
                break
    return np.array(out)


class TestEmpiricalQuantiles:
    def test_hand_example(self):
        grid = empirical_quantiles(series([0, 0, 2, 4]), m=4)
        assert grid.values.tolist() == [0, 0, 2, 4]
        assert grid.levels.tolist() == [0.125, 0.375, 0.625, 0.875]

    def test_point_mass(self):
        grid = empirical_quantiles(series([7, 7, 7]), m=6)
        assert np.all(grid.values == 7)

    def test_single_observation(self):
        assert empirical_quantiles(series([1]), m=3).values.tolist() == [1, 1, 1]

    def test_matches_scan_oracle(self):
        rng = np.random.default_rng(3)
        for n, m in [(3, 7), (10, 10), (17, 4), (8, 25)]:
            values = np.round(rng.gamma(2.0, 50.0, size=n), 3)
            got = quantiles_from_values(values, m).values
            np.testing.assert_array_equal(got, quantile_oracle(values, m))

    def test_monotone(self):
        rng = np.random.default_rng(4)
        grid = quantiles_from_values(rng.lognormal(3, 1, size=40), m=101)
        assert np.all(np.diff(grid.values) >= 0)

    def test_small_m_rejected(self):
        with pytest.raises(ValueError):
            quantiles_from_values([1.0, 2.0], m=1)

    def test_no_values_rejected(self):
        with pytest.raises(ValueError, match="empty series"):
            quantiles_from_values([], m=4)

    @pytest.mark.parametrize("m", [2.5, np.inf, "4"], ids=["fraction", "inf", "text"])
    def test_m_that_is_no_whole_number_rejected(self, m):
        with pytest.raises(ValueError, match="grid size m must be at least 2"):
            quantiles_from_values([1.0, 2.0], m=m)

    def test_m_above_the_bound_rejected(self):
        assert quantiles_from_values([1.0, 2.0], m=MAX_GRID_SIZE).m == MAX_GRID_SIZE
        for m in (MAX_GRID_SIZE + 1, 2**63):
            with pytest.raises(ValueError, match=f"at most {MAX_GRID_SIZE}, got {m}$"):
                quantiles_from_values([1.0, 2.0], m=m)

    def test_whole_float_m_is_an_integer(self):
        got = quantiles_from_values([3.0, 1.0, 2.0], m=4.0).values
        np.testing.assert_array_equal(got, quantiles_from_values([3.0, 1.0, 2.0], 4).values)


class TestQuantileGrid:
    @pytest.mark.parametrize("values", [[], [[0.0, 1.0], [1.0, 2.0]], 3.0],
                             ids=["empty", "two_axes", "scalar"])
    def test_values_must_be_a_nonempty_1d_array(self, values):
        with pytest.raises(ValueError, match="quantile values must be a nonempty 1-d array"):
            QuantileGrid(values)


class TestMixedDistribution:
    @pytest.mark.parametrize("p", [True, np.nan, 1.5], ids=["bool", "nan", "above_1"])
    def test_p_inactive_outside_unit_interval_rejected(self, p):
        with pytest.raises(ValueError, match=r"p_inactive must lie in \[0, 1\]"):
            MixedDistribution(p, QuantileGrid([0.0, 1.0]))


class TestBuildMixed:
    def test_composition(self):
        mixed = build_mixed(series([0, 0, 2, 4]), m=4)
        assert mixed.p_inactive == 0.5
        assert mixed.quantiles.values.tolist() == [0, 0, 2, 4]
        assert mixed.atom_value == 0.0

    def test_fully_inactive(self):
        mixed = build_mixed(series([0, 0, 0]), m=8)
        assert mixed.p_inactive == 1.0
        assert np.all(mixed.quantiles.values == 0)

    def test_no_zeros(self):
        assert build_mixed(series([3, 9]), m=4).p_inactive == 0.0

    def test_atom_flat_region(self):
        rng = np.random.default_rng(7)
        readings = np.where(rng.random(300) < 0.4, rng.uniform(0, 80, 300),
                            rng.uniform(200, 900, 300))
        censor = CensorSpec(lower=100)
        mixed = build_mixed(series(readings), censor=censor, m=50)
        levels = mixed.quantiles.levels
        flat = levels <= mixed.p_inactive - 1.0 / (2 * 50)
        assert flat.any()
        assert np.all(mixed.quantiles.values[flat] == 100.0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(8)
        readings = rng.integers(0, 50, size=40).astype(float)
        perm = rng.permutation(40)
        a = build_mixed(series(readings), m=16)
        b = build_mixed(series(readings[perm]), m=16)
        assert a.p_inactive == b.p_inactive
        np.testing.assert_array_equal(a.quantiles.values, b.quantiles.values)


class TestTacPerDay:
    def test_two_days_of_ones(self):
        assert tac_per_day(series(np.ones(2880))) == 1440.0

    def test_all_zero(self):
        assert tac_per_day(series(np.zeros(100))) == 0.0

    def test_one_day_of_twos(self):
        assert tac_per_day(series(np.full(1440, 2.0))) == 2880.0

    def test_single_timestamp(self):
        with pytest.raises(ValueError, match="span undefined"):
            tac_per_day(series([5.0]))

    def test_recoverable_from_distribution(self):
        rng = np.random.default_rng(9)
        readings = rng.gamma(2, 120, size=1440) * (rng.random(1440) > 0.4)
        s = series(readings)
        tac = tac_per_day(s)
        assert tac == pytest.approx(readings.mean() * 1440.0, rel=1e-12)
        m = 2000
        grid_mean = empirical_quantiles(s, m=m).mean()
        assert tac == pytest.approx(grid_mean * 1440.0,
                                    abs=1440.0 * np.ptp(readings) / m)
