"""Mixed-distribution representation of nonnegative activity time series.

A subject's minute-level activity readings are summarized as a probability
distribution with an atom at the inactivity value (zero, or the lower
censoring cutoff) plus a continuous part for active movement. The workhorse
object is the quantile function of the full mixed distribution evaluated on
a uniform midpoint grid, which is what all downstream Wasserstein machinery
consumes.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

MINUTES_PER_DAY = 1440.0

DEFAULT_GRID_SIZE = 500

# far above the paper's m = 500: one subject's grid is then at most 8 MB,
# and a larger m fails here, not in numpy's int64 rank arithmetic or allocator
MAX_GRID_SIZE = 1 << 20


def _real(value) -> bool:
    """A finite real number that a float can hold; a boolean is none."""
    try:
        return (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:  # an int beyond a float's range
        return False


def _whole(value) -> bool:
    """A finite real number with no fractional part; a boolean is none."""
    return _real(value) and float(value).is_integer()


@dataclass(frozen=True)
class ActivitySeries:
    """One subject's timestamped activity readings plus survey metadata.

    timestamps are minutes since an arbitrary epoch, strictly increasing;
    readings are nonnegative counts aligned with the timestamps.
    """

    subject_id: str
    timestamps: np.ndarray
    readings: np.ndarray
    survey_weight: float = 1.0
    covariates: dict = field(default_factory=dict)

    def __post_init__(self):
        timestamps = np.asarray(self.timestamps, dtype=float)
        readings = np.asarray(self.readings, dtype=float)
        object.__setattr__(self, "timestamps", timestamps)
        object.__setattr__(self, "readings", readings)
        if readings.size == 0:
            raise ValueError("empty series")
        if readings.shape != timestamps.shape or readings.ndim != 1:
            raise ValueError("timestamps and readings must be 1-d and aligned")
        if np.any(readings < 0) or not np.all(np.isfinite(readings)):
            raise ValueError("readings must be finite and nonnegative")
        # before the order check: np.diff(t) <= 0 is False wherever t is NaN
        if not np.all(np.isfinite(timestamps)):
            raise ValueError("timestamps must be finite")
        if timestamps.size > 1 and np.any(np.diff(timestamps) <= 0):
            raise ValueError("timestamps must be strictly increasing")
        if not (_real(self.survey_weight) and self.survey_weight > 0):
            raise ValueError("survey_weight must be positive and finite")
        object.__setattr__(self, "survey_weight", float(self.survey_weight))

    @property
    def n_obs(self) -> int:
        return self.readings.size


@dataclass(frozen=True)
class CensorSpec:
    """Optional lower/upper censoring cutoffs for the readings.

    Readings at or below ``lower`` count as inactive and are collapsed onto
    the cutoff; readings above ``upper`` are truncated down to it.
    """

    lower: float | None = None
    upper: float | None = None

    def __post_init__(self):
        lower, upper = self.lower, self.upper
        if not ((lower is None or (_real(lower) and 0 <= lower))
                and (upper is None or (_real(upper) and 0 < upper))
                and (lower is None or upper is None or lower < upper)):
            raise ValueError(f"invalid censor bounds: lower {lower!r}, upper {upper!r}")

    @property
    def atom_value(self) -> float:
        """Location of the inactivity atom (0 without a lower cutoff)."""
        return 0.0 if self.lower is None else float(self.lower)


NO_CENSOR = CensorSpec()


def check_quantile_rows(values: np.ndarray) -> None:
    """Raise ValueError unless every row of `values`, one grid or an (n, m)
    cohort matrix, is finite, nondecreasing and nonnegative."""
    if not np.all(np.isfinite(values)):
        raise ValueError("quantile values must be finite")
    if np.any(values[..., 1:] < values[..., :-1]):
        raise ValueError("quantile values must be nondecreasing")
    if np.any(values[..., 0] < 0):
        raise ValueError("quantile values must be nonnegative")


def _cohort_matrix(values, scalars: bool = True) -> np.ndarray:
    """The one conversion of a cohort to its float64 matrix, not copied when
    it is one: (n, m) quantile grids whose rows pass check_quantile_rows or,
    with `scalars`, (n,) finite scalars; n, m >= 1. Ragged rows mismatch."""
    try:
        matrix = np.asarray(values, dtype=float)
    except ValueError as exc:  # a value that is no number keeps numpy's message
        if len({np.shape(row) for row in values}) < 2:
            raise
        raise ValueError("grid mismatch") from exc
    if matrix.ndim == 2 and matrix.size:
        check_quantile_rows(matrix)
    elif not scalars or isinstance(values, QuantileGrid):  # numpy reads one grid as m scalars
        raise ValueError("a cohort is an (n, m) matrix or a list of QuantileGrid; "
                         "pass one grid as [grid]")
    elif not (matrix.ndim == 1 and matrix.size and np.all(np.isfinite(matrix))):
        raise ValueError("predictors must be quantile grids or finite scalars")
    return matrix


@dataclass(frozen=True)
class QuantileGrid:
    """Quantile function values on the uniform midpoint grid.

    Entry k corresponds to probability level t_k = (k + 0.5) / m for
    k = 0..m-1. Values must be nondecreasing and nonnegative. A grid is
    array-like, so a list of n grids converts to an (n, m) cohort matrix.
    """

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or values.size < 1:
            raise ValueError("quantile values must be a nonempty 1-d array")
        check_quantile_rows(values)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.values, dtype=dtype, copy=copy)

    @property
    def m(self) -> int:
        return self.values.size

    @property
    def levels(self) -> np.ndarray:
        m = self.m
        return (np.arange(1, m + 1) - 0.5) / m

    def mean(self) -> float:
        """Mean of the represented distribution (midpoint rule)."""
        return float(np.mean(self.values))


@dataclass(frozen=True)
class MixedDistribution:
    """Inactivity atom plus quantile grid of the full mixed distribution."""

    p_inactive: float
    quantiles: QuantileGrid
    atom_value: float = 0.0

    def __post_init__(self):
        if not (_real(self.p_inactive) and 0.0 <= self.p_inactive <= 1.0):
            raise ValueError("p_inactive must lie in [0, 1]")


def _is_inactive(readings: np.ndarray, censor: CensorSpec) -> np.ndarray:
    if censor.lower is None:
        return readings == 0.0
    return readings <= censor.lower


def inactive_proportion(series: ActivitySeries, censor: CensorSpec = NO_CENSOR) -> float:
    """Fraction of readings in the inactive range (== 0, or <= lower cutoff)."""
    return float(np.mean(_is_inactive(series.readings, censor)))


def _clamped(readings: np.ndarray, censor: CensorSpec) -> np.ndarray:
    """readings clamped into [lower, upper]; the array itself when neither is set."""
    if censor.lower is not None:
        readings = np.maximum(readings, censor.lower)
    if censor.upper is not None:
        readings = np.minimum(readings, censor.upper)
    return readings


def quantiles_from_values(values: np.ndarray, m: int) -> QuantileGrid:
    """Empirical quantile function of a sample on the midpoint grid.

    Uses the left-continuous generalized inverse inf{x : F(x) >= t} of the
    empirical CDF, evaluated at t_k = (k - 0.5) / m. For a sorted sample of
    size n this is the order statistic with rank ceil(t_k * n); the rank is
    computed in exact integer arithmetic so grid/sample-size coincidences
    never fall on the wrong side of a floating-point boundary.
    """
    if not (_whole(m) and 2 <= m <= MAX_GRID_SIZE):
        raise ValueError(f"grid size m must be at least 2 and at most {MAX_GRID_SIZE}, "
                         f"got {m!r}")
    m = int(m)
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("empty series")
    ordered = np.sort(values)
    n = ordered.size
    k = np.arange(1, m + 1, dtype=np.int64)
    ranks = (n * (2 * k - 1) + 2 * m - 1) // (2 * m)  # ceil(n * (2k-1) / (2m))
    return QuantileGrid(values=ordered[ranks - 1])


def build_mixed(
    series: ActivitySeries,
    censor: CensorSpec = NO_CENSOR,
    m: int = DEFAULT_GRID_SIZE,
) -> MixedDistribution:
    """Two-step construction: inactivity proportion, then censored quantiles.

    The quantile grid covers the full mixed distribution, so every level
    below p_inactive sits at the atom value.
    """
    return MixedDistribution(
        p_inactive=inactive_proportion(series, censor),
        quantiles=quantiles_from_values(_clamped(series.readings, censor), m),
        atom_value=censor.atom_value,
    )


def tac_per_day(series: ActivitySeries) -> float:
    """Total activity count normalized by the monitored span in days.

    The span is (last - first + one sampling interval) where the sampling
    interval is the gap between the first two timestamps, so an exactly
    two-day recording at one-minute resolution counts as 2.0 days.
    """
    if series.n_obs < 2:
        raise ValueError(f"subject {series.subject_id!r}: span undefined for a single reading")
    t = series.timestamps
    interval = t[1] - t[0]
    span_days = (t[-1] - t[0] + interval) / MINUTES_PER_DAY
    return float(series.readings.sum() / span_days)
