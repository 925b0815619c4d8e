"""Horvitz-Thompson weighted statistics for unequal-probability samples.

Every estimator takes per-unit survey weights w_i = 1/pi_i and normalizes by
their sum, so all results are invariant to rescaling the weights by a common
positive constant.
"""

from __future__ import annotations

import numpy as np


def check_weights(weights, n: int) -> np.ndarray:
    """The one survey-weight rule of the package: None means n unit weights;
    otherwise n positive finite weights with a finite sum, as a new array."""
    if weights is None:
        return np.ones(n)
    w = np.array(weights, dtype=float)
    if w.shape != (n,):
        raise ValueError(f"weights must be one per unit: expected {n}, got shape {w.shape}")
    with np.errstate(over="ignore"):
        if not (np.all(np.isfinite(w) & (w > 0)) and np.isfinite(w.sum())):
            raise ValueError("weights must be positive and finite")
    return w


def _check_sample(values, weights) -> tuple[np.ndarray, np.ndarray]:
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("values must be a nonempty 1-d array")
    w = check_weights(weights, v.size)
    if not np.all(np.isfinite(v)):
        raise ValueError("values must be finite")
    return v, w


def ht_mean(values, weights=None) -> float:
    """Normalized Horvitz-Thompson mean: sum(w*y) / sum(w)."""
    v, w = _check_sample(values, weights)
    return float(np.sum(w * v) / np.sum(w))


def weighted_median(values, weights=None) -> float:
    """Left-continuous weighted median inf{x : F_w(x) >= 0.5}, no interpolation.

    The crossing test allows 1e-12 of relative slack so that cumulative
    weights landing on exactly 0.5 keep the same crossing point after the
    weights are rescaled by a common constant.
    """
    return _weighted_median(*_check_sample(values, weights))


def _weighted_median(v: np.ndarray, w: np.ndarray) -> float:
    """weighted_median of checked values and nonnegative weights with a
    positive finite sum; zero weights count as absent."""
    order = np.argsort(v, kind="stable")
    v, w = v[order], w[order]
    cdf = np.cumsum(w) / np.sum(w)
    idx = int(np.searchsorted(cdf, 0.5 * (1.0 - 1e-12), side="left"))
    return float(v[min(idx, v.size - 1)])


def median_heuristic_sigma_from_matrix(dist_matrix: np.ndarray, weights=None) -> float:
    """Kernel scale: square root of the weighted median of the squared
    distances d_ij^2 over pairs i < j, each pair weighted w_i * w_j.

    Pair weights are exp(log w_i + log w_j - max): the heaviest is exactly 1,
    none overflows, one that underflows counts as 0, and equal weights of
    any size give the unit-weight scale.
    """
    d = np.asarray(dist_matrix, dtype=float)
    n = d.shape[0]
    if d.shape != (n, n) or n < 2:
        raise ValueError("need a square distance matrix of size >= 2")
    log_w = np.log(check_weights(weights, n))
    iu, ju = np.triu_indices(n, k=1)
    sq = d[iu, ju] ** 2
    if np.all(sq == 0):
        raise ValueError("degenerate predictor set")
    log_pair = log_w[iu] + log_w[ju]
    return float(np.sqrt(_weighted_median(sq, np.exp(log_pair - log_pair.max()))))


def weighted_r2(y, yhat_loo, weights=None) -> float:
    """Survey-weighted leave-one-out R-square.

    1 - sum(w*(y - yhat)^2) / sum(w*(y - mean_w(y))^2). May be negative when
    the out-of-sample predictions do worse than the weighted mean.
    """
    y, w = _check_sample(y, weights)
    yhat = np.asarray(yhat_loo, dtype=float)
    if yhat.shape != y.shape:
        raise ValueError("predictions must match responses")
    if np.any(~np.isfinite(yhat)):
        raise ValueError("predictions contain missing entries")
    center = np.sum(w * y) / np.sum(w)
    denom = np.sum(w * (y - center) ** 2)
    # a rounded center leaves constant responses a tiny positive denom
    if denom <= 0 or np.all(y == y[0]):
        raise ValueError("zero variance response")
    num = np.sum(w * (y - yhat) ** 2)
    return float(1.0 - num / denom)
