"""Wasserstein geometry over quantile grids: distances and Frechet statistics.

For one-dimensional distributions the 2-Wasserstein distance is the L2
distance between quantile functions, so on a common midpoint grid every
operation reduces to plain vectorized arithmetic. A cohort is passed as an
(n, m) matrix or as a list of QuantileGrid, and every function converts and
checks it by distribution._cohort_matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distribution import QuantileGrid, _cohort_matrix
from .survey import check_weights


@dataclass(frozen=True)
class FrechetSummary:
    """Frechet mean grid, total variance, and pointwise sd curve of a cohort."""

    mean: QuantileGrid
    variance: float
    pointwise_sd: np.ndarray
    total_weight: float = 1.0


def _weighted_cohort(grids, weights) -> tuple[np.ndarray, np.ndarray]:
    """The checked cohort matrix and its normalized weights."""
    values = _cohort_matrix(grids, scalars=False)
    w = check_weights(weights, len(values))
    return values, w / w.sum()


def pairwise_wasserstein(x, y=None) -> np.ndarray:
    """Distances between the rows of x and of y (default: x itself).

    Rows are quantile grids (QuantileGrid list or (n, m) matrix) or scalars
    (1-d array: point masses, at absolute distance). Grids use the Gram form
    |a|^2 + |b|^2 - 2 a.b on columns centred at x's mean, so no (n, k, m)
    array is formed; pairs with d^2 <= 1e-10 (|a|^2 + |b|^2), where the form
    cancels, are recomputed directly, which keeps duplicates at exactly 0.
    A square result is exactly symmetric with a zero diagonal.
    """
    a = _cohort_matrix(x)
    b = a if y is None else _cohort_matrix(y)
    a, b = a.reshape(len(a), -1), b.reshape(len(b), -1)
    m = a.shape[1]
    if b.shape[1] != m:
        raise ValueError("grid mismatch")
    if m == 1:
        return np.abs(a - b.T)
    center = a.mean(axis=0)
    ac = a - center
    bc = ac if y is None else b - center
    na = np.einsum("ij,ij->i", ac, ac)
    nb = na if y is None else np.einsum("ij,ij->i", bc, bc)
    scale = na[:, None] + nb[None, :]
    gram = ac @ bc.T
    # adding the transpose makes the square case exactly symmetric
    sq = scale - (gram + gram.T if y is None else 2.0 * gram)
    np.maximum(sq, 0.0, out=sq)
    rows, cols = np.nonzero(sq <= 1e-10 * scale)
    step = max(1, (1 << 22) // m)
    for lo in range(0, rows.size, step):
        i, j = rows[lo:lo + step], cols[lo:lo + step]
        diff = a[i] - b[j]
        sq[i, j] = np.einsum("ij,ij->i", diff, diff)
    if y is None:
        np.fill_diagonal(sq, 0.0)
    return np.sqrt(sq / m)


def frechet_mean(grids, weights=None) -> QuantileGrid:
    """Pointwise (weighted) average of quantile functions.

    A convex combination of nondecreasing functions is nondecreasing, so the
    result is always a valid quantile grid.
    """
    values, w = _weighted_cohort(grids, weights)
    return QuantileGrid(values=w @ values)


def _sq_deviation_curve(values: np.ndarray, w: np.ndarray, mean: QuantileGrid) -> np.ndarray:
    """Per-grid-point squared deviation of a checked cohort matrix from
    `mean`, averaged with normalized weights w."""
    if mean.m != values.shape[1]:
        raise ValueError("grid mismatch")
    return w @ (values - mean.values) ** 2


def frechet_variance(grids, mean: QuantileGrid, weights=None) -> float:
    """Squared Wasserstein distances to the Frechet mean, averaged with
    normalized weights (unit weights by default): the midpoint-rule integral
    over t of the squared pointwise sd curve."""
    return float(np.mean(_sq_deviation_curve(*_weighted_cohort(grids, weights), mean)))


def pointwise_sd_curve(grids, mean: QuantileGrid, weights=None) -> np.ndarray:
    """Per-grid-point (weighted) standard deviation of quantile values, with
    the weights of frechet_variance."""
    return np.sqrt(_sq_deviation_curve(*_weighted_cohort(grids, weights), mean))


def summarize(grids, weights=None) -> FrechetSummary:
    """Frechet mean, variance, and pointwise sd of a cohort in one pass;
    total_weight is the weights' sum, n for unit weights."""
    values = _cohort_matrix(grids, scalars=False)
    w = check_weights(weights, len(values))
    total = float(w.sum())
    w = w / total
    mean = QuantileGrid(values=w @ values)
    curve = _sq_deviation_curve(values, w, mean)
    return FrechetSummary(mean=mean, variance=float(np.mean(curve)),
                          pointwise_sd=np.sqrt(curve), total_weight=total)
