"""Brute-force reference implementations that the tests compare against.

None of these is used by the library: each is the direct, slow or
memory-hungry form of something the library computes another way.
"""

import csv
from pathlib import Path

import numpy as np

from actidist.distribution import (
    DEFAULT_GRID_SIZE,
    ActivitySeries,
    CensorSpec,
    QuantileGrid,
    _clamped,
    quantiles_from_values,
)
from actidist.io import InputValidationError
from actidist.regression import (
    SurveySample,
    _kernel_spectrum,
    krr_fit,
    krr_loo,
    krr_predict_batch,
    laplacian_kernel,
)
from actidist.survey import check_weights, weighted_median


def censor_series(series: ActivitySeries, censor: CensorSpec) -> ActivitySeries:
    """Clamp readings into [lower, upper]; timestamps and metadata unchanged."""
    return ActivitySeries(
        subject_id=series.subject_id,
        timestamps=series.timestamps,
        readings=_clamped(series.readings, censor),
        survey_weight=series.survey_weight,
        covariates=series.covariates,
    )


def empirical_quantiles(series: ActivitySeries, m: int = DEFAULT_GRID_SIZE) -> QuantileGrid:
    """Empirical quantile grid of a subject's readings."""
    return quantiles_from_values(series.readings, m)


def frechet_objective(grids, candidate, weights=None) -> float:
    """Weighted sum of squared distances to a candidate grid (the functional
    the Frechet mean minimizes)."""
    values = np.stack([g.values for g in grids])
    if candidate.m != values.shape[1]:
        raise ValueError("grid mismatch")
    w = check_weights(weights, values.shape[0])
    sq_dist = np.mean((values - candidate.values) ** 2, axis=1)
    return float((w / w.sum()) @ sq_dist)


def wasserstein2(a: QuantileGrid, b: QuantileGrid) -> float:
    """2-Wasserstein distance of one pair: root mean square gap between
    quantile values, without the Gram form."""
    if a.m != b.m:
        raise ValueError("grid mismatch")
    diff = a.values - b.values
    return float(np.sqrt(np.mean(diff * diff)))


def broadcast_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise distances through the (n, k, m) broadcast of all differences:
    between the rows of (n, m) and (k, m) grids, or (n,) and (k,) scalars."""
    if a.ndim == 2:
        m = a.shape[1]
        sq = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2) / m
        return np.sqrt(sq)
    return np.abs(a[:, None] - b[None, :])


def training_predictions(model) -> np.ndarray:
    """A fitted model's predictions at its own training predictors."""
    x = model.training_matrix
    k = laplacian_kernel(broadcast_distances(x, x), model.sigma)
    return k @ model.alpha


def refit_loo(sample, lam: float, sigma: float) -> np.ndarray:
    """Leave-one-out predictions from one explicit refit per observation."""
    out = np.empty(sample.n)
    for i in range(sample.n):
        mask = np.arange(sample.n) != i
        model = krr_fit(SurveySample(sample.predictors[mask], sample.responses[mask],
                                     sample.weights[mask]), lam, sigma=sigma)
        out[i] = krr_predict_batch(model, sample.predictors[i:i + 1])[0]
    return out


def mp_loo_hat(sample, lam: float, sigma: float, dps: int = 50) -> np.ndarray:
    """Hat-matrix leave-one-out solved at `dps` decimal digits with mpmath.

    Distances and kernel are formed at that precision from the predictors.
    With S = W^1/2 K W^1/2 and B = (S + lam I)^-1, 1 - H_ii = lam B_ii and
    y - yhat = lam W^-1/2 B W^1/2 y, so loo_i = y_i - (B W^1/2 y)_i / (r_i B_ii)
    with r = diag(W^1/2).
    """
    import mpmath

    n, x = sample.n, sample.predictors
    with mpmath.workdps(dps):
        rows = [[mpmath.mpf(float(v)) for v in np.atleast_1d(row)] for row in x]
        r = [mpmath.sqrt(mpmath.mpf(float(w))) for w in sample.weights]
        a = mpmath.matrix(n, n)
        for i in range(n):
            for j in range(n):
                dist = mpmath.sqrt(mpmath.fsum((p - q) ** 2 for p, q in zip(rows[i], rows[j]))
                                   / len(rows[i]))
                a[i, j] = r[i] * mpmath.exp(-dist / mpmath.mpf(sigma)) * r[j]
            a[i, i] += mpmath.mpf(lam)
        b = mpmath.inverse(a)
        y = [mpmath.mpf(float(v)) for v in sample.responses]
        c = b * mpmath.matrix([r[i] * y[i] for i in range(n)])
        return np.array([float(y[i] - c[i] / (r[i] * b[i, i])) for i in range(n)])


def dense_loo_hat(sample, lam: float, sigma: float):
    """Hat-matrix leave-one-out from a dense solve of (WK + lam I) B = W.

    Returns (loo, 1 - H_ii) with H = K (WK + lam I)^-1 W.
    """
    d = broadcast_distances(sample._matrix, sample._matrix)
    k = laplacian_kernel(d, sigma)
    w = sample.weights
    a = w[:, None] * k + lam * np.eye(sample.n)
    h = k @ np.linalg.solve(a, np.diag(w))
    hii = np.diag(h)
    yhat = h @ sample.responses
    denom = 1.0 - hii
    with np.errstate(divide="ignore", invalid="ignore"):
        loo = (yhat - hii * sample.responses) / denom
    return loo, denom


def loo_hat_matvec(sample, lam: float, sigma: float):
    """The hat-matrix shortcut at one penalty through matrix-vector
    products: returns (loo, 1 - H_ii)."""
    evals, u = _kernel_spectrum(sample, sigma)
    r = np.sqrt(sample.weights)
    y = sample.responses
    with np.errstate(divide="ignore", invalid="ignore"):
        g = lam / (evals + lam)
        denom = (u * u) @ g
        resid = (u @ (g * (u.T @ (r * y)))) / r
        loo = y - resid / denom
    return loo, denom


def select_lambda_loop(sample, sigma: float, lambda_grid) -> float:
    """The penalty with the least weighted leave-one-out error, one krr_loo
    call per penalty, largest first; ties keep the larger penalty."""
    best_lam, best_err = None, np.inf
    for lam in np.sort(np.asarray(lambda_grid, dtype=float))[::-1]:
        preds = krr_loo(sample, float(lam), sigma=sigma)
        err = float(np.sum(sample.weights * (sample.responses - preds) ** 2))
        if err < best_err:
            best_lam, best_err = float(lam), err
    return best_lam


def gaussian_kernel(u: np.ndarray) -> np.ndarray:
    """Standard Gaussian density: the kernel that regression._nw_weights
    applies in place."""
    return np.exp(-0.5 * np.asarray(u) ** 2) / np.sqrt(2.0 * np.pi)


def nw_loo_unfused(sample, bandwidth: float) -> np.ndarray:
    """Leave-one-out smoother predictions from gaussian_kernel(d / h) * w,
    each step a new array, and the rows with kernel mass copied out."""
    k = gaussian_kernel(sample.distance_matrix() / bandwidth) * sample.weights
    np.fill_diagonal(k, 0.0)
    totals = k.sum(axis=1)
    y = sample.responses
    out = np.full(sample.n, np.nan)
    ok = totals > 0
    out[ok] = (k[ok] @ y) / totals[ok]
    np.clip(out, y.min(), y.max(), out=out)
    return out


def select_bandwidth_loop(sample, h_grid) -> float:
    """The bandwidth with the least weighted leave-one-out error among those
    that leave no neighborhood empty, smallest first; ties keep the smaller."""
    best_h, best_err = None, np.inf
    for h in np.sort(np.asarray(h_grid, dtype=float)):
        preds = nw_loo_unfused(sample, float(h))
        if np.any(~np.isfinite(preds)):
            continue
        err = float(np.sum(sample.weights * (sample.responses - preds) ** 2))
        if err < best_err:
            best_h, best_err = float(h), err
    return best_h


def unique_distance_quantiles(sample) -> np.ndarray:
    """np.unique(np.quantile(...)) of the positive pairwise distances over
    i < j at 5%, 15%, ..., 95%."""
    iu, ju = np.triu_indices(sample.n, k=1)
    pos = sample.distance_matrix()[iu, ju]
    return np.unique(np.quantile(pos[pos > 0], np.linspace(0.05, 0.95, 10)))


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def write_csv_rows(path, header, rows) -> None:
    """A table through csv.writer, one row and one value at a time: the byte
    reference for every table writer of the library."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def write_frechet_rows(path, summaries: dict) -> None:
    """Frechet profile table written one csv row, and one value, at a time."""
    def rows():
        for group, summary in summaries.items():
            levels = summary.mean.levels
            for t, mu, sd in zip(levels, summary.mean.values, summary.pointwise_sd):
                yield [group, t, mu, sd]
    write_csv_rows(path, ["group", "t", "mean", "sd"], rows())


def read_subject_readings_csv(path, subject_id=None) -> dict:
    """Single-subject readings file (timestamp_min, count)."""
    sid = subject_id if subject_id is not None else Path(path).stem
    out = ([], [])
    bad: list[str] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["timestamp_min", "count"]:
            raise InputValidationError(f"{path}: expected header timestamp_min,count")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                t, count = float(row[0]), float(row[1])
            except (ValueError, IndexError):
                bad.append(f"line {lineno}: malformed row")
                continue
            if count < 0:
                bad.append(f"line {lineno}: negative count")
                continue
            out[0].append(t)
            out[1].append(count)
    if bad:
        raise InputValidationError(f"{path}: " + "; ".join(bad))
    return {sid: out}


def write_readings_rows(path, subjects) -> None:
    """Long-format readings written one csv row, and one value, at a time."""
    def rows():
        for s in subjects:
            for t, c in zip(s.timestamps, s.readings):
                yield [s.subject_id, t, c]
    write_csv_rows(path, ["subject_id", "timestamp_min", "count"], rows())


def median_heuristic_sigma(predictors, weights=None, distance=None) -> float:
    """Median-heuristic kernel scale from an explicit loop over pairs.

    Each unordered pair (i, j), i < j, enters the weighted-median CDF with
    weight w_i * w_j; the returned scale is the square root of that median.
    """
    n = len(predictors)
    if n < 2:
        raise ValueError("need at least two predictors")
    if distance is None:
        distance = lambda a, b: abs(a - b)
    if weights is None:
        w = np.ones(n)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != (n,):
            raise ValueError("weights must match predictors")
        if np.any(w <= 0):
            raise ValueError("weights must be positive")

    sq_dists = []
    pair_weights = []
    for i in range(n - 1):
        for j in range(i + 1, n):
            d = distance(predictors[i], predictors[j])
            sq_dists.append(d * d)
            pair_weights.append(w[i] * w[j])
    sq_dists = np.asarray(sq_dists)
    if np.all(sq_dists == 0):
        raise ValueError("degenerate predictor set")
    return float(np.sqrt(weighted_median(sq_dists, np.asarray(pair_weights))))


def write_quantile_rows(path, subject_ids, quantiles) -> None:
    """Quantile table written one csv row, and one value, at a time."""
    matrix = np.asarray(quantiles, dtype=float)
    header = ["subject_id"] + [f"t_{k}" for k in range(1, matrix.shape[1] + 1)]
    rows = ([sid, *row.tolist()] for sid, row in zip(subject_ids, matrix))
    write_csv_rows(path, header, rows)


def draw_subject_where(rng, stratum, minutes: int):
    """datagen._draw_subject with the readings formed in one np.where over
    a clamped copy of the draw, instead of in place."""
    lo, hi = stratum.inactivity_range
    rate = float(rng.uniform(lo, hi)) if hi > lo else float(lo)

    law = stratum.intensity
    if law.kind == "lognormal":
        mu, s = law.params
    elif law.kind == "lognormal_fixed_mean":
        mean_level, s_lo, s_hi = law.params
        s = float(rng.uniform(s_lo, s_hi))
        mu = float(np.log(mean_level) - 0.5 * s * s)
    else:
        shape, scale = law.params

    inactive = rng.random(minutes) < rate
    if law.kind == "gamma":
        positive = rng.gamma(shape, scale, size=minutes)
        spread = float(np.sqrt(shape) * scale)
    else:
        positive = rng.lognormal(mu, s, size=minutes)
        spread = float(s)
    readings = np.where(inactive, 0.0, np.maximum(positive, 1e-9))
    return readings, rate, spread
