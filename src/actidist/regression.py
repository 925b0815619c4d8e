"""Survey-weighted nonparametric regression over distributional predictors.

Two estimators are provided, both taking per-unit survey weights:

* a Nadaraya-Watson smoother whose local kernel weights are multiplied by
  the survey weights, valid for regression and (via its convexity) for
  binary classification without post hoc changes;
* kernel ridge regression solving (W K + lambda I) alpha = W Y with a
  Laplacian kernel, whose scale defaults to the survey-weighted median
  heuristic.

Distributional predictors are quantile grids compared with the Wasserstein
distance; scalar predictors use the absolute difference.
"""

from __future__ import annotations

import copy
import functools
import json
import warnings
from dataclasses import dataclass

import numpy as np

from . import geometry
from .distribution import _cohort_matrix, _real
from .survey import check_weights, median_heuristic_sigma_from_matrix

# a predictor's kind by the number of axes of its matrix
_KINDS = {2: "grid", 1: "scalar"}

MODEL_FORMAT_VERSION = 1

_SQRT_2PI = np.sqrt(2.0 * np.pi)


def _check_kernel(sigma: float, lam=0.0) -> None:
    """Rejects a kernel scale that is not a positive finite number, and a
    ridge penalty (or any of a grid of them) that is not a finite number >= 0."""
    if not (_real(sigma) and sigma > 0):
        raise ValueError("sigma must be positive and finite")
    if not all(_real(v) and v >= 0 for v in np.ravel(lam).tolist()):
        raise ValueError("lambda must be nonnegative and finite")


def laplacian_kernel(dist, sigma: float):
    """exp(-dist / sigma); the reproducing kernel used for ridge regression."""
    _check_kernel(sigma)
    d = np.asarray(dist, dtype=float)
    if not np.all(d >= 0):
        raise ValueError("distances must be nonnegative, not NaN")
    out = np.exp(-d / sigma)
    return float(out) if np.isscalar(dist) else out


class SurveySample:
    """Paired (predictor, response, weight) records for regression.

    Predictors are quantile grids (an (n, m) matrix or a list of
    QuantileGrid) or scalars (a 1-d array); responses are continuous, or 0/1
    when the sample is used for classification. The predictors are held as
    one read-only matrix, (n, m) for grids and (n,) for scalars.
    """

    def __init__(self, predictors, responses, weights=None):
        responses = np.asarray(responses, dtype=float)
        n = responses.size
        if n < 1:
            raise ValueError("empty sample")
        self.weights = check_weights(weights, n)
        self.weights.setflags(write=False)
        self.responses = self._checked(responses)

        # the sample's own copy, which it makes read-only
        matrix = _cohort_matrix(predictors).copy()
        if len(matrix) != n:
            raise ValueError("predictors and responses must have equal length")
        matrix.setflags(write=False)
        self._matrix = matrix
        # distances and kernel spectra depend only on predictors and weights,
        # so samples made by with_responses share this cache
        self._cache: dict = {}

    def _checked(self, responses) -> np.ndarray:
        responses = np.asarray(responses, dtype=float)
        if responses.ndim != 1 or responses.shape != self.weights.shape:
            raise ValueError("responses must be an aligned 1-d array, one value per weight")
        if not np.all(np.isfinite(responses)):
            raise ValueError("responses must be finite")
        return responses

    @property
    def n(self) -> int:
        return self.responses.size

    @property
    def predictors(self) -> np.ndarray:
        """The read-only predictor matrix: (n, m) grids or (n,) scalars."""
        return self._matrix

    @property
    def kind(self) -> str:
        return _KINDS[self._matrix.ndim]

    def is_binary(self) -> bool:
        return bool(np.all(np.isin(self.responses, (0.0, 1.0))))

    def distance_matrix(self) -> np.ndarray:
        """Pairwise predictor distances, fixed index order.

        Computed on the first call; later calls, also on samples made by
        with_responses, return the same read-only array.
        """
        d = self._cache.get("distances")
        if d is None:
            d = geometry.pairwise_wasserstein(self._matrix)
            d.setflags(write=False)
            self._cache["distances"] = d
        return d

    def with_responses(self, responses) -> "SurveySample":
        """The same predictors and weights with other responses; the new
        sample shares this one's predictor matrix, cached distances and
        kernel spectrum."""
        out = copy.copy(self)
        out.responses = self._checked(responses)
        return out


def _nw_weights(dist, bandwidth: float, weights: np.ndarray) -> np.ndarray:
    """Smoother weights kernel(d / h) * w, before normalization; the distance
    follows the predictors: Wasserstein for grids, absolute for scalars.

    The operations of the Gaussian density exp(-(d / h)^2 / 2) / sqrt(2 pi)
    times w, in that order, each in place on one new array the size of `dist`.
    """
    if not (_real(bandwidth) and bandwidth > 0):
        raise ValueError("bandwidth must be positive")
    k = np.divide(dist, bandwidth)
    np.square(k, out=k)
    k *= -0.5
    np.exp(k, out=k)
    k /= _SQRT_2PI
    k *= weights
    return k


def nw_predict(sample: SurveySample, bandwidth: float, x) -> float:
    """Survey-weighted Nadaraya-Watson prediction at a query point.

    s_i proportional to kernel(d(X_i, x) / h) * w_i, normalized to sum one.
    The result is a convex combination of the responses and is clipped to
    the observed response range so the bound also holds under floating
    point; binary responses therefore yield a probability in [0, 1].
    """
    d = geometry.pairwise_wasserstein(sample.predictors, [x])[:, 0]
    k = _nw_weights(d, bandwidth, sample.weights)
    total = k.sum()
    if not total > 0:
        raise ValueError("empty neighborhood")
    pred = float(k @ sample.responses) / total
    return float(np.clip(pred, sample.responses.min(), sample.responses.max()))


def nw_loo(sample: SurveySample, bandwidth: float) -> np.ndarray:
    """Leave-one-out smoother predictions at every training point.

    Entry i is the prediction at X_i with observation i removed. Points
    whose remaining kernel mass is zero come back as NaN so callers can
    surface them instead of silently dropping subjects. The kernel takes
    one n x n array.
    """
    if sample.n < 2:
        raise ValueError("need at least two observations")
    k = _nw_weights(sample.distance_matrix(), bandwidth, sample.weights)
    np.fill_diagonal(k, 0.0)
    totals = k.sum(axis=1)
    y = sample.responses
    out = np.divide(k @ y, totals, out=np.full(sample.n, np.nan), where=totals > 0)
    np.clip(out, y.min(), y.max(), out=out)
    return out


def _tuning_grid(values, name: str) -> np.ndarray:
    """A bandwidth or penalty grid as a sorted float array; rejects a grid
    that is not 1-d or is empty, and any entry that is not a positive finite
    number, a boolean or a numeric string included, before the conversion
    to float could read it as one."""
    entries = np.asarray(values, dtype=object)
    if entries.ndim != 1:
        raise ValueError(f"{name} grid must be 1-d")
    if entries.size == 0:
        raise ValueError(f"empty {name} grid")
    if not all(_real(v) and v > 0 for v in entries.tolist()):
        raise ValueError(f"{name} grid entries must be positive and finite")
    return np.sort(entries.astype(float))


def _least_loo_error(sample: SurveySample, grid, columns,
                    message: str) -> tuple[float, np.ndarray]:
    """(value, predictions) for the first grid value whose leave-one-out
    predictions in `columns` have the least weighted squared error, skipping
    any with a non-finite entry; ValueError(message) when no error is finite.
    """
    best, best_err = None, np.inf
    for value, preds in zip(grid, columns):
        if not np.all(np.isfinite(preds)):
            continue
        err = float(np.sum(sample.weights * (sample.responses - preds) ** 2))
        if err < best_err:
            best, best_err = (float(value), preds), err
    if best is None:
        raise ValueError(message)
    return best


def nw_select_bandwidth(sample: SurveySample, h_grid) -> tuple[float, np.ndarray]:
    """Pick the bandwidth minimizing weighted leave-one-out squared error;
    returns it with its nw_loo predictions.

    Candidates producing any empty leave-one-out neighborhood are skipped;
    ties break toward the smaller bandwidth.
    """
    grid = _tuning_grid(h_grid, "bandwidth")
    return _least_loo_error(sample, grid, (nw_loo(sample, float(h)) for h in grid),
                            "empty neighborhood at every bandwidth")


def distance_quantile_grid(sample: SurveySample) -> np.ndarray:
    """Default bandwidth grid: the distinct 5%, 15%, ..., 95% quantiles of
    the positive pairwise distances, sorted.

    The values of np.unique(np.quantile(pos, probs)), numpy's linear method,
    from one np.partition of the distances.
    """
    d = sample.distance_matrix()
    pos = d[np.triu(d > 0, k=1)]
    if pos.size == 0:
        raise ValueError("degenerate predictor set")
    # numpy's virtual index (n - 1) q, its neighbours and its lerp
    at = (pos.size - 1) * np.linspace(0.05, 0.95, 10)
    lo = np.floor(at)
    below = lo.astype(np.intp)
    above = np.minimum(below + 1, pos.size - 1)
    pos.partition(np.concatenate((below, above)))
    a, b, t = pos[below], pos[above], at - lo
    diff = b - a
    q = np.where(t >= 0.5, b - diff * (1 - t), a + diff * t)
    q.sort()
    return q[np.concatenate(([True], q[1:] != q[:-1]))]


@dataclass(frozen=True)
class KrrModel:
    """Fitted kernel ridge regressor; immutable and safe to share. It checks
    itself as SurveySample checks its predictors, and that alpha holds one
    finite value per training row, sigma > 0 and lam >= 0, both finite."""

    training_matrix: np.ndarray
    alpha: np.ndarray
    sigma: float
    lam: float

    def __post_init__(self):
        matrix = _cohort_matrix(self.training_matrix)
        alpha = np.asarray(self.alpha, dtype=float)
        if alpha.shape != matrix.shape[:1] or not np.all(np.isfinite(alpha)):
            raise ValueError("alpha must hold one finite value per training row")
        _check_kernel(self.sigma, self.lam)
        sigma, lam = float(self.sigma), float(self.lam)
        for name, value in (("training_matrix", matrix), ("alpha", alpha),
                            ("sigma", sigma), ("lam", lam)):
            object.__setattr__(self, name, value)

    @property
    def kind(self) -> str:
        return _KINDS[self.training_matrix.ndim]


def _kernel_spectrum(sample: SurveySample, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition S = U diag(s) U^T of S = W^1/2 K W^1/2.

    WK + lam I is similar to S + lam I, so one decomposition serves the fit,
    its condition estimate and the leave-one-out shortcut at every lambda.
    The decomposition for the last sigma is cached on the sample.
    """
    cached = sample._cache.get("spectrum")
    if cached is None or cached[0] != float(sigma):
        k = laplacian_kernel(sample.distance_matrix(), sigma)
        r = np.sqrt(sample.weights)
        cached = (float(sigma), np.linalg.eigh(r[:, None] * k * r[None, :]))
        sample._cache["spectrum"] = cached
    return cached[1]


def _check_nonsingular(shifted: np.ndarray) -> None:
    """Raises when the kernel system is singular at some penalty: when, in
    a column of `shifted` (the spectrum s_k + lam down its first axis), an
    entry falls to n * eps * max|s + lam| or below, numpy's matrix_rank
    tolerance."""
    top = np.abs(shifted).max(axis=0)
    if np.any(shifted <= shifted.shape[0] * np.finfo(float).eps * top):
        raise ValueError("singular kernel system; increase lambda")


def _median_sigma(sample: SurveySample) -> float:
    """The weighted median-heuristic kernel scale of the sample's predictors.

    It depends only on the predictors and weights, so it is computed once
    and cached on the sample, which samples made by with_responses share.
    """
    sigma = sample._cache.get("sigma")
    if sigma is None:
        sigma = median_heuristic_sigma_from_matrix(sample.distance_matrix(),
                                                   sample.weights)
        sample._cache["sigma"] = sigma
    return sigma


def krr_fit(sample: SurveySample, lam: float, sigma: float | None = None) -> KrrModel:
    """Fit survey-weighted kernel ridge regression.

    Solves (W K + lam I) alpha = W Y, where K_ij = laplacian_kernel(d(X_i, X_j))
    and W = diag(weights), as alpha = W^1/2 U diag(1 / (s + lam)) U^T W^1/2 Y
    from the spectrum of _kernel_spectrum. The kernel scale defaults to the
    weighted median heuristic on the training predictors, computed once per
    sample. A warning is emitted when the condition number
    max|s + lam| / min|s + lam| exceeds 1e12; a singular system, as
    _check_nonsingular defines it, raises.
    """
    if sigma is None:
        sigma = _median_sigma(sample)
    _check_kernel(sigma, lam)

    evals, u = _kernel_spectrum(sample, sigma)
    shifted = evals + lam
    with np.errstate(divide="ignore"):
        cond = np.abs(shifted).max() / np.abs(shifted).min()
    if cond > 1e12:
        warnings.warn(f"ill-conditioned kernel system (cond ~ {cond:.2e})", stacklevel=2)
    _check_nonsingular(shifted)
    r = np.sqrt(sample.weights)
    alpha = r * (u @ ((u.T @ (r * sample.responses)) / shifted))
    # the sample's matrix is read-only, so the model shares it
    return KrrModel(training_matrix=sample._matrix, alpha=alpha, sigma=sigma, lam=lam)


def krr_predict(model: KrrModel, x) -> float:
    """Representer-form prediction sum_i alpha_i * kernel(d(x, X_i))."""
    return float(krr_predict_batch(model, [x])[0])


def krr_predict_batch(model: KrrModel, predictors) -> np.ndarray:
    """Predictions at several query points: grids (a (k, m) matrix or a list
    of QuantileGrid, checked as QuantileGrid is) or scalars (a 1-d array)."""
    d = geometry.pairwise_wasserstein(predictors, model.training_matrix)
    return laplacian_kernel(d, model.sigma) @ model.alpha


def _krr_loo_hat(sample: SurveySample, lams,
                 sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """Hat-matrix shortcut loo_i = y_i - (y_i - yhat_i) / (1 - H_ii) at one
    penalty or a 1-d grid of them; returns the shortcut values and the
    denominators 1 - H_ii, (n,) for one penalty and (n, L) for L.

    With S = U diag(s) U^T from _kernel_spectrum and g = lam / (s + lam),
    the hat matrix K (WK + lam I)^-1 W is W^-1/2 U diag(1 - g) U^T W^1/2, so
    1 - H_ii = sum_k U_ik^2 g_k and y - yhat = W^-1/2 U diag(g) U^T W^1/2 y
    (Rifkin & Lippert 2007, Notes on Regularized Least Squares), without
    cancellation as H_ii nears 1. The penalties are the columns of G, so
    (U o U) G and U (G o U^T W^1/2 y) serve the whole grid in two n x n x L
    products; one penalty is the one-column case. A penalty at which the
    system is singular raises, as in krr_fit.
    """
    evals, u = _kernel_spectrum(sample, sigma)
    r = np.sqrt(sample.weights)
    y = sample.responses
    col = np.asarray(lams, dtype=float).reshape(1, -1)
    shifted = evals[:, None] + col
    _check_nonsingular(shifted)
    with np.errstate(divide="ignore", invalid="ignore"):
        g = col / shifted
        denom = (u * u) @ g
        resid = (u @ (g * (u.T @ (r * y))[:, None])) / r[:, None]
        loo = y[:, None] - resid / denom
    shape = (sample.n, *np.shape(lams))
    return loo.reshape(shape), denom.reshape(shape)


def krr_loo(sample: SurveySample, lam: float | np.ndarray,
            sigma: float | None = None) -> np.ndarray:
    """Leave-one-out ridge predictions with the kernel scale held fixed, at
    one penalty, (n,), or at each of a 1-d grid of them, (n, L).

    Every entry is the hat-matrix shortcut of _krr_loo_hat, which stays
    accurate as 1 - H_ii nears zero. Each penalty must be positive: at
    lam = 0 the shortcut is 0 / 0. A penalty at which the kernel system is
    singular raises as in krr_fit. The kernel scale defaults as in krr_fit.
    """
    if sample.n < 2:
        raise ValueError("need at least two observations")
    if sigma is None:
        sigma = _median_sigma(sample)
    _check_kernel(sigma, lam)
    if not np.all(np.asarray(lam) > 0):
        raise ValueError("lambda must be positive for leave-one-out")
    return _krr_loo_hat(sample, lam, sigma)[0]


def krr_select_lambda(sample: SurveySample, sigma: float,
                      lambda_grid) -> tuple[float, np.ndarray]:
    """Pick the ridge penalty minimizing weighted leave-one-out squared error;
    returns it with its krr_loo predictions.

    One krr_loo call serves the whole grid. Ties break toward the larger
    penalty (stronger regularization). Raises ValueError when no penalty
    gives a finite error, or when the kernel system is singular at one.
    """
    grid = _tuning_grid(lambda_grid, "lambda")[::-1]
    return _least_loo_error(sample, grid, krr_loo(sample, grid, sigma=sigma).T,
                            "no lambda in the grid gives a finite leave-one-out error")


@functools.lru_cache(maxsize=1)
def _matrix_json(shape: tuple, data: bytes) -> str:
    """The JSON text of a float matrix given by its shape and bytes. The
    models of one regress run share their training matrix, so the last text
    is kept: equal bytes share it, and -0.0 and 0.0 do not."""
    return json.dumps(np.frombuffer(data).reshape(shape).tolist())


def save_model(model: KrrModel, path) -> None:
    """Persist a fitted model as a self-describing JSON text artifact.

    The file is json.dumps of the payload, with the training matrix last.
    """
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "kind": model.kind,
        "kernel_name": "laplacian",
        "sigma": model.sigma,
        "lambda": model.lam,
        "alpha": model.alpha.tolist(),
    }
    matrix = model.training_matrix
    text = _matrix_json(matrix.shape, matrix.tobytes())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload)[:-1] + ', "training_matrix": ' + text + "}")


def load_model(path) -> KrrModel:
    """Read back a model written by save_model.

    Rejects, with a ValueError that names the file, a payload save_model
    would not write: another format version or kernel, a kind other than
    that of its training matrix, or a model that KrrModel rejects.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict):
            raise ValueError("not a model object")
        version = payload.get("format_version")
        if version != MODEL_FORMAT_VERSION:
            raise ValueError(f"unsupported model format version {version!r}")
        if payload.get("kernel_name") != "laplacian":
            raise ValueError(f"unsupported kernel {payload.get('kernel_name')!r}")
        kind = payload.get("kind")
        if kind not in _KINDS.values():
            raise ValueError(f"unknown model kind {kind!r}")
        model = KrrModel(training_matrix=payload.get("training_matrix"),
                         alpha=payload.get("alpha"), sigma=payload.get("sigma"),
                         lam=payload.get("lambda"))
        if model.kind != kind:
            raise ValueError(f"training_matrix is not a {kind} model's predictor matrix")
        return model
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
