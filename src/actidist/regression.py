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
import json
import warnings
from dataclasses import dataclass

import numpy as np

from . import geometry
from .distribution import check_quantile_rows
from .survey import check_weights, median_heuristic_sigma_from_matrix

_SQRT_2PI = np.sqrt(2.0 * np.pi)

GRID_KIND = "grid"
SCALAR_KIND = "scalar"

MODEL_FORMAT_VERSION = 1


def gaussian_kernel(u: np.ndarray) -> np.ndarray:
    """Standard Gaussian density; the smoother's local kernel."""
    return np.exp(-0.5 * np.asarray(u) ** 2) / _SQRT_2PI


def laplacian_kernel(dist, sigma: float):
    """exp(-dist / sigma); the reproducing kernel used for ridge regression."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    d = np.asarray(dist, dtype=float)
    if np.any(d < 0):
        raise ValueError("distances must be nonnegative")
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

        matrix = np.array(predictors, dtype=float)
        if matrix.shape[:1] != (n,):
            raise ValueError("predictors and responses must have equal length")
        if matrix.ndim == 2 and matrix.shape[1] > 0:
            check_quantile_rows(matrix)
            self.kind = GRID_KIND
        elif matrix.ndim == 1 and np.all(np.isfinite(matrix)):
            self.kind = SCALAR_KIND
        else:
            raise ValueError("predictors must be quantile grids or finite scalars")
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

    def distances_to(self, x) -> np.ndarray:
        """Distances from every training predictor to a query point: a grid
        (QuantileGrid or 1-d array) or a scalar."""
        query = np.asarray(x, dtype=float).reshape(1, -1)
        if self.kind == GRID_KIND:
            check_quantile_rows(query)
        return geometry.pairwise_wasserstein(self._matrix, query)[:, 0]

    def subset(self, mask: np.ndarray) -> "SurveySample":
        idx = np.flatnonzero(mask)
        return SurveySample(self._matrix[idx], self.responses[idx], self.weights[idx])

    def with_responses(self, responses) -> "SurveySample":
        """The same predictors and weights with other responses; the new
        sample shares this one's predictor matrix, cached distances and
        kernel spectrum."""
        out = copy.copy(self)
        out.responses = self._checked(responses)
        return out


def _nw_weights(dist, bandwidth: float, weights: np.ndarray) -> np.ndarray:
    """Smoother weights kernel(d / h) * w, before normalization; the distance
    follows the predictors: Wasserstein for grids, absolute for scalars."""
    if not bandwidth > 0:
        raise ValueError("bandwidth must be positive")
    return gaussian_kernel(dist / bandwidth) * weights


def nw_predict(sample: SurveySample, bandwidth: float, x) -> float:
    """Survey-weighted Nadaraya-Watson prediction at a query point.

    s_i proportional to kernel(d(X_i, x) / h) * w_i, normalized to sum one.
    The result is a convex combination of the responses and is clipped to
    the observed response range so the bound also holds under floating
    point; binary responses therefore yield a probability in [0, 1].
    """
    k = _nw_weights(sample.distances_to(x), bandwidth, sample.weights)
    total = k.sum()
    if not total > 0:
        raise ValueError("empty neighborhood")
    pred = float(k @ sample.responses) / total
    return float(np.clip(pred, sample.responses.min(), sample.responses.max()))


def nw_loo(sample: SurveySample, bandwidth: float) -> np.ndarray:
    """Leave-one-out smoother predictions at every training point.

    Entry i is the prediction at X_i with observation i removed. Points
    whose remaining kernel mass is zero come back as NaN so callers can
    surface them instead of silently dropping subjects.
    """
    if sample.n < 2:
        raise ValueError("need at least two observations")
    k = _nw_weights(sample.distance_matrix(), bandwidth, sample.weights)
    np.fill_diagonal(k, 0.0)
    totals = k.sum(axis=1)
    y = sample.responses
    out = np.full(sample.n, np.nan)
    ok = totals > 0
    out[ok] = (k[ok] @ y) / totals[ok]
    np.clip(out, y.min(), y.max(), out=out)
    return out


def nw_select_bandwidth(sample: SurveySample, h_grid) -> float:
    """Pick the bandwidth minimizing weighted leave-one-out squared error.

    Candidates producing any empty leave-one-out neighborhood are skipped;
    ties break toward the smaller bandwidth.
    """
    h_grid = np.sort(np.asarray(h_grid, dtype=float))
    if h_grid.size == 0:
        raise ValueError("empty bandwidth grid")
    if np.any(h_grid <= 0):
        raise ValueError("bandwidths must be positive")
    best_h, best_err = None, np.inf
    for h in h_grid:
        preds = nw_loo(sample, float(h))
        if np.any(~np.isfinite(preds)):
            continue
        err = float(np.sum(sample.weights * (sample.responses - preds) ** 2))
        if err < best_err:
            best_h, best_err = float(h), err
    if best_h is None:
        raise ValueError("empty neighborhood at every bandwidth")
    return best_h


def distance_quantile_grid(sample: SurveySample) -> np.ndarray:
    """Default bandwidth grid: the 5%, 15%, ..., 95% quantiles of the
    positive pairwise distances."""
    d = sample.distance_matrix()
    iu, ju = np.triu_indices(sample.n, k=1)
    pos = d[iu, ju]
    pos = pos[pos > 0]
    if pos.size == 0:
        raise ValueError("degenerate predictor set")
    return np.unique(np.quantile(pos, np.linspace(0.05, 0.95, 10)))


@dataclass(frozen=True)
class KrrModel:
    """Fitted kernel ridge regressor; immutable and safe to share."""

    kind: str
    training_matrix: np.ndarray
    alpha: np.ndarray
    sigma: float
    lam: float


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


def krr_fit(sample: SurveySample, lam: float, sigma: float | None = None) -> KrrModel:
    """Fit survey-weighted kernel ridge regression.

    Solves (W K + lam I) alpha = W Y, where K_ij = laplacian_kernel(d(X_i, X_j))
    and W = diag(weights), as alpha = W^1/2 U diag(1 / (s + lam)) U^T W^1/2 Y
    from the spectrum of _kernel_spectrum. The kernel scale defaults to the
    weighted median heuristic on the training predictors. A warning is
    emitted when the condition number max|s + lam| / min|s + lam| exceeds
    1e12; the system is singular when some s_k + lam falls to
    n * eps * max|s + lam| or below, numpy's matrix_rank tolerance.
    """
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if sigma is None:
        sigma = median_heuristic_sigma_from_matrix(sample.distance_matrix(),
                                                   sample.weights)
    if not sigma > 0:
        raise ValueError("sigma must be positive")

    evals, u = _kernel_spectrum(sample, sigma)
    shifted = evals + lam
    top = np.abs(shifted).max()
    with np.errstate(divide="ignore"):
        cond = top / np.abs(shifted).min()
    if cond > 1e12:
        warnings.warn(f"ill-conditioned kernel system (cond ~ {cond:.2e})", stacklevel=2)
    if np.any(shifted <= sample.n * np.finfo(float).eps * top):
        raise ValueError("singular kernel system; increase lambda")
    r = np.sqrt(sample.weights)
    alpha = r * (u @ ((u.T @ (r * sample.responses)) / shifted))
    # the sample's matrix is read-only, so the model shares it
    return KrrModel(kind=sample.kind, training_matrix=sample._matrix, alpha=alpha,
                    sigma=float(sigma), lam=float(lam))


def krr_predict(model: KrrModel, x) -> float:
    """Representer-form prediction sum_i alpha_i * kernel(d(x, X_i))."""
    return float(krr_predict_batch(model, [x])[0])


def krr_predict_batch(model: KrrModel, predictors) -> np.ndarray:
    """Predictions at several query points: grids (a (k, m) matrix or a list
    of QuantileGrid, checked as QuantileGrid is) or scalars (a 1-d array)."""
    query = np.asarray(predictors, dtype=float)
    if model.kind == GRID_KIND:
        check_quantile_rows(query)
    d = geometry.pairwise_wasserstein(query, model.training_matrix)
    return laplacian_kernel(d, model.sigma) @ model.alpha


def _krr_loo_refit(sample: SurveySample, lam: float, sigma: float,
                   indices) -> np.ndarray:
    """Leave-one-out predictions at `indices`, each from an explicit refit
    without that observation."""
    out = []
    for i in indices:
        mask = np.ones(sample.n, dtype=bool)
        mask[i] = False
        model = krr_fit(sample.subset(mask), lam, sigma=sigma)
        out.append(krr_predict_batch(model, sample._matrix[i:i + 1])[0])
    return np.asarray(out, dtype=float)


def _krr_loo_hat(sample: SurveySample, lam: float,
                 sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """Hat-matrix shortcut loo_i = y_i - (y_i - yhat_i) / (1 - H_ii); returns
    the shortcut values and the denominators 1 - H_ii.

    With S = U diag(s) U^T from _kernel_spectrum and g = lam / (s + lam),
    the hat matrix K (WK + lam I)^-1 W is W^-1/2 U diag(1 - g) U^T W^1/2, so
    1 - H_ii = sum_k U_ik^2 g_k and y - yhat = W^-1/2 U diag(g) U^T W^1/2 y:
    O(n^2) per lambda, without cancellation as H_ii nears 1 (Rifkin &
    Lippert 2007, Notes on Regularized Least Squares).
    """
    evals, u = _kernel_spectrum(sample, sigma)
    r = np.sqrt(sample.weights)
    y = sample.responses
    with np.errstate(divide="ignore", invalid="ignore"):
        g = lam / (evals + lam)
        denom = (u * u) @ g
        resid = (u @ (g * (u.T @ (r * y)))) / r
        loo = y - resid / denom
    return loo, denom


def krr_loo(sample: SurveySample, lam: float, sigma: float | None = None) -> np.ndarray:
    """Leave-one-out ridge predictions with the kernel scale held fixed.

    Uses the hat-matrix shortcut, and refits explicitly every entry whose
    shortcut denominator 1 - H_ii drops below 1e-10, where the formula is
    no longer trustworthy.
    """
    if sample.n < 2:
        raise ValueError("need at least two observations")
    if sigma is None:
        sigma = median_heuristic_sigma_from_matrix(sample.distance_matrix(),
                                                   sample.weights)
    loo, denom = _krr_loo_hat(sample, lam, sigma)
    bad = np.flatnonzero((denom < 1e-10) | ~np.isfinite(loo))
    if bad.size:
        loo[bad] = _krr_loo_refit(sample, lam, sigma, bad)
    return loo


def krr_select_lambda(sample: SurveySample, sigma: float, lambda_grid) -> float:
    """Pick the ridge penalty minimizing weighted leave-one-out squared error.

    Ties break toward the larger penalty (stronger regularization). Raises
    ValueError when no penalty gives a finite error.
    """
    grid = np.sort(np.asarray(lambda_grid, dtype=float))[::-1]
    if grid.size == 0:
        raise ValueError("empty lambda grid")
    if np.any(grid <= 0):
        raise ValueError("lambda grid entries must be positive")
    best_lam, best_err = None, np.inf
    for lam in grid:
        preds = krr_loo(sample, float(lam), sigma=sigma)
        err = float(np.sum(sample.weights * (sample.responses - preds) ** 2))
        if err < best_err:
            best_lam, best_err = float(lam), err
    if best_lam is None:
        raise ValueError("no lambda in the grid gives a finite leave-one-out error")
    return best_lam


def save_models(pairs) -> None:
    """Persist (model, path) pairs with save_model; a training matrix that
    several models share is encoded to JSON once."""
    matrix_texts: dict = {}
    for model, path in pairs:
        save_model(model, path, matrix_texts)


def save_model(model: KrrModel, path, matrix_texts=None) -> None:
    """Persist a fitted model as a self-describing JSON text artifact.

    The file is json.dumps of the payload, with the training matrix last.
    matrix_texts, a dict that save_models keeps across its calls, maps each
    training matrix already encoded (keyed by shape and bytes) to its text.
    """
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "kind": model.kind,
        "kernel_name": "laplacian",
        "sigma": model.sigma,
        "lambda": model.lam,
        "alpha": model.alpha.tolist(),
    }
    texts = {} if matrix_texts is None else matrix_texts
    matrix = model.training_matrix
    key = (matrix.shape, matrix.tobytes())
    if key not in texts:
        texts[key] = json.dumps(matrix.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload)[:-1] + ', "training_matrix": ' + texts[key] + "}")


def load_model(path) -> KrrModel:
    """Read back a model written by save_model.

    Rejects, with a ValueError that names the file, a payload save_model
    would not write: another format version or kernel, an unknown kind, a
    training matrix that is not finite (or, for grids, not rows that pass
    check_quantile_rows), an alpha that is not one finite value per training
    row, a sigma that is not positive and finite, or a lambda that is
    negative or not finite.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return _model_from_payload(json.load(fh))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _model_from_payload(payload) -> KrrModel:
    if not isinstance(payload, dict):
        raise ValueError("not a model object")
    version = payload.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}")
    if payload.get("kernel_name") != "laplacian":
        raise ValueError(f"unsupported kernel {payload.get('kernel_name')!r}")
    kind = payload.get("kind")
    if kind not in (GRID_KIND, SCALAR_KIND):
        raise ValueError(f"unknown model kind {kind!r}")
    training = np.asarray(payload.get("training_matrix"), dtype=float)
    if training.ndim != (2 if kind == GRID_KIND else 1) or training.size == 0:
        raise ValueError(f"training_matrix is not a {kind} model's predictor matrix")
    if kind == GRID_KIND:
        check_quantile_rows(training)
    elif not np.all(np.isfinite(training)):
        raise ValueError("training predictors must be finite")
    alpha = np.asarray(payload.get("alpha"), dtype=float)
    if alpha.shape != training.shape[:1] or not np.all(np.isfinite(alpha)):
        raise ValueError("alpha must hold one finite value per training row")
    sigma, lam = float(payload.get("sigma")), float(payload.get("lambda"))
    if not (np.isfinite(sigma) and sigma > 0):
        raise ValueError("sigma must be positive and finite")
    if not (np.isfinite(lam) and lam >= 0):
        raise ValueError("lambda must be nonnegative and finite")
    return KrrModel(kind=kind, training_matrix=training, alpha=alpha,
                    sigma=sigma, lam=lam)
