import json
import math
import warnings

import numpy as np
import pytest

from actidist import geometry, io
from actidist.distribution import QuantileGrid
from actidist.evaluation import DEFAULT_LAMBDA_GRID
from actidist.regression import (
    _krr_loo_hat,
    MODEL_FORMAT_VERSION,
    KrrModel,
    SurveySample,
    distance_quantile_grid,
    gaussian_kernel,
    krr_fit,
    krr_loo,
    krr_predict,
    krr_predict_batch,
    krr_select_lambda,
    laplacian_kernel,
    load_model,
    nw_loo,
    nw_predict,
    nw_select_bandwidth,
    save_model,
    save_models,
)
from oracles import (
    dense_loo_hat,
    loo_hat_matvec,
    nw_loo_unfused,
    refit_loo,
    select_bandwidth_loop,
    select_lambda_loop,
    training_predictions,
    unique_distance_quantiles,
)


def scalar_sample(rng, n, weight_range=(1.0, 1.0)):
    x = rng.normal(size=n)
    y = rng.normal(size=n)
    w = rng.uniform(*weight_range, size=n)
    return SurveySample(x, y, w)


def grid_sample(rng, n, m=12):
    grids = [QuantileGrid(np.sort(rng.gamma(2, 30, size=m))) for _ in range(n)]
    y = rng.normal(size=n)
    w = rng.uniform(0.5, 3.0, size=n)
    return SurveySample(grids, y, w)


class TestSurveySample:
    def test_rejects_mixed_lengths(self):
        with pytest.raises(ValueError):
            SurveySample(np.array([1.0, 2.0]), np.array([1.0]), np.array([1.0]))

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            SurveySample(np.array([1.0]), np.array([1.0]), np.array([0.0]))

    def test_grid_kind_distances_are_wasserstein(self):
        a = QuantileGrid(np.array([0.0, 0.0]))
        b = QuantileGrid(np.array([4.0, 4.0]))
        s = SurveySample([a, b], np.array([0.0, 1.0]))
        assert s.distance_matrix()[0, 1] == 4.0
        assert s.distances_to(a).tolist() == [0.0, 4.0]

    def test_non_finite_inputs_rejected(self):
        x, y = np.array([0.0, 1.0]), np.array([1.0, 2.0])
        with pytest.raises(ValueError, match="weights must be positive and finite"):
            SurveySample(x, y, np.array([1.0, np.inf]))
        with pytest.raises(ValueError, match="responses must be finite"):
            SurveySample(x, np.array([1.0, np.nan]))
        with pytest.raises(ValueError, match="finite scalars"):
            SurveySample(np.array([0.0, np.inf]), y)

    def test_distance_matrix_computed_once_read_only(self, monkeypatch):
        rng = np.random.default_rng(30)
        s = grid_sample(rng, 8)
        calls = []
        real = geometry.pairwise_wasserstein

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(geometry, "pairwise_wasserstein", counting)
        d = s.distance_matrix()
        assert s.distance_matrix() is d
        assert s.with_responses(-s.responses).distance_matrix() is d
        assert len(calls) == 1
        assert not d.flags.writeable
        with pytest.raises(ValueError):
            d[0, 1] = 1.0

    def test_matrix_and_grid_list_agree(self):
        rng = np.random.default_rng(31)
        grids = [QuantileGrid(np.sort(rng.gamma(2, 30, size=12))) for _ in range(9)]
        x = np.stack([g.values for g in grids])
        y, w = rng.normal(size=9), rng.uniform(0.5, 3.0, size=9)
        from_list, from_matrix = SurveySample(grids, y, w), SurveySample(x, y, w)
        assert from_list.kind == from_matrix.kind == "grid"
        np.testing.assert_array_equal(from_list.predictors, x)
        assert not from_matrix.predictors.flags.writeable
        np.testing.assert_array_equal(from_list.distance_matrix(),
                                      from_matrix.distance_matrix())
        np.testing.assert_array_equal(from_list.distances_to(grids[3]),
                                      from_matrix.distances_to(x[3]))
        np.testing.assert_array_equal(krr_loo(from_list, 0.3), krr_loo(from_matrix, 0.3))
        np.testing.assert_array_equal(nw_loo(from_list, 20.0),
                                      nw_loo(from_matrix, 20.0))
        model = krr_fit(from_matrix, 0.3)
        np.testing.assert_array_equal(krr_predict_batch(model, grids[:4]),
                                      krr_predict_batch(model, x[:4]))

    @pytest.mark.parametrize("bad_row", [[0.0, 2.0, 1.0], [-1.0, 0.0, 1.0],
                                         [0.0, np.inf, np.inf]])
    def test_raw_matrix_checked_like_grids(self, bad_row):
        with pytest.raises(ValueError) as grid_error:
            QuantileGrid(np.array(bad_row))
        x = np.array([[0.0, 1.0, 2.0], bad_row])
        with pytest.raises(ValueError, match=str(grid_error.value)):
            SurveySample(x, np.zeros(2))

    @pytest.mark.parametrize("bad_row", [[0.0, 2.0, 1.0], [-1.0, 0.0, 1.0],
                                         [0.0, np.nan, 1.0]])
    def test_raw_queries_checked_like_grids(self, bad_row):
        with pytest.raises(ValueError) as grid_error:
            QuantileGrid(np.array(bad_row))
        x = np.array([[0.0, 1.0, 2.0], [1.0, 2.0, 4.0], [0.5, 3.0, 3.0]])
        sample = SurveySample(x, np.array([0.0, 1.0, 2.0]))
        model = krr_fit(sample, 0.3)
        queries = np.array([[0.0, 1.0, 1.0], bad_row])
        for call in (lambda: krr_predict_batch(model, queries),
                     lambda: sample.distances_to(np.array(bad_row))):
            with pytest.raises(ValueError, match=str(grid_error.value)):
                call()

    def test_with_responses_shares_the_predictors(self, monkeypatch):
        s = grid_sample(np.random.default_rng(34), 6)
        calls = []
        monkeypatch.setattr("actidist.regression.check_quantile_rows",
                            lambda values: calls.append(values))
        y = np.arange(6.0)
        t = s.with_responses(y)
        assert t.predictors is s.predictors
        assert t.weights is s.weights and t.kind == s.kind
        assert t.responses.tolist() == y.tolist()
        assert s.responses.tolist() != y.tolist()
        assert calls == []

    @pytest.mark.parametrize("y, message", [
        (np.zeros(5), "aligned 1-d"),
        (np.zeros((6, 1)), "aligned 1-d"),
        (np.zeros((1, 6)), "aligned 1-d"),
        ([0.0, 1.0, np.nan, 0.0, 1.0, 2.0], "responses must be finite"),
        ([0.0, 1.0, 2.0, 3.0, 4.0, -np.inf], "responses must be finite"),
        (["a"] * 6, "could not convert"),
    ])
    def test_with_responses_rejects_bad_responses(self, y, message):
        s = grid_sample(np.random.default_rng(35), 6)
        with pytest.raises(ValueError, match=message):
            s.with_responses(y)

    def test_input_matrix_copied(self, tmp_path):
        """The sample keeps its own copy: a writeable input stays the
        caller's, and a read-only one cannot reach the sample either when
        its caller makes it writeable again."""
        x = np.array([[0.0, 1.0, 2.0], [1.0, 2.0, 4.0], [0.5, 3.0, 3.0]])
        y = np.array([0.0, 1.0, 2.0])
        copied = SurveySample(x, y).predictors
        assert not np.shares_memory(copied, x)
        assert x.flags.writeable and not copied.flags.writeable
        x[0, 0] = 0.25
        assert copied[0, 0] == 0.0

        io.write_quantile_csv(tmp_path / "q.csv", ["a", "b", "c"], x)
        for ids, matrix in (io.read_quantile_csv(tmp_path / "q.csv"),
                            io._read_quantile_rows(tmp_path / "q.csv")):
            s = SurveySample(matrix, y)
            assert not np.shares_memory(s.predictors, matrix)
            matrix.setflags(write=True)
            matrix[0, 0] = 0.0
            assert s.predictors[0, 0] == 0.25

    def test_models_of_one_predictor_set_share_the_matrix(self):
        base = grid_sample(np.random.default_rng(36), 6)
        rng = np.random.default_rng(37)
        models = [krr_fit(base.with_responses(rng.normal(size=6)), lam=0.2, sigma=20.0)
                  for _ in range(3)]
        assert all(m.training_matrix is base.predictors for m in models)

    def test_binary_detection(self):
        assert SurveySample(np.array([1.0, 2.0]), np.array([0.0, 1.0])).is_binary()
        assert not SurveySample(np.array([1.0, 2.0]), np.array([0.0, 1.5])).is_binary()


class TestNwPredict:
    def test_constant_responses(self):
        s = SurveySample(np.array([0.0, 1.0, 5.0]), np.array([3.0, 3.0, 3.0]))
        assert nw_predict(s, 1.0, 2.0) == 3.0

    def test_single_training_point(self):
        s = SurveySample(np.array([2.0]), np.array([7.0]))
        assert nw_predict(s, 0.5, 4.0) == 7.0

    def test_equidistant_weighting(self):
        s = SurveySample(np.array([-1.0, 1.0]), np.array([0.0, 4.0]),
                         np.array([1.0, 3.0]))
        assert nw_predict(s, 3.0, 0.0) == 3.0

    def test_empty_neighborhood_with_compact_kernel(self):
        # exp(-u^2 / 2) underflows to exactly 0 beyond u ~ 39, so the
        # Gaussian kernel has compact support in floating point
        s = SurveySample(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="empty neighborhood"):
            nw_predict(s, 0.5, 50.0)

    @pytest.mark.parametrize("bandwidth", [0.0, -1.0, np.nan])
    def test_invalid_bandwidth_rejected(self, bandwidth):
        s = SurveySample(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="bandwidth must be positive"):
            nw_predict(s, bandwidth, 0.5)
        with pytest.raises(ValueError, match="bandwidth must be positive"):
            nw_loo(s, bandwidth)

    def test_convexity_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            s = scalar_sample(rng, 8, weight_range=(0.1, 5.0))
            x = rng.normal() * 3
            pred = nw_predict(s, 0.3, x)
            assert s.responses.min() <= pred <= s.responses.max()


class TestNwLoo:
    def test_two_points_swap(self):
        s = SurveySample(np.array([0.0, 1.0]), np.array([5.0, 9.0]))
        np.testing.assert_array_equal(nw_loo(s, 1.0), [9.0, 5.0])

    def test_matches_explicit_refit(self):
        rng = np.random.default_rng(1)
        s = scalar_sample(rng, 20, weight_range=(0.5, 3.0))
        bandwidth = 0.7
        fast = nw_loo(s, bandwidth)
        mask = np.ones(20, dtype=bool)
        for i in range(20):
            mask[:] = True
            mask[i] = False
            expected = nw_predict(s.subset(mask), bandwidth, s._matrix[i])
            assert fast[i] == pytest.approx(expected, abs=1e-12)

    def test_duplicate_split_leaves_other_entries(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=6)
        y = rng.normal(size=6)
        w = rng.uniform(1, 2, size=6)
        bandwidth = 1.0
        base = nw_loo(SurveySample(x, y, w), bandwidth)
        x2 = np.concatenate([x, [x[0]]])
        y2 = np.concatenate([y, [y[0]]])
        w2 = np.concatenate([w, [w[0] / 2]])
        w2[0] = w[0] / 2
        split = nw_loo(SurveySample(x2, y2, w2), bandwidth)
        np.testing.assert_allclose(split[1:6], base[1:6], atol=1e-12)

    def test_empty_neighborhood_reported_as_nan(self):
        s = SurveySample(np.array([0.0, 100.0, 100.3]), np.array([1.0, 2.0, 3.0]))
        out = nw_loo(s, 0.5)
        assert np.isnan(out[0]) and np.isfinite(out[1:]).all()


class TestNwSelectBandwidth:
    def test_single_candidate(self):
        rng = np.random.default_rng(3)
        s = scalar_sample(rng, 10)
        assert nw_select_bandwidth(s, [0.8])[0] == 0.8

    def test_smooth_signal_beats_oversmoothing(self):
        rng = np.random.default_rng(4)
        x = np.linspace(0, 1, 40)
        y = np.sin(2 * np.pi * x)
        s = SurveySample(x, y, np.ones(40))
        grid = np.array([0.02, 0.05, 0.1, 0.3, 1.0, 5.0])
        h, _ = nw_select_bandwidth(s, grid)

        def loo_err(h_):
            preds = nw_loo(s, h_)
            return np.sum((y - preds) ** 2)

        assert h in grid
        assert loo_err(h) <= loo_err(grid.max())

    def test_scale_equivariance(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=15)
        y = rng.normal(size=15)
        grid = np.array([0.1, 0.4, 1.0, 2.5])
        h, _ = nw_select_bandwidth(SurveySample(x, y), grid)
        c = 4.0  # exact in binary floating point
        h_scaled, _ = nw_select_bandwidth(SurveySample(c * x, y), c * grid)
        assert h_scaled == c * h

    def test_all_empty_is_an_error(self):
        s = SurveySample(np.array([0.0, 100.0]), np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="empty neighborhood"):
            nw_select_bandwidth(s, [0.1, 0.2])

    def test_distance_quantile_grid_is_positive(self):
        rng = np.random.default_rng(6)
        s = scalar_sample(rng, 12)
        grid = distance_quantile_grid(s)
        assert np.all(grid > 0) and grid.size <= 10


class TestLaplacianKernel:
    def test_zero_distance(self):
        assert laplacian_kernel(0.0, 2.0) == 1.0

    def test_distance_equal_to_scale(self):
        assert laplacian_kernel(3.0, 3.0) == pytest.approx(math.exp(-1))

    def test_direct_evaluation(self):
        assert laplacian_kernel(1.0, 2.0) == pytest.approx(math.exp(-0.5))

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            laplacian_kernel(-1.0, 1.0)

    def test_nan_distance_rejected(self):
        with pytest.raises(ValueError, match="distances must be nonnegative, not NaN"):
            laplacian_kernel(np.array([0.5, np.nan]), 1.0)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf])
    def test_non_finite_scale_rejected(self, sigma):
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            laplacian_kernel(1.0, sigma)


class TestRidgeParameterChecks:
    """krr_fit and krr_loo reject what load_model would, with its messages."""

    @pytest.mark.parametrize("lam, sigma, message", [
        (np.nan, 1.0, "lambda must be nonnegative and finite"),
        (np.inf, 1.0, "lambda must be nonnegative and finite"),
        (0.1, np.inf, "sigma must be positive and finite"),
        (0.1, np.nan, "sigma must be positive and finite"),
    ])
    def test_fit_and_loo_reject(self, lam, sigma, message):
        s = scalar_sample(np.random.default_rng(53), 6)
        for estimator in (krr_fit, krr_loo):
            with pytest.raises(ValueError, match=message):
                estimator(s, lam, sigma=sigma)

    def test_loo_rejects_a_grid_with_a_non_finite_penalty(self):
        s = scalar_sample(np.random.default_rng(54), 6)
        with pytest.raises(ValueError, match="lambda must be nonnegative and finite"):
            krr_loo(s, np.array([1.0, np.nan]), sigma=1.0)


class TestKrrFit:
    def test_single_point_hand_solve(self):
        s = SurveySample(np.array([0.0]), np.array([2.0]), np.array([1.0]))
        model = krr_fit(s, lam=1.0, sigma=1.0)
        assert model.alpha.tolist() == [1.0]
        assert krr_predict(model, 0.0) == 1.0

    def test_interpolates_at_zero_penalty(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=10) * 3
        y = rng.normal(size=10)
        model = krr_fit(SurveySample(x, y), lam=0.0, sigma=2.0)
        np.testing.assert_allclose(training_predictions(model), y, atol=1e-8)

    def test_huge_penalty_shrinks_to_zero(self):
        rng = np.random.default_rng(8)
        s = scalar_sample(rng, 12)
        model = krr_fit(s, lam=1e8, sigma=1.0)
        assert np.max(np.abs(training_predictions(model))) < 1e-6

    def test_singular_at_zero_penalty(self):
        x = np.array([1.0, 1.0, 4.0])
        y = np.array([0.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="singular kernel system"):
            with pytest.warns(UserWarning, match="ill-conditioned"):
                krr_fit(SurveySample(x, y), lam=0.0, sigma=1.0)

    def test_dense_solve_oracle(self):
        rng = np.random.default_rng(9)
        cases = []
        for _ in range(5):
            n = int(rng.integers(4, 30))
            cases.append((scalar_sample(rng, n, weight_range=(0.5, 4.0)),
                          float(rng.uniform(0.05, 2.0)), float(rng.uniform(0.5, 2.0))))
        # a weighted grid sample without duplicate rows, down to lambda = 0
        grids = grid_sample(rng, 20)
        cases += [(grids, float(lam), 30.0) for lam in (0.0, *DEFAULT_LAMBDA_GRID)]
        for s, lam, sigma in cases:
            n = s.n
            model = krr_fit(s, lam=lam, sigma=sigma)
            k = np.empty((n, n))
            for i in range(n):
                for j in range(n):
                    diff = s._matrix[i] - s._matrix[j]
                    dist = math.sqrt(np.mean(diff ** 2)) if s.kind == "grid" else abs(diff)
                    k[i, j] = math.exp(-dist / sigma)
            a = np.diag(s.weights) @ k + lam * np.eye(n)
            expected, *_ = np.linalg.lstsq(a, s.weights * s.responses, rcond=None)
            rel = np.linalg.norm(model.alpha - expected) / np.linalg.norm(expected)
            assert rel < 1e-10

    def test_default_sigma_is_median_heuristic(self):
        rng = np.random.default_rng(10)
        s = scalar_sample(rng, 8, weight_range=(0.5, 2.0))
        from actidist.survey import median_heuristic_sigma_from_matrix
        model = krr_fit(s, lam=0.5)
        assert model.sigma == median_heuristic_sigma_from_matrix(
            s.distance_matrix(), s.weights)


class TestKrrPredict:
    def test_far_query_decays_to_zero(self):
        rng = np.random.default_rng(11)
        s = scalar_sample(rng, 6)
        model = krr_fit(s, lam=0.5, sigma=1.0)
        assert abs(krr_predict(model, 1e6)) < 1e-12

    def test_zero_alpha(self):
        model = KrrModel(kind="scalar", training_matrix=np.array([0.0, 1.0]),
                         alpha=np.zeros(2), sigma=1.0, lam=1.0)
        assert krr_predict(model, 0.3) == 0.0

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(12)
        s = scalar_sample(rng, 7)
        model = krr_fit(s, lam=0.3, sigma=1.0)
        queries = rng.normal(size=4)
        batch = krr_predict_batch(model, queries)
        for q, expected in zip(queries, batch):
            assert krr_predict(model, q) == pytest.approx(expected, abs=1e-15)


class TestKrrLoo:
    def test_two_point_closed_form(self):
        # leaving one point out leaves a one-point model: alpha = w y / (w + lam)
        x = np.array([0.0, 1.0])
        y = np.array([2.0, 6.0])
        lam, sigma = 0.5, 1.3
        s = SurveySample(x, y)
        expected = np.array([
            y[1] / (1 + lam) * math.exp(-1 / sigma),
            y[0] / (1 + lam) * math.exp(-1 / sigma),
        ])
        for loo in (refit_loo(s, lam, sigma), _krr_loo_hat(s, lam, sigma)[0],
                    krr_loo(s, lam, sigma=sigma)):
            np.testing.assert_allclose(loo, expected, atol=1e-12)

    def test_duplicate_twin_interpolates_as_penalty_vanishes(self):
        x = np.array([0.0, 0.0, 3.0, 5.0])
        y = np.array([2.0, 2.0, -1.0, 0.5])
        s = SurveySample(x, y)
        loo = krr_loo(s, lam=1e-8, sigma=1.0)
        assert loo[0] == pytest.approx(2.0, abs=1e-5)

    def test_fast_path_matches_refit_uniform(self):
        rng = np.random.default_rng(13)
        s = scalar_sample(rng, 30)
        fast = _krr_loo_hat(s, 0.4, 1.0)[0]
        slow = refit_loo(s, 0.4, 1.0)
        np.testing.assert_allclose(fast, slow, atol=1e-8)

    def test_fast_path_matches_refit_nonuniform(self):
        rng = np.random.default_rng(14)
        s = scalar_sample(rng, 25, weight_range=(0.2, 6.0))
        fast = _krr_loo_hat(s, 0.4, 1.0)[0]
        slow = refit_loo(s, 0.4, 1.0)
        np.testing.assert_allclose(fast, slow, atol=1e-8)

    def test_spectral_matches_dense_solve_and_refit(self):
        rng = np.random.default_rng(27)
        cases = ((scalar_sample(rng, 25, weight_range=(0.5, 3.0)), 1.0),
                 (grid_sample(rng, 20), 30.0))
        for s, sigma in cases:
            for lam in DEFAULT_LAMBDA_GRID:
                loo, denom = _krr_loo_hat(s, lam, sigma)
                dense, dense_denom = dense_loo_hat(s, lam, sigma)
                np.testing.assert_allclose(denom, dense_denom, atol=1e-10)
                np.testing.assert_allclose(loo, dense, atol=1e-8)
                np.testing.assert_allclose(loo, refit_loo(s, lam, sigma), atol=1e-8)

    def test_auto_falls_back_when_shortcut_degenerates(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=6)
        y = rng.normal(size=6)
        s = SurveySample(x, y, np.full(6, 1e9))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            from actidist.regression import _krr_loo_hat
            _, denom = _krr_loo_hat(s, 1e-9, 1.0)
            assert np.any(denom < 1e-10)
            auto = krr_loo(s, 1e-9, sigma=1.0)
            refit = refit_loo(s, 1e-9, 1.0)
        np.testing.assert_allclose(auto, refit, atol=1e-8)


class TestKrrSelectLambda:
    def test_single_candidate(self):
        rng = np.random.default_rng(16)
        s = scalar_sample(rng, 8)
        lam, loo = krr_select_lambda(s, 1.0, [0.7])
        assert lam == 0.7 and loo.shape == (8,)

    def test_noiseless_smooth_signal(self):
        x = np.linspace(-2, 2, 25)
        y = np.tanh(x)
        s = SurveySample(x, y)
        grid = np.logspace(-4, 2, 7)
        lam, _ = krr_select_lambda(s, 1.0, grid)

        def loo_err(l_):
            preds = krr_loo(s, l_, sigma=1.0)
            return np.sum((y - preds) ** 2)

        assert loo_err(lam) <= loo_err(grid.max())

    def test_no_finite_error_raises(self):
        # residuals near 1e200 overflow every weighted squared error to inf
        rng = np.random.default_rng(18)
        s = SurveySample(rng.normal(size=6), rng.normal(size=6) * 1e200)
        with np.errstate(over="ignore"), \
                pytest.raises(ValueError, match="finite leave-one-out error"):
            krr_select_lambda(s, 1.0, [0.1, 1.0])

    def test_one_eigendecomposition_for_the_grid(self, monkeypatch):
        rng = np.random.default_rng(19)
        s = grid_sample(rng, 15)
        calls = []
        real = np.linalg.eigh

        def counting(a):
            calls.append(a.shape)
            return real(a)

        def no_solve(*args, **kwargs):
            raise AssertionError("np.linalg.solve called")

        monkeypatch.setattr(np.linalg, "eigh", counting)
        monkeypatch.setattr(np.linalg, "solve", no_solve)
        sigma = 30.0
        lam, _ = krr_select_lambda(s, sigma, DEFAULT_LAMBDA_GRID)
        krr_fit(s.with_responses(s.responses + 1.0), lam, sigma=sigma)
        assert calls == [(15, 15)]

    def test_empty_grid(self):
        rng = np.random.default_rng(17)
        with pytest.raises(ValueError, match="empty lambda grid"):
            krr_select_lambda(scalar_sample(rng, 5), 1.0, [])

    def test_pure_noise_prefers_heaviest_penalty(self):
        # centered noise carries no signal, so shrinking everything toward
        # zero should win the cross-validation in nearly every replicate
        grid = np.logspace(-2, 1, 4)
        wins = 0
        for rep in range(50):
            rng = np.random.default_rng(500 + rep)
            w = rng.uniform(0.5, 2, 40)
            y = rng.standard_normal(40)
            y = y - np.sum(w * y) / w.sum()
            s = SurveySample(rng.normal(size=40), y, w)
            wins += krr_select_lambda(s, 1.0, grid)[0] == grid.max()
        assert wins >= 40  # >= 80% of 50 replicates

    def test_exact_tie_breaks_toward_larger_penalty(self):
        # constant zero responses make every penalty equivalent
        s = SurveySample(np.array([0.0, 1.0, 2.0]), np.zeros(3))
        assert krr_select_lambda(s, 1.0, [0.1, 1.0, 10.0])[0] == 10.0


class TestTuningSweeps:
    """The one-pass sweeps against the per-candidate loops they replace."""

    @pytest.mark.parametrize("x", [
        np.random.default_rng(40).normal(size=30),
        # ties: repeated distances, and zero-distance pairs left out
        np.random.default_rng(41).integers(0, 4, size=25).astype(float),
        # every positive pair at one distance
        np.array([0.0, 0.0, 0.0, 1.0]),
        # one pair
        np.array([0.0, 2.5]),
        # 100 128 pairs
        np.random.default_rng(42).exponential(size=448),
    ], ids=["normal", "ties", "all-equal", "n=2", "1e5-pairs"])
    def test_distance_quantile_grid_matches_numpy(self, x):
        s = SurveySample(x, np.zeros(x.size))
        got, expected = distance_quantile_grid(s), unique_distance_quantiles(s)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()

    def test_distance_quantile_grid_matches_numpy_on_random_samples(self):
        # numpy interpolates from below under t < 0.5 and from above
        # otherwise; the two forms round apart on about one sample in five
        rng = np.random.default_rng(51)
        for _ in range(300):
            n = int(rng.integers(2, 40))
            x = rng.exponential(size=n) * 10.0 ** rng.integers(-5, 5)
            s = SurveySample(x, np.zeros(n))
            assert distance_quantile_grid(s).tobytes() == unique_distance_quantiles(s).tobytes()

    def test_distance_quantile_grid_matches_numpy_on_grids(self):
        s = grid_sample(np.random.default_rng(43), 40)
        assert distance_quantile_grid(s).tobytes() == unique_distance_quantiles(s).tobytes()

    def test_one_penalty_is_the_matvec_shortcut(self):
        rng = np.random.default_rng(44)
        for s, sigma in ((scalar_sample(rng, 25, weight_range=(0.5, 3.0)), 1.0),
                         (grid_sample(rng, 20), 30.0)):
            for lam in DEFAULT_LAMBDA_GRID:
                loo, denom = _krr_loo_hat(s, lam, sigma)
                expected, expected_denom = loo_hat_matvec(s, lam, sigma)
                assert loo.tobytes() == expected.tobytes()
                assert denom.tobytes() == expected_denom.tobytes()

    def test_grid_columns_match_one_penalty(self):
        rng = np.random.default_rng(45)
        s = grid_sample(rng, 20)
        loo, denom = _krr_loo_hat(s, DEFAULT_LAMBDA_GRID, 30.0)
        assert loo.shape == denom.shape == (20, DEFAULT_LAMBDA_GRID.size)
        for j, lam in enumerate(DEFAULT_LAMBDA_GRID):
            one, one_denom = _krr_loo_hat(s, lam, 30.0)
            np.testing.assert_allclose(denom[:, j], one_denom, rtol=1e-12)
            np.testing.assert_allclose(loo[:, j], one, atol=1e-10)

    def test_lambda_sweep_matches_per_lambda_loop(self):
        rng = np.random.default_rng(46)
        for rep in range(12):
            s = (scalar_sample(rng, 30, weight_range=(0.2, 6.0)) if rep % 2
                 else grid_sample(rng, 25))
            sigma = float(np.median(s.distance_matrix()[s.distance_matrix() > 0]))
            assert (krr_select_lambda(s, sigma, DEFAULT_LAMBDA_GRID)[0]
                    == select_lambda_loop(s, sigma, DEFAULT_LAMBDA_GRID))

    def test_lambda_sweep_refits_only_degenerate_columns(self, monkeypatch):
        from actidist import regression

        rng = np.random.default_rng(15)
        s = SurveySample(rng.normal(size=6), rng.normal(size=6), np.full(6, 1e9))
        grid = [1e-9, 1e-3, 1.0]
        refits = []
        real = regression._krr_loo_refit

        def counting(sample, lam, sigma, indices):
            refits.extend((lam, int(i)) for i in indices)
            return real(sample, lam, sigma, indices)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            expected = select_lambda_loop(s, 1.0, grid)
            loo, denom = _krr_loo_hat(s, np.asarray(grid), 1.0)
            monkeypatch.setattr(regression, "_krr_loo_refit", counting)
            lam, _ = krr_select_lambda(s, 1.0, grid)
        assert lam == expected
        degenerate = [(g, int(i)) for j, g in enumerate(grid)
                      for i in np.flatnonzero((denom[:, j] < 1e-10)
                                              | ~np.isfinite(loo[:, j]))]
        assert degenerate and sorted(refits) == sorted(degenerate)

    def test_lambda_sweep_returns_its_grid_column(self):
        rng = np.random.default_rng(52)
        cases = ((scalar_sample(rng, 30, weight_range=(0.2, 6.0)), 1.0),
                 (grid_sample(rng, 25), 30.0),
                 # degenerate entries, refitted in their columns
                 (SurveySample(rng.normal(size=6), rng.normal(size=6), np.full(6, 1e9)),
                  1.0))
        for s, sigma in cases:
            grid = np.sort(np.asarray([1e-9, *DEFAULT_LAMBDA_GRID]))[::-1]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                lam, loo = krr_select_lambda(s, sigma, grid)
                every = krr_loo(s, grid, sigma=sigma)
            assert every.shape == (s.n, grid.size)
            j = int(np.flatnonzero(grid == lam)[0])
            assert loo.tobytes() == every[:, j].tobytes()

    def test_loo_grid_refits_match_one_penalty(self):
        rng = np.random.default_rng(15)
        s = SurveySample(rng.normal(size=6), rng.normal(size=6), np.full(6, 1e9))
        grid = np.array([1.0, 1e-3, 1e-9])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            every = krr_loo(s, grid, sigma=1.0)
            for j, lam in enumerate(grid):
                np.testing.assert_allclose(every[:, j], krr_loo(s, lam, sigma=1.0),
                                           rtol=0, atol=1e-10)
                np.testing.assert_allclose(every[:, j], refit_loo(s, lam, 1.0),
                                           rtol=0, atol=1e-8)

    def test_nw_loo_matches_unfused_kernel(self):
        rng = np.random.default_rng(47)
        cases = ((scalar_sample(rng, 30, weight_range=(0.2, 6.0)), 0.3),
                 (grid_sample(rng, 25), 10.0),
                 # an empty neighborhood: the rows with mass are copied out
                 (SurveySample(np.array([0.0, 100.0, 100.3]), np.array([1.0, 2.0, 3.0])),
                  0.5))
        for s, h in cases:
            got, expected = nw_loo(s, h), nw_loo_unfused(s, h)
            assert got.tobytes() == expected.tobytes()

    def test_bandwidth_sweep_matches_loop_and_returns_its_loo(self):
        rng = np.random.default_rng(48)
        for rep in range(12):
            s = (scalar_sample(rng, 30, weight_range=(0.2, 6.0)) if rep % 2
                 else grid_sample(rng, 25))
            grid = distance_quantile_grid(s)
            h, loo = nw_select_bandwidth(s, grid)
            assert h == select_bandwidth_loop(s, grid)
            assert loo.tobytes() == nw_loo(s, h).tobytes()

    @pytest.mark.parametrize("grid", [[np.nan, 0.1, 1.0], [np.inf, 0.1],
                                      [-np.inf, 0.1], [0.1, np.nan]])
    def test_non_finite_lambda_grid_rejected(self, grid):
        s = scalar_sample(np.random.default_rng(49), 8)
        with pytest.raises(ValueError, match="lambda grid entries must be positive and finite"):
            krr_select_lambda(s, 1.0, grid)

    @pytest.mark.parametrize("grid", [[np.nan, 0.1, 1.0], [np.inf, 0.1],
                                      [-np.inf, 0.1], [0.1, np.nan]])
    def test_non_finite_bandwidth_grid_rejected(self, grid):
        s = scalar_sample(np.random.default_rng(50), 8)
        with pytest.raises(ValueError,
                           match="bandwidth grid entries must be positive and finite"):
            nw_select_bandwidth(s, grid)


class TestClassicalReduction:
    def test_nw_reduces_to_unweighted_estimator(self):
        rng = np.random.default_rng(18)
        x = rng.normal(size=15)
        y = rng.normal(size=15)
        s = SurveySample(x, y, np.full(15, 2.5))
        bandwidth = 0.8
        for q in rng.normal(size=5):
            k = gaussian_kernel(np.abs(x - q) / 0.8)
            classical = np.sum(k * y) / np.sum(k)
            assert nw_predict(s, bandwidth, q) == pytest.approx(classical, abs=1e-12)

    def test_krr_reduces_to_classical_ridge(self):
        rng = np.random.default_rng(19)
        x = rng.normal(size=12)
        y = rng.normal(size=12)
        lam, sigma = 0.6, 1.1
        model = krr_fit(SurveySample(x, y), lam=lam, sigma=sigma)
        k = np.exp(-np.abs(x[:, None] - x[None, :]) / sigma)
        classical = np.linalg.solve(k + lam * np.eye(12), y)
        np.testing.assert_allclose(model.alpha, classical, atol=1e-10)


class TestInvariances:
    def test_scaled_weights_and_penalty(self):
        rng = np.random.default_rng(20)
        s = scalar_sample(rng, 10, weight_range=(0.5, 3.0))
        c = 7.5
        base = krr_fit(s, lam=0.8, sigma=1.0)
        scaled = krr_fit(SurveySample(s._matrix, s.responses, c * s.weights),
                         lam=c * 0.8, sigma=1.0)
        queries = rng.normal(size=5)
        np.testing.assert_allclose(krr_predict_batch(base, queries),
                                   krr_predict_batch(scaled, queries), atol=1e-8)

    def test_duplicate_split_krr(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=6)
        y = rng.normal(size=6)
        w = rng.uniform(1, 3, size=6)
        base = krr_fit(SurveySample(x, y, w), lam=0.5, sigma=1.0)
        x2 = np.concatenate([x, [x[0]]])
        y2 = np.concatenate([y, [y[0]]])
        w2 = np.concatenate([w, [w[0] / 2]])
        w2[0] = w[0] / 2
        split = krr_fit(SurveySample(x2, y2, w2), lam=0.5, sigma=1.0)
        queries = rng.normal(size=6)
        np.testing.assert_allclose(krr_predict_batch(base, queries),
                                   krr_predict_batch(split, queries), atol=1e-8)


class TestPersistence:
    def test_roundtrip_scalar(self, tmp_path):
        rng = np.random.default_rng(22)
        s = scalar_sample(rng, 9)
        model = krr_fit(s, lam=0.4, sigma=1.2)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        queries = rng.normal(size=4)
        np.testing.assert_array_equal(krr_predict_batch(model, queries),
                                      krr_predict_batch(loaded, queries))

    def test_roundtrip_grid(self, tmp_path):
        rng = np.random.default_rng(23)
        s = grid_sample(rng, 6)
        model = krr_fit(s, lam=0.4)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        q = s.predictors[0]
        assert krr_predict(loaded, q) == krr_predict(model, q)

    def test_version_check(self, tmp_path):
        import json
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"format_version": 99}))
        with pytest.raises(ValueError, match="format version"):
            load_model(path)

    def test_other_kernel_rejected(self, tmp_path):
        import json
        rng = np.random.default_rng(24)
        path = tmp_path / "model.json"
        save_model(krr_fit(scalar_sample(rng, 4), lam=0.4, sigma=1.0), path)
        payload = json.loads(path.read_text())
        assert payload["kernel_name"] == "laplacian"
        payload["kernel_name"] = "gaussian"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="unsupported kernel 'gaussian'"):
            load_model(path)


def model_payload(model) -> dict:
    """The payload save_model writes, in its order."""
    return {"format_version": MODEL_FORMAT_VERSION, "kind": model.kind,
            "kernel_name": "laplacian", "sigma": model.sigma, "lambda": model.lam,
            "alpha": model.alpha.tolist(),
            "training_matrix": model.training_matrix.tolist()}


class TestModelFile:
    def test_models_sharing_a_matrix(self, tmp_path):
        rng = np.random.default_rng(31)
        base = grid_sample(rng, 6)
        # the responses of one regress run share the predictors
        models = [krr_fit(base.with_responses(rng.normal(size=6)), lam=lam, sigma=20.0)
                  for lam in (0.1, 0.5)]
        # and a model on other predictors in between
        models.insert(1, krr_fit(scalar_sample(rng, 5), lam=0.3, sigma=1.0))
        paths = [tmp_path / f"model_{k}.json" for k in range(3)]
        save_models(zip(models, paths))
        for model, path in zip(models, paths):
            assert path.read_text(encoding="utf-8") == json.dumps(model_payload(model))

    def test_one_model(self, tmp_path):
        model = krr_fit(grid_sample(np.random.default_rng(32), 4), lam=0.2)
        save_model(model, tmp_path / "model.json")
        assert (tmp_path / "model.json").read_text(encoding="utf-8") == json.dumps(
            model_payload(model))

    def test_equal_matrices_in_other_arrays(self, tmp_path):
        """Equal bytes share the text; -0.0 and 0.0 do not."""
        x = np.array([[0.0, 1.0], [1.0, 2.0], [2.0, 4.0]])
        signed = x.copy()
        signed[0, 0] = -0.0
        models = [krr_fit(SurveySample(m, [1.0, 0.0, 2.0]), lam=0.5, sigma=1.0)
                  for m in (x, x.copy(), signed)]
        paths = [tmp_path / f"model_{k}.json" for k in range(3)]
        save_models(zip(models, paths))
        texts = [p.read_text(encoding="utf-8") for p in paths]
        assert texts == [json.dumps(model_payload(m)) for m in models]
        assert '"training_matrix": [[-0.0, 1.0]' in texts[2]


def write_payload(path, payload) -> None:
    path.write_text(json.dumps(payload), encoding="utf-8")


def corrupt(payload, key, value):
    out = dict(payload)
    out[key] = value
    return out


class TestLoadModelChecks:
    @pytest.fixture
    def grid_payload(self):
        rng = np.random.default_rng(33)
        return model_payload(krr_fit(grid_sample(rng, 4, m=3), lam=0.2, sigma=20.0))

    @pytest.mark.parametrize("key, value, message", [
        ("alpha", [1.0, float("nan"), 0.0, 1.0], "alpha must hold one finite value"),
        ("alpha", [1.0, 2.0, 3.0], "alpha must hold one finite value"),
        ("alpha", [[1.0], [2.0], [3.0], [4.0]], "alpha must hold one finite value"),
        ("alpha", ["a", "b", "c", "d"], "could not convert string to float"),
        ("training_matrix", [[0.0, 1.0, float("nan")]] * 4, "must be finite"),
        ("training_matrix", [[3.0, 2.0, 1.0]] * 4, "must be nondecreasing"),
        ("training_matrix", [[-1.0, 2.0, 3.0]] * 4, "must be nonnegative"),
        ("training_matrix", [0.0, 1.0, 2.0, 3.0], "not a grid model's predictor matrix"),
        ("training_matrix", [[0.0, 1.0], [0.0]], "inhomogeneous"),
        ("training_matrix", None, "not a grid model's predictor matrix"),
        ("kind", "banana", "unknown model kind 'banana'"),
        ("sigma", 0.0, "sigma must be positive and finite"),
        ("sigma", -1.0, "sigma must be positive and finite"),
        ("sigma", float("inf"), "sigma must be positive and finite"),
        ("sigma", float("nan"), "sigma must be positive and finite"),
        ("sigma", "abc", "could not convert string to float"),
        ("sigma", None, "must be a string or a real number"),
        ("lambda", -0.5, "lambda must be nonnegative and finite"),
        ("lambda", float("inf"), "lambda must be nonnegative and finite"),
        ("lambda", [0.5], "must be a string or a real number"),
        ("format_version", 2, "unsupported model format version 2"),
    ])
    def test_rejected_with_file_name(self, tmp_path, grid_payload, key, value, message):
        path = tmp_path / "model.json"
        write_payload(path, corrupt(grid_payload, key, value))
        with pytest.raises(ValueError, match=rf"model\.json: .*{message}"):
            load_model(path)

    def test_scalar_model_needs_finite_predictors(self, tmp_path):
        payload = model_payload(krr_fit(scalar_sample(np.random.default_rng(34), 3),
                                        lam=0.2, sigma=1.0))
        path = tmp_path / "model.json"
        write_payload(path, payload)
        assert load_model(path).kind == "scalar"
        write_payload(path, corrupt(payload, "training_matrix", [0.0, float("inf"), 1.0]))
        with pytest.raises(ValueError, match="training predictors must be finite"):
            load_model(path)

    @pytest.mark.parametrize("text", ["[1, 2]", "{", "{}"])
    def test_not_a_model(self, tmp_path, text):
        path = tmp_path / "model.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=r"model\.json: "):
            load_model(path)

    def test_zero_lambda_accepted(self, tmp_path, grid_payload):
        path = tmp_path / "model.json"
        write_payload(path, corrupt(grid_payload, "lambda", 0))
        assert load_model(path).lam == 0.0
