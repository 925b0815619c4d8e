"""Acceptance gate: one test per criterion, each at its stated tolerance.

Every test is deterministic from fixed seeds and prints a summary line;
run ``pytest tests/test_acceptance.py -v -s`` to see one line per criterion.
"""

import math
import time
import warnings

import numpy as np
import pytest

from actidist.datagen import (
    StratifiedDesign,
    draw_sample,
    inclusion_probabilities,
    simulate_population,
    spread_response_spec,
    tac_response_spec,
    three_stratum_spec,
    two_cluster_spec,
)
from actidist.distribution import QuantileGrid, quantiles_from_values
from actidist.evaluation import (
    RISK_GROUP_A,
    RISK_GROUP_B,
    UNASSIGNED,
    assign_risk_groups,
    classify_mortality,
    compare_r2,
    survey_sample_from_subjects,
)
from actidist.geometry import frechet_mean
from actidist.regression import (
    SurveySample,
    krr_fit,
    krr_loo,
    krr_predict_batch,
    nw_loo,
    nw_predict,
    _krr_loo_hat,
)
from actidist.survey import ht_mean, weighted_r2
from oracles import frechet_objective, median_heuristic_sigma, refit_loo


def uniform_grid(upper, m):
    t = (np.arange(1, m + 1) - 0.5) / m
    return QuantileGrid(upper * t)


def test_criterion_01_wasserstein_closed_form_and_runtime():
    a = [uniform_grid(1.0, 1000)]
    b = [uniform_grid(2.0, 1000)]
    from actidist.geometry import pairwise_wasserstein

    d = pairwise_wasserstein(a, b)[0, 0]
    target = math.sqrt(1.0 / 3.0)
    assert d == pytest.approx(target, abs=1e-3)

    for _ in range(10):  # warmup
        pairwise_wasserstein(a, b)
    best = math.inf
    for _ in range(50):
        t0 = time.perf_counter()
        pairwise_wasserstein(a, b)
        best = min(best, time.perf_counter() - t0)
    assert best < 1e-3
    print(f"\ncriterion 1 PASS: |d - sqrt(1/3)| = {abs(d - target):.2e}, "
          f"runtime {best * 1e6:.1f} us")


def test_criterion_02_one_dimensional_ot_oracle():
    rng = np.random.default_rng(2024)
    x = rng.lognormal(3.0, 1.0, size=50)
    y = rng.gamma(2.0, 40.0, size=50)
    oracle = math.sqrt(np.mean((np.sort(x) - np.sort(y)) ** 2))
    from actidist.geometry import pairwise_wasserstein

    m = 100_000
    d = pairwise_wasserstein([quantiles_from_values(x, m)], [quantiles_from_values(y, m)])[0, 0]
    assert d == pytest.approx(oracle, abs=1e-4)
    print(f"criterion 2 PASS: |grid - sorted-sample oracle| = {abs(d - oracle):.2e}")


def test_criterion_03_krr_linear_solve_oracle():
    rng = np.random.default_rng(3)
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(5, 101))
        use_grids = trial % 2 == 1
        if use_grids:
            mats = rng.gamma(2.0, 30.0, size=(n, 20))
            mats.sort(axis=1)
            predictors = [QuantileGrid(row) for row in mats]
        else:
            predictors = rng.normal(size=n) * 5
        y = rng.normal(size=n)
        w = rng.uniform(0.5, 3.0, size=n)
        lam = float(rng.uniform(0.3, 3.0))
        sigma = float(rng.uniform(0.5, 2.0))
        sample = SurveySample(predictors, y, w)
        model = krr_fit(sample, lam=lam, sigma=sigma)

        k = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                if use_grids:
                    dist = math.sqrt(np.mean(
                        (predictors[i].values - predictors[j].values) ** 2))
                else:
                    dist = abs(predictors[i] - predictors[j])
                k[i, j] = math.exp(-dist / sigma)
        a = np.diag(w) @ k + lam * np.eye(n)
        expected, *_ = np.linalg.lstsq(a, w * y, rcond=None)
        rel = np.linalg.norm(model.alpha - expected) / np.linalg.norm(expected)
        worst = max(worst, rel)
        assert rel < 1e-10
    print(f"criterion 3 PASS: worst relative error over 20 instances = {worst:.2e}")


def test_criterion_04_loo_fast_path_oracle_and_fallback():
    rng = np.random.default_rng(4)
    sample = SurveySample(rng.normal(size=30), rng.normal(size=30))
    fast = _krr_loo_hat(sample, 0.5, 1.0)[0]
    refit = refit_loo(sample, 0.5, 1.0)
    gap = float(np.max(np.abs(fast - refit)))
    assert gap <= 1e-8

    # weights of 1e9 drive 1 - H_ii below 1e-10: the shortcut forms it as a
    # sum of nonnegative terms, so the default path still matches the refit
    x = rng.normal(size=6)
    y = rng.normal(size=6)
    degenerate = SurveySample(x, y, np.full(6, 1e9))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, denom = _krr_loo_hat(degenerate, 1e-9, 1.0)
        assert np.any(denom < 1e-10)
        auto = krr_loo(degenerate, 1e-9, sigma=1.0)
        explicit = refit_loo(degenerate, 1e-9, 1.0)
    fallback_gap = float(np.max(np.abs(auto - explicit)))
    assert fallback_gap <= 1e-8
    print(f"criterion 4 PASS: fast-vs-refit gap {gap:.2e}, "
          f"degenerate-entry gap {fallback_gap:.2e}")


def test_criterion_05_invariance_suite():
    rng = np.random.default_rng(5)
    cases = 0

    def sample_instance(n_max=10):
        n = int(rng.integers(2, n_max + 1))
        return (rng.normal(size=n) * 3, rng.normal(size=n),
                rng.uniform(0.1, 5.0, size=n))

    # Nadaraya-Watson convexity bounds; kernel underflow far from the data
    # is the documented empty-neighborhood error, not a counterexample
    counted = 0
    while counted < 400:
        x, y, w = sample_instance()
        query = float(rng.normal() * 4)
        h = float(rng.uniform(0.1, 3.0))
        try:
            pred = nw_predict(SurveySample(x, y, w), h, query)
        except ValueError:
            continue
        assert y.min() <= pred <= y.max()
        counted += 1
        cases += 1

    # NW weight rescaling (<= 1e-12)
    for _ in range(150):
        x, y, w = sample_instance()
        c = float(rng.uniform(0.01, 100.0))
        query = float(rng.normal())
        bandwidth = 1.0
        a = nw_predict(SurveySample(x, y, w), bandwidth, query)
        b = nw_predict(SurveySample(x, y, c * w), bandwidth, query)
        assert abs(a - b) <= 1e-12
        cases += 1

    # survey statistics weight rescaling (<= 1e-12)
    for _ in range(150):
        x, y, w = sample_instance(n_max=8)
        c = float(rng.uniform(0.01, 100.0))
        assert abs(ht_mean(y, w) - ht_mean(y, c * w)) <= 1e-12
        if np.unique(x).size > 1:
            s1 = median_heuristic_sigma(x, w)
            s2 = median_heuristic_sigma(x, c * w)
            assert abs(s1 - s2) <= 1e-12 * max(1.0, s1)
        cases += 1

    # weighted R2 rescaling (<= 1e-12)
    for _ in range(100):
        x, y, w = sample_instance(n_max=8)
        c = float(rng.uniform(0.01, 100.0))
        yhat = y + rng.normal(size=y.size) * 0.3
        assert abs(weighted_r2(y, yhat, w) - weighted_r2(y, yhat, c * w)) <= 1e-12
        cases += 1

    # Frechet summaries weight rescaling (<= 1e-12)
    from actidist.geometry import frechet_variance, pointwise_sd_curve

    for _ in range(100):
        n = int(rng.integers(2, 6))
        grids = [QuantileGrid(np.sort(rng.gamma(2, 10, size=12))) for _ in range(n)]
        w = rng.uniform(0.1, 5.0, size=n)
        c = float(rng.uniform(0.01, 100.0))
        m1, m2 = frechet_mean(grids, w), frechet_mean(grids, c * w)
        assert np.max(np.abs(m1.values - m2.values)) <= 1e-12
        v1 = frechet_variance(grids, m1, w)
        v2 = frechet_variance(grids, m2, c * w)
        assert abs(v1 - v2) <= 1e-12 * max(1.0, v1)
        sd_gap = np.max(np.abs(pointwise_sd_curve(grids, m1, w)
                               - pointwise_sd_curve(grids, m2, c * w)))
        assert sd_gap <= 1e-12 * max(1.0, v1)
        cases += 1

    # KRR (cW, c*lambda) equivalence (<= 1e-8)
    for _ in range(100):
        x, y, w = sample_instance(n_max=8)
        c = float(rng.uniform(0.1, 50.0))
        lam = float(rng.uniform(0.2, 2.0))
        queries = rng.normal(size=3)
        base = krr_fit(SurveySample(x, y, w), lam=lam, sigma=1.0)
        scaled = krr_fit(SurveySample(x, y, c * w), lam=c * lam, sigma=1.0)
        gap = np.max(np.abs(krr_predict_batch(base, queries)
                            - krr_predict_batch(scaled, queries)))
        assert gap <= 1e-8
        cases += 1

    # duplicate-split invariance: NW (<= 1e-12) and KRR (<= 1e-8)
    for _ in range(100):
        x, y, w = sample_instance(n_max=7)
        x2 = np.concatenate([x, [x[0]]])
        y2 = np.concatenate([y, [y[0]]])
        w2 = np.concatenate([w, [w[0] / 2]])
        w2[0] = w[0] / 2
        query = float(rng.normal())
        bandwidth = 1.0
        a = nw_predict(SurveySample(x, y, w), bandwidth, query)
        b = nw_predict(SurveySample(x2, y2, w2), bandwidth, query)
        assert abs(a - b) <= 1e-12
        cases += 1

    for _ in range(100):
        x, y, w = sample_instance(n_max=6)
        x2 = np.concatenate([x, [x[0]]])
        y2 = np.concatenate([y, [y[0]]])
        w2 = np.concatenate([w, [w[0] / 2]])
        w2[0] = w[0] / 2
        lam = float(rng.uniform(0.2, 2.0))
        queries = rng.normal(size=3)
        base = krr_fit(SurveySample(x, y, w), lam=lam, sigma=1.0)
        split = krr_fit(SurveySample(x2, y2, w2), lam=lam, sigma=1.0)
        gap = np.max(np.abs(krr_predict_batch(base, queries)
                            - krr_predict_batch(split, queries)))
        assert gap <= 1e-8
        cases += 1

    assert cases >= 1000
    print(f"criterion 5 PASS: {cases} generated invariance cases")


def test_criterion_06_design_consistency():
    population, truth = simulate_population(three_stratum_spec(5000, seed=11,
                                                               minutes=4))
    design = StratifiedDesign({"young": 0.3, "mid": 0.1, "old": 0.02})
    ht_estimates, raw_means = [], []
    for rep in range(200):
        sample = draw_sample(population, design, seed=60_000 + rep)
        ages = np.array([s.covariates["age"] for s in sample])
        weights = np.array([s.survey_weight for s in sample])
        ht_estimates.append(ht_mean(ages, weights))
        raw_means.append(ages.mean())
    ht_estimates = np.array(ht_estimates)
    raw_means = np.array(raw_means)
    true_mean = truth["age"]

    se_ht = ht_estimates.std(ddof=1) / math.sqrt(200)
    se_raw = raw_means.std(ddof=1) / math.sqrt(200)
    ht_sigmas = abs(ht_estimates.mean() - true_mean) / se_ht
    raw_sigmas = abs(raw_means.mean() - true_mean) / se_raw
    assert ht_sigmas <= 3.0
    assert raw_sigmas > 3.0
    print(f"criterion 6 PASS: HT bias {ht_sigmas:.2f} se, "
          f"unweighted bias {raw_sigmas:.0f} se")


def test_criterion_07_representation_beats_tac():
    wins = 0
    gaps = []
    for rep in range(20):
        population, _ = simulate_population(
            spread_response_spec(120, seed=700 + rep, minutes=1440))
        subjects = draw_sample(population, StratifiedDesign({"all": 0.8}),
                               seed=7_000 + rep)
        dist = survey_sample_from_subjects(subjects, "quantiles", "response", m=200)
        tac = survey_sample_from_subjects(subjects, "tac", "response")
        result = compare_r2(dist, tac)
        gaps.append(result.distribution.r2 - result.tac.r2)
        if gaps[-1] >= 0.3:
            wins += 1
    assert wins >= 18  # >= 90% of 20 replicates

    population, _ = simulate_population(tac_response_spec(150, seed=7777,
                                                          minutes=720))
    subjects = draw_sample(population, StratifiedDesign({"all": 1.0}), seed=7778)
    dist = survey_sample_from_subjects(subjects, "quantiles", "response", m=200)
    tac = survey_sample_from_subjects(subjects, "tac", "response")
    tac_result = compare_r2(dist, tac)
    assert tac_result.tac.r2 >= 0.95
    print(f"criterion 7 PASS: spread-gap wins {wins}/20 "
          f"(median gap {np.median(gaps):.2f}), proportional-response "
          f"r2_tac {tac_result.tac.r2:.3f}")


def test_criterion_08_classification_sanity():
    population, _ = simulate_population(two_cluster_spec(250, seed=8, minutes=720))
    design = StratifiedDesign({"frail": 112 / 125, "active": 88 / 125})
    subjects = draw_sample(population, design, seed=88)
    assert len(subjects) == 200
    sample = survey_sample_from_subjects(subjects, "quantiles", "mortality", m=200)
    outcome = classify_mortality(sample, threshold=0.5)
    assert outcome.weighted_accuracy == 1.0

    # enumerated truth table for the risk groups
    from test_evaluation import make_outcome

    enumerated = make_outcome(predicted=[1, 0, 1, 0], actual=[0, 0, 1, 1])
    assert assign_risk_groups(enumerated) == [
        RISK_GROUP_A, RISK_GROUP_B, UNASSIGNED, UNASSIGNED]
    print(f"criterion 8 PASS: LOO weighted accuracy {outcome.weighted_accuracy} "
          f"on n={sample.n}, truth table exact")


def test_criterion_09_frechet_minimizer():
    rng = np.random.default_rng(9)
    checked = 0
    for _ in range(10):
        n = int(rng.integers(4, 10))
        m = 40
        grids = [QuantileGrid(np.sort(rng.gamma(2.0, 50.0, size=m)))
                 for _ in range(n)]
        weights = rng.uniform(0.2, 5.0, size=n)
        mean = frechet_mean(grids, weights)
        base = frechet_objective(grids, mean, weights)
        for _ in range(100):
            bumps = np.maximum.accumulate(rng.normal(0.0, 10.0, size=m))
            candidate = QuantileGrid(
                np.maximum(mean.values + bumps - bumps.min(), 0.0))
            assert base <= frechet_objective(grids, candidate, weights) + 1e-12
            checked += 1
    assert checked == 1000
    print(f"criterion 9 PASS: mean beat {checked} monotone perturbations")


def test_criterion_10_determinism():
    spec = spread_response_spec(25, seed=10, minutes=120)
    pop_a, truth_a = simulate_population(spec)
    pop_b, truth_b = simulate_population(spec)
    assert truth_a == truth_b
    for a, b in zip(pop_a, pop_b):
        assert np.array_equal(a.readings, b.readings)
        assert a.covariates == b.covariates

    subjects_a = draw_sample(pop_a, StratifiedDesign({"all": 0.8}), seed=101)
    subjects_b = draw_sample(pop_b, StratifiedDesign({"all": 0.8}), seed=101)
    assert [s.subject_id for s in subjects_a] == [s.subject_id for s in subjects_b]

    sample = survey_sample_from_subjects(subjects_a, "quantiles", "response", m=60)
    loo_a = krr_loo(sample, 0.5)
    loo_b = krr_loo(sample, 0.5)
    assert np.array_equal(loo_a, loo_b)
    print("criterion 10 PASS: populations, samples, and model outputs are "
          "reproducible from seeds")
