"""The benchmark's three workloads: inputs, CLI command lines and output checks.

Each workload is a fixed chain of ``actidist`` subcommands that an analyst
would run one after another. ``setup`` generates the chain's inputs from the
workload seed (with ``actidist.datagen``) and computes the oracle values the
checks compare against. ``check`` validates one subcommand's outputs with
rules that hold for every seed and returns the figures the pinned reference
compares at the default seed.

Import this module with the repository's ``src`` directory on ``sys.path``.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np

from actidist import datagen, io
from actidist.distribution import build_mixed, tac_per_day

# Sizes per workload. "full" is what the benchmark measures; "tiny" runs all
# three workloads in seconds for the benchmark's own tests. They are chosen
# so one pass of a chain takes a few seconds at full size: a run repeats the
# chain and reports medians. A paper-scale cohort (n ~ 3000) is left out: the
# library's (n, n, m) distance broadcast would need ~36 GB there.
SIZES = {
    "full": {
        "ingest_week": {"population": 30, "minutes": 10080, "m": 500},
        "krr_regress": {"population": 200, "n": 150, "minutes": 1440, "m": 500},
        "nw_classify": {"population": 350, "minutes": 1440, "m": 500},
    },
    "tiny": {
        "ingest_week": {"population": 6, "minutes": 1440, "m": 50},
        "krr_regress": {"population": 40, "n": 30, "minutes": 240, "m": 50},
        "nw_classify": {"population": 40, "minutes": 240, "m": 50},
    },
}

INGEST_CENSOR = ("100", "3500")
LAMBDA_GRID = np.logspace(-4, 2, 13)  # the CLI's default grid
KRR_RESPONSES = ("response", "age")
NW_THRESHOLD = 0.5
MAX_POISSON_DRAWS = 10_000
_REL = 1e-9


class SetupError(RuntimeError):
    """The workload's inputs could not be generated."""


# -- small helpers ---------------------------------------------------------

def _read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path.name}: empty file")
    return rows[0], [r for r in rows[1:] if r]


def _close(a: float, b: float, rel: float = _REL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _count_data_rows(path: Path) -> int:
    with open(path, "rb") as fh:
        lines = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
    return lines - 1


def weighted_median(values: np.ndarray, weights: np.ndarray) -> float:
    """inf{x : F_w(x) >= 1/2} with the library's 1e-12 relative slack."""
    order = np.argsort(values, kind="stable")
    cdf = np.cumsum(weights[order]) / weights.sum()
    idx = int(np.searchsorted(cdf, 0.5 * (1.0 - 1e-12), side="left"))
    return float(values[order][min(idx, values.size - 1)])


def median_heuristic_oracle(x: np.ndarray, w: np.ndarray) -> float:
    """sqrt of the weighted median of pairwise squared W2 (or absolute)
    distances over pairs i < j with pair weight w_i * w_j, one row at a time."""
    x = x.reshape(len(x), -1)
    sq, pair_w = [], []
    for i in range(len(x) - 1):
        sq.append(((x[i + 1:] - x[i]) ** 2).mean(axis=1))
        pair_w.append(w[i] * w[i + 1:])
    return math.sqrt(weighted_median(np.concatenate(sq), np.concatenate(pair_w)))


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def _write_cohort(out: Path, sample, m: int) -> dict:
    """quantiles.csv, summary.csv and subjects.csv for a sampled cohort."""
    ids = [s.subject_id for s in sample]
    mixed = [build_mixed(s, m=m) for s in sample]
    tacs = [tac_per_day(s) for s in sample]
    io.write_quantile_csv(out / "quantiles.csv", ids, [mx.quantiles for mx in mixed])
    io.write_summary_csv(out / "summary.csv", ids, mixed, tacs)
    io.write_subjects_csv(out / "subjects.csv", sample)
    return {
        "ids": ids,
        "x": np.stack([mx.quantiles.values for mx in mixed]),
        "tac": np.asarray(tacs),
        "w": np.asarray([s.survey_weight for s in sample]),
    }


# -- setup ----------------------------------------------------------------

def _two_strata(frail_mortality: float, active_mortality: float) -> list:
    """The README's two-stratum population, in simulate-config form."""
    return [
        {"name": "frail", "proportion": 0.4, "inactivity_range": [0.7, 0.9],
         "intensity": {"kind": "lognormal", "params": [3.4, 0.6]},
         "age_range": [74, 85], "mortality_rate": frail_mortality},
        {"name": "active", "proportion": 0.6, "inactivity_range": [0.25, 0.55],
         "intensity": {"kind": "lognormal", "params": [4.8, 0.6]},
         "mortality_rate": active_mortality, "response": {"kind": "tac", "scale": 0.01}},
    ]


def _population(strata: list, seed: int, size: dict) -> list:
    spec = datagen.PopulationSpec(
        size=size["population"], minutes=size["minutes"], seed=seed,
        strata=tuple(datagen.StratumSpec(
            name=s["name"], proportion=s["proportion"],
            inactivity_range=tuple(s["inactivity_range"]),
            intensity=datagen.IntensityLaw(s["intensity"]["kind"],
                                           tuple(s["intensity"]["params"])),
            age_range=tuple(s["age_range"]) if "age_range" in s else (68, 85),
            mortality_rate=s["mortality_rate"],
            response=datagen.ResponseModel(**s["response"]) if "response" in s else None,
        ) for s in strata))
    return datagen.simulate_population(spec)[0]


def _setup_ingest(out: Path, seed: int, size: dict) -> dict:
    fractions = {"frail": 0.9, "active": 0.7}
    strata = _two_strata(0.8, 0.0)
    _write_json(out / "sim.json", {
        "population": {"size": size["population"], "minutes": size["minutes"],
                       "strata": strata},
        "design": {"kind": "stratified", "fractions": fractions},
        "seed": seed, "sample_seed": seed + 1,
    })
    population = _population(strata, seed, size)
    sample = datagen.draw_sample(population, datagen.StratifiedDesign(fractions),
                                 seed=seed + 1)
    days = size["minutes"] / 1440.0
    stratum_size = Counter(s.covariates["stratum"] for s in population)
    stratum_n = Counter(s.covariates["stratum"] for s in sample)
    return {
        "sample_ids": [s.subject_id for s in sample],
        "tac": {s.subject_id: float(s.readings.sum()) / days for s in sample},
        "pi": {s.subject_id: stratum_n[s.covariates["stratum"]]
               / stratum_size[s.covariates["stratum"]] for s in population},
    }


def _setup_krr(out: Path, seed: int, size: dict) -> dict:
    spec = datagen.spread_response_spec(size=size["population"], seed=seed,
                                        minutes=size["minutes"])
    population, _ = datagen.simulate_population(spec)
    design = datagen.PoissonDesign(expected_n=size["n"], size_covariate="age")
    # Conditional Poisson design: redraw until the sample has exactly n
    # subjects, so every seed measures the same cohort size. The pre-screen
    # repeats draw_sample's Bernoulli draw (unit i is kept when
    # default_rng(seed).random(N)[i] < pi_i) so that set-up time does not
    # depend on how many redraws a seed needs.
    pi = datagen.inclusion_probabilities(population, design)
    for k in range(MAX_POISSON_DRAWS):
        if int((np.random.default_rng([seed, k]).random(pi.size) < pi).sum()) == size["n"]:
            break
    else:
        raise SetupError(f"no Poisson sample of size {size['n']} in {MAX_POISSON_DRAWS} draws")
    sample = datagen.draw_sample(population, design, seed=[seed, k])
    if len(sample) != size["n"]:
        raise SetupError("draw_sample no longer matches the Poisson pre-screen")
    cohort = _write_cohort(out, sample, size["m"])
    return {
        "ids": cohort["ids"],
        "x": cohort["x"],
        "sigma_distribution": median_heuristic_oracle(cohort["x"], cohort["w"]),
        "sigma_tac": median_heuristic_oracle(cohort["tac"], cohort["w"]),
    }


def _setup_nw(out: Path, seed: int, size: dict) -> dict:
    population = _population(_two_strata(0.7, 0.15), seed, size)
    design = datagen.StratifiedDesign(fractions={"frail": 0.9, "active": 0.6})
    sample = datagen.draw_sample(population, design, seed=seed + 1)
    cohort = _write_cohort(out, sample, size["m"])
    return {"ids": cohort["ids"]}


_SETUP = {"ingest_week": _setup_ingest, "krr_regress": _setup_krr, "nw_classify": _setup_nw}


def setup(workload: str, out: Path, seed: int, size: dict) -> dict:
    """Write the workload's inputs into ``out``; return the checks' oracle."""
    out.mkdir(parents=True, exist_ok=True)
    return _SETUP[workload](out, seed, size)


# -- commands ---------------------------------------------------------------

def commands(workload: str, inputs: Path, outputs: Path, size: dict) -> list:
    """(subcommand, argv) pairs in the order the chain runs them."""
    m = str(size["m"])
    if workload == "ingest_week":
        sim = outputs / "simulate"
        return [
            ("simulate", ["simulate", "--config", str(inputs / "sim.json"), "--out", str(sim)]),
            ("build-dist", ["build-dist", "--input", str(sim / "sample_readings.csv"),
                            "--subjects", str(sim / "sample_subjects.csv"),
                            "--out", str(outputs / "build-dist"), "--m", m,
                            "--censor-lower", INGEST_CENSOR[0],
                            "--censor-upper", INGEST_CENSOR[1]]),
        ]
    if workload == "krr_regress":
        reg = outputs / "regress"
        return [
            ("regress", ["regress", "--input", str(inputs / "quantiles.csv"),
                         "--subjects", str(inputs / "subjects.csv"),
                         "--responses", ",".join(KRR_RESPONSES),
                         "--summary", str(inputs / "summary.csv"),
                         "--out", str(reg), "--save-models"]),
            ("predict", ["predict", "--model", str(reg / "model_response.json"),
                         "--input", str(inputs / "quantiles.csv"),
                         "--out", str(outputs / "predict")]),
        ]
    if workload == "nw_classify":
        return [
            ("classify", ["classify", "--input", str(inputs / "quantiles.csv"),
                          "--subjects", str(inputs / "subjects.csv"),
                          "--out", str(outputs / "classify"), "--stratify-age"]),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# -- checks -----------------------------------------------------------------
# Each check returns (errors, facts). Errors fail the subcommand run; facts
# are the figures compared with the pinned reference at the default seed.

def _check_simulate(out: Path, oracle: dict, size: dict):
    errors = []
    sim = out / "simulate"
    n = len(oracle["sample_ids"])
    rows = _count_data_rows(sim / "sample_readings.csv")
    if rows != n * size["minutes"]:
        errors.append(f"sample_readings.csv has {rows} rows, expected {n} x {size['minutes']}")
    _, truth = _read_table(sim / "ground_truth.csv")
    pi = {name: float(value) for record, name, value in truth if record == "pi"}
    if pi.keys() != oracle["pi"].keys():
        errors.append("ground_truth.csv pi records do not cover the population")
    else:
        wrong = [sid for sid, p in pi.items() if p != oracle["pi"][sid]]
        if wrong:
            errors.append(f"pi differs from n_s/N_s for {len(wrong)} subjects, e.g. {wrong[0]}")
    _, subjects = _read_table(sim / "sample_subjects.csv")
    ids = [r[0] for r in subjects]
    if ids != oracle["sample_ids"]:
        errors.append("sample_subjects.csv does not list the sampled subjects")
    return errors, {"n_sampled": len(ids), "readings_rows": rows}


def _check_build_dist(out: Path, oracle: dict, size: dict):
    errors = []
    dist = out / "build-dist"
    header, rows = _read_table(dist / "quantiles.csv")
    m = size["m"]
    if len(header) != m + 1:
        errors.append(f"quantiles.csv has {len(header) - 1} quantile columns, expected {m}")
    if [r[0] for r in rows] != sorted(oracle["sample_ids"]):
        errors.append("quantiles.csv does not list the sampled subjects")
    q = np.asarray([r[1:] for r in rows], dtype=float) if rows else np.zeros((0, m))
    if q.ndim != 2 or not np.all(np.isfinite(q)):
        errors.append("quantiles.csv holds non-finite values")
    elif np.any(np.diff(q, axis=1) < 0):
        errors.append("a quantiles.csv row decreases")
    _, summary = _read_table(dist / "summary.csv")
    tac = {sid: float(t) for sid, _, t in summary}
    p_inactive = [float(p) for _, p, _ in summary]
    if tac.keys() != oracle["tac"].keys():
        errors.append("summary.csv does not list the sampled subjects")
    else:
        wrong = [sid for sid in tac if not _close(tac[sid], oracle["tac"][sid], 1e-12)]
        if wrong:
            errors.append(f"tac_per_day differs from the recomputed total for {wrong[0]}")
    if any(not 0.0 <= p <= 1.0 for p in p_inactive):
        errors.append("p_inactive outside [0, 1]")
    return errors, {"quantile_sum": float(q.sum()), "tac_sum": float(sum(tac.values())),
                    "p_inactive_sum": float(sum(p_inactive))}


def _check_regress(out: Path, oracle: dict, size: dict):
    errors = []
    reg = out / "regress"
    header, rows = _read_table(reg / "report.csv")
    report = {r[0]: dict(zip(header[1:], map(float, r[1:]))) for r in rows}
    if sorted(report) != sorted(KRR_RESPONSES):
        return [f"report.csv rows {sorted(report)} != {sorted(KRR_RESPONSES)}"], {}
    grid = set(LAMBDA_GRID.tolist())
    facts = {}
    for name, row in report.items():
        for key in ("sigma_distribution", "sigma_tac"):
            if not _close(row[key], oracle[key]):
                errors.append(f"{name}: {key} {row[key]!r} != oracle {oracle[key]!r}")
        for key in ("lambda_distribution", "lambda_tac"):
            if row[key] not in grid:
                errors.append(f"{name}: {key} {row[key]!r} is not on the lambda grid")
        if not all(math.isfinite(v) for v in row.values()):
            errors.append(f"{name}: non-finite report entry")
        facts.update({f"{name}.{key}": v for key, v in row.items()})
    if not report["response"]["r2_distribution"] > report["response"]["r2_tac"]:
        errors.append("response: r2_distribution does not beat r2_tac")
    for name in KRR_RESPONSES:
        model = json.loads((reg / f"model_{name}.json").read_text(encoding="utf-8"))
        if (model["sigma"], model["lambda"]) != (report[name]["sigma_distribution"],
                                                 report[name]["lambda_distribution"]):
            errors.append(f"model_{name}.json does not carry the reported sigma/lambda")
    return errors, facts


def _check_predict(out: Path, oracle: dict, size: dict):
    errors = []
    _, rows = _read_table(out / "predict" / "predictions.csv")
    ids = [r[0] for r in rows]
    pred = np.asarray([float(r[1]) for r in rows])
    if ids != oracle["ids"]:
        errors.append("predictions.csv does not list the cohort's subjects")
    if not np.all(np.isfinite(pred)):
        errors.append("predictions.csv holds non-finite predictions")
    model = json.loads((out / "regress" / "model_response.json").read_text(encoding="utf-8"))
    train = np.asarray(model["training_matrix"])
    dist = np.sqrt(np.stack([((train - q) ** 2).mean(axis=1) for q in oracle["x"]]))
    expected = np.exp(-dist / model["sigma"]) @ np.asarray(model["alpha"])
    if pred.shape != expected.shape or not np.allclose(pred, expected, rtol=1e-9, atol=1e-9):
        errors.append("predictions differ from the saved model's representer form")
    return errors, {"prediction_sum": float(pred.sum())}


def _check_classify(out: Path, oracle: dict, size: dict):
    errors = []
    cls = out / "classify"
    _, rows = _read_table(cls / "predictions.csv")
    if [r[0] for r in rows] != oracle["ids"]:
        errors.append("predictions.csv does not list the cohort's subjects")
    prob = np.asarray([float(r[1]) for r in rows])
    pred = np.asarray([int(r[2]) for r in rows])
    act = np.asarray([int(r[3]) for r in rows])
    w = np.asarray([float(r[4]) for r in rows])
    groups = [r[5] for r in rows]
    ok = np.isfinite(prob)
    if np.any((prob[ok] < 0) | (prob[ok] > 1)):
        errors.append("a probability lies outside [0, 1]")
    if np.any(pred != np.where(ok & (prob >= NW_THRESHOLD), 1, 0)):
        errors.append("predicted_label disagrees with probability >= threshold")
    truth = np.where(~ok, "unassigned",
                     np.where((pred == 1) & (act == 0), "A_risk",
                              np.where((pred == 0) & (act == 0), "B_nonrisk", "unassigned")))
    if list(truth) != groups:
        errors.append("risk_group breaks the risk-group truth table")
    _, risk_rows = _read_table(cls / "risk_groups.csv")
    if [tuple(r) for r in risk_rows] != list(zip(oracle["ids"], groups)):
        errors.append("risk_groups.csv disagrees with predictions.csv")
    header, conf = _read_table(cls / "confusion.csv")
    confusion = dict(zip(header, map(float, conf[0])))
    expected = {
        "tp": w[ok & (pred == 1) & (act == 1)].sum(),
        "fp": w[ok & (pred == 1) & (act == 0)].sum(),
        "tn": w[ok & (pred == 0) & (act == 0)].sum(),
        "fn": w[ok & (pred == 0) & (act == 1)].sum(),
    }
    for key, value in expected.items():
        if not _close(confusion[key], float(value)):
            errors.append(f"confusion {key} {confusion[key]!r} != weighted sum {float(value)!r}")
    _, profiles = _read_table(cls / "group_profiles.csv")
    if not profiles or any("/" not in r[0] for r in profiles):
        errors.append("group_profiles.csv lacks risk/age-stratum groups")
    facts = {key: confusion[key] for key in ("tp", "fp", "tn", "fn", "auc", "bandwidth")}
    facts["unclassified"] = int((~ok).sum())
    return errors, facts


_CHECKS = {
    "simulate": _check_simulate,
    "build-dist": _check_build_dist,
    "regress": _check_regress,
    "predict": _check_predict,
    "classify": _check_classify,
}


def check(command: str, outputs: Path, oracle: dict, size: dict) -> tuple[list, dict]:
    """Validate one subcommand's outputs; a missing or unparsable file is an error."""
    try:
        return _CHECKS[command](outputs, oracle, size)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"{command}: unreadable output: {exc!r}"], {}


def compare_reference(facts: dict, reference: dict) -> list:
    """Differences between a run's facts and the pinned reference values."""
    errors = []
    for key, want in reference.items():
        got = facts.get(key)
        if got is None or not _close(float(got), float(want), 1e-6):
            errors.append(f"reference {key}: got {got!r}, pinned {want!r}")
    return errors
