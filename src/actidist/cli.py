"""Batch command-line front end for the distribution/regression pipeline.

Subcommands: build-dist, regress, classify, simulate, predict. Values come
from flags first, then the optional JSON config file, then the built-in
defaults (printable with --print-config). Exit codes: 0 success, 1 I/O
failure, 2 validation failure.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import sys
from pathlib import Path

import numpy as np

# each command imports the estimators it calls, so that a process loads
# only the modules its subcommand uses
from . import io
from .distribution import CensorSpec, build_mixed, tac_per_day

# estimator names that other code reads as attributes of this module (the
# benchmark's tracer checks do), imported on first access
_MODULE_OF = {
    "datagen": "datagen",
    "DEFAULT_LAMBDA_GRID": "evaluation", "assign_risk_groups": "evaluation",
    "classify_mortality": "evaluation", "compare_r2": "evaluation",
    "group_profiles": "evaluation", "stratify_age": "evaluation",
    "SurveySample": "regression", "krr_fit": "regression",
    "krr_predict_batch": "regression", "load_model": "regression",
    "save_model": "regression",
}


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_MODULE_OF[name]}", __package__)
    return module if name == _MODULE_OF[name] else getattr(module, name)


DEFAULTS = {
    "build-dist": {"m": 500, "censor_lower": None, "censor_upper": None},
    # evaluation.DEFAULT_LAMBDA_GRID, written out so that importing the CLI
    # does not import evaluation; a test keeps the two equal
    "regress": {"responses": ["response"],
                "lambda_grid": np.logspace(-4, 2, 13).tolist(),
                "save_models": False},
    "classify": {"response": "mortality", "threshold": 0.5, "stratify_age": False},
    # population and design have no default: the config file must give them
    "simulate": {"seed": 0, "sample_seed": 1, "population": None, "design": None},
    "predict": {},
}


class _RunOutputs:
    """Tracks the files one run writes; an exception that leaves its with
    block deletes them, and then the directories the run made for them while
    they are empty, so failures leave no partial output."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.created: list[Path] = []
        # deepest first: the order they can be removed in
        self.made_dirs = list(itertools.takewhile(lambda p: not p.exists(),
                                                  (out_dir, *out_dir.parents)))
        out_dir.mkdir(parents=True, exist_ok=True)

    def path(self, name: str) -> Path:
        p = self.out_dir / name
        self.created.append(p)
        return p

    def __enter__(self) -> "_RunOutputs":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            for p in self.created:
                p.unlink(missing_ok=True)
            for d in self.made_dirs:
                try:
                    d.rmdir()
                except OSError:  # not empty: something else wrote there
                    break


def _merged(args, command: str) -> dict:
    """flag > config file > default, per option; unknown config keys are rejected."""
    merged = dict(DEFAULTS[command])
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
        unknown = sorted(set(config) - set(merged))
        if unknown:
            raise ValueError(f"{args.config}: unknown {command} config keys: "
                             f"{', '.join(unknown)}")
        merged.update(config)
    for key in merged:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    return merged


def _censor(cfg: dict) -> CensorSpec:
    return CensorSpec(lower=cfg.get("censor_lower"), upper=cfg.get("censor_upper"))


def cmd_build_dist(args) -> int:
    cfg = _merged(args, "build-dist")
    censor = _censor(cfg)
    subjects = io.load_series(args.input, args.subjects)
    with _RunOutputs(Path(args.out)) as out:
        mixed = [build_mixed(s, censor=censor, m=int(cfg["m"])) for s in subjects]
        ids = [s.subject_id for s in subjects]
        io.write_quantile_csv(out.path("quantiles.csv"), ids, [mx.quantiles for mx in mixed])
        tacs = [tac_per_day(s) for s in subjects]
        io.write_summary_csv(out.path("summary.csv"), ids, mixed, tacs)
    return 0


def _read_regression_inputs(args):
    ids, x = io.read_quantile_csv(args.input)
    meta = io.read_subjects_csv(args.subjects)
    missing = sorted(set(ids) - set(meta))
    if missing:
        raise io.InputValidationError(
            f"subjects file lacks entries for: {', '.join(missing)}")
    weights = np.asarray([meta[sid][0] for sid in ids])
    covariates = [meta[sid][1] for sid in ids]
    return ids, x, weights, covariates


def _numeric_column(ids, covariates, name: str, role: str) -> np.ndarray:
    """Covariate `name` as floats; names the subjects whose value is missing,
    text or non-finite."""
    values, bad = [], []
    for sid, cov in zip(ids, covariates):
        try:
            value = float(cov.get(name, np.nan))
        except ValueError:
            value = np.nan
        if not np.isfinite(value):
            bad.append(sid)
        values.append(value)
    if bad:
        raise io.InputValidationError(
            f"missing, non-numeric or non-finite {role} column {name!r} for: "
            f"{', '.join(bad[:5])}")
    return np.asarray(values)


def _tac_values(args, ids, x) -> np.ndarray:
    """Daily totals from the summary file when given, else recovered from
    the distribution as 1440 * mean quantile value."""
    summary_path = getattr(args, "summary", None)
    if summary_path:
        rows = io.read_summary_csv(summary_path)
        missing = sorted(set(ids) - set(rows))
        if missing:
            raise io.InputValidationError(
                f"summary file lacks entries for: {', '.join(missing)}")
        return np.asarray([rows[sid][1] for sid in ids])
    return 1440.0 * x.mean(axis=1)


def cmd_regress(args) -> int:
    from .evaluation import compare_r2
    from .regression import SurveySample, krr_fit, save_models

    cfg = _merged(args, "regress")
    responses = cfg["responses"]
    if isinstance(responses, str):
        responses = [r.strip() for r in responses.split(",") if r.strip()]
    if not responses:
        raise ValueError("no response columns requested")

    ids, x, weights, covariates = _read_regression_inputs(args)
    tac = _tac_values(args, ids, x)
    lambda_grid = np.asarray(cfg["lambda_grid"], dtype=float)

    # one sample per predictor kind: every response reuses its distances
    # and kernel spectrum
    dist_base = SurveySample(x, np.zeros(len(ids)), weights)
    tac_base = SurveySample(tac, np.zeros(len(ids)), weights)

    with _RunOutputs(Path(args.out)) as out:
        report_rows, models = [], []
        for name in responses:
            y = _numeric_column(ids, covariates, name, "response")
            dist_sample = dist_base.with_responses(y)
            result = compare_r2(dist_sample, tac_base.with_responses(y),
                                lambda_grid=lambda_grid)
            report_rows.append([
                name,
                result.distribution.r2, result.tac.r2,
                result.distribution.lam, result.tac.lam,
                result.distribution.sigma, result.tac.sigma,
            ])
            if cfg["save_models"]:
                model = krr_fit(dist_sample, result.distribution.lam,
                                sigma=result.distribution.sigma)
                models.append((model, out.path(f"model_{name}.json")))
        # the responses' models share one training matrix, encoded once
        save_models(models)
        io.write_rows(
            out.path("report.csv"),
            ["response", "r2_distribution", "r2_tac", "lambda_distribution",
             "lambda_tac", "sigma_distribution", "sigma_tac"],
            report_rows,
        )
    return 0


def cmd_classify(args) -> int:
    from .evaluation import (
        assign_risk_groups,
        classify_mortality,
        group_profiles,
        stratify_age,
    )
    from .regression import SurveySample

    cfg = _merged(args, "classify")
    ids, x, weights, covariates = _read_regression_inputs(args)
    name = cfg["response"]
    sample = SurveySample(x, _numeric_column(ids, covariates, name, "response"),
                          weights)
    if not sample.is_binary():
        raise ValueError(f"response column {name!r} is not binary 0/1")
    strata = None
    if cfg["stratify_age"]:
        strata = stratify_age(_numeric_column(ids, covariates, "age", "covariate").tolist())

    outcome = classify_mortality(sample, threshold=float(cfg["threshold"]))
    risk = assign_risk_groups(outcome)
    labels = list(risk) if strata is None else [f"{r}/{s}" for r, s in zip(risk, strata)]

    with _RunOutputs(Path(args.out)) as out:
        io.write_rows(
            out.path("predictions.csv"),
            ["subject_id", "probability", "predicted_label", "actual_label",
             "survey_weight", "risk_group"],
            (
                [sid, p, int(pred), int(act), w, grp]
                for sid, p, pred, act, w, grp in zip(
                    ids, outcome.probabilities, outcome.predicted,
                    outcome.actual, outcome.weights, risk)
            ),
        )
        io.write_rows(
            out.path("confusion.csv"),
            ["tp", "fp", "tn", "fn", "weighted_accuracy", "auc",
             "threshold", "bandwidth"],
            [[outcome.tp, outcome.fp, outcome.tn, outcome.fn,
              outcome.weighted_accuracy, outcome.auc,
              outcome.threshold, outcome.bandwidth]],
        )
        io.write_rows(out.path("risk_groups.csv"), ["subject_id", "group"],
                       zip(ids, risk))
        profiles = group_profiles(x, weights, labels)
        io.write_frechet_summary_csv(out.path("group_profiles.csv"), profiles)
    return 0


_STRATUM_KEYS = {"name", "proportion", "inactivity_range", "intensity", "age_range",
                 "mortality_rate", "response"}
_DESIGN_KEYS = {"stratified": {"kind", "fractions"},
                "poisson": {"kind", "expected_n", "size_covariate"}}


def _check_keys(section, known, where: str) -> None:
    if not isinstance(section, dict):
        raise ValueError(f"{where} must be a JSON object")
    unknown = sorted(set(section) - set(known))
    if unknown:
        raise ValueError(f"unknown config keys in {where}: {', '.join(unknown)}")


def _population_spec_from_config(cfg: dict):
    from . import datagen

    pop = cfg.get("population")
    if not isinstance(pop, dict) or "strata" not in pop:
        raise ValueError("config must define population.strata")
    _check_keys(pop, {"size", "minutes", "strata"}, "population")
    strata = []
    for k, entry in enumerate(pop["strata"]):
        where = f"population.strata[{k}]"
        _check_keys(entry, _STRATUM_KEYS, where)
        _check_keys(entry["intensity"], {"kind", "params"}, f"{where}.intensity")
        intensity = datagen.IntensityLaw(entry["intensity"]["kind"],
                                         tuple(entry["intensity"]["params"]))
        response = None
        if entry.get("response"):
            response = datagen.ResponseModel(**entry["response"])
        strata.append(datagen.StratumSpec(
            name=entry["name"],
            proportion=float(entry["proportion"]),
            inactivity_range=tuple(entry["inactivity_range"]),
            intensity=intensity,
            age_range=tuple(entry.get("age_range", (68, 85))),
            mortality_rate=float(entry.get("mortality_rate", 0.0)),
            response=response,
        ))
    return datagen.PopulationSpec(
        size=int(pop["size"]),
        strata=tuple(strata),
        minutes=int(pop.get("minutes", 1440)),
        seed=int(cfg["seed"]),
    )


def _design_from_config(cfg: dict):
    from . import datagen

    design = cfg.get("design")
    if not isinstance(design, dict) or "kind" not in design:
        raise ValueError("config must define design.kind")
    if design["kind"] not in _DESIGN_KEYS:
        raise ValueError(f"unknown design kind {design['kind']!r}")
    _check_keys(design, _DESIGN_KEYS[design["kind"]], f"{design['kind']} design")
    if design["kind"] == "stratified":
        return datagen.StratifiedDesign(fractions=dict(design["fractions"]))
    return datagen.PoissonDesign(
        expected_n=int(design["expected_n"]),
        size_covariate=design.get("size_covariate"),
    )


def cmd_simulate(args) -> int:
    from . import datagen

    cfg = _merged(args, "simulate")
    spec = _population_spec_from_config(cfg)
    design = _design_from_config(cfg)

    population, truth = datagen.simulate_population(spec)
    pi = datagen.inclusion_probabilities(population, design)
    sample = datagen.draw_sample(population, design, seed=int(cfg["sample_seed"]))

    with _RunOutputs(Path(args.out)) as out:
        # one pass formats each population subject once for both files
        io.write_readings_csv(out.path("population_readings.csv"), population,
                              out.path("sample_readings.csv"),
                              [s.subject_id for s in sample])
        io.write_subjects_csv(out.path("population_subjects.csv"), population)
        io.write_subjects_csv(out.path("sample_subjects.csv"), sample)
        io.write_ground_truth_csv(out.path("ground_truth.csv"), truth, population, pi)
    return 0


def cmd_predict(args) -> int:
    from .regression import krr_predict_batch, load_model

    model = load_model(args.model)
    ids, x = io.read_quantile_csv(args.input)
    preds = krr_predict_batch(model, x)
    with _RunOutputs(Path(args.out)) as out:
        io.write_rows(out.path("predictions.csv"), ["subject_id", "prediction"],
                       zip(ids, preds))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="actidist",
        description="Activity-distribution representations and survey regression.",
    )
    parser.add_argument("--print-config", action="store_true",
                        help="print built-in defaults for every subcommand and exit")
    sub = parser.add_subparsers(dest="command")

    def common(p, needs_subjects=True):
        p.add_argument("--input", required=True, help="input CSV")
        if needs_subjects:
            p.add_argument("--subjects", required=True, help="subject metadata CSV")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--config", help="JSON config file; flags override it")

    p = sub.add_parser("build-dist", help="raw readings to quantile grids")
    common(p)
    p.add_argument("--m", type=int, help="quantile grid size")
    p.add_argument("--censor-lower", dest="censor_lower", type=float,
                   help="inactivity cutoff; readings at or below collapse onto it")
    p.add_argument("--censor-upper", dest="censor_upper", type=float,
                   help="upper truncation for high-intensity readings")

    p = sub.add_parser("regress", help="distribution-vs-TAC R-square report")
    common(p)
    p.add_argument("--responses", help="comma-separated response column names")
    p.add_argument("--summary", help="summary CSV with exact tac_per_day")
    p.add_argument("--save-models", dest="save_models", action="store_const",
                   const=True, help="persist one fitted model per response")

    p = sub.add_parser("classify", help="five-year mortality classification")
    common(p)
    p.add_argument("--response", help="binary response column (default mortality)")
    p.add_argument("--threshold", type=float, help="classification threshold")
    p.add_argument("--stratify-age", dest="stratify_age", action="store_const",
                   const=True, help="profile groups by risk group and age stratum")

    p = sub.add_parser("simulate", help="synthetic population and survey sample")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", required=True, help="JSON population/design config")
    p.add_argument("--seed", type=int, help="population seed override")
    p.add_argument("--sample-seed", dest="sample_seed", type=int,
                   help="sampling seed override")

    p = sub.add_parser("predict", help="score a quantile table with a saved model")
    p.add_argument("--model", required=True, help="model JSON artifact")
    p.add_argument("--input", required=True, help="quantile CSV")
    p.add_argument("--out", required=True, help="output directory")

    return parser


_COMMANDS = {
    "build-dist": cmd_build_dist,
    "regress": cmd_regress,
    "classify": cmd_classify,
    "simulate": cmd_simulate,
    "predict": cmd_predict,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.print_config:
        print(json.dumps(DEFAULTS, indent=2))
        return 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
