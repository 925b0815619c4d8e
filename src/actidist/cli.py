"""Batch command-line front end for the distribution/regression pipeline.

Subcommands: build-dist, regress, classify, simulate, predict. Values come
from flags first, then the optional JSON config file, then the built-in
defaults (printable with --print-config). Exit codes: 0 success, 1 I/O
failure, 2 validation failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path

import numpy as np

# each command imports the estimators it calls, so that a process loads
# only the modules its subcommand uses
from . import io
from .distribution import (DEFAULT_GRID_SIZE, MINUTES_PER_DAY, CensorSpec, _real,
                           build_mixed, tac_per_day)


def __getattr__(name: str):
    # the names other code reads off this module (the benchmark's tracer
    # checks do) are the package's exports, imported on first access
    if name not in sys.modules[__package__].__all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(sys.modules[__package__], name)


# each subcommand's options: name -> (io.FROM_JSON kind, default, flag help).
# A kind of None takes the value as it is (datagen checks population and
# design); a help of None marks a key that only the config file sets.
_OPTIONS = {
    "build-dist": {
        "m": ("int", DEFAULT_GRID_SIZE, "quantile grid size"),
        "censor_lower": ("float", None,
                         "inactivity cutoff; readings at or below collapse onto it"),
        "censor_upper": ("float", None, "upper truncation for high-intensity readings")},
    "regress": {
        "responses": ("names", ["response"], "comma-separated response column names"),
        # evaluation.DEFAULT_LAMBDA_GRID, written out so that importing the CLI
        # does not import evaluation; a test keeps the two equal
        "lambda_grid": ("floats", np.logspace(-4, 2, 13).tolist(), None),
        "save_models": ("bool", False, "persist one fitted model per response")},
    "classify": {
        "response": ("name", "mortality", "binary response column (default mortality)"),
        "threshold": ("float", 0.5, "classification threshold"),
        "stratify_age": ("bool", False, "profile groups by risk group and age stratum")},
    # population and design have no default: the config file must give them
    "simulate": {"seed": ("int", 0, "population seed override"),
                 "sample_seed": ("int", 1, "sampling seed override"),
                 "population": (None, None, None), "design": (None, None, None)},
    "predict": {},
}

DEFAULTS = {cmd: {key: opt[1] for key, opt in opts.items()} for cmd, opts in _OPTIONS.items()}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


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
    """flag > config file > default, per option; io.FROM_JSON converts a flag's
    string and a config value alike, by kind, but keeps None where the default
    is None. A value that fails names its flag, or the config file and key."""
    merged = dict(DEFAULTS[command])
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ValueError(f"{args.config}: a config file must hold one JSON object")
        unknown = sorted(set(config) - set(merged))
        if unknown:
            raise ValueError(f"{args.config}: unknown {command} config keys: "
                             f"{', '.join(unknown)}")
        merged.update(config)
    for key, (kind, default, _) in _OPTIONS[command].items():
        flag = getattr(args, key, None)
        value = merged[key] if flag is None else flag
        convert = io.FROM_JSON[kind] if kind else lambda v: v
        try:
            merged[key] = None if value is None and default is None else convert(value)
        except (TypeError, ValueError) as exc:
            place = f"{args.config}: {key}" if flag is None else _flag(key)
            raise ValueError(f"{place}: {exc}") from exc
    return merged


def cmd_build_dist(args) -> int:
    cfg = _merged(args, "build-dist")
    censor = CensorSpec(lower=cfg["censor_lower"], upper=cfg["censor_upper"])
    subjects = io.load_series(args.input, args.subjects)
    try:
        tacs = [tac_per_day(s) for s in subjects]
    except ValueError as exc:  # a single reading, for which it names the subject
        raise io.InputValidationError(f"{args.input}: {exc}") from None
    with _RunOutputs(Path(args.out)) as out:
        mixed = [build_mixed(s, censor=censor, m=cfg["m"]) for s in subjects]
        ids = [s.subject_id for s in subjects]
        io.write_quantile_csv(out.path("quantiles.csv"), ids, [mx.quantiles for mx in mixed])
        io.write_summary_csv(out.path("summary.csv"), ids, mixed, tacs)
    return 0


def _read_regression_inputs(args):
    ids, x = io.read_quantile_csv(args.input)
    if len(ids) < 2:
        raise io.InputValidationError(f"{args.input}: {len(ids)} subject; need at least 2")
    meta = io.read_subjects_csv(args.subjects)
    io.check_entries(ids, meta, "subjects")
    weights = np.asarray([meta[sid][0] for sid in ids])
    covariates = [meta[sid][1] for sid in ids]
    return ids, x, weights, covariates


def _numeric_column(ids, covariates, name: str, role: str) -> np.ndarray:
    """Covariate `name` as floats; names the subjects whose value is no finite number."""
    values = [cov.get(name) for cov in covariates]
    bad = [sid for sid, value in zip(ids, values) if not _real(value)]
    if bad:
        raise io.InputValidationError(
            f"missing, non-numeric or non-finite {role} column {name!r} for: "
            f"{', '.join(bad[:5])}")
    return np.asarray(values, dtype=float)


def _tac_values(args, ids, x) -> np.ndarray:
    """Daily totals from the summary file when given, else recovered from
    the distribution as minutes per day * mean quantile value."""
    summary_path = getattr(args, "summary", None)
    if summary_path:
        rows = io.read_summary_csv(summary_path)
        io.check_entries(ids, rows, "summary")
        return np.asarray([rows[sid][1] for sid in ids])
    return MINUTES_PER_DAY * x.mean(axis=1)


def cmd_regress(args) -> int:
    from .evaluation import compare_r2
    from .regression import SurveySample, krr_fit, save_model

    cfg = _merged(args, "regress")
    if not cfg["responses"]:
        raise ValueError("no response columns requested")
    io.check_unique(cfg["responses"], "repeated response")

    ids, x, weights, covariates = _read_regression_inputs(args)
    tac = _tac_values(args, ids, x)

    # one sample per predictor kind: every response reuses its distances
    # and kernel spectrum
    dist_base = SurveySample(x, np.zeros(len(ids)), weights)
    tac_base = SurveySample(tac, np.zeros(len(ids)), weights)

    with _RunOutputs(Path(args.out)) as out:
        report_rows = []
        for name in cfg["responses"]:
            y = _numeric_column(ids, covariates, name, "response")
            dist_sample = dist_base.with_responses(y)
            try:
                result = compare_r2(dist_sample, tac_base.with_responses(y), cfg["lambda_grid"])
            except ValueError as exc:
                raise ValueError(f"response {name!r}: {exc}") from exc
            dist_fit, tac_fit = result.distribution, result.tac
            report_rows.append([name, dist_fit.r2, tac_fit.r2, dist_fit.lam, tac_fit.lam,
                                dist_fit.sigma, tac_fit.sigma])
            if cfg["save_models"]:
                save_model(krr_fit(dist_sample, dist_fit.lam, sigma=dist_fit.sigma),
                           out.path(f"model_{name}.json"))
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

    outcome = classify_mortality(sample, threshold=cfg["threshold"])
    risk = assign_risk_groups(outcome)
    labels = list(risk) if strata is None else [f"{r}/{s}" for r, s in zip(risk, strata)]

    with _RunOutputs(Path(args.out)) as out:
        io.write_rows(
            out.path("predictions.csv"),
            ["subject_id", "probability", "predicted_label", "actual_label",
             "survey_weight", "risk_group"],
            zip(ids, outcome.probabilities.tolist(), outcome.predicted.tolist(),
                outcome.actual.tolist(), outcome.weights.tolist(), risk),
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


def cmd_simulate(args) -> int:
    from . import datagen

    cfg = _merged(args, "simulate")
    spec = datagen.population_from_config(cfg["population"], cfg["seed"])
    design = datagen.design_from_config(cfg["design"], spec)

    population, truth = datagen.simulate_population(spec)
    pi = datagen.inclusion_probabilities(population, design)
    sample = datagen.draw_sample(population, design, seed=cfg["sample_seed"])

    with _RunOutputs(Path(args.out)) as out:
        io.write_readings_csv(out.path("sample_readings.csv"), sample)
        io.write_subjects_csv(out.path("population_subjects.csv"), population)
        io.write_subjects_csv(out.path("sample_subjects.csv"), sample)
        io.write_ground_truth_csv(out.path("ground_truth.csv"), truth, population, pi)
    return 0


def cmd_predict(args) -> int:
    from .regression import krr_predict_batch, load_model

    model = load_model(args.model)
    ids, x = io.read_quantile_csv(args.input)
    width = model.training_matrix[0].size  # 1 for a scalar model
    if x.shape[1] != width:
        raise io.InputValidationError(f"{args.input}: {x.shape[1]} quantile columns, but "
                                      f"model {args.model} was fitted on {width}")
    preds = krr_predict_batch(model, x)
    with _RunOutputs(Path(args.out)) as out:
        io.write_rows(out.path("predictions.csv"), ["subject_id", "prediction"],
                       zip(ids, preds.tolist()))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="actidist",
        description="Activity-distribution representations and survey regression.",
    )
    parser.add_argument("--print-config", action="store_true",
                        help="print built-in defaults for every subcommand and exit")
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--input", required=True, help="input CSV")
        p.add_argument("--subjects", required=True, help="subject metadata CSV")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--config", help="JSON config file; flags override it")

    common(sub.add_parser("build-dist", help="raw readings to quantile grids"))
    p = sub.add_parser("regress", help="distribution-vs-TAC R-square report")
    common(p)
    p.add_argument("--summary", help="summary CSV with exact tac_per_day")
    common(sub.add_parser("classify", help="five-year mortality classification"))
    p = sub.add_parser("simulate", help="synthetic population and survey sample")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", required=True, help="JSON population/design config")
    p = sub.add_parser("predict", help="score a quantile table with a saved model")
    p.add_argument("--model", required=True, help="model JSON artifact")
    p.add_argument("--input", required=True, help="quantile CSV")
    p.add_argument("--out", required=True, help="output directory")

    # each option's flag: a string for _merged to convert, or a bool's True
    for command, options in _OPTIONS.items():
        for name, (kind, _, text) in options.items():
            if text is not None:
                store = {"action": "store_const", "const": True} if kind == "bool" else {}
                sub.choices[command].add_argument(_flag(name), dest=name, help=text, **store)
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
    except ValueError as exc:  # json's and io's input errors are ValueErrors too
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
