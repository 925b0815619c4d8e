"""Traced launcher for one actidist subcommand, and the arithmetic on its spans.

Run as::

    python perfbench/tracer.py SPANS_JSON RUN_ID CLI_ARG...

with the repository's ``src`` directory on ``PYTHONPATH``. The launcher
wraps every public function of the actidist modules, plus
``SurveySample.distance_matrix``, and rebinds every module attribute (and
module-level dict entry, such as the CLI's command table) that holds the
original function object. It then calls ``actidist.cli.main``. Each call
records a span (name, start, end, parent span, run id) in memory; the spans
are written to SPANS_JSON when the command returns. A listed name that no
longer exists is simply not wrapped, and the benchmark reports it absent.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import os
import sys
import time

MODULES = ("cli", "io", "datagen", "distribution", "regression", "survey",
           "geometry", "evaluation")
METHODS = (("regression", "SurveySample", "distance_matrix"),)


def _path_bytes(args) -> int:
    return sum(os.path.getsize(a) for a in args
               if isinstance(a, (str, os.PathLike)) and os.path.isfile(a))


def _readings_rows(args, kwargs, result):
    return {"rows": sum(len(t) for t, _ in result.values())}


def _written_rows(args, kwargs, result):
    subjects = args[1] if len(args) > 1 else kwargs["subjects"]
    return {"rows": sum(len(s.readings) for s in subjects)}


def _krr_loo_n(args, kwargs, result):
    return {"n": len(result)}


class _DistanceDigests:
    """Counts distance_matrix calls on predictors whose distances this
    process already computed, matched by a digest of the predictor matrix."""

    def __init__(self):
        self.seen = set()

    def __call__(self, args, kwargs, result):
        sample = args[0]
        x = getattr(sample, "_matrix", result)
        digest = hashlib.blake2b(x.tobytes(), digest_size=16).digest()
        redundant = digest in self.seen
        self.seen.add(digest)
        n = result.shape[0]
        m = x.shape[1] if x.ndim == 2 and x is not result else 0
        return {"bytes_computed": n * n * m * 8, "redundant_calls": int(redundant)}


class Tracer:
    """Wraps functions so every call appends a span to ``self.spans``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.attributes = {
            "io.read_readings_csv": _readings_rows,
            "io.write_readings_csv": _written_rows,
            "regression.krr_loo": _krr_loo_n,
            "regression.SurveySample.distance_matrix": _DistanceDigests(),
        }

    def wrap(self, name: str, fn):
        attributes = self.attributes.get(name)
        counts_bytes = name.startswith(("io.read_", "io.write_", "io.load_"))
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(spans), "parent": stack[-1] if stack else None,
                    "name": name, "run": self.run_id}
            spans.append(span)
            stack.append(span["id"])
            span["start"] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = clock()
                stack.pop()
            if attributes is not None:
                span.update(attributes(args, kwargs, result))
            if counts_bytes:
                span["bytes"] = _path_bytes(args)
            return result

        return traced


def install(tracer: Tracer) -> list[str]:
    """Wrap the actidist functions in place; return the names wrapped."""
    modules = {name: importlib.import_module(f"actidist.{name}") for name in MODULES}
    originals = {}
    for short, mod in modules.items():
        for attr, value in vars(mod).items():
            if (inspect.isfunction(value) and not attr.startswith("_")
                    and value.__module__ == mod.__name__):
                originals[value] = f"{short}.{attr}"
    wrappers = {fn: tracer.wrap(name, fn) for fn, name in originals.items()}

    for short, cls_name, method in METHODS:
        cls = getattr(modules[short], cls_name, None)
        fn = getattr(cls, method, None) if cls is not None else None
        if inspect.isfunction(fn):
            name = f"{short}.{cls_name}.{method}"
            setattr(cls, method, tracer.wrap(name, fn))
            originals[fn] = name

    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "actidist" or mod_name.startswith("actidist.")):
            continue
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(mod, attr, wrappers[value])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if inspect.isfunction(item) and item in wrappers:
                        value[key] = wrappers[item]
    return sorted(originals.values())


def main(argv: list[str]) -> int:
    spans_path, run_id, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer(run_id)
    wrapped = install(tracer)
    from actidist import cli

    try:
        return cli.main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"run": run_id, "wrapped": wrapped, "spans": tracer.spans}, fh)


# -- parent side: span arithmetic -------------------------------------------

def self_times(spans: list[dict]) -> dict[int, int]:
    """Span id -> duration minus the part of it that child spans cover (ns)."""
    children: dict = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0, s["start"]
        for start, end in sorted(children.get(s["id"], ())):
            start, end = max(start, reach), min(end, s["end"])
            if end > start:
                covered += end - start
                reach = end
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def _has_io_ancestor(span, by_id) -> bool:
    parent = span["parent"]
    while parent is not None:
        if by_id[parent]["name"].startswith("io."):
            return True
        parent = by_id[parent]["parent"]
    return False


def layer_stats(processes: list[list[dict]]) -> dict:
    """Per-function totals over the spans of one or more processes.

    Returns {name: {"calls", "self_s", ...summed span counters}}, with
    ``regression.krr_loo`` also carrying refits (krr_fit spans whose parent
    is krr_loo) and refit_frac (refits over the n summed across krr_loo
    calls), plus ``io`` holding bytes_read and bytes_written of the
    outermost io read/write calls.
    """
    stats: dict = {"io": {"bytes_read": 0, "bytes_written": 0}}
    refits = 0
    for spans in processes:
        by_id = {s["id"]: s for s in spans}
        own = self_times(spans)
        for s in spans:
            entry = stats.setdefault(s["name"], {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += own[s["id"]] * 1e-9
            for key in ("rows", "bytes_computed", "redundant_calls", "n"):
                if key in s:
                    entry[key] = entry.get(key, 0) + s[key]
            parent = by_id.get(s["parent"])
            if s["name"] == "regression.krr_fit" and parent \
                    and parent["name"] == "regression.krr_loo":
                refits += 1
            if "bytes" in s and not _has_io_ancestor(s, by_id):
                key = "bytes_written" if s["name"].startswith("io.write_") else "bytes_read"
                stats["io"][key] += s["bytes"]
    loo = stats.get("regression.krr_loo")
    if loo is not None:
        loo["refits"] = refits
        loo["refit_frac"] = refits / loo["n"] if loo.get("n") else 0.0
    return stats


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
