"""Pipeline benchmark for the actidist command line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload krr_regress --seed 0 --seconds 30 --trace 0

One client runs the workload's chain of ``python -m actidist.cli``
subcommands in a closed loop: each subcommand is its own process and starts
only after the previous one has exited, and the chain repeats until
``--seconds`` have passed. The inputs are generated first from ``--seed``.
Every subcommand's outputs are checked. With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` the chain alternates untraced and traced passes (the latter
launched through ``perfbench/tracer.py``) and the metrics are the per-layer
ones listed in ``perfbench/metric_map.json``. The line before it, and
``.bench_work/<run>/report.json``, record the environment, the input
digests, per-subcommand times and any errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("ingest_week", "krr_regress", "nw_classify")
DEFAULT_SEED = 0
SETUP_REPEATS = 5
MIN_PASSES = 3          # untraced passes per run, even past --seconds
COMMAND_TIMEOUT_S = 120
RUN_BUDGET_S = 150      # stop starting passes after this, whatever --seconds says
BLAS_THREADS = 1
END_TO_END = {"setup_s": "s", "total_s": "s", "peak_rss_mb": "MB"}
COMMAND_METRICS = {"simulate": "simulate_s", "build-dist": "build_dist_s",
                   "regress": "regress_s", "predict": "predict_s", "classify": "classify_s"}


def load_metric_map() -> dict:
    with open(BENCH_DIR / "metric_map.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def tree_digests(root: Path) -> dict:
    """Relative path -> SHA-256 of every file under ``root``."""
    return {p.relative_to(root).as_posix(): _sha256(p)
            for p in sorted(root.rglob("*")) if p.is_file()}


def _blas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    import ctypes

    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(root: Path, seed: int, nproc: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (AttributeError, KeyError, TypeError):
        blas = None
    commit = None
    if (root / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, check=False, timeout=30)
        commit = done.stdout.strip() or None
    src = root / "src" / "actidist"
    source = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "blas_threads_env": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "seed": seed,
    }


def launch(argv: list, env: dict, cwd: Path, log: Path) -> tuple[int, float, float]:
    """Run one process to completion: (exit code, wall seconds, peak RSS MB)."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


class Bench:
    """One benchmark run: set-up, the closed loop of passes, and the metrics."""

    def __init__(self, root: Path, workload: str, seed: int, tiny: bool, trace: bool):
        import workloads

        self.wl = workloads
        self.root, self.workload, self.seed, self.trace = root, workload, seed, trace
        self.size = workloads.SIZES["tiny" if tiny else "full"][workload]
        tag = f"{workload}-s{seed}-t{int(trace)}" + ("-tiny" if tiny else "")
        self.work = root / ".bench_work" / tag
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.env = dict(os.environ)
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(root / "src") + (os.pathsep + old if old else "")
        self.errors: list[str] = []
        self.checked: dict = {}  # (subcommand, output digests) -> (errors, facts)
        self.passes: list[dict] = []

    def setup(self) -> None:
        times, digests = [], []
        for r in range(SETUP_REPEATS):
            out = self.work / f"setup{r}"
            start = time.perf_counter()
            oracle = self.wl.setup(self.workload, out, self.seed, self.size)
            times.append(time.perf_counter() - start)
            digests.append(tree_digests(out))
            if r == 0:
                self.oracle = oracle
        if any(d != digests[0] for d in digests):
            self.errors.append("set-up is not deterministic: inputs differ between repeats")
        self.inputs = self.work / "setup0"
        self.input_digests = digests[0]
        self.setup_times = times

    def run_pass(self, index: int, traced: bool) -> dict:
        outputs = self.work / "out"
        shutil.rmtree(outputs, ignore_errors=True)
        outputs.mkdir()
        record = {"index": index, "traced": traced, "commands": []}
        for name, args in self.wl.commands(self.workload, self.inputs, outputs, self.size):
            log = self.work / "logs" / f"{index:03d}-{name}.log"
            log.parent.mkdir(exist_ok=True)
            if traced:
                spans = self.work / "spans" / f"{index:03d}-{name}.json"
                spans.parent.mkdir(exist_ok=True)
                argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans),
                        f"{self.workload}/{index}/{name}", *args]
            else:
                argv = [sys.executable, "-m", "actidist.cli", *args]
            rc, wall, rss = launch(argv, self.env, self.root, log)
            errors, facts = [], {}
            if rc != 0:
                errors.append(f"{name} exited {rc}, see {log.relative_to(self.root)}")
            else:
                key = (name, json.dumps(tree_digests(outputs), sort_keys=True))
                if key not in self.checked:
                    self.checked[key] = self.wl.check(name, outputs, self.oracle, self.size)
                errors, facts = self.checked[key]
            cmd = {"name": name, "wall_s": wall, "rss_mb": rss, "rc": rc,
                   "errors": list(errors), "facts": facts}
            if traced:
                cmd["spans_file"] = str(spans)
            record["commands"].append(cmd)
        return record

    def loop(self, seconds: float) -> None:
        start = time.perf_counter()
        deadline = start + seconds
        index = 0
        while True:
            elapsed = time.perf_counter() - start
            untraced = sum(1 for p in self.passes if not p["traced"])
            enough = untraced >= (1 if self.trace else MIN_PASSES)
            if (enough and time.perf_counter() >= deadline) or (untraced and elapsed > RUN_BUDGET_S):
                break
            for traced in ((False, True) if self.trace else (False,)):
                self.passes.append(self.run_pass(index, traced))
                index += 1

    # -- metrics -----------------------------------------------------------

    def _untraced(self):
        return [p for p in self.passes if not p["traced"]]

    def command_walls(self) -> dict:
        walls: dict = {}
        for p in self._untraced():
            for c in p["commands"]:
                walls.setdefault(c["name"], []).append(c["wall_s"])
        return {name: statistics.median(v) for name, v in walls.items()}

    def end_to_end(self) -> dict:
        untraced = self._untraced()
        values = {
            "setup_s": statistics.median(self.setup_times),
            "total_s": statistics.median(_pass_total(p) for p in untraced),
            "peak_rss_mb": max(c["rss_mb"] for p in untraced for c in p["commands"]),
        }
        return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}

    def per_layer(self, metric_map: dict) -> tuple[dict, list]:
        import tracer

        traced = [p for p in self.passes if p["traced"]]
        wrapped: set = set()
        per_pass = []
        for p in traced:
            processes = []
            for c in p["commands"]:
                try:
                    with open(c["spans_file"], "r", encoding="utf-8") as fh:
                        dump = json.load(fh)
                except (OSError, ValueError):
                    c["errors"].append(f"{c['name']}: no span file")
                    continue
                wrapped.update(dump["wrapped"])
                processes.append(dump["spans"])
            per_pass.append((p, tracer.layer_stats(processes)))

        absent = sorted(name for name in metric_map
                        if _span_name(name) is not None and _span_name(name) not in wrapped)
        for p, stats in per_pass:
            missing = sorted({_span_name(n) for n, spec in metric_map.items()
                              if self.workload in spec["heavy"] and n not in absent
                              and _span_name(n) is not None
                              and not stats.get(_span_name(n), {}).get("calls")})
            if missing:
                for c in p["commands"]:
                    c["errors"].append("traced pass recorded no span for: " + ", ".join(missing))

        walls = self.command_walls()
        untraced_total = statistics.median(_pass_total(p) for p in self._untraced())
        traced_total = statistics.median(_pass_total(p) for p in traced)
        command_of = {metric: command for command, metric in COMMAND_METRICS.items()}
        metrics = {}
        for name, spec in metric_map.items():
            if name == "trace.overhead_frac":
                value = traced_total / untraced_total - 1.0
            elif name in command_of:
                value = walls.get(command_of[name], 0.0)
            elif name.startswith("io.bytes_"):
                value = statistics.median(s["io"][name[3:]] for _, s in per_pass)
            elif name.endswith(".unclassified"):
                value = statistics.median(sum(c["facts"].get("unclassified", 0)
                                              for c in p["commands"]) for p, _ in per_pass)
            else:
                func, stat = name.rsplit(".", 1)
                value = statistics.median(s.get(func, {}).get(stat, 0) for _, s in per_pass)
            metrics[name] = {"value": value, "unit": spec["unit"]}
        return metrics, absent


def _pass_total(record: dict) -> float:
    return sum(c["wall_s"] for c in record["commands"])


def _span_name(metric: str):
    """The traced function behind a per-layer metric, or None for metrics
    that are not read from spans."""
    if metric in COMMAND_METRICS.values() or metric.startswith(("trace.", "io.bytes_")):
        return None
    return metric.rsplit(".", 1)[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "actidist" / "cli.py").is_file():
        print(f"error: {root} holds no src/actidist; run from the repository root",
              file=sys.stderr)
        return 2
    # One BLAS thread, set before numpy loads, here and in every subcommand
    # (they inherit the environment). At these sizes a second thread buys no
    # wall time, doubles CPU time and makes timings far noisier on a shared
    # machine.
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(root / "src"))

    bench = Bench(root, args.workload, args.seed, args.tiny, bool(args.trace))
    bench.setup()
    bench.loop(args.seconds)
    metric_map = load_metric_map()
    absent: list = []
    if args.trace:
        metrics, absent = bench.per_layer(metric_map)
    else:
        metrics = bench.end_to_end()

    facts = {k: v for c in bench.passes[0]["commands"] for k, v in c["facts"].items()}
    if args.seed == DEFAULT_SEED and not args.tiny:
        with open(BENCH_DIR / "reference.json", "r", encoding="utf-8") as fh:
            reference = json.load(fh).get(args.workload)
        if reference is None:
            bench.errors.append(f"no pinned reference for {args.workload}")
        else:
            bench.errors.extend(bench.wl.compare_reference(facts, reference))

    commands = [c for p in bench.passes for c in p["commands"]]
    failed = sum(1 for c in commands if c["errors"])
    errors = bench.errors + [e for c in commands for e in c["errors"]]
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "sizes": bench.size,
        "env": environment(root, args.seed, nproc),
        "inputs_sha256": bench.input_digests,
        "setup_times_s": bench.setup_times,
        "commands_s": bench.command_walls(),
        "facts": facts, "absent": absent, "errors": errors,
        "passes": bench.passes, "metrics": metrics,
    }
    report_path = bench.work / "report.json"
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    for stale in ["out", *(f"setup{r}" for r in range(1, SETUP_REPEATS))]:
        shutil.rmtree(bench.work / stale, ignore_errors=True)

    summary = {k: report[k] for k in ("env", "inputs_sha256", "commands_s", "absent")}
    summary["report"] = report_path.relative_to(root).as_posix()
    summary["errors"] = errors[:10]
    print(json.dumps(summary))
    print(json.dumps({"correct": not errors, "attempted": len(commands),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
