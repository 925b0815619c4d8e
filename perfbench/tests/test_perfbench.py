"""Tests of the pipeline benchmark itself, run in its tiny-size mode.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
Each test works in a throwaway checkout (``src``, ``perfbench`` and
``BENCHMARK.json`` copied into a temporary directory), as the benchmark is
run from the root of a checkout.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
WORKLOADS = ("ingest_week", "krr_regress", "nw_classify")
_IGNORE = shutil.ignore_patterns("__pycache__", "*.egg-info", ".bench_work")


def make_checkout(dest: Path, with_src: bool = True) -> Path:
    dest.mkdir(parents=True, exist_ok=True)
    shutil.copytree(BENCH, dest / "perfbench", ignore=_IGNORE)
    shutil.copy(REPO / "BENCHMARK.json", dest)
    if with_src:
        shutil.copytree(REPO / "src", dest / "src", ignore=_IGNORE)
    return dest


def run_bench(checkout: Path, workload: str, trace: int, seed: int = 1):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=checkout, capture_output=True, text=True, timeout=300, check=False)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    return make_checkout(tmp_path_factory.mktemp("checkout"))


@pytest.fixture(scope="module")
def results(checkout):
    return {(w, t): run_bench(checkout, w, t) for w in WORKLOADS for t in (0, 1)}


@pytest.fixture(scope="module")
def contract():
    return json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_printed_metrics_match_benchmark_json(results, contract):
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    end_to_end = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in contract["per_layer"]}
    for (workload, trace), (_, result) in results.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, (workload, trace)
        assert result["failed"] == 0 and result["attempted"] >= 1
        expected = per_layer if trace else end_to_end
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        for name, metric in result["metrics"].items():
            assert isinstance(metric["value"], (int, float)), name
            if not trace:
                assert metric["value"] > 0, (workload, name)


def test_metric_map_matches_benchmark_json(contract):
    metric_map = json.loads((BENCH / "metric_map.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in contract["per_layer"]} == \
        {k: v["unit"] for k, v in metric_map.items()}
    for spec in metric_map.values():
        assert set(spec["heavy"]) <= set(WORKLOADS) and set(spec["flat"]) <= set(WORKLOADS)
        assert not set(spec["heavy"]) & set(spec["flat"])


def test_environment_and_input_digests_recorded(results):
    info, _ = results[("krr_regress", 0)]
    env = info["env"]
    for key in ("nproc", "python", "numpy", "blas", "blas_threads", "git_commit",
                "source_sha256", "seed"):
        assert key in env
    assert env["seed"] == 1
    assert env["blas_threads"] is None or 1 <= env["blas_threads"] <= env["nproc"]
    assert set(info["inputs_sha256"]) == {"quantiles.csv", "subjects.csv", "summary.csv"}


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    code = (
        "import json, sys; from pathlib import Path; import run, workloads\n"
        "out = {}\n"
        "for w, size in workloads.SIZES['tiny'].items():\n"
        "    for tag, seed in (('a', 3), ('b', 3), ('c', 4)):\n"
        "        d = Path(sys.argv[1]) / w / tag\n"
        "        workloads.setup(w, d, seed, size)\n"
        "        out[w + tag] = run.tree_digests(d)\n"
        "print(json.dumps(out))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(REPO / "src"), str(BENCH)]))
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    digests = json.loads(done.stdout)
    for w in WORKLOADS:
        assert digests[w + "a"] and digests[w + "a"] == digests[w + "b"]
        assert digests[w + "a"] != digests[w + "c"]


def test_tampered_sigma_counts_as_failed_run(tmp_path):
    checkout = make_checkout(tmp_path / "co")
    # Edits sigma_distribution in report.csv as every regress process exits.
    (checkout / "src" / "sitecustomize.py").write_text(
        "import atexit, csv, os, sys\n"
        "def _tamper():\n"
        "    if 'regress' not in sys.argv or '--out' not in sys.argv:\n"
        "        return\n"
        "    path = os.path.join(sys.argv[sys.argv.index('--out') + 1], 'report.csv')\n"
        "    with open(path, newline='') as fh:\n"
        "        rows = list(csv.reader(fh))\n"
        "    col = rows[0].index('sigma_distribution')\n"
        "    rows[1][col] = repr(float(rows[1][col]) * (1 + 1e-6))\n"
        "    with open(path, 'w', newline='') as fh:\n"
        "        csv.writer(fh).writerows(rows)\n"
        "atexit.register(_tamper)\n", encoding="utf-8")
    info, result = run_bench(checkout, "krr_regress", 0)
    regress_runs = result["attempted"] // 2
    assert result["correct"] is False
    assert result["failed"] == regress_runs >= 1
    assert any("sigma_distribution" in e for e in info["errors"])


def test_absent_name_tolerated_and_missing_heavy_span_fails(tmp_path):
    checkout = make_checkout(tmp_path / "co")
    map_path = checkout / "perfbench" / "metric_map.json"
    metric_map = json.loads(map_path.read_text(encoding="utf-8"))
    metric_map["regression.removed_function.self_s"] = {
        "unit": "s", "moves": [], "heavy": ["krr_regress"], "flat": []}
    metric_map["io.read_readings_csv.calls"] = {
        "unit": "count", "moves": [], "heavy": ["krr_regress"], "flat": []}
    map_path.write_text(json.dumps(metric_map), encoding="utf-8")
    info, result = run_bench(checkout, "krr_regress", 1)
    assert info["absent"] == ["regression.removed_function.self_s"]
    assert result["metrics"]["regression.removed_function.self_s"]["value"] == 0
    assert result["correct"] is False and result["failed"] >= 1
    assert all("io.read_readings_csv" in e and "removed_function" not in e
               for e in info["errors"])


def test_self_times_fit_inside_each_subcommand_span(checkout, results):
    sys.path.insert(0, str(BENCH))
    try:
        import tracer
    finally:
        sys.path.remove(str(BENCH))
    for workload in WORKLOADS:
        info, _ = results[(workload, 1)]
        report = json.loads((checkout / info["report"]).read_text(encoding="utf-8"))
        traced = [c for p in report["passes"] if p["traced"] for c in p["commands"]]
        assert traced
        for command in traced:
            spans = json.loads(Path(command["spans_file"]).read_text(encoding="utf-8"))["spans"]
            roots = [s for s in spans if s["parent"] is None]
            assert [s["name"] for s in roots] == ["cli.main"]
            own = tracer.self_times(spans)
            assert min(own.values()) >= 0
            span_ns = roots[0]["end"] - roots[0]["start"]
            assert sum(own.values()) <= span_ns
            assert span_ns * 1e-9 <= command["wall_s"]


def test_tracer_rebinds_every_alias():
    code = (
        "import tracer\n"
        "from actidist import cli, evaluation, regression\n"
        "t = tracer.Tracer('t'); tracer.install(t)\n"
        "w = lambda f: hasattr(f, '__wrapped__')\n"
        "names = ['krr_loo', 'krr_select_lambda', 'nw_loo', 'nw_select_bandwidth',\n"
        "         'distance_quantile_grid', 'median_heuristic_sigma_from_matrix']\n"
        "assert w(cli.krr_fit) and w(regression.krr_fit)\n"
        "assert all(w(getattr(evaluation, n)) for n in names)\n"
        "assert all(w(getattr(cli, n)) for n in\n"
        "           ['compare_r2', 'classify_mortality', 'group_profiles', 'save_model'])\n"
        "assert all(w(f) for f in cli._COMMANDS.values())\n"
        "assert w(regression.SurveySample.distance_matrix)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(REPO / "src"), str(BENCH)]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


def test_fails_without_the_program(tmp_path):
    bare = make_checkout(tmp_path / "bare", with_src=False)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "krr_regress", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180, check=False)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
