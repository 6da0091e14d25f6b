"""Self-tests of the benchmark.

Run with: python3 -m pytest bench/test_bench.py

They show that the inputs are a pure function of the seed, that the
check_ball shape keeps all six checks applicable, that the tracer's self
times add up, and that the error accounting does fail a broken run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import DETAIL_UNITS, UNITS  # noqa: E402

SEEDS = (0, 1, 7, 123456789)
CHECK_METRICS = {f"analysis.check_s.{t}" for t in wl.CHECK_TOKENS} | {
    "analysis.records", "analysis.naive_scans", "analysis.naive_scan_s"}
CSV_METRICS = {"scenario_io.trajectory_csv_s", "scenario_io.trajectory_bytes", "scenario_io.metrics_csv_s"}
# per-layer metrics whose spans exist but are never called on the workload
NOT_RUN = {"crowd_10k": CHECK_METRICS, "check_ball": CSV_METRICS | {"analysis.metrics_s", "analysis.diameter_s"}, "sweep_hd": CHECK_METRICS}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload, tmp_path):
    def inputs(seed, name):
        tmp = tmp_path / name
        tmp.mkdir()
        job = wl.prepare(workload, seed, tmp)
        return job.scenario.read_bytes(), [arg.replace(str(tmp), "TMP") for arg in job.argv]

    assert inputs(5, "a") == inputs(5, "b")
    assert inputs(5, "a2") != inputs(6, "c")


@pytest.mark.parametrize("seed", SEEDS)
def test_small_check_ball_applies_and_passes_all_checks(seed, tmp_path):
    sys.path.insert(0, str(run.ROOT / "src"))
    from lfmix.cli import main

    scenario = tmp_path / "small.json"
    scenario.write_text(json.dumps(wl.check_ball_scenario(seed, followers=57, leaders=3)), encoding="utf-8")
    report = tmp_path / "report.json"
    assert main(["check", "--scenario", str(scenario), "--report", str(report), "--threads", "1"]) == 0
    checks = json.loads(report.read_text(encoding="utf-8"))["checks"]
    assert {token: checks[token]["status"] for token in wl.CHECK_TOKENS} == dict.fromkeys(wl.CHECK_TOKENS, "pass")


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_reports_every_layer_and_self_times_sum_to_root(workload):
    sample = run.run_once(workload, 0, True, run.load_golden(workload, 0))
    assert sample.problems == []
    trace = sample.trace
    assert trace["absent"] == []
    assert trace["self_sum_s"] == pytest.approx(trace["root_s"], rel=1e-9)
    assert set(trace["metrics"]) == (set(UNITS) | set(DETAIL_UNITS)) - {"trace.overhead_s"}
    assert NOT_RUN[workload] <= set(DETAIL_UNITS)
    assert {name for name, value in trace["metrics"].items() if value is None} == NOT_RUN[workload]
    assert set(trace["not_run"]) == NOT_RUN[workload]
    assert all(value > 0 for value in trace["metrics"].values() if value is not None)


def test_mean_shift_fault_counts_as_failed_run():
    sample = run.run_once("check_ball", 0, False, None, extra_argv=("--inject-fault", "mean-shift"))
    assert sample.exit == 4
    assert sample.problems


def test_one_corrupted_byte_fails_the_digest_gate():
    golden = run.load_golden("crowd_10k", 0)
    assert golden is not None
    assert run.run_once("crowd_10k", 0, False, golden).problems == []

    def corrupt(job):
        path = job.out / "trajectory.csv"
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01
        path.write_bytes(bytes(data))

    problems = run.run_once("crowd_10k", 0, False, golden, mutate=corrupt).problems
    assert any(p.startswith("trajectory.csv:") for p in problems)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "crowd_10k", "--seed", "0",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_benchmark_json_names_the_metrics_the_runs_print():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == UNITS
