"""Command-line surface: flags, exit codes, and file outputs."""

import argparse
import copy
import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lfmix
from helpers import config, constant, run_in_child
from lfmix import build_scenario, cli, run
from lfmix.analysis import INAPPLICABLE
from lfmix.cli import main
from lfmix.errors import ScheduleViolation
from lfmix.scenario_io import load_scenario
from lfmix.seeding import derive_key

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def write_config(tmp_path, cfg, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def demo_config(stop_tol=1e-9, horizon=60):
    return config(
        followers=1,
        leader_groups=[("brand", 1, [0.0], constant(0.5))],
        initial=[[0.3], [0.1]],
        follower_betas=[constant(0.5)],
        horizon=horizon,
        stop_tol=stop_tol,
    )


def test_public_api():
    assert lfmix.__all__ == [
        "CheckReport", "EngineOptions", "MetricsRow", "NonFiniteState", "Partition", "Scenario",
        "ScenarioValidationError", "ScheduleViolation", "SystemState", "Trajectory", "ValidationIssue",
        "build_scenario", "check_ball_invariance", "check_consensus_bound", "check_contraction",
        "check_mixture_limit", "check_subsystem_independence", "check_target_envelope",
        "check_target_envelope_all", "compute_neighbors", "load_scenario", "max_target_distance",
        "metrics_rows", "neighbors_naive", "opinion_diameter", "run", "step",
    ]
    assert all(hasattr(lfmix, name) for name in lfmix.__all__)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_horizon_zero_writes_n_rows(tmp_path):
    path = write_config(tmp_path, demo_config())
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(path), "--out", str(out), "--horizon", "0"]) == 0
    with open(out / "trajectory.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert {rec["t"] for rec in rows} == {"0"}
    digest = json.loads((out / "run.json").read_text())["step_digest"]
    assert digest == {"min_weight": None, "max_sum_error": None,
                      "neighbor_pairs": {"min": None, "max": None, "last": None},
                      "classes": {"first": None, "min": None, "last": None},
                      "summed_sets": {"first": None, "min": None, "last": None}}


def test_simulate_missing_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["simulate", "--scenario", str(missing), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "nope.json" in err


def test_simulate_invalid_scenario_exits_2_with_issues(tmp_path, capsys):
    cfg = demo_config()
    cfg["epsilon"] = 0
    path = write_config(tmp_path, cfg)
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "EpsilonNonpositive" in capsys.readouterr().err


def test_scenario_that_is_not_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{", encoding="utf-8")
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("lfmix: scenario is not valid JSON: ")
    assert not (tmp_path / "o").exists()


UNDECODABLE = {
    "not-utf8": b'{"dimension": "\xff"}',
    "integer-past-the-digit-limit": b'{"dimension": ' + b"9" * 5000 + b"}",
    "nested-too-deep": b"[" * 200_000 + b"]" * 200_000,
}


@pytest.mark.parametrize("command", ["simulate", "check", "sweep"])
@pytest.mark.parametrize("kind", sorted(UNDECODABLE))
def test_scenario_that_cannot_be_decoded_exits_2(tmp_path, capsys, kind, command):
    path = tmp_path / "broken.json"
    path.write_bytes(UNDECODABLE[kind])
    extra = {"simulate": ["--out"], "check": ["--report"], "sweep": ["--vary", "epsilon=0.2:0.3:2", "--out"]}
    assert main([command, "--scenario", str(path), *extra[command], str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("lfmix: scenario is not valid JSON: ")
    assert not (tmp_path / "o").exists()


def test_check_invalid_scenario_exits_2_with_issues(tmp_path, capsys):
    cfg = demo_config()
    cfg["epsilon"] = 0
    path = write_config(tmp_path, cfg)
    assert main(["check", "--scenario", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"invalid scenario {path}:" in captured.err
    assert "EpsilonNonpositive" in captured.err


def test_simulate_demo_converges(tmp_path):
    path = write_config(tmp_path, demo_config())
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 0
    payload = json.loads((out / "run.json").read_text())
    assert payload["stop_reason"] == "converged"
    assert payload["measured_gamma"] == 0.5
    assert (out / "scenario.canonical.json").exists()
    assert (out / "metrics.csv").exists()
    assert set(payload["timings"]) == {"update_s", "trajectory_csv_s", "metrics_s"}
    assert all(isinstance(v, float) and v >= 0.0 for v in payload["timings"].values())
    assert 0.0 < payload["timings"]["update_s"] < payload["wall_time_seconds"]
    digests = run(build_scenario(demo_config())).step_digests
    pairs = [d.neighbor_pairs for d in digests]
    classes = [d.classes for d in digests]
    summed = [d.summed_sets for d in digests]
    assert payload["step_digest"] == {
        "min_weight": min(d.min_weight for d in digests),
        "max_sum_error": max(d.max_sum_error for d in digests),
        "neighbor_pairs": {"min": min(pairs), "max": max(pairs), "last": pairs[-1]},
        "classes": {"first": classes[0], "min": min(classes), "last": classes[-1]},
        "summed_sets": {"first": summed[0], "min": min(summed), "last": summed[-1]},
    }
    assert payload["step_digest"]["min_weight"] == 0.5
    assert payload["step_digest"]["classes"]["first"] == 2  # two distinct rows: one class each


def test_simulate_out_that_cannot_be_written_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, demo_config())
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    assert main(["simulate", "--scenario", str(path), "--out", str(taken)]) == 2
    assert capsys.readouterr().err.startswith("lfmix: cannot write output: ")


def test_run_json_counts_the_classes_of_fewer_than_64_agents(tmp_path):
    # twelve followers on four rows, in two pairs of rows that merge after the first step
    initial = [[0.0], [0.0625], [1.0], [1.0625]] * 3
    cfg = config(followers=12, epsilon=0.125, initial=initial, horizon=5)
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
    digest = json.loads((out / "run.json").read_text())["step_digest"]
    assert digest["classes"] == {"first": 4, "min": 2, "last": 2}
    assert digest["summed_sets"] == {"first": 4, "min": 2, "last": 2}


def test_run_json_counts_the_classes_a_collapsing_run_summed(tmp_path):
    # five followers whose opinions merge into one after the first step, and 65 that start merged
    cfg = config(followers=70, epsilon=1.0, initial=[[0.0], [0.25], [0.5], [0.75], [1.0]] + [[3.0]] * 65,
                 horizon=3)
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
    payload = json.loads((out / "run.json").read_text())
    assert payload["step_digest"]["classes"] == {"first": 6, "min": 2, "last": 2}
    assert payload["step_digest"]["summed_sets"] == {"first": 6, "min": 2, "last": 2}  # no set holds all 70


def test_run_json_counts_one_summed_set_where_every_set_holds_its_whole_group(tmp_path):
    # 70 distinct followers within epsilon of each other: 70 classes whose
    # sets all hold the whole group, so one set is summed and 69 copy it
    cfg = config(followers=70, epsilon=1.0, initial=[[i / 100] for i in range(70)], horizon=3)
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
    digest = json.loads((out / "run.json").read_text())["step_digest"]
    assert digest["classes"]["first"] == 70
    assert digest["summed_sets"] == {"first": 1, "min": 1, "last": 1}


def test_simulate_does_not_import_scipy(tmp_path):
    scenario = SCENARIOS / "perf_10k.json"
    code = (
        "import sys\n"
        "from lfmix.cli import main\n"
        f"assert main(['simulate', '--scenario', {str(scenario)!r}, '--out', {str(tmp_path)!r},"
        " '--horizon', '1']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(lfmix.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("command", ["simulate", "check", "sweep"])
def test_a_command_imports_no_numpy_module_while_it_runs(command, tmp_path):
    # np.unique and np.union1d reach numpy.ma, whose import costs a fresh
    # process about 20 ms; modules loaded with numpy itself (numpy.ma on
    # numpy 1.24) are in sys.modules before main already
    scenario = str(SCENARIOS / "consensus_demo.json")
    argv = {
        "simulate": ["simulate", "--scenario", scenario, "--out", "out"],
        "check": ["check", "--scenario", scenario, "--report", "report.json"],
        "sweep": ["sweep", "--scenario", scenario, "--vary", "epsilon=0.2:0.3:2", "--out", "sweep"],
    }[command]
    code = (
        "import sys\n"
        "from lfmix.cli import main\n"
        "before = set(sys.modules)\n"
        f"assert main({argv!r}) == 0\n"
        "print(sorted(m for m in set(sys.modules) - before if m.split('.')[0] == 'numpy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(lfmix.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=tmp_path,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_simulate_reports_how_steps_got_their_pairs(tmp_path):
    path = write_config(tmp_path, demo_config(stop_tol=None, horizon=40))
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 0
    payload = json.loads((out / "run.json").read_text())
    counts = payload["pair_search"]
    assert set(counts) == {"searches", "rebuilds", "reuses", "seconds"}
    assert counts["searches"] + counts["rebuilds"] + counts["reuses"] == payload["steps"] == 40
    assert counts["reuses"] > 0
    assert 0.0 < counts["seconds"] < payload["wall_time_seconds"]
    report = tmp_path / "report.json"
    assert main(["check", "--scenario", str(path), "--report", str(report)]) == 0
    assert "pair_search" not in report.read_text()


@pytest.mark.parametrize("count", [3_000_000, 2_000_000_000, 3_000_000_000, 10**12])
def test_member_count_checked_against_explicit_matrix_before_allocating(count, tmp_path):
    # past the int32 id bound a count is rejected by itself, even with random opinions
    past_bound = count > 2**31 - 1
    random = {"distribution": "uniform_box", "low": 0.0, "high": 1.0, "seed": 3}
    opinions = {"random_init": random} if past_bound else {"initial": [[0.1]]}
    cfg = config(leader_groups=[("brand", count, [0.0], constant(0.5))], **opinions)
    path = write_config(tmp_path, cfg)
    code = (
        "import tracemalloc\n"
        "from lfmix.cli import main\n"
        "tracemalloc.start()\n"
        f"code = main(['simulate', '--scenario', {str(path)!r}, '--out', 'out'])\n"
        "print(code, tracemalloc.get_traced_memory()[1])\n"
    )
    done = run_in_child(code, tmp_path)
    assert done.returncode == 0, done.stderr
    code, peak = map(int, done.stdout.split())
    assert code == 2
    assert peak < 1 << 20  # bytes; no id of the count is allocated
    if past_bound:
        assert f"BadConfig: groups: {count} agents, more than the 2147483647 that int32" in done.stderr
    else:
        assert f"DimensionMismatch: initial_opinions.explicit: 1 rows, the groups have {count} agents" in done.stderr
    assert "MemoryError" not in done.stderr


@pytest.mark.parametrize("name", ["ball_consensus.json", "hk_crowd.json"])
def test_dimension_past_the_coordinate_bound_exits_2(name, tmp_path):
    # random opinions of N x d coordinates share the agents' int32 bound
    cfg = json.loads((SCENARIOS / name).read_text())
    cfg["dimension"] = 10**12
    path = write_config(tmp_path, cfg)
    code = f"from lfmix.cli import main\nprint(main(['simulate', '--scenario', {str(path)!r}, '--out', 'out']))\n"
    done = run_in_child(code, tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["2"]
    assert " agents x 1000000000000 dimensions, more than 2147483647 coordinates" in done.stderr
    assert not (tmp_path / "out").exists()


def test_sweep_n_past_the_agent_bound_exits_2(tmp_path):
    path = SCENARIOS / "ball_consensus.json"
    code = ("from lfmix.cli import main\n"
            f"print(main(['sweep', '--scenario', {str(path)!r}, '--vary', 'n=1e12:1e12:1', '--out', 'sweep']))\n")
    done = run_in_child(code, tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["2"]
    assert "sweep point 0 is invalid: BadConfig: groups: 1000000000000 agents, more than the 2147483647" in done.stderr


def test_sweep_n_scaled_below_zero_exits_2(tmp_path, capsys):
    path = SCENARIOS / "ball_consensus.json"
    for spec, count in (("n=-5:-5:1", -5), ("n=0.4:0.4:1", 0)):
        assert main(["sweep", "--scenario", str(path), "--vary", spec, "--out", str(tmp_path / "s")]) == 2
        assert f"sweep point 0 is invalid: cannot scale agent count to {count}\n" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_sweep_of_a_hundred_million_points_lists_no_grid(tmp_path):
    # each point's values come from its index, so point 0 is checked at once
    path = SCENARIOS / "ball_consensus.json"
    code = ("from lfmix.cli import main\n"
            f"print(main(['sweep', '--scenario', {str(path)!r}, '--vary', 'epsilon=-1:-1:100000000',"
            " '--out', 'sweep']))\n")
    done = run_in_child(code, tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["2"]
    assert "sweep point 0 is invalid" in done.stderr
    assert "MemoryError" not in done.stderr


@pytest.mark.parametrize("key", ["1_0", " 10 ", "+10", "010"])
def test_per_agent_key_other_than_plain_decimal_id_exits_2(key, tmp_path, capsys):
    cfg = config(
        followers=11,
        leader_groups=[("brand", 1, [0.0], constant(0.5))],
        random_init={"distribution": "uniform_box", "low": 0.0, "high": 1.0, "seed": 3},
        follower_betas=[constant(0.2)],
    )
    cfg["schedules"]["crowd"]["per_agent"] = {key: {"betas": [constant(0.7)]}}
    path = write_config(tmp_path, cfg)
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 2
    assert f"BadConfig: schedules.crowd.per_agent: bad agent id {key!r}" in capsys.readouterr().err
    cfg["schedules"]["crowd"]["per_agent"] = {"10": {"betas": [constant(0.7)]}}
    assert build_scenario(cfg).canonical["schedules"]["crowd"]["per_agent"] == {"10": {"betas": [constant(0.7)]}}


def test_simulate_schedule_violation_exits_3(tmp_path, monkeypatch, capsys):
    path = write_config(tmp_path, demo_config())

    def explode(*args, **kwargs):
        raise ScheduleViolation("synthetic violation")

    monkeypatch.setattr("lfmix.cli.run", explode)
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 3
    assert "synthetic violation" in capsys.readouterr().err


def overflowing_config():
    """The followers' first mean overflows to inf."""
    return config(
        followers=2,
        leader_groups=[("brand", 1, [0.0], constant(0.5))],
        initial=[[1.7e308], [1.7e308], [0.0]],
        follower_betas=[constant(0.5)],
        horizon=5,
    )


@pytest.mark.parametrize("command", ["simulate", "check", "sweep"])
def test_non_finite_state_exits_5(tmp_path, capsys, command):
    path = write_config(tmp_path, overflowing_config())
    out = tmp_path / "out"
    argv = {
        "simulate": ["simulate", "--scenario", str(path), "--out", str(out)],
        "check": ["check", "--scenario", str(path), "--report", str(out / "report.json")],
        "sweep": ["sweep", "--scenario", str(path), "--vary", "epsilon=1:2:2", "--out", str(out)],
    }[command]
    with np.errstate(over="ignore"):
        assert main(argv) == 5
    lines = [line for line in capsys.readouterr().err.splitlines() if line.startswith("lfmix:")]
    assert len(lines) == 1 and lines[0].startswith("lfmix: non-finite state: ")
    assert lines[0].endswith("opinion of agent 0 is [inf] at t=1")
    assert ("sweep point 0: " in lines[0]) == (command == "sweep")
    assert not (out / "trajectory.csv").exists() and not (out / "report.json").exists()


def overflowing_distances_config(high):
    """Opinions up to ``high`` in 2-D: finite, but at 1e155 and above their
    squared distances to the target overflow to inf."""
    return config(
        dimension=2,
        epsilon=0.3,
        followers=5,
        leader_groups=[("brand", 2, [0.0, 0.0], constant(0.5))],
        random_init={"distribution": "uniform_box", "low": 0.0, "high": high, "seed": 1},
        follower_betas=[constant(0.5)],
        horizon=20,
    )


@pytest.mark.parametrize("high", [1e155, 1e300])
def test_checks_bounding_distances_that_overflow_are_skipped(tmp_path, capsys, high):
    path = write_config(tmp_path, overflowing_distances_config(high))
    report = tmp_path / "report.json"
    with np.errstate(over="ignore"):
        assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 0
        assert main(["check", "--scenario", str(path), "--report", str(report)]) == 0
    checks = json.loads(report.read_text())["checks"]
    assert {token: c["status"] for token, c in checks.items()} == dict.fromkeys(cli.CHECKS, "skipped")
    distance = f"{INAPPLICABLE}: initial max target distance inf of group brand is not finite"
    assert checks["lemma1"]["reason"] == checks["thm2"]["reason"] == distance
    assert checks["lemma3"]["reason"] == f"{INAPPLICABLE}: ball radius inf is not finite"
    assert "inf" in (tmp_path / "out" / "metrics.csv").read_text()


def test_simulate_threads_byte_identical(tmp_path):
    cfg = config(
        dimension=2,
        epsilon=0.2,
        followers=120,
        leader_groups=[("brand", 20, [0.5, 0.5], constant(0.8))],
        random_init={"distribution": "uniform_box", "low": 0.0, "high": 1.0, "seed": 5},
        follower_betas=[constant(0.2)],
        horizon=25,
        stop_tol=None,
    )
    path = write_config(tmp_path, cfg)
    blobs = []
    for threads in ("1", "2", "8"):
        out = tmp_path / f"t{threads}"
        assert main(["simulate", "--scenario", str(path), "--out", str(out), "--threads", threads]) == 0
        blobs.append((out / "trajectory.csv").read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


def test_simulate_seed_override_changes_random_initials(tmp_path):
    cfg = config(
        followers=6,
        random_init={"distribution": "uniform_box", "low": 0.0, "high": 1.0, "seed": 1},
        epsilon=0.2,
        horizon=0,
    )
    path = write_config(tmp_path, cfg)
    outs = []
    for seed in ("1", "2"):
        out = tmp_path / f"s{seed}"
        assert main(["simulate", "--scenario", str(path), "--out", str(out), "--seed", seed]) == 0
        outs.append((out / "trajectory.csv").read_bytes())
    assert outs[0] != outs[1]
    canon = json.loads((tmp_path / "s2" / "scenario.canonical.json").read_text())
    assert canon["initial_opinions"]["random"]["seed"] == 2
    assert json.loads((tmp_path / "s2" / "run.json").read_text())["seed"] == 2


def test_run_json_records_no_seed_when_it_is_ignored(tmp_path, capsys):
    path = write_config(tmp_path, demo_config())  # explicit initial opinions
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(path), "--out", str(out), "--seed", "7"]) == 0
    assert "--seed ignored" in capsys.readouterr().err
    assert json.loads((out / "run.json").read_text())["seed"] is None


def test_sweep_says_when_it_ignores_the_seed(tmp_path, capsys):
    path = write_config(tmp_path, demo_config(horizon=3))  # explicit initial opinions
    out = tmp_path / "s"
    assert main(["sweep", "--scenario", str(path), "--vary", "epsilon=0.2:0.3:2", "--out", str(out),
                 "--seed", "5"]) == 0
    assert "lfmix: --seed ignored: scenario has explicit initial opinions" in capsys.readouterr().err
    assert main(["sweep", "--scenario", str(path), "--vary", "epsilon=0.2:0.3:2", "--out", str(out)]) == 0
    assert "--seed ignored" not in capsys.readouterr().err


def test_seed_override_of_a_file_whose_own_seed_is_invalid_exits_2(tmp_path, capsys):
    cfg = config(
        followers=6,
        random_init={"distribution": "uniform_box", "low": 0.0, "high": 1.0, "seed": 1.5},
        epsilon=0.2,
        horizon=0,
    )
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(path), "--out", str(out), "--seed", "7"]) == 2
    assert "needs an integer 'seed'" in capsys.readouterr().err
    assert not out.exists()


def test_seed_override_leaves_the_loaded_canonical_unmutated(tmp_path, monkeypatch):
    loaded = []

    def load_and_keep(path):
        scenario = load_scenario(path)
        loaded.append((scenario, copy.deepcopy(scenario.canonical)))
        return scenario

    monkeypatch.setattr(cli, "load_scenario", load_and_keep)
    cfg = config(
        dimension=2,
        followers=8,
        leader_groups=[("brand", 3, [0.5, 0.5], constant(0.5))],
        random_init={"distribution": "uniform_box", "low": 0.0, "high": 1.0, "seed": 1},
        follower_betas=[constant(0.5)],
        epsilon=0.2,
        horizon=0,
    )
    seeded = cli._load(str(write_config(tmp_path, cfg)), 9)
    [(first, before)] = loaded
    assert first.canonical == before and before["initial_opinions"]["random"]["seed"] == 1
    before["initial_opinions"]["random"]["seed"] = 9
    assert seeded.canonical == before
    assert not np.array_equal(seeded.initial_state.opinions, first.initial_state.opinions)


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_demo_passes_all(tmp_path):
    path = write_config(tmp_path, demo_config())
    report_path = tmp_path / "report.json"
    code = main(["check", "--scenario", str(path), "--report", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["all_passed"] is True
    assert set(report["checks"]) == {"lemma1", "thm2", "lemma3", "thm4", "cor1", "cor2"}
    thm4 = report["checks"]["thm4"]
    assert thm4["status"] == "pass"
    assert thm4["params"]["gamma"] == 0.5


def test_check_skips_when_hypothesis_unmet(tmp_path):
    cfg = demo_config()
    cfg["schedules"]["crowd"]["betas"] = [constant(0.0)]
    path = write_config(tmp_path, cfg)
    report_path = tmp_path / "report.json"
    assert main(["check", "--scenario", str(path), "--checks", "thm4", "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    entry = report["checks"]["thm4"]
    assert entry["status"] == "skipped"
    assert "InapplicableHypothesis" in entry["reason"]


def test_check_fault_injection_exits_4(tmp_path):
    path = write_config(tmp_path, demo_config())
    report_path = tmp_path / "report.json"
    code = main(
        ["check", "--scenario", str(path), "--checks", "lemma1,thm4",
         "--inject-fault", "mean-shift", "--report", str(report_path)]
    )
    assert code == 4
    report = json.loads(report_path.read_text())
    assert report["checks"]["lemma1"]["status"] == "fail"
    assert report["checks"]["thm4"]["status"] == "fail"


def test_check_unknown_token_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, demo_config())
    assert main(["check", "--scenario", str(path), "--checks", "lemma9"]) == 2
    assert "unknown checks" in capsys.readouterr().err


def test_check_quotes_each_unknown_token(tmp_path, capsys):
    path = write_config(tmp_path, demo_config())
    assert main(["check", "--scenario", str(path), "--checks", "lemma1,,thm2,lemma9"]) == 2
    assert "unknown checks: '', 'lemma9' (expected lemma1, thm2, lemma3, thm4, cor1, cor2)" in capsys.readouterr().err


def test_check_runs_a_token_given_twice_once(tmp_path, monkeypatch, capsys):
    calls = []
    real = lfmix.analysis.check_contraction
    monkeypatch.setattr(lfmix.analysis, "check_contraction", lambda traj: calls.append(traj) or real(traj))
    path = write_config(tmp_path, demo_config())
    assert main(["check", "--scenario", str(path), "--checks", "lemma1,thm2,lemma1"]) == 0
    out, err = capsys.readouterr()
    assert len(calls) == 1
    assert list(json.loads(out)["checks"]) == ["lemma1", "thm2"]
    assert err == "lemma1: pass\nthm2: pass\n"


def test_check_report_that_cannot_be_written_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, demo_config())
    assert main(["check", "--scenario", str(path), "--checks", "lemma1", "--report", str(tmp_path)]) == 2
    assert capsys.readouterr().err.endswith(f"lfmix: cannot write output: [Errno 21] Is a directory: '{tmp_path}'\n")


def test_check_report_to_stdout(tmp_path, capsys):
    path = write_config(tmp_path, demo_config())
    assert main(["check", "--scenario", str(path), "--checks", "lemma1"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["checks"]["lemma1"]["status"] == "pass"


@pytest.mark.parametrize("cfg", [
    demo_config(stop_tol=None, horizon=40),
    config(
        followers=2,
        leader_groups=[("a", 1, [0.0], constant(0.5)), ("b", 1, [1.0], constant(0.5))],
        initial=[[0.4], [0.6], [0.0], [1.0]],
        follower_betas=[constant(0.2), constant(0.2)],
        horizon=20,
    ),
], ids=["one_group", "two_groups"])
def test_check_measures_the_run_once(tmp_path, monkeypatch, cfg):
    # one Series per `lfmix check`, and the analysis layer's only schedule
    # queries are the ones that measurement makes, from its own degree
    # tables: one of each per step
    built, queries = [], []
    real_series = lfmix.analysis.Series
    monkeypatch.setattr(lfmix.analysis, "Series", lambda *a: built.append(a) or real_series(*a))
    for name in ("realized_alpha", "realized_betas"):
        real = getattr(lfmix.analysis, name)
        monkeypatch.setattr(lfmix.analysis, name,
                            lambda sc, t, table, real=real, name=name: queries.append((name, t)) or real(sc, t, table))
    path = write_config(tmp_path, cfg)
    report_path = tmp_path / "report.json"
    assert main(["check", "--scenario", str(path), "--report", str(report_path)]) == 0
    horizon = json.loads(report_path.read_text())["horizon"]
    assert horizon > 1
    assert len(built) == 1
    assert sorted(queries) == sorted((name, t) for name in ("realized_alpha", "realized_betas")
                                     for t in range(horizon))


# ---------------------------------------------------------------------------
# plot
# ---------------------------------------------------------------------------


def simulate_demo(tmp_path):
    path = write_config(tmp_path, demo_config(stop_tol=None, horizon=40))
    out = tmp_path / "run"
    assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 0
    return out / "metrics.csv"


def polyline_points(svg_text):
    series = []
    for match in re.finditer(r'<polyline points="([^"]+)"', svg_text):
        pts = [tuple(map(float, pair.split(","))) for pair in match.group(1).split()]
        series.append(pts)
    return series


def test_plot_log_scale_geometric_decay_is_straight(tmp_path):
    metrics = simulate_demo(tmp_path)
    out = tmp_path / "chart.svg"
    assert main(["plot", "--metrics", str(metrics), "--out", str(out), "--series", "C", "--log-y"]) == 0
    svg = out.read_text()
    assert svg.startswith("<svg")
    assert "http" not in svg.replace("http://www.w3.org/2000/svg", "")  # no external refs
    series = polyline_points(svg)
    assert len(series) == 1
    ys = [y for _, y in series[0]]
    # log of a geometric curve is affine in t: pixel second differences vanish
    second_diffs = [abs(ys[i + 1] - 2 * ys[i] + ys[i - 1]) for i in range(1, len(ys) - 1)]
    assert max(second_diffs) < 0.1


def test_plot_series_filter(tmp_path):
    metrics = simulate_demo(tmp_path)
    out = tmp_path / "chart.svg"
    assert main(["plot", "--metrics", str(metrics), "--out", str(out), "--series", "C,A"]) == 0
    svg = out.read_text()
    assert "C[brand]" in svg and "A[crowd]" in svg
    assert "diameter" not in svg


def test_plot_empty_metrics_exits_2(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    assert main(["plot", "--metrics", str(empty), "--out", str(tmp_path / "x.svg")]) == 2
    missing = tmp_path / "missing.csv"
    assert main(["plot", "--metrics", str(missing), "--out", str(tmp_path / "x.svg")]) == 2
    truncated = tmp_path / "truncated.csv"
    truncated.write_text("t,group,metric,value\n0,all,diameter\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["plot", "--metrics", str(truncated), "--out", str(tmp_path / "x.svg")]) == 2
    assert "line 2" in capsys.readouterr().err
    overlong = tmp_path / "overlong.csv"
    overlong.write_text("t,group,metric,value\n0,all,diameter,0.5,9\n", encoding="utf-8")
    assert main(["plot", "--metrics", str(overlong), "--out", str(tmp_path / "x.svg")]) == 2
    assert "line 2" in capsys.readouterr().err
    huge_t = tmp_path / "huge_t.csv"  # a t that does not fit a float
    huge_t.write_text(f"t,group,metric,value\n0,all,diameter,0.5\n{10**310},all,diameter,0.5\n", encoding="utf-8")
    assert main(["plot", "--metrics", str(huge_t), "--out", str(tmp_path / "x.svg")]) == 2
    assert capsys.readouterr().err.endswith("line 3: expected t,group,metric,value\n")
    assert not (tmp_path / "x.svg").exists()


def test_plot_out_that_cannot_be_written_exits_2(tmp_path, capsys):
    metrics = simulate_demo(tmp_path)
    assert main(["plot", "--metrics", str(metrics), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"lfmix: cannot write output: [Errno 21] Is a directory: '{tmp_path}'\n"


def test_plot_drops_non_finite_values(tmp_path, capsys):
    metrics = tmp_path / "metrics.csv"
    metrics.write_text("t,group,metric,value\n0,all,diameter,1.0\n1,all,diameter,inf\n"
                       "2,all,diameter,nan\n3,all,diameter,0.5\n4,all,diameter,-inf\n", encoding="utf-8")
    out = tmp_path / "chart.svg"
    assert main(["plot", "--metrics", str(metrics), "--out", str(out)]) == 0
    svg = out.read_text()
    assert "nan" not in svg and "inf" not in svg
    (points,) = polyline_points(svg)
    assert [x for x, _ in points] == [70.0, 870.0]  # t = 0 and t = 3 span the x axis
    nothing = tmp_path / "nothing.csv"
    nothing.write_text("t,group,metric,value\n0,all,diameter,inf\n1,all,diameter,nan\n", encoding="utf-8")
    assert main(["plot", "--metrics", str(nothing), "--out", str(tmp_path / "x.svg")]) == 2
    assert "no drawable points" in capsys.readouterr().err
    assert not (tmp_path / "x.svg").exists()


def test_plot_series_that_matches_nothing_exits_2(tmp_path, capsys):
    metrics = simulate_demo(tmp_path)
    capsys.readouterr()
    assert main(["plot", "--metrics", str(metrics), "--out", str(tmp_path / "x.svg"), "--series", "B"]) == 2
    assert capsys.readouterr().err == "lfmix: no matching metric series\n"
    assert not (tmp_path / "x.svg").exists()


def y_labels(svg_text):
    return re.findall(r'text-anchor="end" font-family="sans-serif" font-size="11">([^<]+)<', svg_text)


@pytest.mark.parametrize("values, points, labels", [
    # a constant series lies on the bottom edge of a range widened by 1
    ((0.5, 0.5), [(70.0, 470.0), (870.0, 470.0)], ["0.5", "0.75", "1", "1.25", "1.5"]),
    # ... or, where adding 1 leaves it as it is, by 2^-50 of its magnitude toward 0
    ((1e20, 1e20), [(70.0, 40.0), (870.0, 40.0)], ["1e+20"] * 5),
    ((-1e20, -1e20), [(70.0, 470.0), (870.0, 470.0)], ["-1e+20"] * 5),
    ((sys.float_info.max,) * 2, [(70.0, 40.0), (870.0, 40.0)], ["1.79769e+308"] * 5),
    # a span that overflows a float
    ((1e308, -1e308), [(70.0, 40.0), (870.0, 470.0)], ["-1e+308", "-5e+307", "0", "5e+307", "1e+308"]),
])
def test_plot_maps_every_finite_range(tmp_path, values, points, labels):
    metrics = tmp_path / "metrics.csv"
    metrics.write_text("t,group,metric,value\n" + "".join(f"{t},all,diameter,{v!r}\n" for t, v in enumerate(values)),
                       encoding="utf-8")
    out = tmp_path / "chart.svg"
    assert main(["plot", "--metrics", str(metrics), "--out", str(out)]) == 0
    svg = out.read_text()
    assert "nan" not in svg and "inf" not in svg
    assert polyline_points(svg) == [points] and y_labels(svg) == labels


def test_plot_draws_a_one_point_series_as_a_dot(tmp_path):
    metrics = tmp_path / "metrics.csv"
    metrics.write_text("t,group,metric,value\n3,all,diameter,0.25\n", encoding="utf-8")
    out = tmp_path / "chart.svg"
    assert main(["plot", "--metrics", str(metrics), "--out", str(out)]) == 0
    svg = out.read_text()
    # one point spans neither axis: both widen by 1 from it
    assert polyline_points(svg) == [] and '<circle cx="70.00" cy="470.00" r="3"' in svg


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_alpha_steps_increase(tmp_path):
    cfg = demo_config(stop_tol=1e-9, horizon=400)
    path = write_config(tmp_path, cfg)
    out = tmp_path / "sweep"
    assert main(
        ["sweep", "--scenario", str(path), "--vary", "alpha=0.1:0.9:3", "--out", str(out)]
    ) == 0
    with open(out / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["alpha"]) for r in rows] == [0.1, 0.5, 0.9]
    assert all(r["converged"] == "True" for r in rows)
    steps = [int(r["steps"]) for r in rows]
    assert steps[0] < steps[1] < steps[2]
    assert (out / "point_0000" / "trajectory.csv").exists()


def test_sweep_single_point_matches_simulate(tmp_path):
    path = write_config(tmp_path, demo_config())
    sim_out = tmp_path / "sim"
    assert main(["simulate", "--scenario", str(path), "--out", str(sim_out)]) == 0
    sweep_out = tmp_path / "sweep"
    assert main(
        ["sweep", "--scenario", str(path), "--vary", "alpha=0.5:0.5:1", "--out", str(sweep_out)]
    ) == 0
    assert (sweep_out / "point_0000" / "trajectory.csv").read_bytes() == (
        sim_out / "trajectory.csv"
    ).read_bytes()


def test_sweep_epsilon_isolation_freezes_followers(tmp_path):
    cfg = config(
        followers=2,
        leader_groups=[("brand", 1, [5.0], constant(0.5))],
        initial=[[0.0], [0.4], [5.0]],
        follower_betas=[constant(0.4)],
        horizon=10,
        stop_tol=None,
    )
    path = write_config(tmp_path, cfg)
    out = tmp_path / "sweep"
    assert main(
        ["sweep", "--scenario", str(path), "--vary", "epsilon=0.3:0.3:1", "--out", str(out)]
    ) == 0
    with open(out / "point_0000" / "trajectory.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for agent in ("0", "1"):
        values = {r["x0"] for r in rows if r["agent"] == agent}
        assert len(values) == 1  # isolated followers never move


def test_sweep_cartesian_product_and_n_scaling(tmp_path):
    cfg = config(
        dimension=1,
        epsilon=0.5,
        followers=8,
        leader_groups=[("brand", 2, [0.5], constant(0.5))],
        random_init={"distribution": "uniform_box", "low": 0.0, "high": 1.0, "seed": 3},
        follower_betas=[constant(0.3)],
        horizon=5,
        stop_tol=None,
    )
    path = write_config(tmp_path, cfg)
    out = tmp_path / "sweep"
    assert main(
        ["sweep", "--scenario", str(path), "--vary", "n=5:20:2",
         "--vary", "beta=0.1:0.3:2", "--out", str(out)]
    ) == 0
    with open(out / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert [r["n"] for r in rows] == ["5", "5", "20", "20"]
    run0 = json.loads((out / "point_0000" / "run.json").read_text())
    run2 = json.loads((out / "point_0002" / "run.json").read_text())
    assert run0["n_agents"] == 5 and run2["n_agents"] == 20
    assert all(run["wall_time_seconds"] > 0.0 for run in (run0, run2))


def test_sweep_writes_integer_point_seeds(tmp_path):
    cfg = config(
        followers=4,
        random_init={"distribution": "uniform_box", "low": 0.0, "high": 1.0, "seed": 3},
        epsilon=0.3,
        horizon=2,
    )
    path = write_config(tmp_path, cfg)
    out = tmp_path / "sweep"
    assert main(["sweep", "--scenario", str(path), "--vary", "epsilon=0.2:0.4:3", "--out", str(out),
                 "--seed", str(-(2**63))]) == 0
    for index in range(3):
        canon = json.loads((out / f"point_{index:04d}" / "scenario.canonical.json").read_text())
        seed = canon["initial_opinions"]["random"]["seed"]
        assert type(seed) is int and seed == int(derive_key(-(2**63), index)) % (1 << 62)


def test_sweep_derives_point_seeds_from_the_file_seed_without_a_seed_flag(tmp_path):
    cfg = config(
        followers=4,
        random_init={"distribution": "uniform_box", "low": 0.0, "high": 1.0, "seed": 3},
        epsilon=0.3,
        horizon=2,
    )
    out = tmp_path / "sweep"
    assert main(["sweep", "--scenario", str(write_config(tmp_path, cfg)), "--vary", "epsilon=0.2:0.4:2",
                 "--out", str(out)]) == 0
    for index in range(2):
        canon = json.loads((out / f"point_{index:04d}" / "scenario.canonical.json").read_text())
        assert canon["initial_opinions"]["random"]["seed"] == int(derive_key(3, index)) % (1 << 62)


def test_sweep_of_an_invalid_base_scenario_exits_2_and_writes_nothing(tmp_path, capsys):
    cfg = demo_config()
    cfg["epsilon"] = 0
    path = write_config(tmp_path, cfg)
    assert main(["sweep", "--scenario", str(path), "--vary", "epsilon=0.2:0.4:2", "--out", str(tmp_path / "s")]) == 2
    assert "EpsilonNonpositive" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_sweep_n_with_per_agent_overrides_exits_2(tmp_path, capsys):
    cfg = config(
        followers=3,
        leader_groups=[("brand", 1, [0.0], constant(0.5))],
        follower_betas=[constant(0.2)],
        per_agent_betas={1: [constant(0.7)]},
    )
    path = write_config(tmp_path, cfg)
    assert main(["sweep", "--scenario", str(path), "--vary", "n=4:8:2", "--out", str(tmp_path / "s")]) == 2
    assert capsys.readouterr().err == "lfmix: varying n is not supported with per-agent schedule overrides\n"
    assert not (tmp_path / "s").exists()


def test_scaled_counts_hand_out_the_rest_by_largest_remainder():
    # 7 * [3, 1, 1] / 5 = [4.2, 1.4, 1.4]: the floors [4, 1, 1] leave one
    # agent, which goes to the first of the groups with the largest remainder
    assert cli._scaled_counts([3, 1, 1], ["follower", "leader", "leader"], 7) == [4, 2, 1]


def test_sweep_n_with_explicit_initials_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, demo_config())
    assert main(
        ["sweep", "--scenario", str(path), "--vary", "n=2:4:2", "--out", str(tmp_path / "s")]
    ) == 2
    assert "random initial opinions" in capsys.readouterr().err


def test_sweep_bad_spec_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, demo_config())
    for bad in ("alpha=0:1", "gamma=0:1:2", "alpha=a:b:2", "alpha=0:1:0"):
        assert main(
            ["sweep", "--scenario", str(path), "--vary", bad, "--out", str(tmp_path / "s")]
        ) == 2


def test_sweep_rejects_python_numeric_literals(tmp_path, capsys):
    # int and float take underscores: 3_0 would run 30 points, 0_2:0_3 sweep 2.0 and 3.0
    path = write_config(tmp_path, demo_config(horizon=3))
    for bad in ("epsilon=0.2:0.3:3_0", "epsilon=0_2:0_3:2", "epsilon=0.2:0.3: 2", "epsilon=0.2:0.3:+2"):
        capsys.readouterr()
        assert main(["sweep", "--scenario", str(path), "--vary", bad, "--out", str(tmp_path / "s")]) == 2
        assert f"bad --vary spec {bad!r}; expected param=lo:hi:steps" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_sweep_parameter_varied_twice_exits_2(tmp_path, capsys):
    # only the last value would reach the scenario, while summary.csv showed the first
    path = write_config(tmp_path, demo_config())
    assert main(["sweep", "--scenario", str(path), "--vary", "epsilon=0.2:0.3:2",
                 "--vary", "epsilon=0.5:0.6:2", "--out", str(tmp_path / "s")]) == 2
    assert "--vary epsilon given more than once" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_sweep_whose_first_point_is_invalid_leaves_no_directory(tmp_path, capsys):
    path = write_config(tmp_path, demo_config())
    assert main(["sweep", "--scenario", str(path), "--vary", "epsilon=-1:-1:3", "--out", str(tmp_path / "s")]) == 2
    assert "sweep point 0 is invalid" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_sweep_that_fails_midway_keeps_the_points_it_finished(tmp_path, capsys):
    path = write_config(tmp_path, demo_config())
    out = tmp_path / "s"
    # points at epsilon 0.5, -0.25 and -1: the second is invalid
    assert main(["sweep", "--scenario", str(path), "--vary", "epsilon=0.5:-1:3", "--out", str(out)]) == 2
    assert "sweep point 1 is invalid" in capsys.readouterr().err
    with open(out / "summary.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["point", "epsilon", "stop_reason", "converged", "steps", "final_max_distance"]
    assert [row[:2] for row in rows[1:]] == [["0", "0.5"]]
    assert sorted(p.name for p in out.iterdir()) == ["point_0000", "summary.csv"]


def test_sweep_out_that_cannot_be_written_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, demo_config())
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    assert main(["sweep", "--scenario", str(path), "--vary", "epsilon=0.2:0.3:2", "--out", str(taken)]) == 2
    assert capsys.readouterr().err == f"lfmix: cannot write output: [Errno 17] File exists: '{taken}'\n"
    assert taken.read_text(encoding="utf-8") == ""


def test_sweep_non_finite_bounds_exit_2(tmp_path, capsys):
    path = write_config(tmp_path, demo_config())
    for bad in ("n=inf:inf:1", "n=nan:nan:1", "n=2:-inf:3", "epsilon=0.1:inf:3", "alpha=nan:1:2"):
        capsys.readouterr()
        assert main(
            ["sweep", "--scenario", str(path), "--vary", bad, "--out", str(tmp_path / "s")]
        ) == 2
        assert f"bad --vary spec {bad!r}; lo and hi must be finite" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_epsilon_whose_square_overflows_exits_2(tmp_path, capsys):
    # epsilon**2 = inf made every pair a neighbor of the scan, but not of the grid
    cfg = config(
        epsilon=1e199,
        followers=100,
        leader_groups=[("brand", 20, [0.0], constant(0.5))],
        random_init={"distribution": "uniform_box", "low": -1e200, "high": 1e200, "seed": 1},
        follower_betas=[constant(0.3)],
        horizon=2,
    )
    path = write_config(tmp_path, cfg)
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "NonFinite: epsilon 1e+199 is too large: epsilon**2 overflows to inf" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    path = write_config(tmp_path, demo_config())
    assert main(["sweep", "--scenario", str(path), "--vary", "epsilon=1e199:1e200:2",
                 "--out", str(tmp_path / "s")]) == 2
    assert "sweep point 0 is invalid" in capsys.readouterr().err


def test_integer_beyond_float_range_exits_2_without_traceback(tmp_path):
    cfg = demo_config()
    cfg["schedules"]["brand"]["alpha"] = constant(10**400)
    path = write_config(tmp_path, cfg)
    env = dict(os.environ, PYTHONPATH=str(Path(lfmix.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "lfmix.cli", "simulate", "--scenario", str(path), "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    assert "BadConfig: schedules.brand.alpha: constant needs finite numbers 'value'" in done.stderr


def test_sweep_invalid_point_exits_2(tmp_path, capsys):
    # two leader groups: broadcasting beta = 0.6 to both would sum to 1.2
    cfg = config(
        followers=1,
        leader_groups=[
            ("a", 1, [0.0], constant(0.5)),
            ("b", 1, [1.0], constant(0.5)),
        ],
        initial=[[0.5], [0.0], [1.0]],
        follower_betas=[constant(0.2), constant(0.2)],
        horizon=5,
    )
    path = write_config(tmp_path, cfg)
    assert main(
        ["sweep", "--scenario", str(path), "--vary", "beta=0.6:0.6:1", "--out", str(tmp_path / "s")]
    ) == 2


@pytest.mark.parametrize("command, flag, value", [
    ("simulate", "--record-every", "0"),
    ("simulate", "--horizon", "-1"),
    ("check", "--horizon", "-1"),
    ("sweep", "--horizon", "-1"),
    ("sweep", "--record-every", "0"),
    ("simulate", "--record-every", "two"),
])
def test_bad_count_flag_exits_2_before_running(tmp_path, monkeypatch, capsys, command, flag, value):
    path = write_config(tmp_path, demo_config())
    monkeypatch.setattr("lfmix.cli.run", lambda *a, **k: pytest.fail("ran with a bad flag"))
    argv = {"simulate": ["--out", str(tmp_path / "o")],
            "check": [],
            "sweep": ["--vary", "alpha=0.2:0.4:2", "--out", str(tmp_path / "s")]}[command]
    with pytest.raises(SystemExit) as exc:
        main([command, "--scenario", str(path), *argv, flag, value])
    assert exc.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
    assert errors == [f"lfmix {command}: error: argument {flag}: expected an integer >= "
                      f"{1 if flag == '--record-every' else 0}, got {value!r}"]


def test_help_lists_every_flag(capsys):
    for argv in (["simulate", "--help"], ["check", "--help"], ["plot", "--help"], ["sweep", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
    out = capsys.readouterr().out
    for flag in ("--scenario", "--out", "--horizon", "--record-every", "--threads", "--seed",
                 "--checks", "--report", "--inject-fault", "--metrics", "--series", "--log-y", "--vary"):
        assert flag in out



def test_a_flag_the_run_commands_share_has_one_help_text():
    [commands] = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    helps = {}
    for command in ("simulate", "check", "sweep"):
        for action in commands.choices[command]._actions:
            helps.setdefault(tuple(action.option_strings), []).append(action.help)
    shared = {flags: texts for flags, texts in helps.items() if len(texts) > 1}
    assert {flags[-1] for flags in shared} >= {"--scenario", "--horizon", "--threads", "--out", "--record-every"}
    for flags, texts in shared.items():
        assert texts[0] is not None and texts.count(texts[0]) == len(texts), flags
