"""The benchmark's three workloads: generated inputs, command lines and
output verification.

Every workload runs one ``lfmix`` command through ``lfmix.cli.main`` with
``--threads 1``. Inputs are a pure function of the workload seed: crowd_10k
passes it to ``--seed``; check_ball and sweep_hd derive their initial and
schedule seeds from it and write their scenario JSON into the run's own
temporary directory, never into ``scenarios/``.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CHECK_TOKENS = ("lemma1", "thm2", "lemma3", "thm4", "cor1", "cor2")
OUTPUT_FILES = ("trajectory.csv", "metrics.csv", "scenario.canonical.json")

CROWD_SCENARIO = ROOT / "scenarios" / "perf_10k.json"
CROWD_STEPS = 10

BALL_FOLLOWERS = 380
BALL_LEADERS = 20
BALL_HORIZON = 40

HD_DIMENSION = 8
HD_FOLLOWERS = 650
HD_LEADERS = 50
HD_GROUPS = 3
HD_HORIZON = 10
HD_VARY = "epsilon=0.8:1.1:3"
HD_POINTS = 3


def derive_seed(seed: int, salt: str) -> int:
    """A 56-bit seed keyed by (workload seed, salt); stable across Python builds."""
    digest = hashlib.sha256(f"{int(seed)}:{salt}".encode()).digest()
    return int.from_bytes(digest[:7], "big")


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check_ball_scenario(seed: int, followers: int = BALL_FOLLOWERS, leaders: int = BALL_LEADERS) -> dict:
    """One leader group at (0.5, 0.5); every opinion starts inside the
    epsilon ball around it, so the hypotheses of all six checks hold.

    The horizon is fixed and shorter than the first exact fixed point, so the
    work per run does not depend on the seed, yet long enough for every agent
    to end within the checks' 1e-6 consensus tolerance.
    """
    return {
        "dimension": 2,
        "epsilon": 0.2,
        "groups": [
            {"name": "crowd", "kind": "follower", "members": followers},
            {"name": "brand", "kind": "leader", "members": leaders, "target": [0.5, 0.5]},
        ],
        "initial_opinions": {
            "random": {"distribution": "uniform_box", "low": 0.4, "high": 0.6,
                       "seed": derive_seed(seed, "check_ball/initial")},
        },
        "schedules": {
            "crowd": {"betas": [{"kind": "constant", "value": 0.5}]},
            "brand": {"alpha": {"kind": "seeded_random", "seed": derive_seed(seed, "check_ball/alpha"),
                                "low": 0.3, "high": 0.7}},
        },
        "engine": {"neighbor_strategy": "auto", "horizon": BALL_HORIZON, "stop": {"tol": None, "window": 1}},
    }


def sweep_hd_scenario(seed: int) -> dict:
    """Three leader groups in the 8-D unit cube with seeded-random degrees.

    d = 8 is above the default ``grid_dim_cap``, so the engine takes the
    naive neighbor path and the diameter takes the full pairwise scan.
    """
    groups = [{"name": "crowd", "kind": "follower", "members": HD_FOLLOWERS}]
    betas = []
    schedules = {}
    for k in range(HD_GROUPS):
        name = f"brand{k + 1}"
        groups.append({"name": name, "kind": "leader", "members": HD_LEADERS,
                       "target": [0.2 + 0.3 * k] * HD_DIMENSION})
        schedules[name] = {"alpha": {"kind": "seeded_random", "seed": derive_seed(seed, f"sweep_hd/alpha{k}"),
                                     "low": 0.3, "high": 0.9}}
        betas.append({"kind": "seeded_random", "seed": derive_seed(seed, f"sweep_hd/beta{k}"),
                      "low": 0.0, "high": 0.3})
    schedules["crowd"] = {"betas": betas}
    return {
        "dimension": HD_DIMENSION,
        "epsilon": 1.0,
        "groups": groups,
        "initial_opinions": {
            "random": {"distribution": "uniform_box", "low": 0.0, "high": 1.0,
                       "seed": derive_seed(seed, "sweep_hd/initial")},
        },
        "schedules": schedules,
        "engine": {"neighbor_strategy": "auto", "horizon": HD_HORIZON, "stop": {"tol": None, "window": 1}},
    }


@dataclass
class Job:
    """One prepared run: the CLI arguments, the scenario file the child loads
    during set-up, and where the command leaves its outputs."""

    workload: str
    argv: list[str]
    scenario: Path
    out: Path


@dataclass
class Outcome:
    """What one run produced: digests to compare, the shape of the primary
    trajectories, and every problem found in the outputs."""

    digests: dict[str, str] = field(default_factory=dict)
    agents: int = 0
    dimension: int = 0
    groups: int = 0
    steps: list[int] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    @property
    def agent_steps(self) -> int:
        return self.agents * sum(self.steps)


def _write_json(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def prepare(workload: str, seed: int, tmp: Path) -> Job:
    """Write the workload's inputs into ``tmp`` and build its command line."""
    out = tmp / "out"
    if workload == "crowd_10k":
        argv = ["simulate", "--scenario", str(CROWD_SCENARIO), "--out", str(out),
                "--horizon", str(CROWD_STEPS), "--seed", str(seed), "--threads", "1"]
        return Job(workload, argv, CROWD_SCENARIO, out)
    if workload == "check_ball":
        scenario = _write_json(tmp / "check_ball.json", check_ball_scenario(seed))
        argv = ["check", "--scenario", str(scenario), "--report", str(out / "report.json"), "--threads", "1"]
        return Job(workload, argv, scenario, out)
    if workload == "sweep_hd":
        scenario = _write_json(tmp / "sweep_hd.json", sweep_hd_scenario(seed))
        argv = ["sweep", "--scenario", str(scenario), "--vary", HD_VARY, "--out", str(out),
                "--seed", str(derive_seed(seed, "sweep_hd/points")), "--threads", "1"]
        return Job(workload, argv, scenario, out)
    raise ValueError(f"unknown workload {workload!r}")


def _check_run_dir(run_dir: Path, outcome: Outcome, prefix: str) -> dict | None:
    """Digest one simulate-style output directory and check its shape."""
    for name in OUTPUT_FILES:
        path = run_dir / name
        if not path.is_file():
            outcome.problems.append(f"{prefix}{name} missing")
            return None
        outcome.digests[prefix + name] = sha256_file(path)
    try:
        info = json.loads((run_dir / "run.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        outcome.problems.append(f"{prefix}run.json unreadable: {exc}")
        return None
    with open(run_dir / "trajectory.csv", "rb") as fh:
        rows = sum(block.count(b"\n") for block in iter(lambda: fh.read(1 << 20), b"")) - 1
    expected = info["n_agents"] * (info["steps"] + 1)
    if rows != expected:
        outcome.problems.append(f"{prefix}trajectory.csv has {rows} rows, expected {expected}")
    return info


def inspect(job: Job) -> Outcome:
    """Digest the outputs of a finished run and check what can be checked
    without a golden reference."""
    outcome = Outcome()
    if job.workload == "crowd_10k":
        info = _check_run_dir(job.out, outcome, "")
        if info is not None:
            outcome.agents, outcome.dimension = info["n_agents"], info["dimension"]
            outcome.groups = 1
            outcome.steps = [info["steps"]]
    elif job.workload == "check_ball":
        try:
            report = json.loads((job.out / "report.json").read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            outcome.problems.append(f"report.json unreadable: {exc}")
            return outcome
        verdicts = {token: report["checks"].get(token, {}).get("status") for token in CHECK_TOKENS}
        for token, status in verdicts.items():
            if status != "pass":
                outcome.problems.append(f"check {token}: {status}, expected pass")
        outcome.digests["verdicts"] = " ".join(f"{t}={s}" for t, s in verdicts.items())
        outcome.digests["stop"] = f"{report['stop_reason']}@{report['horizon']}"
        outcome.agents, outcome.dimension, outcome.groups = BALL_FOLLOWERS + BALL_LEADERS, 2, 1
        outcome.steps = [report["horizon"]]
    elif job.workload == "sweep_hd":
        summary = job.out / "summary.csv"
        if not summary.is_file():
            outcome.problems.append("summary.csv missing")
            return outcome
        outcome.digests["summary.csv"] = sha256_file(summary)
        with open(summary, encoding="utf-8", newline="") as fh:
            points = list(csv.DictReader(fh))
        if len(points) != HD_POINTS:
            outcome.problems.append(f"summary.csv has {len(points)} points, expected {HD_POINTS}")
        for row in points:
            prefix = f"point_{int(row['point']):04d}/"
            info = _check_run_dir(job.out / prefix, outcome, prefix)
            if info is None:
                continue
            if int(row["steps"]) != info["steps"]:
                outcome.problems.append(f"{prefix}steps {info['steps']} disagree with summary.csv")
            outcome.agents, outcome.dimension = info["n_agents"], info["dimension"]
            outcome.steps.append(info["steps"])
        outcome.groups = HD_GROUPS
    return outcome
