"""Byte identity of ``lfmix simulate`` outputs for every file in ``scenarios/``.

``golden_scenarios.json`` holds SHA-256 digests of ``trajectory.csv`` and
``metrics.csv``, recorded with the per-agent engine this package started
from; ``perf_10k.json`` runs with the horizon given there. A change to the
engine, the neighbor search or the CSV writers that moves a single byte
fails here. The d = 1 scenarios are the ones a different summation order
breaks.

``golden_checks.json`` pins ``lfmix check`` on the same files, with and
without ``--inject-fault mean-shift``: the exit code and the SHA-256 of the
report JSON minus its ``scenario`` key (the path given on the command line),
recorded while the checks still built full neighbor sets for every state.
The restricted scans of the checks must give the same reports byte for byte.
``HORIZON_ZERO`` pins ``lfmix check --horizon 0`` the same way, recorded
while every check still queried the schedules itself: a run without steps
still assigns cor2's followers from the betas of step 0.

``HIGH_DIM`` pins ``lfmix simulate`` on a generated 8-D scenario with three
leader groups and seeded-random degrees, which no file in ``scenarios/``
covers: d = 8 takes the exact scan, not the grid, both for fresh searches
and for the pair list's rebuild. It was recorded before the scan screened
its pairs with a matrix product, and a second run with two BLAS threads
must write the same trajectory bytes as one with one thread.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import config
from lfmix.cli import main

TESTS = Path(__file__).resolve().parent
SCENARIOS = TESTS.parent / "scenarios"
GOLDEN = json.loads((TESTS / "golden_scenarios.json").read_text(encoding="utf-8"))
GOLDEN_CHECKS = json.loads((TESTS / "golden_checks.json").read_text(encoding="utf-8"))
HORIZON_ZERO = {
    "ball_consensus.json": (4, "acf9fd1b310c5ed33809450b655acea51efb08f0644988a53dfb74089e7a7c86"),
    "consensus_demo.json": (4, "6b992fc77f668a1e81b7f0857d48ccc48dca3f7bd4779d5616608c2013bde840"),
    "hk_crowd.json": (0, "afe851e7d0223715749e0c69ec4f5bf17bac36f599daa3bf5443836725fdbb50"),
    "mixture_demo.json": (0, "ab0e791d0be5d4d8518bdff989129a8b0cec89c5ee27c295a561f5e481d7d69d"),
    "perf_10k.json": (0, "47b0ee59774036d4e5e129e4cd22e76140a5a41ab08d6b37b91840cf61bf504d"),
    "subsystems_demo.json": (4, "a5a4a2e63b0e114a100573dcd477a69a04e981cc6c0329ed98598db55abd4ca1"),
}

HIGH_DIM = {
    "trajectory.csv": "2a623474ff433b40782bc9a18a44f10a4da576629bf615a1aabae4f33f65d62e",
    "metrics.csv": "bc4e425480ab9493b4159ea0842d6fc27e46cb32805cc616ebe68ca7f409859d",
}


def high_dim_config() -> dict:
    """300 agents in the 8-D unit cube, three leader groups of 20, seeded-random
    degrees; epsilon 0.7 and 40 steps give fresh searches, a pair-list
    rebuild and reuses."""
    def seeded(seed, low, high):
        return {"kind": "seeded_random", "seed": seed, "low": low, "high": high}

    return config(
        dimension=8,
        epsilon=0.7,
        followers=240,
        leader_groups=[(f"brand{k + 1}", 20, [0.2 + 0.3 * k] * 8, seeded(31 + k, 0.3, 0.9)) for k in range(3)],
        random_init={"distribution": "uniform_box", "low": 0.0, "high": 1.0, "seed": 8003},
        follower_betas=[seeded(41 + k, 0.0, 0.3) for k in range(3)],
        horizon=40,
    )


def write_high_dim(tmp_path) -> Path:
    path = tmp_path / "high_dim.json"
    path.write_text(json.dumps(high_dim_config()), encoding="utf-8")
    return path


def check_digest(argv, tmp_path) -> tuple[int, str]:
    """Exit code of ``lfmix check`` and the SHA-256 of its report minus the
    ``scenario`` key."""
    report = tmp_path / "report.json"
    code = main(["check", *argv, "--report", str(report)])
    payload = json.loads(report.read_text(encoding="utf-8"))
    del payload["scenario"]
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return code, hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_golden_covers_every_scenario():
    names = sorted(p.name for p in SCENARIOS.glob("*.json"))
    assert sorted(GOLDEN["digests"]) == names
    assert sorted(GOLDEN_CHECKS["reports"]) == names
    assert sorted(HORIZON_ZERO) == names


@pytest.mark.parametrize("name", sorted(GOLDEN["digests"]))
def test_simulate_outputs_match_golden_digests(name, tmp_path):
    argv = ["simulate", "--scenario", str(SCENARIOS / name), "--out", str(tmp_path)]
    if name in GOLDEN["horizon"]:
        argv += ["--horizon", str(GOLDEN["horizon"][name])]
    assert main(argv) == 0
    digests = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in GOLDEN["digests"][name]}
    assert digests == GOLDEN["digests"][name]


@pytest.mark.parametrize("fault", ["none", "mean-shift"])
@pytest.mark.parametrize("name", sorted(GOLDEN_CHECKS["reports"]))
def test_check_reports_match_golden_digests(name, fault, tmp_path):
    argv = ["--scenario", str(SCENARIOS / name)]
    if name in GOLDEN_CHECKS["horizon"]:
        argv += ["--horizon", str(GOLDEN_CHECKS["horizon"][name])]
    if fault != "none":
        argv += ["--inject-fault", fault]
    code, digest = check_digest(argv, tmp_path)
    assert {"exit": code, "report_sha256": digest} == GOLDEN_CHECKS["reports"][name][fault]


@pytest.mark.parametrize("name", sorted(HORIZON_ZERO))
def test_check_reports_at_horizon_zero_match_recorded_digests(name, tmp_path):
    assert check_digest(["--scenario", str(SCENARIOS / name), "--horizon", "0"], tmp_path) == HORIZON_ZERO[name]


def test_high_dim_outputs_match_recorded_digests(tmp_path):
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(write_high_dim(tmp_path)), "--out", str(out)]) == 0
    assert {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in HIGH_DIM} == HIGH_DIM
    pair_search = json.loads((out / "run.json").read_text(encoding="utf-8"))["pair_search"]
    assert pair_search["searches"] > 0 and pair_search["rebuilds"] > 0 and pair_search["reuses"] > 0


def test_high_dim_trajectory_is_the_same_with_one_or_two_blas_threads(tmp_path):
    # the scan's screen is a BLAS product, whose summation order may follow
    # the thread count; every verdict, and so every byte, must not
    path = write_high_dim(tmp_path)
    written = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=str(TESTS.parent / "src"))
        out = tmp_path / f"threads{threads}"
        done = subprocess.run([sys.executable, "-m", "lfmix.cli", "simulate", "--scenario", str(path),
                               "--out", str(out)], capture_output=True, text=True, env=env, timeout=300)
        assert done.returncode == 0, done.stderr
        written.append((out / "trajectory.csv").read_bytes())
    assert written[0] == written[1]
    assert hashlib.sha256(written[0]).hexdigest() == HIGH_DIM["trajectory.csv"]
