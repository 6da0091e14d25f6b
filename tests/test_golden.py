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
"""

import hashlib
import json
from pathlib import Path

import pytest

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
