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


def test_golden_covers_every_scenario():
    names = sorted(p.name for p in SCENARIOS.glob("*.json"))
    assert sorted(GOLDEN["digests"]) == names
    assert sorted(GOLDEN_CHECKS["reports"]) == names


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
    report = tmp_path / "report.json"
    argv = ["check", "--scenario", str(SCENARIOS / name), "--report", str(report)]
    if name in GOLDEN_CHECKS["horizon"]:
        argv += ["--horizon", str(GOLDEN_CHECKS["horizon"][name])]
    if fault != "none":
        argv += ["--inject-fault", fault]
    code = main(argv)
    payload = json.loads(report.read_text(encoding="utf-8"))
    del payload["scenario"]
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert {"exit": code, "report_sha256": digest} == GOLDEN_CHECKS["reports"][name][fault]
