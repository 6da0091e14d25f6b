"""Byte identity of ``lfmix simulate`` outputs for every file in ``scenarios/``.

``golden_scenarios.json`` holds SHA-256 digests of ``trajectory.csv`` and
``metrics.csv``, recorded with the per-agent engine this package started
from; ``perf_10k.json`` runs with the horizon given there. A change to the
engine, the neighbor search or the CSV writers that moves a single byte
fails here. The d = 1 scenarios are the ones a different summation order
breaks.
"""

import hashlib
import json
from pathlib import Path

import pytest

from lfmix.cli import main

TESTS = Path(__file__).resolve().parent
SCENARIOS = TESTS.parent / "scenarios"
GOLDEN = json.loads((TESTS / "golden_scenarios.json").read_text(encoding="utf-8"))


def test_golden_covers_every_scenario():
    assert sorted(GOLDEN["digests"]) == sorted(p.name for p in SCENARIOS.glob("*.json"))


@pytest.mark.parametrize("name", sorted(GOLDEN["digests"]))
def test_simulate_outputs_match_golden_digests(name, tmp_path):
    argv = ["simulate", "--scenario", str(SCENARIOS / name), "--out", str(tmp_path)]
    if name in GOLDEN["horizon"]:
        argv += ["--horizon", str(GOLDEN["horizon"][name])]
    assert main(argv) == 0
    digests = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in GOLDEN["digests"][name]}
    assert digests == GOLDEN["digests"][name]
