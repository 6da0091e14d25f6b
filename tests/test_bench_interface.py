"""The names the benchmark's tracer patches, checked by the package's own tests.

``bench/tracer.py`` wraps package functions by qualified name and reports a
name the package no longer has as absent. Its self-tests run apart from
these, so this keeps a refactor that drops or renames a traced function
from passing unnoticed, or that calls one by a name the tracer does not
patch, such as a reference bound at import.
"""

import importlib
import importlib.util
from pathlib import Path

import lfmix.cli

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_name_the_benchmark_tracer_patches_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = (tracer.ROOT_SPAN, *tracer.SPANS, *tracer.DRAWS)
    assert {name.split(".")[0] for name in names} == {"lfmix"}
    missing = []
    for name in names:
        module, attr = name.rsplit(".", 1)
        if not callable(getattr(importlib.import_module(module), attr, None)):
            missing.append(name)
    assert missing == []


def test_the_benchmark_tracer_sees_every_layer_of_check_and_simulate(tmp_path):
    # run as a benchmark child runs, then unpatched: a span left uncalled means
    # the package reached that layer by a name the tracer does not wrap
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    patched = [name.rsplit(".", 1) for name in (*tracer.SPANS, *tracer.DRAWS)]
    saved = [(module, attr, getattr(importlib.import_module(module), attr)) for module, attr in patched]
    spans = tracer.Tracer()
    scenario = str(TRACER.parents[1] / "scenarios" / "ball_consensus.json")
    try:
        spans.install()
        assert spans.call(lfmix.cli.main, ["check", "--scenario", scenario, "--report",
                                           str(tmp_path / "report.json")]) == 0
        assert spans.call(lfmix.cli.main, ["simulate", "--scenario", scenario, "--out", str(tmp_path / "run")]) == 0
    finally:
        for module, attr, fn in saved:
            setattr(importlib.import_module(module), attr, fn)
    called = {spans.names[i] for i in set(spans.name_of)}
    assert set(tracer.CHECKS.values()) <= called
    assert {"lfmix.cli.run", tracer.STEP, tracer.QUERY, tracer.METRICS, tracer.DIAMETER,
            tracer.TRAJECTORY_CSV, tracer.METRICS_CSV} <= called
    # the engine's degree queries and the checks' own, each by the name the tracer wraps
    assert {"lfmix.dynamics.realized_alpha", "lfmix.analysis.realized_alpha"} <= called
