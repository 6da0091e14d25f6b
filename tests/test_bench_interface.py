"""The names the benchmark's tracer patches, checked by the package's own tests.

``bench/tracer.py`` wraps package functions by qualified name and reports a
name the package no longer has as absent. Its self-tests run apart from
these, so this keeps a refactor that drops or renames a traced function
from passing unnoticed.
"""

import importlib
import importlib.util
from pathlib import Path

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
