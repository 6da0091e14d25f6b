"""In-memory span tracing of one ``lfmix`` command, from outside the package.

Each wrapped function is replaced, under the module attribute its caller
looks it up by, with a wrapper that records a span: name, start, end and the
span that was open when it was called. Spans live in flat arrays and are
turned into per-layer metrics after the command returns. Nothing inside
``src/`` is changed. A name a later version of the package no longer has is
reported as absent, not as zero.

A span's self time is its duration minus the durations of its direct
children, so the self times of all spans add up to the root span.
"""

from __future__ import annotations

import importlib
import itertools
import os
from array import array
from time import perf_counter

import numpy as np

ROOT_SPAN = "lfmix.cli.main"

BUILD = ("lfmix.cli.load_scenario", "lfmix.cli.build_scenario", "lfmix.scenario_io.build_scenario")
RUNS = ("lfmix.cli.run", "lfmix.analysis.run")
STEP = "lfmix.dynamics.step"
QUERY = "lfmix.dynamics.compute_neighbors"
GRID = "lfmix.neighbors.neighbors_grid"
NAIVE = "lfmix.neighbors.neighbors_naive"
SCHEDULES = ("lfmix.dynamics.realized_alpha", "lfmix.dynamics.realized_betas",
             "lfmix.analysis.realized_alpha", "lfmix.analysis.realized_betas")
METRICS = "lfmix.analysis.metrics_rows"
DIAMETER = "lfmix.analysis.opinion_diameter"
CHECKS = {
    "lemma1": "lfmix.analysis.check_contraction",
    "thm2": "lfmix.analysis.check_target_envelope_all",
    "lemma3": "lfmix.analysis.check_ball_invariance",
    "thm4": "lfmix.analysis.check_consensus_bound",
    "cor1": "lfmix.analysis.check_mixture_limit",
    "cor2": "lfmix.analysis.check_subsystem_independence",
}
CHECK_SCAN = "lfmix.analysis.neighbors_naive"
TRAJECTORY_CSV = "lfmix.cli.write_trajectory_csv"
METRICS_CSV = "lfmix.cli.write_metrics_csv"

# spans whose arguments or results are kept: trajectories, neighbor queries, reports, CSV paths
KEPT = RUNS + (QUERY, TRAJECTORY_CSV) + tuple(CHECKS.values())

SPANS = (BUILD + RUNS + (STEP, QUERY, GRID, NAIVE) + SCHEDULES + (METRICS, DIAMETER)
         + tuple(CHECKS.values()) + (CHECK_SCAN, TRAJECTORY_CSV, METRICS_CSV))
# unit_uniform is called ~10^5 times per run; it is counted, not timed
DRAWS = ("lfmix.model.unit_uniform", "lfmix.schedules.unit_uniform")

# self time of these spans is the analysis layer's own work on every workload:
# metrics_rows and the diameter on simulate and sweep, the checks and their scans on check
ANALYSIS = (METRICS, DIAMETER) + tuple(CHECKS.values()) + (CHECK_SCAN,)

# per-layer metric -> unit; the names BENCHMARK.json lists under per_layer.
# Every workload calls the spans these are read from, so each is a number.
UNITS = {
    "model.build_s": "s", "model.build_calls": "count",
    "seeding.draws": "count",
    "schedules.calls": "count", "schedules.self_s": "s",
    "neighbors.query_s.p50": "s", "neighbors.query_s.p90": "s", "neighbors.query_s": "s",
    "neighbors.pairs": "count", "neighbors.hit_ratio": "ratio",
    "dynamics.update_s.p50": "s", "dynamics.update_s.p90": "s",
    "dynamics.run_self_s": "s", "dynamics.runs": "count", "dynamics.steps": "count",
    "dynamics.states_mb": "MiB",
    "analysis.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}
# per-layer metrics of layers only some workloads call (the checks only on
# check_ball; CSV output, metrics_rows and the diameter not on check_ball).
# They are printed on the run's ``layers`` line, null where not run, and are
# not in the result line, whose values must all be numbers.
DETAIL_UNITS = {
    "analysis.metrics_s": "s", "analysis.diameter_s": "s",
    **{f"analysis.check_s.{t}": "s" for t in CHECKS},
    "analysis.records": "count",
    "analysis.naive_scans": "count", "analysis.naive_scan_s": "s",
    "scenario_io.trajectory_csv_s": "s", "scenario_io.trajectory_bytes": "B",
    "scenario_io.metrics_csv_s": "s",
}


class Tracer:
    """Span recorder; ``install`` patches the package, ``call`` runs the root."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]
        self.absent: list[str] = []
        self.draws = 0
        self.counting = False
        # (span index, args, result) of the calls whose arguments or results feed counts
        self.kept: dict[str, list[tuple]] = {name: [] for name in KEPT}

    def _resolve(self, qualified: str):
        module_name, attr = qualified.rsplit(".", 1)
        module = importlib.import_module(module_name)
        if not hasattr(module, attr):
            self.absent.append(qualified)
            return None, attr, None
        return module, attr, getattr(module, attr)

    def _span(self, name: str, fn):
        ident = len(self.names)
        self.names.append(name)
        name_of, parent, start, end, opened = self.name_of, self.parent, self.start, self.end, self._open
        keep = self.kept[name].append if name in self.kept else None

        def wrapper(*args, **kwargs):
            index = len(start)
            name_of.append(ident)
            parent.append(opened[-1])
            end.append(0.0)
            opened.append(index)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = perf_counter()
                opened.pop()
            if keep is not None:
                keep((index, args, result))
            return result

        return wrapper

    def install(self) -> None:
        for qualified in SPANS:
            module, attr, fn = self._resolve(qualified)
            if module is not None:
                setattr(module, attr, self._span(qualified, fn))
        for qualified in DRAWS:
            module, attr, fn = self._resolve(qualified)
            if module is not None:
                setattr(module, attr, self._counted(fn))
                self.counting = True

    def _counted(self, fn):
        def wrapper(*args):
            self.draws += 1
            return fn(*args)

        return wrapper

    def call(self, fn, *args):
        """Run ``fn`` as the root span."""
        return self._span(ROOT_SPAN, fn)(*args)

    # ------------------------------------------------------------------
    # post-processing

    def spans(self) -> dict:
        """Arrays over all spans: name index, parent index, duration, self time."""
        name_of = np.frombuffer(self.name_of, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        children = np.zeros_like(duration)
        has_parent = parent >= 0
        np.add.at(children, parent[has_parent], duration[has_parent])
        return {"name_of": name_of, "parent": parent, "duration": duration, "self": duration - children}

    def summary(self) -> dict:
        """Per-layer metrics (all but ``trace.overhead_s``), the spans found
        absent, the metrics whose spans exist but were not called, the root
        duration and the sum of all self times."""
        s = self.spans()
        name_of, parent, duration, self_time = s["name_of"], s["parent"], s["duration"], s["self"]
        present = set(self.names)

        def mask(names):
            return np.isin(name_of, [self.names.index(n) for n in names if n in present])

        def total(names, values=duration):
            return names, lambda: float(values[mask(names)].sum())

        def calls(names):
            return names, lambda: int(mask(names).sum())

        def quantile(name, values, q):
            return [name], lambda: float(np.quantile(values[mask([name])], q))

        # outermost build spans: load_scenario counts once, not again for its inner build_scenario
        outer_build = mask(BUILD) & ~(mask(BUILD)[parent] & (parent >= 0))
        runs = [(i, r) for name in RUNS for i, _, r in self.kept[name]]
        engine = self._engine_counts(runs, mask, parent)

        # metric -> (the spans it is read from, how to read it once they ran)
        sources = {
            "model.build_s": (BUILD, lambda: float(duration[outer_build].sum())),
            "model.build_calls": (BUILD, lambda: int(outer_build.sum())),
            "schedules.calls": calls(SCHEDULES),
            "schedules.self_s": total(SCHEDULES, self_time),
            "neighbors.query_s.p50": quantile(QUERY, duration, 0.5),
            "neighbors.query_s.p90": quantile(QUERY, duration, 0.9),
            "neighbors.query_s": total([QUERY]),
            "neighbors.pairs": ([QUERY], lambda: engine["neighbors.pairs"]),
            "neighbors.hit_ratio": ([QUERY], lambda: engine["neighbors.hit_ratio"]),
            "dynamics.update_s.p50": quantile(STEP, self_time, 0.5),
            "dynamics.update_s.p90": quantile(STEP, self_time, 0.9),
            "dynamics.run_self_s": total(RUNS, self_time),
            "dynamics.runs": calls(RUNS),
            "dynamics.steps": (RUNS, lambda: engine["dynamics.steps"]),
            "dynamics.states_mb": (RUNS, lambda: engine["dynamics.states_mb"]),
            "analysis.self_s": total(ANALYSIS, self_time),
            "analysis.metrics_s": total([METRICS]),
            "analysis.diameter_s": total([DIAMETER]),
            **{f"analysis.check_s.{token}": total([name]) for token, name in CHECKS.items()},
            "analysis.records": (CHECKS.values(), lambda: readable(
                lambda: sum(len(r.records) for name in CHECKS.values() for _, _, r in self.kept[name]))),
            "analysis.naive_scans": calls([CHECK_SCAN]),
            "analysis.naive_scan_s": total([CHECK_SCAN]),
            "scenario_io.trajectory_csv_s": total([TRAJECTORY_CSV]),
            "scenario_io.trajectory_bytes": ([TRAJECTORY_CSV], lambda: readable(
                lambda: sum(os.path.getsize(a[1]) for _, a, _ in self.kept[TRAJECTORY_CSV]))),
            "scenario_io.metrics_csv_s": total([METRICS_CSV]),
            "cli.self_s": total([ROOT_SPAN], self_time),
        }
        # None marks a metric whose spans all went absent, or were never
        # called on this workload; only the latter are listed in not_run
        m = {"seeding.draws": self.draws if self.counting and self.draws else None}
        not_run = ["seeding.draws"] if self.counting and not self.draws else []
        for metric, (names, value) in sources.items():
            m[metric] = None
            if not any(n in present for n in names):
                continue
            if not mask(names).any():
                not_run.append(metric)
                continue
            m[metric] = value()
        return {
            "metrics": m,
            "stop_reasons": [str(getattr(r, "stop_reason", "unknown")) for _, r in runs],
            "absent": list(self.absent),
            "not_run": not_run,
            "root_s": float(duration[mask([ROOT_SPAN])].sum()),
            "self_sum_s": float(self_time.sum()),
        }

    def _engine_counts(self, runs, mask, parent) -> dict:
        """Counts read from the trajectories the engine returned (steps, kept
        states, neighbor pairs from ``step_digests``) and from the states the
        engine's neighbor queries received (candidate pairs)."""
        primary = mask(["lfmix.cli.run"])
        digests = readable(lambda: [(primary[i], [d.neighbor_pairs for d in r.step_digests]) for i, r in runs])
        primary_pairs = [p for is_primary, pairs in digests or [] if is_primary for p in pairs]
        # a query ran the naive scan when a naive span sits below it, directly or under the grid span
        naive_parents = parent[mask([NAIVE])]
        naive_queries = set(np.where(mask([GRID])[naive_parents], parent[naive_parents], naive_parents).tolist())

        def candidates():
            total = 0
            for index, (state, scenario), _ in self.kept[QUERY]:
                x = state.opinions
                total += x.shape[0] ** 2 if index in naive_queries else grid_candidates(x, scenario.epsilon)
            return total

        tested = readable(candidates) if self.kept[QUERY] else None
        pairs = sum(sum(p) for _, p in digests) if digests is not None else None
        return {
            "dynamics.steps": readable(lambda: sum(r.horizon for _, r in runs)) if runs else None,
            "dynamics.states_mb": readable(lambda: max(len(r.states) * r.states[0].opinions.size * 8
                                                       for _, r in runs) / 2**20) if runs else None,
            "neighbors.pairs": float(np.mean(primary_pairs)) if primary_pairs else None,
            "neighbors.hit_ratio": pairs / tested if tested and pairs is not None else None,
        }


def readable(value):
    """``value()``, or None when the objects it reads no longer have that
    shape (a later version of the package changed them)."""
    try:
        return value()
    except (AttributeError, TypeError, IndexError, ValueError, KeyError):
        return None


def grid_candidates(x: np.ndarray, cell: float) -> int:
    """Pairs a cell grid of side ``cell`` distance-tests: each agent against
    every agent in the 3^d block of cells around its own."""
    cells = np.floor(x / cell).astype(np.int64)
    keys, counts = np.unique(cells, axis=0, return_counts=True)
    occupancy = {tuple(k): int(c) for k, c in zip(keys.tolist(), counts.tolist())}
    offsets = list(itertools.product((-1, 0, 1), repeat=x.shape[1]))
    total = 0
    for key, count in occupancy.items():
        block = sum(occupancy.get(tuple(a + b for a, b in zip(key, off)), 0) for off in offsets)
        total += count * block
    return total
