"""Command-line surface.

Subcommands: ``simulate`` (run and persist a trajectory), ``check`` (run the
verification harness), ``plot`` (metrics CSV to standalone SVG), ``sweep``
(Cartesian parameter sweeps with derived per-point seeds).

Exit codes: 0 success, 2 invalid input (scenario, sweep spec, metrics file)
or an output path that cannot be written, 3 runtime schedule violation,
4 at least one applicable check failed, 5 a step produced an infinite or
NaN opinion.
Diagnostics go to stderr. ``--threads`` is accepted and recorded in
``run.json`` but changes nothing: a step is a few array operations with a
single result.

The commands that run a scenario share their flags: ``--scenario``,
``--horizon`` and ``--threads`` come from one parent parser for
``simulate``, ``check`` and ``sweep``, and ``--out``, ``--record-every``
and ``--seed`` from one for ``simulate`` and ``sweep``, so a shared flag
has one help text. ``CHECKS`` is the one table of check tokens: each
token's ``analysis`` function, looked up by name when the check runs, and
its help. ``simulate`` and every sweep point run, time and write their run
directory through ``_run_point``.
"""

from __future__ import annotations

import argparse
import copy
import csv
import itertools
import math
import sys
import time
from pathlib import Path

from . import analysis
from .dynamics import FAULT_KINDS, STOP_CONVERGED, run
from .errors import NonFiniteState, ScenarioValidationError, ScheduleViolation
from .model import LEADER, Scenario, build_scenario
from .scenario_io import (
    json_text,
    load_scenario,
    read_metrics_csv,
    write_metrics_csv,
    write_trajectory_csv,
)
from .seeding import derive_key
from .svgplot import render_line_chart

# token -> (its check's name in ``analysis``, what it checks). The function
# is looked up when the check runs, so a wrapper set on the module is called
CHECKS = {
    "lemma1": ("check_contraction", "per-step leader contraction toward the target"),
    "thm2": ("check_target_envelope_all", "geometric target envelope with measured delta"),
    "lemma3": ("check_ball_invariance", "ball invariance around the target"),
    "thm4": ("check_consensus_bound", "single-group consensus bound"),
    "cor1": ("check_mixture_limit", "follower mixture limit"),
    "cor2": ("check_subsystem_independence", "independent subsystem convergence"),
}


def _err(message: str) -> None:
    print(f"lfmix: {message}", file=sys.stderr)


def _count(minimum: int):
    """argparse type: an integer >= ``minimum``."""
    def parse(raw: str) -> int:
        if raw.removeprefix("-").isdecimal() and int(raw) >= minimum:
            return int(raw)
        raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {raw!r}")

    return parse


def _load(path: str, seed: int | None) -> Scenario | None:
    try:
        scenario = load_scenario(path)
    except OSError as exc:
        _err(f"cannot read scenario: {exc}")
        return None
    except ScenarioValidationError as exc:  # a ValueError, so before the handler below
        _err(f"invalid scenario {path}:")
        for issue in exc.issues:
            print(f"  {issue}", file=sys.stderr)
        return None
    except (ValueError, RecursionError) as exc:  # undecodable bytes, an overlong integer, too deep a nesting
        _err(f"scenario is not valid JSON: {exc}")
        return None
    if seed is not None:
        initial = scenario.canonical["initial_opinions"]
        if "random" in initial:
            # a new dict on the path to the seed; the rest, member lists too, is shared and left as it is
            random = dict(initial["random"], seed=seed)
            scenario = build_scenario({**scenario.canonical, "initial_opinions": {**initial, "random": random}})
        else:
            _err("--seed ignored: scenario has explicit initial opinions")
    return scenario


def _run_point(args, scenario: Scenario, out_dir: Path, extra: dict):
    """Run ``scenario`` for ``args.horizon`` steps, time the run and write its
    directory: the trajectory every ``args.record_every`` states, the
    metrics, the canonical scenario and ``run.json``, which gets ``extra``'s
    keys too. Returns the trajectory."""
    started = time.perf_counter()
    trajectory = run(scenario, args.horizon)
    wall = time.perf_counter() - started
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    write_trajectory_csv(trajectory, out_dir / "trajectory.csv", args.record_every)
    written = time.perf_counter()
    series = analysis.measure(trajectory)
    write_metrics_csv(analysis.metrics_rows(trajectory), scenario, out_dir / "metrics.csv")
    timings = {"update_s": trajectory.step_seconds, "trajectory_csv_s": written - started,
               "metrics_s": time.perf_counter() - written}
    (out_dir / "scenario.canonical.json").write_text(json_text(scenario.canonical), encoding="utf-8")
    gamma, delta = analysis.measured_degree_bounds(series)
    digests = trajectory.step_digests
    pairs = [d.neighbor_pairs for d in digests]

    def first_min_last(values):
        return {"first": values[0] if values else None, "min": min(values, default=None),
                "last": values[-1] if values else None}

    payload = {
        "timings": timings,
        "step_digest": {
            "min_weight": min((d.min_weight for d in digests), default=None),
            "max_sum_error": max((d.max_sum_error for d in digests), default=None),
            "neighbor_pairs": {
                "min": min(pairs, default=None),
                "max": max(pairs, default=None),
                "last": pairs[-1] if pairs else None,
            },
            # the (opinion bytes, group) classes whose sets each step summed, at most N
            "classes": first_min_last([d.classes for d in digests]),
            # the sets each step gathered and summed, after the full sets' copies
            "summed_sets": first_min_last([d.summed_sets for d in digests]),
        },
        # how the steps got their neighbor pairs: fresh searches, pair-list rebuilds
        # and reuses, and the seconds that took
        "pair_search": {**trajectory.pair_counts, "seconds": trajectory.pair_seconds},
        "stop_reason": trajectory.stop_reason,
        "converged": trajectory.stop_reason == STOP_CONVERGED,
        "steps": trajectory.horizon,
        "n_agents": scenario.n_agents,
        "dimension": scenario.dimension,
        "measured_gamma": gamma,
        "measured_delta": delta,
        "record_every": args.record_every,
        "wall_time_seconds": wall,
        "threads": args.threads,
        **extra,
    }
    (out_dir / "run.json").write_text(json_text(payload), encoding="utf-8")
    return trajectory


def _cmd_simulate(args) -> int:
    scenario = _load(args.scenario, args.seed)
    if scenario is None:
        return 2
    # _load ignores --seed for explicit opinions, so run.json records none
    seed = args.seed if "random" in scenario.canonical["initial_opinions"] else None
    _run_point(args, scenario, Path(args.out), {"seed": seed})
    return 0


def _cmd_check(args) -> int:
    # a token given twice runs once, where it first appears
    tokens = tuple(dict.fromkeys(CHECKS if args.checks is None else map(str.strip, args.checks.split(","))))
    unknown = [t for t in tokens if t not in CHECKS]
    if unknown:
        _err(f"unknown checks: {', '.join(map(repr, unknown))} (expected {', '.join(CHECKS)})")
        return 2
    scenario = _load(args.scenario, None)
    if scenario is None:
        return 2
    trajectory = run(scenario, args.horizon, fault=args.inject_fault)
    checks = {token: getattr(analysis, CHECKS[token][0])(trajectory).to_dict() for token in tokens}
    payload = {
        "scenario": args.scenario,
        "horizon": trajectory.horizon,
        "stop_reason": trajectory.stop_reason,
        "fault": args.inject_fault,
        "checks": checks,
    }
    failed = [t for t, c in checks.items() if c["status"] == "fail"]
    payload["all_passed"] = not failed
    text = json_text(payload)
    if args.report:
        Path(args.report).parent.mkdir(parents=True, exist_ok=True)
        Path(args.report).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    for token, c in checks.items():
        line = f"{token}: {c['status']}"
        if c["status"] == "skipped":
            line += f" ({c.get('reason')})"
        print(line, file=sys.stderr)
    if failed:
        _err(f"failed checks: {', '.join(failed)}")
        return 4
    return 0


def _cmd_plot(args) -> int:
    try:
        rows = read_metrics_csv(args.metrics)
    except (OSError, ValueError) as exc:
        _err(f"cannot plot metrics: {exc}")
        return 2
    wanted = None if args.series is None else {s.strip() for s in args.series.split(",")}
    series: dict[str, tuple[list, list]] = {}
    for rec in rows:
        if wanted is not None and rec["metric"] not in wanted:
            continue
        label = rec["metric"] if rec["group"] == "all" else f"{rec['metric']}[{rec['group']}]"
        xs, ys = series.setdefault(label, ([], []))
        xs.append(rec["t"])
        ys.append(rec["value"])
    if not series:
        _err("no matching metric series")
        return 2
    try:
        render_line_chart(series, args.out, log_y=args.log_y, title=Path(args.metrics).name)
    except ValueError as exc:
        _err(str(exc))
        return 2
    return 0


_SWEEP_PARAMS = ("epsilon", "alpha", "beta", "n")


def _parse_vary(spec: str):
    try:
        param, rng = spec.split("=", 1)
        lo_s, hi_s, steps_s = rng.split(":")
        # float and int take Python literals such as 3_0; the steps are read as _count reads a count
        if "_" in lo_s + hi_s or not steps_s.removeprefix("-").isdecimal():
            raise ValueError
        lo, hi, steps = float(lo_s), float(hi_s), int(steps_s)
    except ValueError:
        raise ValueError(f"bad --vary spec {spec!r}; expected param=lo:hi:steps") from None
    param = param.strip()
    if param not in _SWEEP_PARAMS:
        raise ValueError(f"unknown sweep parameter {param!r}; expected one of {', '.join(_SWEEP_PARAMS)}")
    if steps < 1:
        raise ValueError(f"bad --vary spec {spec!r}; steps must be >= 1")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"bad --vary spec {spec!r}; lo and hi must be finite")
    return param, lo, hi, steps


def _point_values(varies: list, index: int) -> list:
    """The values of sweep point ``index``: the points run through the
    Cartesian product of the grids, the last ``--vary`` fastest, and each
    value is computed from its grid index, so no grid is ever listed."""
    combo = []
    for param, lo, hi, steps in reversed(varies):
        index, i = divmod(index, steps)
        value = lo if steps == 1 else lo + (hi - lo) * i / (steps - 1)
        combo.append(int(round(value)) if param == "n" else value)
    return combo[::-1]


def _scaled_counts(counts: list[int], kinds: list[str], target: int) -> list[int] | None:
    """Largest-remainder scaling of group sizes to a new total; leader groups
    keep at least one member. None where a group's count would be negative
    or the total too small for the leader groups."""
    total = sum(counts)
    floors = [c * target // total for c in counts]
    for gi, kind in enumerate(kinds):
        if kind == LEADER and floors[gi] == 0:
            floors[gi] = 1
    deficit = target - sum(floors)
    if deficit < 0 or min(floors) < 0:
        return None
    remainders = sorted(
        range(len(counts)),
        key=lambda gi: (-(counts[gi] * target % total), gi),
    )
    for gi in itertools.islice(itertools.cycle(remainders), deficit):
        floors[gi] += 1
    return floors


def _point_config(base: dict, assignments: dict, index: int) -> dict:
    """The config of sweep point ``index``: ``base`` with the point's values;
    random opinions get a seed derived from the base seed and the index."""
    config = copy.deepcopy(base)
    for param, value in assignments.items():
        if param == "epsilon":
            config["epsilon"] = float(value)
        elif param in ("alpha", "beta"):
            key, spec = param, {"kind": "constant", "value": float(value)}
            if param == "beta":  # the key holds one schedule per leader group
                key, spec = "betas", [spec] * sum(1 for g in config["groups"] if g["kind"] == LEADER)
            for name, entry in config["schedules"].items():
                if key in entry:
                    config["schedules"][name] = {key: spec}
        elif param == "n":
            counts = [len(g["members"]) for g in config["groups"]]
            kinds = [g["kind"] for g in config["groups"]]
            scaled = _scaled_counts(counts, kinds, int(value))
            if scaled is None:
                raise ValueError(f"cannot scale agent count to {value}")
            for g, count in zip(config["groups"], scaled):
                g["members"] = count  # build_scenario gives counts consecutive ids and bounds their sum
    random = config["initial_opinions"].get("random")
    if random is not None:
        random["seed"] = int(derive_key(random["seed"], index)) % (1 << 62)
    return config


def _cmd_sweep(args) -> int:
    try:
        varies = [_parse_vary(spec) for spec in args.vary]
    except ValueError as exc:
        _err(str(exc))
        return 2
    params = [p for p, *_ in varies]
    repeated = next((p for p in params if params.count(p) > 1), None)
    if repeated is not None:
        _err(f"--vary {repeated} given more than once; vary each parameter once")
        return 2
    base_scenario = _load(args.scenario, args.seed)  # a --seed of random opinions is the base of the points' seeds
    if base_scenario is None:
        return 2
    base = base_scenario.canonical
    if "n" in params:
        if "random" not in base["initial_opinions"]:
            _err("varying n requires random initial opinions")
            return 2
        if any("per_agent" in entry for entry in base["schedules"].values()):
            _err("varying n is not supported with per-agent schedule overrides")
            return 2

    out_root = Path(args.out)
    summary = out_root / "summary.csv"
    for index in range(math.prod(steps for *_, steps in varies)):
        combo = _point_values(varies, index)
        assignments = dict(zip(params, combo))
        try:
            config = _point_config(base, assignments, index)
            scenario = build_scenario(config)
        except ValueError as exc:  # a ScenarioValidationError too
            _err(f"sweep point {index} is invalid: {exc}")
            return 2
        if index == 0:  # the output exists only once a point builds; each row is appended as its point ends
            out_root.mkdir(parents=True, exist_ok=True)
            with open(summary, "w", encoding="utf-8", newline="") as fh:
                csv.writer(fh).writerow(["point"] + params + ["stop_reason", "converged", "steps", "final_max_distance"])
        try:
            trajectory = _run_point(args, scenario, out_root / f"point_{index:04d}",
                                    {"sweep_point": index, "sweep_params": assignments})
        except (ScheduleViolation, NonFiniteState) as exc:
            raise type(exc)(f"sweep point {index}: {exc}") from None
        final = trajectory.final_state.opinions  # measured to its mean only without a target
        final_max = (analysis.measure(trajectory).radii[0][-1] if scenario.m
                     else float(analysis.distances_to(final, final.mean(axis=0)).max()))
        with open(summary, "a", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerow(
                [index]
                + [repr(float(v)) if isinstance(v, float) else v for v in combo]
                + [trajectory.stop_reason, trajectory.stop_reason == STOP_CONVERGED,
                   trajectory.horizon, repr(final_max)]
            )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lfmix",
        description="Simulate leader-follower bounded-confidence opinion dynamics and "
        "verify its convergence guarantees numerically.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the flags of every command that runs a scenario, and of those that write run directories
    runs = argparse.ArgumentParser(add_help=False)
    runs.add_argument("--scenario", required=True, help="path to a scenario JSON file")
    runs.add_argument("--horizon", type=_count(0), default=None, help="override the scenario horizon")
    runs.add_argument("--threads", type=int, default=1, help="accepted for compatibility; has no effect")
    writes = argparse.ArgumentParser(add_help=False)
    writes.add_argument("--out", required=True, help="output directory")
    writes.add_argument("--record-every", type=_count(1), default=1, metavar="K",
                        help="record opinions every K steps (metrics are always per step)")
    writes.add_argument("--seed", type=int, default=None,
                        help="override the seed of random initial opinions; a sweep derives each point's from it")

    sim = sub.add_parser("simulate", parents=[runs, writes], help="run a scenario and write trajectory/metrics files")
    sim.set_defaults(func=_cmd_simulate)

    chk = sub.add_parser("check", parents=[runs], help="run the verification harness on a scenario")
    chk.add_argument("--checks", default=None, metavar="LIST",
                     help=f"comma-separated subset of {','.join(CHECKS)}; "
                     + "; ".join(f"{token}: {text}" for token, (_, text) in CHECKS.items()))
    chk.add_argument("--report", default=None, help="write the JSON report here (default: stdout)")
    chk.add_argument("--inject-fault", choices=FAULT_KINDS, default=None,
                     help="corrupt the engine on purpose to demonstrate check sensitivity")
    chk.set_defaults(func=_cmd_check)

    plt = sub.add_parser("plot", help="render a metrics CSV as a standalone SVG line chart")
    plt.add_argument("--metrics", required=True, help="metrics CSV produced by simulate")
    plt.add_argument("--out", required=True, help="output SVG path")
    plt.add_argument("--series", default=None,
                     help="comma-separated metric names to keep (e.g. C,A,diameter)")
    plt.add_argument("--log-y", action="store_true", help="log10 y axis (drops values <= 0)")
    plt.set_defaults(func=_cmd_plot)

    swp = sub.add_parser("sweep", parents=[runs, writes], help="run a Cartesian parameter sweep")
    swp.add_argument("--vary", action="append", required=True, metavar="P=LO:HI:STEPS",
                     help=f"parameter grid over one of {', '.join(_SWEEP_PARAMS)}; repeatable")
    swp.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ScheduleViolation as exc:
        _err(f"schedule violation: {exc}")
        return 3
    except NonFiniteState as exc:
        _err(f"non-finite state: {exc}")
        return 5
    except OSError as exc:  # every read is caught where it happens: this is a write
        _err(f"cannot write output: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
