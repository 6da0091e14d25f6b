"""Command-line surface.

Subcommands: ``simulate`` (run and persist a trajectory), ``check`` (run the
verification harness), ``plot`` (metrics CSV to standalone SVG), ``sweep``
(Cartesian parameter sweeps with derived per-point seeds).

Exit codes: 0 success, 2 invalid input (scenario, sweep spec, metrics file),
3 runtime schedule violation, 4 at least one applicable check failed,
5 a step produced an infinite or NaN opinion.
Diagnostics go to stderr. ``--threads`` is accepted and recorded in
``run.json`` but changes nothing: a step is a few array operations with a
single result.
"""

from __future__ import annotations

import argparse
import copy
import itertools
import json
import sys
import time
from pathlib import Path

from . import analysis
from .dynamics import FAULT_KINDS, STOP_CONVERGED, run
from .errors import NonFiniteState, ScenarioValidationError, ScheduleViolation
from .model import LEADER, Scenario, build_scenario
from .scenario_io import (
    dump_canonical,
    load_scenario,
    read_metrics_csv,
    write_metrics_csv,
    write_run_json,
    write_trajectory_csv,
)
from .seeding import derive_key
from .svgplot import render_line_chart

CHECK_TOKENS = ("lemma1", "thm2", "lemma3", "thm4", "cor1", "cor2")

_CHECK_HELP = (
    "lemma1: per-step leader contraction toward the target; "
    "thm2: geometric target envelope with measured delta; "
    "lemma3: ball invariance around the target; "
    "thm4: single-group consensus bound; "
    "cor1: follower mixture limit; "
    "cor2: independent subsystem convergence"
)


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
    except json.JSONDecodeError as exc:
        _err(f"scenario is not valid JSON: {exc}")
        return None
    except ScenarioValidationError as exc:
        _err(f"invalid scenario {path}:")
        for issue in exc.issues:
            print(f"  {issue}", file=sys.stderr)
        return None
    if seed is not None:
        canon = copy.deepcopy(scenario.canonical)
        if "random" in canon["initial_opinions"]:
            canon["initial_opinions"]["random"]["seed"] = seed
            scenario = build_scenario(canon)
        else:
            _err("--seed ignored: scenario has explicit initial opinions")
    return scenario


def _write_outputs(out_dir: Path, scenario: Scenario, trajectory, record_every: int, extra: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    write_trajectory_csv(trajectory, out_dir / "trajectory.csv", record_every)
    written = time.perf_counter()
    series = analysis.measure(trajectory)
    write_metrics_csv(analysis.metrics_rows(trajectory, series), scenario, out_dir / "metrics.csv")
    timings = {"trajectory_csv_s": written - started, "metrics_s": time.perf_counter() - written}
    (out_dir / "scenario.canonical.json").write_text(dump_canonical(scenario), encoding="utf-8")
    gamma, delta = analysis.measured_degree_bounds(series)
    digests = trajectory.step_digests
    pairs = [d.neighbor_pairs for d in digests]
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
        },
        "stop_reason": trajectory.stop_reason,
        "converged": trajectory.stop_reason == STOP_CONVERGED,
        "steps": trajectory.horizon,
        "n_agents": scenario.n_agents,
        "dimension": scenario.dimension,
        "measured_gamma": gamma,
        "measured_delta": delta,
        "record_every": record_every,
    }
    payload.update(extra)
    write_run_json(payload, out_dir / "run.json")


def _cmd_simulate(args) -> int:
    scenario = _load(args.scenario, args.seed)
    if scenario is None:
        return 2
    started = time.perf_counter()
    trajectory = run(scenario, args.horizon)
    wall = time.perf_counter() - started
    # _load ignores --seed for explicit opinions, so run.json records none
    seed = args.seed if "random" in scenario.canonical["initial_opinions"] else None
    _write_outputs(
        Path(args.out),
        scenario,
        trajectory,
        args.record_every,
        {"wall_time_seconds": wall, "threads": args.threads, "seed": seed},
    )
    return 0


def _run_checks(scenario: Scenario, trajectory, tokens) -> dict:
    series = analysis.measure(trajectory)
    checks = {
        "lemma1": lambda: analysis.check_contraction(trajectory),
        "thm2": lambda: analysis.check_target_envelope_all(trajectory, series=series),
        "lemma3": lambda: analysis.check_ball_invariance(trajectory, series=series),
        "thm4": lambda: analysis.check_consensus_bound(trajectory, series=series),
        "cor1": lambda: analysis.check_mixture_limit(trajectory, series=series),
        "cor2": lambda: analysis.check_subsystem_independence(scenario, joint=trajectory, series=series),
    }
    return {token: checks[token]() for token in tokens}


def _cmd_check(args) -> int:
    tokens = CHECK_TOKENS if args.checks is None else tuple(t.strip() for t in args.checks.split(","))
    unknown = [t for t in tokens if t not in CHECK_TOKENS]
    if unknown:
        _err(f"unknown checks: {', '.join(unknown)} (expected {', '.join(CHECK_TOKENS)})")
        return 2
    scenario = _load(args.scenario, None)
    if scenario is None:
        return 2
    trajectory = run(scenario, args.horizon, fault=args.inject_fault)
    reports = _run_checks(scenario, trajectory, tokens)
    payload = {
        "scenario": args.scenario,
        "horizon": trajectory.horizon,
        "stop_reason": trajectory.stop_reason,
        "fault": args.inject_fault,
        "checks": {token: report.to_dict() for token, report in reports.items()},
    }
    failed = [t for t, r in reports.items() if r.status == "fail"]
    payload["all_passed"] = not failed
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.report:
        Path(args.report).parent.mkdir(parents=True, exist_ok=True)
        Path(args.report).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    for token, report in reports.items():
        line = f"{token}: {report.status}"
        if report.status == "skipped":
            line += f" ({report.reason})"
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
        lo, hi, steps = float(lo_s), float(hi_s), int(steps_s)
    except ValueError:
        raise ValueError(f"bad --vary spec {spec!r}; expected param=lo:hi:steps") from None
    param = param.strip()
    if param not in _SWEEP_PARAMS:
        raise ValueError(f"unknown sweep parameter {param!r}; expected one of {', '.join(_SWEEP_PARAMS)}")
    if steps < 1:
        raise ValueError(f"bad --vary spec {spec!r}; steps must be >= 1")
    if steps == 1:
        values = [lo]
    else:
        values = [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]
    if param == "n":
        values = [int(round(v)) for v in values]
    return param, values


def _scaled_counts(counts: list[int], kinds: list[str], target: int) -> list[int] | None:
    """Largest-remainder scaling of group sizes to a new total; leader groups
    keep at least one member."""
    total = sum(counts)
    floors = [c * target // total for c in counts]
    for gi, kind in enumerate(kinds):
        if kind == LEADER and floors[gi] == 0:
            floors[gi] = 1
    deficit = target - sum(floors)
    if deficit < 0:
        return None
    remainders = sorted(
        range(len(counts)),
        key=lambda gi: (-(counts[gi] * target % total), gi),
    )
    for gi in itertools.islice(itertools.cycle(remainders), deficit):
        floors[gi] += 1
    return floors


def _point_config(base: dict, assignments: dict, index: int, base_seed: int) -> dict:
    config = copy.deepcopy(base)
    for param, value in assignments.items():
        if param == "epsilon":
            config["epsilon"] = float(value)
        elif param == "alpha":
            for name, entry in config["schedules"].items():
                if "alpha" in entry:
                    config["schedules"][name] = {"alpha": {"kind": "constant", "value": float(value)}}
        elif param == "beta":
            m = sum(1 for g in config["groups"] if g["kind"] == LEADER)
            for name, entry in config["schedules"].items():
                if "betas" in entry:
                    config["schedules"][name] = {
                        "betas": [{"kind": "constant", "value": float(value)}] * m
                    }
        elif param == "n":
            counts = [len(g["members"]) for g in config["groups"]]
            kinds = [g["kind"] for g in config["groups"]]
            scaled = _scaled_counts(counts, kinds, int(value))
            if scaled is None:
                raise ValueError(f"cannot scale agent count to {value}")
            next_id = 0
            for g, count in zip(config["groups"], scaled):
                g["members"] = list(range(next_id, next_id + count))
                next_id += count
    if "random" in config["initial_opinions"]:
        config["initial_opinions"]["random"]["seed"] = int(derive_key(base_seed, index)) % (1 << 62)
    return config


def _cmd_sweep(args) -> int:
    try:
        varies = [_parse_vary(spec) for spec in args.vary]
    except ValueError as exc:
        _err(str(exc))
        return 2
    base_scenario = _load(args.scenario, None)
    if base_scenario is None:
        return 2
    base = base_scenario.canonical
    if any(p == "n" for p, _ in varies):
        if "random" not in base["initial_opinions"]:
            _err("varying n requires random initial opinions")
            return 2
        if any("per_agent" in entry for entry in base["schedules"].values()):
            _err("varying n is not supported with per-agent schedule overrides")
            return 2
    base_seed = args.seed if args.seed is not None else base_scenario.base_seed

    out_root = Path(args.out)
    out_root.mkdir(parents=True, exist_ok=True)
    params = [p for p, _ in varies]
    grids = [vals for _, vals in varies]
    summary_rows = []
    for index, combo in enumerate(itertools.product(*grids)):
        assignments = dict(zip(params, combo))
        try:
            config = _point_config(base, assignments, index, base_seed)
            scenario = build_scenario(config)
        except (ValueError, ScenarioValidationError) as exc:
            _err(f"sweep point {index} is invalid: {exc}")
            return 2
        try:
            trajectory = run(scenario, args.horizon)
        except (ScheduleViolation, NonFiniteState) as exc:
            raise type(exc)(f"sweep point {index}: {exc}") from None
        point_dir = out_root / f"point_{index:04d}"
        _write_outputs(
            point_dir, scenario, trajectory, args.record_every,
            {"threads": args.threads, "sweep_point": index, "sweep_params": assignments},
        )
        final = trajectory.final_state.opinions
        if scenario.m >= 1:
            reference = scenario.target(1)
        else:
            reference = final.mean(axis=0)
        final_max = float(analysis.distances_to(final, reference).max())
        summary_rows.append(
            [index]
            + [repr(float(v)) if isinstance(v, float) else v for v in combo]
            + [trajectory.stop_reason, trajectory.stop_reason == STOP_CONVERGED,
               trajectory.horizon, repr(final_max)]
        )
    import csv as _csv

    with open(out_root / "summary.csv", "w", encoding="utf-8", newline="") as fh:
        writer = _csv.writer(fh)
        writer.writerow(["point"] + params + ["stop_reason", "converged", "steps", "final_max_distance"])
        writer.writerows(summary_rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lfmix",
        description="Simulate leader-follower bounded-confidence opinion dynamics and "
        "verify its convergence guarantees numerically.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a scenario and write trajectory/metrics files")
    sim.add_argument("--scenario", required=True, help="path to a scenario JSON file")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--horizon", type=_count(0), default=None, help="override the scenario horizon")
    sim.add_argument("--record-every", type=_count(1), default=1, metavar="K",
                     help="record opinions every K steps (metrics are always per step)")
    sim.add_argument("--threads", type=int, default=1, help="accepted for compatibility; has no effect")
    sim.add_argument("--seed", type=int, default=None,
                     help="override the seed of random initial opinions")
    sim.set_defaults(func=_cmd_simulate)

    chk = sub.add_parser("check", help="run the verification harness on a scenario")
    chk.add_argument("--scenario", required=True)
    chk.add_argument("--checks", default=None, metavar="LIST",
                     help=f"comma-separated subset of {','.join(CHECK_TOKENS)}; {_CHECK_HELP}")
    chk.add_argument("--report", default=None, help="write the JSON report here (default: stdout)")
    chk.add_argument("--horizon", type=_count(0), default=None)
    chk.add_argument("--threads", type=int, default=1)
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

    swp = sub.add_parser("sweep", help="run a Cartesian parameter sweep")
    swp.add_argument("--scenario", required=True)
    swp.add_argument("--vary", action="append", required=True, metavar="P=LO:HI:STEPS",
                     help=f"parameter grid over one of {', '.join(_SWEEP_PARAMS)}; repeatable")
    swp.add_argument("--out", required=True)
    swp.add_argument("--horizon", type=_count(0), default=None)
    swp.add_argument("--record-every", type=_count(1), default=1)
    swp.add_argument("--threads", type=int, default=1)
    swp.add_argument("--seed", type=int, default=None, help="base seed for per-point seeds")
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


if __name__ == "__main__":
    sys.exit(main())
