#!/usr/bin/env python3
"""Run the two-agent consensus demo and verify every guarantee on it.

Writes metrics and a log-scale SVG of the distance decay next to this script
(under ``out/``) and prints one line per check with the measured parameters.
Exits 1 when a check fails, as ``lfmix check`` exits 4.

Usage:
    python scripts/run_consensus_demo.py
"""

import sys
from pathlib import Path

from lfmix import analysis, load_scenario, metrics_rows, run
from lfmix.scenario_io import write_metrics_csv
from lfmix.svgplot import render_line_chart

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "scripts" / "out"


def main() -> int:
    scenario = load_scenario(ROOT / "scenarios" / "consensus_demo.json")
    trajectory = run(scenario)
    print(f"stopped: {trajectory.stop_reason} after {trajectory.horizon} steps")

    checks = {
        "contraction": analysis.check_contraction(trajectory),
        "target envelope": analysis.check_target_envelope_all(trajectory),
        "ball invariance": analysis.check_ball_invariance(trajectory),
        "consensus bound": analysis.check_consensus_bound(trajectory),
    }
    for name, report in checks.items():
        extras = {k: v for k, v in report.params.items() if k in ("gamma", "delta", "p", "t_star", "t0")}
        print(f"{name:16s} {report.status:7s} worst slack {report.worst_slack}  {extras}")

    OUT.mkdir(exist_ok=True)
    rows = metrics_rows(trajectory)
    write_metrics_csv(rows, scenario, OUT / "consensus_metrics.csv")
    series = {
        "C (leader to target)": ([r.t for r in rows], [r.target_distances[0] for r in rows]),
        "A (follower to target)": ([r.t for r in rows], [r.follower_max_distance for r in rows]),
    }
    render_line_chart(series, OUT / "consensus_decay.svg", log_y=True, title="distance decay")
    print(f"wrote {OUT / 'consensus_metrics.csv'} and {OUT / 'consensus_decay.svg'}")
    failed = [name for name, report in checks.items() if report.status == "fail"]
    if failed:
        print(f"failed checks: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
