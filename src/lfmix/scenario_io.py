"""Scenario files, trajectory and metrics persistence.

Scenario files are JSON documents in the shape accepted by
``model.build_scenario``. Serialization always goes through the canonical
form (explicit member ids, normalized schedules, defaults materialized), so
parse -> serialize -> parse is the identity on canonical files.

Trajectory CSV: header ``t,agent,group,x0,...,x{d-1}``, one row per agent per
recorded step. Metrics CSV: header ``t,group,metric,value`` with metrics
``C`` (per leader group), ``A`` (follower spread), ``diameter``,
``max_alpha`` and ``max_one_minus_beta_sum``. Floats are written with
``repr`` so files are byte-deterministic and round-trip exactly.

Both files hold exactly what ``csv.writer`` writes (excel dialect, CRLF line
ends). The trajectory writer quotes each group name once and writes a
recorded state as one string, one row per agent.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

from .analysis import MetricsRow
from .dynamics import Trajectory
from .model import Scenario, build_scenario


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    return build_scenario(raw)


def canonical_dict(scenario: Scenario) -> dict:
    return json.loads(json.dumps(scenario.canonical))


def dump_canonical(scenario: Scenario) -> str:
    return json.dumps(scenario.canonical, indent=2, sort_keys=True) + "\n"


def _fmt(value: float) -> str:
    return repr(float(value))


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it inside a row."""
    buf = io.StringIO()
    csv.writer(buf).writerow([text])
    return buf.getvalue()[:-2]  # the row's \r\n


def write_trajectory_csv(trajectory: Trajectory, path, record_every: int = 1) -> None:
    """States at t = 0, K, 2K, ... plus the final state."""
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    scenario = trajectory.scenario
    part = scenario.partition
    names = [part.group_name_of(i) for i in range(scenario.n_agents)]
    quoted = {name: _csv_field(name) for name in set(names)}
    prefixes = [f",{i},{quoted[name]}," for i, name in enumerate(names)]
    last = trajectory.horizon
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(["t", "agent", "group"] + [f"x{c}" for c in range(scenario.dimension)])
        for state in trajectory.states:
            if state.t % record_every and state.t != last:
                continue
            t = str(state.t)
            fh.write("".join([t + p + ",".join(map(repr, row)) + "\r\n"
                              for p, row in zip(prefixes, state.opinions.tolist())]))


def write_metrics_csv(rows: list[MetricsRow], scenario: Scenario, path) -> None:
    part = scenario.partition
    follower = part.follower_name or "followers"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "group", "metric", "value"])
        for row in rows:
            for k, value in enumerate(row.target_distances):
                writer.writerow([row.t, part.leader_names[k], "C", _fmt(value)])
            if row.follower_max_distance is not None:
                writer.writerow([row.t, follower, "A", _fmt(row.follower_max_distance)])
            writer.writerow([row.t, "all", "diameter", _fmt(row.diameter)])
            if row.max_alpha is not None:
                writer.writerow([row.t, "all", "max_alpha", _fmt(row.max_alpha)])
            if row.max_one_minus_beta_sum is not None:
                writer.writerow([row.t, "all", "max_one_minus_beta_sum", _fmt(row.max_one_minus_beta_sum)])


def read_metrics_csv(path) -> list[dict]:
    """Rows as dicts with typed fields; raises ValueError on malformed input."""
    out = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"t", "group", "metric", "value"} <= set(reader.fieldnames):
            raise ValueError(f"{path}: expected header t,group,metric,value")
        for rec in reader:
            try:
                # a truncated row has None in its missing fields, the last being value
                out.append(
                    {
                        "t": int(rec["t"]),
                        "group": rec["group"],
                        "metric": rec["metric"],
                        "value": float(rec["value"]),
                    }
                )
            except (TypeError, ValueError):
                raise ValueError(f"{path}: line {reader.line_num}: expected t,group,metric,value") from None
    if not out:
        raise ValueError(f"{path}: no metric rows")
    return out


def write_run_json(payload: dict, path) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
