"""Scenario files, trajectory and metrics persistence.

Scenario files are JSON documents in the shape accepted by
``model.build_scenario``. Serialization always goes through the canonical
form (explicit member ids, normalized schedules, defaults materialized), so
parse -> serialize -> parse is the identity on canonical files. Every JSON
file lfmix writes, the canonical scenario, ``run.json`` and the ``check``
report, is the text ``json_text`` gives it.

Trajectory CSV: header ``t,agent,group,x0,...,x{d-1}``, one row per agent per
recorded step. Metrics CSV: header ``t,group,metric,value`` with metrics
``C`` (per leader group), ``A`` (follower spread), ``diameter``,
``max_alpha`` and ``max_one_minus_beta_sum``. Floats are written with
``repr`` so files are byte-deterministic and round-trip exactly.

Both files hold exactly what ``csv.writer`` writes (excel dialect, CRLF line
ends). The trajectory writer quotes each group name once and writes a
recorded state as one string, one row per agent. Agents of one group whose
opinion rows have the same bytes share one text: each state's
``row_classes``, with the groups as labels, is taken and each class's row
formatted once, so a run whose clusters have merged calls ``repr`` per
cluster and group, not per agent. Keying by bytes keeps -0.0 and 0.0,
which ``repr`` tells apart, in different classes.
"""

from __future__ import annotations

import csv
import io
import json

from .analysis import MetricsRow
from .dynamics import Trajectory
from .model import Scenario, build_scenario
from .neighbors import row_classes


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    return build_scenario(raw)


def json_text(payload) -> str:
    """The text of every JSON file lfmix writes: sorted keys, an indent of 2
    and a final newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


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
    quoted = [_csv_field(name) for name in part.names]
    prefixes = [f",{i},{quoted[code]}," for i, code in enumerate(part.group_of.tolist())]
    last = trajectory.horizon
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(["t", "agent", "group"] + [f"x{c}" for c in range(scenario.dimension)])
        for state in trajectory.states:
            if state.t % record_every and state.t != last:
                continue
            t = str(state.t)
            classes = row_classes(state.opinions, part.group_of)
            texts = [",".join(map(repr, row)) + "\r\n" for row in state.opinions[classes.reps].tolist()]
            fh.write("".join([t + p + texts[c] for p, c in zip(prefixes, classes.of.tolist())]))


def write_metrics_csv(rows: list[MetricsRow], scenario: Scenario, path) -> None:
    part = scenario.partition
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "group", "metric", "value"])
        for row in rows:
            for k, value in enumerate(row.target_distances):
                writer.writerow([row.t, part.leader_names[k], "C", _fmt(value)])
            if row.follower_max_distance is not None:
                writer.writerow([row.t, part.names[0], "A", _fmt(row.follower_max_distance)])
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
                # a truncated row has None in its missing fields, the last
                # being value; an overlong row keeps its extra fields under None
                if None in rec:
                    raise ValueError
                t = int(rec["t"])
                float(t)  # an OverflowError where t does not fit a float, as the chart's x axis needs
                out.append(
                    {
                        "t": t,
                        "group": rec["group"],
                        "metric": rec["metric"],
                        "value": float(rec["value"]),
                    }
                )
            except (TypeError, ValueError, OverflowError):
                raise ValueError(f"{path}: line {reader.line_num}: expected t,group,metric,value") from None
    if not out:
        raise ValueError(f"{path}: no metric rows")
    return out
