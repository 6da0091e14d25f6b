"""Scenario round trips and CSV persistence."""

import csv
import dataclasses
import json

import numpy as np
import pytest

from helpers import config, constant, trajectory_csv_oracle
from lfmix import build_scenario, metrics_rows, run
from lfmix.dynamics import Trajectory
from lfmix.model import SystemState
from lfmix.scenario_io import (
    canonical_dict,
    dump_canonical,
    load_scenario,
    read_metrics_csv,
    write_metrics_csv,
    write_trajectory_csv,
)


def sample_config():
    return config(
        dimension=2,
        epsilon=0.4,
        followers=3,
        leader_groups=[("brand", 2, [0.5, 0.5], constant(0.7))],
        random_init={"distribution": "uniform_box", "low": 0.0, "high": 1.0, "seed": 99},
        follower_betas=[{"kind": "seeded_random", "seed": 4, "low": 0.0, "high": 0.3}],
        horizon=7,
    )


def every_kind_config():
    """All four schedule kinds, and a per-agent override."""
    return config(
        followers=3,
        leader_groups=[
            ("a", 1, [0.0], {"kind": "table", "values": [0.4, 0.2, 0.1]}),
            ("b", 1, [1.0], {"kind": "geometric_decay", "initial": 0.9, "ratio": 0.5}),
        ],
        initial=[[0.1], [0.5], [0.9], [0.0], [1.0]],
        follower_betas=[constant(0.2), {"kind": "seeded_random", "seed": 7, "low": 0.1, "high": 0.4}],
        per_agent_betas={1: [{"kind": "table", "values": [0.3, 0.0]}, constant(0.5)]},
    )


def test_canonical_round_trip_is_identity():
    sc = build_scenario(sample_config())
    canon = canonical_dict(sc)
    again = canonical_dict(build_scenario(canon))
    assert canon == again
    # canonical form resolves member counts to explicit ids
    assert canon["groups"][0]["members"] == [0, 1, 2]
    assert canon["groups"][1]["members"] == [3, 4]
    sc = build_scenario(every_kind_config())
    assert dump_canonical(build_scenario(canonical_dict(sc))) == dump_canonical(sc)
    # to_spec turns a table's tuple into a list
    assert sc.canonical["schedules"]["a"]["alpha"] == {"kind": "table", "values": [0.4, 0.2, 0.1]}
    override = sc.canonical["schedules"]["crowd"]["per_agent"]["1"]["betas"]
    assert override == [{"kind": "table", "values": [0.3, 0.0]}, {"kind": "constant", "value": 0.5}]
    assert sc.canonical["schedules"]["b"]["alpha"] == {"kind": "geometric_decay", "initial": 0.9, "ratio": 0.5}
    assert sc.canonical["schedules"]["crowd"]["betas"][1] == {"kind": "seeded_random", "seed": 7, "low": 0.1,
                                                              "high": 0.4}


def test_canonical_rerun_reproduces_trajectory():
    sc = build_scenario(sample_config())
    sc2 = build_scenario(canonical_dict(sc))
    t1, t2 = run(sc), run(sc2)
    assert len(t1.states) == len(t2.states)
    for a, b in zip(t1.states, t2.states):
        assert np.array_equal(a.opinions, b.opinions)


def test_load_scenario_from_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(sample_config()), encoding="utf-8")
    sc = load_scenario(path)
    assert sc.n_agents == 5
    dumped = dump_canonical(sc)
    assert json.loads(dumped) == canonical_dict(sc)


def test_trajectory_csv_layout(tmp_path):
    sc = build_scenario(sample_config())
    traj = run(sc, 4)
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(traj, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5 * 5  # 5 agents, t = 0..4
    assert set(rows[0]) == {"t", "agent", "group", "x0", "x1"}
    # repr round-trip: values parse back to the exact stored floats
    for rec in rows[:5]:
        t, agent = int(rec["t"]), int(rec["agent"])
        assert float(rec["x0"]) == traj.states[t].opinions[agent, 0]
        assert float(rec["x1"]) == traj.states[t].opinions[agent, 1]
    groups = {rec["group"] for rec in rows}
    assert groups == {"crowd", "brand"}


def test_trajectory_csv_record_every_includes_final(tmp_path):
    sc = build_scenario(sample_config())
    traj = run(sc, 7)
    path = tmp_path / "sparse.csv"
    write_trajectory_csv(traj, path, record_every=3)
    with open(path, newline="") as fh:
        ts = sorted({int(rec["t"]) for rec in csv.DictReader(fh)})
    assert ts == [0, 3, 6, 7]  # multiples of 3 plus the final state


def test_metrics_csv_round_trip(tmp_path):
    sc = build_scenario(sample_config())
    traj = run(sc, 3)
    rows = metrics_rows(traj)
    path = tmp_path / "metrics.csv"
    write_metrics_csv(rows, sc, path)
    parsed = read_metrics_csv(path)
    metrics = {rec["metric"] for rec in parsed}
    assert metrics == {"C", "A", "diameter", "max_alpha", "max_one_minus_beta_sum"}
    c0 = [r for r in parsed if r["metric"] == "C" and r["t"] == 0]
    assert len(c0) == 1 and c0[0]["group"] == "brand"
    assert c0[0]["value"] == rows[0].target_distances[0]
    # degree rows exist only for steps actually taken
    assert not [r for r in parsed if r["metric"] == "max_alpha" and r["t"] == 3]


def test_an_unnamed_follower_group_has_one_name_in_both_csv_files(tmp_path):
    # scenario files always name their groups; a partition built in code need not
    sc = build_scenario(sample_config())
    sc = dataclasses.replace(sc, partition=dataclasses.replace(sc.partition, follower_name=None))
    traj = run(sc, 2)
    write_trajectory_csv(traj, tmp_path / "trajectory.csv")
    write_metrics_csv(metrics_rows(traj), sc, tmp_path / "metrics.csv")
    with open(tmp_path / "trajectory.csv", newline="") as fh:
        named = {rec["group"] for rec in csv.DictReader(fh) if int(rec["agent"]) in sc.partition.follower_ids}
    assert named == {sc.partition.group_name_of(int(sc.partition.follower_ids[0]))}
    assert {rec["group"] for rec in read_metrics_csv(tmp_path / "metrics.csv") if rec["metric"] == "A"} == named


def test_metrics_csv_rejects_garbage(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(ValueError):
        read_metrics_csv(empty)
    header_only = tmp_path / "header.csv"
    header_only.write_text("t,group,metric,value\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_metrics_csv(header_only)
    wrong = tmp_path / "wrong.csv"
    wrong.write_text("a,b\n1,2\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_metrics_csv(wrong)
    truncated = tmp_path / "truncated.csv"
    truncated.write_text("t,group,metric,value\n0,all,diameter,0.5\n0,all,diameter\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 3"):
        read_metrics_csv(truncated)
    overlong = tmp_path / "overlong.csv"
    overlong.write_text("t,group,metric,value\n0,all,diameter,0.4\n0,all,diameter,0.5,9\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 3"):
        read_metrics_csv(overlong)


def test_group_names_with_commas_are_quoted(tmp_path):
    cfg = sample_config()
    cfg["groups"][1]["name"] = "brand, premium"
    cfg["schedules"]["brand, premium"] = cfg["schedules"].pop("brand")
    sc = build_scenario(cfg)
    traj = run(sc, 1)
    path = tmp_path / "quoted.csv"
    write_trajectory_csv(traj, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {rec["group"] for rec in rows} == {"crowd", "brand, premium"}


AWKWARD_NAMES = ["crowd, north", 'the "brand"', "two\nlines", "crlf\r\nname", " spaced out ", "marque éé ✓"]
AWKWARD_VALUES = [-0.0, 5e-324, 1e308, 1e-05, -1.5, 0.1, 1e16, 123456789.125]


def awkward_trajectory(horizon: int) -> Trajectory:
    """A follower group and five leader groups with names ``csv`` must quote
    (or must not), and hand-made states of awkward float values."""
    followers, *leaders = AWKWARD_NAMES
    cfg = config(
        dimension=3,
        followers=4,
        leader_groups=[(name, 2, [0.0] * 3, constant(0.5)) for name in leaders],
        follower_betas=[constant(0.1)] * len(leaders),
        horizon=horizon,
    )
    cfg["groups"][0]["name"] = followers
    cfg["schedules"][followers] = cfg["schedules"].pop("crowd")
    sc = build_scenario(cfg)
    values = np.resize(np.asarray(AWKWARD_VALUES), (horizon + 1, sc.n_agents, 3))
    for t in range(horizon + 1):
        values[t] = np.roll(values[t], t)
    states = [SystemState(t, values[t]) for t in range(horizon + 1)]
    return Trajectory(sc, tuple(states), "horizon", (), None, None)


@pytest.mark.parametrize("horizon, record_every", [(0, 1), (7, 1), (7, 3), (7, 8), (6, 3)])
def test_trajectory_csv_bytes_match_csv_writer(tmp_path, horizon, record_every):
    traj = awkward_trajectory(horizon)
    write_trajectory_csv(traj, tmp_path / "fast.csv", record_every)
    trajectory_csv_oracle(traj, tmp_path / "oracle.csv", record_every)
    fast = (tmp_path / "fast.csv").read_bytes()
    assert fast == (tmp_path / "oracle.csv").read_bytes()
    for value in ("-0.0", "5e-324", "1e+308", "1e-05"):
        assert f",{value}".encode() in fast
    with open(tmp_path / "fast.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert {rec["group"] for rec in rows} == set(AWKWARD_NAMES)


def test_trajectory_csv_of_repeated_rows_matches_per_row_repr(tmp_path):
    # rows that repeat within and across groups, and rows equal in value but
    # not in bytes: 0.0 and -0.0, which repr tells apart
    sc = build_scenario(config(dimension=2, followers=4, leader_groups=[("brand", 3, [0.0, 0.0], constant(0.5))],
                               follower_betas=[constant(0.5)], horizon=2))
    rows = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, -0.0], [0.5, 0.25], [0.0, 1.0], [-0.0, 1.0], [0.5, 0.25]])
    states = [SystemState(0, rows), SystemState(1, rows[::-1]), SystemState(2, np.zeros((7, 2)) * [1.0, -1.0])]
    traj = Trajectory(sc, tuple(states), "horizon", (), None, None)
    write_trajectory_csv(traj, tmp_path / "fast.csv")
    trajectory_csv_oracle(traj, tmp_path / "oracle.csv")
    fast = (tmp_path / "fast.csv").read_bytes()
    assert fast == (tmp_path / "oracle.csv").read_bytes()
    for row in (b"0,0,crowd,0.0,1.0\r\n", b"0,1,crowd,-0.0,1.0\r\n", b"0,2,crowd,0.0,-0.0\r\n",
                b"2,6,brand,0.0,-0.0\r\n"):
        assert row in fast
