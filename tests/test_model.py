"""Domain types, validation, and degree schedules."""

import copy
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import DimensionMismatch, config, constant, distance, run_in_child, scenario
from lfmix import EngineOptions, ScenarioValidationError, build_scenario
from lfmix.dynamics import realized_alpha, realized_betas
from lfmix.schedules import Constant, GeometricDecay, RemappedAgents, Schedule, SeededRandom, Table, tabled
from lfmix.seeding import derive_key, unit_uniform


def issue_kinds(exc: ScenarioValidationError) -> set[str]:
    return {issue.kind for issue in exc.issues}


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------


def test_distance_345_triangle():
    assert distance((0.0, 0.0), (3.0, 4.0)) == 5.0


def test_distance_identity():
    x = (0.37, -1.2, 4.0)
    assert distance(x, x) == 0.0


def test_distance_scalar():
    # oracle: plain scalar arithmetic
    assert distance((0.2,), (0.4,)) == pytest.approx(abs(0.4 - 0.2), abs=1e-15)
    assert distance((0.2,), (0.4,)) == pytest.approx(0.2, abs=1e-15)


def test_distance_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        distance((1.0, 2.0), (1.0,))


@given(
    st.lists(st.floats(-100, 100), min_size=1, max_size=6),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_distance_triangle_inequality(a, data):
    n = len(a)
    b = data.draw(st.lists(st.floats(-100, 100), min_size=n, max_size=n))
    c = data.draw(st.lists(st.floats(-100, 100), min_size=n, max_size=n))
    lhs = distance(a, c)
    rhs = distance(a, b) + distance(b, c)
    assert lhs <= rhs * (1 + 1e-12) + 1e-12


def test_distance_symmetry_and_positivity():
    a, b = (0.1, 0.9), (0.4, 0.2)
    assert distance(a, b) == distance(b, a) > 0.0


# ---------------------------------------------------------------------------
# build_scenario validation
# ---------------------------------------------------------------------------


def well_formed() -> dict:
    return config(
        followers=1,
        leader_groups=[("brand", 1, [0.0], constant(0.5))],
        initial=[[0.3], [0.1]],
        follower_betas=[constant(0.5)],
    )


def test_build_well_formed():
    sc = build_scenario(well_formed())
    assert sc.n_agents == 2
    assert sc.m == 1
    assert sc.epsilon == 1.0
    assert sc.partition.names[sc.partition.group_of[0]] == "crowd"
    assert sc.partition.names[sc.partition.group_of[1]] == "brand"
    assert np.array_equal(sc.initial_state.opinions, [[0.3], [0.1]])


def test_epsilon_zero_rejected():
    cfg = well_formed()
    cfg["epsilon"] = 0
    with pytest.raises(ScenarioValidationError) as exc:
        build_scenario(cfg)
    assert "EpsilonNonpositive" in issue_kinds(exc.value)


def test_epsilon_whose_square_overflows_rejected():
    # with epsilon**2 = inf every pair would pass the neighbor test
    cfg = well_formed()
    for eps in (1e199, 1.35e154, 10**200, 10**400):
        cfg["epsilon"] = eps
        with pytest.raises(ScenarioValidationError) as exc:
            build_scenario(cfg)
        assert issue_kinds(exc.value) == {"NonFinite"}
        assert "epsilon**2 overflows" in str(exc.value)
    cfg["epsilon"] = math.sqrt(sys.float_info.max)  # the largest float whose square is finite
    assert math.isfinite(build_scenario(cfg).epsilon ** 2)


def test_beta_sum_exceeds_one():
    cfg = config(
        followers=1,
        leader_groups=[
            ("a", 1, [0.0], constant(0.5)),
            ("b", 1, [1.0], constant(0.5)),
        ],
        initial=[[0.5], [0.0], [1.0]],
        follower_betas=[constant(0.6), constant(0.6)],
    )
    with pytest.raises(ScenarioValidationError) as exc:
        build_scenario(cfg)
    assert "BetaSumExceedsOne" in issue_kinds(exc.value)


def test_beta_sum_tables_checked_per_step():
    # peaks in different steps never overlap, so this is legal
    cfg = config(
        followers=1,
        leader_groups=[
            ("a", 1, [0.0], constant(0.5)),
            ("b", 1, [1.0], constant(0.5)),
        ],
        initial=[[0.5], [0.0], [1.0]],
        follower_betas=[
            {"kind": "table", "values": [0.9, 0.0]},
            {"kind": "table", "values": [0.0, 0.9]},
        ],
    )
    sc = build_scenario(cfg)
    assert sc.m == 2
    # aligned peaks do overlap
    cfg["schedules"]["crowd"]["betas"][1] = {"kind": "table", "values": [0.9, 0.0]}
    with pytest.raises(ScenarioValidationError) as exc:
        build_scenario(cfg)
    assert "BetaSumExceedsOne" in issue_kinds(exc.value)


def test_degree_out_of_range():
    cfg = well_formed()
    cfg["schedules"]["brand"]["alpha"] = constant(1.5)
    with pytest.raises(ScenarioValidationError) as exc:
        build_scenario(cfg)
    assert "DegreeOutOfRange" in issue_kinds(exc.value)


def test_partition_gap_rejected():
    cfg = well_formed()
    cfg["groups"][0]["members"] = [0]
    cfg["groups"][1]["members"] = [2]  # id 1 missing
    with pytest.raises(ScenarioValidationError) as exc:
        build_scenario(cfg)
    assert "PartitionIncomplete" in issue_kinds(exc.value)


@pytest.mark.parametrize("huge", [10**18, 2**63])
def test_partition_gap_with_huge_id_rejected(huge):
    # the gap test must not build range(huge), and 2**63 fits no int64 id array
    cfg = well_formed()
    cfg["initial_opinions"] = {"explicit": [[0.3], [0.1], [0.2]]}
    cfg["groups"][0]["members"] = [0, 1]
    cfg["groups"][1]["members"] = [huge]
    with pytest.raises(ScenarioValidationError) as exc:
        build_scenario(cfg)
    assert issue_kinds(exc.value) == {"PartitionIncomplete"}


def test_partition_overlap_rejected():
    cfg = well_formed()
    cfg["groups"][0]["members"] = [0, 1]
    cfg["groups"][1]["members"] = [1]
    cfg["initial_opinions"] = {"explicit": [[0.1], [0.2]]}
    with pytest.raises(ScenarioValidationError) as exc:
        build_scenario(cfg)
    assert "PartitionIncomplete" in issue_kinds(exc.value)


def test_empty_leader_group_rejected():
    cfg = well_formed()
    cfg["groups"][1]["members"] = 0
    cfg["initial_opinions"] = {"explicit": [[0.3]]}
    with pytest.raises(ScenarioValidationError) as exc:
        build_scenario(cfg)
    assert "PartitionIncomplete" in issue_kinds(exc.value)


def test_two_follower_groups_rejected():
    cfg = well_formed()
    cfg["groups"].append({"name": "more", "kind": "follower", "members": 1})
    with pytest.raises(ScenarioValidationError) as exc:
        build_scenario(cfg)
    assert "PartitionIncomplete" in issue_kinds(exc.value)


def test_target_dimension_mismatch():
    cfg = well_formed()
    cfg["groups"][1]["target"] = [0.0, 0.0]
    with pytest.raises(ScenarioValidationError) as exc:
        build_scenario(cfg)
    assert "DimensionMismatch" in issue_kinds(exc.value)


def test_non_finite_initial_rejected():
    cfg = well_formed()
    cfg["initial_opinions"] = {"explicit": [[0.3], [math.inf]]}
    with pytest.raises(ScenarioValidationError) as exc:
        build_scenario(cfg)
    assert "NonFinite" in issue_kinds(exc.value)


def test_missing_leader_schedule_rejected():
    cfg = well_formed()
    del cfg["schedules"]["brand"]
    with pytest.raises(ScenarioValidationError) as exc:
        build_scenario(cfg)
    assert "MissingSchedule" in issue_kinds(exc.value)


HUGE = 10**400  # a JSON integer that float() cannot hold


def _set_initial(cfg, spec):
    cfg["initial_opinions"] = spec


@pytest.mark.parametrize("edit, kind", [
    (lambda c: c["schedules"]["brand"].update(alpha=constant(HUGE)), "BadConfig"),
    (lambda c: c["schedules"]["brand"].update(alpha={"kind": "table", "values": [0.5, HUGE]}), "BadConfig"),
    (lambda c: c["schedules"]["brand"].update(alpha={"kind": "geometric_decay", "initial": HUGE, "ratio": 0.5}),
     "BadConfig"),
    (lambda c: c["schedules"]["crowd"].update(
        betas=[{"kind": "seeded_random", "seed": 1, "low": 0.0, "high": HUGE}]), "BadConfig"),
    (lambda c: c["groups"][1].update(target=[HUGE]), "NonFinite"),
    (lambda c: _set_initial(c, {"explicit": [[0.3], [HUGE]]}), "NonFinite"),
    (lambda c: _set_initial(c, {"random": {"distribution": "uniform_box", "low": 0.0, "high": HUGE, "seed": 0}}),
     "BadConfig"),
    (lambda c: c["engine"]["stop"].update(tol=HUGE), "BadConfig"),
    (lambda c: c.update(dimension=HUGE), "DimensionMismatch"),
    (lambda c: c["groups"][0].update(members=HUGE), "BadConfig"),
], ids=["constant", "table", "geometric_decay", "seeded_random", "target", "explicit", "random", "stop_tol",
        "dimension", "member_count"])
def test_integer_beyond_float_range_rejected(edit, kind):
    cfg = well_formed()
    edit(cfg)
    with pytest.raises(ScenarioValidationError) as exc:
        build_scenario(cfg)
    assert issue_kinds(exc.value) == {kind}


def test_errors_are_collected_not_first_only():
    cfg = well_formed()
    cfg["epsilon"] = -1
    cfg["schedules"]["brand"]["alpha"] = constant(2.0)
    with pytest.raises(ScenarioValidationError) as exc:
        build_scenario(cfg)
    kinds = issue_kinds(exc.value)
    assert {"EpsilonNonpositive", "DegreeOutOfRange"} <= kinds


def _set(*path, value=None, drop=False):
    """An edit of a config that puts ``value`` at ``path`` (a copy of it;
    appended where the path ends one past a list), or drops the key at
    ``path``."""
    def edit(cfg):
        node = cfg
        for key in path[:-1]:
            node = node[key]
        if drop:
            del node[path[-1]]
        elif isinstance(node, list) and path[-1] == len(node):
            node.append(copy.deepcopy(value))
        else:
            node[path[-1]] = copy.deepcopy(value)
        return cfg
    return edit


def _both(*edits):
    def edit(cfg):
        for e in edits:
            cfg = e(cfg)
        return cfg
    return edit


_RIVAL = _both(  # a second leader group, so that the betas can sum above 1
    _set("groups", 2, value={"name": "rival", "kind": "leader", "members": 1, "target": [1.0]}),
    _set("initial_opinions", "explicit", 2, value=[0.5]),
    _set("schedules", "rival", value={"alpha": constant(0.5)}),
)
_ALPHA = ("schedules", "brand", "alpha")
_RANDOM = ("initial_opinions", "random")
_BOX = {"distribution": "uniform_box", "low": 0.0, "high": 1.0, "seed": 0}

# one malformed variant of ``well_formed()`` (follower group 'crowd', agent 0;
# leader group 'brand', agent 1, target [0.0]; d = 1) per validation message,
# with every issue it raises
VALIDATION_MESSAGES = [
    (lambda c: [], ["BadConfig: scenario config must be a JSON object"]),
    (_set("extra", value=1), ["BadConfig: scenario: unknown key 'extra'"]),
    (_set("dimension", value=0), ["DimensionMismatch: dimension must be an integer in [1, sys.maxsize], got 0"]),
    (_set("epsilon", value=-1), ["EpsilonNonpositive: epsilon must be a finite positive number, got -1"]),
    (_set("epsilon", value=1e200), ["NonFinite: epsilon 1e+200 is too large: epsilon**2 overflows to inf"]),
    (_set("groups", value=[]), ["BadConfig: groups: must be a nonempty list"]),
    (_set("groups", 1, value=3), ["BadConfig: groups[1]: must be an object"]),
    (_set("groups", 1, "color", value="red"), ["BadConfig: groups[1]: unknown key 'color'"]),
    (_set("groups", 1, "name", value=""), ["BadConfig: groups[1]: needs a nonempty string 'name'"]),
    (_both(_set("groups", 2, value={"name": "brand", "kind": "leader", "members": 1, "target": [1.0]}),
           _set("initial_opinions", "explicit", 2, value=[0.5]),
           _set("schedules", "crowd", "betas", value=[constant(0.2), constant(0.2)])),
     ["PartitionIncomplete: duplicate group name 'brand'"]),
    (_set("groups", 1, "kind", value="boss"), ["BadConfig: groups[1]: kind must be 'follower' or 'leader'"]),
    (_set("groups", 0, "target", value=[0.0]), ["BadConfig: groups[0]: follower group cannot have a target"]),
    (_set("groups", 0, "members", value="x"), ["BadConfig: groups[0]: members must be a count or a list of ids"]),
    (_set("groups", 2, value={"name": "more", "kind": "follower", "members": 1}),
     ["PartitionIncomplete: at most one follower group is allowed"]),
    (_set("groups", 0, "members", value=[0]),
     ["PartitionIncomplete: groups must all use counts or all use explicit id lists"]),
    (_both(_set("groups", 0, "members", value=[0]), _set("groups", 1, "members", value=[0, 1])),
     ["PartitionIncomplete: agent 0 assigned to more than one group"]),
    (_both(_set("groups", 0, "members", value=[0]), _set("groups", 1, "members", value=[2])),
     ["PartitionIncomplete: explicit ids must cover 0..N-1 with no gaps"]),
    (_set("groups", 0, "members", value=2**31),
     ["BadConfig: groups: 2147483649 agents, more than the 2147483647 that int32 neighbor ids can number"]),
    (_set("initial_opinions", "explicit", 2, value=[0.5]),
     ["DimensionMismatch: initial_opinions.explicit: 3 rows, the groups have 2 agents"]),
    (_both(_set("groups", value=[{"name": "crowd", "kind": "follower", "members": 0}]),
           _set("initial_opinions", "explicit", value=[])),
     ["PartitionIncomplete: scenario has no agents"]),
    (_both(_set("groups", 1, "members", value=0), _set("initial_opinions", "explicit", value=[[0.3]])),
     ["PartitionIncomplete: leader group 'brand' is empty"]),
    (_set("groups", 1, "target", drop=True), ["BadConfig: leader group 'brand' needs a 'target'"]),
    (_set("groups", 1, "target", value="x"), ["BadConfig: leader group 'brand': target must be a list of numbers"]),
    (_set("groups", 1, "target", value=[0.0, 0.0]),
     ["DimensionMismatch: leader group 'brand': target has length 2, expected 1"]),
    (_set("groups", 1, "target", value=[math.inf]),
     ["NonFinite: leader group 'brand': target has non-finite coordinates"]),
    (_set("initial_opinions", value={}),
     ["BadConfig: initial_opinions: must be {'explicit': ...} or {'random': ...}"]),
    (_set("initial_opinions", value={"uniform": 1}),
     ["BadConfig: initial_opinions: must be {'explicit': ...} or {'random': ...}"]),
    (_set("initial_opinions", "explicit", 0, value=[0.3, 0.3]),
     ["DimensionMismatch: initial_opinions.explicit: need 2 rows of 1 numbers"]),
    (_set("initial_opinions", "explicit", 0, value=["x"]),
     ["BadConfig: initial_opinions.explicit: entries must be numbers"]),
    (_set("initial_opinions", "explicit", 0, value=[math.nan]),
     ["NonFinite: initial_opinions.explicit: entries must be finite"]),
    (_set("initial_opinions", value={"random": 3}), ["BadConfig: initial_opinions.random: must be an object"]),
    (_set("initial_opinions", value={"random": dict(_BOX, extra=1)}),
     ["BadConfig: initial_opinions.random: unknown key 'extra'"]),
    (_set("initial_opinions", value={"random": dict(_BOX, distribution="normal")}),
     ["BadConfig: initial_opinions.random: only 'uniform_box' is supported"]),
    (_both(_set("initial_opinions", value={"random": _BOX}), _set("dimension", value=2**30),
           _set("groups", 1, "target", drop=True)),
     ["BadConfig: leader group 'brand' needs a 'target'",
      "BadConfig: initial_opinions.random: 2 agents x 1073741824 dimensions, more than 2147483647 coordinates"]),
    (_set("initial_opinions", value={"random": dict(_BOX, low=[0.0, 0.0])}),
     ["BadConfig: initial_opinions.random: low must be a finite number or list of 1 numbers"]),
    (_set("initial_opinions", value={"random": dict(_BOX, seed=1.5)}),
     ["BadConfig: initial_opinions.random: needs an integer 'seed'"]),
    (_set("initial_opinions", value={"random": dict(_BOX, low=0.6, high=0.4)}),
     ["BadConfig: initial_opinions.random: low must not exceed high"]),
    (_set("engine", value=3), ["BadConfig: engine: must be an object"]),
    (_set("engine", "threads", value=2), ["BadConfig: engine: unknown key 'threads'"]),
    (_set("engine", "neighbor_strategy", value="kd_tree"), ["BadConfig: engine: unknown neighbor_strategy 'kd_tree'"]),
    (_set("engine", "horizon", value=-1), ["BadConfig: engine: horizon must be a nonnegative integer"]),
    (_set("engine", "grid_dim_cap", value=0), ["BadConfig: engine: grid_dim_cap must be a positive integer"]),
    (_set("engine", "stop", value=3), ["BadConfig: engine.stop: must be an object"]),
    (_set("engine", "stop", "every", value=2), ["BadConfig: engine.stop: unknown key 'every'"]),
    (_set("engine", "stop", "tol", value=-1e-9), ["BadConfig: engine.stop: tol must be null or a positive number"]),
    (_set("engine", "stop", "window", value=0), ["BadConfig: engine.stop: window must be an integer >= 1"]),
    (_set("schedules", value=3),
     ["BadConfig: schedules: must be an object keyed by group name",
      "MissingSchedule: follower group 'crowd' has no schedule entry",
      "MissingSchedule: leader group 'brand' has no schedule entry"]),
    (_set("schedules", "ghost", value={"alpha": constant(0.5)}), ["BadConfig: schedules: unknown group 'ghost'"]),
    (_set("schedules", "brand", drop=True), ["MissingSchedule: leader group 'brand' has no schedule entry"]),
    (_set("schedules", "crowd", drop=True), ["MissingSchedule: follower group 'crowd' has no schedule entry"]),
    (_set("schedules", "brand", value=3), ["BadConfig: schedules.brand: must be an object"]),
    (_set("schedules", "brand", value={}),
     ["MissingSchedule: schedules.brand: leader group needs an 'alpha' schedule"]),
    (_set("schedules", "crowd", value={}),
     ["MissingSchedule: schedules.crowd: follower group needs a 'betas' schedule list"]),
    (_set("schedules", "crowd", "betas", value=[]),
     ["BadConfig: schedules.crowd: betas must list one schedule per leader group (1)"]),
    (_both(_RIVAL, _set("schedules", "crowd", "betas", value=[constant(0.6), constant(0.6)])),
     ["BetaSumExceedsOne: schedules.crowd: betas can sum to 1.2 > 1"]),
    (_set("schedules", "brand", "betas", value=[constant(0.5)]), ["BadConfig: schedules.brand: unknown key 'betas'"]),
    (_set("schedules", "crowd", "per_agent", value=3), ["BadConfig: schedules.crowd.per_agent: must be an object"]),
    (_set("schedules", "crowd", "per_agent", value={"00": {"betas": [constant(0.1)]}}),
     ["BadConfig: schedules.crowd.per_agent: bad agent id '00'"]),
    (_set("schedules", "crowd", "per_agent", value={"1": {"betas": [constant(0.1)]}}),
     ["BadConfig: schedules.crowd.per_agent: agent 1 not in group"]),
    # an override holds only its degree key: a nested per_agent is rejected, not silently dropped
    (_set("schedules", "brand", "per_agent", value={"1": {"alpha": constant(0.1), "per_agent": {}}}),
     ["BadConfig: schedules.brand.per_agent[1]: unknown key 'per_agent'"]),
    (_set("schedules", "crowd", "per_agent", value={"0": {"betas": [constant(0.1)], "per_agent": {"0": {}}}}),
     ["BadConfig: schedules.crowd.per_agent[0]: unknown key 'per_agent'"]),
    (_set(*_ALPHA, value=0.5), ["BadConfig: schedules.brand.alpha: schedule spec must be an object"]),
    (_set(*_ALPHA, value={"kind": "linear", "value": 0.5}),
     ["BadConfig: schedules.brand.alpha: unknown schedule kind 'linear'"]),
    (_set(*_ALPHA, value=dict(constant(0.5), ratio=0.5)),
     ["BadConfig: schedules.brand.alpha: unknown key 'ratio'"]),
    (_set(*_ALPHA, value={"kind": "seeded_random", "seed": "7", "low": 0.1, "high": 0.2}),
     ["BadConfig: schedules.brand.alpha: seeded_random needs an integer 'seed'"]),
    (_set(*_ALPHA, value={"kind": "geometric_decay", "initial": 0.5, "ratio": None}),
     ["BadConfig: schedules.brand.alpha: geometric_decay needs finite numbers 'initial' and 'ratio'"]),
    (_set(*_ALPHA, value={"kind": "table", "values": []}),
     ["BadConfig: schedules.brand.alpha: table needs finite numbers 'values'"]),
    (_set(*_ALPHA, value=constant(1.5)),
     ["DegreeOutOfRange: schedules.brand.alpha: constant 'value' must lie in [0, 1]"]),
    (_set(*_ALPHA, value={"kind": "seeded_random", "seed": 7, "low": 0.7, "high": 0.3}),
     ["DegreeOutOfRange: schedules.brand.alpha: seeded_random low 0.7 exceeds high 0.3"]),
    (_set("schedules", "crowd", "betas", value=[{"kind": "seeded_random", "seed": 7, "low": 0.7, "high": 0.3}]),
     ["DegreeOutOfRange: schedules.crowd.betas[0]: seeded_random low 0.7 exceeds high 0.3"]),
]


@pytest.mark.parametrize("edit, messages", VALIDATION_MESSAGES)
def test_validation_messages(edit, messages):
    with pytest.raises(ScenarioValidationError) as exc:
        build_scenario(edit(well_formed()))
    assert [str(issue) for issue in exc.value.issues] == messages


_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-10, 10),
    st.integers(2**1024, HUGE) | st.integers(-HUGE, -(2**1024)),  # beyond float range
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["follower", "leader", "constant", "members", "x", ""]),
)
_json_values = st.recursive(
    _json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(
            st.sampled_from(
                ["dimension", "epsilon", "groups", "initial_opinions", "schedules",
                 "engine", "name", "kind", "members", "target", "alpha", "betas", "value"]
            ),
            children,
            max_size=5,
        ),
    ),
    max_leaves=25,
)


@given(_json_values)
@settings(max_examples=300, deadline=None)
def test_validation_is_total(raw):
    # adversarial configs either build or raise the validation error, never crash
    try:
        build_scenario(raw)
    except ScenarioValidationError:
        pass


# Puts each hostile value at every key path of every file in scenarios/ (the
# first 4 entries of a list) and prints the configs that neither build nor
# raise the validation error.
_STRUCTURE_WALK = """
import copy, json
from pathlib import Path
from lfmix import ScenarioValidationError, build_scenario

HOSTILE = [True, None, "x", [], [[]], {}, 10**400, -1, 2**63, 10**12, float("nan"), [None]]

def paths(node, path=()):
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node[:4]) if isinstance(node, list) else ()
    for key, child in items:
        yield from paths(child, path + (key,))

def put(raw, path, value):
    if not path:
        return value
    raw = copy.deepcopy(raw)
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return raw

crashes = []
for file in sorted(Path(SCENARIOS).glob("*.json")):
    base = json.loads(file.read_text())
    for path in paths(base):
        for value in HOSTILE:
            try:
                build_scenario(put(base, path, copy.deepcopy(value)))
            except ScenarioValidationError:
                pass
            except Exception as exc:
                crashes.append(f"{file.name} {list(path)} = {value!r}: {type(exc).__name__}: {exc}")
print(json.dumps(crashes))
"""


def test_validation_is_total_over_structure(tmp_path):
    # in a child capped at 1 GiB, so that an allocation sized by a raw value fails there
    scenarios = Path(__file__).resolve().parents[1] / "scenarios"
    done = run_in_child(f"SCENARIOS = {str(scenarios)!r}\n" + _STRUCTURE_WALK, tmp_path)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------


def test_table_holds_final_value():
    t = Table((0.1, 0.7, 0.3))
    assert t.at(0, 0) == 0.1
    assert t.at(0, 2) == 0.3
    assert t.at(0, 99) == 0.3


def test_geometric_decay_values():
    g = GeometricDecay(1.0, 0.5)
    assert g.at(0, 0) == 1.0
    assert g.at(0, 3) == 0.125
    assert 0.0 <= g.at(0, 10_000) <= 1.0


def test_seeded_random_is_pure_and_bounded():
    s = SeededRandom(1234, 0.2, 0.7)
    vals = [s.at(i, t) for i in range(5) for t in range(5)]
    again = [s.at(i, t) for i in range(5) for t in range(5)]
    assert vals == again
    assert all(0.2 <= v <= 0.7 for v in vals)
    assert len(set(vals)) > 10  # draws actually vary


def test_seeded_random_streams_differ_by_seed():
    a = SeededRandom(1, 0.0, 1.0)
    b = SeededRandom(2, 0.0, 1.0)
    assert [a.at(0, t) for t in range(8)] != [b.at(0, t) for t in range(8)]


@given(
    st.sampled_from(["constant", "table", "geometric_decay", "seeded_random"]),
    st.integers(0, 50),
    st.integers(0, 50),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=200, deadline=None)
def test_schedules_stay_in_unit_interval(kind, agent, t, seed):
    if kind == "constant":
        s = Constant(0.37)
    elif kind == "table":
        s = Table((0.9, 0.1, 0.5))
    elif kind == "geometric_decay":
        s = GeometricDecay(0.8, 0.9)
    else:
        s = SeededRandom(seed, 0.1, 0.6)
    v = s.at(agent, t)
    assert 0.0 <= v <= 1.0
    assert v == s.at(agent, t)
    assert v <= s.peak(t) + 1e-15


# (seed, *counters), derive_key, unit_uniform: values of the pure-int
# splitmix64 implementation the uint64 one replaced
PINNED_DRAWS = [
    ((0,), 16294208416658607535, 0.8833108082136426),
    ((0, 0), 0, 0.0),
    ((1, 0), 2442277658713457816, 0.13239613716949705),
    ((-1, 0), 2862039115465172983, 0.1551514513362915),
    ((-(2**63), 5, 7), 7211589579280660154, 0.39094105444649574),
    ((2**64, 0), 0, 0.0),
    ((2**64 + 12345, 3, 2**40), 10114251244595284202, 0.5482946586227212),
    ((42, 2**40), 3169979485210606157, 0.17184493222999098),
    ((42, 0, 0), 17804110779945572527, 0.9651627793394789),
    ((2**70 - 1, 2**40, 0), 15904953146613253436, 0.8622092377419124),
    ((-7, 2**40, 2**40), 4772914231072107982, 0.25874019892076794),
    ((123456789, 17, 3), 2321136391735801225, 0.12582905592775595),
    ((5, -1), 14037225222889099931, 0.760959504116234),
]


@pytest.mark.parametrize("args, key, draw", PINNED_DRAWS)
def test_draws_match_pinned_values_as_ints_and_arrays(args, key, draw):
    seed, *counters = args
    assert int(derive_key(seed, *counters)) == key
    assert float(unit_uniform(seed, *counters)) == draw
    # the same draw with its last argument as an int64 array
    *head, last = args
    as_array = (*head, np.array([last, last], dtype=np.int64))
    assert derive_key(*as_array).tolist() == [key, key]
    assert unit_uniform(*as_array).tolist() == [draw, draw]


def test_array_draws_broadcast_and_equal_scalar_draws():
    counters = np.array([0, 1, 5, -1, 2**40, 2**62], dtype=np.int64)
    for seed in (0, -1, -(2**63), 2**64, 2**64 + 12345, 2**70 - 1, 123456789):
        keys = derive_key(seed, counters[:, None], counters)
        draws = unit_uniform(seed, counters[:, None], counters)
        assert keys.dtype == np.uint64 and keys.shape == (6, 6) and draws.dtype == np.float64
        for a, ca in enumerate(counters.tolist()):
            for b, cb in enumerate(counters.tolist()):
                assert int(keys[a, b]) == int(derive_key(seed, ca, cb))
                assert draws[a, b] == unit_uniform(seed, ca, cb)
    seeds = np.array([0, -1, -(2**63), 123456789], dtype=np.int64)
    assert derive_key(seeds, 7).tolist() == [int(derive_key(s, 7)) for s in seeds.tolist()]


@pytest.mark.parametrize("schedule", [
    Constant(0.37),
    Table((0.9, 0.1, 0.5)),
    GeometricDecay(0.8, 0.9),
    SeededRandom(77, 0.1, 0.6),
    RemappedAgents(SeededRandom(5, 0.0, 1.0), np.array([9, 3, 40, 7, 0, 12])),
    RemappedAgents(Table((0.2, 0.4)), np.array([9, 3, 40, 7, 0, 12])),
])
def test_schedule_at_id_array_equals_scalar_queries(schedule):
    ids = np.array([0, 3, 1, 5, 5, 2])
    for t in (0, 1, 2, 7, 1000):
        values = np.broadcast_to(schedule.at(ids, t), ids.shape)
        assert values.tolist() == [schedule.at(int(i), t) for i in ids]
        if isinstance(schedule, RemappedAgents):
            assert values.tolist() == [schedule.inner.at(int(schedule.original_ids[i]), t) for i in ids]


class HalfStep(Schedule):
    """A custom kind with ``at`` only: the base class's ``at_steps`` loops over it."""

    def at(self, agent, t):
        return np.asarray(agent) * 0.0 + 0.5**t


@pytest.mark.parametrize("schedule", [
    Constant(0.37),
    Table((0.9, 0.1, 0.5)),
    GeometricDecay(0.8, 0.9),
    GeometricDecay(1.0, 0.7),
    SeededRandom(77, 0.1, 0.6),
    RemappedAgents(SeededRandom(5, 0.0, 1.0), np.array([9, 3, 40, 7, 0, 12])),
    RemappedAgents(Table((0.2, 0.4)), np.array([9, 3, 40, 7, 0, 12])),
    HalfStep(),
])
def test_schedule_at_steps_equals_stacked_queries(schedule):
    for ids in (np.array([0, 3, 1, 5, 5, 2]), np.array([4]), np.array([], dtype=np.int64)):
        for ts in (np.array([0, 1, 2, 7, 1000]), np.arange(3, 40), np.array([5]), np.arange(0)):
            table = schedule.at_steps(ids, ts)
            stacked = [np.broadcast_to(schedule.at(ids, int(t)), ids.shape) for t in ts]
            expected = np.stack(stacked) if stacked else np.empty((0, ids.size))
            assert table.shape == (ts.size, ids.size)
            assert table.dtype == expected.dtype and table.tobytes() == expected.tobytes()


def test_only_built_in_kinds_are_tabled():
    inner = SeededRandom(5, 0.0, 1.0)
    assert all(tabled(s) for s in (Constant(0.1), Table((0.2,)), GeometricDecay(0.5, 0.5), inner,
                                   RemappedAgents(RemappedAgents(inner, np.arange(3)), np.arange(3))))
    assert not any(tabled(s) for s in (HalfStep(), RemappedAgents(HalfStep(), np.arange(3)), object()))


def test_per_agent_override_applies():
    sc = scenario(
        followers=3,
        leader_groups=[("brand", 1, [0.0], constant(0.5))],
        initial=[[0.1], [0.2], [0.3], [0.0]],
        follower_betas=[constant(0.2)],
        per_agent_betas={1: [constant(0.7)]},
    )
    assert [(tuple(s.at(ids, 0) for s in group), ids.tolist()) for group, ids in sc.betas] == [
        ((0.2,), [0, 2]),
        ((0.7,), [1]),
    ]
    assert [(s.at(ids, 0), ids.tolist()) for s, ids in sc.alphas] == [(0.5, [3])]
    assert realized_betas(sc, 0)[:, 0].tolist() == [0.2, 0.7, 0.2, 0.0]
    assert realized_alpha(sc, 0).tolist() == [0.0, 0.0, 0.0, 0.5]


def test_immutability_of_state_and_partition():
    sc = scenario(
        followers=1,
        leader_groups=[("brand", 1, [0.0], constant(0.5))],
        initial=[[0.3], [0.1]],
        follower_betas=[constant(0.5)],
    )
    with pytest.raises(ValueError):
        sc.initial_state.opinions[0, 0] = 9.0
    with pytest.raises(ValueError):
        sc.partition.group_of[0] = 5


def test_partition_ids_come_from_its_codes():
    cfg = config(
        leader_groups=[("a", 2, [0.0], constant(0.5)), ("b", 1, [1.0], constant(0.5))],
        followers=2,
        initial=[[0.0]] * 5,
        follower_betas=[constant(0.2), constant(0.2)],
    )
    cfg["groups"] = [dict(g, members=ids) for g, ids in zip(cfg["groups"], ([4, 0], [3, 1], [2]))]
    part = build_scenario(cfg).partition
    assert [f.name for f in dataclasses.fields(part)] == ["group_of", "leader_names", "follower_name"]
    assert part.group_of.tolist() == [0, 1, 2, 1, 0] and part.m == 2
    assert part.follower_ids.tolist() == [0, 4]
    assert [ids.tolist() for ids in part.leader_ids] == [[1, 3], [2]]
    for ids in (part.follower_ids, *part.leader_ids):
        assert ids.dtype == np.int64 and not ids.flags.writeable
    assert part.leader_ids is part.leader_ids  # derived once
    leaders_only = build_scenario(config(leader_groups=[("a", 2, [0.0], constant(0.5))], initial=[[0.0]] * 2))
    assert leaders_only.partition.follower_ids.tolist() == [] and leaders_only.partition.follower_name is None


def test_a_scenario_without_an_engine_block_takes_the_engine_defaults():
    cfg = well_formed()
    del cfg["engine"]
    sc = build_scenario(cfg)
    assert sc.engine == EngineOptions()
    assert sc.canonical["engine"] == {"neighbor_strategy": "auto", "horizon": EngineOptions().horizon,
                                      "stop": {"tol": None, "window": EngineOptions().stop_window},
                                      "grid_dim_cap": 6}


def test_one_beta_spec_object_serves_every_leader_group():
    cfg = config(
        followers=1,
        leader_groups=[("a", 1, [0.0], constant(0.5)), ("b", 1, [1.0], constant(0.5))],
        initial=[[0.5], [0.0], [1.0]],
    )
    cfg["schedules"]["crowd"]["betas"] = constant(0.25)
    sc = build_scenario(cfg)
    assert sc.canonical["schedules"]["crowd"]["betas"] == [constant(0.25)] * 2
    assert realized_betas(sc, 0)[0].tolist() == [0.25, 0.25]


def test_a_follower_group_needs_no_schedule_entry_without_leader_groups():
    cfg = config(followers=2, initial=[[0.0], [1.0]])
    del cfg["schedules"]["crowd"]
    sc = build_scenario(cfg)
    assert sc.canonical["schedules"] == {"crowd": {"betas": []}} and sc.betas == ()


@pytest.mark.parametrize("overrides, message", [
    ({"x": {"betas": [constant(0.1)]}}, "BadConfig: schedules.crowd.per_agent: bad agent id 'x'"),
    ({"0": {"betas": [{"kind": "nope"}]}},
     "BadConfig: schedules.crowd.per_agent[0].betas[0]: unknown schedule kind 'nope'"),
])
def test_a_bad_per_agent_override_is_an_issue(overrides, message):
    cfg = well_formed()
    cfg["schedules"]["crowd"]["per_agent"] = overrides
    with pytest.raises(ScenarioValidationError) as exc:
        build_scenario(cfg)
    assert [str(issue) for issue in exc.value.issues] == [message]
