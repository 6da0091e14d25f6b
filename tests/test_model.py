"""Domain types, validation, and degree schedules."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import DimensionMismatch, config, constant, distance, scenario
from lfmix import ScenarioValidationError, build_scenario
from lfmix.dynamics import realized_alpha, realized_betas
from lfmix.schedules import Constant, GeometricDecay, RemappedAgents, SeededRandom, Table
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
    assert sc.partition.group_name_of(0) == "crowd"
    assert sc.partition.group_name_of(1) == "brand"
    assert np.array_equal(sc.initial_state.opinions, [[0.3], [0.1]])


def test_epsilon_zero_rejected():
    cfg = well_formed()
    cfg["epsilon"] = 0
    with pytest.raises(ScenarioValidationError) as exc:
        build_scenario(cfg)
    assert "EpsilonNonpositive" in issue_kinds(exc.value)


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


def test_errors_are_collected_not_first_only():
    cfg = well_formed()
    cfg["epsilon"] = -1
    cfg["schedules"]["brand"]["alpha"] = constant(2.0)
    with pytest.raises(ScenarioValidationError) as exc:
        build_scenario(cfg)
    kinds = issue_kinds(exc.value)
    assert {"EpsilonNonpositive", "DegreeOutOfRange"} <= kinds


_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-10, 10),
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
    assert v <= s.upper_bound() + 1e-15


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
