"""Update rules, synchronous stepping, trajectories, and determinism."""

import copy
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    agent_pairs,
    config,
    constant,
    follower_update,
    grouping_oracle,
    hk_reference_step,
    leader_update,
    neighbor_sets,
    random_mixed_config,
    scenario,
)
from lfmix import ScheduleViolation, SystemState, build_scenario, compute_neighbors, load_scenario, run
from lfmix import dynamics, neighbors
from lfmix.dynamics import (
    FAULT_MEAN_SHIFT,
    STOP_CONVERGED,
    STOP_HORIZON,
    STOP_STAGNATED,
    realized_alpha,
    realized_betas,
    step,
)
from lfmix.errors import NonFiniteState
from lfmix.neighbors import row_classes
from lfmix.analysis import measure
from lfmix.schedules import Constant, GeometricDecay, SeededRandom, Table

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def two_leader_scenario(alpha=0.5):
    return scenario(
        epsilon=1.0,
        leader_groups=[("brand", 2, [0.0], constant(alpha))],
        initial=[[0.2], [0.4]],
        horizon=10,
    )


# ---------------------------------------------------------------------------
# per-agent updates
# ---------------------------------------------------------------------------


def test_leader_update_alpha_zero_snaps_to_target():
    sc = two_leader_scenario()
    own, _ = neighbor_sets(sc)[0]
    out = leader_update(sc.initial_state.opinions, own, 0.0, sc.target(1))
    assert np.array_equal(out, sc.target(1))


def test_leader_update_alpha_one_alone_is_identity():
    sc = scenario(
        epsilon=0.05,
        leader_groups=[("brand", 2, [0.0], constant(1.0))],
        initial=[[0.2], [0.4]],  # not mutual neighbors at eps 0.05
    )
    own, _ = neighbor_sets(sc)[0]
    out = leader_update(sc.initial_state.opinions, own, 1.0, sc.target(1))
    assert np.array_equal(out, sc.initial_state.opinions[0])


def test_leader_update_hand_example():
    # mean (0.2 + 0.4)/2 = 0.3; 0.5 * 0.3 + 0.5 * 0 = 0.15
    sc = two_leader_scenario()
    sets = neighbor_sets(sc)
    for i in (0, 1):
        out = leader_update(sc.initial_state.opinions, sets[i][0], 0.5, sc.target(1))
        assert out[0] == pytest.approx(0.15, abs=1e-12)


def follower_with_leader(leader_at, beta=0.4, epsilon=1.0):
    return scenario(
        epsilon=epsilon,
        followers=1,
        leader_groups=[("brand", 1, [0.0], constant(0.5))],
        initial=[[0.5], [leader_at]],
        follower_betas=[constant(beta)],
    )


def test_follower_update_mixes_leader_mean():
    # 0.6 * 0.5 + 0.4 * 0.3 = 0.42
    sc = follower_with_leader(0.3)
    own, leaders = neighbor_sets(sc)[0]
    out = follower_update(sc.initial_state.opinions, own, leaders, (0.4,))
    assert out[0] == pytest.approx(0.42, abs=1e-12)


def test_follower_update_masks_unreachable_group():
    sc = follower_with_leader(5.0)  # leader out of confidence range
    own, leaders = neighbor_sets(sc)[0]
    assert leaders[0].size == 0
    out = follower_update(sc.initial_state.opinions, own, leaders, (0.4,))
    assert out[0] == 0.5  # exact: full weight back on the follower mean


def test_follower_update_all_beta_zero_is_plain_averaging():
    sc = scenario(
        epsilon=1.0,
        followers=3,
        leader_groups=[("brand", 1, [0.0], constant(0.5))],
        initial=[[0.1], [0.3], [0.9], [0.2]],
        follower_betas=[constant(0.0)],
    )
    own, leaders = neighbor_sets(sc)[0]
    out = follower_update(sc.initial_state.opinions, own, leaders, (0.0,))
    expected = np.sum(sc.initial_state.opinions[own], axis=0) / len(own)
    assert np.array_equal(out, expected)


# ---------------------------------------------------------------------------
# step
# ---------------------------------------------------------------------------


def test_step_two_leader_example():
    sc = two_leader_scenario()
    nxt, digest = step(sc.initial_state, sc, 0)
    assert nxt.t == 1
    assert nxt.opinions[:, 0] == pytest.approx([0.15, 0.15], abs=1e-12)
    assert digest.max_sum_error <= 1e-12
    assert digest.min_weight >= 0.0


def test_single_follower_is_fixed_point_bitwise():
    sc = scenario(followers=1, initial=[[0.37]], epsilon=0.5, horizon=5, stop_tol=None)
    state = sc.initial_state
    for t in range(5):
        state, _ = step(state, sc, t)
        assert np.array_equal(state.opinions, sc.initial_state.opinions)


def test_all_agents_at_target_is_fixed_point():
    sc = scenario(
        followers=2,
        leader_groups=[("brand", 2, [0.0, 0.0], constant(0.3))],
        dimension=2,
        initial=[[0.0, 0.0]] * 4,
        follower_betas=[constant(0.4)],
    )
    nxt, _ = step(sc.initial_state, sc, 0)
    assert np.array_equal(nxt.opinions, sc.initial_state.opinions)

    # nonzero target: fixed in exact arithmetic, so only ulp-level drift allowed
    sc2 = scenario(
        followers=2,
        leader_groups=[("brand", 2, [0.1], constant(0.3))],
        initial=[[0.1]] * 4,
        follower_betas=[constant(0.4)],
    )
    nxt2, _ = step(sc2.initial_state, sc2, 0)
    assert np.allclose(nxt2.opinions, 0.1, atol=1e-15)


def test_step_weights_invariants_random_scenarios():
    """Each new opinion lies in the bounding box of the time-t opinions it
    may mix (its naive neighbor sets) and the targets it may move toward;
    the digest certifies positive weights that sum to 1."""
    rng = np.random.default_rng(21)
    for _ in range(25):
        sc = build_scenario(random_mixed_config(rng, horizon=3))
        group_of = sc.partition.group_of
        state = sc.initial_state
        for t in range(3):
            nxt, digest = step(state, sc, t)
            assert digest.min_weight > 0.0
            assert digest.max_sum_error <= 1e-12
            for i, (own, leaders) in enumerate(neighbor_sets(sc, state)):
                if group_of[i]:
                    gens = [state.opinions[own], sc.targets[group_of[i] - 1][None, :]]
                else:
                    gens = [state.opinions[ids] for ids in (own, *leaders)]
                gens = np.vstack(gens)
                assert (nxt.opinions[i] >= gens.min(axis=0) - 1e-12).all()
                assert (nxt.opinions[i] <= gens.max(axis=0) + 1e-12).all()
            state = nxt


def reference_step(state, sc, t, fault=None):
    """Per-agent step from the naive neighbor pairs split per agent and the
    references, and the neighbor-pair count the digest reports: own-group
    sets of all agents plus the leader sets a follower mixes with a nonzero
    beta. ``fault`` is ``step``'s."""
    x = state.opinions
    new = np.empty_like(x)
    alphas, all_betas = realized_alpha(sc, t).tolist(), realized_betas(sc, t).tolist()
    shift = dynamics._MEAN_SHIFT if fault == FAULT_MEAN_SHIFT else None
    pairs = 0
    for i, (own, leaders) in enumerate(neighbor_sets(sc, state)):
        code = sc.partition.group_of[i]
        pairs += own.size
        if code:
            new[i] = leader_update(x, own, alphas[i], sc.target(code), shift)
        else:
            betas = all_betas[i]
            new[i] = follower_update(x, own, leaders, betas, shift)
            pairs += sum(ids.size for ids, b in zip(leaders, betas) if ids.size and b != 0.0)
    return new, pairs


def reference_weights(state, sc, t):
    """The digest's ``min_weight`` and ``max_sum_error``, agent by agent from
    the naive sets. An agent puts its degree (alpha, or 1 less its masked
    betas) on each member of its own set, each unmasked beta on each member
    of that group's set, and, a leader, 1 - alpha on its target; the error
    is |1 - the sum of those weights|, added set by set, the target last."""
    alphas, all_betas = realized_alpha(sc, t).tolist(), realized_betas(sc, t).tolist()
    smallest, error = math.inf, 0.0
    for i, (own, leaders) in enumerate(neighbor_sets(sc, state)):
        if sc.partition.group_of[i]:
            sets, target = [(alphas[i], own.size)], 1.0 - alphas[i]
        else:
            masked = [b if ids.size else 0.0 for ids, b in zip(leaders, all_betas[i])]
            total = 0.0
            for b in masked:
                total += b
            sets, target = [(1.0 - total, own.size)] + [(b, ids.size) for b, ids in zip(masked, leaders)], 0.0
        total = 0.0
        for w, size in sets:
            each = w / max(size, 1)
            total += each * size
            if w > 0.0:
                smallest = min(smallest, each)
        if target > 0.0:
            smallest = min(smallest, target)
        error = max(error, abs(1.0 - (total + target)))
    return smallest, error


def dense_mixed_config(rng, d, n_followers, leader_sizes, epsilon, spread):
    """Followers and leaders packed so that sets reach numpy's pairwise-sum
    thresholds (8 and 129), plus one far follower that sees no leader."""
    leader_groups = [
        (f"g{k}", size, rng.uniform(0.0, 1.0, size=d).round(6).tolist(),
         {"kind": "seeded_random", "seed": int(rng.integers(0, 2**31)), "low": 0.0, "high": 1.0})
        for k, size in enumerate(leader_sizes)
    ]
    n = n_followers + sum(leader_sizes)
    opinions = rng.uniform(0.0, spread, size=(n, d))
    opinions[0] = 50.0
    betas = [{"kind": "seeded_random", "seed": int(rng.integers(0, 2**31)), "low": 0.0, "high": 0.9 / len(leader_sizes)}
             for _ in leader_sizes]
    betas[-1] = constant(0.0)
    return config(dimension=d, epsilon=epsilon, followers=n_followers, leader_groups=leader_groups,
                  initial=opinions.tolist(), follower_betas=betas)


PARTITION_KINDS = ("interleaved", "leaders_first", "no_followers")


def regrouped(cfg, rng, kind):
    """``cfg``, whose groups are member counts with the followers first, with
    its groups laid out another way: ``interleaved`` gives each group an
    explicit list of ids drawn at random, ``leaders_first`` lists the leader
    groups before the follower group, and ``no_followers`` drops the
    follower group and, for explicit opinions, its rows."""
    cfg = copy.deepcopy(cfg)
    followers = [g for g in cfg["groups"] if g["kind"] == "follower"]
    leaders = [g for g in cfg["groups"] if g["kind"] == "leader"]
    if kind == "interleaved":
        ids = rng.permutation(sum(g["members"] for g in cfg["groups"])).tolist()
        for g in cfg["groups"]:
            g["members"], ids = sorted(ids[:g["members"]]), ids[g["members"]:]
    elif kind == "leaders_first":
        cfg["groups"] = leaders + followers
    else:
        cfg["groups"] = leaders
        for g in followers:
            del cfg["schedules"][g["name"]]
            if "explicit" in cfg["initial_opinions"]:
                del cfg["initial_opinions"]["explicit"][:g["members"]]
    return cfg


@pytest.mark.parametrize("d", [1, 2, 3, 6, 8])
def test_step_equals_per_agent_references_bitwise(d):
    rng = np.random.default_rng(100 + d)
    cases = [
        build_scenario(dense_mixed_config(rng, d, 180, [12, 140], epsilon=0.5 * np.sqrt(d), spread=1.0)),
        build_scenario(dense_mixed_config(rng, d, 40, [9, 3, 20], epsilon=0.3 * np.sqrt(d), spread=1.0)),
    ]
    cases += [
        build_scenario(random_mixed_config(rng, n_followers_hi=80, leader_size_hi=20, d_lo=d, d_hi=d, horizon=3))
        for _ in range(20)
    ]
    # groups that are not followers-first member counts
    for kind in PARTITION_KINDS:
        cases.append(build_scenario(regrouped(
            dense_mixed_config(rng, d, 40, [9, 3, 20], epsilon=0.3 * np.sqrt(d), spread=1.0), rng, kind)))
        cases += [
            build_scenario(regrouped(
                random_mixed_config(rng, n_followers_hi=40, leader_size_hi=20, d_lo=d, d_hi=d, horizon=3), rng, kind))
            for _ in range(3)
        ]
    # signed zeros: a -0.0 degree and target, betas of 0.0 and -0.0 toward reachable groups, opinions of both signs
    cases.append(scenario(
        dimension=d,
        followers=3,
        leader_groups=[("a", 2, [-0.0] * d, constant(-0.0)), ("b", 2, [0.0] * d, constant(0.5))],
        initial=[[-0.0] * d, [-0.0] * d, [0.0] * d, [0.0] * d, [-0.0] * d, [-0.0] * d, [0.0] * d],
        follower_betas=[constant(0.0), constant(-0.0)],
    ))
    # collapsed states: opinions drawn from a few rows, 0.0, -0.0 and a mix of
    # both among them, so that rows repeat within and across groups and their
    # classes' members interleave; seeded-random degrees split the classes of
    # equal leader rows again after a step
    for pool in (4, 12):
        cfg = dense_mixed_config(rng, d, 90, [10, 4, 15], epsilon=0.4 * np.sqrt(d), spread=1.0)
        rows = rng.uniform(0.0, 1.0, size=(pool, d)).round(3)
        rows[:3] = 0.0
        rows[1] = -0.0
        rows[2, 0] = -0.0
        cfg["initial_opinions"]["explicit"] = rows[rng.integers(0, pool, size=119)].tolist()
        cases += [build_scenario(cfg), build_scenario(regrouped(cfg, rng, "interleaved"))]
    sizes = []
    unreachable = negative_zeros = collapsed = splits = 0
    for sc in cases:
        state = sc.initial_state
        for t in range(3):
            sets = neighbor_sets(sc, state)
            sizes += [own.size for own, _ in sets]
            unreachable += sum(ids.size == 0 for i in sc.partition.follower_ids.tolist() for ids in sets[i][1])
            nxt, digest = step(state, sc, t)
            expected, pairs = reference_step(state, sc, t)
            assert nxt.opinions.tobytes() == expected.tobytes()  # -0.0 too: trajectory.csv writes repr
            assert digest.neighbor_pairs == pairs
            negative_zeros += int((np.signbit(nxt.opinions) & (nxt.opinions == 0.0)).sum())
            collapsed += digest.classes < sc.n_agents
            group_of = sc.partition.group_of
            splits += row_classes(nxt.opinions, group_of).reps.size > row_classes(state.opinions, group_of).reps.size
            state = nxt
    assert max(sizes) >= 129 and any(8 <= s < 129 for s in sizes)
    assert unreachable > 0 and negative_zeros > 0
    assert sum(sc.partition.ranges[0] is not None for sc in cases) >= 4  # the interleaved ones take the relabel
    assert collapsed >= 4 and splits >= 4


def test_step_is_exact_when_hash_ties_split_classes(monkeypatch):
    # with a zero multiplier every row hashes alike, so the classes are the
    # runs of equal rows in id order: equal rows need not share a class
    monkeypatch.setattr(neighbors, "_MIX", np.uint64(0))
    rng = np.random.default_rng(12)
    cfg = dense_mixed_config(rng, 2, 100, [30, 20], epsilon=0.6, spread=1.0)
    rows = rng.uniform(0.0, 1.0, size=(3, 2)).round(2)
    # runs of 20 agents on rows 0, 1, 0, 2, 1, 0, 2, 1
    cfg["initial_opinions"]["explicit"] = rows[np.repeat([0, 1, 0, 2, 1, 0, 2, 1], 20) [:150]].tolist()
    sc = build_scenario(cfg)
    state = sc.initial_state
    classes = row_classes(state.opinions, sc.partition.group_of)
    assert 7 < classes.reps.size < 15  # split, yet far fewer than the agents
    for t in range(3):
        nxt, digest = step(state, sc, t)
        expected, pairs = reference_step(state, sc, t)
        assert nxt.opinions.tobytes() == expected.tobytes() and digest.neighbor_pairs == pairs
        state = nxt


def assert_grouping_equals_oracle(sc, x, rows, cols, reps):
    """``_grouping`` of the pairs has the oracle's sizes, gathered blocks and
    copies, and ``_set_means`` gives every set the mean of its oracle ids bit
    for bit (a 1-D sum for d = 1). Returns the oracle's sizes and copies."""
    d = x.shape[1]
    grouping = neighbors._grouping(sc, d, rows, cols, reps)
    size, blocks, copies = grouping
    ref_size, ref_blocks, ref_copies, ids = grouping_oracle(sc, d, rows, cols, reps)
    assert np.array_equal(size, ref_size)
    assert len(blocks) == len(ref_blocks)
    for (part, index), (ref_part, ref_index) in zip(blocks, ref_blocks):
        assert np.array_equal(part, ref_part)
        assert index.dtype == ref_index.dtype and np.array_equal(index, ref_index)
    assert all(np.array_equal(a, b) for a, b in zip(copies, ref_copies))
    expected = np.zeros((len(ids), d))
    for s, members in enumerate(ids):
        if members.size:
            expected[s] = (np.sum(x[members, 0]) if d == 1 else np.sum(x[members], axis=0)) / members.size
    assert neighbors._set_means(x, grouping).tobytes() == expected.tobytes()
    return ref_size, ref_copies


def test_grouping_equals_mask_oracle():
    """The sets read as runs of each row's pairs have the sizes, gather
    blocks, copies and sums of one mask per set kind, whatever the group
    layout."""
    rng = np.random.default_rng(8)
    relabeled = copied = 0
    for i in range(60):
        cfg = random_mixed_config(rng, n_followers_hi=60, leader_size_hi=12, d_hi=4, m_lo=0, horizon=3)
        if i % 4 < 3 and any(g["kind"] == "leader" for g in cfg["groups"]):
            cfg = regrouped(cfg, rng, PARTITION_KINDS[i % 4])
        sc = build_scenario(cfg)
        relabeled += sc.partition.ranges[0] is not None
        for state in run(sc).states:
            _, (target, _) = assert_grouping_equals_oracle(sc, state.opinions, *compute_neighbors(state, sc),
                                                           np.arange(sc.n_agents))
            copied += target.size > 0
    assert relabeled >= 10 and copied >= 10


@pytest.mark.parametrize("gather", [None, 1, 300])
@pytest.mark.parametrize("d", [1, 2, 8])
def test_full_sets_copy_the_sum_of_their_groups_first_full_set(d, gather, monkeypatch):
    """Every full set of a group, one that holds the whole group, gets the
    sum of the group's first full set, whether the class map has one agent
    per class or pools rows, for interleaved member lists and a leader group
    of one member; a set one agent short of its group is gathered. A small
    ``_BLOCK_FLOATS`` puts a source and the sets it stands for in different
    blocks."""
    if gather is not None:
        monkeypatch.setattr(neighbors, "_BLOCK_FLOATS", gather)
    rng = np.random.default_rng(40 + d)
    opinions = rng.uniform(-1.0, 1.0, size=(113, d)).round(2)
    opinions[rng.random(opinions.shape) < 0.3] = -0.0
    # 100 followers and leader groups of 1 and 12, all within epsilon of each other
    cfg = config(dimension=d, epsilon=2.5 * np.sqrt(d), followers=100, initial=opinions.tolist(),
                 leader_groups=[("a", 1, [0.0] * d, constant(0.5)), ("b", 12, [-0.0] * d, constant(0.3))],
                 follower_betas=[constant(0.2), constant(0.3)])
    short = copy.deepcopy(cfg)
    short["initial_opinions"]["explicit"][0] = [50.0] * d  # the other followers' own sets miss it
    pooled = copy.deepcopy(cfg)
    rows = opinions[:4].copy()
    rows[0] = -0.0
    pooled["initial_opinions"]["explicit"] = rows[rng.integers(0, 4, size=113)].tolist()
    cases = {"complete": cfg, "interleaved": regrouped(cfg, rng, "interleaved"), "short": short,
             "pooled": pooled, "pooled interleaved": regrouped(pooled, rng, "interleaved")}
    for name, cfg in cases.items():
        sc = build_scenario(cfg)
        state = sc.initial_state
        pairs = dynamics._searched(state, sc)
        reps = pairs.classes.reps
        distinct = {(g, row.tobytes()) for g, row in zip(sc.partition.group_of.tolist(), state.opinions)}
        assert reps.size == len(distinct)
        # the 8-D rows are all distinct, one class per agent; the 1-D and 2-D ones repeat a few
        assert (reps.size == sc.n_agents) == (d == 8 and not name.startswith("pooled"))
        assert (reps.size <= 3 * 4) == name.startswith("pooled")
        size, (target, _) = assert_grouping_equals_oracle(sc, state.opinions, *neighbors._expanded(pairs), reps)
        if name == "short":
            # row 0 is agent 0's, the follower far from all; the other follower rows miss it
            others = np.flatnonzero(sc.partition.group_of[reps] == 0)[1:]
            assert (size[others] == 99).all() and not np.isin(others, target).any()
            # the leader rows' own sets and the other follower rows' leader sets
            assert target.size == (reps.size - 1 - others.size) + 2 * others.size - 2
        else:
            assert target.size == (size > 0).sum() - 3  # one source per group
        nxt, digest = step(state, sc, 0)
        expected, _ = reference_step(state, sc, 0)
        assert nxt.opinions.tobytes() == expected.tobytes()
        assert digest.summed_sets == (size > 0).sum() - target.size


@pytest.mark.parametrize("agent", [1, 4])
def test_step_rejects_an_agent_that_is_not_its_own_neighbor(agent):
    sc = scenario(followers=3, leader_groups=[("a", 2, [0.0], constant(0.5))],
                  initial=[[0.1], [0.2], [0.3], [0.4], [0.5]], follower_betas=[constant(0.3)])
    x = sc.initial_state.opinions.copy()
    x[agent] = np.nan
    with pytest.raises(NonFiniteState, match=f"agent {agent} is not its own neighbor"):
        step(dataclasses.replace(sc.initial_state, opinions=x), sc, 0)


def test_step_names_the_smallest_member_of_a_class_that_is_not_its_own_neighbor():
    sc = scenario(followers=100, initial=[[0.01 * i] for i in range(100)])
    x = sc.initial_state.opinions.copy()
    x[:5] = 0.5  # class 0
    x[5:80] = np.nan  # class 1, of 75 agents, whose representative has no pair
    state = dataclasses.replace(sc.initial_state, opinions=x)
    assert dynamics._searched(state, sc).classes.reps[:3].tolist() == [0, 5, 80]
    with pytest.raises(NonFiniteState, match="agent 5 is not its own neighbor"):
        step(state, sc, 0)


def test_schedule_violation_detected_at_runtime():
    sc = two_leader_scenario()

    class Lying:
        def at(self, agent, t):
            return 1.5

    (constant_alpha, _), = sc.alphas
    bad = dataclasses.replace(sc, alphas=((constant_alpha, np.array([0])), (Lying(), np.array([1]))))
    with pytest.raises(ScheduleViolation, match=r"agent 1 at t=0 returned 1\.5"):
        step(bad.initial_state, bad, 0)


class Spike:
    """Degree ``value`` for agent ``agent`` and ``base`` for every other id."""

    def __init__(self, agent, value, base=0.3):
        self.agent, self.value, self.base = agent, value, base

    def at(self, agent, t):
        return np.where(np.asarray(agent) == self.agent, self.value, self.base)


def test_array_query_guards_name_the_agent_and_step():
    sc = scenario(
        followers=3,
        leader_groups=[("a", 2, [0.0], constant(0.5)), ("b", 2, [1.0], constant(0.5))],
        initial=[[0.1]] * 7,
        follower_betas=[constant(0.2), constant(0.2)],
    )
    leaders, followers = np.arange(3, 7), np.arange(3)
    for value in (1.25, -0.5, float("nan")):
        bad = dataclasses.replace(sc, alphas=((Spike(5, value), leaders),))
        with pytest.raises(ScheduleViolation, match=rf"alpha schedule for agent 5 at t=2 returned {value}"):
            realized_alpha(bad, 2)
        with pytest.raises(ScheduleViolation, match="agent 5 at t=2"):
            step(bad.initial_state, bad, 2)
    bad = dataclasses.replace(sc, betas=(((Constant(0.2), Spike(2, 1.5)), followers),))
    with pytest.raises(ScheduleViolation, match=r"beta schedule 2 for agent 2 at t=4 returned 1\.5"):
        realized_betas(bad, 4)
    # each beta in range, the sum of agent 1's above 1
    bad = dataclasses.replace(sc, betas=(((Constant(0.6), Spike(1, 0.5, base=0.1)), followers),))
    with pytest.raises(ScheduleViolation, match=r"beta sum for agent 1 is 1\.1 > 1 at t=3"):
        realized_betas(bad, 3)
    with pytest.raises(ScheduleViolation, match="agent 1 .* at t=3"):
        step(bad.initial_state, bad, 3)


def test_step_queries_each_schedule_once_per_block_and_group():
    cfg = config(
        followers=5,
        leader_groups=[("a", 3, [0.0], constant(0.5)),
                       ("b", 2, [1.0], {"kind": "seeded_random", "seed": 3, "low": 0.2, "high": 0.6})],
        random_init={"distribution": "uniform_box", "low": 0.0, "high": 1.0, "seed": 4},
        follower_betas=[constant(0.2), {"kind": "seeded_random", "seed": 8, "low": 0.0, "high": 0.3}],
        per_agent_betas={1: [constant(0.1), constant(0.1)], 3: [constant(0.0), constant(0.4)]},
    )
    cfg["schedules"]["a"]["per_agent"] = {"6": {"alpha": constant(0.9)}}
    sc = build_scenario(cfg)
    assert [ids.tolist() for _, ids in sc.alphas] == [[5, 7], [6], [8, 9]]
    assert [ids.tolist() for _, ids in sc.betas] == [[0, 2, 4], [1], [3]]

    calls = []

    class Counting:
        def __init__(self, inner):
            self.inner = inner

        def at(self, agent, t):
            calls.append(np.size(agent))
            return self.inner.at(agent, t)

    counted = dataclasses.replace(
        sc,
        alphas=tuple((Counting(s), ids) for s, ids in sc.alphas),
        betas=tuple((tuple(Counting(s) for s in group), ids) for group, ids in sc.betas),
    )
    new, digest = step(counted.initial_state, counted, 0)
    assert len(calls) == 3 + 3 * sc.m
    assert sum(calls) == 5 + 5 * sc.m
    expected, expected_digest = step(sc.initial_state, sc, 0)
    assert np.array_equal(new.opinions, expected.opinions) and digest == expected_digest


def mixed_schedule_scenario(horizon=40):
    """Every built-in kind, and per-agent overrides of the alpha and the betas."""
    cfg = config(
        followers=5,
        leader_groups=[("a", 3, [0.0], {"kind": "table", "values": [0.9, 0.4, 0.6]}),
                       ("b", 2, [1.0], {"kind": "seeded_random", "seed": 3, "low": 0.2, "high": 0.6})],
        random_init={"distribution": "uniform_box", "low": 0.0, "high": 1.0, "seed": 4},
        follower_betas=[{"kind": "geometric_decay", "initial": 0.3, "ratio": 0.9},
                        {"kind": "seeded_random", "seed": 8, "low": 0.0, "high": 0.3}],
        per_agent_betas={1: [constant(0.1), constant(0.1)], 3: [constant(0.0), constant(0.4)]},
        horizon=horizon,
    )
    cfg["schedules"]["a"]["per_agent"] = {"6": {"alpha": constant(0.9)}}
    return build_scenario(cfg)


class Asked:
    """A custom schedule: ``inner``'s degrees through ``at`` alone, each
    step it is asked for recorded in ``steps``."""

    def __init__(self, inner, steps):
        self.inner, self.steps = inner, steps

    def at(self, agent, t):
        self.steps.append(t)
        return self.inner.at(agent, t)


def asked_everywhere(sc, steps):
    return dataclasses.replace(
        sc,
        alphas=tuple((Asked(s, steps), ids) for s, ids in sc.alphas),
        betas=tuple((tuple(Asked(s, steps) for s in group), ids) for group, ids in sc.betas),
    )


@pytest.mark.parametrize("budget", [None, 40])
def test_degree_tables_equal_per_step_queries(budget, monkeypatch):
    # 40 degrees a chunk: one step of the 10 agents' 1 + m = 3 degrees each
    if budget is not None:
        monkeypatch.setattr(neighbors, "_BLOCK_FLOATS", budget)
    sc = mixed_schedule_scenario()
    table = dynamics.DegreeTable(sc, 40)
    for t in range(40):
        assert realized_alpha(sc, t, table).tobytes() == realized_alpha(sc, t).tobytes()
        assert realized_betas(sc, t, table).tobytes() == realized_betas(sc, t).tobytes()
    steps = []
    for tabled, asked in zip(run(sc).states, run(asked_everywhere(sc, steps)).states, strict=True):
        assert tabled.opinions.tobytes() == asked.opinions.tobytes()


def test_run_tables_each_built_in_block_once_per_chunk_and_asks_a_custom_one_each_step(monkeypatch):
    chunks = {}
    for kind in (Constant, Table, GeometricDecay, SeededRandom):
        def counted(self, ids, ts, real=kind.at_steps):
            chunks.setdefault((id(self), ids.tobytes()), []).append(ts.tolist())
            return real(self, ids, ts)
        monkeypatch.setattr(kind, "at_steps", counted)
    sc = mixed_schedule_scenario(horizon=37)
    steps = []
    (custom, ids), *rest = sc.alphas
    sc = dataclasses.replace(sc, alphas=((Asked(custom, steps), ids), *rest))
    traj = run(sc)
    # the table holds a custom cell, so it tables none of its cells
    assert traj.horizon == 37 and steps == list(range(37)) and chunks == {}
    measure(traj)  # its own table, not the engine's
    assert chunks == {} and steps == list(range(37)) * 2
    # one chunk of all 37 steps: a block's float budget holds them
    expected = [list(range(37))]
    cells = len(sc.alphas) + sc.m * len(sc.betas)
    traj = run(mixed_schedule_scenario(horizon=37))
    assert len(chunks) == cells and all(queried == expected for queried in chunks.values())
    chunks.clear()
    measure(traj)
    assert len(chunks) == cells and all(queried == expected for queried in chunks.values())


def test_a_table_with_a_custom_schedule_tables_no_block(monkeypatch):
    calls = []
    for kind in (Constant, Table, GeometricDecay, SeededRandom):
        def counted(self, ids, ts, real=kind.at_steps):
            calls.append(len(ts))
            return real(self, ids, ts)
        monkeypatch.setattr(kind, "at_steps", counted)
    sc = mixed_schedule_scenario(horizon=37)
    expected = run(sc)
    # 3 alpha and 6 beta cells, each tabled once in the one chunk
    assert len(calls) == 9 and sum(calls) == 9 * 37
    calls.clear()
    steps = []
    (custom, ids), *rest = sc.alphas
    asked = dataclasses.replace(sc, alphas=((Asked(custom, steps), ids), *rest))
    traj = run(asked)
    # the custom alpha cell's NaN would fail every step's check: no cell is tabled
    assert calls == [] and steps == list(range(37))
    table = dynamics.DegreeTable(asked, 37)
    assert table.horizon is None and table.served(0) == 0
    for a, b in zip(traj.states, expected.states, strict=True):
        assert a.opinions.tobytes() == b.opinions.tobytes()
    assert traj.step_digests == expected.step_digests


class SpikeAt:
    """Degree 0.5, but ``bad`` at step ``k``, or an error raised there."""

    def __init__(self, k, bad):
        self.k, self.bad, self.steps = k, bad, []

    def at(self, agent, t):
        self.steps.append(t)
        if t == self.k and isinstance(self.bad, Exception):
            raise self.bad
        return self.bad if t == self.k else 0.5


def test_a_run_raises_a_schedule_error_at_its_step_and_not_before_it():
    sc = geometric_scenario(horizon=20)
    (_, ids), = sc.alphas
    for schedule in (SpikeAt(7, 1.5), SpikeAt(7, float("nan")), Table((0.5,) * 7 + (1.5,)),
                     Table((0.5,) * 7 + ("x",)), Table((0.5,) * 7 + (-0.25,))):
        bad = dataclasses.replace(sc, alphas=((schedule, ids),))
        with pytest.raises(ScheduleViolation) as expected:
            realized_alpha(bad, 7)
        with pytest.raises(ScheduleViolation) as raised:
            run(bad)
        assert str(raised.value) == str(expected.value) and "t=7" in str(raised.value)
        assert run(bad, 7).horizon == 7
    spike = SpikeAt(7, RuntimeError("no degree at step 7"))
    with pytest.raises(RuntimeError, match="no degree at step 7"):
        run(dataclasses.replace(sc, alphas=((spike, ids),)))
    assert spike.steps == list(range(8))
    # converged at step 9, before the bad step 15
    sc = geometric_scenario(horizon=50, stop_tol=1e-3)
    for schedule in (SpikeAt(15, 1.5), SpikeAt(15, RuntimeError("step 15")), Table((0.5,) * 15 + (1.5,))):
        traj = run(dataclasses.replace(sc, alphas=((schedule, ids),)))
        assert traj.stop_reason == STOP_CONVERGED and traj.horizon < 15


def test_a_lone_degree_query_asks_only_its_own_kind_of_schedule():
    # every beta, or every alpha, of the mixture demo out of range: a lone
    # query of the other kind neither asks those schedules nor raises
    sc = load_scenario(SCENARIOS / "mixture_demo.json")
    bad_betas = dataclasses.replace(sc, betas=tuple((tuple(Constant(1.5) for _ in group), ids)
                                                    for group, ids in sc.betas))
    bad_alphas = dataclasses.replace(sc, alphas=tuple((Constant(1.5), ids) for _, ids in sc.alphas))
    for t in (0, 3):
        assert realized_alpha(bad_betas, t).tobytes() == realized_alpha(sc, t).tobytes()
        assert realized_betas(bad_alphas, t).tobytes() == realized_betas(sc, t).tobytes()
        with pytest.raises(ScheduleViolation, match=f"beta schedule 1 for agent 0 at t={t} returned 1.5"):
            realized_betas(bad_betas, t)
        with pytest.raises(ScheduleViolation, match=f"alpha schedule for agent 3 at t={t} returned 1.5"):
            realized_alpha(bad_alphas, t)


def test_served_rows_are_read_only_and_equal_lone_step_queries():
    sc = mixed_schedule_scenario()
    table = dynamics.DegreeTable(sc, 40)
    for t in range(40):
        for served, lone in ((realized_alpha(sc, t, table), realized_alpha(sc, t)),
                             (realized_betas(sc, t, table), realized_betas(sc, t))):
            assert not served.flags.writeable and lone.flags.writeable
            assert served.tobytes() == lone.tobytes()
    # the one chunk, steps 0 to 19, holds 1.5 at step 7: steps 0 to 6 are still served from its block
    sc = geometric_scenario(horizon=20)
    (_, ids), = sc.alphas
    bad = dataclasses.replace(sc, alphas=((Table((0.5,) * 7 + (1.5,)), ids),))
    table = dynamics.DegreeTable(bad, 20)
    for t in range(7):
        served = realized_alpha(bad, t, table)
        assert not served.flags.writeable and served.tobytes() == realized_alpha(bad, t).tobytes()
    assert (table.start, table.stop) == (0, 20)
    with pytest.raises(ScheduleViolation) as expected:
        realized_alpha(bad, 7)
    with pytest.raises(ScheduleViolation) as raised:
        realized_alpha(bad, 7, table)
    assert str(raised.value) == str(expected.value) and "t=7" in str(raised.value)


def test_a_run_checks_nine_betas_summed_left_to_right():
    betas = [0.09, 0.19, 0.21, 0.03, 0.12, 0.17, 0.06, 0.06, 0.07]
    assert dynamics.beta_sums(np.array([betas]))[0] > 1.0 >= np.array([betas]).sum(axis=1)[0]  # pairwise: 1.0
    sc = scenario(
        followers=2,
        leader_groups=[(f"g{k}", 1, [float(k)], constant(0.5)) for k in range(9)],
        initial=[[0.5]] * 11,
        follower_betas=[constant(0.05)] * 9,
        horizon=20,
    )
    (_, followers), = sc.betas
    # past load-time validation: the sum exceeds 1 at step 5 only in left-to-right order
    bad = dataclasses.replace(sc, betas=((tuple(Table((0.05,) * 5 + (b,)) for b in betas), followers),))
    with pytest.raises(ScheduleViolation) as expected:
        realized_betas(bad, 5)
    assert "beta sum for agent 0 is 1.0000000000000002 > 1 at t=5" in str(expected.value)
    with pytest.raises(ScheduleViolation) as raised:
        run(bad)
    assert str(raised.value) == str(expected.value)
    assert run(bad, 5).horizon == 5


def test_a_run_raises_non_finite_state_before_a_schedule_violation_of_the_same_step():
    sc = two_leader_scenario()
    (_, ids), = sc.alphas
    x = sc.initial_state.opinions.copy()
    x[1] = np.nan
    bad = dataclasses.replace(sc, initial_state=dataclasses.replace(sc.initial_state, opinions=x),
                              alphas=((Table((1.5,)), ids),))
    with pytest.raises(NonFiniteState, match="agent 1 is not its own neighbor"):
        run(bad)
    with pytest.raises(ScheduleViolation, match="t=0"):
        run(dataclasses.replace(bad, initial_state=sc.initial_state))


def test_non_finite_state_stops_the_run():
    # the followers' mean overflows to inf; an inf agent is then not its own neighbor
    sc = scenario(
        followers=2,
        leader_groups=[("brand", 1, [0.0], constant(0.5))],
        initial=[[1.7e308], [1.7e308], [0.0]],
        follower_betas=[constant(0.5)],
        horizon=5,
    )
    with np.errstate(over="ignore"), pytest.raises(NonFiniteState, match=r"agent 0 is \[inf\] at t=1"):
        run(sc)


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def geometric_scenario(alpha=0.5, horizon=3, stop_tol=None, window=1):
    return scenario(
        epsilon=1.0,
        leader_groups=[("brand", 1, [0.0], constant(alpha))],
        initial=[[1.0]],
        horizon=horizon,
        stop_tol=stop_tol,
        stop_window=window,
    )


def test_run_horizon_zero_is_initial_only():
    traj = run(geometric_scenario(), 0)
    assert len(traj.states) == 1
    assert traj.stop_reason == STOP_HORIZON
    assert np.array_equal(traj.states[0].opinions, [[1.0]])


def test_run_refuses_a_negative_horizon():
    with pytest.raises(ValueError, match="horizon must be nonnegative"):
        run(geometric_scenario(), -1)


def test_run_geometric_halving():
    traj = run(geometric_scenario(horizon=3))
    values = [s.opinions[0, 0] for s in traj.states]
    assert values == [1.0, 0.5, 0.25, 0.125]


def test_run_stops_converged_at_step_30():
    # displacement at step t is 0.5^t; first t with 0.5^t <= 1e-9 is 30
    traj = run(geometric_scenario(horizon=100, stop_tol=1e-9))
    assert traj.stop_reason == STOP_CONVERGED
    assert traj.horizon == 30


def test_run_stagnates_on_exact_fixed_point():
    sc = scenario(followers=1, initial=[[0.37]], epsilon=0.5, horizon=10, stop_tol=None)
    traj = run(sc)
    assert traj.stop_reason == STOP_STAGNATED
    assert traj.horizon == 1


def test_run_consecutive_states_differ_by_one_step():
    rng = np.random.default_rng(8)
    sc = build_scenario(random_mixed_config(rng, horizon=6))
    traj = run(sc)
    for t in range(traj.horizon):
        redo, _ = step(traj.states[t], sc, t)
        assert np.array_equal(redo.opinions, traj.states[t + 1].opinions)
        assert traj.states[t + 1].t == t + 1


def test_mean_shift_fault_breaks_fixed_point():
    sc = geometric_scenario(horizon=5)
    clean = run(sc, 5)
    faulty = run(sc, 5, fault="mean-shift")
    assert not np.array_equal(clean.final_state.opinions, faulty.final_state.opinions)
    with pytest.raises(ValueError):
        run(sc, 2, fault="nonsense")


@pytest.mark.parametrize("fault", [None, "mean-shift"])
def test_run_pairs_equal_a_fresh_search_at_every_step(fault, monkeypatch):
    real_step = dynamics.step
    listed = []

    def checking_step(state, sc, t, *, fault=None, pairs=None, degrees=None):
        # the pairs are over classes of agents of one group, which a fresh
        # search takes from equal rows and a held list keeps from its
        # rebuild: two agents are neighbors when their classes are
        rows, cols = compute_neighbors(state, sc)
        assert pairs.rows.dtype == pairs.cols.dtype == np.int32
        of, reps = pairs.classes.of, pairs.classes.reps
        group_of = sc.partition.group_of
        assert np.array_equal(group_of[reps][of], group_of)
        linked = agent_pairs(pairs)
        assert np.array_equal(linked[0], rows) and np.array_equal(linked[1], cols)
        listed.append(reps.size < sc.n_agents)
        return real_step(state, sc, t, fault=fault, pairs=pairs, degrees=degrees)

    monkeypatch.setattr(dynamics, "step", checking_step)
    rng = np.random.default_rng(41)
    counts = dict.fromkeys(("searches", "rebuilds", "reuses"), 0)
    for _ in range(30):
        sc = build_scenario(random_mixed_config(rng, n_followers_hi=120, leader_size_hi=20, horizon=80))
        for key, value in run(sc, fault=fault).pair_counts.items():
            counts[key] += value
    # run hands every step its pairs, from the list or from a fresh search
    assert len(listed) == counts["searches"] + counts["rebuilds"] + counts["reuses"]
    assert sum(listed) >= 200  # steps that ran on fewer classes than agents
    # the lists were built and reused
    assert counts["rebuilds"] >= 5 and counts["reuses"] >= 100


def class_path_config(rng, d, n_followers, repeats, interleaved=False):
    """Followers on distinct rows but ``repeats`` of them copies of others,
    some coordinates -0.0 (a [0.0] row's copy as [-0.0]); a leader group of
    six on one row with seeded-random degrees, whose row splits after a
    step; and a group of five whose agent ids mix a constant block, a
    per-agent constant and a seeded-random override, with seeded-random and
    constant betas and per-agent beta overrides among the followers."""
    n = n_followers + 11
    x = rng.uniform(0.0, 1.0, size=(n, d)).round(3)
    x[rng.random(x.shape) < 0.2] = -0.0
    x[1] = 0.0
    x[2] = -0.0
    x[3:3 + repeats] = x[rng.integers(3 + repeats, n_followers, size=repeats)]
    x[n_followers:n_followers + 6] = x[n_followers]
    seeded = {"kind": "seeded_random", "seed": int(rng.integers(0, 2**31)), "low": 0.1, "high": 0.6}
    cfg = config(dimension=d, epsilon=0.3 * math.sqrt(d), followers=n_followers, initial=x.tolist(),
                 leader_groups=[("a", 6, [0.2] * d, seeded), ("b", 5, [-0.0] * d, constant(0.6))],
                 follower_betas=[constant(0.2), constant(0.25)], horizon=40)
    if interleaved:
        cfg = regrouped(cfg, rng, "interleaved")
    crowd, _, b = (g["members"] if isinstance(g["members"], list) else range(first, first + g["members"])
                   for g, first in zip(cfg["groups"], (0, n_followers, n_followers + 6)))
    cfg["schedules"]["crowd"]["per_agent"] = {
        str(crowd[4]): {"betas": [constant(0.0), constant(0.5)]},
        str(crowd[7]): {"betas": [constant(-0.0), {**seeded, "low": 0.0, "high": 0.3}]},
    }
    cfg["schedules"]["b"]["per_agent"] = {str(b[1]): {"alpha": constant(0.9)}, str(b[3]): {"alpha": seeded}}
    return cfg


def test_run_equals_per_agent_reference_steps():
    """Every state of ``run`` and every digest's weights and pair count equal
    per-agent reference steps, each on its own ``neighbors_naive`` search,
    with and without the mean-shift fault: at N < 64 and where a class map
    removes 1 to 63 rows, while classes merge and split and a held pair list
    keeps its classes, for interleaved member lists and -0.0 rows."""
    rng = np.random.default_rng(60)
    small = few = merges = splits = 0
    counts = dict.fromkeys(("searches", "rebuilds", "reuses"), 0)
    for fault in (None, FAULT_MEAN_SHIFT):
        for d, n_followers, repeats in ((1, 30, 4), (2, 45, 9), (2, 140, 20), (3, 110, 50)):
            for interleaved in (False, True):
                sc = build_scenario(class_path_config(rng, d, n_followers, repeats, interleaved))
                traj = run(sc, fault=fault)
                state = sc.initial_state
                for t, digest in enumerate(traj.step_digests):
                    expected, pairs = reference_step(state, sc, t, fault)
                    assert traj.states[t + 1].opinions.tobytes() == expected.tobytes()
                    assert (digest.min_weight, digest.max_sum_error) == reference_weights(state, sc, t)
                    assert digest.neighbor_pairs == pairs
                    removed = sc.n_agents - digest.classes
                    small += sc.n_agents < 64 and removed > 0
                    few += sc.n_agents >= 64 and 0 < removed < 64
                    before, after = (row_classes(s.opinions, sc.partition.group_of).reps.size
                                     for s in (state, traj.states[t + 1]))
                    merges += after < before
                    splits += after > before
                    state = SystemState(t + 1, expected)
                for key, value in traj.pair_counts.items():
                    counts[key] += value
    assert small >= 200 and few >= 16 and merges >= 100 and splits >= 10
    assert counts["rebuilds"] >= 10 and counts["reuses"] >= 200


def generated_degree(rng, cap):
    """A degree schedule of any of the four kinds whose peak is at most
    ``cap`` at every step: a constant (0.0, -0.0 or ``cap`` among them), a
    table of one to four entries, a geometric decay with a ratio of at most
    1 (0 too) or a seeded-random draw."""
    kind = ("constant", "table", "geometric_decay", "seeded_random")[int(rng.integers(0, 4))]

    def below():
        return float(np.floor(rng.uniform(0.0, cap) * 1e6) / 1e6)

    if kind == "constant":
        return constant([0.0, -0.0, cap, below()][int(rng.integers(0, 4))])
    if kind == "table":
        return {"kind": "table", "values": [below() for _ in range(int(rng.integers(1, 5)))]}
    if kind == "geometric_decay":
        return {"kind": "geometric_decay", "initial": below(), "ratio": [0.0, 0.5, 1.0, below()][int(rng.integers(0, 4))]}
    low = below()
    return {"kind": "seeded_random", "seed": int(rng.integers(0, 2**31)), "low": low, "high": max(low, below())}


def generated_betas(rng, m):
    """One beta schedule per leader group, their peaks summing to at most 1."""
    caps = rng.uniform(0.0, 1.0, size=m)
    caps = np.floor(caps / max(1.0, caps.sum()) * 1e6) / 1e6
    return [generated_degree(rng, float(cap)) for cap in caps]


def generated_config(seed):
    """A whole scenario drawn from ``seed``: d from 1 to 3 and m from 0 to 3,
    degrees of all four kinds, per-agent overrides of up to three members of
    a group, member lists interleaved at random in about half the draws, and
    opinions and targets on a lattice of epsilon / 4, so that pairs at
    exactly epsilon occur, with duplicated rows and rows of -0.0."""
    rng = np.random.default_rng(seed)
    d, m = int(rng.integers(1, 4)), int(rng.integers(0, 4))
    n_followers = int(rng.integers(0 if m else 2, 13))
    eps = [0.5, 0.75, 1.0][int(rng.integers(0, 3))]

    def lattice(*shape):
        return rng.integers(-4, 5, size=shape) * (eps / 4)

    leader_groups = [(f"g{k + 1}", int(rng.integers(1, 5)), lattice(d).tolist(), generated_degree(rng, 1.0))
                     for k in range(m)]
    n = n_followers + sum(size for _, size, _, _ in leader_groups)
    x = lattice(n, d)
    x[rng.integers(0, n, size=n // 3)] = x[rng.integers(0, n, size=n // 3)]  # duplicated rows
    x[rng.integers(0, n, size=2)] = -0.0
    cfg = config(dimension=d, epsilon=eps, followers=n_followers, leader_groups=leader_groups,
                 initial=x.tolist(), follower_betas=generated_betas(rng, m) if n_followers else None,
                 horizon=int(rng.integers(1, 7)))
    if rng.random() < 0.5:
        cfg = regrouped(cfg, rng, "interleaved")
    first = 0  # member counts take consecutive ids in group order
    for g in cfg["groups"]:
        ids = g["members"] if isinstance(g["members"], list) else list(range(first, first + g["members"]))
        first += len(ids)
        chosen = rng.choice(ids, size=int(rng.integers(0, min(len(ids), 3) + 1)), replace=False).tolist()
        if chosen and (g["kind"] == "leader" or m):
            key = "alpha" if g["kind"] == "leader" else "betas"
            cfg["schedules"][g["name"]]["per_agent"] = {
                str(i): {key: generated_degree(rng, 1.0) if key == "alpha" else generated_betas(rng, m)}
                for i in chosen
            }
    return cfg


def test_generated_configs_cover_their_cases():
    drawn = set()
    for seed in range(100):
        cfg = generated_config(seed)
        x = build_scenario(cfg).initial_state.opinions
        eps2 = cfg["epsilon"] ** 2
        drawn |= {f"d={cfg['dimension']}", f"m={sum(g['kind'] == 'leader' for g in cfg['groups'])}"}
        drawn |= {spec["kind"] for entry in cfg["schedules"].values()
                  for spec in ([entry["alpha"]] if "alpha" in entry else entry["betas"])}
        cases = {
            "override": any("per_agent" in entry for entry in cfg["schedules"].values()),
            "interleaved": any(isinstance(g["members"], list) for g in cfg["groups"]),
            "tie": (((x[:, None] - x[None]) ** 2).sum(axis=-1) == eps2).any(),
            "duplicate": len({row.tobytes() for row in x}) < len(x),
            "-0.0": (np.signbit(x) & (x == 0.0)).all(axis=1).any(),
        }
        drawn |= {case for case, hit in cases.items() if hit}
    assert drawn == {"d=1", "d=2", "d=3", "m=0", "m=1", "m=2", "m=3", "constant", "table", "geometric_decay",
                     "seeded_random", "override", "interleaved", "tie", "duplicate", "-0.0"}


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_run_of_generated_scenarios_equals_reference_steps(seed):
    """Every state of ``run`` and every digest's weights and pair count equal
    per-agent reference steps on a scenario drawn by ``generated_config``,
    with and without the mean-shift fault."""
    sc = build_scenario(generated_config(seed))
    for fault in (None, FAULT_MEAN_SHIFT):
        traj = run(sc, fault=fault)
        state = sc.initial_state
        for t, digest in enumerate(traj.step_digests):
            expected, pairs = reference_step(state, sc, t, fault)
            assert traj.states[t + 1].opinions.tobytes() == expected.tobytes()
            assert (digest.min_weight, digest.max_sum_error) == reference_weights(state, sc, t)
            assert digest.neighbor_pairs == pairs
            state = SystemState(t + 1, expected)


def test_first_ten_steps_of_perf_10k_search_afresh():
    # its agents move 0.03 to 0.07 a step, far more than the skin allows
    sc = load_scenario(SCENARIOS / "perf_10k.json")
    assert run(sc, 10).pair_counts == {"searches": 10, "rebuilds": 0, "reuses": 0}


def test_settled_ball_reuses_one_pair_list_for_most_steps():
    # the benchmark's check_ball shape: every agent starts within epsilon of the target
    sc = scenario(
        dimension=2,
        epsilon=0.2,
        followers=380,
        leader_groups=[("brand", 20, [0.5, 0.5], {"kind": "seeded_random", "seed": 5, "low": 0.3, "high": 0.7})],
        random_init={"distribution": "uniform_box", "low": 0.4, "high": 0.6, "seed": 7},
        follower_betas=[constant(0.5)],
        horizon=40,
    )
    counts = run(sc).pair_counts
    assert counts["rebuilds"] == 1
    assert counts["reuses"] >= 30


def test_run_groups_each_pair_object_once(monkeypatch):
    # a held pair list is grouped into sets at its rebuild, and its reuses read that grouping
    real, grouped = neighbors._grouping, []
    monkeypatch.setattr(neighbors, "_grouping", lambda *args: grouped.append(args) or real(*args))
    traj = run(load_scenario(SCENARIOS / "ball_consensus.json"))
    assert traj.horizon == 40
    assert traj.pair_counts == {"searches": 3, "rebuilds": 1, "reuses": 36}
    assert len(grouped) == 4


def check_ball_shaped(alpha=None, horizon=40):
    """The benchmark's check_ball shape: 380 followers and 20 leaders, every
    agent within epsilon of the target, whose pair list is held for most
    steps."""
    return scenario(
        dimension=2,
        epsilon=0.2,
        followers=380,
        leader_groups=[("brand", 20, [0.5, 0.5],
                        alpha or {"kind": "seeded_random", "seed": 5, "low": 0.3, "high": 0.7})],
        random_init={"distribution": "uniform_box", "low": 0.4, "high": 0.6, "seed": 7},
        follower_betas=[constant(0.5)],
        horizon=horizon,
    )


def run_bits(traj):
    """Everything of a run that a held step could change: its states, every
    ``StepDigest`` field and how its steps got their pairs."""
    return ([s.opinions.tobytes() for s in traj.states], traj.stop_reason, traj.pair_counts,
            [(d.t, d.min_weight.hex(), d.max_sum_error.hex(), d.neighbor_pairs, d.classes, d.summed_sets)
             for d in traj.step_digests])


def lone_run(sc, monkeypatch, **kwargs):
    """``run`` with every step computing its own weights from one query per
    schedule block: no degree table, so no chunk of weights either."""
    real = dynamics.step
    with monkeypatch.context() as patched:
        patched.setattr(dynamics, "step", lambda state, sc, t, *, fault=None, pairs=None, degrees=None:
                        real(state, sc, t, fault=fault, pairs=pairs))
        return run(sc, **kwargs)


@pytest.mark.parametrize("chunk", [1, 2, 7])
def test_held_chunks_equal_lone_steps(chunk, monkeypatch):
    passes, logged = [], []
    real_weights, real_step = dynamics._weights, dynamics.step
    monkeypatch.setattr(dynamics, "_weights",
                        lambda sc, size, a, b: passes.append(len(a)) or real_weights(sc, size, a, b))

    def logging_step(state, sc, t, *, fault=None, pairs=None, degrees=None):
        out = real_step(state, sc, t, fault=fault, pairs=pairs, degrees=degrees)
        logged.append((t, pairs, pairs.weights))
        return out

    rng = np.random.default_rng(20260810)
    cases = [(load_scenario(SCENARIOS / "ball_consensus.json"), None), (check_ball_shaped(), None),
             (check_ball_shaped(), FAULT_MEAN_SHIFT)]
    cases += [(build_scenario(random_mixed_config(rng, n_followers_hi=12, leader_size_hi=5, d_hi=5, m_hi=4,
                                                  horizon=200)), FAULT_MEAN_SHIFT if i % 4 == 3 else None)
              for i in range(12)]
    dropped = 0
    for sc, fault in cases:
        # chunks of up to ``chunk`` steps of the table
        monkeypatch.setattr(neighbors, "_BLOCK_FLOATS", chunk * sc.n_agents * (1 + sc.m))
        expected = run_bits(lone_run(sc, monkeypatch, fault=fault))
        logged.clear()
        with monkeypatch.context() as patched:
            patched.setattr(dynamics, "step", logging_step)
            assert run_bits(run(sc, fault=fault)) == expected
        # a held list dropped while the weights it kept covered the step
        dropped += any(now is not before and kept is not None and 0 <= t - kept[1] < len(kept[2][0])
                       for (_, before, kept), (t, now, _) in zip(logged, logged[1:]))
    assert max(passes) == chunk
    if chunk > 1:
        assert dropped >= 3


def test_a_held_chunk_raises_at_the_step_that_fails_its_check(monkeypatch):
    # one chunk of every step; step 13 holds a degree 1.5, so the chunk's
    # block serves steps 0 to 12
    passes = []
    real_weights = dynamics._weights
    monkeypatch.setattr(dynamics, "_weights",
                        lambda sc, size, a, b: passes.append(len(a)) or real_weights(sc, size, a, b))
    good = check_ball_shaped(alpha=constant(0.5))
    (_, ids), = good.alphas
    bad = dataclasses.replace(good, alphas=((Table((0.5,) * 13 + (1.5,)), ids),))
    with pytest.raises(ScheduleViolation) as expected:
        realized_alpha(bad, 13)
    with pytest.raises(ScheduleViolation) as raised:
        run(bad)
    assert str(raised.value) == str(expected.value) and "t=13" in str(raised.value)
    # steps 4 to 12 in one pass; step 13 asked its schedules alone and raised before its weights
    assert passes[-1] == 9
    assert run_bits(run(bad, 13)) == run_bits(lone_run(bad, monkeypatch, horizon=13)) == run_bits(run(good, 13))


# ---------------------------------------------------------------------------
# reduction to plain bounded-confidence averaging
# ---------------------------------------------------------------------------


def test_follower_only_step_equals_reference():
    rng = np.random.default_rng(2)
    opinions = rng.uniform(0, 1, size=(17, 2))
    cfg = config(
        dimension=2,
        epsilon=0.25,
        followers=17,
        initial=opinions.tolist(),
    )
    sc = build_scenario(cfg)
    nxt, _ = step(sc.initial_state, sc, 0)
    expected = hk_reference_step(sc.initial_state.opinions, sc.epsilon)
    assert np.array_equal(nxt.opinions, expected)


def test_beta_zero_followers_match_reference_on_follower_block():
    rng = np.random.default_rng(4)
    fol = rng.uniform(0, 1, size=(10, 1))
    cfg = config(
        dimension=1,
        epsilon=0.3,
        followers=10,
        leader_groups=[("far", 2, [50.0], constant(0.5))],
        initial=fol.tolist() + [[50.0], [50.1]],
        follower_betas=[constant(0.0)],
    )
    sc = build_scenario(cfg)
    nxt, _ = step(sc.initial_state, sc, 0)
    expected = hk_reference_step(fol, sc.epsilon)
    assert np.array_equal(nxt.opinions[:10], expected)


def test_alpha_one_leader_group_matches_reference():
    rng = np.random.default_rng(6)
    leaders = rng.uniform(0, 1, size=(8, 1))
    cfg = config(
        dimension=1,
        epsilon=0.35,
        leader_groups=[("brand", 8, [0.0], constant(1.0))],
        initial=leaders.tolist(),
    )
    sc = build_scenario(cfg)
    nxt, _ = step(sc.initial_state, sc, 0)
    expected = hk_reference_step(leaders, sc.epsilon)
    assert np.array_equal(nxt.opinions, expected)
