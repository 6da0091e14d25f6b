"""Update rules, synchronous stepping, trajectories, and determinism."""

import copy
import dataclasses
from pathlib import Path

import numpy as np
import pytest

from helpers import (
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
from lfmix import ScheduleViolation, build_scenario, compute_neighbors, load_scenario, run
from lfmix import dynamics
from lfmix.dynamics import STOP_CONVERGED, STOP_HORIZON, STOP_STAGNATED, realized_alpha, realized_betas, step
from lfmix.errors import NonFiniteState
from lfmix.schedules import Constant

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


def reference_step(state, sc, t):
    """Per-agent step from the naive neighbor pairs split per agent and the
    references, and the neighbor-pair count the digest reports: own-group
    sets of all agents plus the leader sets a follower mixes with a nonzero
    beta."""
    x = state.opinions
    new = np.empty_like(x)
    alphas, all_betas = realized_alpha(sc, t).tolist(), realized_betas(sc, t).tolist()
    pairs = 0
    for i, (own, leaders) in enumerate(neighbor_sets(sc, state)):
        code = sc.partition.group_of[i]
        pairs += own.size
        if code:
            new[i] = leader_update(x, own, alphas[i], sc.target(code))
        else:
            betas = all_betas[i]
            new[i] = follower_update(x, own, leaders, betas)
            pairs += sum(ids.size for ids, b in zip(leaders, betas) if ids.size and b != 0.0)
    return new, pairs


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
    sizes = []
    unreachable = negative_zeros = 0
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
            state = nxt
    assert max(sizes) >= 129 and any(8 <= s < 129 for s in sizes)
    assert unreachable > 0 and negative_zeros > 0
    assert sum(sc.partition.ranges[0] is not None for sc in cases) >= 4  # the interleaved ones take the relabel


def test_grouping_equals_mask_oracle():
    """The sets read as runs of each row's pairs have the sizes and gather
    blocks of one mask per set kind, whatever the group layout."""
    rng = np.random.default_rng(8)
    relabeled = 0
    for i in range(60):
        cfg = random_mixed_config(rng, n_followers_hi=60, leader_size_hi=12, d_hi=4, m_lo=0, horizon=3)
        if i % 4 < 3 and any(g["kind"] == "leader" for g in cfg["groups"]):
            cfg = regrouped(cfg, rng, PARTITION_KINDS[i % 4])
        sc = build_scenario(cfg)
        relabeled += sc.partition.ranges[0] is not None
        for state in run(sc).states:
            rows, cols = compute_neighbors(state, sc)
            size, blocks = dynamics._grouping(sc, sc.dimension, rows, cols)
            ref_size, ref_blocks = grouping_oracle(sc, sc.dimension, rows, cols)
            assert np.array_equal(size, ref_size)
            assert len(blocks) == len(ref_blocks)
            for (part, index), (ref_part, ref_index) in zip(blocks, ref_blocks):
                assert np.array_equal(part, ref_part)
                assert index.dtype == ref_index.dtype and np.array_equal(index, ref_index)
    assert relabeled >= 10


@pytest.mark.parametrize("agent", [1, 4])
def test_step_rejects_an_agent_that_is_not_its_own_neighbor(agent):
    sc = scenario(followers=3, leader_groups=[("a", 2, [0.0], constant(0.5))],
                  initial=[[0.1], [0.2], [0.3], [0.4], [0.5]], follower_betas=[constant(0.3)])
    x = sc.initial_state.opinions.copy()
    x[agent] = np.nan
    with pytest.raises(NonFiniteState, match=f"agent {agent} is not its own neighbor"):
        step(dataclasses.replace(sc.initial_state, opinions=x), sc, 0)


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

    def checking_step(state, sc, t, *, fault=None, pairs=None):
        rows, cols = compute_neighbors(state, sc)
        assert pairs.rows.dtype == pairs.cols.dtype == np.int32
        assert np.array_equal(pairs.rows, rows) and np.array_equal(pairs.cols, cols)
        listed.append(t)
        return real_step(state, sc, t, fault=fault, pairs=pairs)

    monkeypatch.setattr(dynamics, "step", checking_step)
    rng = np.random.default_rng(41)
    counts = dict.fromkeys(("searches", "rebuilds", "reuses"), 0)
    for _ in range(30):
        sc = build_scenario(random_mixed_config(rng, n_followers_hi=120, leader_size_hi=20, horizon=80))
        for key, value in run(sc, fault=fault).pair_counts.items():
            counts[key] += value
    # run hands every step its pairs, from the list or from a fresh search
    assert len(listed) == counts["searches"] + counts["rebuilds"] + counts["reuses"]
    # the lists were built and reused
    assert counts["rebuilds"] >= 5 and counts["reuses"] >= 100


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
