"""Verification harness: metrics, convergence detection, and every check."""

import math
import time

import numpy as np
import pytest

from helpers import (
    config,
    constant,
    contraction_oracle,
    crosstalk_oracle,
    detect_convergence,
    diameter_oracle,
    neighbor_sets,
    random_alpha_spec,
    random_mixed_config,
    scenario,
)
from lfmix import (
    build_scenario,
    check_ball_invariance,
    check_consensus_bound,
    check_contraction,
    check_contraction_step,
    check_mixture_limit,
    check_subsystem_independence,
    check_target_envelope,
    check_target_envelope_all,
    max_target_distance,
    metrics_rows,
    opinion_diameter,
    run,
)
from lfmix import analysis
from lfmix.analysis import (
    CROSSTALK,
    INAPPLICABLE,
    UNDEFINED_LIMIT,
    derive_subsystem_assignment,
    distances_to,
    measure,
    target_envelope_along,
)
from lfmix.dynamics import STOP_CONVERGED, beta_sums, realized_alpha, realized_betas
from lfmix.model import SystemState
from lfmix.schedules import SeededRandom


def two_leader_scenario(alpha=0.5, horizon=10):
    return scenario(
        epsilon=1.0,
        leader_groups=[("brand", 2, [0.0], constant(alpha))],
        initial=[[0.2], [0.4]],
        horizon=horizon,
    )


def consensus_demo(horizon=60):
    return scenario(
        epsilon=1.0,
        followers=1,
        leader_groups=[("brand", 1, [0.0], constant(0.5))],
        initial=[[0.3], [0.1]],
        follower_betas=[constant(0.5)],
        horizon=horizon,
    )


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def test_max_target_distance_examples():
    sc = two_leader_scenario()
    state0 = sc.initial_state
    assert max_target_distance(state0, sc, 1) == pytest.approx(0.4, abs=1e-15)
    at_target = SystemState(0, np.zeros((2, 1)))
    assert max_target_distance(at_target, sc, 1) == 0.0
    shifted = SystemState(0, np.asarray([[0.0], [0.125]]))
    assert max_target_distance(shifted, sc, 1) == 0.125


def test_opinion_diameter_matches_brute_force():
    rng = np.random.default_rng(0)
    for n, d in ((1, 2), (2, 3), (40, 2), (300, 3)):
        x = rng.uniform(-1, 1, size=(n, d))
        brute = 0.0
        for i in range(n):
            brute = max(brute, float(np.sqrt(((x - x[i]) ** 2).sum(axis=1)).max()))
        assert opinion_diameter(x).hex() == brute.hex()


def scanned_sizes(monkeypatch) -> list[int]:
    """The point counts ``opinion_diameter`` hands to its pairwise scan."""
    sizes = []
    scan = analysis._max_squared_distance

    def spy(x):
        sizes.append(x.shape[0])
        return scan(x)

    monkeypatch.setattr(analysis, "_max_squared_distance", spy)
    return sizes


@pytest.mark.parametrize("d", range(1, 9))
def test_opinion_diameter_pruned_scan_is_exact(d):
    rng = np.random.default_rng(d)
    for n in (2, 3, 17, 300, 1000, 3000):
        for x in (rng.uniform(0, 1, size=(n, d)), rng.normal(size=(n, d))):
            assert opinion_diameter(x).hex() == diameter_oracle(x).hex()


def test_opinion_diameter_prunes_small_inputs_exactly(monkeypatch):
    sizes = scanned_sizes(monkeypatch)
    rng = np.random.default_rng(9)
    pruned = 0
    for n in range(2, 41):
        for d in (2, 3, 5):
            x = rng.normal(size=(n, d))
            sizes.clear()
            assert opinion_diameter(x).hex() == diameter_oracle(x).hex()
            pruned += not sizes or sizes[0] < n
    assert pruned > 39 * 3 // 2  # the pruned path, not a full scan, answers most of them


def test_opinion_diameter_identical_points_take_linear_time(monkeypatch):
    sizes = scanned_sizes(monkeypatch)
    for d in (1, 2, 8):
        x = np.full((10_000, d), -0.3)
        started = time.perf_counter()
        assert opinion_diameter(x) == 0.0
        # generous: only a return to the O(N^2) scan (seconds per call) trips it
        assert time.perf_counter() - started < 2.0
    assert sizes == []


@pytest.mark.parametrize("d", [2, 3])
def test_opinion_diameter_on_a_sphere_scans_every_point(monkeypatch, d):
    # antipodal pairs: every point is a rounding error away from the farthest
    # pair, so a pruning bound without slack would drop some of them
    rng = np.random.default_rng(3)
    v = rng.normal(size=(1000, d))
    v /= np.sqrt((v * v).sum(axis=1))[:, None]
    x = np.concatenate([v, -v])
    sizes = scanned_sizes(monkeypatch)
    assert opinion_diameter(x).hex() == diameter_oracle(x).hex()
    assert sizes == [2000]


def test_opinion_diameter_two_tight_clusters():
    rng = np.random.default_rng(4)
    for d in (2, 5):
        x = 1e-9 * rng.normal(size=(3000, d))
        x[1500:] += 7.0
        assert opinion_diameter(x).hex() == diameter_oracle(x).hex()


def test_opinion_diameter_tied_farthest_pairs():
    side = np.linspace(-1.0, 1.0, 51)
    grid = np.stack(np.meshgrid(side, side), axis=-1).reshape(-1, 2)  # four corners tie in two pairs
    cube = np.stack(np.meshgrid(side[::5], side[::5], side[::5]), axis=-1).reshape(-1, 3)
    doubled = np.concatenate([grid, grid])
    for x in (grid, cube, doubled):
        assert opinion_diameter(x).hex() == diameter_oracle(x).hex()


def test_opinion_diameter_negative_coordinates_and_signed_zero():
    rng = np.random.default_rng(5)
    for d in (1, 2, 4):
        x = -rng.uniform(0, 1, size=(2000, d))
        x[::3] = -0.0
        x[1::3] = 0.0 * x[1::3]
        assert opinion_diameter(x).hex() == diameter_oracle(x).hex()
        zeros = np.zeros((2000, d))
        zeros[::2] = -0.0
        assert opinion_diameter(zeros).hex() == diameter_oracle(zeros).hex() == (0.0).hex()


@pytest.mark.parametrize("scale", [1e150, 1e-150, 1e-162])
def test_opinion_diameter_extreme_magnitudes(scale):
    rng = np.random.default_rng(6)
    for d in (2, 3, 8):
        x = scale * rng.uniform(-1, 1, size=(1500, d))
        assert opinion_diameter(x).hex() == diameter_oracle(x).hex()


def test_opinion_diameter_in_one_dimension_is_max_minus_min():
    # the pairwise scan agrees except where a square under- or overflows
    rng = np.random.default_rng(8)
    for scale in (1.0, 1e-162, 1e200):
        x = scale * rng.uniform(-1, 1, size=(1500, 1))
        assert opinion_diameter(x) == float(x.max() - x.min())


def test_opinion_diameter_with_subnormal_squares_in_one_coordinate():
    rng = np.random.default_rng(7)
    x = rng.uniform(-1, 1, size=(2000, 2)) * np.array([1e-130, 1e-160])
    assert opinion_diameter(x).hex() == diameter_oracle(x).hex()


def test_metrics_rows_shape_and_degrees():
    sc = consensus_demo(horizon=5)
    traj = run(sc)
    rows = metrics_rows(traj)
    assert [r.t for r in rows] == list(range(6))
    assert rows[0].target_distances == (0.1,)
    assert rows[0].follower_max_distance == 0.3
    assert rows[0].max_alpha == 0.5
    assert rows[0].max_one_minus_beta_sum == 0.5
    assert rows[-1].max_alpha is None  # no step leaves the final state


def test_one_minus_beta_sum_adds_nine_groups_left_to_right():
    specs = [{"kind": "seeded_random", "seed": 40 + k, "low": 0.0, "high": 0.11} for k in range(9)]
    sc = scenario(
        followers=3,
        leader_groups=[(f"g{k}", 1, [float(k)], constant(0.5)) for k in range(9)],
        random_init={"distribution": "uniform_box", "low": 0.0, "high": 9.0, "seed": 2},
        follower_betas=specs,
        horizon=30,
    )
    schedules = [SeededRandom(40 + k, 0.0, 0.11) for k in range(9)]
    rows = metrics_rows(run(sc))
    pairwise_differs = 0
    for row in rows[:-1]:
        betas = [[s.at(i, row.t) for s in schedules] for i in range(3)]
        assert row.max_one_minus_beta_sum == max(1.0 - sum(b) for b in betas)
        pairwise_differs += row.max_one_minus_beta_sum != max(1.0 - np.sum(b) for b in betas)
    assert pairwise_differs > 0  # numpy's pairwise row sum would not do


def hexes(values):
    return None if values is None else [float(v).hex() for v in values]


@pytest.mark.parametrize("seed", range(6))
def test_series_equals_per_state_distances_bitwise(seed):
    rng = np.random.default_rng(300 + seed)
    for trial in range(8):
        cfg = random_mixed_config(rng, d_lo=1, d_hi=8, m_lo=0, m_hi=4,
                                  n_followers_hi=0 if trial % 4 == 0 else 20, horizon=6)
        sc = build_scenario(cfg)
        traj = run(sc)
        series = measure(traj)
        part = sc.partition
        fol = part.follower_ids
        assert len(series.target_distances) == len(series.max_alpha) == sc.m
        for k in range(1, sc.m + 1):
            assert hexes(series.target_distances[k - 1]) == hexes(
                max_target_distance(s, sc, k) for s in traj.states
            )
            assert hexes(series.max_alpha[k - 1]) == hexes(
                realized_alpha(sc, t)[part.leader_ids[k - 1]].max() for t in range(traj.horizon)
            )
        if sc.m:
            g = sc.target(1)
            assert hexes(series.radii) == hexes(distances_to(s.opinions, g).max() for s in traj.states)
            assert hexes(series.leader_max_alpha) == hexes(
                realized_alpha(sc, t)[part.group_of > 0].max() for t in range(traj.horizon)
            )
        else:
            assert series.radii is None and series.leader_max_alpha is None
        if sc.m and fol.size:
            assert hexes(series.follower_distances) == hexes(
                distances_to(s.opinions[fol], g).max() for s in traj.states
            )
        else:
            assert series.follower_distances is None
        if fol.size:
            assert hexes(series.max_rest) == hexes(
                (1.0 - beta_sums(realized_betas(sc, t)[fol])).max() for t in range(traj.horizon)
            )
        else:
            assert series.max_rest is None


def test_metrics_max_alpha_keeps_the_sign_of_a_zero_max():
    # every leader degree is zero; the ones of the first group are -0.0
    sc = scenario(
        epsilon=0.3,
        followers=3,
        leader_groups=[("a", 2, [0.9], constant(-0.0)), ("b", 2, [0.1], constant(0.0))],
        follower_betas=[constant(0.2), constant(0.3)],
        horizon=3,
    )
    traj = run(sc)
    expected = float(realized_alpha(sc, 0)[sc.partition.group_of > 0].max())
    by_group = max(col[0] for col in measure(traj).max_alpha)
    assert expected.hex() != by_group.hex()  # the max of the group maxima would flip it
    assert [r.max_alpha.hex() for r in metrics_rows(traj)[:-1]] == [expected.hex()] * 3


# ---------------------------------------------------------------------------
# convergence detection
# ---------------------------------------------------------------------------


def constant_states(value, count):
    return [SystemState(t, np.full((1, 1), value)) for t in range(count)]


def test_detect_convergence_constant_trajectory():
    for window in (1, 3, 5):
        rep = detect_convergence(constant_states(0.7, 10), tol=1e-9, window=window)
        assert rep.converged and rep.first_step == window


def test_detect_convergence_geometric_decay():
    states = [SystemState(t, np.full((1, 1), 0.5**t)) for t in range(40)]
    rep = detect_convergence(states, tol=1e-9, window=1)
    # displacement at step t is 0.5^(t-1) - 0.5^t = 0.5^t; 0.5^30 is the first below 1e-9
    assert rep.converged and rep.first_step == 30


def test_detect_convergence_two_cycle_never_converges():
    states = [SystemState(t, np.full((1, 1), 0.1 if t % 2 else -0.1)) for t in range(50)]
    rep = detect_convergence(states, tol=1e-3, window=2)
    assert not rep.converged and rep.first_step is None


def test_detect_convergence_agrees_with_run_stop():
    sc = scenario(
        epsilon=1.0,
        leader_groups=[("brand", 1, [0.0], constant(0.5))],
        initial=[[1.0]],
        horizon=100,
        stop_tol=1e-9,
        stop_window=1,
    )
    traj = run(sc)
    assert traj.stop_reason == STOP_CONVERGED
    rep = detect_convergence(traj, tol=1e-9, window=1)
    assert rep.converged and rep.first_step == traj.horizon == 30


# ---------------------------------------------------------------------------
# contraction
# ---------------------------------------------------------------------------


def test_contraction_step_hand_example():
    sc = two_leader_scenario()
    traj = run(sc, 1)
    rep = check_contraction_step(traj.states[0], traj.states[1], {0: 0.5, 1: 0.5}, sc)
    assert rep.passed
    by_label = {r.label: r for r in rep.records}
    agent0 = by_label["agent 0"]
    assert agent0.lhs == pytest.approx(0.15, abs=1e-12)
    assert agent0.rhs == pytest.approx(0.2, abs=1e-12)
    assert agent0.slack == pytest.approx(0.05, abs=1e-12)
    group = by_label["group brand"]
    assert group.lhs == pytest.approx(0.15, abs=1e-12)
    assert group.rhs == pytest.approx(0.2, abs=1e-12)


def test_contraction_alpha_zero_reaches_zero():
    sc = two_leader_scenario(alpha=0.0)
    traj = run(sc, 1)
    rep = check_contraction(traj)
    assert rep.passed
    assert max_target_distance(traj.states[1], sc, 1) == 0.0


def test_contraction_random_sweep_smoke():
    rng = np.random.default_rng(7)
    for _ in range(20):
        sc = build_scenario(random_mixed_config(rng, horizon=15))
        traj = run(sc)
        rep = check_contraction(traj)
        assert rep.passed, rep.failures()[:3]
        assert rep.worst_slack is None or rep.worst_slack >= -1e-9


def test_contraction_detects_mean_shift_fault():
    traj = run(consensus_demo(), fault="mean-shift")
    assert not check_contraction(traj).passed


def bits(report):
    """Records and params with floats as hex, so -0.0 and 0.0 differ."""
    records = [(r.t, r.label, r.lhs.hex(), r.rhs.hex()) for r in report.records]
    return records, report.params, report.status


def test_contraction_records_equal_naive_oracle():
    rng = np.random.default_rng(41)
    for d in range(1, 9):
        for m in range(1, 5):
            cfg = random_mixed_config(rng, d_lo=d, d_hi=d, m_lo=m, m_hi=m, leader_size_hi=9, horizon=4)
            traj = run(build_scenario(cfg))
            assert bits(check_contraction(traj)) == bits(contraction_oracle(traj)), (d, m)


@pytest.mark.parametrize("eps", [0.5, 0.1])
def test_contraction_on_an_epsilon_lattice_equals_naive_oracle(eps):
    # leaders exactly epsilon apart, so ties decide the neighbor sets; a
    # degree of -0.0 keeps the group bound at 0.0 * c0
    grid = [[eps * i, eps * j] for i in range(4) for j in range(3)]
    sc = scenario(
        dimension=2,
        epsilon=eps,
        followers=3,
        leader_groups=[("a", 12, [0.0, 0.0], constant(-0.0)), ("b", 12, [eps, eps], constant(0.5))],
        initial=[[eps, 0.0], [0.0, eps], [2 * eps, eps]] + grid + [[y, x] for x, y in grid],
        follower_betas=[constant(0.25), constant(0.25)],
        horizon=3,
    )
    traj = run(sc)
    ties = neighbor_sets(sc, traj.states[0])[7][0]  # group a's lattice point (eps, eps)
    assert ties.size == 5 if eps == 0.5 else ties.size > 1
    rep = check_contraction(traj)
    assert bits(rep) == bits(contraction_oracle(traj))
    groups = [r for r in rep.records if r.label == "group a"]
    assert [math.copysign(1.0, r.rhs) for r in groups] == [1.0] * 3
    assert any(math.copysign(1.0, r.rhs) < 0 for r in rep.records if r.label.startswith("agent"))


def test_monotone_group_distance():
    rng = np.random.default_rng(17)
    for _ in range(10):
        sc = build_scenario(random_mixed_config(rng, horizon=25))
        traj = run(sc)
        for k in range(1, sc.m + 1):
            curve = [max_target_distance(s, sc, k) for s in traj.states]
            for a, b in zip(curve, curve[1:]):
                assert b <= a + 1e-9


# ---------------------------------------------------------------------------
# target envelope
# ---------------------------------------------------------------------------


def test_envelope_tight_for_constant_half():
    sc = scenario(
        epsilon=1.0,
        leader_groups=[("brand", 1, [0.0], constant(0.5))],
        initial=[[1.0]],
        horizon=20,
    )
    traj = run(sc)
    rep = check_target_envelope(traj, 1, 0.5)
    assert rep.passed
    env = [r for r in rep.records if r.label == "envelope"]
    assert all(r.slack == 0.0 for r in env)  # 0.5^t is exactly representable


def test_envelope_certifies_at_197_steps():
    # ceil(log(1e-9) / log(0.9)) = 197
    sc = scenario(
        epsilon=1.0,
        leader_groups=[("brand", 1, [0.0], constant(0.9))],
        initial=[[1.0]],
        horizon=197,
    )
    traj = run(sc)
    rep = check_target_envelope(traj, 1, 0.9, target_tol=1e-9)
    assert rep.params["needed_horizon"] == 197
    final = [r for r in rep.records if r.label == "final_target"]
    assert len(final) == 1 and final[0].lhs <= 1e-9
    assert rep.passed

    short = run(sc, 196)
    rep_short = check_target_envelope(short, 1, 0.9, target_tol=1e-9)
    assert not any(r.label == "final_target" for r in rep_short.records)
    assert "note" in rep_short.params


def test_envelope_trivial_when_started_at_target():
    sc = scenario(
        epsilon=1.0,
        leader_groups=[("brand", 2, [0.0], constant(0.9))],
        initial=[[0.0], [0.0]],
        horizon=5,
    )
    rep = check_target_envelope(run(sc), 1, 0.9)
    assert rep.passed
    assert rep.params["needed_horizon"] == 0
    assert all(r.lhs == 0.0 for r in rep.records)


def test_envelope_inapplicable_when_delta_violated():
    traj = run(two_leader_scenario(alpha=0.8), 5)
    rep = check_target_envelope(traj, 1, 0.5)
    assert rep.status == "skipped"
    assert rep.reason.startswith(INAPPLICABLE)
    assert check_target_envelope(traj, 1, 1.0).status == "skipped"


def test_envelope_all_measures_delta():
    traj = run(consensus_demo(), 30)
    rep = check_target_envelope_all(traj)
    assert rep.passed
    assert rep.params["delta_brand"] == 0.5


def test_envelope_along_subsequence():
    # degrees alternate 1.0 and 0.5; contraction is only claimed on the 0.5 steps
    table = {"kind": "table", "values": [1.0, 0.5] * 10}
    sc = scenario(
        epsilon=1.0,
        leader_groups=[("brand", 1, [0.0], table)],
        initial=[[1.0]],
        horizon=20,
    )
    traj = run(sc)
    designated = [t for t in range(20) if t % 2 == 1]
    rep = target_envelope_along(traj, 1, 0.5, designated)
    assert rep.passed
    env = [r for r in rep.records if r.label == "envelope"]
    assert all(r.slack == 0.0 for r in env)  # bound is tight on this run
    bad = target_envelope_along(traj, 1, 0.5, [0])  # degree there is 1.0
    assert bad.status == "skipped"


def test_per_agent_vanishing_degree_reaches_target():
    # one leader's degree decays to zero while the others hold at 1; the
    # stubborn pair sits outside the decaying agent's confidence range
    cfg = config(
        epsilon=0.3,
        leader_groups=[("brand", 3, [0.0], constant(1.0))],
        initial=[[1.5], [2.5], [2.6]],
        horizon=60,
    )
    cfg["schedules"]["brand"]["per_agent"] = {
        "0": {"alpha": {"kind": "geometric_decay", "initial": 1.0, "ratio": 0.5}}
    }
    traj = run(build_scenario(cfg))
    final = traj.final_state.opinions
    assert abs(final[0, 0]) <= 1e-6
    assert abs(final[1, 0]) > 0.1  # averaging alone never reaches the target


# ---------------------------------------------------------------------------
# ball invariance
# ---------------------------------------------------------------------------


def test_ball_invariance_from_start():
    sc = consensus_demo()
    traj = run(sc)
    rep = check_ball_invariance(traj, sc.target(1), 0.3)
    assert rep.passed and rep.params["t0"] == 0


def test_ball_invariance_never_entered_is_vacuous():
    sc = scenario(
        epsilon=0.1,
        followers=1,
        leader_groups=[("brand", 1, [0.0], constant(1.0))],
        initial=[[5.0], [4.0]],
        follower_betas=[constant(0.0)],
        horizon=5,
    )
    rep = check_ball_invariance(run(sc), sc.target(1), 0.5)
    assert rep.passed and rep.params["t0"] == "never"


def test_ball_invariance_requires_single_leader_group():
    sc = scenario(
        epsilon=1.0,
        leader_groups=[("a", 1, [0.0], constant(0.5)), ("b", 1, [0.1], constant(0.5))],
        initial=[[0.0], [0.1]],
        horizon=2,
    )
    rep = check_ball_invariance(run(sc), sc.target(1), 1.0)
    assert rep.status == "skipped" and rep.reason.startswith(INAPPLICABLE)


def test_ball_invariance_defaults_to_target_and_initial_radius():
    sc = consensus_demo()
    traj = run(sc)
    radius = float(distances_to(sc.initial_state.opinions, sc.target(1)).max())
    explicit = check_ball_invariance(traj, sc.target(1), radius)
    assert check_ball_invariance(traj).to_dict() == explicit.to_dict()
    assert explicit.params["radius"] == 0.3 and explicit.status == "pass"


def test_ball_invariance_center_must_be_target():
    sc = consensus_demo()
    rep = check_ball_invariance(run(sc, 5), np.asarray([0.05]), 0.5)
    assert rep.status == "skipped"


# ---------------------------------------------------------------------------
# consensus bound
# ---------------------------------------------------------------------------


def test_consensus_demo_bound_and_oracle():
    sc = consensus_demo()
    traj = run(sc)
    # independent two-term recurrence: x_F' = (x_F + x_L) / 2, x_L' = x_L / 2
    xf, xl = 0.3, 0.1
    for state in traj.states[1:]:
        xf, xl = 0.5 * xf + 0.5 * xl, 0.5 * xl
        assert state.opinions[0, 0] == pytest.approx(xf, abs=1e-15)
        assert state.opinions[1, 0] == pytest.approx(xl, abs=1e-15)
    rep = check_consensus_bound(traj)
    assert rep.passed
    assert rep.params["gamma"] == 0.5
    assert rep.params["delta"] == 0.3
    assert rep.params["p"] == 0
    assert rep.params["final_distance"] <= 1e-6
    assert rep.worst_slack >= -1e-9


def test_consensus_all_at_target_trivially_met():
    sc = scenario(
        epsilon=1.0,
        followers=2,
        leader_groups=[("brand", 1, [0.0], constant(0.5))],
        initial=[[0.0], [0.0], [0.0]],
        follower_betas=[constant(0.5)],
        horizon=5,
    )
    rep = check_consensus_bound(run(sc))
    assert rep.passed
    assert rep.params["delta"] == 0.0


def test_consensus_inapplicable_when_beta_zero():
    sc = scenario(
        epsilon=1.0,
        followers=1,
        leader_groups=[("brand", 1, [0.0], constant(0.5))],
        initial=[[0.3], [0.1]],
        follower_betas=[constant(0.0)],
        horizon=10,
    )
    rep = check_consensus_bound(run(sc))
    assert rep.status == "skipped"
    assert rep.reason.startswith(INAPPLICABLE)
    assert rep.params["gamma"] == 1.0


def test_consensus_inapplicable_outside_ball():
    sc = scenario(
        epsilon=0.05,
        followers=1,
        leader_groups=[("brand", 1, [0.0], constant(0.5))],
        initial=[[5.0], [3.0]],
        follower_betas=[constant(0.5)],
        horizon=3,
    )
    rep = check_consensus_bound(run(sc))
    assert rep.status == "skipped"


def test_consensus_detects_mean_shift_fault():
    traj = run(consensus_demo(), fault="mean-shift")
    rep = check_consensus_bound(traj)
    assert rep.applicable and not rep.passed


# ---------------------------------------------------------------------------
# mixture limit
# ---------------------------------------------------------------------------


def mixture_scenario():
    return scenario(
        epsilon=3.0,
        followers=3,
        leader_groups=[
            ("low", 2, [0.0], constant(0.5)),
            ("high", 2, [1.0], constant(0.5)),
        ],
        initial=[[0.35], [0.5], [0.65], [0.05], [-0.05], [0.95], [1.05]],
        follower_betas=[constant(0.2), constant(0.2)],
        horizon=80,
    )


def test_mixture_limit_two_groups():
    sc = mixture_scenario()
    traj = run(sc)
    rep = check_mixture_limit(traj)
    assert rep.passed
    # predicted limit: (0.2 * 0 + 0.2 * 1) / 0.4 = 0.5
    final = traj.final_state.opinions
    for i in range(3):
        assert final[i, 0] == pytest.approx(0.5, abs=1e-6)
    for i in (3, 4):
        assert abs(final[i, 0]) <= 1e-6
    for i in (5, 6):
        assert final[i, 0] == pytest.approx(1.0, abs=1e-6)


def test_mixture_limit_single_group_collapses_to_target():
    sc = consensus_demo()
    rep = check_mixture_limit(run(sc))
    assert rep.passed  # weights collapse to the single target


def test_mixture_limit_undefined_for_zero_betas():
    sc = scenario(
        epsilon=5.0,
        followers=1,
        leader_groups=[
            ("low", 1, [0.0], constant(0.5)),
            ("high", 1, [1.0], constant(0.5)),
        ],
        initial=[[0.5], [0.0], [1.0]],
        follower_betas=[constant(0.0), constant(0.0)],
        horizon=10,
    )
    rep = check_mixture_limit(run(sc))
    assert rep.status == "skipped"
    assert rep.reason.startswith(UNDEFINED_LIMIT)


def test_mixture_limit_requires_stabilized_betas():
    sc = scenario(
        epsilon=5.0,
        followers=1,
        leader_groups=[("low", 1, [0.0], constant(0.5))],
        initial=[[0.5], [0.0]],
        follower_betas=[{"kind": "seeded_random", "seed": 5, "low": 0.1, "high": 0.6}],
        horizon=20,
    )
    rep = check_mixture_limit(run(sc))
    assert rep.status == "skipped"
    assert "not stabilized" in rep.reason


# ---------------------------------------------------------------------------
# subsystem independence
# ---------------------------------------------------------------------------


def subsystem_config(epsilon=1.0, targets=(0.0, 10.0)):
    lo, hi = targets
    cfg = config(
        epsilon=epsilon,
        followers=4,
        leader_groups=[
            ("south", 2, [lo], constant(0.5)),
            ("north", 2, [hi], constant(0.5)),
        ],
        initial=[[lo + 0.1], [lo + 0.2], [hi + 0.1], [hi + 0.2],
                 [lo - 0.05], [lo + 0.05], [hi - 0.05], [hi + 0.05]],
        follower_betas=[constant(0.4), constant(0.0)],
        per_agent_betas={
            2: [constant(0.0), constant(0.4)],
            3: [constant(0.0), constant(0.4)],
        },
        horizon=80,
    )
    return cfg


def test_subsystems_converge_to_own_targets():
    sc = build_scenario(subsystem_config())
    rep = check_subsystem_independence(sc)
    assert rep.passed, rep.reason
    assert rep.params["cross_contacts"] == 0
    assert rep.params["delta_1"] < sc.epsilon and rep.params["delta_2"] < sc.epsilon
    assert rep.params["gamma_1"] == 0.6 and rep.params["gamma_2"] == 0.6


def test_subsystems_crosstalk_when_everything_visible():
    sc = build_scenario(subsystem_config(epsilon=5.0, targets=(0.0, 1.0)))
    rep = check_subsystem_independence(sc)
    assert rep.status == "skipped"
    assert rep.reason.startswith(CROSSTALK)


def assigned_subsystem_config(rng, m, separated):
    """m leader groups, each follower mixing toward one group only; with
    ``separated`` every subsystem starts in a small box around its own
    target, far from the others, else all opinions share the unit cube."""
    d = int(rng.integers(1, 5))
    eps = round(float(rng.uniform(0.05, 0.2 if separated else 0.6)), 6)
    n_followers = int(rng.integers(2, 16))
    own = rng.integers(0, m, size=n_followers)
    sizes = rng.integers(1, 5, size=m)
    targets = [[3.0 * k] + [0.5] * (d - 1) for k in range(m)]
    spread = 0.3 * eps if separated else 1.0

    def draw(k):
        base = np.asarray(targets[k]) - spread / 2 if separated else np.zeros(d)
        return (base + rng.uniform(0.0, spread, size=d)).tolist()

    betas = {i: [constant(0.4 if k == own[i] else 0.0) for k in range(m)] for i in range(n_followers)}
    return config(
        dimension=d,
        epsilon=eps,
        followers=n_followers,
        leader_groups=[(f"g{k + 1}", int(sizes[k]), targets[k], random_alpha_spec(rng)) for k in range(m)],
        initial=[draw(k) for k in own] + [draw(k) for k in range(m) for _ in range(sizes[k])],
        follower_betas=[constant(0.0)] * m,
        per_agent_betas=betas,
        horizon=6,
    )


def test_crosstalk_reason_equals_naive_oracle():
    rng = np.random.default_rng(5)
    kinds = []
    for trial in range(40):
        m = int(rng.integers(2, 5))
        sc = build_scenario(assigned_subsystem_config(rng, m, separated=trial % 2 == 0))
        joint = run(sc, stop_tol=None)
        assignment = derive_subsystem_assignment(sc, joint.horizon)
        assert assignment is not None
        expected = crosstalk_oracle(sc, joint, assignment)
        rep = check_subsystem_independence(sc, joint=joint)
        if expected is None:
            assert not (rep.reason or "").startswith(CROSSTALK)
            kinds.append("none")
        else:
            assert rep.status == "skipped" and rep.reason == f"{CROSSTALK}: {expected}"
            kinds.append(expected.split()[0])
    assert {"none", "followers", "follower"} <= set(kinds), kinds


def test_single_subsystem_reduces_to_consensus_check():
    sc = consensus_demo()
    joint = run(sc)
    rep = check_subsystem_independence(sc, joint=joint)
    consensus = check_consensus_bound(joint)
    assert rep.passed and consensus.passed


def test_subsystem_assignment_fails_on_overlapping_betas():
    cfg = subsystem_config()
    cfg["schedules"]["crowd"]["betas"] = [constant(0.2), constant(0.2)]
    del cfg["schedules"]["crowd"]["per_agent"]
    rep = check_subsystem_independence(build_scenario(cfg))
    assert rep.status == "skipped"
    assert rep.reason.startswith(INAPPLICABLE)


def test_joint_run_equals_standalone_rerun_bitwise():
    from lfmix.analysis import subsystem_scenario

    sc = build_scenario(subsystem_config())
    joint = run(sc, 40, stop_tol=None)
    sub, originals = subsystem_scenario(sc, 1, [0, 1])
    alone = run(sub, 40, stop_tol=None)
    for t in range(41):
        assert np.array_equal(alone.states[t].opinions, joint.states[t].opinions[originals])


def ball_scenario(horizon=40, stop_tol=None):
    """One leader group with every opinion inside the epsilon ball around
    its target, so cor2 passes and reaches its standalone run."""
    return scenario(
        dimension=2,
        epsilon=0.2,
        followers=12,
        leader_groups=[("brand", 3, [0.5, 0.5], {"kind": "seeded_random", "seed": 3, "low": 0.3, "high": 0.7})],
        random_init={"distribution": "uniform_box", "low": 0.4, "high": 0.6, "seed": 11},
        follower_betas=[constant(0.5)],
        horizon=horizon,
        stop_tol=stop_tol,
    )


@pytest.fixture
def analysis_runs(monkeypatch):
    """Arguments of every ``run`` call made by ``lfmix.analysis``."""
    calls = []
    real = analysis.run

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(analysis, "run", counting)
    return calls


def report_bits(rep):
    """A report with every float as hex, so -0.0, 0.0 and the last ulp count."""
    def bits(v):
        return v.hex() if isinstance(v, float) else v

    return (
        rep.status,
        rep.reason,
        {k: bits(v) for k, v in rep.params.items()},
        [(r.t, r.label, bits(r.lhs), bits(r.rhs)) for r in rep.records],
    )


def test_one_group_cor2_reuses_the_joint_run(analysis_runs):
    sc = ball_scenario()
    joint = run(sc)
    assert joint.fault is None and joint.stop_tol is None
    rep = check_subsystem_independence(sc, joint=joint)
    assert rep.status == "pass" and len(rep.records) == 2 * sc.n_agents
    assert analysis_runs == []


def test_cor2_reads_leader_degrees_from_the_series(monkeypatch):
    sc = build_scenario(subsystem_config())
    joint = run(sc)
    series = measure(joint)
    expected = report_bits(check_subsystem_independence(sc, joint=joint))
    monkeypatch.setattr(analysis, "realized_alpha", lambda *a: pytest.fail("cor2 re-queried the alphas"))
    rep = check_subsystem_independence(sc, joint=joint, series=series)
    assert rep.status == "pass" and report_bits(rep) == expected


def test_two_group_cor2_reruns_each_subsystem(analysis_runs):
    sc = build_scenario(subsystem_config())
    rep = check_subsystem_independence(sc, joint=run(sc))
    assert rep.status == "pass"
    assert len(analysis_runs) == 2


def test_one_group_cor2_reruns_a_faulty_joint_run(analysis_runs):
    sc = ball_scenario()
    joint = run(sc, fault="mean-shift")
    assert joint.fault == "mean-shift"
    rep = check_subsystem_independence(sc, joint=joint)
    assert rep.status == "fail"
    assert len(analysis_runs) == 1


def test_one_group_cor2_reruns_a_joint_run_with_a_stop_tol(analysis_runs):
    sc = ball_scenario(horizon=200, stop_tol=1e-9)
    joint = run(sc)
    assert joint.stop_tol == 1e-9 and joint.stop_reason == STOP_CONVERGED
    check_subsystem_independence(sc, joint=joint)
    assert len(analysis_runs) == 1


def test_reused_report_equals_rerun_report_bitwise(analysis_runs):
    sc = ball_scenario()
    joint = run(sc)
    # a tolerance that only an exact fixed point meets: the same states,
    # but the run is recorded with a tolerance stop, so cor2 re-runs it
    rerun_joint = run(sc, stop_tol=5e-324)
    assert all(np.array_equal(a.opinions, b.opinions) for a, b in zip(joint.states, rerun_joint.states))
    assert len(joint.states) == len(rerun_joint.states)
    reused = check_subsystem_independence(sc, joint=joint)
    assert analysis_runs == []
    rerun = check_subsystem_independence(sc, joint=rerun_joint)
    assert len(analysis_runs) == 1
    assert report_bits(reused) == report_bits(rerun)
