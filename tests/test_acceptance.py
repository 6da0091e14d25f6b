"""Acceptance suite: one test per top-level guarantee, each printing a
pass/fail line with the measured quantity it certifies.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
All bounds are property-based at desk scale; every expected value is either
recomputed in-test by an independent oracle or asserted at the stated
tolerance.
"""

import json
import math
import time
from pathlib import Path

import numpy as np

from helpers import config, constant, hk_reference_step, pairs_match_naive, random_mixed_config
from lfmix import (
    build_scenario,
    check_consensus_bound,
    check_contraction,
    check_mixture_limit,
    check_subsystem_independence,
    check_target_envelope,
    compute_neighbors,
    load_scenario,
    run,
)
from lfmix.analysis import distances_to, max_target_distance
from lfmix.cli import main
from lfmix.dynamics import step

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_contraction_sweep():
    """500 randomized scenarios, every step up to T = 200, slack >= -1e-9."""
    rng = np.random.default_rng(20260810)
    failures = 0
    worst = math.inf
    for _ in range(500):
        sc = build_scenario(
            random_mixed_config(rng, n_followers_hi=12, leader_size_hi=5, d_hi=5, m_hi=4, horizon=200)
        )
        assert sc.n_agents <= 50 and sc.dimension <= 5 and sc.m <= 4
        rep = check_contraction(run(sc))
        if not rep.passed:
            failures += 1
        if rep.worst_slack is not None:
            worst = min(worst, rep.worst_slack)
    report(1, failures == 0 and worst >= -1e-9,
           f"500 scenarios x 200 steps, {failures} failures, worst slack {worst:.3e}")


def test_criterion_2_target_envelope():
    """C_t <= 0.9^t C_0 + 1e-12; C_T <= 1e-9 at the derived horizon; the
    per-agent vanishing-degree clause reaches 1e-6 by T = 60."""
    rng = np.random.default_rng(7)
    ok = True
    details = []
    for trial in range(5):
        c0 = float(rng.uniform(0.5, 2.0))
        d = int(rng.integers(1, 4))
        n = int(rng.integers(1, 8))
        # one leader pinned at distance exactly c0, the rest inside
        dirs = rng.normal(size=(n, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        radii = rng.uniform(0.0, c0, size=(n, 1))
        radii[0] = c0
        opinions = dirs * radii
        horizon = math.ceil(math.log(1e-9 / c0) / math.log(0.9))
        assert 190 <= horizon <= 204  # 197..204 for c0 >= 1, slightly fewer below
        cfg = config(
            dimension=d,
            epsilon=5.0,
            leader_groups=[("brand", n, [0.0] * d, constant(0.9))],
            initial=opinions.tolist(),
            horizon=horizon,
        )
        traj = run(build_scenario(cfg))
        rep = check_target_envelope(traj, 1, 0.9)
        final = rep.params["final_value"]
        ok = ok and rep.worst_slack >= -1e-12 and final <= 1e-9
        details.append(f"C0 {c0:.3f}: T {horizon}, final {final:.2e}")

    # vanishing-degree clause: agent 0 decays 0.5^t among stubborn alpha = 1 peers
    cfg = config(
        epsilon=10.0,
        leader_groups=[("brand", 3, [0.0], constant(1.0))],
        initial=[[1.7], [1.1], [2.0]],
        horizon=60,
    )
    cfg["schedules"]["brand"]["per_agent"] = {
        "0": {"alpha": {"kind": "geometric_decay", "initial": 1.0, "ratio": 0.5}}
    }
    traj = run(build_scenario(cfg))
    agent0 = abs(traj.final_state.opinions[0, 0])
    ok = ok and agent0 <= 1e-6
    report(2, ok, f"{'; '.join(details)}; per-agent clause at T=60: {agent0:.2e}")


def test_criterion_3_ball_invariance_sweep():
    """100 randomized single-group systems started inside B(g, 0.9 eps):
    zero escapes over 500 steps with slack 1e-12."""
    rng = np.random.default_rng(31)
    escapes = 0
    for _ in range(100):
        d = int(rng.integers(1, 4))
        eps = float(rng.uniform(0.3, 1.5))
        radius = 0.9 * eps
        g = rng.uniform(-1.0, 1.0, size=d)
        n_fol = int(rng.integers(0, 6))
        n_lead = int(rng.integers(1, 6))
        n = n_fol + n_lead
        dirs = rng.normal(size=(n, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        opinions = g + dirs * rng.uniform(0.0, radius, size=(n, 1))
        cfg = config(
            dimension=d,
            epsilon=eps,
            followers=n_fol,
            leader_groups=[("brand", n_lead, g.tolist(), constant(float(rng.uniform(0, 1))))],
            initial=opinions.tolist(),
            follower_betas=[constant(float(rng.uniform(0, 0.9)))] if n_fol else None,
            horizon=500,
        )
        traj = run(build_scenario(cfg))
        for state in traj.states:
            if float(distances_to(state.opinions, g).max()) > radius + 1e-12:
                escapes += 1
                break
    report(3, escapes == 0, f"100 scenarios x 500 steps inside B(g, 0.9*eps), {escapes} escapes")


def test_criterion_4_consensus_demo():
    """Measured gamma = 0.5; two-term bound holds with slack >= -1e-9; final
    distance <= 1e-6 within T = 60."""
    sc = load_scenario(SCENARIOS / "consensus_demo.json")
    traj = run(sc, 60, stop_tol=None)
    rep = check_consensus_bound(traj)
    ok = (
        rep.passed
        and rep.params["gamma"] == 0.5
        and rep.worst_slack >= -1e-9
        and rep.params["final_distance"] <= 1e-6
    )
    report(4, ok, f"gamma {rep.params['gamma']}, worst slack {rep.worst_slack:.2e}, "
                  f"final {rep.params['final_distance']:.2e}")


def test_criterion_5_mixture_limit():
    """Followers end within 1e-6 of the beta mixture 0.5; leaders at targets."""
    sc = load_scenario(SCENARIOS / "mixture_demo.json")
    traj = run(sc)
    rep = check_mixture_limit(traj)
    final = traj.final_state.opinions
    followers = sc.partition.follower_ids
    predicted = (0.2 * 0.0 + 0.2 * 1.0) / 0.4  # independent hand computation
    worst_f = float(np.abs(final[followers, 0] - predicted).max())
    worst_l = max(max_target_distance(traj.final_state, sc, k) for k in (1, 2))
    ok = rep.passed and worst_f <= 1e-6 and worst_l <= 1e-6
    report(5, ok, f"follower error {worst_f:.2e} vs limit {predicted}, leader error {worst_l:.2e}")


def test_criterion_6_subsystems():
    """Well-separated subsystems reach their own targets; zero cross contacts."""
    sc = load_scenario(SCENARIOS / "subsystems_demo.json")
    rep = check_subsystem_independence(run(sc))
    ok = rep.passed and rep.params["cross_contacts"] == 0
    # record slack is consensus_tol - distance, so the worst distance is:
    worst_distance = 1e-6 - rep.worst_slack if rep.worst_slack is not None else math.nan
    report(6, ok, f"status {rep.status}, cross contacts {rep.params.get('cross_contacts')}, "
                  f"max final distance {worst_distance:.2e}")


def test_criterion_7_neighbor_equivalence():
    """200 random states (N up to 10^4, d in 1..3): the engine's pair search
    equals the naive reference exactly."""
    rng = np.random.default_rng(77)
    mismatches = 0
    sizes = []
    for trial in range(200):
        if trial < 185:
            n = int(rng.integers(2, 400))
        elif trial < 197:
            n = int(rng.integers(400, 2500))
        else:
            n = 10_000
        sizes.append(n)
        d = int(rng.integers(1, 4))
        m = int(rng.integers(0, 3))
        leader_sizes = [int(rng.integers(1, max(2, n // 10))) for _ in range(m)]
        n_fol = n - sum(leader_sizes)
        if n_fol < 0:
            m, leader_sizes, n_fol = 0, [], n
        eps = float(rng.uniform(0.02, 0.4))
        cfg = config(
            dimension=d,
            epsilon=eps,
            followers=n_fol,
            leader_groups=[
                (f"g{k}", leader_sizes[k], [0.0] * d, constant(0.5)) for k in range(m)
            ],
            random_init={"distribution": "uniform_box", "low": -1.0, "high": 1.0,
                         "seed": int(rng.integers(0, 2**31))},
            follower_betas=[constant(0.1)] * m if n_fol else None,
        )
        sc = build_scenario(cfg)
        if not pairs_match_naive(sc):
            mismatches += 1
    report(7, mismatches == 0,
           f"200 states (max N {max(sizes)}), {mismatches} pair-search/naive discrepancies")


def test_criterion_8_hk_reduction():
    """50 follower-only scenarios: engine step is bit-identical to the
    independent plain averaging reference."""
    rng = np.random.default_rng(88)
    exact = 0
    for _ in range(50):
        n = int(rng.integers(2, 50))
        d = int(rng.integers(1, 4))
        cfg = config(
            dimension=d,
            epsilon=float(rng.uniform(0.05, 0.8)),
            followers=n,
            random_init={"distribution": "uniform_box", "low": 0.0, "high": 1.0,
                         "seed": int(rng.integers(0, 2**31))},
        )
        sc = build_scenario(cfg)
        nxt, _ = step(sc.initial_state, sc, 0)
        if np.array_equal(nxt.opinions, hk_reference_step(sc.initial_state.opinions, sc.epsilon)):
            exact += 1
    report(8, exact == 50, f"{exact}/50 follower-only steps bit-identical to the reference")


def test_criterion_9_thread_determinism(tmp_path):
    """trajectory.csv is byte-identical across 1, 2, and 8 worker threads."""
    cfg = config(
        dimension=2,
        epsilon=0.15,
        followers=270,
        leader_groups=[("brand", 30, [0.5, 0.5], constant(0.8))],
        random_init={"distribution": "uniform_box", "low": 0.0, "high": 1.0, "seed": 12},
        follower_betas=[{"kind": "seeded_random", "seed": 9, "low": 0.0, "high": 0.35}],
        horizon=30,
        stop_tol=None,
    )
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    blobs = {}
    for threads in (1, 2, 8):
        out = tmp_path / f"threads{threads}"
        code = main(["simulate", "--scenario", str(path), "--out", str(out),
                     "--threads", str(threads)])
        assert code == 0
        blobs[threads] = (out / "trajectory.csv").read_bytes()
    ok = blobs[1] == blobs[2] == blobs[8]
    report(9, ok, f"3 runs, {len(blobs[1])} bytes each, identical: {ok}")


def test_criterion_10_harness_sensitivity(tmp_path):
    """With the mean-shift fault injected, contraction and consensus checks
    fail and the CLI exits 4."""
    report_path = tmp_path / "report.json"
    code = main(["check", "--scenario", str(SCENARIOS / "consensus_demo.json"),
                 "--checks", "lemma1,thm4", "--inject-fault", "mean-shift",
                 "--report", str(report_path)])
    payload = json.loads(report_path.read_text())
    statuses = {k: v["status"] for k, v in payload["checks"].items()}
    ok = code == 4 and statuses == {"lemma1": "fail", "thm4": "fail"}
    report(10, ok, f"exit {code}, statuses {statuses}")


def test_criterion_11_performance():
    """10^4 agents, d = 2, grid search, mean neighborhood near 20: one step
    within 1 s, 100 steps within 60 s."""
    sc = load_scenario(SCENARIOS / "perf_10k.json")
    state = sc.initial_state
    rows, cols = compute_neighbors(state, sc)
    group_of = sc.partition.group_of
    follower_pairs = int(((group_of[rows] == 0) & (group_of[cols] == 0)).sum())
    mean_size = follower_pairs / sc.partition.follower_ids.size

    t0 = time.perf_counter()
    step(state, sc, 0)
    one = time.perf_counter() - t0

    t0 = time.perf_counter()
    traj = run(sc, 100)
    hundred = time.perf_counter() - t0

    ok = one <= 1.0 and hundred <= 60.0 and traj.horizon == 100
    report(11, ok, f"mean neighborhood {mean_size:.1f}, one step {one:.3f}s, 100 steps {hundred:.1f}s")
