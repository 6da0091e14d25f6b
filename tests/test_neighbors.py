"""Neighbor search: the exact reference, and the engine's pair search against it
on both sides of its grid/scan choice."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import config, constant, neighbor_sets, pairs_match_naive
from lfmix import build_scenario, compute_neighbors, neighbors_naive


def pair_list(rows, cols):
    return list(zip(rows.tolist(), cols.tolist()))


def follower_only(opinions, epsilon, d=1, strategy="auto"):
    cfg = config(
        dimension=d,
        epsilon=epsilon,
        followers=len(opinions),
        initial=[list(np.atleast_1d(o)) for o in opinions],
        neighbor_strategy=strategy,
    )
    return build_scenario(cfg)


def test_naive_1d_example():
    # pairwise distances: |0-0.5| = 0.5 <= 0.6; |0-1.2| = 1.2 > 0.6; |0.5-1.2| = 0.7 > 0.6
    sc = follower_only([[0.0], [0.5], [1.2]], 0.6)
    assert pair_list(*neighbors_naive(sc.initial_state, sc)) == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)]


def test_identical_opinions_are_mutual_neighbors():
    sc = follower_only([[0.7], [0.7]], 0.1)
    assert pair_list(*neighbors_naive(sc.initial_state, sc)) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_boundary_tie_counts_as_neighbor():
    # distance exactly epsilon, on both sides of the grid/scan choice
    sc = follower_only([[0.0], [0.5]], 0.5)
    for pairs in (neighbors_naive(sc.initial_state, sc), compute_neighbors(sc.initial_state, sc)):
        assert pair_list(*pairs) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    lattice = [[0.5 * i] for i in range(-40, 40)]  # 80 agents, neighbors exactly epsilon apart
    sc = follower_only(lattice, 0.5)
    assert pairs_match_naive(sc)
    rows, cols = compute_neighbors(sc.initial_state, sc)
    assert cols[rows == 10].tolist() == [9, 10, 11]
    grid2 = [[0.25 * i, 0.25 * j] for i in range(-5, 5) for j in range(-5, 5)]
    sc = follower_only(grid2, 0.25, d=2)
    assert pairs_match_naive(sc)


def test_grid_keeps_pair_whose_rounded_distance_is_epsilon():
    # 0.5 - (-1e-17) rounds to 0.5, so the pair counts, though the two
    # opinions lie two epsilon-cells apart
    far = [[10.0 + i] for i in range(62)]
    sc = follower_only([[-1e-17], [0.5], *far], 0.5)
    rows, cols = neighbors_naive(sc.initial_state, sc)
    assert cols[rows == 0].tolist() == [0, 1]
    assert pairs_match_naive(sc)
    sc = follower_only([[-1e-17, 3.0], [0.5, 3.0], *[[v[0], 0.0] for v in far]], 0.5, d=2)
    assert pairs_match_naive(sc)


def test_identical_opinions_on_both_sides_of_the_grid_choice():
    for n, d in ((5, 3), (70, 2), (70, 7)):
        sc = follower_only([[-0.3] * d] * n, 0.01, d=d)
        rows, cols = compute_neighbors(sc.initial_state, sc)
        assert rows.size == n * n
        assert pairs_match_naive(sc)


def mixed_scenario():
    return build_scenario(
        config(
            dimension=1,
            epsilon=0.3,
            followers=3,
            leader_groups=[
                ("a", 2, [0.0], constant(0.5)),
                ("b", 2, [1.0], constant(0.5)),
            ],
            initial=[[0.1], [0.5], [0.9], [0.0], [0.2], [1.0], [0.8]],
            follower_betas=[constant(0.2), constant(0.2)],
        )
    )


def test_group_split_and_leader_scope():
    sc = mixed_scenario()
    rows, cols = neighbors_naive(sc.initial_state, sc)
    # the pairs span groups: leader 5 (group b at 1.0) is within epsilon of follower 2
    assert cols[rows == 5].tolist() == [2, 5, 6]
    sets = neighbor_sets(sc)
    # follower 0 at 0.1: follower neighbors {0}, group-a leaders {3, 4}, group-b none
    own, leaders = sets[0]
    assert own.tolist() == [0]
    assert [ids.tolist() for ids in leaders] == [[3, 4], []]
    # a leader's own set holds only its own group
    assert sets[5][0].tolist() == [5, 6]
    assert sets[3][0].tolist() == [3, 4]


def test_self_membership_and_symmetry():
    sc = mixed_scenario()
    for rows, cols in (neighbors_naive(sc.initial_state, sc), compute_neighbors(sc.initial_state, sc)):
        assert np.array_equal(np.lexsort((cols, rows)), np.arange(rows.size))  # sorted by (row, col)
        pairs = set(pair_list(rows, cols))
        assert len(pairs) == rows.size
        assert all((i, i) in pairs for i in range(sc.n_agents))
        assert pairs == {(j, i) for i, j in pairs}


def random_state_scenario(rng, n, d, m_max=3, strategy="auto"):
    m = int(rng.integers(0, m_max + 1))
    sizes = [int(rng.integers(1, 4)) for _ in range(m)]
    n_followers = max(0, n - sum(sizes))
    if n_followers == 0 and m == 0:
        n_followers = n
    leader_groups = [
        (f"g{k}", sizes[k], [0.0] * d, constant(0.5)) for k in range(m)
    ]
    total = n_followers + sum(sizes)
    opinions = rng.uniform(-1.0, 1.0, size=(total, d))
    cfg = config(
        dimension=d,
        epsilon=round(float(rng.uniform(0.05, 0.8)), 6),
        followers=n_followers,
        leader_groups=leader_groups,
        initial=opinions.tolist(),
        follower_betas=[constant(0.1)] * m if n_followers else None,
        neighbor_strategy=strategy,
    )
    return build_scenario(cfg)


@given(st.integers(0, 10_000), st.integers(1, 150), st.integers(1, 8))
@settings(max_examples=120, deadline=None)
def test_grid_equals_naive(seed, n, d):
    rng = np.random.default_rng(seed)
    sc = random_state_scenario(rng, n, d)
    assert pairs_match_naive(sc)


def test_grid_equals_naive_tiny_cases():
    for opinions in ([[0.0]], [[0.0], [10.0]], [[0.0], [0.25], [0.5]]):
        sc = follower_only(opinions, 0.3)
        assert pairs_match_naive(sc)


def test_grid_negative_coordinates():
    sc = follower_only([[-1.05], [-0.95], [0.0]], 0.2)
    assert pairs_match_naive(sc)
    rng = np.random.default_rng(7)
    for d in (1, 3, 6):
        sc = follower_only(rng.uniform(-3.0, -1.0, size=(100, d)).tolist(), 0.4, d=d)
        assert pairs_match_naive(sc)


def test_grid_spread_beyond_int64_cell_keys():
    # 10^6 cells per axis over 6 axes: the cell keys wrap modulo 2^64
    rng = np.random.default_rng(12)
    base = rng.integers(-10**6, 10**6, size=(40, 6)) * 1e-3
    shift = np.zeros(6)
    shift[0] = 4e-4
    opinions = np.vstack([base, base + shift, base - shift])
    sc = follower_only(opinions.tolist(), 1e-3, d=6)
    assert pairs_match_naive(sc)
    rows, _ = compute_neighbors(sc.initial_state, sc)
    assert np.bincount(rows, minlength=sc.n_agents).min() >= 3


def test_strategy_dispatch_matches():
    for strategy in ("naive", "grid", "auto"):
        sc = random_state_scenario(np.random.default_rng(11), 90, 2, strategy=strategy)
        assert pairs_match_naive(sc)
        rows, cols = compute_neighbors(sc.initial_state, sc)
        if strategy == "naive":
            first = (rows, cols)
        assert np.array_equal(rows, first[0]) and np.array_equal(cols, first[1])

