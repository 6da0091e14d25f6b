"""Neighbor search: the exact reference, the engine's pair search against it
on both sides of its grid/scan choice, and the pair list a run keeps."""

import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import config, constant, neighbor_sets, pairs_match_naive, pairs_oracle
from lfmix import SystemState, build_scenario, compute_neighbors, neighbors_naive
from lfmix import neighbors
from lfmix.neighbors import PairTracker


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


def oracle_cases(rng, d):
    """(opinions, epsilon) clouds in d dimensions: uniform points, points on
    an epsilon lattice (ties at exactly epsilon, exact at 0.5 and rounded at
    0.1), lattice points whose zero coordinates are -0.0, and clouds scaled
    to 1e150 and 1e-150."""
    cloud = rng.uniform(-1.0, 1.0, size=(40, d))
    near = 0.6 * d**0.5  # below the typical pair distance of the cloud, about 0.8 sqrt(d)
    cases = [(cloud, near)]
    # 20 lattice points, each with a copy one lattice step away along one axis
    base = rng.integers(-2, 3, size=(20, d))
    step = np.zeros((20, d), dtype=np.int64)
    step[np.arange(20), rng.integers(0, d, size=20)] = rng.choice([-1, 1], size=20)
    lattice = np.vstack([base, base + step])
    for eps in (0.5, 0.1):
        cases.append((eps * lattice, eps))
    signed = 0.5 * lattice
    signed[(signed == 0.0) & (rng.random(signed.shape) < 0.5)] = -0.0
    cases.append((signed, 0.5))
    for scale in (1e150, 1e-150):
        cases.append((scale * cloud, scale * near))
    return cases


@pytest.mark.parametrize("d", range(1, 9))
def test_naive_equals_per_pair_oracle(d):
    rng = np.random.default_rng(600 + d)
    for opinions, eps in oracle_cases(rng, d):
        sc = follower_only(opinions.tolist(), eps, d=d)
        rows, cols = neighbors_naive(sc.initial_state, sc)
        assert rows.dtype == cols.dtype == np.int32
        expected = pairs_oracle(sc)
        assert pair_list(rows, cols) == expected, (eps, opinions[:2])
        assert len(expected) > sc.n_agents  # some pairs besides the agents themselves


def test_naive_equals_per_pair_oracle_on_both_sides_of_the_grid_choice():
    rng = np.random.default_rng(66)
    for d in (2, 6):
        for opinions, eps in oracle_cases(rng, d)[1:3]:
            sc = follower_only(np.vstack([opinions, opinions[:30] + eps]).tolist(), eps, d=d)
            assert sc.n_agents >= 64
            assert pair_list(*neighbors_naive(sc.initial_state, sc)) == pairs_oracle(sc)
            assert pairs_match_naive(sc)


def epsilon_with_square(target):
    """A float e whose square rounds to ``target``, or None if none does."""
    e = math.sqrt(target)
    for _ in range(4):
        e = math.nextafter(e, -math.inf)
    for _ in range(9):
        if e * e == target and e**2 == target:
            return e
        e = math.nextafter(e, math.inf)
    return None


def tie_cases(d):
    """(opinions, epsilon, j, kept) clouds of 70 agents in d dimensions whose
    epsilon^2 is the reference squared distance R of the pair (0, j), or one
    ulp below or above R; kept tells whether the pair counts. Pairs whose
    squares, added column by column, give a sum other than R come first
    (numpy adds 8 or more contiguous values pairwise, so d = 8 always has
    some)."""
    rng = np.random.default_rng(800 + d)
    cloud = rng.uniform(-1.0, 1.0, size=(70, d)) * 2.0 ** rng.integers(-3, 4, size=(70, d))
    diff = cloud[0] - cloud[1:]
    squares = diff * diff
    ref = squares.sum(axis=-1)
    by_columns = functools.reduce(np.add, squares.T)
    if d == 8:
        assert (ref != by_columns).sum() >= 4
    cases = []
    for j in np.argsort(ref == by_columns, kind="stable")[:4].tolist():
        for target, kept in ((ref[j], True), (math.nextafter(ref[j], -math.inf), False),
                             (math.nextafter(ref[j], math.inf), True)):
            eps = epsilon_with_square(target)
            if eps is not None:
                cases.append((cloud, eps, j + 1, kept))
    return cases


@pytest.mark.parametrize("d", range(1, 9))
def test_pairs_at_and_one_ulp_around_epsilon_squared_equal_per_pair_oracle(d):
    cases = tie_cases(d)
    assert len(cases) >= 6
    for cloud, eps, j, kept in cases:
        sc = follower_only(cloud.tolist(), eps, d=d)
        expected = pairs_oracle(sc)
        assert ((0, j) in expected) == kept
        assert pair_list(*neighbors_naive(sc.initial_state, sc)) == expected, (j, eps)
        assert pair_list(*compute_neighbors(sc.initial_state, sc)) == expected, (j, eps)


@pytest.mark.parametrize("d", range(1, 13))
def test_scan_verdicts_stand_with_every_screening_value_moved_by_its_slack(d, monkeypatch):
    # the scan's proof lets each screening value move by up to its row's
    # slack sigma; moving every one by almost that much, either way, must
    # leave every verdict the reference's, so a BLAS that rounds otherwise
    # cannot change one
    screen = neighbors._screen
    ties = [(cloud, eps) for cloud, eps, _, _ in tie_cases(d)]
    assert len(ties) >= 4
    for opinions, eps in ties + oracle_cases(np.random.default_rng(900 + d), d)[1:4]:
        sc = follower_only(opinions.tolist(), eps, d=d)
        expected = pairs_oracle(sc)
        for sign in (-1.0, 1.0):
            def moved(q, base, sigma, sign=sign):
                return screen(q + sign * (1 - 2.0**-10) * sigma[:, None], base, sigma)

            monkeypatch.setattr(neighbors, "_screen", moved)
            assert pair_list(*neighbors_naive(sc.initial_state, sc)) == expected, (sign, eps)


def hostile_cases(rng):
    """(opinions, epsilon, all in the band) clouds at magnitudes the screen
    cannot separate, or that overflow it."""
    d = 3
    cases = []
    # norms near and past the largest float: every pair goes to the band
    cloud = rng.uniform(-1.0, 1.0, size=(40, d))
    cases.append((1e154 * np.vstack([cloud, cloud[:10] + 0.1]), 0.3e154, True))
    huge = 1e300 * rng.choice([-1.0, 0.5, 1.0], size=(20, d))
    cases.append((np.vstack([huge, cloud, cloud[:10] * 0.999]), 0.2, True))
    # a common offset dwarfs the spread: the slack covers every pair
    cases.append((1e8 + 1e-3 * cloud, 1e-3, True))
    # epsilon^2 near the smallest normal float
    cases.append((2.0**-510 * np.vstack([cloud, cloud[:10] * 0.99]), 2.0**-510, False))
    # zeros of both signs on an epsilon lattice
    signed = 0.5 * rng.integers(-1, 2, size=(40, d)).astype(float)
    signed[(signed == 0.0) & (rng.random(signed.shape) < 0.5)] = -0.0
    cases.append((signed, 0.5, False))
    return cases


def test_scan_on_hostile_magnitudes_equals_per_pair_oracle(monkeypatch):
    screen = neighbors._screen
    banded = []

    def spy(q, base, sigma):
        keep, band = screen(q, base, sigma)
        banded.append(bool(band.all()))
        return keep, band

    monkeypatch.setattr(neighbors, "_screen", spy)
    for opinions, eps, all_banded in hostile_cases(np.random.default_rng(77)):
        sc = follower_only(opinions.tolist(), eps, d=opinions.shape[1])
        with np.errstate(over="ignore"):  # the per-pair oracle's own squares overflow
            expected = pairs_oracle(sc)
        assert len(expected) > sc.n_agents
        banded.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pair_list(*neighbors_naive(sc.initial_state, sc)) == expected, eps
        assert banded and all(banded) == all_banded, eps


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



def states_of(rows):
    return [SystemState(t, np.array(r, dtype=np.float64)) for t, r in enumerate(rows)]


def test_pair_list_follows_pairs_across_epsilon_by_rebuilding():
    # epsilon 1: agent 1 drifts in toward agent 0 and lands exactly on
    # epsilon, then inside; agent 2 sits exactly on epsilon from agent 0,
    # then drifts out; agent 4 starts inside, crosses out, and comes back;
    # agent 3 stays put. Every position is a multiple of 1/32, so each
    # distance is exact, and no agent drifts further than the skin allows.
    # Yet each move could carry a band pair of agent 0 across epsilon, so
    # the list is dropped and, after a quiet step, rebuilt at every state.
    path = states_of([
        [[0.0], [1.03125], [-1.0], [0.5], [0.9375]],
        [[0.0], [1.0], [-1.0], [0.5], [1.03125]],
        [[0.0], [1.0], [-1.03125], [0.5], [1.03125]],
        [[0.0], [0.96875], [-1.0625], [0.5], [0.96875]],
    ])
    sc = follower_only(path[0].opinions.tolist(), 1.0)
    tracker = PairTracker(sc)
    expected_partners = [[0, 2, 3, 4], [0, 1, 2, 3], [0, 1, 3], [0, 1, 3, 4]]
    for state, partners in zip(path, expected_partners):
        pairs = tracker.pairs(state, 0.0)
        assert pairs is not None
        assert pair_list(pairs.rows, pairs.cols) == pair_list(*compute_neighbors(state, sc))
        assert pairs.rows.dtype == pairs.cols.dtype == np.int32
        assert pairs.cols[pairs.rows == 0].tolist() == partners
    assert tracker.counts == {"searches": 0, "rebuilds": 4, "reuses": 0}


def test_pair_list_hands_out_the_same_pairs_while_they_hold():
    sc = follower_only([[0.0], [0.3], [0.9], [2.0]], 0.5)
    first, moved, stays = states_of([[[0.0], [0.3], [0.9], [2.0]], [[0.0], [0.31], [0.9], [2.0]],
                                     [[0.0], [0.31], [0.9], [2.0]]])
    tracker = PairTracker(sc)
    pairs = tracker.pairs(first, 0.0)
    pairs.grouping = "derived"
    assert tracker.pairs(moved, 0.01) is pairs
    assert tracker.pairs(stays, 0.0) is pairs
    assert pairs.grouping == "derived"


def test_pair_list_falls_back_to_fresh_search():
    sc = follower_only([[0.0], [0.3], [0.9], [2.0]], 0.5)
    start, far = states_of([[[0.0], [0.3], [0.9], [2.0]], [[0.0], [0.3], [0.9], [1.2]]])
    tracker = PairTracker(sc)
    assert tracker.pairs(start, math.inf) is None  # the first state: no move is known
    assert tracker.pairs(start, 0.5) is None  # the last step moved more than the skin allows
    assert tracker.pairs(start, 0.0) is not None
    assert tracker.pairs(far, 0.8) is None  # agent 3 moved 0.8, past the skin: the list is dropped
    assert tracker.counts == {"searches": 3, "rebuilds": 1, "reuses": 0}
    # where the rounding argument's bounds do not hold, every state is searched afresh
    tiny = follower_only([[0.0], [1e-125]], 1e-124)
    assert PairTracker(tiny).pairs(tiny.initial_state, 0.0) is None
