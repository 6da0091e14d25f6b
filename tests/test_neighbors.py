"""Neighbor search: the exact reference, the engine's pair search against it
on both sides of its grid/scan choice, and the pair list a run keeps."""

import dataclasses
import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import agent_pairs, config, constant, neighbor_sets, pairs_match_naive, pairs_oracle
from lfmix import SystemState, build_scenario, compute_neighbors, neighbors_naive
from lfmix import dynamics, neighbors
from lfmix.neighbors import PairTracker, row_classes


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
        # one cell: the search takes the scan, and the grid gives the same pairs
        grid = neighbors.neighbors_grid(sc.initial_state.opinions, sc.epsilon)
        assert pair_list(*grid) == pair_list(rows, cols)


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


@pytest.mark.parametrize("d", [1, 2, 8])
def test_scan_across_tile_boundaries_equals_per_pair_oracle(d, monkeypatch):
    # tiles of 1, 2 and 7 rows; a copy of agent 0 makes N prime (41 or 71),
    # so the last tile of 2 or 7 rows is short
    rng = np.random.default_rng(700 + d)
    ties = [(cloud, eps) for cloud, eps, _, _ in tie_cases(d)]
    for opinions, eps in oracle_cases(rng, d) + ties:
        x = np.vstack([opinions, opinions[:1]])
        sc = follower_only(x.tolist(), eps, d=d)
        expected = pairs_oracle(sc)
        for rows in (1, 2, 7):
            monkeypatch.setattr(neighbors, "_BLOCK_FLOATS", rows * len(x))
            assert pair_list(*neighbors_naive(sc.initial_state, sc)) == expected, (rows, eps)


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


def counted_searches(monkeypatch):
    """Count the calls of ``neighbors_grid``, ``neighbors_naive`` and ``_scan``
    made through the ``neighbors`` module."""
    calls = {"neighbors_grid": 0, "neighbors_naive": 0, "_scan": 0}
    for name in calls:
        def counted(*args, real=getattr(neighbors, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(neighbors, name, counted)
    return calls


@pytest.mark.parametrize("n, d, high, eps, grid", [
    (100, 2, 0.3, 0.2, False),  # 2 cells an axis
    (400, 2, 0.6, 0.2, False),  # 3 cells an axis
    (64, 6, 0.5, 0.2, False),
    (600, 2, 2.0, 0.2, True),  # 10 cells an axis, at least 64 * 3^2 agents
    (200, 1, 1.0, 0.2, True),
    (191, 1, 2.0, 0.2, False),  # one agent short of 64 * 3^d, and at it
    (192, 1, 2.0, 0.2, True),
    (575, 2, 2.0, 0.2, False),
    (576, 2, 2.0, 0.2, True),
])
def test_search_takes_the_scan_where_the_cells_span_three_or_fewer(n, d, high, eps, grid, monkeypatch):
    x = np.random.default_rng(n + d).uniform(0.0, high, size=(n, d))
    sc = follower_only(x.tolist(), eps, d=d)
    state = sc.initial_state
    cells = np.floor(x / neighbors._cell_side(x.min(axis=0), x.max(axis=0), eps))
    assert ((cells.max(axis=0) - cells.min(axis=0)).max() >= 3 and n >= 64 * 3**d) == grid
    expected = neighbors_naive(state, sc)
    calls = counted_searches(monkeypatch)
    pairs = dynamics.compute_neighbors(state, sc)
    assert calls == {"neighbors_grid": int(grid), "neighbors_naive": int(not grid), "_scan": int(not grid)}
    assert all(np.array_equal(a, b) for a, b in zip(pairs, expected, strict=True))
    # the pair tracker's rebuild at epsilon + skin follows the same rule, here to the same side
    calls.update(dict.fromkeys(calls, 0))
    held = PairTracker(sc).pairs(state, 0.0)
    assert calls == {"neighbors_grid": int(grid), "neighbors_naive": 0, "_scan": int(not grid)}
    assert all(np.array_equal(a, b) for a, b in zip(agent_pairs(held), expected, strict=True))


def test_search_rule_at_a_span_of_three_and_four_cells(monkeypatch):
    far = [[0.0]] * 190 + [[1.5], [2.5]]  # cells 0, 1 and 2 at epsilon 1, and 64 * 3 agents
    calls = counted_searches(monkeypatch)
    for opinions, grid in ((far, False), (far + [[3.5]], True)):
        sc = follower_only(opinions, 1.0)
        expected = neighbors_naive(sc.initial_state, sc)
        calls.update(dict.fromkeys(calls, 0))
        pairs = compute_neighbors(sc.initial_state, sc)
        assert calls["neighbors_grid"] == int(grid) and calls["_scan"] == int(not grid)
        assert all(np.array_equal(a, b) for a, b in zip(pairs, expected, strict=True))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_grid_across_block_boundaries_equals_naive(d, monkeypatch):
    # blocks of 1, 2 and 7 rows over 71 agents in clusters around a few
    # cells, with empty cells between them; the last block of 2 or 7 is short
    rng = np.random.default_rng(30 + d)
    centers = rng.integers(0, 8, size=(5, d)) * 0.5
    x = centers[rng.integers(0, 5, size=71)] + rng.uniform(-0.15, 0.15, size=(71, d))
    eps = 0.2
    sc = follower_only(x.tolist(), eps, d=d)
    expected = neighbors_naive(sc.initial_state, sc)
    side = neighbors._cell_side(x.min(axis=0), x.max(axis=0), eps)
    cells = np.unique(np.floor(x / side), axis=0)
    spread = (cells.max(axis=0) - cells.min(axis=0) + 1).prod()
    assert cells.shape[0] < spread  # some cells in the grid's box are empty
    per_row = 5 * 3**d * (1 + len(x) // cells.shape[0])
    sizes = []
    real = neighbors.per_block
    monkeypatch.setattr(neighbors, "per_block", lambda floats: sizes.append(real(floats)) or sizes[-1])
    for rows in (1, 2, 7):
        monkeypatch.setattr(neighbors, "_BLOCK_FLOATS", rows * per_row)
        sizes.clear()
        pairs = neighbors.neighbors_grid(x, eps)
        assert sizes == [rows]
        assert all(np.array_equal(a, b) for a, b in zip(pairs, expected, strict=True)), rows
        assert pairs[0].dtype == pairs[1].dtype == np.int32


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
    # At the last, agents 1 and 4 share a row and so one class.
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
        rows, cols = agent_pairs(pairs)
        assert pair_list(rows, cols) == pair_list(*compute_neighbors(state, sc))
        assert pairs.rows.dtype == pairs.cols.dtype == np.int32
        assert cols[rows == 0].tolist() == partners
    assert pairs.classes.reps.tolist() == [0, 1, 2, 3]
    assert tracker.counts == {"searches": 0, "rebuilds": 4, "reuses": 0}


def test_pair_list_hands_out_the_same_pairs_while_they_hold():
    sc = follower_only([[0.0], [0.3], [0.9], [2.0]], 0.5)
    first, moved, stays = states_of([[[0.0], [0.3], [0.9], [2.0]], [[0.0], [0.31], [0.9], [2.0]],
                                     [[0.0], [0.31], [0.9], [2.0]]])
    tracker = PairTracker(sc)
    pairs = tracker.pairs(first, 0.0)
    pairs.set_means(sc, first.opinions)
    grouping = pairs.grouping
    for state, moved_by in ((moved, 0.01), (stays, 0.0)):
        assert tracker.pairs(state, moved_by) is pairs
        pairs.set_means(sc, state.opinions)
        assert pairs.grouping is grouping


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


def test_pair_list_drops_a_band_pair_within_its_rounding_margin():
    # agent 1 starts 0.125 past epsilon, in the band, and moves 2^-33 less
    # than that toward agent 0. The move falls short of epsilon, but by less
    # than the rounding margin, where a computed distance could cross it:
    # the list is dropped, and as the step moved past the quiet bound, the
    # state is searched afresh. Every position and move is exact.
    start, near = states_of([[[0.0], [1.125]], [[0.0], [1.0 + 2.0**-33]]])
    sc = follower_only(start.opinions.tolist(), 1.0)
    tracker = PairTracker(sc)
    assert tracker.pairs(start, 0.0) is not None
    moved = 0.125 - 2.0**-33
    assert moved < 0.125 <= moved + neighbors._MARGIN * tracker.reach
    assert not tracker._holds(near.opinions)
    assert tracker.pairs(near, moved) is None
    assert tracker.counts == {"searches": 1, "rebuilds": 1, "reuses": 0}


def classes_oracle(x, labels, every_hash_ties):
    """Each row's class, numbered by its smallest member: the rows of one
    label and bytes, grouped in a dict. Where every hash ties, the key order
    is id order, and a class is a run of such rows in it."""
    seen, runs, last = {}, 0, None
    of = []
    for i in range(x.shape[0]):
        key = (int(labels[i]), x[i].tobytes())
        runs += key != last
        last = key
        of.append(seen.setdefault((runs, key) if every_hash_ties else key, len(seen)))
    return of


def test_row_classes_key_rows_by_bytes_and_label(monkeypatch):
    # rows drawn from a few, 0.0 and -0.0 among them; a class is numbered by
    # its smallest member, which is the order of first occurrence. Then once
    # more with a zero multiplier, under which every row hashes alike
    for every_hash_ties in (False, True):
        if every_hash_ties:
            monkeypatch.setattr(neighbors, "_MIX", np.uint64(0))
        rng = np.random.default_rng(5)
        for trial in range(60):
            n, d = int(rng.integers(1, 300)), int(rng.integers(1, 5))
            pool = rng.integers(-2, 3, size=(6, d)) * 0.5
            pool[rng.random(pool.shape) < 0.3] = -0.0
            x = pool[rng.integers(0, 6, size=n)]
            labels = rng.integers(0, 3, size=n) if trial % 2 else np.zeros(n, dtype=np.int64)
            expected = classes_oracle(x, labels, every_hash_ties)
            classes = row_classes(x, labels)
            assert classes.of.tolist() == expected
            assert classes.reps.tolist() == [expected.index(c) for c in range(max(expected) + 1)]
            for c in range(max(expected) + 1):
                run = classes.members[classes.first[c]:classes.first[c] + classes.size[c]]
                assert run.tolist() == [i for i, k in enumerate(expected) if k == c]


@pytest.mark.parametrize("n, d, pool", [(40, 2, None), (150, 3, None), (150, 7, None), (300, 2, 100), (200, 7, 20)])
def test_rebuilt_pair_list_equals_a_search_and_a_per_pair_band(n, d, pool):
    # every agent its own class (N < 64 and N >= 64, d <= 6 and d = 7), and
    # classes of 100 or 20 rows; every rebuild here takes the scan, as its
    # cells at epsilon + skin span at most 3 an axis
    rng = np.random.default_rng(n + d)
    x = rng.uniform(0.0, 1.0, size=(n if pool is None else pool, d))
    if pool is not None:
        x = x[rng.integers(0, pool, size=n)]
    sc = follower_only(x.tolist(), 0.3 * math.sqrt(d), d=d)
    tracker = PairTracker(sc)
    held = tracker.pairs(sc.initial_state, 0.0)
    assert (held.classes.reps.size == n) == (pool is None)  # distinct rows: one class per agent
    reps = SystemState(0, x[held.classes.reps])
    assert pair_list(held.rows, held.cols) == pair_list(*compute_neighbors(reps, sc))
    assert held.rows.dtype == held.cols.dtype == np.int32
    y = reps.opinions
    candidates = pair_list(*neighbors_naive(reps, dataclasses.replace(sc, epsilon=tracker.reach)))
    gaps = [abs(math.sqrt(float(((y[i] - y[j]) * (y[i] - y[j])).sum())) - tracker.eps) for i, j in candidates]
    band = sorted(((gap, i, j) for (i, j), gap in zip(candidates, gaps) if gap <= tracker.skin),
                  key=lambda entry: entry[0])
    i, j, gap = tracker._band
    assert list(zip(gap.tolist(), i.tolist(), j.tolist())) == band
    assert len(band) > 0


def test_pair_list_keeps_its_classes_while_their_members_part():
    # 70 followers on one row and one at 1.1, outside epsilon 1 but within
    # the skin of it. Agent 69 then leaves its row toward agent 70: by 0.01
    # the list still holds, and by 0.12 it must drop, though the row's
    # smallest member has not moved
    start = [[0.0]] * 70 + [[1.1]]
    sc = follower_only(start, 1.0)
    tracker = PairTracker(sc)
    held = tracker.pairs(sc.initial_state, 0.0)
    assert held.classes.reps.tolist() == [0, 70]
    for t, (x69, kept) in enumerate([(0.01, True), (0.12, False)], start=1):
        x = np.array(start)
        x[69] = x69
        state = SystemState(t, x)
        pairs = tracker.pairs(state, x69)
        assert (pairs is held) == kept
        rows, cols = compute_neighbors(state, sc)
        assert ((rows == 69) & (cols == 70)).any() == (not kept)
        if kept:
            assert pair_list(*agent_pairs(held)) == pair_list(rows, cols)
    assert tracker.counts == {"searches": 1, "rebuilds": 1, "reuses": 1}
