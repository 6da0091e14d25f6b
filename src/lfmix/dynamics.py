"""Synchronous update engine.

One step maps the state at t to the state at t+1 using the epsilon-neighbor
pairs found once on the state at t:

* leader i in group k moves to ``alpha * mean(own-group neighbors) +
  (1 - alpha) * target_k``;
* follower i moves to ``(1 - sum of masked betas) * mean(follower neighbors)
  + sum_k beta_k * mean(group-k leader neighbors)``, where a beta is masked
  to zero whenever the corresponding leader-neighbor set is empty (the freed
  weight flows to the follower term, with no renormalization).

``step`` computes this for all agents at once over (1 + m)·N neighbor sets:
set k·N + i is agent i's own-group set for k = 0 and follower i's group-k
leader set for k >= 1, the cols of i's pairs that carry that group. The
pairs are sorted by (row, col) and every group is one range of ids, as
member counts make them, so each set is one run of its row's cols, found
by counting the row's cols below each group bound. Where explicit member
lists interleave the groups, the cols of each row are first put in (group,
id) order, by the agents' ranks in that order (``Partition.ranges``), and
the runs are found the same way. One pass
sums every set, all sets of one size together, into (1 + m, N, d) means; one
(1 + m, N) weight matrix, row 0 the own weight and rows 1..m the masked
betas, mixes them, and its reductions over axis 0 give the ``StepDigest``.
Degrees come from one query per schedule block; no per-agent object is
built. The grouping of the pairs into sets (sizes and gather indices)
depends on the pairs alone, so it is kept on the ``Pairs`` object for as
long as a run's ``PairTracker`` hands that object out.

Determinism contract: every set sum adds the set's opinions in ascending id
order exactly as ``np.sum(x[ids], axis=0)`` does, and each new opinion reads
only the time-t state, so results are bit-identical to a per-agent loop
that computes each agent from its own id arrays (the tests keep one). That
sum adds rows left to right for d >= 2, which a reduction over axis 0 of
the sets of one size laid out as (size, sets, d) repeats; for d = 1 it is a
1-D sum, which numpy adds pairwise, and the sets are laid out as
(sets, size) and reduced along axis 1, which numpy also adds pairwise.
"""

from __future__ import annotations

import functools
import math
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteState, ScheduleViolation
from .model import Scenario, SystemState
from .neighbors import PairTracker, Pairs, compute_neighbors

FAULT_MEAN_SHIFT = "mean-shift"
FAULT_KINDS = (FAULT_MEAN_SHIFT,)
_MEAN_SHIFT = 0.05
# a block of equal-size sets gathers at most this many coordinates
_GATHER_FLOATS = 1 << 17

STOP_HORIZON = "horizon"
STOP_CONVERGED = "converged"
STOP_STAGNATED = "stagnated"

_SCENARIO_DEFAULT = object()


@dataclass(frozen=True)
class StepDigest:
    """Cheap per-step summary of the realized weights and neighbor counts."""

    t: int
    min_weight: float
    max_sum_error: float
    neighbor_pairs: int


@dataclass(frozen=True, eq=False)
class Trajectory:
    """States for t = 0..T, how the run ended, the injected fault and
    tolerance stop (None when off) it ran with, and how its steps got their
    neighbor pairs. Immutable and compared by identity, so measurements of
    it can be cached against it."""

    scenario: Scenario
    states: tuple[SystemState, ...]
    stop_reason: str
    step_digests: tuple[StepDigest, ...]
    fault: str | None
    stop_tol: float | None
    pair_counts: dict = field(default_factory=dict)  # how each step got its pairs: PairTracker.counts
    pair_seconds: float = 0.0  # time spent getting them
    step_seconds: float = 0.0  # time spent in the steps' updates

    @property
    def horizon(self) -> int:
        return len(self.states) - 1

    @property
    def final_state(self) -> SystemState:
        return self.states[-1]


def _query(out: np.ndarray, schedule, ids: np.ndarray, t: int, what: str) -> None:
    """``out[ids] = schedule.at(ids, t)``; every value must be a number in [0, 1]."""
    raw = schedule.at(ids, t)
    try:
        out[ids] = raw
    except (TypeError, ValueError):
        raise ScheduleViolation(f"{what} for agents {ids} at t={t} returned non-numeric {raw!r}") from None
    bad = ~((out[ids] >= 0.0) & (out[ids] <= 1.0))  # NaN too
    if bad.any():
        i = ids[bad.argmax()]
        raise ScheduleViolation(f"{what} for agent {i} at t={t} returned {float(out[i])!r} outside [0, 1]")


def beta_sums(betas: np.ndarray) -> np.ndarray:
    """Row sums added left to right as ``sum(row)`` does; ``betas.sum(axis=1)``
    adds pairwise and differs from it once m >= 8."""
    return functools.reduce(np.add, betas.T, np.zeros(len(betas)))


def realized_alpha(scenario: Scenario, t: int) -> np.ndarray:
    """All N leader degrees at step t (0 for followers), one schedule query
    per block, guarded against out-of-range returns."""
    alpha = np.zeros(scenario.n_agents)
    for schedule, ids in scenario.alphas:
        _query(alpha, schedule, ids, t, "alpha schedule")
    return alpha


def realized_betas(scenario: Scenario, t: int) -> np.ndarray:
    """The (N, m) follower degrees at step t (0 for leaders), one query per
    block and leader group; each entry and each agent's sum guarded."""
    betas = np.zeros((scenario.n_agents, scenario.m))
    for schedules, ids in scenario.betas:
        for k, schedule in enumerate(schedules):
            _query(betas[:, k], schedule, ids, t, f"beta schedule {k + 1}")
    total = beta_sums(betas)
    if (total > 1.0).any():
        i = (total > 1.0).argmax()
        raise ScheduleViolation(f"beta sum for agent {i} is {float(total[i])!r} > 1 at t={t}")
    return betas


def _grouping(scenario: Scenario, d: int, rows: np.ndarray, cols: np.ndarray):
    """The sizes of all (1 + m)·N sets, laid out as the module docstring says,
    each set's ids ascending; and the gather index of each block of
    equal-size sets: (sets, their cols laid out as (size, sets) for d >= 2 and
    as (sets, size) for d = 1).

    Each set is the run of its row's cols whose keys lie in its group's
    range of ``Partition.ranges``: the cols themselves, or, for interleaved
    groups, their ranks by (group, id), with each row's cols sorted by rank
    first. Its first pair and size come from per-row counts of the keys
    below each group bound; the blocks gather from those cols directly.
    """
    n = scenario.n_agents
    group_of = scenario.partition.group_of
    key, bounds = scenario.partition.ranges
    if key is None:
        key = cols
    else:  # each row's cols in (group, id) order, so that every group is one run of them
        key = key[cols]
        order = np.argsort(rows.astype(np.int64) * n + key, kind="stable")
        cols, key = cols[order], key[order]
        del order
    starts = np.searchsorted(rows, np.arange(n + 1, dtype=rows.dtype))
    counts = np.diff(starts)
    # reduceat below counts each row's run only if no row is empty: every
    # agent whose opinion is finite is its own neighbor
    if not counts.all():
        raise NonFiniteState(f"agent {int(counts.argmin())} is not its own neighbor: its opinion is not finite")
    below = {0: np.zeros(n, dtype=starts.dtype), n: counts}  # b: how many of each row's keys are below b
    for b in np.unique(bounds).tolist():
        if b not in below:
            # counted in the id type, which holds N: reduceat casts the whole mask to it first
            below[b] = np.add.reduceat(key < b, starts[:-1], dtype=rows.dtype)
    del key
    low, high = (np.array([below[b] for b in bound]) for bound in bounds.T)
    agents = np.arange(n)
    own = low[group_of, agents]
    # an agent's own set is its group's run; a leader's runs of other groups are not used
    first = (starts[:-1] + np.vstack((own, low[1:]))).ravel()
    size = np.vstack((high[group_of, agents] - own, np.where(group_of == 0, high[1:] - low[1:], 0))).ravel()
    index = np.empty(size.sum(), dtype=cols.dtype)  # the sets' cols block by block, one allocation for all blocks
    blocks, end = [], 0
    for k in np.unique(size[size > 0]).tolist():
        sets = np.flatnonzero(size == k)
        block = max(1, _GATHER_FLOATS // (k * d))
        for part in np.split(sets, range(block, sets.size, block)):
            at = first[part, None] + np.arange(k) if d == 1 else first[part] + np.arange(k)[:, None]
            view = index[end:end + at.size].reshape(at.shape)
            np.take(cols, at, out=view)
            blocks.append((part, view))
            end += at.size
    return size, blocks


def _set_means(x: np.ndarray, grouping, shift: float) -> np.ndarray:
    """The (1 + m, N, d) means of the sets of a ``_grouping``; 0 for an empty
    set.

    A set's sum is bit for bit ``np.sum(x[ids], axis=0)``, taken for all
    sets of one size together from one ``np.take`` gather, whose layout
    makes the reduction add in numpy's per-set order (see the module
    docstring).
    """
    size, blocks = grouping
    sums = np.zeros((size.size, x.shape[1]))
    for part, index in blocks:
        if x.shape[1] == 1:
            sums[part, 0] = np.take(x[:, 0], index).sum(axis=1)
        else:
            sums[part] = np.take(x, index, axis=0).sum(axis=0)
    sums /= np.maximum(size, 1)[:, None]
    if shift:
        sums += shift
    return sums.reshape(-1, *x.shape)


def step(
    state: SystemState,
    scenario: Scenario,
    t: int,
    *,
    fault: str | None = None,
    pairs: Pairs | None = None,
) -> tuple[SystemState, StepDigest]:
    """Apply one synchronous update to every agent.

    Neighbor pairs are found once on ``state``: ``pairs`` if given (``run``
    passes its ``PairTracker``'s), else by a fresh ``compute_neighbors``.
    Every new opinion depends only on ``state``. Raises ScheduleViolation
    if a schedule leaves its declared range.
    """
    if fault is not None and fault not in FAULT_KINDS:
        raise ValueError(f"unknown fault kind {fault!r}")
    shift = _MEAN_SHIFT if fault == FAULT_MEAN_SHIFT else 0.0
    x = state.opinions
    if pairs is None:
        pairs = Pairs(*compute_neighbors(state, scenario))
    if pairs.grouping is None:
        pairs.grouping = _grouping(scenario, x.shape[1], pairs.rows, pairs.cols)
    group_of = scenario.partition.group_of
    lead = group_of > 0
    alpha = realized_alpha(scenario, t)
    betas = realized_betas(scenario, t)
    means = _set_means(x, pairs.grouping, shift)
    size = pairs.grouping[0].reshape(means.shape[:2])

    # row 0: the own weight, alpha for a leader and 1 - (sum of masked betas)
    # for a follower; row k: the beta toward group k, masked where its set is empty
    w = np.empty(size.shape)
    w[1:] = np.where(size[1:] > 0, betas.T, 0.0)
    w[0] = np.where(lead, alpha, 1.0 - beta_sums(w[1:].T))
    w_target = np.where(lead, 1.0 - w[0], 0.0)

    new = w[0, :, None] * means[0]
    for k in range(1, len(w)):
        # a masked set's mean stays out: an overflowed mean times 0 is NaN
        new = np.where(w[k, :, None] != 0.0, new + w[k, :, None] * means[k], new)
    new[lead] += w_target[lead, None] * scenario.targets[group_of[lead] - 1]

    each = w / np.maximum(size, 1)
    sum_w = beta_sums((each * size).T) + w_target
    min_w = min(each[w > 0.0].min(initial=math.inf), w_target[w_target > 0.0].min(initial=math.inf))
    counted = int(size[0].sum() + size[1:][w[1:] != 0.0].sum())  # the own set always counts
    digest = StepDigest(t, float(min_w), float(np.abs(1.0 - sum_w).max(initial=0.0)), counted)
    return SystemState(t + 1, new), digest


def run(
    scenario: Scenario,
    horizon: int | None = None,
    *,
    fault: str | None = None,
    stop_tol: float | None | object = _SCENARIO_DEFAULT,
) -> Trajectory:
    """Iterate steps from t = 0 until the horizon or a stop criterion.

    Stop reasons: ``horizon`` (step budget exhausted), ``converged`` (max
    per-agent displacement stayed within ``stop_tol`` over the scenario's
    trailing ``stop_window`` steps), ``stagnated`` (exact fixed point reached
    while no tolerance-based stop is configured). Raises NonFiniteState as
    soon as a new state holds an infinite or NaN coordinate.

    Each state's neighbor pairs come from one ``PairTracker``: a Verlet skin
    list once a step moved every agent by less than a quarter of the skin,
    held while the agents' moves since its rebuild can have carried no pair
    across epsilon and dropped once they could, and otherwise a fresh
    search. The pairs are exactly a fresh search's either way (the proof is
    in ``PairTracker._holds``). How the steps got them is the trajectory's
    ``pair_counts``, and the time that took its ``pair_seconds``; the time
    its ``step`` calls took is its ``step_seconds``.
    """
    opts = scenario.engine
    if horizon is None:
        horizon = opts.horizon
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    tol = opts.stop_tol if stop_tol is _SCENARIO_DEFAULT else stop_tol

    states = [scenario.initial_state]
    digests: list[StepDigest] = []
    reason = STOP_HORIZON
    recent: deque[float] = deque(maxlen=opts.stop_window)
    tracker = PairTracker(scenario)
    disp = math.inf
    searching = updating = 0.0
    for t in range(horizon):
        started = time.perf_counter()
        pairs = tracker.pairs(states[-1], disp)
        if pairs is None:
            pairs = Pairs(*compute_neighbors(states[-1], scenario))
        searching += time.perf_counter() - started
        started = time.perf_counter()
        nxt, digest = step(states[-1], scenario, t, fault=fault, pairs=pairs)
        updating += time.perf_counter() - started
        del pairs  # a fresh search's pairs die with their step, not during the next search
        finite = np.isfinite(nxt.opinions).all(axis=1)
        if not finite.all():
            i = int(finite.argmin())
            raise NonFiniteState(f"opinion of agent {i} is {nxt.opinions[i].tolist()} at t={t + 1}")
        digests.append(digest)
        diff = nxt.opinions - states[-1].opinions
        states.append(nxt)
        disp = float(np.sqrt((diff * diff).sum(axis=1).max()))
        recent.append(disp)
        if tol is not None and len(recent) == opts.stop_window and max(recent) <= tol:
            reason = STOP_CONVERGED
            break
        if tol is None and disp == 0.0:
            reason = STOP_STAGNATED
            break
    return Trajectory(scenario, tuple(states), reason, tuple(digests), fault, tol, dict(tracker.counts), searching,
                      updating)
