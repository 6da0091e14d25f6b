"""Synchronous update engine.

One step maps the state at t to the state at t+1 using the epsilon-neighbor
pairs found once on the state at t:

* leader i in group k moves to ``alpha * mean(own-group neighbors) +
  (1 - alpha) * target_k``;
* follower i moves to ``(1 - sum of masked betas) * mean(follower neighbors)
  + sum_k beta_k * mean(group-k leader neighbors)``, where a beta is masked
  to zero whenever the corresponding leader-neighbor set is empty (the freed
  weight flows to the follower term, with no renormalization).

``step`` computes this for all agents at once. ``Pairs.set_means`` gives
each agent's (1 + m) neighbor-set means, its own-group set and a
follower's set of each leader group, and their sizes; the ``neighbors``
module docstring says how the pairs become those sets. One (1 + m, N)
weight matrix, row 0 the own weight and rows 1..m the masked betas, mixes
them per agent, and its reductions over axis 0 give the ``StepDigest``.
A step reads its degrees from one ``DegreeTable`` in the same layout, an
(N, 1 + m) row per step, column 0 the alphas and columns 1..m the betas:
``run`` builds one for the whole run, which tables each built-in block
once per chunk of steps into one checked block and serves the steps
before the first that failed the check as views of it, and a step alone
builds one without a horizon, which asks each schedule block once. No
per-agent object is built.

The weights and the digest depend on the set sizes and the degrees alone,
not on the opinions. So where ``run`` holds a pair list for a further step
and the table serves that step from its block, ``_weights`` computes them
for the rest of the chunk in one pass over a (steps, 1 + m, N) block,
each step's values as a lone step would get them, and the ``Pairs`` keeps
them; each later step of the chunk then only sums the sets, gathers the
means and mixes. Every step still goes through ``step``, and any other
step, such as one at or past a failure of the table's check, queries
its degrees alone, so every error comes at its step.

Determinism contract: every set sum adds the set's opinions in ascending id
order exactly as ``np.sum(x[ids], axis=0)`` does (``neighbors`` says how
its gathers keep that order), and each new opinion reads only the time-t
state, so results are bit-identical to a per-agent loop that computes each
agent from its own id arrays (the tests keep one).
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NonFiniteState, ScheduleViolation
from .model import Scenario, SystemState
from .neighbors import PairTracker, Pairs, compute_neighbors, per_block, state_classes
from .schedules import beta_sums, tabled

FAULT_MEAN_SHIFT = "mean-shift"
FAULT_KINDS = (FAULT_MEAN_SHIFT,)
_MEAN_SHIFT = 0.05

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
    classes: int  # the (row, group) classes whose sets the step summed
    summed_sets: int  # the sets it gathered and summed; the others were empty or copied a full set's sum


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


class DegreeTable:
    """The degrees of steps t < ``horizon`` of one run as (N, 1 + m) rows,
    in the weights' layout: column 0 each leader's alpha, column k each
    follower's beta toward group k, 0 where an agent has no such degree.

    Its cells are the scenario's (schedule, ids, column) blocks, the alpha
    blocks and then the beta blocks, in the order a step queries them.
    Where every cell is ``schedules.tabled``, a chunk of steps is one
    read-only (steps, N, 1 + m) block: each cell fills its part with one
    ``at_steps`` call, or with NaN where that call raised or gave no
    numbers. A chunk holds at most as many steps as came before it and as
    ``neighbors.per_block`` fit, so a run that stops early tables at most
    about twice the steps it took. One pass then checks the block: every
    degree in [0, 1] and every agent's beta sum, over columns 1..m, at most
    1. ``served_until`` is the first step of the block that failed it, or
    the block's end.

    ``row(t)`` is step t's row of the block for a step before
    ``served_until``, and ``served(t)`` how many steps from t on it serves so.
    Every other step, and every step of a table without a ``horizon`` or
    with a custom cell, asks each cell with ``at`` in order and guards it
    with ``_query``, so every error is raised at its step, with its message,
    in the order of the per-step queries; the row last asked is kept, so a
    step asks each schedule once.
    """

    def __init__(self, scenario: Scenario, horizon: int | None = None):
        self.cells = [(s, ids, 0, "alpha schedule") for s, ids in scenario.alphas]
        self.cells += [(s, ids, k, f"beta schedule {k}") for group, ids in scenario.betas
                       for k, s in enumerate(group, start=1)]
        self.shape = (scenario.n_agents, 1 + scenario.m)
        self.horizon = horizon if all(tabled(s) for s, *_ in self.cells) else None
        self.start = self.stop = self.served_until = 0
        self.block = self.asked = None

    def _fill(self, t: int) -> None:
        steps = max(1, min(self.horizon - t, t, per_block(self.shape[0] * self.shape[1])))
        ts = np.arange(t, t + steps)
        block = np.zeros((steps, *self.shape))
        for schedule, ids, k, _ in self.cells:
            try:
                block[:, ids, k] = schedule.at_steps(ids, ts)
            except (ArithmeticError, TypeError, ValueError):
                block[:, ids, k] = np.nan  # asked at each step, so that its error comes at its step
        clean = ((block >= 0.0) & (block <= 1.0)).all(axis=(1, 2))  # NaN too
        clean &= (beta_sums(block[..., 1:]) <= 1.0).all(axis=1)
        block.flags.writeable = False
        self.block, self.start, self.stop = block, t, t + steps
        self.served_until = t + int(np.append(clean, False).argmin())

    def served(self, t: int) -> int:
        """How many steps from t on ``row`` reads from the current block: 0
        where it holds no step t, else up to ``served_until``."""
        return max(self.served_until - t, 0) if self.start <= t else 0

    def row(self, t: int) -> np.ndarray:
        """Step t's (N, 1 + m) degrees; raises ScheduleViolation as
        ``realized_alpha`` and ``realized_betas`` do."""
        if self.horizon is not None:
            if not self.start <= t < self.stop:
                self._fill(t)
            if t < self.served_until:
                return self.block[t - self.start]
        if self.asked is not None and self.asked[0] == t:
            return self.asked[1]
        row = np.zeros(self.shape)
        for schedule, ids, k, what in self.cells:
            _query(row[:, k], schedule, ids, t, what)
        total = beta_sums(row[:, 1:])
        if (total > 1.0).any():
            i = (total > 1.0).argmax()
            raise ScheduleViolation(f"beta sum for agent {i} is {float(total[i])!r} > 1 at t={t}")
        self.asked = t, row
        return row


def realized_alpha(scenario: Scenario, t: int, table: DegreeTable | None = None) -> np.ndarray:
    """All N leader degrees at step t (0 for followers), guarded against
    out-of-range returns: column 0 of ``table``'s row, a run's
    ``DegreeTable``, where given, else of one query per alpha block."""
    return (DegreeTable(replace(scenario, betas=())) if table is None else table).row(t)[:, 0]


def realized_betas(scenario: Scenario, t: int, table: DegreeTable | None = None) -> np.ndarray:
    """The (N, m) follower degrees at step t (0 for leaders), each entry and
    each agent's sum guarded: columns 1..m of ``table``'s row, where given,
    else of one query per beta block and leader group."""
    return (DegreeTable(replace(scenario, alphas=())) if table is None else table).row(t)[:, 1:]


def _searched(state: SystemState, scenario: Scenario) -> Pairs:
    """A fresh search's pairs of ``state``: ``compute_neighbors`` on the
    representatives of its ``state_classes``, one row per class, every agent
    its own class where no two rows share bytes and group."""
    classes, reps = state_classes(state, scenario)
    return Pairs(*compute_neighbors(reps, scenario), classes=classes)


def _weights(scenario: Scenario, size: np.ndarray, alphas: np.ndarray, betas: np.ndarray):
    """The weights of steps whose degrees are ``alphas`` (steps, N) and
    ``betas`` (steps, N, m), at the (1 + m, N) set sizes ``size``: the
    (steps, 1 + m, N) weights ``w``, each step's (L, d) target pull of the
    leaders, and each step's ``StepDigest`` fields (min weight, sum error,
    neighbor pairs). Every operation is elementwise per step, or an exact
    min, max or integer sum, so a step's values do not depend on the others
    computed with it."""
    group_of = scenario.partition.group_of
    lead = group_of > 0
    # row 0: the own weight, alpha for a leader and 1 - (sum of masked betas)
    # for a follower; row k: the beta toward group k, masked where its set is empty
    w = np.empty((len(alphas), *size.shape))
    w[:, 1:] = np.where(size[1:] > 0, betas.transpose(0, 2, 1), 0.0)
    w[:, 0] = np.where(lead, alphas, 1.0 - beta_sums(w[:, 1:].transpose(0, 2, 1)))
    w_target = np.where(lead, 1.0 - w[:, 0], 0.0)
    pull = w_target[:, lead, None] * scenario.targets[group_of[lead] - 1]
    each = w / np.maximum(size, 1)
    sum_w = beta_sums((each * size).transpose(0, 2, 1)) + w_target
    min_w = np.minimum(np.where(w > 0.0, each, math.inf).min(axis=(1, 2)),
                       np.where(w_target > 0.0, w_target, math.inf).min(axis=1))
    error = np.abs(1.0 - sum_w).max(axis=1, initial=0.0)
    counted = size[0].sum() + (size[1:] * (w[:, 1:] != 0.0)).sum(axis=(1, 2))  # the own set always counts
    return w, pull, list(zip(min_w.tolist(), error.tolist(), counted.tolist()))


def _step_weights(scenario: Scenario, t: int, pairs: Pairs, size: np.ndarray, held: bool, degrees: DegreeTable):
    """Step t's entry of ``_weights``. Where ``pairs`` keep the weights of a
    chunk of ``degrees`` that holds step t, they are read. Otherwise step
    t's degrees are read from ``degrees``, and a ``held`` list whose step
    the table serves from its block gets, in one pass, and keeps the weights
    of every step before the block's ``served_until``."""
    if pairs.weights is not None:
        block, first, weights = pairs.weights
        if block is degrees.block and 0 <= t - first < len(weights[0]):
            return tuple(part[t - first] for part in weights)
    alpha = realized_alpha(scenario, t, degrees)
    betas = realized_betas(scenario, t, degrees)
    steps = degrees.served(t) if held else 0
    if steps:
        block = degrees.block[t - degrees.start:][:steps]
        weights = _weights(scenario, size, block[..., 0], block[..., 1:])
        pairs.weights = degrees.block, t, weights
    else:
        weights = _weights(scenario, size, alpha[None], betas[None])
    return tuple(part[0] for part in weights)


def step(
    state: SystemState,
    scenario: Scenario,
    t: int,
    *,
    fault: str | None = None,
    pairs: Pairs | None = None,
    degrees: DegreeTable | None = None,
) -> tuple[SystemState, StepDigest]:
    """Apply one synchronous update to every agent.

    Neighbor pairs are found once on ``state``, among the representatives
    of its class map, whose classes are agents of one group and opinion row
    and so have the same sets: ``pairs`` if given (``run`` passes its
    ``PairTracker``'s, which carry their classes), else by a fresh
    ``state_classes`` and ``compute_neighbors``. Every state is stepped
    through its map, one class per agent where all rows differ. The
    degrees come from ``degrees``, a run's ``DegreeTable``, if given, else
    from a table without a horizon, one query per schedule block, after the
    set means. ``pairs`` that an earlier step read are a held list: where
    the table serves step t from its block, the weights and digests of the
    rest of the chunk are computed at once and kept on ``pairs``, and the
    later steps of the chunk read them. Every new opinion depends only on
    ``state``. Raises NonFiniteState for an agent that is not its own
    neighbor (its opinion is not finite), ScheduleViolation if a schedule
    leaves its declared range, and ValueError for an unknown fault.
    """
    if fault is not None and fault not in FAULT_KINDS:
        raise ValueError(f"unknown fault kind {fault!r}")
    if pairs is None:
        pairs = _searched(state, scenario)
    held = pairs.grouping is not None  # an earlier step read these pairs
    means, size, *summed = pairs.set_means(scenario, state.opinions)
    if fault == FAULT_MEAN_SHIFT:
        means += _MEAN_SHIFT
    w, pull, fields = _step_weights(scenario, t, pairs, size, held, degrees or DegreeTable(scenario))
    new = w[0, :, None] * means[0]
    for k in range(1, len(w)):
        # a masked set's mean stays out: an overflowed mean times 0 is NaN
        new = np.where(w[k, :, None] != 0.0, new + w[k, :, None] * means[k], new)
    new[scenario.partition.group_of > 0] += pull
    return SystemState(t + 1, new), StepDigest(t, *fields, *summed)


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
    search among the representatives of the state's classes. The pairs are
    exactly a fresh search's either way (the proof is in
    ``PairTracker._holds``). How the steps got them is the trajectory's
    ``pair_counts``, and the time that took its ``pair_seconds``; the time
    its ``step`` calls took is its ``step_seconds``. The steps read their
    degrees from the run's one ``DegreeTable``, which tables at most the
    ``horizon`` steps, and nothing where any schedule is not
    ``schedules.tabled``.
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
    degrees = DegreeTable(scenario, horizon)
    disp = math.inf
    searching = updating = 0.0
    for t in range(horizon):
        started = time.perf_counter()
        pairs = tracker.pairs(states[-1], disp)
        if pairs is None:
            pairs = _searched(states[-1], scenario)
        searching += time.perf_counter() - started
        started = time.perf_counter()
        nxt, digest = step(states[-1], scenario, t, fault=fault, pairs=pairs, degrees=degrees)
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
        del diff  # not kept through the next step's search
        recent.append(disp)
        if tol is not None and len(recent) == opts.stop_window and max(recent) <= tol:
            reason = STOP_CONVERGED
            break
        if tol is None and disp == 0.0:
            reason = STOP_STAGNATED
            break
    return Trajectory(scenario, tuple(states), reason, tuple(digests), fault, tol, dict(tracker.counts), searching,
                      updating)
