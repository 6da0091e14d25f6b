"""Synchronous update engine.

One step maps the state at t to the state at t+1 using the epsilon-neighbor
pairs found once on the state at t:

* leader i in group k moves to ``alpha * mean(own-group neighbors) +
  (1 - alpha) * target_k``;
* follower i moves to ``(1 - sum of masked betas) * mean(follower neighbors)
  + sum_k beta_k * mean(group-k leader neighbors)``, where a beta is masked
  to zero whenever the corresponding leader-neighbor set is empty (the freed
  weight flows to the follower term, with no renormalization).

``step`` computes this for all agents at once: neighbor pairs, degrees from
one query per schedule block, one sum per neighbor set, taken for all sets of
one size together, then elementwise array expressions for the mix and for the
``StepDigest`` of the realized weights. An agent's set is the cols of its
neighbor pairs that carry the set's group; no per-agent object is built.

Determinism contract: every set sum adds the set's opinions in ascending id
order exactly as ``np.sum(x[ids], axis=0)`` does, and each new opinion reads
only the time-t state, so results are bit-identical to a per-agent loop
that computes each agent from its own id arrays (the tests keep one).
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteState, ScheduleViolation
from .model import Scenario, SystemState
from .neighbors import compute_neighbors

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


@dataclass
class Trajectory:
    """States for t = 0..T, how the run ended, and the injected fault and
    tolerance stop (None when off) it ran with."""

    scenario: Scenario
    states: list[SystemState]
    stop_reason: str
    step_digests: list[StepDigest]
    fault: str | None
    stop_tol: float | None

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


def _set_means(x: np.ndarray, rows: np.ndarray, cols: np.ndarray, shift: float):
    """Size and mean of each agent's set, the set of agent i being the cols
    of the pairs whose row is i (pairs sorted by row, then col).

    A set's sum is ``np.sum(x[ids], axis=0)``; sets of equal size are summed
    together along axis 1 of one gathered block, which keeps numpy's
    per-set summation order bit for bit in every dimension. The mean of an
    empty set is 0.
    """
    size = np.bincount(rows, minlength=len(x))
    first = np.cumsum(size) - size
    sums = np.zeros_like(x)
    for k in np.unique(size[size > 0]).tolist():
        agents = np.flatnonzero(size == k)
        block = max(1, _GATHER_FLOATS // (k * x.shape[1]))
        for part in np.split(agents, range(block, agents.size, block)):
            sums[part] = np.sum(x[cols[first[part, None] + np.arange(k)]], axis=1)
    mean = sums / np.maximum(size, 1)[:, None]
    if shift:
        mean = mean + shift
    return size, mean


def step(
    state: SystemState,
    scenario: Scenario,
    t: int,
    *,
    fault: str | None = None,
) -> tuple[SystemState, StepDigest]:
    """Apply one synchronous update to every agent.

    Neighbor pairs are found once on ``state``; every new opinion depends
    only on ``state``. Raises ScheduleViolation if a schedule leaves its
    declared range.
    """
    if fault is not None and fault not in FAULT_KINDS:
        raise ValueError(f"unknown fault kind {fault!r}")
    shift = _MEAN_SHIFT if fault == FAULT_MEAN_SHIFT else 0.0
    rows, cols = compute_neighbors(state, scenario)
    x = state.opinions
    n = x.shape[0]
    group_of = scenario.partition.group_of
    lead = group_of > 0

    alpha = realized_alpha(scenario, t)
    betas = realized_betas(scenario, t)

    # an agent's own set holds its own group; a follower's set k its
    # group-k leaders; a leader's pairs with other groups are not used
    codes = group_of.astype(np.min_scalar_type(scenario.m))
    row_code, col_code = codes[rows], codes[cols]
    same = row_code == col_code
    n_own, own_mean = _set_means(x, rows[same], cols[same], shift)
    leader_terms = []
    total = np.zeros(n)
    for k in range(1, scenario.m + 1):
        keep = (row_code == 0) & (col_code == k)
        size, mean = _set_means(x, rows[keep], cols[keep], shift)
        b = np.where(size > 0, betas[:, k - 1], 0.0)  # masked beta
        total = total + b
        leader_terms.append((b, size, mean))

    # own-set weight: alpha for a leader, 1 - (sum of masked betas) for a follower
    w_own = np.where(lead, alpha, 1.0 - total)
    new = w_own[:, None] * own_mean
    w_each = w_own / n_own
    sum_w = w_each * n_own
    min_w = np.where(w_own > 0.0, w_each, math.inf)
    pairs = int(n_own.sum())
    for b, size, mean in leader_terms:
        used = b != 0.0
        new = np.where(used[:, None], new + b[:, None] * mean, new)
        w_each = b / np.maximum(size, 1)
        sum_w = np.where(used, sum_w + w_each * size, sum_w)
        min_w = np.where(used, np.minimum(min_w, w_each), min_w)
        pairs += int(size[used].sum())
    w_target = np.where(lead, 1.0 - alpha, 0.0)
    new[lead] += w_target[lead, None] * scenario.targets[group_of[lead] - 1]
    sum_w += w_target
    min_w = np.where(w_target > 0.0, np.minimum(min_w, w_target), min_w)

    digest = StepDigest(t, float(min_w.min(initial=math.inf)), float(np.abs(1.0 - sum_w).max(initial=0.0)), pairs)
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
    for t in range(horizon):
        nxt, digest = step(states[-1], scenario, t, fault=fault)
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
    return Trajectory(scenario, states, reason, digests, fault, tol)
