"""Metrics and the runtime verification harness.

Every structural result about the dynamics is re-checked numerically on
concrete trajectories, with measured slack:

* ``check_contraction``: each leader's distance to its target is bounded by
  its degree times the worst neighbor distance, per agent and per group, at
  every step.
* ``check_target_envelope`` (Theorem 2): with a leader group's degrees at
  most delta < 1 at designated steps (by default every step), its max target
  distance stays inside delta^(designated steps so far) times its start, and
  falls below a target tolerance once enough steps are designated.
* ``check_ball_invariance``: once all opinions lie in a ball around the
  target, they never leave it.
* ``check_consensus_bound``: for one leader group, after the system enters a
  ball of radius delta < epsilon around the target and degrees stay bounded
  by gamma < 1, follower distances obey the two-term bound
  ``gamma^(t-p+1) A_p + (t-p+1) gamma^(t-p) C_p`` and the whole system ends
  at the target.
* ``check_mixture_limit``: with several leader groups and stabilized betas,
  each follower ends at the beta-weighted mixture of the targets.
* ``check_subsystem_independence``: spatially separated subsystems evolve as
  if simulated alone and each reaches its own target; any cross-group
  neighbor contact is flagged. The subsystems are one (N,) code array,
  ``subsystem_labels``: a leader's own group, a follower's one beta group.

All checks recompute distances and neighbor relations from raw states,
independent of the engine's internals, so a pass is evidence rather than
tautology. They test a pair by the same exact arithmetic as the engine's
search (squared distance against epsilon squared, a tie counts) but scan
only the pairs they need: ``check_contraction`` each leader against the
leaders of its own group, and the cross-talk scan of
``check_subsystem_independence`` the followers of each subsystem against the
agents of the other subsystems. Hypothesis parameters (delta, gamma, onset
steps) are measured from the realized run and reported, never assumed.
Checks whose hypotheses are not met return reports flagged inapplicable
(reason prefixed with the failure kind) instead of raising.

``measure`` reads a trajectory once into a ``Series``, cached for as long as
the trajectory lives. It keeps only what a check indexes: the leaders'
distances to their targets and the per-state maxima of all agents'
distances, each leader group's degrees and the followers' betas,
re-queried from the schedules through a degree table of its own, and their
maxima. It reads the states a block of steps at a time, stacked into one
(steps, N, d) array of about ``neighbors._BLOCK_FLOATS`` coordinates, and
keeps no copy of them: a row's distance is the same reduction over its last
axis whatever the leading shape, so each state's distances are bit for bit
those of the state alone. lemma1's leader scans and cor2's cross-talk scan
read blocks of states the same way, and lemma1, cor1 and cor2 build their
records from whole-run arrays and reductions over views of them.
``metrics_rows``, ``measured_degree_bounds`` and every check read that one
series; no check queries a schedule or measures a distance to a target
itself, save cor2 on its members at the joint run's first and final states,
on its standalone re-runs (other trajectories) and on step 0's betas when
the run has no steps. A check takes the trajectory and its theorem's own
inputs only: tolerances are the module constants below.

``opinion_diameter`` is exact and needs numpy only. For d >= 2 it gives the
square root of the largest squared distance the engine's arithmetic gives
any pair, bit for bit, but scans pairwise only the points that the triangle
inequality through the bounding-box centre cannot rule out.
"""

from __future__ import annotations

import bisect
import math
import weakref
from dataclasses import dataclass, field, replace
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .dynamics import DegreeTable, Trajectory, realized_alpha, realized_betas, run
from .model import Partition, Scenario, SystemState
from .neighbors import neighbors_naive, per_block
from .schedules import RemappedAgents, beta_sums

SLACK_TOL = 1e-9  # a record passes when rhs - lhs >= -SLACK_TOL (BALL_TOL for lemma3)
BALL_TOL = 1e-12
TARGET_TOL = 1e-9  # thm2: the leader distance to certify by the derived horizon
CONSENSUS_TOL = 1e-6  # thm4, cor1, cor2: the final distance to the limit
STABILIZATION_TOL = 1e-12  # cor1: the largest beta spread over the trailing window
STABILIZATION_WINDOW = 10

INAPPLICABLE = "InapplicableHypothesis"
UNDEFINED_LIMIT = "UndefinedLimit"
CROSSTALK = "CrossTalk"


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


class StepRecord(NamedTuple):
    """One checked inequality: passes when lhs <= rhs + tolerance."""

    t: int
    label: str
    lhs: float
    rhs: float

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs


@dataclass
class CheckReport:
    name: str
    applicable: bool = True
    reason: str | None = None
    tolerance: float = SLACK_TOL
    records: list[StepRecord] = field(default_factory=list)
    params: dict = field(default_factory=dict)

    def _slacks(self) -> list[float]:
        return [r.rhs - r.lhs for r in self.records]

    @property
    def worst_slack(self) -> float | None:
        return min(self._slacks(), default=None)

    @property
    def passed(self) -> bool:
        return all(s >= -self.tolerance for s in self._slacks())

    @property
    def status(self) -> str:
        return "skipped" if not self.applicable else "pass" if self.passed else "fail"

    def failures(self) -> list[StepRecord]:
        return [r for r in self.records if r.slack < -self.tolerance]

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "status": self.status,
            "records": len(self.records),
            "worst_slack": self.worst_slack,
            "params": dict(self.params),
        }
        if self.reason:
            out["reason"] = self.reason
        if not self.passed:
            out["failures"] = [
                {"t": r.t, "label": r.label, "lhs": r.lhs, "rhs": r.rhs} for r in self.failures()[:20]
            ]
        return out


def _skipped(name: str, kind: str, message: str, **params) -> CheckReport:
    return CheckReport(name, applicable=False, reason=f"{kind}: {message}", params=params)


def _step_records(labels: list[str], lhs: np.ndarray, rhs: np.ndarray) -> list[StepRecord]:
    """One record per entry of the (steps, len(labels)) arrays ``lhs`` and
    ``rhs``, row t at step t, in row order."""
    ts = np.repeat(np.arange(len(lhs)), len(labels)).tolist()
    return list(map(StepRecord, ts, labels * len(lhs), lhs.ravel().tolist(), rhs.ravel().tolist()))


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricsRow:
    """Per-step summary: target distances, follower spread, diameter, degrees.

    ``max_alpha`` and ``max_one_minus_beta_sum`` describe the degrees applied
    in the step leaving t and are None for the final recorded state.
    """

    t: int
    target_distances: tuple[float, ...]
    follower_max_distance: float | None
    diameter: float
    max_alpha: float | None
    max_one_minus_beta_sum: float | None


def distances_to(x: np.ndarray, point: np.ndarray) -> np.ndarray:
    """The distances of the rows of ``x``, of any leading shape, to
    ``point``: each row's sum over its last axis is the same reduction
    whatever the leading shape, so a block of states gives each state's
    distances bit for bit."""
    diff = x - point
    diff *= diff
    return np.sqrt(diff.sum(axis=-1))


def max_target_distance(state: SystemState, scenario: Scenario, k: int) -> float:
    """Largest distance from a member of leader group k to its target."""
    if not 1 <= k <= scenario.m:
        raise ValueError(f"leader group {k} out of range 1..{scenario.m}")
    ids = scenario.partition.leader_ids[k - 1]
    return float(distances_to(state.opinions[ids], scenario.target(k)).max())


# opinion_diameter prunes only above this squared lower bound: below it the
# absolute rounding error of subnormal squares can outweigh the slack
_PRUNE_MIN_SQUARED = 2.0**-900


def _squared_distances(a: np.ndarray, b: np.ndarray):
    """Squared distances of the rows of ``a`` to all of ``b``, a block of
    rows at a time: yields ``(start, block)`` with ``block[..., r, j]`` the
    squared distance of ``a[..., start + r, :]`` and ``b[..., j, :]``, by
    the arithmetic of the engine's neighbor test. Leading axes, such as the
    steps of a block of states, pair ``a``'s with ``b``'s."""
    rows = per_block(b.size)
    for start in range(0, a.shape[-2], rows):
        diff = a[..., start : start + rows, None, :] - b[..., None, :, :]
        diff *= diff
        yield start, diff.sum(axis=-1)


def _state_blocks(states, floats: int, ids=None):
    """The opinions of ``states``, of the agents ``ids`` (all by default),
    as (steps, agents, d) blocks of ``per_block(floats)`` states: yields
    ``(start, block)``, the first state of the block and the block."""
    rows, steps = (slice(None) if ids is None else ids), per_block(floats)
    for start in range(0, len(states), steps):
        yield start, np.stack([state.opinions[rows] for state in states[start : start + steps]])


def _max_squared_distance(x: np.ndarray) -> float:
    return max(float(block.max()) for _, block in _squared_distances(x, x))


def opinion_diameter(x: np.ndarray) -> float:
    """Exact max pairwise opinion distance: for d >= 2 the square root of the
    largest squared distance the engine's arithmetic gives any pair, bit for
    bit; for d = 1 max - min, which that gives too unless the squares under-
    or overflow.

    A lower bound L comes from two O(N) passes (the point a farthest from
    the bounding-box centre c, then the point farthest from a); the pairwise
    scan then runs only over the points that could be in a pair above L.
    """
    n, d = x.shape
    if n < 2:
        return 0.0
    if d == 1:
        return float(x.max() - x.min())
    lo, hi = x.min(axis=0), x.max(axis=0)
    r = distances_to(x, 0.5 * lo + 0.5 * hi)
    a = int(r.argmax())
    _, row = next(_squared_distances(x[a : a + 1], x))
    lower = float(row.max())
    if not lower >= _PRUNE_MIN_SQUARED:
        # all points equal, or a spread whose squares may underflow
        return 0.0 if (lo == hi).all() else math.sqrt(_max_squared_distance(x))
    # Drop i when r_i + R <= sqrt(L) w, with R = r_a the largest r: then no
    # pair with i computes above L.
    # With u = 2^-53 and no over- or underflow, every rounding is a relative
    # error of at most u, and a sum of d terms takes each through at most
    # d - 1 additions in any order. So the computed r_i >= |x_i - c|
    # (1 - u)^((d + 4) / 2) (diff, square, d - 1 sums, sqrt), and a pair's
    # computed squared distance D_ij <= |x_i - x_j|^2 (1 + u)^(d + 2)
    # <= (|x_i - c| + |x_j - c|)^2 (1 + u)^(d + 2). Both bounds, with the
    # rounding of r_i + R, sqrt(L) and the product with w, give
    # D_ij <= L w^2 ((1 + u) / (1 - u))^(d + 6), which is <= L for any
    # w <= 1 - (d + 6) u. Taking w = 1 - 2 (d + 6) u leaves room for the
    # absolute error of subnormal squares, at most 2^-1075 each, since
    # L >= 2^-900. Overflow only makes some r_i infinite, which keeps i.
    near = x[r + r[a] > math.sqrt(lower) * (1.0 - (d + 6) * 2.0**-52)]
    if near.shape[0] < 2:
        return math.sqrt(lower)
    return math.sqrt(max(lower, _max_squared_distance(near)))


@dataclass(frozen=True)
class Series:
    """Per-state (t = 0..T) and per-step (t = 0..T-1) measurements of one trajectory.

    Per state, indices and maxima of one array per target k, all agents'
    distances to g_k: group k's leaders' distances in id order, the (T + 1,
    L_k) array ``leader_distances[k - 1]``, row t at state t, and their max
    C_t, ``target_distances[k - 1][t]``; the followers' max to target 1,
    A_t; all agents' max, ``radii[k - 1][t]``. Per step: group k's max
    degree, ``max_alpha[k - 1][t]``; the max over all leaders in one
    reduction, in id order (so a zero max keeps numpy's sign); the
    followers' max 1 - (sum of betas); the degrees themselves, group k's
    leaders' in id order, the (T, L_k) array ``alphas[k - 1]``, and the
    (T, F, m) array ``betas``, the followers' rows in follower-id order.
    The maxima are lists of floats. A field is None, or ``()`` per target,
    without its agents or target 1.
    """

    target_distances: tuple[list[float], ...]
    follower_distances: list[float] | None
    radii: tuple[list[float], ...]
    leader_distances: tuple[np.ndarray, ...]
    max_alpha: tuple[list[float], ...]
    leader_max_alpha: list[float] | None
    max_rest: list[float] | None
    alphas: tuple[np.ndarray, ...]
    betas: np.ndarray


_SERIES: weakref.WeakKeyDictionary[Trajectory, Series] = weakref.WeakKeyDictionary()


def measure(trajectory: Trajectory) -> Series:
    """The trajectory's series, from its raw states and degrees re-queried
    from the schedules; computed on the first call, then cached."""
    series = _SERIES.get(trajectory)
    if series is None:
        series = _SERIES[trajectory] = _measure(trajectory)
    return series


def _measure(trajectory: Trajectory) -> Series:
    scenario = trajectory.scenario
    part = scenario.partition
    fol = part.follower_ids
    m, n = scenario.m, scenario.n_agents
    horizon = trajectory.horizon
    # the distances of a block of states to each target at once, a block
    # holding about as many coordinates as a block of a pairwise scan
    radii = np.zeros((m, horizon + 1))
    leader_distances = tuple(np.zeros((horizon + 1, ids.size)) for ids in part.leader_ids)
    follower_distances = np.zeros(horizon + 1)
    for start, x in _state_blocks(trajectory.states, n * scenario.dimension) if m else ():
        at = slice(start, start + len(x))
        for k, (g, ids) in enumerate(zip(scenario.targets, part.leader_ids)):
            dist = distances_to(x, g)  # its [:, ids] equals distances_to(x[:, ids], g) bit for bit
            radii[k, at] = dist.max(axis=1)
            leader_distances[k][at] = dist[:, ids]
            if k == 0 and fol.size:
                follower_distances[at] = dist[:, fol].max(axis=1)
    # its own table, a chunk of steps at a time; nothing of the engine's.
    # One query per step, so that a schedule's error comes at its step. After
    # the distances, so that no block of states is held with the degrees
    table = DegreeTable(scenario, horizon)
    leaders = np.flatnonzero(part.group_of > 0)
    alphas = np.zeros((horizon if m else 0, leaders.size))
    betas = np.zeros((horizon, fol.size, m))
    for t in range(horizon):
        if m:
            alphas[t] = realized_alpha(scenario, t, table)[leaders]
        betas[t] = realized_betas(scenario, t, table)[fol]
    group_alphas = tuple(alphas[:, np.searchsorted(leaders, ids)] for ids in part.leader_ids)
    return Series(
        tuple(lead.max(axis=1).tolist() for lead in leader_distances),
        follower_distances.tolist() if m and fol.size else None,
        tuple(radii.tolist()),
        leader_distances,
        tuple(group.max(axis=1).tolist() for group in group_alphas),
        alphas.max(axis=1).tolist() if m else None,
        # a step at a time: the max of each step's nonnegative values, in any order
        [float((1.0 - beta_sums(b)).max()) for b in betas] if fol.size else None,
        group_alphas,
        betas,
    )


def measured_degree_bounds(series: Series) -> tuple[float | None, float | None]:
    """(gamma, delta) over the realized steps: gamma is the sup of
    max(1 - beta sum, alpha), delta the sup of alpha alone."""
    alphas = series.leader_max_alpha or []
    delta = max(alphas, default=None)
    gamma = max(alphas + (series.max_rest or []), default=None)
    return gamma, delta


def _onset(name: str, series: Series, t_star: int, delta: float, horizon: int) -> float | CheckReport:
    """gamma, the largest max(1 - beta sum, alpha) from step t_star, where
    the run entered a ball of radius delta, on (0.0 if none); or the skip of
    check ``name`` when t_star is the final state or gamma is not below 1."""
    if t_star >= horizon:
        return _skipped(name, INAPPLICABLE, "ball entered only at the final state; no steps to bound")
    gamma = max([0.0] + (series.max_rest or [])[t_star:] + series.leader_max_alpha[t_star:])
    if gamma >= 1.0:
        return _skipped(
            name, INAPPLICABLE, f"measured gamma {gamma} is not below 1",
            gamma=gamma, t_star=t_star, delta=delta,
        )
    return gamma


def metrics_rows(trajectory: Trajectory) -> list[MetricsRow]:
    """Summaries for every recorded state. The follower spread is measured
    against the first leader group's target (None without leader groups)."""
    series = measure(trajectory)
    rows = []
    for t, state in enumerate(trajectory.states):
        cds = tuple(c[t] for c in series.target_distances)
        a = None if series.follower_distances is None else series.follower_distances[t]
        max_alpha = max_rest = None
        if t < trajectory.horizon:
            max_alpha = None if series.leader_max_alpha is None else series.leader_max_alpha[t]
            max_rest = None if series.max_rest is None else series.max_rest[t]
        rows.append(MetricsRow(state.t, cds, a, opinion_diameter(state.opinions), max_alpha, max_rest))
    return rows


# ---------------------------------------------------------------------------
# Contraction of leader groups
# ---------------------------------------------------------------------------


def check_contraction(trajectory: Trajectory) -> CheckReport:
    """Contraction bound at every step of a trajectory.

    For every leader i with degree alpha: the new distance to the target is
    at most alpha times the worst distance at time t among i's own-group
    neighbors, i included; per group, the max distance contracts by the
    group's max degree. Own-group neighbors are recomputed from the raw
    states, each group's leaders scanned against that group only, a block
    of steps at a time whose (steps, L, L) squared distances stay within
    the float budget of a block, and the degrees are the series'
    re-queried ones, independently of whatever the engine did. The records come step
    by step, each group's agents and then the group.
    """
    scenario = trajectory.scenario
    report = CheckReport("contraction")
    if scenario.m == 0:
        report.params["note"] = "no leader groups; nothing to check"
        return report
    part = scenario.partition
    eps2 = scenario.epsilon * scenario.epsilon
    horizon = trajectory.horizon
    series = measure(trajectory)
    labels, lhs, rhs = [], [], []
    for k, (ids, name) in enumerate(zip(part.leader_ids, part.leader_names)):
        dist = series.leader_distances[k]
        if not math.isfinite(series.target_distances[k][0]):  # overflowed squares: inf - inf slacks are NaN
            message = f"initial max target distance {series.target_distances[k][0]} of group {name} is not finite"
            return _skipped("contraction", INAPPLICABLE, message)
        worst = np.empty((horizon, ids.size))  # the largest distance among each leader's neighbors
        for start, x in _state_blocks(trajectory.states[:horizon], ids.size * ids.size * scenario.dimension, ids):
            dist0 = dist[start : start + len(x), None, :]
            for row, block in _squared_distances(x, x):
                worst[start : start + len(x), row : row + block.shape[1]] = np.where(block <= eps2, dist0,
                                                                                    -np.inf).max(axis=2)
        group_alpha = np.asarray(series.max_alpha[k])
        group_alpha = np.where(group_alpha > 0.0, group_alpha, 0.0)  # max(0.0, alpha): a -0.0 degree gives a 0.0 bound
        labels += [f"agent {i}" for i in ids.tolist()] + [f"group {name}"]
        lhs += [dist[1:], dist[1:].max(axis=1, keepdims=True)]
        rhs += [series.alphas[k] * worst, (group_alpha * dist[:-1].max(axis=1))[:, None]]
    report.records = _step_records(labels, np.concatenate(lhs, axis=1), np.concatenate(rhs, axis=1))
    report.params["steps"] = horizon
    return report


# ---------------------------------------------------------------------------
# Geometric envelope toward the target
# ---------------------------------------------------------------------------


def check_target_envelope(trajectory: Trajectory, k: int, delta: float, steps=None) -> CheckReport:
    """Theorem 2: geometric decay of leader group k's max target distance.

    Requires delta in [0, 1) with every degree of the group bounded by delta
    at each designated step in ``steps`` (every step by default). C_t never
    grows, and it shrinks by a factor delta at each designated step, so
    C_t <= delta^(designated steps before t) * C_0; C_T <= TARGET_TOL once
    the designated steps number log(TARGET_TOL / C_0) / log(delta).
    """
    scenario = trajectory.scenario
    name = "target_envelope"
    if not 1 <= k <= scenario.m:
        return _skipped(name, INAPPLICABLE, f"no leader group {k}")
    if not 0.0 <= delta < 1.0:
        return _skipped(name, INAPPLICABLE, f"delta {delta} outside [0, 1)")
    horizon = trajectory.horizon
    steps = sorted({int(s) for s in (range(horizon) if steps is None else steps)})
    if any(not 0 <= s < horizon for s in steps):
        return _skipped(name, INAPPLICABLE, "designated steps outside the trajectory")
    series = measure(trajectory)
    t = next((s for s in steps if series.max_alpha[k - 1][s] > delta), None)
    if t is not None:
        ids = scenario.partition.leader_ids[k - 1]
        alpha = series.alphas[k - 1][t]
        i = (alpha > delta).argmax()
        message = f"degree {float(alpha[i])} of agent {ids[i]} at t={t} exceeds delta {delta}"
        return _skipped(name, INAPPLICABLE, message, delta=delta, k=k)
    curve = series.target_distances[k - 1]
    c0 = curve[0]
    if not math.isfinite(c0):  # overflowed squares: no envelope bounds an infinite distance
        message = f"initial max target distance {c0} of group {scenario.partition.leader_names[k - 1]} is not finite"
        return _skipped(name, INAPPLICABLE, message, delta=delta, k=k)
    report = CheckReport(name, params={"k": k, "delta": delta, "c0": c0})
    for t, ct in enumerate(curve):
        # one delta factor per designated step before t: delta**t for every step
        report.records.append(StepRecord(t, "envelope", ct, delta ** bisect.bisect_left(steps, t) * c0))
    if c0 <= TARGET_TOL:
        needed = 0
    elif delta == 0.0:
        needed = 1
    else:
        needed = math.ceil(math.log(TARGET_TOL / c0) / math.log(delta))
    report.params["target_tol"] = TARGET_TOL
    report.params["needed_horizon"] = needed
    report.params["final_value"] = curve[-1]
    if len(steps) >= needed:
        report.records.append(StepRecord(horizon, "final_target", curve[-1], TARGET_TOL))
    else:
        report.params["note"] = "horizon below certification threshold; envelope only"
    return report


def check_target_envelope_all(trajectory: Trajectory) -> CheckReport:
    """Envelope check for every leader group with delta measured from the run.

    Per group, delta is the largest realized degree over the trajectory.
    Groups whose measured delta reaches 1, or whose own check is
    inapplicable (an initial distance that is not finite), are noted and
    skipped; the report is inapplicable only when no group qualifies, with
    the first such group's reason if there is one.
    """
    scenario = trajectory.scenario
    name = "target_envelope"
    if scenario.m == 0:
        return _skipped(name, INAPPLICABLE, "no leader groups")
    series = measure(trajectory)
    merged = CheckReport(name, params={"target_tol": TARGET_TOL})
    eligible, unfit = 0, None
    for k in range(1, scenario.m + 1):
        delta = max([0.0] + series.max_alpha[k - 1])
        gname = scenario.partition.leader_names[k - 1]
        if delta >= 1.0:
            merged.params[f"group_{gname}"] = "skipped (measured delta reaches 1)"
            continue
        sub = check_target_envelope(trajectory, k, delta)
        if not sub.applicable:
            merged.params[f"group_{gname}"] = f"skipped ({sub.reason})"
            unfit = unfit or sub
            continue
        eligible += 1
        merged.records.extend(
            StepRecord(r.t, f"{gname}: {r.label}", r.lhs, r.rhs) for r in sub.records
        )
        merged.params[f"delta_{gname}"] = delta
        merged.params[f"final_{gname}"] = sub.params.get("final_value")
    if not eligible:
        return unfit or _skipped(name, INAPPLICABLE, "every leader group has measured delta at 1")
    return merged


# ---------------------------------------------------------------------------
# Ball invariance
# ---------------------------------------------------------------------------


def check_ball_invariance(trajectory: Trajectory, radius: float | None = None) -> CheckReport:
    """Containment in the ball around the single leader group's target.

    Finds the first step with every opinion inside the ball and asserts
    containment at every later step. Vacuous pass when the ball is never
    entered. The radius defaults to the initial state's.
    """
    scenario = trajectory.scenario
    name = "ball_invariance"
    if scenario.m != 1:
        return _skipped(name, INAPPLICABLE, f"needs exactly one leader group, found {scenario.m}")
    radii = measure(trajectory).radii[0]
    if radius is None:
        radius = radii[0]
    if not math.isfinite(radius):  # overflowed squares: inf - inf slacks are NaN
        return _skipped(name, INAPPLICABLE, f"ball radius {radius} is not finite")
    report = CheckReport(name, tolerance=BALL_TOL, params={"radius": radius})
    t0 = next((t for t, r in enumerate(radii) if r <= radius), None)
    if t0 is None:
        report.params["t0"] = "never"
        report.reason = "ball never entered within the horizon; containment holds vacuously"
        return report
    report.params["t0"] = t0
    for t in range(t0 + 1, len(radii)):
        report.records.append(StepRecord(t, "containment", radii[t], radius))
    return report


# ---------------------------------------------------------------------------
# Consensus with one leader group
# ---------------------------------------------------------------------------


def check_consensus_bound(trajectory: Trajectory) -> CheckReport:
    """Follower convergence bound for a single leader group.

    Hypotheses are measured from the run: the first step t* with every
    opinion strictly inside the epsilon ball around the target (delta is the
    radius attained there), and gamma, the largest degree slack
    max(1 - beta, alpha) realized from t* on, which must stay below 1. With
    p the first step after which the leader distance stays below
    epsilon - delta, follower distances A satisfy
    A_(t+1) <= gamma^(t-p+1) A_p + (t-p+1) gamma^(t-p) C_p for t >= p,
    and the final state must lie within CONSENSUS_TOL of the target.
    """
    scenario = trajectory.scenario
    name = "consensus_bound"
    if scenario.m != 1:
        return _skipped(name, INAPPLICABLE, f"needs exactly one leader group, found {scenario.m}")
    eps = scenario.epsilon
    horizon = trajectory.horizon
    series = measure(trajectory)
    radii = series.radii[0]
    curve_c = series.target_distances[0]
    curve_a = series.follower_distances or [0.0] * len(radii)

    t_star = next((t for t, r in enumerate(radii) if r < eps), None)
    if t_star is None:
        return _skipped(name, INAPPLICABLE, "opinions never entered the epsilon ball around the target")
    delta = radii[t_star]
    gamma = _onset(name, series, t_star, delta, horizon)  # for one group the followers' 1 - (sum of betas) is 1 - beta
    if isinstance(gamma, CheckReport):
        return gamma

    # smallest p >= t_star with every later leader distance below epsilon - delta
    p = 1 + max((t for t in range(t_star, horizon + 1) if not curve_c[t] < eps - delta), default=t_star - 1)
    if p > horizon:
        return _skipped(
            name, INAPPLICABLE, "leader distances never stayed below epsilon - delta",
            gamma=gamma, t_star=t_star, delta=delta,
        )

    report = CheckReport(
        name,
        params={
            "t_star": t_star,
            "delta": delta,
            "gamma": gamma,
            "p": p,
            "final_distance": radii[-1],
            "consensus_tol": CONSENSUS_TOL,
            "hypothesis_window": "measured over horizon",
        },
    )
    a_p, c_p = curve_a[p], curve_c[p]
    for t in range(p, horizon):
        bound = gamma ** (t - p + 1) * a_p + (t - p + 1) * gamma ** (t - p) * c_p
        report.records.append(StepRecord(t + 1, "follower_bound", curve_a[t + 1], bound))
    report.records.append(StepRecord(horizon, "final_consensus", radii[-1], CONSENSUS_TOL))
    return report


# ---------------------------------------------------------------------------
# Mixture limit with several leader groups
# ---------------------------------------------------------------------------


def check_mixture_limit(trajectory: Trajectory) -> CheckReport:
    """Limit point of followers under several leader groups.

    Requires stabilized betas (spread within STABILIZATION_TOL over the
    trailing STABILIZATION_WINDOW steps), a step at which all opinions and
    all targets fit in a ball of radius delta < epsilon around one target,
    and measured gamma < 1. Each follower must end within CONSENSUS_TOL of
    the beta-weighted mixture of the targets; each leader ends at its own
    target.
    """
    scenario = trajectory.scenario
    name = "mixture_limit"
    part = scenario.partition
    horizon = trajectory.horizon
    if scenario.m < 1:
        return _skipped(name, INAPPLICABLE, "needs at least one leader group")
    if horizon < 1:
        return _skipped(name, INAPPLICABLE, "trajectory has no steps")

    fol = part.follower_ids
    series = measure(trajectory)
    tail = series.betas[-STABILIZATION_WINDOW:]
    spread = (tail.max(axis=0) - tail.min(axis=0)).max(axis=1)
    total = beta_sums(tail[-1])
    unfit = (spread > STABILIZATION_TOL) | (total == 0.0)
    if unfit.any():
        j = unfit.argmax()
        if spread[j] > STABILIZATION_TOL:
            return _skipped(
                name, INAPPLICABLE, f"betas of agent {fol[j]} not stabilized (spread {float(spread[j]):.3g})"
            )
        return _skipped(name, UNDEFINED_LIMIT, f"agent {fol[j]} has zero beta sum; mixture undefined")
    weights = tail[-1] / total[:, None]

    target_reach = [distances_to(scenario.targets, target).max() for target in scenario.targets]
    # the first step with a ball that holds all opinions and targets, around the lowest such group's target
    balls = np.maximum(np.array(series.radii).T, target_reach)  # (T + 1, m)
    inside = balls < scenario.epsilon
    if not inside.any():
        return _skipped(
            name, INAPPLICABLE, "no step where all opinions and targets fit one epsilon ball"
        )
    t_star, j = divmod(int(inside.argmax()), scenario.m)
    delta, center_group = float(balls[t_star, j]), j + 1
    gamma = _onset(name, series, t_star, delta, horizon)
    if isinstance(gamma, CheckReport):
        return gamma

    report = CheckReport(
        name,
        params={
            "t_star": t_star,
            "delta": delta,
            "gamma": gamma,
            "ball_center_group": center_group,
            "consensus_tol": CONSENSUS_TOL,
        },
    )
    # each follower's mixture is its weights' product with the targets, as
    # one vector-matrix product per distinct row of weights
    rows, which = np.unique(weights, axis=0, return_inverse=True)
    mixtures = np.array([row @ scenario.targets for row in rows]).reshape(len(rows), scenario.dimension)[which.ravel()]
    lhs = np.sqrt(((trajectory.final_state.opinions[fol] - mixtures) ** 2).sum(axis=1))
    labels = [f"follower {i} mixture" for i in fol.tolist()]
    labels += [f"group {name} target" for name in part.leader_names]
    lhs = lhs.tolist() + [curve[-1] for curve in series.target_distances]
    report.records = list(map(StepRecord, repeat(horizon), labels, lhs, repeat(CONSENSUS_TOL)))
    return report


# ---------------------------------------------------------------------------
# Independent subsystems
# ---------------------------------------------------------------------------


def subsystem_scenario(scenario: Scenario, k: int, members: np.ndarray) -> Scenario:
    """Leader group k and the followers among ``members`` as a standalone
    system. ``members`` are original ids in ascending order, all of group k's
    leaders among them, and agent j of the result is ``members[j]``:
    schedules keep their original agent keys through a remapping wrapper,
    and the follower beta vector is restricted to the single remaining group.
    """
    part = scenario.partition
    new_id = np.full(scenario.n_agents, -1, dtype=np.int64)
    new_id[members] = np.arange(members.size)
    group_of = (part.group_of[members] == k).astype(np.int64)

    def remap(blocks, pick) -> tuple:
        """The blocks' schedules over the kept agents, queried under their original ids."""
        out = []
        for schedules, ids in blocks:
            ids = new_id[ids]
            ids = ids[ids >= 0]
            if ids.size:
                out.append((pick(schedules), ids))
        return tuple(out)

    return replace(
        scenario,
        partition=Partition(group_of, part.leader_names[k - 1 : k], part.follower_name if 0 in group_of else None),
        targets=scenario.targets[k - 1 : k],
        initial_state=SystemState(0, scenario.initial_state.opinions[members]),
        alphas=remap(scenario.alphas, lambda s: RemappedAgents(s, members)),
        betas=remap(scenario.betas, lambda s: (RemappedAgents(s[k - 1], members),)),
        canonical={},
    )


def subsystem_labels(trajectory: Trajectory) -> np.ndarray | None:
    """Each agent's subsystem: a leader's own group, and for a follower the
    unique leader group it can mix toward.

    A follower belongs to group k when its beta toward k is positive at some
    step of the run (at step 0 when it has no steps) and its betas toward
    every other group are identically zero. Returns None when any follower
    has no group or several."""
    scenario = trajectory.scenario
    part = scenario.partition
    fol = part.follower_ids
    betas = measure(trajectory).betas
    if not len(betas):
        betas = realized_betas(scenario, 0)[None, fol]
    active = betas.max(axis=0) > 0.0
    if (active.sum(axis=1) != 1).any():
        return None
    label = part.group_of.copy()
    label[fol] = active.argmax(axis=1) + 1
    return label


def _crosstalk(trajectory: Trajectory, label: np.ndarray) -> str | None:
    """Names the first follower within epsilon of an agent of another
    subsystem at the first state with one, or None. Each subsystem's
    followers are scanned against the agents outside it, a block of states
    at a time within the float budget of a block; only the first state with
    a contact gets the full neighbor pairs, to name the lowest such
    follower, then its lowest-id follower contact or else its lowest leader
    group."""
    scenario = trajectory.scenario
    part = scenario.partition
    fol = part.follower_ids
    eps2 = scenario.epsilon * scenario.epsilon
    first = None  # the first state with a contact so far; later subsystems scan the states before it
    for a in range(1, scenario.m + 1):
        own, others = fol[label[fol] == a], np.flatnonzero(label != a)
        if not (own.size and others.size):
            continue
        floats = max(own.size * others.size, scenario.n_agents) * scenario.dimension
        for start, x in _state_blocks(trajectory.states[:first], floats):
            hit = np.zeros(len(x), dtype=bool)
            for _, block in _squared_distances(x[:, own], x[:, others]):
                hit |= (block <= eps2).any(axis=(1, 2))
            if hit.any():
                first = start + int(hit.argmax())
                break
    if first is None:
        return None
    state = trajectory.states[first]
    rows, cols = neighbors_naive(state, scenario)
    cross = (part.group_of[rows] == 0) & (label[cols] != label[rows])
    i = rows[cross.argmax()]
    hits = cols[cross & (rows == i)]  # ascending
    codes = part.group_of[hits]
    if (codes == 0).any():
        return f"followers {i} and {hits[codes == 0][0]} of different subsystems are neighbors at t={state.t}"
    return f"follower {i} (subsystem {label[i]}) sees leader group {codes.min()} at t={state.t}"


def check_subsystem_independence(trajectory: Trajectory) -> CheckReport:
    """Spatially separated leader groups each reach their own target.

    Followers are assigned to the single group their betas point at; each
    subsystem (its leaders plus assigned followers) must start inside a ball
    of radius delta_k < epsilon around its target with measured degree bound
    gamma_k < 1. Each subsystem is then re-run standalone and every agent
    must end within CONSENSUS_TOL of its group target, in the standalone run
    and in the joint run, the given trajectory. Any epsilon-contact between
    different subsystems in the joint run is flagged as cross talk and the
    premise fails.

    With one leader group the standalone system is the whole system, so a
    joint run made without an injected fault and without a tolerance stop
    already is the standalone run and is not repeated.
    """
    scenario = trajectory.scenario
    name = "subsystem_independence"
    if scenario.m < 1:
        return _skipped(name, INAPPLICABLE, "needs at least one leader group")
    horizon = trajectory.horizon
    part = scenario.partition

    label = subsystem_labels(trajectory)
    if label is None:
        return _skipped(
            name, INAPPLICABLE, "followers do not split into one leader group each (betas overlap or vanish)"
        )
    message = _crosstalk(trajectory, label)  # cross-subsystem contact scan on the joint run
    if message:
        return _skipped(name, CROSSTALK, message)
    series = measure(trajectory)
    lowest = series.betas.min(axis=0, initial=1.0)  # each follower's smallest beta per group

    report = CheckReport(name, params={"consensus_tol": CONSENSUS_TOL, "cross_contacts": 0})
    for k in range(1, scenario.m + 1):
        members = np.flatnonzero(label == k)
        g = scenario.target(k)
        delta_k = float(distances_to(trajectory.states[0].opinions[members], g).max())
        if delta_k >= scenario.epsilon:
            return _skipped(
                name, INAPPLICABLE,
                f"subsystem {k} starts at radius {delta_k:.6g}, not inside the epsilon ball",
            )
        # a degree lies in [0, 1], so the largest 1 - beta is 1 - the smallest beta;
        # 0.0 first: a zero gamma is 0.0, whatever the signs of the zero degrees
        rest = 1.0 - float(lowest[label[part.follower_ids] == k, k - 1].min(initial=1.0))
        gamma_k = max(0.0, rest, max(series.max_alpha[k - 1], default=0.0))
        if gamma_k >= 1.0:
            return _skipped(name, INAPPLICABLE, f"measured gamma {gamma_k} of subsystem {k} is not below 1")
        report.params[f"delta_{k}"] = delta_k
        report.params[f"gamma_{k}"] = gamma_k

        if scenario.m == 1 and trajectory.fault is None and trajectory.stop_tol is None:
            alone = trajectory
        else:
            alone = run(subsystem_scenario(scenario, k, members), horizon, stop_tol=None)
        # each run measured at its final state; a subsystem's agents are its members in id order
        standalone = distances_to(alone.final_state.opinions, g)
        joint = distances_to(trajectory.final_state.opinions[members], g)
        for t, kind, dist in ((alone.horizon, "standalone", standalone), (horizon, "joint", joint)):
            labels = [f"{kind} agent {i}" for i in members.tolist()]
            report.records += map(StepRecord, repeat(t), labels, dist.tolist(), repeat(CONSENSUS_TOL))
    return report
