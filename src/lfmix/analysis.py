"""Metrics and the runtime verification harness.

Every structural result about the dynamics is re-checked numerically on
concrete trajectories, with measured slack:

* ``check_contraction``: each leader's distance to its target is bounded by
  its degree times the worst neighbor distance, per agent and per group, at
  every step.
* ``check_target_envelope``: with degrees uniformly below delta < 1, the max
  leader-target distance decays inside the geometric envelope delta^t, and
  falls below a target tolerance by the derivable horizon.
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
  neighbor contact is flagged.

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

``measure`` reads a trajectory once into a ``Series`` of per-state distances
(C_t, A_t, the radius around the first target) and per-step degree maxima,
which ``metrics_rows``, ``measured_degree_bounds`` and the envelope, ball and
limit checks read; each takes an optional precomputed series.

``opinion_diameter`` is exact and needs numpy only. For d >= 2 it gives the
square root of the largest squared distance the engine's arithmetic gives
any pair, bit for bit, but scans pairwise only the points that the triangle
inequality through the bounding-box centre cannot rule out.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import Trajectory, beta_sums, realized_alpha, realized_betas, run
from .model import Partition, Scenario, SystemState
from .neighbors import neighbors_naive
from .schedules import RemappedAgents

SLACK_TOL = 1e-9
CONSENSUS_TOL = 1e-6
BALL_TOL = 1e-12
STABILIZATION_TOL = 1e-12

INAPPLICABLE = "InapplicableHypothesis"
UNDEFINED_LIMIT = "UndefinedLimit"
CROSSTALK = "CrossTalk"


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepRecord:
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

    @property
    def worst_slack(self) -> float | None:
        return min((r.slack for r in self.records), default=None)

    @property
    def passed(self) -> bool:
        return all(r.slack >= -self.tolerance for r in self.records)

    @property
    def status(self) -> str:
        if not self.applicable:
            return "skipped"
        return "pass" if self.passed else "fail"

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
    diff = x - point
    return np.sqrt((diff * diff).sum(axis=1))


def max_target_distance(state: SystemState, scenario: Scenario, k: int) -> float:
    """Largest distance from a member of leader group k to its target."""
    if not 1 <= k <= scenario.m:
        raise ValueError(f"leader group {k} out of range 1..{scenario.m}")
    ids = scenario.partition.leader_ids[k - 1]
    return float(distances_to(state.opinions[ids], scenario.target(k)).max())


_SCAN_FLOATS = 1 << 17  # coordinate differences per block of a pairwise scan
# opinion_diameter prunes only above this squared lower bound: below it the
# absolute rounding error of subnormal squares can outweigh the slack
_PRUNE_MIN_SQUARED = 2.0**-900


def _squared_distances(a: np.ndarray, b: np.ndarray):
    """Squared distances of the rows of ``a`` to all of ``b``, a block of
    rows at a time: yields ``(start, block)`` with ``block[r, j]`` the
    squared distance of ``a[start + r]`` and ``b[j]``, by the arithmetic of
    the engine's neighbor test."""
    rows = max(1, _SCAN_FLOATS // max(b.size, 1))
    for start in range(0, a.shape[0], rows):
        diff = a[start : start + rows, None, :] - b[None, :, :]
        diff *= diff
        yield start, diff.sum(axis=2)


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
    diff = x - (0.5 * lo + 0.5 * hi)
    diff *= diff
    r = np.sqrt(diff.sum(axis=1))
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
    """Per-state (t = 0..T) and per-step (t = 0..T-1) maxima of one trajectory.

    Per state: C_t of group k, ``target_distances[k - 1][t]``; the followers'
    (A_t) and all agents' max distance to target 1. Per step: group k's max
    degree, ``max_alpha[k - 1][t]``; the max over all leaders in one reduction
    (so a zero max keeps numpy's sign); the followers' max 1 - (sum of betas).
    A series is None when it has no agents or no target 1.
    """

    target_distances: tuple[list[float], ...]
    follower_distances: list[float] | None
    radii: list[float] | None
    max_alpha: tuple[list[float], ...]
    leader_max_alpha: list[float] | None
    max_rest: list[float] | None


def measure(trajectory: Trajectory) -> Series:
    """The trajectory's series, from its raw states and degrees re-queried
    from the schedules."""
    scenario = trajectory.scenario
    part = scenario.partition
    fol = part.follower_ids
    m = scenario.m
    states = trajectory.states
    steps = range(trajectory.horizon)
    target_distances = tuple([max_target_distance(s, scenario, k) for s in states] for k in range(1, m + 1))
    follower_distances = radii = leader_max_alpha = max_rest = None
    max_alpha = tuple([] for _ in part.leader_ids)
    if m:
        g = scenario.target(1)
        radii = [float(distances_to(s.opinions, g).max()) for s in states]
        if fol.size:
            follower_distances = [float(distances_to(s.opinions[fol], g).max()) for s in states]
        lead = part.group_of > 0
        leader_max_alpha = []
        for t in steps:
            alpha = realized_alpha(scenario, t)
            leader_max_alpha.append(float(alpha[lead].max()))
            for col, ids in zip(max_alpha, part.leader_ids):
                col.append(float(alpha[ids].max()))
    if fol.size:
        max_rest = [float((1.0 - beta_sums(realized_betas(scenario, t)[fol])).max()) for t in steps]
    return Series(target_distances, follower_distances, radii, max_alpha, leader_max_alpha, max_rest)


def measured_degree_bounds(series: Series) -> tuple[float | None, float | None]:
    """(gamma, delta) over the realized steps: gamma is the sup of
    max(1 - beta sum, alpha), delta the sup of alpha alone."""
    alphas = series.leader_max_alpha or []
    delta = max(alphas, default=None)
    gamma = max(alphas + (series.max_rest or []), default=None)
    return gamma, delta


def metrics_rows(trajectory: Trajectory, series: Series | None = None) -> list[MetricsRow]:
    """Summaries for every recorded state. The follower spread is measured
    against the first leader group's target (None without leader groups)."""
    series = series or measure(trajectory)
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


def check_contraction_step(
    state_t: SystemState,
    state_t1: SystemState,
    alphas_t,
    scenario: Scenario,
    tol: float = SLACK_TOL,
) -> CheckReport:
    """One step of the leader contraction bound.

    For every leader i with degree alpha: the new distance to the target is
    at most alpha times the worst distance at time t among i's own-group
    neighbors, i included; per group, the max distance contracts by the
    group's max degree. Each group's leaders are scanned against that group
    only.
    """
    report = CheckReport("contraction", tolerance=tol)
    part = scenario.partition
    eps2 = scenario.epsilon * scenario.epsilon
    for k in range(1, scenario.m + 1):
        g = scenario.target(k)
        ids = part.leader_ids[k - 1]
        x = state_t.opinions[ids]
        dist0 = distances_to(x, g)
        dist1 = distances_to(state_t1.opinions[ids], g)
        worst = np.empty_like(dist0)
        for start, block in _squared_distances(x, x):
            worst[start : start + block.shape[0]] = np.where(block <= eps2, dist0, -np.inf).max(axis=1)
        group_alpha = 0.0
        for i, d1, w in zip(ids.tolist(), dist1.tolist(), worst.tolist()):
            alpha = float(alphas_t[i])
            group_alpha = max(group_alpha, alpha)
            report.records.append(StepRecord(state_t.t, f"agent {i}", d1, alpha * w))
        c0 = float(dist0.max())
        c1 = float(dist1.max())
        report.records.append(
            StepRecord(state_t.t, f"group {part.leader_names[k - 1]}", c1, group_alpha * c0)
        )
    return report


def check_contraction(trajectory: Trajectory, tol: float = SLACK_TOL) -> CheckReport:
    """Contraction bound at every step of a trajectory.

    Own-group neighbors are recomputed from the raw states and degrees
    re-queried from the schedules, independently of whatever the engine did.
    """
    scenario = trajectory.scenario
    report = CheckReport("contraction", tolerance=tol)
    if scenario.m == 0:
        report.params["note"] = "no leader groups; nothing to check"
        return report
    for t in range(trajectory.horizon):
        alphas = realized_alpha(scenario, t)
        sub = check_contraction_step(trajectory.states[t], trajectory.states[t + 1], alphas, scenario, tol)
        report.records.extend(sub.records)
    report.params["steps"] = trajectory.horizon
    return report


# ---------------------------------------------------------------------------
# Geometric envelope toward the target
# ---------------------------------------------------------------------------


def _alpha_above(scenario: Scenario, k: int, t: int, delta: float) -> str:
    """Names the first leader of group k whose degree at t exceeds delta."""
    ids = scenario.partition.leader_ids[k - 1]
    alpha = realized_alpha(scenario, t)[ids]
    i = (alpha > delta).argmax()
    return f"degree {float(alpha[i])} of agent {ids[i]}"


def check_target_envelope(
    trajectory: Trajectory,
    k: int,
    delta: float,
    tol: float = SLACK_TOL,
    target_tol: float = 1e-9,
    series: Series | None = None,
) -> CheckReport:
    """Geometric decay of leader group k's max target distance.

    Requires delta in [0, 1) with every realized degree of the group bounded
    by delta; then C_t <= delta^t * C_0 at every step, and C_T <= target_tol
    once the horizon passes log(target_tol / C_0) / log(delta).
    """
    scenario = trajectory.scenario
    name = "target_envelope"
    if not 1 <= k <= scenario.m:
        return _skipped(name, INAPPLICABLE, f"no leader group {k}")
    if not 0.0 <= delta < 1.0:
        return _skipped(name, INAPPLICABLE, f"delta {delta} outside [0, 1)")
    series = series or measure(trajectory)
    for t, alpha in enumerate(series.max_alpha[k - 1]):
        if alpha > delta:
            above = _alpha_above(scenario, k, t, delta)
            return _skipped(name, INAPPLICABLE, f"{above} at t={t} exceeds delta {delta}", delta=delta, k=k)
    curve = series.target_distances[k - 1]
    c0 = curve[0]
    report = CheckReport(name, tolerance=tol, params={"k": k, "delta": delta, "c0": c0})
    for t, ct in enumerate(curve):
        report.records.append(StepRecord(t, "envelope", ct, delta**t * c0))
    if c0 <= target_tol:
        needed = 0
    elif delta == 0.0:
        needed = 1
    else:
        needed = math.ceil(math.log(target_tol / c0) / math.log(delta))
    report.params["target_tol"] = target_tol
    report.params["needed_horizon"] = needed
    report.params["final_value"] = curve[-1]
    if trajectory.horizon >= needed:
        report.records.append(StepRecord(trajectory.horizon, "final_target", curve[-1], target_tol))
    else:
        report.params["note"] = "horizon below certification threshold; envelope only"
    return report


def check_target_envelope_all(
    trajectory: Trajectory,
    tol: float = SLACK_TOL,
    target_tol: float = 1e-9,
    series: Series | None = None,
) -> CheckReport:
    """Envelope check for every leader group with delta measured from the run.

    Per group, delta is the largest realized degree over the trajectory.
    Groups whose measured delta reaches 1 are noted and skipped; the report
    is inapplicable only when no group qualifies.
    """
    scenario = trajectory.scenario
    name = "target_envelope"
    if scenario.m == 0:
        return _skipped(name, INAPPLICABLE, "no leader groups")
    series = series or measure(trajectory)
    merged = CheckReport(name, tolerance=tol, params={"target_tol": target_tol})
    eligible = 0
    for k in range(1, scenario.m + 1):
        delta = max([0.0] + series.max_alpha[k - 1])
        gname = scenario.partition.leader_names[k - 1]
        if delta >= 1.0:
            merged.params[f"group_{gname}"] = "skipped (measured delta reaches 1)"
            continue
        eligible += 1
        sub = check_target_envelope(trajectory, k, delta, tol, target_tol, series)
        merged.records.extend(
            StepRecord(r.t, f"{gname}: {r.label}", r.lhs, r.rhs) for r in sub.records
        )
        merged.params[f"delta_{gname}"] = delta
        merged.params[f"final_{gname}"] = sub.params.get("final_value")
    if not eligible:
        return _skipped(name, INAPPLICABLE, "every leader group has measured delta at 1")
    return merged


def target_envelope_along(
    trajectory: Trajectory,
    k: int,
    delta: float,
    steps,
    tol: float = SLACK_TOL,
) -> CheckReport:
    """Envelope applied only along designated contraction steps.

    At every step the group's max target distance is nonincreasing; at each
    step in ``steps`` the group's degrees must be bounded by delta, so the
    bound gains one delta factor there: C_t <= delta^(count of designated
    steps before t) * C_0.
    """
    scenario = trajectory.scenario
    name = "target_envelope_subsequence"
    if not 1 <= k <= scenario.m:
        return _skipped(name, INAPPLICABLE, f"no leader group {k}")
    if not 0.0 <= delta < 1.0:
        return _skipped(name, INAPPLICABLE, f"delta {delta} outside [0, 1)")
    steps = sorted(set(int(s) for s in steps))
    if any(s < 0 or s >= trajectory.horizon for s in steps):
        return _skipped(name, INAPPLICABLE, "designated steps outside the trajectory")
    series = measure(trajectory)
    for s in steps:
        if series.max_alpha[k - 1][s] > delta:
            above = _alpha_above(scenario, k, s, delta)
            return _skipped(name, INAPPLICABLE, f"{above} at designated step {s} exceeds {delta}")
    curve = series.target_distances[k - 1]
    report = CheckReport(name, tolerance=tol, params={"k": k, "delta": delta, "steps": len(steps)})
    for t, ct in enumerate(curve):
        # one delta factor per designated step before t
        report.records.append(StepRecord(t, "envelope", ct, delta ** bisect.bisect_left(steps, t) * curve[0]))
    return report


# ---------------------------------------------------------------------------
# Ball invariance
# ---------------------------------------------------------------------------


def check_ball_invariance(
    trajectory: Trajectory,
    center: np.ndarray | None = None,
    radius: float | None = None,
    tol: float = BALL_TOL,
    series: Series | None = None,
) -> CheckReport:
    """Containment in the ball around the single leader group's target.

    Finds the first step with every opinion inside the ball and asserts
    containment at every later step. Vacuous pass when the ball is never
    entered. The center defaults to the target and the radius to the
    initial state's.
    """
    scenario = trajectory.scenario
    name = "ball_invariance"
    if scenario.m != 1:
        return _skipped(name, INAPPLICABLE, f"needs exactly one leader group, found {scenario.m}")
    if center is not None:
        center = np.asarray(center, dtype=np.float64)
        if center.shape != (scenario.dimension,) or not np.array_equal(center, scenario.target(1)):
            return _skipped(name, INAPPLICABLE, "center must equal the leader group's target")
    radii = (series or measure(trajectory)).radii
    if radius is None:
        radius = radii[0]
    report = CheckReport(name, tolerance=tol, params={"radius": radius})
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


def check_consensus_bound(
    trajectory: Trajectory,
    tol: float = SLACK_TOL,
    consensus_tol: float = CONSENSUS_TOL,
    series: Series | None = None,
) -> CheckReport:
    """Follower convergence bound for a single leader group.

    Hypotheses are measured from the run: the first step t* with every
    opinion strictly inside the epsilon ball around the target (delta is the
    radius attained there), and gamma, the largest degree slack
    max(1 - beta, alpha) realized from t* on, which must stay below 1. With
    p the first step after which the leader distance stays below
    epsilon - delta, follower distances A satisfy
    A_(t+1) <= gamma^(t-p+1) A_p + (t-p+1) gamma^(t-p) C_p for t >= p,
    and the final state must lie within consensus_tol of the target.
    """
    scenario = trajectory.scenario
    name = "consensus_bound"
    if scenario.m != 1:
        return _skipped(name, INAPPLICABLE, f"needs exactly one leader group, found {scenario.m}")
    eps = scenario.epsilon
    horizon = trajectory.horizon
    series = series or measure(trajectory)
    radii = series.radii
    curve_c = series.target_distances[0]
    curve_a = series.follower_distances or [0.0] * len(radii)

    t_star = next((t for t, r in enumerate(radii) if r < eps), None)
    if t_star is None:
        return _skipped(name, INAPPLICABLE, "opinions never entered the epsilon ball around the target")
    if t_star >= horizon:
        return _skipped(name, INAPPLICABLE, "ball entered only at the final state; no steps to bound")
    delta = radii[t_star]

    # for one group the followers' 1 - (sum of betas) is 1 - beta
    gamma = max([0.0] + (series.max_rest or [])[t_star:] + series.max_alpha[0][t_star:])
    if gamma >= 1.0:
        return _skipped(
            name, INAPPLICABLE, f"measured gamma {gamma} is not below 1",
            gamma=gamma, t_star=t_star, delta=delta,
        )

    # smallest p >= t_star with every later leader distance below epsilon - delta
    p = 1 + max((t for t in range(t_star, horizon + 1) if not curve_c[t] < eps - delta), default=t_star - 1)
    if p > horizon:
        return _skipped(
            name, INAPPLICABLE, "leader distances never stayed below epsilon - delta",
            gamma=gamma, t_star=t_star, delta=delta,
        )

    report = CheckReport(
        name,
        tolerance=tol,
        params={
            "t_star": t_star,
            "delta": delta,
            "gamma": gamma,
            "p": p,
            "final_distance": radii[-1],
            "consensus_tol": consensus_tol,
            "hypothesis_window": "measured over horizon",
        },
    )
    a_p, c_p = curve_a[p], curve_c[p]
    for t in range(p, horizon):
        bound = gamma ** (t - p + 1) * a_p + (t - p + 1) * gamma ** (t - p) * c_p
        report.records.append(StepRecord(t + 1, "follower_bound", curve_a[t + 1], bound))
    report.records.append(StepRecord(horizon, "final_consensus", radii[-1], consensus_tol))
    return report


# ---------------------------------------------------------------------------
# Mixture limit with several leader groups
# ---------------------------------------------------------------------------


def check_mixture_limit(
    trajectory: Trajectory,
    tol: float = SLACK_TOL,
    consensus_tol: float = CONSENSUS_TOL,
    stabilization_tol: float = STABILIZATION_TOL,
    window: int = 10,
    series: Series | None = None,
) -> CheckReport:
    """Limit point of followers under several leader groups.

    Requires stabilized betas (spread within stabilization_tol over the
    trailing window), a step at which all opinions and all targets fit in a
    ball of radius delta < epsilon around one target, and measured gamma < 1.
    Each follower must end within consensus_tol of the beta-weighted mixture
    of the targets; each leader ends at its own target.
    """
    scenario = trajectory.scenario
    name = "mixture_limit"
    part = scenario.partition
    m = scenario.m
    horizon = trajectory.horizon
    if m < 1:
        return _skipped(name, INAPPLICABLE, "needs at least one leader group")
    if horizon < 1:
        return _skipped(name, INAPPLICABLE, "trajectory has no steps")

    fol = part.follower_ids
    tail = np.stack([realized_betas(scenario, s)[fol] for s in range(max(0, horizon - window), horizon)])
    spread = (tail.max(axis=0) - tail.min(axis=0)).max(axis=1)
    total = tail[-1].sum(axis=1)
    unfit = (spread > stabilization_tol) | (total == 0.0)
    if unfit.any():
        j = unfit.argmax()
        if spread[j] > stabilization_tol:
            return _skipped(
                name, INAPPLICABLE, f"betas of agent {fol[j]} not stabilized (spread {float(spread[j]):.3g})"
            )
        return _skipped(name, UNDEFINED_LIMIT, f"agent {fol[j]} has zero beta sum; mixture undefined")
    weights = tail[-1] / total[:, None]

    t_star = delta = center_group = None
    for t, state in enumerate(trajectory.states):
        for j in range(1, m + 1):
            r = max(
                float(distances_to(state.opinions, scenario.target(j)).max()),
                float(distances_to(scenario.targets, scenario.target(j)).max()),
            )
            if r < scenario.epsilon:
                t_star, delta, center_group = t, r, j
                break
        if t_star is not None:
            break
    if t_star is None:
        return _skipped(
            name, INAPPLICABLE, "no step where all opinions and targets fit one epsilon ball"
        )
    if t_star >= horizon:
        return _skipped(name, INAPPLICABLE, "ball entered only at the final state; no steps to bound")

    series = series or measure(trajectory)
    gamma = max([0.0] + (series.max_rest or [])[t_star:] + series.leader_max_alpha[t_star:])
    if gamma >= 1.0:
        return _skipped(
            name, INAPPLICABLE, f"measured gamma {gamma} is not below 1",
            gamma=gamma, t_star=t_star, delta=delta,
        )

    report = CheckReport(
        name,
        tolerance=tol,
        params={
            "t_star": t_star,
            "delta": delta,
            "gamma": gamma,
            "ball_center_group": center_group,
            "consensus_tol": consensus_tol,
        },
    )
    final = trajectory.final_state.opinions
    for j, i in enumerate(fol.tolist()):
        lhs = float(np.sqrt(((final[i] - weights[j] @ scenario.targets) ** 2).sum()))
        report.records.append(StepRecord(horizon, f"follower {i} mixture", lhs, consensus_tol))
    for k in range(1, m + 1):
        dists = distances_to(final[part.leader_ids[k - 1]], scenario.target(k))
        report.records.append(
            StepRecord(horizon, f"group {part.leader_names[k - 1]} target", float(dists.max()), consensus_tol)
        )
    return report


# ---------------------------------------------------------------------------
# Independent subsystems
# ---------------------------------------------------------------------------


def subsystem_scenario(scenario: Scenario, k: int, follower_ids) -> tuple[Scenario, np.ndarray]:
    """Extract leader group k plus the given followers as a standalone system.

    Agents are reindexed in ascending original-id order; schedules keep their
    original agent keys through a remapping wrapper, and the follower beta
    vector is restricted to the single remaining group. Returns the scenario
    and the original ids (indexed by new id).
    """
    part = scenario.partition
    follower_ids = np.asarray(follower_ids, dtype=np.int64)
    originals = np.union1d(follower_ids, part.leader_ids[k - 1])
    new_id = np.full(scenario.n_agents, -1, dtype=np.int64)
    new_id[originals] = np.arange(originals.size)

    new_followers = np.sort(new_id[follower_ids])
    new_leaders = new_id[part.leader_ids[k - 1]]
    group_of = np.zeros(originals.size, dtype=np.int64)
    group_of[new_leaders] = 1

    def remap(blocks, pick) -> tuple:
        """The blocks' schedules over the kept agents, queried under their original ids."""
        out = []
        for schedules, ids in blocks:
            ids = new_id[ids]
            ids = ids[ids >= 0]
            if ids.size:
                out.append((pick(schedules), ids))
        return tuple(out)

    sub = Scenario(
        dimension=scenario.dimension,
        epsilon=scenario.epsilon,
        partition=Partition(
            group_of=group_of,
            follower_ids=new_followers,
            leader_ids=(new_leaders,),
            leader_names=(part.leader_names[k - 1],),
            follower_name=part.follower_name if new_followers.size else None,
        ),
        targets=scenario.targets[k - 1 : k],
        initial_state=SystemState(0, scenario.initial_state.opinions[originals]),
        alphas=remap(scenario.alphas, lambda s: RemappedAgents(s, originals)),
        betas=remap(scenario.betas, lambda s: (RemappedAgents(s[k - 1], originals),)),
        engine=scenario.engine,
        base_seed=scenario.base_seed,
        canonical={},
    )
    return sub, originals


def derive_subsystem_assignment(scenario: Scenario, horizon: int) -> dict[int, int] | None:
    """Map each follower to the unique leader group it can mix toward.

    A follower belongs to group k when its beta toward k is positive at some
    step and its betas toward every other group are identically zero. Returns
    None when any follower has no group or several."""
    fol = scenario.partition.follower_ids
    active = np.zeros((fol.size, scenario.m), dtype=bool)
    for s in range(max(horizon, 1)):
        active |= realized_betas(scenario, s)[fol] > 0.0
    if (active.sum(axis=1) != 1).any():
        return None
    return dict(zip(fol.tolist(), (active.argmax(axis=1) + 1).tolist()))


def _crosstalk(state: SystemState, scenario: Scenario, label: np.ndarray) -> str | None:
    """Names the first follower within epsilon of an agent of another
    subsystem, or None. Each subsystem's followers are scanned against the
    agents outside it; only a state with a contact gets the full neighbor
    pairs, to name the lowest such follower, then its lowest-id follower
    contact or else its lowest leader group."""
    part = scenario.partition
    fol = part.follower_ids
    x = state.opinions
    eps2 = scenario.epsilon * scenario.epsilon
    for a in range(1, scenario.m + 1):
        own = fol[label[fol] == a]
        others = label != a
        if own.size and others.any():
            if any((block <= eps2).any() for _, block in _squared_distances(x[own], x[others])):
                break
    else:
        return None
    rows, cols = neighbors_naive(state, scenario)
    cross = (part.group_of[rows] == 0) & (label[cols] != label[rows])
    i = rows[cross.argmax()]
    hits = cols[cross & (rows == i)]  # ascending
    codes = part.group_of[hits]
    if (codes == 0).any():
        return f"followers {i} and {hits[codes == 0][0]} of different subsystems are neighbors at t={state.t}"
    return f"follower {i} (subsystem {label[i]}) sees leader group {codes.min()} at t={state.t}"


def check_subsystem_independence(
    scenario: Scenario,
    horizon: int | None = None,
    tol: float = SLACK_TOL,
    consensus_tol: float = CONSENSUS_TOL,
    joint: Trajectory | None = None,
    series: Series | None = None,
) -> CheckReport:
    """Spatially separated leader groups each reach their own target.

    Followers are assigned to the single group their betas point at; each
    subsystem (its leaders plus assigned followers) must start inside a ball
    of radius delta_k < epsilon around its target with measured degree bound
    gamma_k < 1. Each subsystem is then re-run standalone and every agent
    must end within consensus_tol of its group target, in the standalone run
    and in the joint run. Any epsilon-contact between different subsystems in
    the joint run is flagged as cross talk and the premise fails.

    With one leader group the standalone system is the whole system, so a
    joint run made without an injected fault and without a tolerance stop
    already is the standalone run and is not repeated. ``series``, when
    given, is the joint run's.
    """
    name = "subsystem_independence"
    if scenario.m < 1:
        return _skipped(name, INAPPLICABLE, "needs at least one leader group")
    if joint is None:
        joint = run(scenario, horizon)
    horizon = joint.horizon
    part = scenario.partition

    assignment = derive_subsystem_assignment(scenario, horizon)
    if assignment is None:
        return _skipped(
            name, INAPPLICABLE, "followers do not split into one leader group each (betas overlap or vanish)"
        )
    # cross-subsystem contact scan on the joint run
    label = part.group_of.copy()  # subsystem of every agent: a leader's group, a follower's assignment
    label[part.follower_ids] = [assignment[i] for i in part.follower_ids.tolist()]
    for state in joint.states:
        message = _crosstalk(state, scenario, label)
        if message:
            return _skipped(name, CROSSTALK, message)
    series = series or measure(joint)

    report = CheckReport(name, tolerance=tol, params={"consensus_tol": consensus_tol, "cross_contacts": 0})
    x0 = scenario.initial_state.opinions
    final_joint = joint.final_state.opinions
    for k in range(1, scenario.m + 1):
        followers_k = np.asarray([i for i, a in assignment.items() if a == k], dtype=np.int64)
        members = np.union1d(followers_k, part.leader_ids[k - 1])
        g = scenario.target(k)
        delta_k = float(distances_to(x0[members], g).max())
        if delta_k >= scenario.epsilon:
            return _skipped(
                name, INAPPLICABLE,
                f"subsystem {k} starts at radius {delta_k:.6g}, not inside the epsilon ball",
            )
        gamma_k = 0.0
        for s, alpha in enumerate(series.max_alpha[k - 1]):
            rest = 1.0 - realized_betas(scenario, s)[followers_k, k - 1]
            gamma_k = max(gamma_k, float(rest.max(initial=0.0)), alpha)
        if gamma_k >= 1.0:
            return _skipped(name, INAPPLICABLE, f"measured gamma {gamma_k} of subsystem {k} is not below 1")
        report.params[f"delta_{k}"] = delta_k
        report.params[f"gamma_{k}"] = gamma_k

        if scenario.m == 1 and joint.fault is None and joint.stop_tol is None:
            alone = joint
        else:
            alone = run(subsystem_scenario(scenario, k, followers_k)[0], horizon, stop_tol=None)
        dists = distances_to(alone.final_state.opinions, g)  # a subsystem's agents are its members in id order
        for new, orig in enumerate(members.tolist()):
            report.records.append(
                StepRecord(alone.horizon, f"standalone agent {orig}", float(dists[new]), consensus_tol)
            )
        joint_dists = distances_to(final_joint[members], g)
        for pos, i in enumerate(members.tolist()):
            report.records.append(
                StepRecord(horizon, f"joint agent {i}", float(joint_dists[pos]), consensus_tol)
            )
    return report
