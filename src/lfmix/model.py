"""Domain types and scenario construction.

A scenario describes a finite set of agents with opinions in R^d, partitioned
into one follower group and m leader groups. Two agents are neighbors when
their opinions are at most epsilon apart (Euclidean norm, ties count). Each
leader group has a fixed target opinion; mixing degrees are given by pure
time schedules. All types are immutable after construction.

Scenario configs are JSON-shaped dicts with top-level keys::

    dimension         positive int
    epsilon           positive float, same units as opinion coordinates
    groups            list of {name, kind: "follower"|"leader",
                      members: count or explicit id list,
                      target: [d floats] (leader groups only)}
    initial_opinions  {"explicit": N x d matrix} or
                      {"random": {"distribution": "uniform_box",
                                  "low", "high", "seed"}}
    schedules         per group name: {"alpha": spec} for leader groups,
                      {"betas": [spec per leader group]} for the follower
                      group, optional {"per_agent": {id: {...}}} overrides
    engine            {"neighbor_strategy": "naive"|"grid"|"auto",
                       "horizon", "stop": {"tol", "window"}, "grid_dim_cap"}
                      neighbor_strategy and grid_dim_cap are validated and
                      kept in the canonical form but select nothing; the
                      engine's neighbor search is exact either way.

``build_scenario`` validates everything and either returns a ``Scenario`` or
raises ``ScenarioValidationError`` carrying the full list of issues; no other
exception escapes, however malformed the input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from . import schedules as sched
from .errors import (
    BAD_CONFIG,
    BETA_SUM_EXCEEDS_ONE,
    DEGREE_OUT_OF_RANGE,
    DIMENSION_MISMATCH,
    EPSILON_NONPOSITIVE,
    MISSING_SCHEDULE,
    NON_FINITE,
    PARTITION_INCOMPLETE,
    ScenarioValidationError,
    ValidationIssue,
)
from .seeding import unit_uniform

FOLLOWER = "follower"
LEADER = "leader"

_EMPTY_IDS = np.empty(0, dtype=np.int64)
_EMPTY_IDS.flags.writeable = False


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Partition:
    """Disjoint assignment of agents 0..N-1 to the follower and leader groups."""

    group_of: np.ndarray  # (N,) codes: 0 follower, k = leader group k
    follower_ids: np.ndarray
    leader_ids: tuple[np.ndarray, ...]  # one sorted array per leader group
    leader_names: tuple[str, ...]
    follower_name: str | None

    @property
    def n_agents(self) -> int:
        return int(self.group_of.shape[0])

    @property
    def m(self) -> int:
        return len(self.leader_ids)

    def group_name_of(self, agent: int) -> str:
        code = int(self.group_of[agent])
        if code == 0:
            return self.follower_name if self.follower_name is not None else FOLLOWER
        return self.leader_names[code - 1]


@dataclass(frozen=True)
class SystemState:
    """Opinions of all agents at one time step."""

    t: int
    opinions: np.ndarray  # (N, d) float64, read-only

    def __post_init__(self):
        arr = np.ascontiguousarray(self.opinions, dtype=np.float64)
        object.__setattr__(self, "opinions", _frozen(arr))

    @property
    def n_agents(self) -> int:
        return int(self.opinions.shape[0])

    @property
    def dimension(self) -> int:
        return int(self.opinions.shape[1])


@dataclass(frozen=True)
class EngineOptions:
    neighbor_strategy: str = "auto"  # "naive" | "grid" | "auto"; kept, selects nothing
    horizon: int = 1000
    stop_tol: float | None = None
    stop_window: int = 1
    grid_dim_cap: int = 6  # kept, selects nothing


@dataclass(frozen=True)
class Scenario:
    """Immutable problem instance: partition, targets, schedules, options.

    ``alphas`` holds ``(schedule, ids)`` blocks: the degree schedule of the
    leader agents ``ids``. ``betas`` holds ``(schedules, ids)`` blocks: the
    m-tuple of leader-mix schedules of the follower agents ``ids``. Every
    leader is in exactly one alpha block and every follower, when m >= 1, in
    exactly one beta block; ids are sorted int64 arrays. ``canonical`` is the
    normalized config dict this scenario round-trips through.
    """

    dimension: int
    epsilon: float
    partition: Partition
    targets: np.ndarray  # (m, d)
    initial_state: SystemState
    alphas: tuple
    betas: tuple
    engine: EngineOptions = EngineOptions()
    base_seed: int = 0
    canonical: dict = field(default_factory=dict, repr=False)

    @property
    def n_agents(self) -> int:
        return self.partition.n_agents

    @property
    def m(self) -> int:
        return self.partition.m

    def target(self, k: int) -> np.ndarray:
        """Target opinion of leader group k (1-based)."""
        return self.targets[k - 1]


# ---------------------------------------------------------------------------
# Scenario construction and validation
# ---------------------------------------------------------------------------


class _Issues:
    def __init__(self):
        self.items: list[ValidationIssue] = []

    def add(self, kind: str, message: str):
        self.items.append(ValidationIssue(kind, message))

    def __bool__(self):
        return bool(self.items)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _check_keys(d: dict, allowed: set, where: str, issues: _Issues):
    for key in d:
        if key not in allowed:
            issues.add(BAD_CONFIG, f"{where}: unknown key {key!r}")


def _parse_schedule(spec, where: str, issues: _Issues) -> sched.Schedule | None:
    if not isinstance(spec, dict):
        issues.add(BAD_CONFIG, f"{where}: schedule spec must be an object")
        return None
    kind = spec.get("kind")
    if kind == "constant":
        _check_keys(spec, {"kind", "value"}, where, issues)
        v = spec.get("value")
        if not _is_number(v) or not math.isfinite(v):
            issues.add(BAD_CONFIG, f"{where}: constant schedule needs a finite 'value'")
            return None
        if not 0.0 <= v <= 1.0:
            issues.add(DEGREE_OUT_OF_RANGE, f"{where}: constant value {v} outside [0, 1]")
            return None
        return sched.Constant(float(v))
    if kind == "table":
        _check_keys(spec, {"kind", "values"}, where, issues)
        vals = spec.get("values")
        if not isinstance(vals, list) or not vals or not all(_is_number(v) for v in vals):
            issues.add(BAD_CONFIG, f"{where}: table schedule needs a nonempty list 'values'")
            return None
        if any(not math.isfinite(v) or not 0.0 <= v <= 1.0 for v in vals):
            issues.add(DEGREE_OUT_OF_RANGE, f"{where}: table values must lie in [0, 1]")
            return None
        return sched.Table(tuple(float(v) for v in vals))
    if kind == "geometric_decay":
        _check_keys(spec, {"kind", "initial", "ratio"}, where, issues)
        a, r = spec.get("initial"), spec.get("ratio")
        if not (_is_number(a) and _is_number(r)):
            issues.add(BAD_CONFIG, f"{where}: geometric_decay needs numbers 'initial' and 'ratio'")
            return None
        if not (math.isfinite(a) and 0.0 <= a <= 1.0):
            issues.add(DEGREE_OUT_OF_RANGE, f"{where}: initial {a} outside [0, 1]")
            return None
        if not (math.isfinite(r) and 0.0 <= r <= 1.0):
            issues.add(DEGREE_OUT_OF_RANGE, f"{where}: ratio {r} outside [0, 1]")
            return None
        return sched.GeometricDecay(float(a), float(r))
    if kind == "seeded_random":
        _check_keys(spec, {"kind", "seed", "low", "high"}, where, issues)
        s, lo, hi = spec.get("seed"), spec.get("low"), spec.get("high")
        if not _is_int(s):
            issues.add(BAD_CONFIG, f"{where}: seeded_random needs an integer 'seed'")
            return None
        if not (_is_number(lo) and _is_number(hi)) or not (math.isfinite(lo) and math.isfinite(hi)):
            issues.add(BAD_CONFIG, f"{where}: seeded_random needs finite 'low' and 'high'")
            return None
        if not (0.0 <= lo <= hi <= 1.0):
            issues.add(DEGREE_OUT_OF_RANGE, f"{where}: interval [{lo}, {hi}] not inside [0, 1]")
            return None
        return sched.SeededRandom(int(s), float(lo), float(hi))
    issues.add(BAD_CONFIG, f"{where}: unknown schedule kind {kind!r}")
    return None


def _beta_sum_violation(betas: Sequence[sched.Schedule]) -> float | None:
    """Largest achievable sum over leader groups if it can exceed 1, else None.

    Agent-independent kinds are evaluated exactly per step; seeded_random
    contributes its upper bound (which its draws approach). All kinds are
    nonincreasing past the longest table, so a finite scan is exhaustive.
    """
    if not betas:
        return None
    horizon = 1
    for b in betas:
        if isinstance(b, sched.Table):
            horizon = max(horizon, len(b.values))
    worst = 0.0
    for t in range(horizon):
        total = 0.0
        for b in betas:
            v = b.exact_at(t)
            total += b.upper_bound() if v is None else v
        worst = max(worst, total)
    return worst if worst > 1.0 else None


def _parse_groups(raw_groups, issues: _Issues):
    """Returns (entries, n_agents) where each entry is a dict with resolved ids."""
    if not isinstance(raw_groups, list) or not raw_groups:
        issues.add(BAD_CONFIG, "groups: must be a nonempty list")
        return None, 0
    entries = []
    names = set()
    follower_count = 0
    uses_counts = uses_ids = False
    for gi, g in enumerate(raw_groups):
        where = f"groups[{gi}]"
        if not isinstance(g, dict):
            issues.add(BAD_CONFIG, f"{where}: must be an object")
            return None, 0
        _check_keys(g, {"name", "kind", "members", "target"}, where, issues)
        name = g.get("name")
        if not isinstance(name, str) or not name:
            issues.add(BAD_CONFIG, f"{where}: needs a nonempty string 'name'")
            return None, 0
        if name in names:
            issues.add(PARTITION_INCOMPLETE, f"duplicate group name {name!r}")
        names.add(name)
        kind = g.get("kind")
        if kind not in (FOLLOWER, LEADER):
            issues.add(BAD_CONFIG, f"{where}: kind must be 'follower' or 'leader'")
            return None, 0
        if kind == FOLLOWER:
            follower_count += 1
            if "target" in g:
                issues.add(BAD_CONFIG, f"{where}: follower group cannot have a target")
        members = g.get("members")
        if _is_int(members) and members >= 0:
            uses_counts = True
            entry_members = members
        elif isinstance(members, list) and all(_is_int(i) and i >= 0 for i in members):
            uses_ids = True
            entry_members = list(members)
        else:
            issues.add(BAD_CONFIG, f"{where}: members must be a count or a list of ids")
            return None, 0
        entries.append({"name": name, "kind": kind, "members": entry_members, "target": g.get("target")})
    if follower_count > 1:
        issues.add(PARTITION_INCOMPLETE, "at most one follower group is allowed")
        return None, 0
    if uses_counts and uses_ids:
        issues.add(PARTITION_INCOMPLETE, "groups must all use counts or all use explicit id lists")
        return None, 0

    if uses_counts or not uses_ids:
        next_id = 0
        for e in entries:
            count = e["members"]
            e["ids"] = list(range(next_id, next_id + count))
            next_id += count
        n = next_id
    else:
        seen: set[int] = set()
        for e in entries:
            for i in e["members"]:
                if i in seen:
                    issues.add(PARTITION_INCOMPLETE, f"agent {i} assigned to more than one group")
                seen.add(i)
            e["ids"] = sorted(e["members"])
        n = len(seen)
        if seen and seen != set(range(max(seen) + 1)):
            issues.add(PARTITION_INCOMPLETE, "explicit ids must cover 0..N-1 with no gaps")

    if n == 0:
        issues.add(PARTITION_INCOMPLETE, "scenario has no agents")
        return None, 0
    for e in entries:
        if e["kind"] == LEADER and not e["ids"]:
            issues.add(PARTITION_INCOMPLETE, f"leader group {e['name']!r} is empty")
    return entries, n


def _parse_target(target, d: int, name: str, issues: _Issues) -> np.ndarray | None:
    if target is None:
        issues.add(BAD_CONFIG, f"leader group {name!r} needs a 'target'")
        return None
    if not isinstance(target, list) or not all(_is_number(v) for v in target):
        issues.add(BAD_CONFIG, f"leader group {name!r}: target must be a list of numbers")
        return None
    if len(target) != d:
        issues.add(DIMENSION_MISMATCH, f"leader group {name!r}: target has length {len(target)}, expected {d}")
        return None
    if any(not math.isfinite(v) for v in target):
        issues.add(NON_FINITE, f"leader group {name!r}: target has non-finite coordinates")
        return None
    return np.asarray(target, dtype=np.float64)


def _broadcast_bounds(value, d: int, what: str, issues: _Issues) -> list[float] | None:
    if _is_number(value) and math.isfinite(value):
        return [float(value)] * d
    if (
        isinstance(value, list)
        and len(value) == d
        and all(_is_number(v) and math.isfinite(v) for v in value)
    ):
        return [float(v) for v in value]
    issues.add(BAD_CONFIG, f"initial_opinions.random: {what} must be a finite number or list of {d} numbers")
    return None


def _parse_initial(raw, n: int, d: int, issues: _Issues):
    """Returns (opinions array, normalized spec, base_seed)."""
    if not isinstance(raw, dict) or len(raw) != 1:
        issues.add(BAD_CONFIG, "initial_opinions: must be {'explicit': ...} or {'random': ...}")
        return None, None, 0
    if "explicit" in raw:
        matrix = raw["explicit"]
        if (
            not isinstance(matrix, list)
            or len(matrix) != n
            or not all(isinstance(row, list) and len(row) == d for row in matrix)
        ):
            issues.add(DIMENSION_MISMATCH, f"initial_opinions.explicit: need an {n} x {d} matrix")
            return None, None, 0
        if not all(_is_number(v) for row in matrix for v in row):
            issues.add(BAD_CONFIG, "initial_opinions.explicit: entries must be numbers")
            return None, None, 0
        arr = np.asarray(matrix, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            issues.add(NON_FINITE, "initial_opinions.explicit: entries must be finite")
            return None, None, 0
        return arr, {"explicit": [[float(v) for v in row] for row in matrix]}, 0
    if "random" in raw:
        spec = raw["random"]
        if not isinstance(spec, dict):
            issues.add(BAD_CONFIG, "initial_opinions.random: must be an object")
            return None, None, 0
        _check_keys(spec, {"distribution", "low", "high", "seed"}, "initial_opinions.random", issues)
        if spec.get("distribution") != "uniform_box":
            issues.add(BAD_CONFIG, "initial_opinions.random: only 'uniform_box' is supported")
            return None, None, 0
        low = _broadcast_bounds(spec.get("low"), d, "low", issues)
        high = _broadcast_bounds(spec.get("high"), d, "high", issues)
        seed = spec.get("seed")
        if not _is_int(seed):
            issues.add(BAD_CONFIG, "initial_opinions.random: needs an integer 'seed'")
            return None, None, 0
        if low is None or high is None:
            return None, None, 0
        if any(lo > hi for lo, hi in zip(low, high)):
            issues.add(BAD_CONFIG, "initial_opinions.random: low must not exceed high")
            return None, None, 0
        arr = low + np.subtract(high, low) * unit_uniform(seed, np.arange(n)[:, None], np.arange(d))
        norm = {"random": {"distribution": "uniform_box", "low": low, "high": high, "seed": int(seed)}}
        return arr, norm, int(seed)
    issues.add(BAD_CONFIG, "initial_opinions: must be {'explicit': ...} or {'random': ...}")
    return None, None, 0


def _parse_engine(raw, issues: _Issues) -> EngineOptions:
    if raw is None:
        return EngineOptions()
    if not isinstance(raw, dict):
        issues.add(BAD_CONFIG, "engine: must be an object")
        return EngineOptions()
    _check_keys(raw, {"neighbor_strategy", "horizon", "stop", "grid_dim_cap"}, "engine", issues)
    strategy = raw.get("neighbor_strategy", "auto")
    if strategy not in ("naive", "grid", "auto"):
        issues.add(BAD_CONFIG, f"engine: unknown neighbor_strategy {strategy!r}")
        strategy = "auto"
    horizon = raw.get("horizon", 1000)
    if not _is_int(horizon) or horizon < 0:
        issues.add(BAD_CONFIG, "engine: horizon must be a nonnegative integer")
        horizon = 1000
    cap = raw.get("grid_dim_cap", 6)
    if not _is_int(cap) or cap < 1:
        issues.add(BAD_CONFIG, "engine: grid_dim_cap must be a positive integer")
        cap = 6
    stop_tol, stop_window = None, 1
    stop = raw.get("stop")
    if stop is not None:
        if not isinstance(stop, dict):
            issues.add(BAD_CONFIG, "engine.stop: must be an object")
        else:
            _check_keys(stop, {"tol", "window"}, "engine.stop", issues)
            tol = stop.get("tol")
            if tol is not None and (not _is_number(tol) or not math.isfinite(tol) or tol <= 0):
                issues.add(BAD_CONFIG, "engine.stop: tol must be null or a positive number")
                tol = None
            stop_tol = None if tol is None else float(tol)
            window = stop.get("window", 1)
            if not _is_int(window) or window < 1:
                issues.add(BAD_CONFIG, "engine.stop: window must be an integer >= 1")
                window = 1
            stop_window = window
    return EngineOptions(strategy, int(horizon), stop_tol, int(stop_window), int(cap))


def build_scenario(raw: Any) -> Scenario:
    """Validate a raw config dict and construct the immutable scenario.

    Raises ScenarioValidationError listing every violated invariant.
    """
    issues = _Issues()
    if not isinstance(raw, dict):
        issues.add(BAD_CONFIG, "scenario config must be a JSON object")
        raise ScenarioValidationError(issues.items)
    _check_keys(
        raw,
        {"dimension", "epsilon", "groups", "initial_opinions", "schedules", "engine"},
        "scenario",
        issues,
    )

    d = raw.get("dimension")
    if not _is_int(d) or d < 1:
        issues.add(DIMENSION_MISMATCH, f"dimension must be a positive integer, got {d!r}")
        raise ScenarioValidationError(issues.items)

    eps = raw.get("epsilon")
    if not _is_number(eps) or not math.isfinite(eps) or eps <= 0:
        issues.add(EPSILON_NONPOSITIVE, f"epsilon must be a finite positive number, got {eps!r}")

    entries, n = _parse_groups(raw.get("groups"), issues)
    if entries is None:
        raise ScenarioValidationError(issues.items)

    # Partition arrays
    group_of = np.zeros(n, dtype=np.int64)
    leader_entries = [e for e in entries if e["kind"] == LEADER]
    follower_entry = next((e for e in entries if e["kind"] == FOLLOWER), None)
    m = len(leader_entries)
    for k, e in enumerate(leader_entries, start=1):
        for i in e["ids"]:
            if i < n:
                group_of[i] = k

    targets = []
    for e in leader_entries:
        tgt = _parse_target(e.get("target"), d, e["name"], issues)
        targets.append(tgt if tgt is not None else np.zeros(d))

    opinions, initial_norm, base_seed = _parse_initial(raw.get("initial_opinions"), n, d, issues)

    # Schedules
    raw_schedules = raw.get("schedules", {})
    if not isinstance(raw_schedules, dict):
        issues.add(BAD_CONFIG, "schedules: must be an object keyed by group name")
        raw_schedules = {}
    known_names = {e["name"] for e in entries}
    for name in raw_schedules:
        if name not in known_names:
            issues.add(BAD_CONFIG, f"schedules: unknown group {name!r}")

    alphas: list = []  # (schedule, ids) blocks of leaders
    betas: list = []  # (m-tuple of schedules, ids) blocks of followers
    schedules_norm: dict[str, dict] = {}

    def parse_group_entry(entry, spec, where) -> tuple[Any, dict | None]:
        """Parse {'alpha': ...} or {'betas': ...} for one group or agent."""
        if not isinstance(spec, dict):
            issues.add(BAD_CONFIG, f"{where}: must be an object")
            return None, None
        if entry["kind"] == LEADER:
            _check_keys(spec, {"alpha", "per_agent"}, where, issues)
            if "alpha" not in spec:
                issues.add(MISSING_SCHEDULE, f"{where}: leader group needs an 'alpha' schedule")
                return None, None
            alpha = _parse_schedule(spec["alpha"], f"{where}.alpha", issues)
            if alpha is None:
                return None, None
            return alpha, {"alpha": alpha.to_spec()}
        _check_keys(spec, {"betas", "per_agent"}, where, issues)
        raw_betas = spec.get("betas", [] if m == 0 else None)
        if raw_betas is None:
            issues.add(MISSING_SCHEDULE, f"{where}: follower group needs a 'betas' schedule list")
            return None, None
        if isinstance(raw_betas, dict):
            raw_betas = [raw_betas] * m  # broadcast one spec to all leader groups
        if not isinstance(raw_betas, list) or len(raw_betas) != m:
            issues.add(BAD_CONFIG, f"{where}: betas must list one schedule per leader group ({m})")
            return None, None
        parsed = [_parse_schedule(b, f"{where}.betas[{k}]", issues) for k, b in enumerate(raw_betas)]
        if any(b is None for b in parsed):
            return None, None
        worst = _beta_sum_violation(parsed)
        if worst is not None:
            issues.add(BETA_SUM_EXCEEDS_ONE, f"{where}: betas can sum to {worst:.6g} > 1")
            return None, None
        return tuple(parsed), {"betas": [b.to_spec() for b in parsed]}

    for e in entries:
        name = e["name"]
        spec = raw_schedules.get(name)
        if spec is None:
            if e["kind"] == LEADER:
                issues.add(MISSING_SCHEDULE, f"leader group {name!r} has no schedule entry")
            elif m > 0:
                issues.add(MISSING_SCHEDULE, f"follower group {name!r} has no schedule entry")
            else:
                schedules_norm[name] = {"betas": []}
            continue
        base, norm = parse_group_entry(e, spec, f"schedules.{name}")
        if base is None:
            continue
        overrides = spec.get("per_agent") if isinstance(spec, dict) else None
        if overrides is not None:
            if not isinstance(overrides, dict):
                issues.add(BAD_CONFIG, f"schedules.{name}.per_agent: must be an object")
                overrides = None
        norm_overrides = {}
        own: dict[int, Any] = {}  # agent -> its override
        if overrides:
            id_set = set(e["ids"])
            for key, sub in overrides.items():
                try:
                    agent = int(key)
                except (TypeError, ValueError):
                    issues.add(BAD_CONFIG, f"schedules.{name}.per_agent: bad agent id {key!r}")
                    continue
                if agent not in id_set:
                    issues.add(BAD_CONFIG, f"schedules.{name}.per_agent: agent {agent} not in group")
                    continue
                sub_base, sub_norm = parse_group_entry(e, sub, f"schedules.{name}.per_agent[{agent}]")
                if sub_base is None or agent >= n:
                    continue
                own[agent] = sub_base
                norm_overrides[str(agent)] = sub_norm
        ids = np.asarray(e["ids"], dtype=np.int64)
        blocks = [(base, ids[~np.isin(ids, list(own))])]
        blocks += [(s, np.array([i], dtype=np.int64)) for i, s in own.items()]
        (alphas if e["kind"] == LEADER else betas).extend((s, _frozen(b)) for s, b in blocks if b.size)
        if norm is not None:
            if norm_overrides:
                norm = dict(norm, per_agent=norm_overrides)
            schedules_norm[name] = norm

    engine = _parse_engine(raw.get("engine"), issues)

    if issues:
        raise ScenarioValidationError(issues.items)

    partition = Partition(
        group_of=_frozen(group_of),
        follower_ids=_frozen(
            np.asarray(follower_entry["ids"], dtype=np.int64) if follower_entry else _EMPTY_IDS.copy()
        ),
        leader_ids=tuple(_frozen(np.asarray(e["ids"], dtype=np.int64)) for e in leader_entries),
        leader_names=tuple(e["name"] for e in leader_entries),
        follower_name=follower_entry["name"] if follower_entry else None,
    )

    target_matrix = _frozen(
        np.vstack(targets).astype(np.float64) if targets else np.empty((0, d), dtype=np.float64)
    )

    canonical = {
        "dimension": d,
        "epsilon": float(eps),
        "groups": [
            dict(
                {"name": e["name"], "kind": e["kind"], "members": [int(i) for i in e["ids"]]},
                **({"target": [float(v) for v in e["target"]]} if e["kind"] == LEADER else {}),
            )
            for e in entries
        ],
        "initial_opinions": initial_norm,
        "schedules": schedules_norm,
        "engine": {
            "neighbor_strategy": engine.neighbor_strategy,
            "horizon": engine.horizon,
            "stop": {"tol": engine.stop_tol, "window": engine.stop_window},
            "grid_dim_cap": engine.grid_dim_cap,
        },
    }

    return Scenario(
        dimension=d,
        epsilon=float(eps),
        partition=partition,
        targets=target_matrix,
        initial_state=SystemState(0, opinions),
        alphas=tuple(alphas),
        betas=tuple(betas),
        engine=engine,
        base_seed=base_seed,
        canonical=canonical,
    )
