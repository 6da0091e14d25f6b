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
    engine            {"horizon", "stop": {"tol", "window"}}; its keys
                      "neighbor_strategy" ("naive"|"grid"|"auto") and
                      "grid_dim_cap" (positive int) are validated and kept in
                      the canonical form but select nothing

``build_scenario`` validates everything and either returns a ``Scenario`` or
raises ``ScenarioValidationError`` carrying the full list of issues; no other
exception escapes, however malformed the input. Every number must be a finite
JSON number: NaN, Infinity and an integer too large for a float are issues.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field, fields
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


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Partition:
    """Disjoint assignment of agents 0..N-1 to the follower and leader
    groups: its group codes and the groups' names. Every id array is derived
    from the codes once, read-only and sorted, and ``names`` is indexed by
    code."""

    group_of: np.ndarray  # (N,) codes: 0 follower, k = leader group k
    leader_names: tuple[str, ...]
    follower_name: str | None

    @property
    def n_agents(self) -> int:
        return int(self.group_of.shape[0])

    @property
    def m(self) -> int:
        return len(self.leader_names)

    @functools.cached_property
    def follower_ids(self) -> np.ndarray:
        return _frozen(np.flatnonzero(self.group_of == 0))

    @functools.cached_property
    def leader_ids(self) -> tuple[np.ndarray, ...]:
        """One array per leader group."""
        return tuple(_frozen(np.flatnonzero(self.group_of == k)) for k in range(1, self.m + 1))

    @functools.cached_property
    def names(self) -> tuple[str, ...]:
        """Group names by code: 0 the follower group's ("follower" when it
        has none), k leader group k's."""
        return (self.follower_name if self.follower_name is not None else FOLLOWER, *self.leader_names)

    @functools.cached_property
    def ranges(self) -> tuple[np.ndarray | None, np.ndarray]:
        """``(key, bounds)``: group k (0 the followers) holds the agents i whose
        key lies in ``[bounds[k, 0], bounds[k, 1])``. The key is the id itself
        (``key`` is None) where every group is one id range, as member counts
        make them; otherwise it is ``key[i]``, i's rank in the order by
        (group, id)."""
        groups = (self.follower_ids, *self.leader_ids)
        if all(ids.size == 0 or ids[-1] - ids[0] + 1 == ids.size for ids in groups):
            return None, np.array([(ids[0], ids[-1] + 1) if ids.size else (0, 0) for ids in groups])
        ends = np.cumsum([0] + [ids.size for ids in groups])
        key = np.empty(self.n_agents, dtype=np.int32)
        key[np.concatenate(groups)] = np.arange(self.n_agents, dtype=np.int32)
        return key, np.column_stack((ends[:-1], ends[1:]))


@dataclass(frozen=True)
class SystemState:
    """Opinions of all agents at one time step."""

    t: int
    opinions: np.ndarray  # (N, d) float64, read-only

    def __post_init__(self):
        arr = np.ascontiguousarray(self.opinions, dtype=np.float64)
        object.__setattr__(self, "opinions", _frozen(arr))


@dataclass(frozen=True)
class EngineOptions:
    horizon: int = 1000
    stop_tol: float | None = None
    stop_window: int = 1


@dataclass(frozen=True)
class Scenario:
    """Immutable problem instance: partition, targets, schedules, options.

    ``alphas`` holds ``(schedule, ids)`` blocks: the degree schedule of the
    leader agents ``ids``. ``betas`` holds ``(schedules, ids)`` blocks: the
    m-tuple of leader-mix schedules of the follower agents ``ids``. Every
    leader is in exactly one alpha block and every follower, when m >= 1, in
    exactly one beta block; ids are sorted int64 arrays. ``canonical`` is the
    normalized config dict this scenario round-trips through, and the one
    place that holds what only the config says, such as the seed of random
    initial opinions.
    """

    dimension: int
    epsilon: float
    partition: Partition
    targets: np.ndarray  # (m, d)
    initial_state: SystemState
    alphas: tuple
    betas: tuple
    engine: EngineOptions = EngineOptions()
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


# the largest float whose square is finite; the neighbor test compares
# squared distances with epsilon**2
_MAX_EPSILON = math.sqrt(sys.float_info.max)


def _finite(x) -> float | None:
    """A raw JSON number as a finite float, else None. A bool is not a number,
    and an int too large for a float counts as infinite."""
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        return None
    try:
        v = float(x)
    except OverflowError:
        return None
    return v if math.isfinite(v) else None


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _check_keys(d: dict, allowed: set, where: str, issues: _Issues):
    for key in d:
        if key not in allowed:
            issues.add(BAD_CONFIG, f"{where}: unknown key {key!r}")


def _degrees(spec: dict, keys: list, where: str, issues: _Issues) -> dict | None:
    """The degrees under ``keys`` as floats in [0, 1], keyed as a schedule
    takes them, or None after one issue. A table's one key holds a list."""
    raw = spec.get("values") if spec["kind"] == "table" else [spec.get(k) for k in keys]
    vals = [_finite(v) for v in raw] if isinstance(raw, list) and raw else [None]
    names = " and ".join(repr(k) for k in keys)
    if None in vals:
        issues.add(BAD_CONFIG, f"{where}: {spec['kind']} needs finite numbers {names}")
        return None
    if not all(0.0 <= v <= 1.0 for v in vals):
        issues.add(DEGREE_OUT_OF_RANGE, f"{where}: {spec['kind']} {names} must lie in [0, 1]")
        return None
    return {"values": tuple(vals)} if spec["kind"] == "table" else dict(zip(keys, vals))


def _parse_schedule(spec, where: str, issues: _Issues) -> sched.Schedule | None:
    """A schedule of one of ``schedules.KINDS``, its spec keys its fields:
    a ``seed`` integer, the rest degrees."""
    if not isinstance(spec, dict):
        issues.add(BAD_CONFIG, f"{where}: schedule spec must be an object")
        return None
    kind = spec.get("kind")
    cls = next((c for c in sched.KINDS if c.kind == kind), None)
    if cls is None:
        issues.add(BAD_CONFIG, f"{where}: unknown schedule kind {kind!r}")
        return None
    keys = [f.name for f in fields(cls)]
    _check_keys(spec, {"kind", *keys}, where, issues)
    seed = {"seed": spec.get("seed")} if "seed" in keys else {}
    if seed and not _is_int(seed["seed"]):
        issues.add(BAD_CONFIG, f"{where}: {kind} needs an integer 'seed'")
        return None
    degrees = _degrees(spec, [k for k in keys if k != "seed"], where, issues)
    if degrees is None:
        return None
    if "low" in degrees and degrees["low"] > degrees["high"]:
        issues.add(DEGREE_OUT_OF_RANGE, f"{where}: {kind} low {degrees['low']} exceeds high {degrees['high']}")
        return None
    return cls(**seed, **degrees)


def _beta_sum_violation(betas: Sequence[sched.Schedule]) -> float | None:
    """Largest sum of the betas' peaks over one step if it exceeds 1, else None.

    Every kind's peak is nonincreasing past the longest table, so a scan to
    its end is exhaustive. Peaks add by ``schedules.beta_sums``, as the engine
    adds the betas, so a verdict at 1 is the engine's.
    """
    steps = max((len(b.values) for b in betas if isinstance(b, sched.Table)), default=1)
    worst = float(sched.beta_sums(np.array([[b.peak(t) for b in betas] for t in range(steps)])).max())
    return worst if worst > 1.0 else None


def _parse_groups(raw_groups, explicit_rows: int | None, issues: _Issues):
    """Returns (entries, n_agents) where each entry is a dict with its sorted
    int64 ``ids``. Member counts are checked against ``explicit_rows``, the
    row count of an explicit opinion matrix, before any id is allocated."""
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
        if _is_int(members) and 0 <= members <= sys.maxsize:  # a count a list can hold
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

    if uses_ids:
        seen: set[int] = set()
        for e in entries:
            for i in e["members"]:
                if i in seen:
                    issues.add(PARTITION_INCOMPLETE, f"agent {i} assigned to more than one group")
                seen.add(i)
        n = len(seen)
        # distinct ids >= 0 cover 0..max exactly when there are max + 1 of them
        if seen and len(seen) != max(seen) + 1:
            issues.add(PARTITION_INCOMPLETE, "explicit ids must cover 0..N-1 with no gaps")
            return None, 0  # an id past N - 1 may not even fit an int64 id array
        for e in entries:
            e["ids"] = np.array(sorted(e["members"]), dtype=np.int64)
    else:
        n = sum(e["members"] for e in entries)
        if n > 2**31 - 1:  # neighbor pairs hold int32 ids
            issues.add(BAD_CONFIG, f"groups: {n} agents, more than the 2147483647 that int32 neighbor ids can number")
            return None, 0
        if explicit_rows is not None and n != explicit_rows:
            issues.add(DIMENSION_MISMATCH,
                       f"initial_opinions.explicit: {explicit_rows} rows, the groups have {n} agents")
            return None, 0
        next_id = 0
        for e in entries:
            e["ids"] = np.arange(next_id, next_id + e["members"], dtype=np.int64)
            next_id += e["members"]

    if n == 0:
        issues.add(PARTITION_INCOMPLETE, "scenario has no agents")
        return None, 0
    for e in entries:
        if e["kind"] == LEADER and not e["ids"].size:
            issues.add(PARTITION_INCOMPLETE, f"leader group {e['name']!r} is empty")
    return entries, n


def _parse_target(target, d: int, name: str, issues: _Issues) -> np.ndarray | None:
    if target is None:
        issues.add(BAD_CONFIG, f"leader group {name!r} needs a 'target'")
        return None
    if not isinstance(target, list) or not all(_is_int(v) or isinstance(v, float) for v in target):
        issues.add(BAD_CONFIG, f"leader group {name!r}: target must be a list of numbers")
        return None
    if len(target) != d:
        issues.add(DIMENSION_MISMATCH, f"leader group {name!r}: target has length {len(target)}, expected {d}")
        return None
    coords = [_finite(v) for v in target]
    if None in coords:
        issues.add(NON_FINITE, f"leader group {name!r}: target has non-finite coordinates")
        return None
    return np.asarray(coords, dtype=np.float64)


def _broadcast_bounds(value, d: int, what: str, issues: _Issues) -> list[float] | None:
    bounds = [_finite(v) for v in value] if isinstance(value, list) and len(value) == d else [_finite(value)] * d
    if None not in bounds:
        return bounds
    issues.add(BAD_CONFIG, f"initial_opinions.random: {what} must be a finite number or list of {d} numbers")
    return None


def _parse_initial(raw, n: int, d: int, issues: _Issues):
    """Returns (opinions array, normalized spec)."""
    if not isinstance(raw, dict) or len(raw) != 1 or not raw.keys() <= {"explicit", "random"}:
        issues.add(BAD_CONFIG, "initial_opinions: must be {'explicit': ...} or {'random': ...}")
        return None, None
    if "explicit" in raw:
        matrix = raw["explicit"]
        if (
            not isinstance(matrix, list)
            or len(matrix) != n
            or not all(isinstance(row, list) and len(row) == d for row in matrix)
        ):
            issues.add(DIMENSION_MISMATCH, f"initial_opinions.explicit: need {n} rows of {d} numbers")
            return None, None
        if not all(_is_int(v) or isinstance(v, float) for row in matrix for v in row):
            issues.add(BAD_CONFIG, "initial_opinions.explicit: entries must be numbers")
            return None, None
        rows = [[_finite(v) for v in row] for row in matrix]
        if any(None in row for row in rows):
            issues.add(NON_FINITE, "initial_opinions.explicit: entries must be finite")
            return None, None
        return np.array(rows, dtype=np.float64), {"explicit": rows}
    spec = raw["random"]
    if not isinstance(spec, dict):
        issues.add(BAD_CONFIG, "initial_opinions.random: must be an object")
        return None, None
    _check_keys(spec, {"distribution", "low", "high", "seed"}, "initial_opinions.random", issues)
    if spec.get("distribution") != "uniform_box":
        issues.add(BAD_CONFIG, "initial_opinions.random: only 'uniform_box' is supported")
        return None, None
    if n * d > 2**31 - 1:  # the agent bound, for coordinates: one state of them is 16 GiB
        issues.add(BAD_CONFIG,
                   f"initial_opinions.random: {n} agents x {d} dimensions, more than 2147483647 coordinates")
        return None, None
    low = _broadcast_bounds(spec.get("low"), d, "low", issues)
    high = _broadcast_bounds(spec.get("high"), d, "high", issues)
    seed = spec.get("seed")
    if not _is_int(seed):
        issues.add(BAD_CONFIG, "initial_opinions.random: needs an integer 'seed'")
        return None, None
    if low is None or high is None:
        return None, None
    if any(lo > hi for lo, hi in zip(low, high)):
        issues.add(BAD_CONFIG, "initial_opinions.random: low must not exceed high")
        return None, None
    arr = low + np.subtract(high, low) * unit_uniform(seed, np.arange(n)[:, None], np.arange(d))
    norm = {"random": {"distribution": "uniform_box", "low": low, "high": high, "seed": int(seed)}}
    return arr, norm


def _parse_engine(raw, issues: _Issues) -> tuple[EngineOptions, dict]:
    """The engine options and their canonical dict. ``neighbor_strategy`` and
    ``grid_dim_cap`` select nothing: they are validated and written back only
    so that canonical files keep their bytes."""
    if raw is None:
        raw = {}
    elif not isinstance(raw, dict):
        issues.add(BAD_CONFIG, "engine: must be an object")
        raw = {}
    _check_keys(raw, {"neighbor_strategy", "horizon", "stop", "grid_dim_cap"}, "engine", issues)
    strategy = raw.get("neighbor_strategy", "auto")
    if strategy not in ("naive", "grid", "auto"):
        issues.add(BAD_CONFIG, f"engine: unknown neighbor_strategy {strategy!r}")
        strategy = "auto"
    default = EngineOptions()
    horizon = raw.get("horizon", default.horizon)
    if not _is_int(horizon) or horizon < 0:
        issues.add(BAD_CONFIG, "engine: horizon must be a nonnegative integer")
        horizon = default.horizon
    cap = raw.get("grid_dim_cap", 6)
    if not _is_int(cap) or cap < 1:
        issues.add(BAD_CONFIG, "engine: grid_dim_cap must be a positive integer")
        cap = 6
    stop_tol, stop_window = None, default.stop_window
    stop = raw.get("stop")
    if stop is not None:
        if not isinstance(stop, dict):
            issues.add(BAD_CONFIG, "engine.stop: must be an object")
        else:
            _check_keys(stop, {"tol", "window"}, "engine.stop", issues)
            tol = stop.get("tol")
            stop_tol = None if tol is None else _finite(tol)
            if tol is not None and (stop_tol is None or stop_tol <= 0):
                issues.add(BAD_CONFIG, "engine.stop: tol must be null or a positive number")
                stop_tol = None
            stop_window = stop.get("window", default.stop_window)
            if not _is_int(stop_window) or stop_window < 1:
                issues.add(BAD_CONFIG, "engine.stop: window must be an integer >= 1")
                stop_window = default.stop_window
    engine = EngineOptions(int(horizon), stop_tol, int(stop_window))
    return engine, {"neighbor_strategy": strategy, "horizon": engine.horizon,
                    "stop": {"tol": stop_tol, "window": engine.stop_window}, "grid_dim_cap": int(cap)}


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
    if not _is_int(d) or not 1 <= d <= sys.maxsize:
        issues.add(DIMENSION_MISMATCH, f"dimension must be an integer in [1, sys.maxsize], got {d!r}")
        raise ScenarioValidationError(issues.items)

    raw_eps = raw.get("epsilon")
    eps = _finite(raw_eps)
    if not (eps is not None and eps > 0 or _is_int(raw_eps) and raw_eps > 0):
        issues.add(EPSILON_NONPOSITIVE, f"epsilon must be a finite positive number, got {raw_eps!r}")
    elif raw_eps > _MAX_EPSILON:  # exact for an int, even one beyond float range
        issues.add(NON_FINITE, f"epsilon {raw_eps!r} is too large: epsilon**2 overflows to inf")

    raw_initial = raw.get("initial_opinions")
    explicit = raw_initial.get("explicit") if isinstance(raw_initial, dict) else None
    entries, n = _parse_groups(raw.get("groups"), len(explicit) if isinstance(explicit, list) else None, issues)
    if entries is None:
        raise ScenarioValidationError(issues.items)

    # Partition arrays
    group_of = np.zeros(n, dtype=np.int64)
    leader_entries = [e for e in entries if e["kind"] == LEADER]
    follower_entry = next((e for e in entries if e["kind"] == FOLLOWER), None)
    m = len(leader_entries)
    for k, e in enumerate(leader_entries, start=1):
        group_of[e["ids"]] = k
        e["code"] = k
    if follower_entry is not None:
        follower_entry["code"] = 0

    targets = [_parse_target(e.get("target"), d, e["name"], issues) for e in leader_entries]  # None means an issue

    opinions, initial_norm = _parse_initial(raw_initial, n, d, issues)

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

    def parse_group_entry(entry, spec, where, keys=("per_agent",)) -> tuple[Any, dict | None]:
        """Parse {'alpha': ...} or {'betas': ...} for one group or agent;
        ``keys`` are the other keys it may hold, none for an agent's override."""
        if not isinstance(spec, dict):
            issues.add(BAD_CONFIG, f"{where}: must be an object")
            return None, None
        if entry["kind"] == LEADER:
            _check_keys(spec, {"alpha", *keys}, where, issues)
            if "alpha" not in spec:
                issues.add(MISSING_SCHEDULE, f"{where}: leader group needs an 'alpha' schedule")
                return None, None
            alpha = _parse_schedule(spec["alpha"], f"{where}.alpha", issues)
            if alpha is None:
                return None, None
            return alpha, {"alpha": alpha.to_spec()}
        _check_keys(spec, {"betas", *keys}, where, issues)
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
        overrides = spec.get("per_agent")
        if overrides is not None:
            if not isinstance(overrides, dict):
                issues.add(BAD_CONFIG, f"schedules.{name}.per_agent: must be an object")
                overrides = None
        norm_overrides = {}
        own: dict[int, Any] = {}  # agent -> its override
        if overrides:
            for key, sub in overrides.items():
                try:
                    agent = int(key)
                except (TypeError, ValueError):
                    agent = None
                if agent is None or str(agent) != key:  # only a plain decimal id, as the canonical form writes it
                    issues.add(BAD_CONFIG, f"schedules.{name}.per_agent: bad agent id {key!r}")
                    continue
                if not (0 <= agent < n and group_of[agent] == e["code"]):
                    issues.add(BAD_CONFIG, f"schedules.{name}.per_agent: agent {agent} not in group")
                    continue
                sub_base, sub_norm = parse_group_entry(e, sub, f"schedules.{name}.per_agent[{agent}]", ())
                if sub_base is None:
                    continue
                own[agent] = sub_base
                norm_overrides[str(agent)] = sub_norm
        ids = e["ids"]
        blocks = [(base, ids[~np.isin(ids, list(own))])]
        blocks += [(s, np.array([i], dtype=np.int64)) for i, s in own.items()]
        (alphas if e["kind"] == LEADER else betas).extend((s, _frozen(b)) for s, b in blocks if b.size)
        if norm_overrides:
            norm = dict(norm, per_agent=norm_overrides)
        schedules_norm[name] = norm

    engine, engine_norm = _parse_engine(raw.get("engine"), issues)

    if issues:
        raise ScenarioValidationError(issues.items)

    partition = Partition(
        group_of=_frozen(group_of),
        leader_names=tuple(e["name"] for e in leader_entries),
        follower_name=follower_entry["name"] if follower_entry else None,
    )

    target_matrix = _frozen(
        np.vstack(targets).astype(np.float64) if targets else np.empty((0, d), dtype=np.float64)
    )

    canonical = {
        "dimension": d,
        "epsilon": eps,
        "groups": [
            dict(
                {"name": e["name"], "kind": e["kind"], "members": e["ids"].tolist()},
                **({"target": [float(v) for v in e["target"]]} if e["kind"] == LEADER else {}),
            )
            for e in entries
        ],
        "initial_opinions": initial_norm,
        "schedules": schedules_norm,
        "engine": engine_norm,
    }

    return Scenario(
        dimension=d,
        epsilon=eps,
        partition=partition,
        targets=target_matrix,
        initial_state=SystemState(0, opinions),
        alphas=tuple(alphas),
        betas=tuple(betas),
        engine=engine,
        canonical=canonical,
    )
