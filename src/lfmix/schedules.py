"""Time-varying mixing degrees.

A schedule maps (agent id, time step) to a degree in [0, 1]. Schedules are
pure functions of their arguments: the same query always returns the same
value, which is what makes trajectories reproducible at any thread count.

``at`` takes one agent id or an int array of ids. For an array it returns a
value that broadcasts to the array's shape (a scalar for agent-independent
kinds) and equals the scalar query of each id, so one call per step serves
every agent a schedule covers.

Built-in kinds:

* ``constant``        fixed value for all agents and times
* ``table``           explicit per-time values, held at the final entry
* ``geometric_decay`` ``initial * ratio**t`` clamped to [0, 1]
* ``seeded_random``   stateless draw in [low, high] keyed by (seed, agent, t)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .seeding import unit_uniform


class Schedule:
    """Base class for degree schedules."""

    kind = "abstract"

    def at(self, agent, t: int):
        """Degree for ``agent`` (an id or an int array of ids) at step ``t``;
        always in [0, 1], broadcasting to the shape of ``agent``."""
        raise NotImplementedError

    def upper_bound(self) -> float:
        """Supremum of ``at`` over all agents and times."""
        raise NotImplementedError

    def exact_at(self, t: int) -> float | None:
        """Agent-independent value at ``t``, or None if agent-dependent."""
        return None

    def to_spec(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class Constant(Schedule):
    value: float

    kind = "constant"

    def at(self, agent, t: int):
        return self.value

    def upper_bound(self) -> float:
        return self.value

    def exact_at(self, t: int) -> float | None:
        return self.value

    def to_spec(self) -> dict:
        return {"kind": "constant", "value": self.value}


@dataclass(frozen=True)
class Table(Schedule):
    """Explicit values per step; queries past the end return the last entry."""

    values: tuple[float, ...]

    kind = "table"

    def at(self, agent, t: int):
        return self.values[min(t, len(self.values) - 1)]

    def upper_bound(self) -> float:
        return max(self.values)

    def exact_at(self, t: int) -> float | None:
        return self.values[min(t, len(self.values) - 1)]

    def to_spec(self) -> dict:
        return {"kind": "table", "values": list(self.values)}


@dataclass(frozen=True)
class GeometricDecay(Schedule):
    initial: float
    ratio: float

    kind = "geometric_decay"

    def at(self, agent, t: int):
        return min(1.0, max(0.0, self.initial * self.ratio**t))

    def upper_bound(self) -> float:
        # ratio is validated to [0, 1], so the peak is at t = 0
        return min(1.0, max(0.0, self.initial))

    def exact_at(self, t: int) -> float | None:
        return self.at(0, t)

    def to_spec(self) -> dict:
        return {"kind": "geometric_decay", "initial": self.initial, "ratio": self.ratio}


@dataclass(frozen=True)
class SeededRandom(Schedule):
    """Deterministic pseudo-random degrees in [low, high]."""

    seed: int
    low: float
    high: float

    kind = "seeded_random"

    def at(self, agent, t: int):
        return self.low + (self.high - self.low) * unit_uniform(self.seed, agent, t)

    def upper_bound(self) -> float:
        return self.high

    def to_spec(self) -> dict:
        return {"kind": "seeded_random", "seed": self.seed, "low": self.low, "high": self.high}


@dataclass(frozen=True, eq=False)
class RemappedAgents(Schedule):
    """Internal wrapper: query an inner schedule under an agent-id relabeling.

    Used when a subsystem is extracted from a larger scenario so that
    agent-keyed draws keep their original streams; ``original_ids[new]`` is
    the original id of agent ``new``. Not serializable.
    """

    inner: Schedule
    original_ids: np.ndarray

    kind = "remapped"

    def at(self, agent, t: int):
        return self.inner.at(self.original_ids[agent], t)

    def upper_bound(self) -> float:
        return self.inner.upper_bound()

    def exact_at(self, t: int) -> float | None:
        return self.inner.exact_at(t)

    def to_spec(self) -> dict:
        raise TypeError("remapped schedules are internal and not serializable")
