"""Time-varying mixing degrees.

A schedule maps (agent id, time step) to a degree in [0, 1]. Schedules are
pure functions of their arguments: the same query always returns the same
value, which is what makes trajectories reproducible at any thread count.

``at`` takes one agent id or an int array of ids. For an array it returns a
value that broadcasts to the array's shape (a scalar for agent-independent
kinds) and equals the scalar query of each id, so one call per step serves
every agent a schedule covers. ``at_steps`` takes an int array of ids and one
of steps and returns their (steps, ids) table, row i equal to ``at(ids,
ts[i])`` bit for bit. The base class asks ``at`` once per step;
``seeded_random`` draws the whole table in one call, and a remapping maps
its ids first. ``tabled`` says which schedules a run may table ahead of its
steps: the built-in kinds and remappings of them. Any other schedule is
asked with ``at`` at each step, so its calls and errors come at that step.

``KINDS`` lists the built-in kinds, which a scenario file names by their
``kind``; each takes the spec keys of its fields. ``beta_sums`` is the one
rule for adding a follower's betas: left to right, by the engine, the
checks and the load-time test of their peaks alike.

Built-in kinds:

* ``constant``        fixed value for all agents and times
* ``table``           explicit per-time values, held at the final entry
* ``geometric_decay`` ``initial * ratio**t`` clamped to [0, 1]
* ``seeded_random``   stateless draw in [low, high] keyed by (seed, agent, t)
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .seeding import unit_uniform


class Schedule:
    """Base class for degree schedules.

    A schedule needs only ``at``. The built-in kinds are dataclasses that
    inherit ``to_spec``. ``peak``, which the load-time beta-sum check reads,
    is ``at`` of agent 0 here, right for every kind whose degree depends only
    on the step; ``seeded_random`` gives its own. A remapping inherits this
    ``peak`` too, but it is never read: subsystems are only run.
    """

    kind = "abstract"

    def at(self, agent, t: int):
        """Degree for ``agent`` (an id or an int array of ids) at step ``t``;
        always in [0, 1], broadcasting to the shape of ``agent``."""
        raise NotImplementedError

    def at_steps(self, ids: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """The (len(ts), len(ids)) degrees of the int array ``ids`` at the
        int array of steps ``ts``: one ``at`` query per step."""
        rows = [np.broadcast_to(self.at(ids, t), ids.shape) for t in np.asarray(ts).tolist()]
        return np.stack(rows) if rows else np.empty((0, ids.size))

    def peak(self, t: int) -> float:
        """The largest degree ``at`` can return for any agent at step ``t``."""
        return self.at(0, t)

    def to_spec(self) -> dict:
        """The scenario-file spec of this schedule: its kind and its fields,
        tuples as lists."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {"kind": self.kind, **{k: list(v) if isinstance(v, tuple) else v for k, v in values.items()}}


@dataclass(frozen=True)
class Constant(Schedule):
    value: float

    kind = "constant"

    def at(self, agent, t: int):
        return self.value


@dataclass(frozen=True)
class Table(Schedule):
    """Explicit values per step; queries past the end return the last entry."""

    values: tuple[float, ...]

    kind = "table"

    def at(self, agent, t: int):
        return self.values[min(t, len(self.values) - 1)]


@dataclass(frozen=True)
class GeometricDecay(Schedule):
    initial: float
    ratio: float

    kind = "geometric_decay"

    def at(self, agent, t: int):
        return min(1.0, max(0.0, self.initial * self.ratio**t))


@dataclass(frozen=True)
class SeededRandom(Schedule):
    """Deterministic pseudo-random degrees in [low, high]."""

    seed: int
    low: float
    high: float

    kind = "seeded_random"

    def at(self, agent, t: int):
        return self.low + (self.high - self.low) * unit_uniform(self.seed, agent, t)

    def at_steps(self, ids, ts):
        draws = unit_uniform(self.seed, np.asarray(ids)[None, :], np.asarray(ts, dtype=np.int64)[:, None])
        return self.low + (self.high - self.low) * draws

    def peak(self, t: int) -> float:
        return self.high


@dataclass(frozen=True, eq=False)
class RemappedAgents(Schedule):
    """Internal wrapper: query an inner schedule under an agent-id relabeling.

    Used when a subsystem is extracted from a larger scenario so that
    agent-keyed draws keep their original streams; ``original_ids[new]`` is
    the original id of agent ``new``. Subsystems are only run, so it has
    only ``at`` and ``at_steps``; the ``peak`` it inherits is never read.
    """

    inner: Schedule
    original_ids: np.ndarray

    kind = "remapped"

    def at(self, agent, t: int):
        return self.inner.at(self.original_ids[agent], t)

    def at_steps(self, ids, ts):
        return self.inner.at_steps(self.original_ids[ids], ts)


KINDS = (Constant, Table, GeometricDecay, SeededRandom)


def tabled(schedule) -> bool:
    """Whether a run may table ``schedule`` with ``at_steps`` ahead of its
    steps: a built-in kind, or a remapping of one."""
    while type(schedule) is RemappedAgents:
        schedule = schedule.inner
    return type(schedule) in KINDS


def beta_sums(betas: np.ndarray) -> np.ndarray:
    """Sums over the last axis, added left to right from 0.0;
    ``betas.sum(axis=-1)`` adds pairwise and differs from it once m >= 8, and
    Python's ``sum`` compensates its float sums from 3.12 on."""
    total = np.zeros(betas.shape[:-1])
    for k in range(betas.shape[-1]):
        total += betas[..., k]
    return total
