"""Shared scenario builders for the test suite, the per-agent oracles the
package's array code is tested against, and a memory-capped child runner."""

from __future__ import annotations

import csv
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import lfmix
from lfmix import CheckReport, Scenario, Trajectory, build_scenario, compute_neighbors, neighbors, neighbors_naive
from lfmix.analysis import StepRecord, _squared_distances, distances_to
from lfmix.dynamics import realized_alpha


def config(
    *,
    dimension=1,
    epsilon=1.0,
    followers=0,
    leader_groups=(),
    initial=None,
    random_init=None,
    follower_betas=None,
    horizon=50,
    stop_tol=None,
    stop_window=1,
    neighbor_strategy="auto",
    per_agent_betas=None,
) -> dict:
    """Compact scenario dict builder.

    ``leader_groups`` is a list of (name, size, target, alpha_spec);
    ``follower_betas`` is a list of schedule specs (one per leader group).
    """
    groups = []
    schedules = {}
    if followers:
        groups.append({"name": "crowd", "kind": "follower", "members": followers})
        entry = {"betas": follower_betas if follower_betas is not None else []}
        if per_agent_betas:
            entry["per_agent"] = {str(i): {"betas": specs} for i, specs in per_agent_betas.items()}
        schedules["crowd"] = entry
    for name, size, target, alpha_spec in leader_groups:
        groups.append({"name": name, "kind": "leader", "members": size, "target": list(target)})
        schedules[name] = {"alpha": alpha_spec}
    if initial is not None:
        init = {"explicit": [list(row) for row in initial]}
    else:
        init = {"random": random_init or {"distribution": "uniform_box", "low": 0.0, "high": 1.0, "seed": 0}}
    return {
        "dimension": dimension,
        "epsilon": epsilon,
        "groups": groups,
        "initial_opinions": init,
        "schedules": schedules,
        "engine": {
            "neighbor_strategy": neighbor_strategy,
            "horizon": horizon,
            "stop": {"tol": stop_tol, "window": stop_window},
        },
    }


def constant(value: float) -> dict:
    return {"kind": "constant", "value": value}


def scenario(**kwargs) -> Scenario:
    return build_scenario(config(**kwargs))


def random_alpha_spec(rng: np.random.Generator) -> dict:
    """Constant or seeded-random degree in [0, 1]."""
    if rng.random() < 0.5:
        return constant(round(float(rng.uniform(0.0, 1.0)), 6))
    lo = round(float(rng.uniform(0.0, 0.8)), 6)
    hi = round(float(rng.uniform(lo, 1.0)), 6)
    return {"kind": "seeded_random", "seed": int(rng.integers(0, 2**31)), "low": lo, "high": hi}


def random_beta_specs(rng: np.random.Generator, m: int) -> list[dict]:
    """m beta specs whose per-step sums stay below 1."""
    caps = rng.uniform(0.0, 1.0, size=m)
    total = caps.sum()
    if total > 0.9:
        caps = caps * (0.9 / total)
    specs = []
    for cap in caps:
        cap = round(float(cap), 6)
        if rng.random() < 0.5:
            specs.append(constant(cap))
        else:
            lo = round(float(rng.uniform(0.0, cap)), 6)
            specs.append({"kind": "seeded_random", "seed": int(rng.integers(0, 2**31)), "low": lo, "high": cap})
    return specs


def random_mixed_config(
    rng: np.random.Generator,
    *,
    n_followers_hi=20,
    leader_size_hi=6,
    d_lo=1,
    d_hi=5,
    m_hi=4,
    m_lo=1,
    horizon=200,
) -> dict:
    """Randomized mixed scenario within desk-scale bounds."""
    d = int(rng.integers(d_lo, d_hi + 1))
    m = int(rng.integers(m_lo, m_hi + 1))
    n_followers = int(rng.integers(0, n_followers_hi + 1))
    if n_followers == 0 and m == 0:
        n_followers = 2
    leader_groups = []
    for k in range(m):
        size = int(rng.integers(1, leader_size_hi + 1))
        target = [round(float(v), 6) for v in rng.uniform(0.0, 1.0, size=d)]
        leader_groups.append((f"g{k + 1}", size, target, random_alpha_spec(rng)))
    return config(
        dimension=d,
        epsilon=round(float(rng.uniform(0.15, 1.5)), 6),
        followers=n_followers,
        leader_groups=leader_groups,
        random_init={"distribution": "uniform_box", "low": 0.0, "high": 1.0, "seed": int(rng.integers(0, 2**31))},
        follower_betas=random_beta_specs(rng, m) if n_followers else None,
        horizon=horizon,
    )


def pairs_match_naive(sc: Scenario, state=None) -> bool:
    """Whether ``compute_neighbors``, and ``neighbors_grid`` itself whichever
    search the engine's rule picks, give exactly the int32 ``(rows, cols)``
    pairs of ``neighbors_naive``, which come sorted by (row, col)."""
    state = sc.initial_state if state is None else state
    ref_rows, ref_cols = neighbors_naive(state, sc)
    return all(rows.dtype == cols.dtype == ref_rows.dtype == ref_cols.dtype == np.int32
               and np.array_equal(rows, ref_rows) and np.array_equal(cols, ref_cols)
               for rows, cols in (compute_neighbors(state, sc), neighbors.neighbors_grid(state.opinions, sc.epsilon)))


def pairs_oracle(sc: Scenario, state=None) -> list[tuple[int, int]]:
    """Every ordered pair (i, j) with ``np.sum((x_i - x_j) ** 2) <= eps ** 2``,
    tested one pair at a time in (i, j) order: the reference the scan of
    ``neighbors_naive`` is held to."""
    x = (sc.initial_state if state is None else state).opinions
    eps = sc.epsilon
    n = x.shape[0]
    return [(i, j) for i in range(n) for j in range(n) if np.sum((x[i] - x[j]) ** 2) <= eps**2]


def neighbor_sets(sc: Scenario, state=None) -> list[tuple[np.ndarray, tuple[np.ndarray, ...]]]:
    """Every agent's ``neighbors_naive`` pairs split by group: entry i is
    ``(own, leaders)``, the ascending ids of i's neighbors in its own group
    and, for k = 1..m, in leader group k (``leaders[k - 1]``)."""
    state = sc.initial_state if state is None else state
    rows, cols = neighbors_naive(state, sc)
    bounds = np.searchsorted(rows, np.arange(sc.n_agents + 1))
    group_of = sc.partition.group_of
    out = []
    for i in range(sc.n_agents):
        hits = cols[bounds[i]:bounds[i + 1]]
        codes = group_of[hits]
        out.append((hits[codes == group_of[i]], tuple(hits[codes == k] for k in range(1, sc.m + 1))))
    return out


def agent_pairs(pairs) -> tuple[np.ndarray, np.ndarray]:
    """The agent pairs that ``Pairs`` over its classes' representatives
    stand for, sorted by (row, col): two agents are neighbors when their
    classes are."""
    of, r = pairs.classes.of, pairs.classes.reps.size
    linked = np.zeros((r, r), dtype=bool)
    linked[pairs.rows, pairs.cols] = True
    return np.nonzero(linked[np.ix_(of, of)])


def grouping_oracle(sc: Scenario, d: int, rows: np.ndarray, cols: np.ndarray, reps: np.ndarray):
    """``neighbors._grouping`` from one mask per set kind over every pair: the
    sizes of all (1 + m)·R sets, the ``(part, index)`` gather blocks of the
    equal-size sets that copy no other set, the copies as ``(target,
    source)``, and each set's ids, taken in pair order from a copy of the
    cols that carry its kind. Row r is agent ``reps[r]``'s. A set whose ids
    are its group's ids is full; the first full set of each group is
    gathered, and every later one copies it."""
    codes = sc.partition.group_of
    row_group = codes[reps]
    r = row_group.size
    row_code, col_code = row_group[rows], codes[cols]
    sizes, members = [], []
    for k in range(sc.m + 1):
        # an agent's own set holds its own group; a leader's pairs with other groups are not used
        keep = row_code == col_code if k == 0 else (row_code == 0) & (col_code == k)
        sizes.append(np.bincount(rows[keep], minlength=r))
        members.append(cols[keep])
    size = np.concatenate(sizes)
    cols = np.concatenate(members)
    first = np.cumsum(size) - size
    ids = [cols[a:a + k] for a, k in zip(first.tolist(), size.tolist())]
    groups = (sc.partition.follower_ids, *sc.partition.leader_ids)
    set_group = np.concatenate([row_group] + [np.full(r, k) for k in range(1, sc.m + 1)])
    sources, copies = {}, []
    for s, g in enumerate(set_group.tolist()):
        if ids[s].size and np.array_equal(ids[s], groups[g]):
            if g in sources:
                copies.append((s, sources[g]))
            else:
                sources[g] = s
    target, source = np.array(copies, dtype=np.int64).reshape(-1, 2).T
    gathered = size > 0
    gathered[target] = False
    blocks = []
    for k in np.unique(size[gathered]).tolist():
        sets = np.flatnonzero(gathered & (size == k))
        block = neighbors.per_block(k * d)
        for part in np.split(sets, range(block, sets.size, block)):
            at = first[part, None] + np.arange(k) if d == 1 else first[part] + np.arange(k)[:, None]
            blocks.append((part, cols[at]))
    return size, blocks, (target, source), ids


def _mean_rows(x: np.ndarray, ids: np.ndarray, shift: float | None = None) -> np.ndarray:
    mean = np.sum(x[ids], axis=0) / len(ids)
    return mean if shift is None else mean + shift


def leader_update(x: np.ndarray, own: np.ndarray, alpha: float, target: np.ndarray,
                  shift: float | None = None) -> np.ndarray:
    """Next opinion of a leader: the mean of its own-group neighbors ``own``
    mixed with the target. ``shift``, where given, is added to the mean, as
    the mean-shift fault does."""
    return alpha * _mean_rows(x, own, shift) + (1.0 - alpha) * target


def follower_update(x: np.ndarray, own: np.ndarray, leaders, betas, shift: float | None = None) -> np.ndarray:
    """Next opinion of a follower from its follower neighbors ``own`` and its
    group-k leader neighbors ``leaders[k - 1]``; betas toward unreachable
    groups are masked. ``shift``, where given, is added to every mean."""
    masked = tuple(b if leaders[k].size else 0.0 for k, b in enumerate(betas))
    total = 0.0
    for b in masked:
        total += b
    out = (1.0 - total) * _mean_rows(x, own, shift)
    for k, b in enumerate(masked):
        if b != 0.0:
            out = out + b * _mean_rows(x, leaders[k], shift)
    return out


def hk_reference_step(opinions: np.ndarray, epsilon: float) -> np.ndarray:
    """Plain bounded-confidence averaging step, written independently of the
    engine: each agent moves to the mean of all opinions within epsilon,
    summed in ascending id order. The oracle for the engine's no-leader
    reduction."""
    eps2 = epsilon * epsilon
    n = opinions.shape[0]
    out = np.empty_like(opinions)
    for i in range(n):
        diff = opinions - opinions[i]
        ids = np.nonzero((diff * diff).sum(axis=1) <= eps2)[0]
        out[i] = np.sum(opinions[ids], axis=0) / len(ids)
    return out


@dataclass(frozen=True)
class ConvergenceReport:
    converged: bool
    first_step: int | None
    limit: np.ndarray | None


def detect_convergence(states, tol: float, window: int) -> ConvergenceReport:
    """Converged at the first step t >= window whose trailing ``window``
    per-agent displacements all stay within ``tol``: the oracle for the
    tolerance stop of ``run``."""
    if window < 1:
        raise ValueError("window must be >= 1")
    if isinstance(states, Trajectory):
        states = states.states
    disps = []
    for prev, cur in zip(states, states[1:]):
        diff = cur.opinions - prev.opinions
        disps.append(float(np.sqrt((diff * diff).sum(axis=1).max())))
    for t in range(window, len(states)):
        if max(disps[t - window : t]) <= tol:
            return ConvergenceReport(True, t, states[-1].opinions)
    return ConvergenceReport(False, None, None)


class DimensionMismatch(ValueError):
    """Operands have incompatible dimensions."""


def distance(a, b) -> float:
    """Euclidean distance between two opinion vectors of equal dimension."""
    av = np.asarray(a, dtype=np.float64)
    bv = np.asarray(b, dtype=np.float64)
    if av.shape != bv.shape or av.ndim != 1:
        raise DimensionMismatch(f"cannot take distance between shapes {av.shape} and {bv.shape}")
    diff = av - bv
    return float(math.sqrt(float(np.dot(diff, diff))))


def contraction_oracle(trajectory, tol=1e-9):
    """``check_contraction`` computed from ``neighbors_naive`` pairs over all
    agents, one Python loop per leader: the reference for the restricted scan."""
    sc = trajectory.scenario
    report = CheckReport("contraction", tolerance=tol)
    if sc.m == 0:
        report.params["note"] = "no leader groups; nothing to check"
        return report
    part = sc.partition
    for t in range(trajectory.horizon):
        state_t, state_t1 = trajectory.states[t], trajectory.states[t + 1]
        sets = neighbor_sets(sc, state_t)
        alphas = realized_alpha(sc, t)
        for k in range(1, sc.m + 1):
            g = sc.target(k)
            ids = part.leader_ids[k - 1]
            dist0 = distances_to(state_t.opinions, g)
            dist1 = distances_to(state_t1.opinions, g)
            group_alpha = 0.0
            for i in ids.tolist():
                alpha = float(alphas[i])
                group_alpha = max(group_alpha, alpha)
                rhs = alpha * float(dist0[sets[i][0]].max())
                report.records.append(StepRecord(t, f"agent {i}", float(dist1[i]), rhs))
            c0 = float(dist0[ids].max())
            c1 = float(dist1[ids].max())
            report.records.append(StepRecord(t, f"group {part.leader_names[k - 1]}", c1, group_alpha * c0))
    report.params["steps"] = trajectory.horizon
    return report


def crosstalk_oracle(scenario: Scenario, joint, assignment) -> str | None:
    """The first cross-subsystem contact of a joint run, in the wording of
    ``check_subsystem_independence``, from the ``neighbors_naive`` pairs of
    every state split per agent; None when there is none."""
    for state in joint.states:
        sets = neighbor_sets(scenario, state)
        for i in scenario.partition.follower_ids.tolist():
            a = assignment[i]
            own, leaders = sets[i]
            for j in own.tolist():
                if assignment[j] != a:
                    return f"followers {i} and {j} of different subsystems are neighbors at t={state.t}"
            for b, ids in enumerate(leaders, start=1):
                if b != a and ids.size:
                    return f"follower {i} (subsystem {a}) sees leader group {b} at t={state.t}"
    return None


def diameter_oracle(x: np.ndarray) -> float:
    """``opinion_diameter`` by the full pairwise scan."""
    if x.shape[0] < 2:
        return 0.0
    return math.sqrt(max(float(block.max()) for _, block in _squared_distances(x, x)))


def trajectory_csv_oracle(trajectory, path, record_every: int = 1) -> None:
    """``write_trajectory_csv`` as one ``csv.writer`` row per agent per
    recorded state."""
    scenario = trajectory.scenario
    part = scenario.partition
    names = [part.names[code] for code in part.group_of]
    last = trajectory.horizon
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "agent", "group"] + [f"x{c}" for c in range(scenario.dimension)])
        for state in trajectory.states:
            if state.t % record_every and state.t != last:
                continue
            for i in range(scenario.n_agents):
                writer.writerow([state.t, i, names[i]] + [repr(float(v)) for v in state.opinions[i]])


def run_in_child(code: str, tmp_path, address_space: int = 1 << 30) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter limited to ``address_space`` bytes,
    so that an allocation sized by a raw input fails there, not here."""
    preamble = f"import resource\nresource.setrlimit(resource.RLIMIT_AS, ({address_space}, {address_space}))\n"
    env = dict(os.environ, PYTHONPATH=str(Path(lfmix.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-c", preamble + code], capture_output=True, text=True, env=env,
                          cwd=tmp_path, timeout=300)
