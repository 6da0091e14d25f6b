"""Fixed-radius neighbor search over opinion space.

* ``compute_neighbors``: the engine's search. It returns every ordered pair
  (i, j) with ||x_i - x_j||^2 <= epsilon^2 as two int32 arrays sorted by
  (i, j); every agent is its own neighbor. Candidates come from
  ``neighbors_grid``, a grid of cells of side just over epsilon (d <= 6 and
  N >= 64) whose 3^d block around an agent's cell covers every point within
  epsilon of it, or else from a scan over all agents. Only N and d choose;
  both yield the same pairs.
* ``neighbors_naive``: the same pairs in the same format from an exact
  O(N^2) scan of every agent against all agents, the reference the tests
  hold ``compute_neighbors`` to. The checks scan only the pairs they need
  and call it just to name a cross-talk contact they found.

Sorted ``(rows, cols)`` pairs are the only neighbor format; an agent's set
is the cols of its rows, split by group where a caller needs that. Both
keep a pair by the same test on the same arithmetic, squared distance
against epsilon squared, so the boundary rule (distance exactly epsilon
counts) is the same everywhere. The scenario's ``neighbor_strategy`` and
``grid_dim_cap`` are validated and kept in canonical files but select
nothing: the output is exact either way.
"""

from __future__ import annotations

import itertools

import numpy as np

from .model import Scenario, SystemState

_CHUNK = 128  # rows per block of the reference and the grid search
_SCAN_FLOATS = 1 << 17  # coordinate differences per block of the scan
_GRID_MIN_AGENTS = 64
_GRID_MAX_DIM = 6


def neighbors_naive(state: SystemState, scenario: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """All epsilon-neighbor pairs as int32 ``(rows, cols)``, sorted by (row,
    col), from a scan of every agent against all agents; the reference."""
    x = state.opinions
    eps2 = scenario.epsilon * scenario.epsilon
    rows, cols = [], []
    for start in range(0, x.shape[0], _CHUNK):
        diff = x[start:start + _CHUNK, None, :] - x[None, :, :]
        r, c = np.nonzero((diff * diff).sum(axis=2) <= eps2)
        rows.append(r + start)
        cols.append(c)
    return np.concatenate(rows).astype(np.int32), np.concatenate(cols).astype(np.int32)


def compute_neighbors(state: SystemState, scenario: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """All epsilon-neighbor pairs as int32 ``(rows, cols)``, sorted by (row, col)."""
    x = state.opinions
    n, d = x.shape
    search = neighbors_grid if n >= _GRID_MIN_AGENTS and d <= _GRID_MAX_DIM else _scan_pairs
    rows, cols = zip(*search(x, scenario.epsilon))
    return np.concatenate(rows), np.concatenate(cols)


def _scan_pairs(x: np.ndarray, eps: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """Every agent against all agents, a block of rows at a time."""
    eps2 = eps * eps
    ids = np.arange(x.shape[0], dtype=np.int32)
    parts = []
    block = max(1, _SCAN_FLOATS // x.size)
    for start in range(0, x.shape[0], block):
        diff = x[start:start + block, None, :] - x[None, :, :]
        diff *= diff
        within = diff.sum(axis=2) <= eps2
        rows = np.repeat(ids[start:start + block], within.sum(axis=1))
        parts.append((rows, np.broadcast_to(ids, within.shape)[within]))
    return parts


def neighbors_grid(x: np.ndarray, eps: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """Every agent against the agents in the 3^d cells around its own, one
    ``(rows, cols)`` part per block of rows; ``compute_neighbors`` joins them.

    A cell is keyed by its mixed-radix index taken modulo 2^64, so the key of
    a neighboring cell is the agent's key plus a fixed offset. Keys can only
    collide when the grid has more than 2^64 cells; a collision adds
    candidates, which the distance test then drops, and loses none.
    """
    n, d = x.shape
    eps2 = eps * eps
    # the distance test keeps pairs a few ulps more than epsilon apart (-1e-17
    # and 0.5 at epsilon 0.5) and x / side rounds; this margin keeps them adjacent
    side = eps * (1.0 + 2.0**-48) + float(np.abs(x).max()) * 2.0**-50
    cells = np.floor(x / side).astype(np.int64)
    cells -= cells.min(axis=0) - 1  # every coordinate >= 1, so a -1 offset stays >= 0
    strides = np.cumprod(np.r_[1, cells.max(axis=0)[:-1] + 2].astype(np.uint64), dtype=np.uint64)
    keys = (cells.astype(np.uint64) * strides).sum(axis=1, dtype=np.uint64)
    shifts = np.asarray(list(itertools.product((0, 1, 2), repeat=d)), dtype=np.uint64)
    offsets = np.unique((shifts * strides).sum(axis=1, dtype=np.uint64) - strides.sum(dtype=np.uint64))

    order = np.argsort(keys, kind="stable").astype(np.int32)  # agents by cell, ascending id within a cell
    cell_keys, first, size = np.unique(keys[order], return_index=True, return_counts=True)
    parts = []
    for start in range(0, n, _CHUNK):
        block = np.arange(start, min(start + _CHUNK, n), dtype=np.int32)
        wanted = (keys[block, None] + offsets).ravel()
        cell = np.minimum(np.searchsorted(cell_keys, wanted), cell_keys.size - 1)
        found = cell_keys[cell] == wanted
        owner = np.repeat(block, offsets.size)[found]
        cell = cell[found]
        # expand each (agent, cell) hit into the cell's members
        lengths = size[cell]
        rows = np.repeat(owner, lengths)
        ends = np.cumsum(lengths)
        cols = order[np.arange(ends[-1]) + np.repeat(first[cell] - ends + lengths, lengths)]
        diff = x[rows] - x[cols]
        keep = (diff * diff).sum(axis=1) <= eps2
        pairs = rows[keep].astype(np.int64) * n + cols[keep]
        pairs.sort(kind="stable")  # the runs from each cell are already ascending
        parts.append(((pairs // n).astype(np.int32), (pairs % n).astype(np.int32)))
    return parts
