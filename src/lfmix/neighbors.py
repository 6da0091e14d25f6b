"""Fixed-radius neighbor search over opinion space.

* ``compute_neighbors``: the engine's search. It returns every ordered pair
  (i, j) with ||x_i - x_j||^2 <= epsilon^2 as two int32 arrays sorted by
  (i, j); every agent is its own neighbor. For d <= 6 and N >= 64 the
  candidates come from ``neighbors_grid``, a grid of cells of side just over
  epsilon whose 3^d block around an agent's cell covers every point within
  epsilon of it; otherwise it is ``neighbors_naive``. Only N and d choose;
  both yield the same pairs.
* ``neighbors_naive``: the same pairs in the same format from an exact
  O(N^2) scan of every agent against all agents, in blocks of rows, the
  reference the tests hold the grid to (and check themselves against a
  per-pair loop). The checks scan only the pairs they need and call it just
  to name a cross-talk contact they found.

Sorted ``(rows, cols)`` pairs are the only neighbor format; an agent's set
is the cols of its rows, split by group where a caller needs that. Both
keep a pair by one test, ``_within``: its verdict is that of the reference
``(diff * diff).sum(axis=-1) <= epsilon**2`` for every pair, so the boundary
rule (distance exactly epsilon counts) is the same everywhere. It adds the
squared coordinate differences column by column, a few whole-array numpy
calls, and re-tests with the reference expression only the pairs whose sum
lies within a rounding slack of epsilon**2, where numpy's summation order
could decide the verdict. The scenario's ``neighbor_strategy`` and
``grid_dim_cap`` are validated and kept in canonical files but select
nothing: the output is exact either way.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .model import Scenario, SystemState

_CHUNK = 128  # rows per block of the grid search
_SCAN_FLOATS = 1 << 17  # coordinate differences per block of the scan
_GRID_MIN_AGENTS = 64
_GRID_MAX_DIM = 6


def _within(x: np.ndarray, xt: np.ndarray, i: np.ndarray, j: np.ndarray, eps2: float) -> np.ndarray:
    """Boolean array, of the broadcast shape of the index arrays ``i`` and
    ``j``: whether ``(diff * diff).sum(axis=-1) <= eps2`` for
    ``diff = x[i] - x[j]``, the reference test, whatever order numpy sums in.

    ``xt`` is ``x.T`` made contiguous. Each coordinate is gathered with
    ``np.take``, squared, and the squares are added column by column.
    """
    d = x.shape[1]
    total = None
    for k in range(d):
        col = np.take(xt[k], i) - np.take(xt[k], j)
        col *= col
        if total is None:
            total = col
        else:
            total += col
    # Both the column sum C and the reference sum R add the same d computed
    # squares, which are nonnegative, so in any order each is within a
    # relative gamma = (d - 1) u / (1 - (d - 1) u) of their exact sum S, with
    # u = 2^-53 the unit roundoff (Higham, Accuracy and Stability of
    # Numerical Algorithms, sec. 4.2): an addition of nonnegatives that does
    # not overflow rounds with relative error at most u, also at subnormal
    # results, which are exact. Take s = 4 d u and 2^-1000 <= eps2 <= 2^1000,
    # so that lo = eps2 (1 - s) and hi = eps2 (1 + s) round with relative
    # error at most u (1 - s and 1 + s are exact) and are far below
    # overflow. As (1 + gamma) / (1 - gamma) < 1 + 2.01 (d - 1) u:
    # * C <= lo: S <= C / (1 - gamma) and R <= S (1 + gamma), so
    #   R <= eps2 (1 - s)(1 + u)(1 + gamma) / (1 - gamma) <= eps2.
    # * C > hi, C finite: S >= C / (1 + gamma) and R >= S (1 - gamma) (or
    #   R = inf), so R >= eps2 (1 + s)(1 - u)(1 - gamma) / (1 + gamma) > eps2.
    # * C = inf: an addition overflowed, so S >= Omega / (1 + gamma), Omega
    #   the largest float, and R > eps2 by the same bound.
    # The pairs with lo < C <= hi are left, and the reference test decides
    # them. A NaN fails all three tests, as it fails the reference's.
    if 2.0**-1000 <= eps2 <= 2.0**1000:
        slack = 4 * d * 2.0**-53
        lo, hi = eps2 * (1.0 - slack), eps2 * (1.0 + slack)
    else:  # every pair gets the reference test
        lo, hi = -1.0, math.inf
    keep = total <= lo
    band = (total <= hi) ^ keep
    if band.any():
        diff = x[np.broadcast_to(i, band.shape)[band]] - x[np.broadcast_to(j, band.shape)[band]]
        keep[band] = (diff * diff).sum(axis=-1) <= eps2
    return keep


def neighbors_naive(state: SystemState, scenario: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """All epsilon-neighbor pairs as int32 ``(rows, cols)``, sorted by (row,
    col), from a scan of every agent against all agents, a block of rows at
    a time."""
    x = state.opinions
    n = x.shape[0]
    xt = np.ascontiguousarray(x.T)
    eps2 = scenario.epsilon * scenario.epsilon
    ids = np.arange(n, dtype=np.int32)
    rows, cols = [], []
    block = max(1, _SCAN_FLOATS // n)  # each coordinate's tile is (block, n)
    for start in range(0, n, block):
        within = _within(x, xt, ids[start:start + block, None], ids[None, :], eps2)
        rows.append(np.repeat(ids[start:start + block], np.count_nonzero(within, axis=1)))
        cols.append(np.broadcast_to(ids, within.shape)[within])
    return np.concatenate(rows), np.concatenate(cols)


def compute_neighbors(state: SystemState, scenario: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """All epsilon-neighbor pairs as int32 ``(rows, cols)``, sorted by (row, col)."""
    n, d = state.opinions.shape
    if n < _GRID_MIN_AGENTS or d > _GRID_MAX_DIM:
        return neighbors_naive(state, scenario)
    rows, cols = zip(*neighbors_grid(state.opinions, scenario.epsilon))
    return np.concatenate(rows), np.concatenate(cols)


def neighbors_grid(x: np.ndarray, eps: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """Every agent against the agents in the 3^d cells around its own, one
    ``(rows, cols)`` part per block of rows; ``compute_neighbors`` joins them.

    A cell is keyed by its mixed-radix index taken modulo 2^64, so the key of
    a neighboring cell is the agent's key plus a fixed offset. Keys can only
    collide when the grid has more than 2^64 cells; a collision adds
    candidates, which the distance test then drops, and loses none.
    """
    n, d = x.shape
    xt = np.ascontiguousarray(x.T)
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
        keep = _within(x, xt, rows, cols, eps2)
        pairs = (rows[keep].astype(np.int64) << 32) | cols[keep]
        pairs.sort(kind="stable")  # the runs from each cell are already ascending
        parts.append(((pairs >> 32).astype(np.int32), (pairs & 0xFFFFFFFF).astype(np.int32)))
    return parts
