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
  per-pair loop). The scan screens each block with one matrix product,
  whose entries are the squared distances less a per-row term; the pairs
  it cannot place beyond a proven rounding slack on either side of epsilon,
  the band, go to ``_within``. The checks scan only the pairs they need and
  call it just to name a cross-talk contact they found.
* ``PairTracker``: the pairs of one run's successive states, which
  ``dynamics.run`` feeds it, as a Verlet skin list (L. Verlet, Phys. Rev.
  159, 98, 1967) over the same searches. After a step in which no agent
  moved more than ``_QUIET`` of the skin s = ``_SKIN`` * epsilon, it
  searches once within epsilon + s and keeps the pairs within epsilon and,
  sorted by gap | distance - epsilon |, the band of candidates whose gap is
  at most s. At a later state, with D_i the displacement of agent i since
  then, the list holds while the two largest D_i sum to at most s and no
  band pair has a gap of at most D_i + D_j plus a rounding margin: every
  candidate then has its verdict at the rebuild, and no other pair can
  have come within epsilon. ``_holds`` proves the margin. Otherwise the
  list is dropped, and the state rebuilds it or, after a larger step, gets
  a fresh search, as every state of a run that keeps moving does. While
  the list holds, the tracker hands out the same ``Pairs`` object, which
  carries ``dynamics.step``'s grouping of them.

Sorted ``(rows, cols)`` pairs are the only neighbor format; an agent's set
is the cols of its rows, split by group where a caller needs that. All
keep a pair by one test, ``_within``, past the scan's screen, which decides
only the pairs it can prove: the verdict is that of the reference
``(diff * diff).sum(axis=-1) <= epsilon**2`` for every pair, so the
boundary rule (distance exactly epsilon counts) is the same everywhere.
``_within`` adds the squared coordinate differences column by column, a
few whole-array numpy calls, and re-tests with the reference expression
only the pairs whose sum lies within a rounding slack of epsilon**2, where
numpy's summation order could decide the verdict. The scenario's
``neighbor_strategy`` and ``grid_dim_cap`` are validated and kept in
canonical files but select nothing: the output is exact either way.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import Scenario, SystemState

_CHUNK = 128  # rows per block of the grid search
_SCAN_FLOATS = 1 << 17  # coordinate differences per block of the scan
_GRID_MIN_AGENTS = 64
_GRID_MAX_DIM = 6
_SKIN = 0.25  # a pair list's skin, as a fraction of epsilon
_QUIET = 0.25  # build a list only after a step that moved no agent more than this fraction of the skin
_MARGIN = 2.0**-30  # rounding margin of a pair list, as a fraction of epsilon + skin


def _column_sums(xt: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """``sum_k (x[i, k] - x[j, k])**2`` added column by column, of the
    broadcast shape of the index arrays; ``xt`` is ``x.T`` made contiguous."""
    total = None
    for row in xt:
        col = np.take(row, i) - np.take(row, j)
        col *= col
        if total is None:
            total = col
        else:
            total += col
    return total


def _within(x: np.ndarray, xt: np.ndarray, i: np.ndarray, j: np.ndarray, eps2: float,
            total: np.ndarray | None = None) -> np.ndarray:
    """Boolean array, of the broadcast shape of the index arrays ``i`` and
    ``j``: whether ``(diff * diff).sum(axis=-1) <= eps2`` for
    ``diff = x[i] - x[j]``, the reference test, whatever order numpy sums in.

    ``xt`` is ``x.T`` made contiguous; ``total`` is the pairs'
    ``_column_sums``, computed here when not given.
    """
    d = x.shape[1]
    if total is None:
        total = _column_sums(xt, i, j)
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


def _screen(q: np.ndarray, base: np.ndarray, sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Of a tile of screening values ``q``, one row per agent of the tile:
    ``keep``, the pairs certainly within epsilon, and ``band``, the pairs the
    reference test must decide. Row i's thresholds are ``base[i]`` -+ 2
    ``sigma[i]``; ``_scan`` proves them. A NaN lands in the band."""
    keep = q <= (base - 2 * sigma)[:, None]
    band = keep | (q > (base + 2 * sigma)[:, None])
    np.logical_not(band, out=band)
    return keep, band


def _scan(x: np.ndarray, eps: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """Every agent against all agents, one ``(rows, cols)`` part per block of
    rows, each part sorted by (row, col).

    A block is screened by one matrix product, whose entries are the
    squared distances up to a per-row term; only the pairs that this
    product cannot place on one side of epsilon get ``_within``.
    """
    n, d = x.shape
    xt = np.ascontiguousarray(x.T)
    eps2 = eps * eps
    ids = np.arange(n, dtype=np.int32)
    # The screen. Let u = 2^-53, E = eps2, N_i = |x_i|^2 and S = |x_i - x_j|^2
    # = N_i + N_j - 2 x_i . x_j exactly, R the reference's computed S, n_i
    # the computed N_i and M the largest n_i. The product gives q =
    # fl([x_i, 1] . [-2 x_j, n_j]), computed from that row and column by
    # multiplications and additions in any order, with or without fused
    # multiply-adds, as BLAS dgemm does. Row i's thresholds are lo, hi =
    # fl(fl(E - n_i) -+ 2 sigma_i), sigma_i = fl(c (n_i + M + E) + A), c =
    # 4 (d + 2) u and A = (d + 1) 2^-1071, where M, E <= 2^1020 and d <= 2^20;
    # otherwise sigma is NaN and every pair lands in the band. Then no value
    # here overflows (each is below 4 * 2^1020), and g_k = k u / (1 - k u)
    # <= k u (1 + 2^-30) for k <= d + 2. We show that for any q' within
    # sigma_i + u |q'| of q, such as fl(q -+ p) with |p| <= sigma_i, q' <= lo
    # implies R <= E and q' > hi implies R > E, so every verdict is the
    # reference's whatever the rounding of q, n and the thresholds.
    # * A dot product of length k is within g_k sum |a_l b_l| + k 2^-1075 of
    #   its exact value in any order of its additions, with or without fused
    #   multiply-adds (Higham, Accuracy and Stability of Numerical
    #   Algorithms, sec. 3.1; a product or fused step that underflows is off
    #   by at most 2^-1075 more, and an addition with a subnormal result is
    #   exact). -2 x_j and 1 * n_j are exact. So |n_i - N_i| <= g_d N_i +
    #   d 2^-1075, and, as 2 |a b| <= a^2 + b^2, q is within g_{d+1} (N_i +
    #   N_j + n_j) + d 2^-1075 of Q = n_j - 2 x_i . x_j. As S = Q + n_i +
    #   (N_i - n_i) + (N_j - n_j) and N <= (n + d 2^-1075) / (1 - g_d),
    #   |S - (q + n_i)| <= D = (3 d + 2) u' (n_i + M) + 3 d 2^-1074, with
    #   u' = u (1 + 2^-29), and |q'| <= (n_i + 2 M + sigma_i) (1 + 2^-30) +
    #   d 2^-1074.
    # * The reference adds d rounded squares of rounded differences, so
    #   |R - S| <= g_{d+2} S + d 2^-1074 (as in _holds); R <= E once S <=
    #   E (1 - g_{d+2}) - d 2^-1074, and R > E once S >= E (1 + 2 g_{d+2}) +
    #   2 d 2^-1074.
    # * fl(E - n_i) is within u (E + n_i) of E - n_i, and lo and hi within
    #   T = 2.01 u (E + n_i) + 2 u sigma_i of E - n_i -+ 2 sigma_i. The
    #   computed sigma_i, of nonnegative terms, is at least (1 - 4 u) times
    #   c (n_i + M + E), plus A - 2^-1074.
    # * If q' <= lo: S <= q + n_i + D <= q' + sigma_i + u |q'| + n_i + D <=
    #   E - sigma_i + T + u |q'| + D. If q' > hi, likewise S >= E + sigma_i -
    #   T - u |q'| - D. In both cases the reference's bound above holds as
    #   sigma_i >= T + u |q'| + D + 2 g_{d+2} E + 2 d 2^-1074: that sum is at
    #   most (3 d + 5.01) u' (n_i + M) + (2 d + 6.01) u' E + (5 d + 1)
    #   2^-1074 + 3.01 u sigma_i, and (1 - 3.01 u) sigma_i >= (1 - 8 u) c
    #   (n_i + M + E) + (8 d + 6) 2^-1074 exceeds the rest for d <= 2^20.
    # The thresholds stand 2 sigma_i from E - n_i, though sigma_i covers all
    # rounding, so that a test can move every q by up to sigma_i and find
    # the same pairs: the verdicts rest on this bound, not on how small the
    # rounding of this machine's BLAS happens to be.
    parts = []
    block = max(1, _SCAN_FLOATS // n)  # each tile is (block, n)
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.einsum("ij,ij->i", x, x)
        top = float(norms.max())
        left = np.hstack([x, np.ones((n, 1))])
        right = np.hstack([-2.0 * x, norms[:, None]])
        base = eps2 - norms
        sigma = 4 * (d + 2) * 2.0**-53 * (norms + (top + eps2)) + (d + 1) * 2.0**-1071
        if not (top <= 2.0**1020 and eps2 <= 2.0**1020 and d <= 2**20):
            sigma[:] = math.nan
        cols = np.tile(ids, min(block, n))  # a full tile's cols, row after row
        for start in range(0, n, block):
            tile = slice(start, start + block)
            keep, band = _screen(left[tile] @ right.T, base[tile], sigma[tile])
            if band.any():
                i, j = np.nonzero(band)
                keep[i, j] = _within(x, xt, i + start, j, eps2)
            parts.append((np.repeat(ids[tile], np.count_nonzero(keep, axis=1)),
                          np.compress(keep.ravel(), cols[:keep.size])))
    return parts


def _joined(parts: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    rows, cols = zip(*parts)
    return np.concatenate(rows), np.concatenate(cols)


def _uses_grid(x: np.ndarray) -> bool:
    n, d = x.shape
    return n >= _GRID_MIN_AGENTS and d <= _GRID_MAX_DIM


def neighbors_naive(state: SystemState, scenario: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """All epsilon-neighbor pairs as int32 ``(rows, cols)``, sorted by (row,
    col), from a scan of every agent against all agents, a block of rows at
    a time."""
    return _joined(_scan(state.opinions, scenario.epsilon))


def compute_neighbors(state: SystemState, scenario: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """All epsilon-neighbor pairs as int32 ``(rows, cols)``, sorted by (row, col)."""
    if not _uses_grid(state.opinions):
        return neighbors_naive(state, scenario)
    return _joined(neighbors_grid(state.opinions, scenario.epsilon))


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


@dataclass(eq=False)
class Pairs:
    """Sorted int32 ``(rows, cols)`` neighbor pairs of a state, and the
    ``grouping`` that ``dynamics.step`` derives from them alone, filled in by
    the first step that uses them: each of its neighbor sets is a run of one
    row's cols within one group's id range (within its range of ranks by
    (group, id) where explicit member lists interleave the groups). A
    ``PairTracker`` hands out the same object for as long as its pairs hold,
    so a grouping is never stale."""

    rows: np.ndarray
    cols: np.ndarray
    grouping: object = None


class PairTracker:
    """The neighbor pairs of one run's successive states, kept in a Verlet
    skin list while the agents move little (see the module docstring).

    ``counts`` tells how each state got its pairs: ``searches`` (the caller
    searched afresh), ``rebuilds`` and ``reuses``.
    """

    def __init__(self, scenario: Scenario):
        eps = scenario.epsilon
        self.eps, self.eps2 = eps, eps * eps
        self.skin = _SKIN * eps
        self.reach = eps + self.skin
        self.margin = _MARGIN * self.reach
        # the bounds the rounding argument in _holds assumes
        self.usable = 2.0**-400 <= eps <= 2.0**400 and scenario.dimension <= 4096
        self.counts = {"searches": 0, "rebuilds": 0, "reuses": 0}
        self._ref = None

    def pairs(self, state: SystemState, moved: float) -> Pairs | None:
        """The pairs of ``state``, or None where the caller should search
        afresh. ``moved`` is the largest displacement of any agent in the
        step that led to ``state`` (inf for the first state)."""
        x = state.opinions
        if self._ref is not None:
            if self._holds(x):
                self.counts["reuses"] += 1
                return self._pairs
            self._ref = self._pairs = self._band = None
        if self.usable and moved <= _QUIET * self.skin:
            self._rebuild(x)
            self.counts["rebuilds"] += 1
            return self._pairs
        self.counts["searches"] += 1
        return None

    def _rebuild(self, x: np.ndarray) -> None:
        """The pairs within eps, from the candidates within eps + skin, and the
        band of candidates whose distance is within the skin of eps as ``(i,
        j, gap)``, sorted by gap."""
        xt = np.ascontiguousarray(x.T)
        pairs, band = [], []
        for r, c in neighbors_grid(x, self.reach) if _uses_grid(x) else _scan(x, self.reach):
            total = _column_sums(xt, r, c)
            keep = _within(x, xt, r, c, self.eps2, total)
            pairs.append((r, c) if keep.all() else (r[keep], c[keep]))  # no copy of a part that is all pairs
            gap = np.abs(np.sqrt(total) - self.eps)
            near = gap <= self.skin
            band.append((r[near], c[near], gap[near]))
        i, j, gap = map(np.concatenate, zip(*band))
        order = np.argsort(gap, kind="stable")
        self._band = i[order], j[order], gap[order]
        self._pairs = Pairs(*_joined(pairs))
        self._ref = x

    def _holds(self, x: np.ndarray) -> bool:
        """Whether the list's pairs are those of ``x``.

        With D_i each agent's displacement since the rebuild and T the sum of
        the two largest, the list holds while T + m <= skin, m = 2^-30 (eps +
        skin), and no band pair has gap <= D_i + D_j + m.
        """
        # Exactness. Let u = 2^-53, d <= 4096 and 2^-400 <= eps <= 2^400.
        # A computed squared distance C of two points t apart, summed in any
        # order, has |C - t^2| <= g t^2 + a, g = (d + 2) u / (1 - (d + 2) u)
        # and a = d 2^-1074 (Higham sec. 4.2; a difference rounds with
        # relative error u or is exact, a square with u plus an absolute
        # 2^-1075 on underflow). So a computed distance fl(sqrt(C)), here a
        # gap's distance or a D_i, is within 2^-40 t + 2^-530 of t. With
        # k = 2^-39 > g + u + a / eps^2, t <= eps (1 - k) makes every such C,
        # the reference row sum among them, <= fl(eps^2), and t >= eps (1 + k)
        # makes it > fl(eps^2); the same holds at eps + skin.
        # * When the list holds, a candidate pair i != j has a computed gap
        #   above fl(fl(D_i + D_j) + m): the band's prefix up to fl(T + m) is
        #   tested against it, and any other candidate has gap > fl(T + m)
        #   (past the prefix, or outside the band, gap > skin), which is at
        #   least fl(fl(D_i + D_j) + m) as rounding is monotone. Let t0 and t1
        #   be its exact distances at the rebuild and now, and E_i the exact
        #   displacements, so |t1 - t0| <= E_i + E_j. The rounding of the
        #   gap, of the D and of the sums is below 2^-38 (eps + skin) +
        #   2^-528 < m / 2, so |t0 - eps| > E_i + E_j + m / 2. Then t0 and t1
        #   lie on one side of eps, more than m / 2 > k eps from it, and the
        #   verdict now is the one at the rebuild.
        # * A pair i = j is always a pair.
        # * A pair that was not a candidate has t0 > (eps + skin)(1 - k).
        #   With t1 >= t0 - (E_i + E_j) and T + m <= skin, up to the same
        #   rounding, t1 > eps + m / 2 > eps (1 + k): it is no pair now.
        with np.errstate(over="ignore"):
            delta = x - self._ref
            moved = np.sqrt((delta * delta).sum(axis=1))
        top = max(moved.size - 2, 0)
        top = float(np.partition(moved, top)[top:].sum())
        if not top + self.margin <= self.skin:
            return False
        i, j, gap = self._band
        ahead = int(np.searchsorted(gap, top + self.margin, side="right"))
        return not (gap[:ahead] <= moved[i[:ahead]] + moved[j[:ahead]] + self.margin).any()
