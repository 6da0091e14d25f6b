"""Fixed-radius neighbor search over opinion space, and the neighbor sets
that the update reads from its pairs.

* ``compute_neighbors``: the engine's search. It returns every ordered pair
  (i, j) with ||x_i - x_j||^2 <= epsilon^2 as two int32 arrays sorted by
  (i, j); every agent is its own neighbor. For N >= 64 · 3^d the
  candidates come from ``neighbors_grid``, a grid of cells of side just over
  epsilon whose 3^d block around an agent's cell covers every point within
  epsilon of it, unless the rows' bounding box spans at most 3 cells on
  every axis; otherwise it is ``neighbors_naive``. N, d and that O(N·d)
  test of each axis's extremes choose; both yield the same pairs.
* ``neighbors_naive``: the same pairs in the same format from an exact
  O(N^2) scan of every agent against all agents, in blocks of rows, the
  reference the tests hold the grid to (and check themselves against a
  per-pair loop). The scan screens each block with one matrix product,
  whose entries are the squared distances less a per-row term; the pairs
  it cannot place beyond a proven rounding slack on either side of epsilon,
  the band, go to ``_within``. The checks scan only the pairs they need and
  call it just to name a cross-talk contact they found.
* ``row_classes``: the class map of a state, its agents whose opinion rows
  have identical bytes and label, each class numbered by its smallest
  member. ``state_classes`` takes it with the groups as labels, and
  ``dynamics`` searches only the classes' representatives, one row per
  class: every path's verdict is that of the reference test below, a
  function of the two rows' bytes, so agents of one class have the same
  pairs, and the pairs of the representatives give every agent's. Every
  state is stepped through its map; where no two rows share bytes and
  group, every class has one agent, class c is agent c, and the
  representatives' pairs are the agents'.
* ``Pairs.set_means``: every agent's neighbor-set means. With R rows, one
  per class, there are (1 + m)·R sets: set k·R + r is row r's own-group set
  for k = 0 and follower row r's group-k leader set for k >= 1, the cols of
  r's pairs that carry that group. ``_expanded`` first expands each pair's
  class to its members, so each row lists its neighbor agents in ascending
  order: each class's run of members is ascending, and one stable sort of
  all the (row, agent) keys merges the runs; where every class has one
  agent, the pairs are returned as they are. Every group is one range of ids, as
  member counts make them, so ``_grouping`` finds each set as one run of
  its row's cols by counting the row's cols below each group bound. Where explicit member lists
  interleave the groups, the cols of each row are first put in (group, id)
  order, by the agents' ranks in that order (``Partition.ranges``), and the
  runs are found the same way. A set whose size is its group's member
  count is full: it holds the whole group, so its ids are the group's in
  ascending order, as in a consensus, where every set of a group is full.
  Only the first full set of each group is summed, and the others copy its
  sum. ``_set_means`` sums every other set in one pass, all sets of one
  size together, and each agent reads its row's means. The grouping, the
  sets' sizes, gather indices and copies, depends on the pairs and the
  class map alone, so the ``Pairs`` object keeps it.
* ``PairTracker``: the pairs of one run's successive states, which
  ``dynamics.run`` feeds it, as a Verlet skin list (L. Verlet, Phys. Rev.
  159, 98, 1967) over the same searches, built on the representatives.
  After a step in which no agent moved more than ``_QUIET`` of the skin s
  = ``_SKIN`` * epsilon, it searches once within epsilon + s and keeps the
  pairs within epsilon and, sorted by gap | distance - epsilon |, the band
  of candidates whose gap is at most s. At a later state, with D_i the
  displacement of row i since then, the list holds while the two largest
  D_i sum to at most s and no band pair has a gap of at most D_i + D_j
  plus a rounding margin: every candidate then has its verdict at the
  rebuild, and no other pair can have come within epsilon. ``_holds``
  proves the margin. Otherwise the list is dropped, and the state rebuilds
  it or, after a larger step, gets a fresh search, as every state of a run
  that keeps moving does. While the list holds, its classes keep their
  members, wherever they have moved since (D_i is the largest displacement
  of row i's agents): the agents of one row still have that row's pairs,
  which is all a step needs of a class. So the tracker hands out the same
  ``Pairs`` object, with the grouping it keeps, however the rows merge or
  split meanwhile.

Sorted int32 ``(rows, cols)`` pairs are the only neighbor format: every
search, ``_scan`` and ``neighbors_grid`` too, joins its blocks of rows into
one such pair before it returns, and the pair tracker filters that one
array. All keep a pair by one test, ``_within``, past the scan's screen,
which decides only the pairs it can prove: the verdict is that of the
reference ``(diff * diff).sum(axis=-1) <= epsilon**2`` for every pair, so
the boundary rule (distance exactly epsilon counts) is the same everywhere.
``_within`` adds the squared coordinate differences column by column, a few
whole-array numpy calls, and re-tests with the reference expression only
the pairs whose sum lies within a rounding slack of epsilon**2, where
numpy's summation order could decide the verdict. The scenario's
``neighbor_strategy`` and ``grid_dim_cap`` are validated and kept in
canonical files but select nothing: the output is exact either way.

Every set sum adds the set's opinions in ascending id order exactly as
``np.sum(x[ids], axis=0)`` does; an agent's class has its sets, so its
class's sums are those of its own. That sum adds rows left to right for d
>= 2, which a reduction over axis 0 of the sets of one size laid out as
(size, sets, d) repeats; for d = 1 it is a 1-D sum, which numpy adds
pairwise, and the sets are laid out as (sets, size) and reduced along axis
1, which numpy also adds pairwise. Either way a set's sum does not depend
on the block it is gathered in or on the other sets there, and a full
set's copy rests on the same fact: the full sets of one group have the
same ids in the same order, so each has the sum of the first, bit for bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteState
from .model import Scenario, SystemState

_BLOCK_FLOATS = 1 << 17  # the floats that one block of any blocked loop of the package takes
_GRID_AGENTS = 64  # the grid needs this many agents per cell of an agent's 3^d block
_SKIN = 0.25  # a pair list's skin, as a fraction of epsilon
_QUIET = 0.25  # build a list only after a step that moved no agent more than this fraction of the skin
_MARGIN = 2.0**-30  # rounding margin of a pair list, as a fraction of epsilon + skin


def per_block(floats: int) -> int:
    """How many items of ``floats`` floats each fit in one block: at least one."""
    return max(1, _BLOCK_FLOATS // max(floats, 1))


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


def _scan(x: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Every agent against all agents: the pairs within ``eps`` as int32
    ``(rows, cols)`` sorted by (row, col), found one block of rows at a
    time. Each block records its rows' pair counts and its cols; the rows
    are built once from all the counts, and the blocks' cols are joined.

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
    counts, cols = np.empty(n, dtype=np.intp), []  # each row's pairs, and each tile's cols
    block = per_block(n)  # each tile is (block, n)
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.einsum("ij,ij->i", x, x)
        top = float(norms.max())
        left = np.hstack([x, np.ones((n, 1))])
        right = np.hstack([-2.0 * x, norms[:, None]])
        base = eps2 - norms
        sigma = 4 * (d + 2) * 2.0**-53 * (norms + (top + eps2)) + (d + 1) * 2.0**-1071
        if not (top <= 2.0**1020 and eps2 <= 2.0**1020 and d <= 2**20):
            sigma[:] = math.nan
        tiled = np.tile(ids, min(block, n))  # a full tile's cols, row after row
        for start in range(0, n, block):
            tile = slice(start, start + block)
            keep, band = _screen(left[tile] @ right.T, base[tile], sigma[tile])
            if band.any():
                i, j = np.nonzero(band)
                keep[i, j] = _within(x, xt, i + start, j, eps2)
            counts[tile] = np.count_nonzero(keep, axis=1)
            cols.append(np.compress(keep.ravel(), tiled[:keep.size]))
    return np.repeat(ids, counts), np.concatenate(cols)


def _cell_side(lo: np.ndarray, hi: np.ndarray, eps: float) -> float:
    """The side of ``neighbors_grid``'s cells for rows whose axes run from
    ``lo`` to ``hi``."""
    # the distance test keeps pairs a few ulps more than epsilon apart (-1e-17
    # and 0.5 at epsilon 0.5) and x / side rounds; this margin keeps them adjacent
    return eps * (1.0 + 2.0**-48) + float(np.maximum(-lo, hi).max()) * 2.0**-50  # the largest |x|


def _uses_grid(x: np.ndarray, eps: float) -> bool:
    """Whether to search the rows ``x`` within ``eps`` on the grid: for N
    >= 64 · 3^d, where the grid beat the scan on uniform boxes of 1 to 6
    axes, unless its cells would span at most 3 per axis. Then an agent's
    3^d block misses only agents two cells away on some axis, none at a
    span of 2 or less, so the grid would test most of the N^2 pairs, one
    gather at a time, where the scan screens them with a product per block."""
    n, d = x.shape
    if n < _GRID_AGENTS * 3 ** min(d, 20):  # 64 · 3^20 > 2^31: past d = 20 no int32 N reaches it
        return False
    lo, hi = x.min(axis=0), x.max(axis=0)
    side = _cell_side(lo, hi, eps)  # floor(x / side) is monotone in x: the extremes give the extreme cells
    return not (np.floor(hi / side) - np.floor(lo / side) <= 2).all()


def neighbors_naive(state: SystemState, scenario: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """All epsilon-neighbor pairs as int32 ``(rows, cols)``, sorted by (row,
    col), from a scan of every agent against all agents, a block of rows at
    a time."""
    return _scan(state.opinions, scenario.epsilon)


def compute_neighbors(state: SystemState, scenario: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """All epsilon-neighbor pairs as int32 ``(rows, cols)``, sorted by (row,
    col): from ``neighbors_grid`` where ``_uses_grid`` says so, else from
    ``neighbors_naive``."""
    if not _uses_grid(state.opinions, scenario.epsilon):
        return neighbors_naive(state, scenario)
    return neighbors_grid(state.opinions, scenario.epsilon)


def neighbors_grid(x: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Every agent against the agents in the 3^d cells around its own: the
    pairs within ``eps`` as int32 ``(rows, cols)`` sorted by (row, col),
    joined from one block of rows at a time.

    A cell is keyed by its mixed-radix index taken modulo 2^64, so the key of
    a neighboring cell is the agent's key plus a fixed offset. Keys can only
    collide when the grid has more than 2^64 cells; a collision adds
    candidates, which the distance test then drops, and loses none.
    """
    n, d = x.shape
    xt, eps2 = np.ascontiguousarray(x.T), eps * eps
    cells = np.floor(x / _cell_side(x.min(axis=0), x.max(axis=0), eps)).astype(np.int64)
    cells -= cells.min(axis=0) - 1  # every coordinate >= 1, so a -1 offset stays >= 0
    strides = np.cumprod(np.r_[1, cells.max(axis=0)[:-1] + 2].astype(np.uint64), dtype=np.uint64)
    keys = (cells.astype(np.uint64) * strides).sum(axis=1, dtype=np.uint64)
    shifts = np.asarray(list(itertools.product((0, 1, 2), repeat=d)), dtype=np.uint64)
    offsets = np.sort((shifts * strides).sum(axis=1, dtype=np.uint64) - strides.sum(dtype=np.uint64))
    offsets = offsets[np.r_[True, offsets[1:] != offsets[:-1]]]  # offsets collide only modulo 2^64

    order = np.argsort(keys, kind="stable").astype(np.int32)  # agents by cell, ascending id within a cell
    cell_keys, first, size = np.unique(keys[order], return_index=True, return_counts=True)
    # a row takes about 5 words for each cell it looks up and each candidate, at the mean agents per occupied cell
    chunk = per_block(5 * offsets.size * (1 + n // cell_keys.size))
    found_rows, found_cols = [], []
    for start in range(0, n, chunk):
        block = np.arange(start, min(start + chunk, n), dtype=np.int32)
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
        found_rows.append((pairs >> 32).astype(np.int32))
        found_cols.append((pairs & 0xFFFFFFFF).astype(np.int32))
    del rows, cols, keep, pairs  # the last block's candidates, not held through the join
    return np.concatenate(found_rows), np.concatenate(found_cols)


@dataclass(eq=False)
class Classes:
    """The classes of a state's agents whose opinion rows have identical
    bytes and equal labels, numbered by their smallest members, ascending;
    see ``row_classes``."""

    of: np.ndarray  # each agent's class, int32
    reps: np.ndarray  # each class's smallest member, ascending
    members: np.ndarray  # the agents class by class, ascending within each class
    first: np.ndarray  # where each class's run of ``members`` starts
    size: np.ndarray  # its length


_MIX = np.uint64(0x9E3779B97F4A7C15)  # odd, so that multiplying by it permutes the 64-bit words


def row_classes(x: np.ndarray, labels: np.ndarray) -> Classes:
    """The classes of the rows of ``x`` that have the same bytes and label:
    -0.0 and 0.0 differ, as they do in ``repr``.

    Each row gets a key: the high bits of a hash of its words and label, and
    its id in the low bits. In key order the members of a class are adjacent
    and ascending, and a class starts wherever a row's bytes or label differ
    from the previous row's. Two rows whose hashes tie but differ can
    interleave and split each other's class in two, whose rows are still
    equal: the classes are exact.
    """
    n, d = x.shape
    bits = x.view(np.uint64)  # a state's opinions are C-contiguous float64
    h = labels.astype(np.uint64)
    for c in range(d):
        h ^= bits[:, c]
        h ^= h >> 32  # with the product, a bijection that carries every bit into the high ones
        h *= _MIX
    low = max(n - 1, 1).bit_length()
    h >>= low
    h <<= low
    h |= np.arange(n, dtype=np.uint64)
    h.sort()
    order = (h & ((1 << low) - 1)).astype(np.int32)
    ranked = bits[order]
    start = np.empty(n, dtype=bool)  # where a class starts: a row or label unlike the previous one's
    start[:1] = True
    np.any(ranked[1:] != ranked[:-1], axis=1, out=start[1:])
    tags = labels[order]
    start[1:] |= tags[1:] != tags[:-1]
    first = np.flatnonzero(start).astype(np.int32)
    size = np.diff(first, append=n)
    lead = np.zeros(n, dtype=bool)  # the smallest member of each class
    lead[order[first]] = True
    number = np.cumsum(lead, dtype=np.int32)[order[first]] - 1  # each run's class: its smallest member's rank
    of = np.empty(n, dtype=np.int32)
    of[order] = np.repeat(number, size)
    class_first, class_size = np.empty_like(first), np.empty_like(size)
    class_first[number], class_size[number] = first, size
    return Classes(of, np.flatnonzero(lead), order, class_first, class_size)


def state_classes(state: SystemState, scenario: Scenario) -> tuple[Classes, SystemState]:
    """The (row bytes, group) classes of ``state``'s agents and the state of
    their representatives' rows, one row per class; where no two agents
    share a class, that state has ``state``'s rows."""
    classes = row_classes(state.opinions, scenario.partition.group_of)
    return classes, SystemState(state.t, state.opinions[classes.reps])


def _grouping(scenario: Scenario, d: int, rows: np.ndarray, cols: np.ndarray, reps: np.ndarray):
    """The sizes of all (1 + m)·R sets, laid out as the module docstring says
    with R rows, each set's ids ascending; the gather index of each block of
    equal-size sets that are summed: (sets, their cols laid out as (size,
    sets) for d >= 2 and as (sets, size) for d = 1); and the copies
    ``(target, source)``, the full sets that take the sum of their group's
    first full set. Row r is agent ``reps[r]``'s; the cols are agent ids.

    Each set is the run of its row's cols whose keys lie in its group's
    range of ``Partition.ranges``: the cols themselves, or, for interleaved
    groups, their ranks by (group, id), with each row's cols sorted by rank
    first. Its first pair and size come from per-row counts of the keys
    below each group bound; the blocks gather from those cols directly. A
    set is full when its size is its group's member count, the width of its
    range: its ids are then all of the group's.
    """
    n = scenario.n_agents
    group_of = scenario.partition.group_of[reps]
    r = group_of.size
    key, bounds = scenario.partition.ranges
    if key is None:
        key = cols
    else:  # each row's cols in (group, id) order, so that every group is one run of them
        key = key[cols]
        order = np.argsort(rows.astype(np.int64) * n + key, kind="stable")
        cols, key = cols[order], key[order]
        del order
    starts = np.searchsorted(rows, np.arange(r + 1, dtype=rows.dtype))
    counts = np.diff(starts)
    # reduceat below counts each row's run only if no row is empty: every
    # agent whose opinion is finite is its own neighbor
    if not counts.all():
        empty = int(counts.argmin())
        raise NonFiniteState(f"agent {int(reps[empty])} is not its own neighbor: "
                             "its opinion is not finite")
    below = {0: np.zeros(r, dtype=starts.dtype), n: counts}  # b: how many of each row's keys are below b
    for b in bounds.ravel().tolist():
        if b not in below:
            # counted in the id type, which holds N: reduceat casts the whole mask to it first
            below[b] = np.add.reduceat(key < b, starts[:-1], dtype=rows.dtype)
    del key
    low, high = (np.array([below[b] for b in bound]) for bound in bounds.T)
    each = np.arange(r)
    own = low[group_of, each]
    # an agent's own set is its group's run; a leader's runs of other groups are not used
    first = (starts[:-1] + np.vstack((own, low[1:]))).ravel()
    size = np.vstack((high[group_of, each] - own, np.where(group_of == 0, high[1:] - low[1:], 0))).ravel()
    # the first full set of each group is gathered, and the others copy its sum
    gathered = size > 0
    members = bounds[:, 1] - bounds[:, 0]  # each group's count
    full = np.flatnonzero(gathered & (size == np.concatenate((members[group_of], np.repeat(members[1:], r)))))
    group = np.where(full < r, group_of[full % r], full // r)
    _, firsts, which = np.unique(group, return_index=True, return_inverse=True)
    source = full[firsts][which]
    copied = source != full
    copies = full[copied], source[copied]
    gathered[copies[0]] = False
    by_size = np.argsort(size, kind="stable")  # the sets of each size ascending, the sizes ascending
    by_size = by_size[gathered[by_size]]
    index = np.empty(size[by_size].sum(), dtype=cols.dtype)  # the gathered sets' cols block by block, one allocation
    blocks, end = [], 0
    cuts = np.flatnonzero(np.diff(size[by_size])) + 1
    for sets in np.split(by_size, cuts):
        k = int(size[sets[0]])
        block = per_block(k * d)
        for part in np.split(sets, range(block, sets.size, block)):
            at = first[part, None] + np.arange(k) if d == 1 else first[part] + np.arange(k)[:, None]
            view = index[end:end + at.size].reshape(at.shape)
            np.take(cols, at, out=view)
            blocks.append((part, view))
            end += at.size
    return size, blocks, copies


def _expanded(pairs: Pairs) -> tuple[np.ndarray, np.ndarray]:
    """The pairs of ``pairs.classes``' representatives as int32 (class,
    agent) pairs sorted by (class, agent): each neighbor class expanded to
    its members."""
    classes = pairs.classes
    if classes.reps.size == classes.of.size:  # every class is one agent, class c agent c
        return pairs.rows, pairs.cols
    size = classes.size[pairs.cols]
    rows = np.repeat(pairs.rows, size)
    # the positions in ``members`` of each pair's run: ones to accumulate,
    # and at each run's start the jump there from the last run's end
    ends = np.cumsum(size)
    first = classes.first[pairs.cols]
    at = np.ones(rows.size, dtype=np.int32)
    at[:1] = first[:1]
    jump = first[1:] - first[:-1]
    jump -= size[:-1]
    jump += 1
    at[ends[:-1]] = jump
    del size, ends, first, jump
    np.add.accumulate(at, out=at)
    cols = np.take(classes.members, at)
    del at
    # each row is a run of ascending members per neighbor class: one stable
    # sort of the (row, agent) keys puts every row's agents in order
    key = rows.astype(np.int64)
    key <<= 32
    key |= cols
    key.sort(kind="stable")
    cols[:] = key  # the low 32 bits: the agent
    return rows, cols


def _set_means(x: np.ndarray, grouping) -> np.ndarray:
    """The means of the sets of a ``_grouping``, one row each; 0 for an
    empty set.

    A set's sum is bit for bit ``np.sum(x[ids], axis=0)``, taken for all
    gathered sets of one size together from one ``np.take`` gather, whose
    layout makes the reduction add in numpy's per-set order (see the module
    docstring). After the blocks, each copied full set takes its source's
    sum in one assignment: the same ids in the same order.
    """
    size, blocks, (target, source) = grouping
    sums = np.zeros((size.size, x.shape[1]))
    for part, index in blocks:
        if x.shape[1] == 1:
            sums[part, 0] = np.take(x[:, 0], index).sum(axis=1)
        else:
            sums[part] = np.take(x, index, axis=0).sum(axis=0)
    sums[target] = sums[source]
    sums /= np.maximum(size, 1)[:, None]
    return sums


@dataclass(eq=False)
class Pairs:
    """Sorted int32 ``(rows, cols)`` neighbor pairs of the representatives
    of a state's ``classes``, one row per class. ``set_means`` groups them
    into neighbor sets on first use and keeps that ``grouping``, which
    depends on the pairs and classes alone; a ``PairTracker`` hands out the
    same object for as long as both hold, so a grouping is never stale.
    ``weights`` is where ``dynamics.step`` keeps the weights and digests of
    the steps of a chunk of degrees that a held list serves: they depend on
    the set sizes and the degrees alone."""

    rows: np.ndarray
    cols: np.ndarray
    classes: Classes
    grouping: tuple | None = None
    weights: tuple | None = None

    def set_means(self, scenario: Scenario, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, int, int]:
        """Each agent's (1 + m, N, d) set means at the opinions ``x``, 0 for
        an empty set, and its (1 + m, N) set sizes: row 0 its own-group set,
        row k a follower's group-k leader set. Then how many rows (classes)
        had their sets summed, and how many sets were gathered and summed;
        the others were empty or copied a full set's sum. Raises
        NonFiniteState for an agent that is not its own neighbor."""
        of = self.classes.of  # each agent reads its class's sets
        if self.grouping is None:
            self.grouping = _grouping(scenario, x.shape[1], *_expanded(self), self.classes.reps)
        size, blocks, _ = self.grouping
        means = _set_means(x, self.grouping).reshape(1 + scenario.m, -1, x.shape[1])
        size = size.reshape(means.shape[:2])
        return means[:, of], size[:, of], size.shape[1], sum(part.size for part, _ in blocks)


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
        self._scenario = scenario
        self._ref = None

    def pairs(self, state: SystemState, moved: float) -> Pairs | None:
        """The pairs of ``state``, or None where the caller should search
        afresh. ``moved`` is the largest displacement of any agent in the
        step that led to ``state`` (inf for the first state).

        A list is built among the representatives of the state's classes
        (``state_classes``) and keeps those classes while it holds: the
        members of one have the same pairs as long as it does, whatever rows
        they have moved to since."""
        if self._ref is not None:
            if self._holds(state.opinions):
                self.counts["reuses"] += 1
                return self._pairs
            self._ref = self._pairs = self._band = None
        if self.usable and moved <= _QUIET * self.skin:
            self._rebuild(*state_classes(state, self._scenario))
            self.counts["rebuilds"] += 1
            return self._pairs
        self.counts["searches"] += 1
        return None

    def _rebuild(self, classes: Classes, reps: SystemState) -> None:
        """The pairs of the representatives within eps and the band, the
        candidates whose distance is within the skin of eps, as ``(i, j,
        gap)`` stably sorted by gap: both in one pass over the candidates
        within eps + skin."""
        x = reps.opinions
        xt = np.ascontiguousarray(x.T)
        rows, cols = neighbors_grid(x, self.reach) if _uses_grid(x, self.reach) else _scan(x, self.reach)
        total = _column_sums(xt, rows, cols)
        keep = _within(x, xt, rows, cols, self.eps2, total)
        gap = np.abs(np.sqrt(total) - self.eps)
        near = np.flatnonzero(gap <= self.skin)
        near = near[np.argsort(gap[near], kind="stable")]
        self._band = rows[near], cols[near], gap[near]
        self._pairs = Pairs(rows[keep], cols[keep], classes=classes)
        self._ref = x

    def _holds(self, x: np.ndarray) -> bool:
        """Whether the list's pairs are those of ``x``, the agents' rows.

        With D_i the largest displacement since the rebuild of an agent of
        row i and T the sum of the two largest, the list holds while T + m <=
        skin, m = 2^-30 (eps + skin), and no band pair has gap <= D_i + D_j +
        m.
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
        # * A pair i = j is always a pair: two agents of one row are at most
        #   2 T + m < eps apart now.
        # * A pair that was not a candidate has t0 > (eps + skin)(1 - k).
        #   With t1 >= t0 - (E_i + E_j) and T + m <= skin, up to the same
        #   rounding, t1 > eps + m / 2 > eps (1 + k): it is no pair now.
        # Here a pair is of agents a and b of rows i and j, t0 the distance of
        # the rows at the rebuild and E_i, E_j the exact displacements of a and
        # b, each at most D_i, D_j up to the rounding above. So the agents of
        # one row have the pairs of that row now.
        of = self._pairs.classes.of
        with np.errstate(over="ignore"):
            delta = x - self._ref[of]
            each = np.sqrt((delta * delta).sum(axis=1))
        moved = np.zeros(len(self._ref))  # each row's largest
        np.maximum.at(moved, of, each)
        top = max(moved.size - 2, 0)
        top = float(np.partition(moved, top)[top:].sum())
        if not top + self.margin <= self.skin:
            return False
        i, j, gap = self._band
        ahead = int(np.searchsorted(gap, top + self.margin, side="right"))
        return not (gap[:ahead] <= moved[i[:ahead]] + moved[j[:ahead]] + self.margin).any()
