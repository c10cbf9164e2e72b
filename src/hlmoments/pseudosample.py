"""Materialize the sorted kernel pseudo-sample over k-subsets of a sample.

The sample is sorted once and every index tuple is strictly increasing, so
every gathered row is ascending already.  Exact mode gathers all C(n, k)
combinations in colexicographic blocks through data-independent index tables
cached for the process (4 776 450 bytes at worst).  Monte Carlo mode draws
combinations uniformly with replacement, one RNG substream per block of 2^18
draws, so the result depends only on (sample, draws, seed); one block at a
time is held, as k rows of 4-byte indices.  Both modes gather rows one kernel
tile at a time.

The returned pseudo-sample is sorted ascending with -0.0 normalized to +0.0,
making it bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import (
    _OVERFLOW,
    ArgumentError,
    CapacityError,
    CombinationOverflowError,
    _instance,
    _integer,
    _reals,
)
from .kernels import _TILE, _check_order, _psi2, kernel_values
from .lstat import TrimSpec, _midpoint, retained_window

__all__ = [
    "DEFAULT_BUDGET",
    "ExactPlan",
    "MonteCarloPlan",
    "PseudoPlan",
    "count_combinations",
    "build_pseudosample",
]

#: Default cap on C(n, k) for exact enumeration.
DEFAULT_BUDGET = 50_000_000

# Index cells in one level's colex table: at most _TABLE_CELLS // q q-subsets.
# It changes no bit of the result, so no plan carries it.
_TABLE_CELLS = 1 << 18

# Draws per Monte Carlo RNG substream, held as k rows of 4-byte indices.  It
# defines the stream, so it is fixed: changing it changes every Monte Carlo result.
_MC_BLOCK = 1 << 18

_COLEX: dict[int, np.ndarray] = {}  # level q -> the table _colex(q, m) returns a prefix of

_MAX_UINT64 = 2**64 - 1
_MAX_INT64 = 2**63 - 1

# Pairwise selection probes 4096 cells a round, pivots two binomial SDs either
# side of the target, and partitions once at most max(16 n, 32768) cells remain.
_SELECT_PROBE, _SELECT_PIVOTS, _SELECT_GATHER, _SELECT_HOLD = 4096, np.array([-64, 64]), 16, 1 << 15


@dataclass(frozen=True)
class ExactPlan:
    """Enumerate every combination, provided C(n, k) <= budget.

    Beyond the C(n, k) output values it holds the level tables (the
    process-wide index tables, 4 776 450 bytes at worst, and per call at most
    2^18 gathered values per level) and one tile of 8192 rows of k values,
    however large C(n, k) is; the kernel's own temporaries are tile-sized too.
    """

    budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        object.__setattr__(self, "budget", _integer("budget", self.budget, 1))


@dataclass(frozen=True)
class MonteCarloPlan:
    """Draw ``draws`` combinations uniformly with replacement, seeded.

    Beyond the ``draws`` output values it holds one block of 2^18 draws as
    k rows of 4-byte indices (4 * k * 2^18 bytes, and one more row while a
    row is drawn), released before the next block is drawn, and one tile of
    8192 rows of k values; the kernel's own temporaries are tile-sized too.
    """

    draws: int
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "draws", _integer("draws", self.draws, 1))
        object.__setattr__(self, "seed", _integer("seed", self.seed, 0, _MAX_UINT64))


PseudoPlan = Union[ExactPlan, MonteCarloPlan]


def count_combinations(n: int, k: int) -> int:
    """Exact C(n, k); raises once the count no longer fits in 64 bits."""
    n = _integer("n", n, 0)
    k = _integer("k", k, 0, n)
    total = math.comb(n, k)
    if total > _MAX_INT64:
        raise CombinationOverflowError(
            f"C({n}, {k}) = {total} exceeds 64-bit range; use a Monte Carlo plan"
        )
    return total


def _sample_index_combinations(rng: np.random.Generator, n: int, k: int, m: int):
    """Yield m uniform k-subsets of {0..n-1}, as (k, <= _TILE) tiles of ascending columns.

    Sequential selection: the j-th index is uniform over the n-j values not
    yet chosen in its column, mapped past the chosen ones (kept ascending) and
    inserted among them.  The k rows are drawn first, in the stream's order,
    as 4-byte ints below n = 2^31, then each tile is selected as it is yielded.
    """
    sel = np.empty((k, m), dtype=np.int32 if n < 2**31 else np.int64)  # a row per position
    for j in range(k):
        sel[j] = rng.integers(0, n - j, size=m, dtype=sel.dtype)
    for a in range(0, m, _TILE):
        tile = sel[:, a:a + _TILE]
        for j in range(1, k):
            v = tile[j]
            for t in range(j):
                v += v >= tile[t]
            for t in range(j):
                low = np.minimum(tile[t], v)
                np.maximum(tile[t], v, out=v)
                tile[t] = low
        yield tile


def _monte_carlo_rows(x: np.ndarray, k: int, plan: MonteCarloPlan):
    """Yield the plan's drawn rows of x, one index tile at a time.

    Block b of _MC_BLOCK draws comes from its own substream keyed by
    (seed, b), so the stream is fixed by (n, k, plan.draws, plan.seed) alone.
    One block of indices is alive at a time.
    """
    for block, start in enumerate(range(0, plan.draws, _MC_BLOCK)):
        rng = np.random.default_rng(np.random.SeedSequence(plan.seed, spawn_key=(block,)))
        for tile in _sample_index_combinations(rng, x.size, k, min(_MC_BLOCK, plan.draws - start)):
            yield x.take(tile).T
        del tile  # a view of the finished block: it would keep it alive while the next is drawn


def _colex(q: int, m: int) -> np.ndarray:
    """The colex q-subsets of range(m) as uint16 indices, one row per position: a
    prefix of one data-independent table per level, kept for the process and grown
    to the longest prefix asked for.  _exact_rows asks at most cap // q columns,
    so under _TABLE_CELLS no index exceeds 511 and levels 1..12 hold 4 776 450 bytes."""
    size = math.comb(m, q)
    table = _COLEX.get(q)
    if table is None or table.shape[1] < size:  # for each j < m: level q - 1 up to C(j, q - 1), then j
        counts = [math.comb(j, q - 1) for j in range(q - 1, m)]
        head = _colex(q - 1, m - 1) if q > 1 else np.empty((0, 1), np.uint16)
        table = np.vstack((np.concatenate([head[:, :c] for c in counts], axis=1),
                           np.repeat(np.arange(q - 1, m, dtype=np.uint16), counts)))
        table.flags.writeable = False
        _COLEX[q] = table
    return table[:, :size]


def _exact_rows(x: np.ndarray, k: int, cap: int = _TABLE_CELLS, tile: int = _TILE):
    """Yield the rows of x at every k-subset of indices, in tiles of ``tile`` rows.

    "Every r-subset of range(m), then x at fixed larger indices ``top``" is a
    prefix of x gathered through the cached level-r ``_colex`` table, plus
    constants.  When C(n, k) <= cap // k the level-k prefix is yielded in one
    piece (the kernel tiles it; copying it into tiles cost 5-15 % of a k = 6
    job).  Otherwise a block is split by its largest free index j until it
    has at most cap // r rows, or r = 1 (the table is x itself), and blocks are
    copied in order into one reused (k, tile) buffer, which every yielded view
    shares; only the last view is short.  Each level's values, capped at
    cap // r rows too, are gathered once per call.
    """
    n, xs = x.size, x.tolist()
    if math.comb(n, k) <= cap // k:
        yield x[_colex(k, n)].T
        return
    values = {1: x[None, :]}  # values[q]: x at the level-q table, one contiguous row per position

    def blocks(r, m, top):
        if r == 1 or math.comb(m, r) <= cap // r:
            yield r, m, top
        else:
            for j in range(r - 1, m):
                yield from blocks(r - 1, j, (xs[j],) + top)

    buf = np.empty((k, min(tile, math.comb(n, k))))
    fill = 0
    for r, m, top in blocks(k, n, ()):
        if r not in values:  # no block at level r reaches past index n - (k - r)
            q = r
            while q < n - (k - r) and math.comb(q + 1, r) <= cap // r:
                q += 1
            values[r] = x[_colex(r, q)]
        size, a = math.comb(m, r), 0
        while a < size:  # fill the buffer, yielding it whenever it is full
            b = min(size, a + buf.shape[1] - fill)
            buf[:r, fill:fill + b - a] = values[r][:, a:b]
            buf[r:, fill:fill + b - a] = np.reshape(top, (-1, 1))
            fill += b - a
            a = b
            if fill == buf.shape[1]:
                yield buf.T
                fill = 0
    if fill:
        yield buf[:, :fill].T


def _checked_sample(sample, k: int) -> np.ndarray:
    x = _reals("sample", sample, 1)
    if x.size < k:
        raise ArgumentError(f"sample size {x.size} is smaller than k={k}")
    return x


def _sorted_sample(sample, k, plan: PseudoPlan) -> tuple[int, np.ndarray, int]:
    """(k, sorted sample, pseudo-sample size) of a valid order, sample and plan
    whose exact C(n, k) is within its budget: what both routes start from."""
    plan = _instance("plan", plan, (ExactPlan, MonteCarloPlan))
    k = _check_order(k)
    x = _checked_sample(sample, k)
    if isinstance(plan, ExactPlan):
        total = count_combinations(x.size, k)
        if total > plan.budget:
            raise CapacityError(
                f"C({x.size}, {k}) = {total} exceeds the exact-mode budget "
                f"{plan.budget}; use a Monte Carlo plan"
            )
    else:
        total = plan.draws
    return k, np.sort(x), total


def build_pseudosample(sample, k: int, plan: PseudoPlan = ExactPlan()) -> np.ndarray:
    """Sorted kernel values psi_k over combinations of the sample.

    Exact plans produce all C(n, k) values (within ``plan.budget``);
    Monte Carlo plans produce ``plan.draws`` values over uniformly drawn
    combinations.  Output is ascending and a pure function of
    (sample, k, plan), independent of block scheduling.
    """
    k, x, total = _sorted_sample(sample, k, plan)
    if isinstance(plan, ExactPlan):
        tiles = _exact_rows(x, k)
    else:
        tiles = _monte_carlo_rows(x, k, plan)
    try:
        out = np.empty(total)
    except (MemoryError, ValueError) as exc:  # ValueError: beyond numpy's largest array
        raise CapacityError(
            f"a pseudo-sample of {total} values ({8 * total} bytes) is too large to allocate"
        ) from exc
    start = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for rows in tiles:
            out[start:start + rows.shape[0]] = kernel_values(rows, k)
            start += rows.shape[0]
    out += 0.0  # fold -0.0 into +0.0 so the sorted output is bit-canonical
    out.sort()
    if not (np.isfinite(out[0]) and np.isfinite(out[-1])):  # -inf first; inf, then NaN, last
        raise ArgumentError(_OVERFLOW)
    return out


def _pairwise_bounds(x: np.ndarray, t: float) -> np.ndarray:
    """First column j > i with psi_2(x_i, x_j) > t in each row i < n - 1: a
    square-root guess stepped, one run of tied x at a time, by psi_2 itself."""
    j = np.searchsorted(x, x[:-1] + math.sqrt(2.0 * max(t, 0.0)), side="right")
    np.maximum(j, np.arange(1, x.size), out=j)
    i = np.arange(x.size - 1)
    while i.size:  # step down while the column before j is above t
        i = i[(j[i] > i + 1) & (_psi2(x[i] - x[j[i] - 1]) > t)]
        j[i] = np.maximum(np.searchsorted(x, x[j[i] - 1], side="left"), i + 1)
    i = np.flatnonzero(j < x.size)
    while i.size:  # step up while column j is at most t
        i = i[_psi2(x[i] - x[j[i]]) <= t]
        j[i] = np.searchsorted(x, x[j[i]], side="right")
        i = i[j[i] < x.size]
    return j


def _pairwise_cells(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """psi_2(x_i, x_j) over row i's columns lo_i <= j < hi_i, row by row."""
    size = hi - lo
    ends = np.cumsum(size)
    col = np.arange(ends[-1]) - np.repeat(ends - size - lo, size)
    return _psi2(x[np.repeat(np.arange(size.size), size)] - x[col])


def _select_pairwise(x: np.ndarray, rank: int) -> float:
    """Entry ``rank`` of the sorted pairwise pseudo-sample (after Croux & Rousseeuw
    1992).  Row i's columns [lo_i, hi_i) hold it; counting at and just below a
    pivot from a strided probe of them finds it (ties too) or moves past it."""
    n = x.size
    pairs, lo, hi = n * (n - 1) // 2, np.arange(1, n), np.full(n - 1, n)
    while True:
        size = hi - lo
        ends = np.cumsum(size)
        active, want = int(ends[-1]), rank + pairs - int(lo.sum())  # rank among active
        if active <= max(_SELECT_GATHER * n, _SELECT_HOLD):
            return float(np.partition(_pairwise_cells(x, lo, hi), want)[want])
        at = ((np.arange(_SELECT_PROBE) + 0.5) * (active / _SELECT_PROBE)).astype(np.int64)
        row = np.searchsorted(ends, at, side="right")
        probe = np.sort(_psi2(x[row] - x[lo[row] + at - ends[row] + size[row]]))
        pick = np.clip(want * _SELECT_PROBE // active + _SELECT_PIVOTS, 0, _SELECT_PROBE - 1)
        for p in np.unique(probe[pick]):
            le = _pairwise_bounds(x, p)
            if le.sum() - pairs <= rank:
                np.maximum(lo, le, out=lo)
                continue
            lt = _pairwise_bounds(x, np.nextafter(p, -np.inf))
            if lt.sum() - pairs <= rank:
                return float(p)
            np.minimum(hi, lt, out=hi)


def _square_sums(x: np.ndarray, start: np.ndarray, stop: np.ndarray) -> float:
    """Sum over rows i of (x_j - x_i)^2, start_i <= j < stop_i.  Level p of a
    binary-lifting table sums x_j - x_s and (x_j - x_s)^2 over 2^p entries from
    each s; rows shift blocks to x_(start_i), then x_i: no term is negative."""
    row = np.flatnonzero(stop > start)
    start, size = start[row], (stop - start)[row]
    t1, t2 = [np.zeros(x.size)], [np.zeros(x.size)]
    while size.size and 2 ** len(t1) <= size.max():
        h = 2 ** (len(t1) - 1)
        a1, a2 = t1[-1], t2[-1]
        d = x[h:a1.size] - x[:a1.size - h]  # upper half's first entry over s
        t1.append(a1[:-h] + a1[h:] + h * d)
        t2.append(a2[:-h] + a2[h:] + 2.0 * d * a1[h:] + h * d * d)
    s1, s2, at = np.zeros(row.size), np.zeros(row.size), start.copy()
    for p in reversed(range(len(t1))):
        sel = np.flatnonzero(size >> p & 1)
        s = at[sel]
        u, b1 = x[s] - x[start[sel]], t1[p][s]
        s2[sel] += t2[p][s] + 2.0 * u * b1 + 2**p * u * u
        s1[sel] += b1 + 2**p * u
        at[sel] += 2**p
    u = x[start] - x[row]
    return float(np.sum(s2 + 2.0 * u * s1 + size * u * u))


def _pairwise_window(x: np.ndarray, trim: TrimSpec, kind: str) -> float:
    """Exact k = 2 trimmed mean or median of the sorted sample x.  Few pairs are
    partitioned at both cuts; else each is selected, and a mean adds the ties at both
    to the sum between.  ``lstat._homogeneous`` runs it and rescales an overflow."""
    n, pairs = x.size, x.size * (x.size - 1) // 2
    if not math.isfinite(_psi2(x[0] - x[-1])):
        raise ArgumentError(_OVERFLOW)
    lo, hi = retained_window(pairs, trim)
    m = hi - lo
    cut = (lo + (m - 1) // 2, lo + m // 2) if kind == "median" else (lo, hi - 1)
    if pairs <= max(_SELECT_GATHER * n, _SELECT_HOLD):
        v = np.partition(_pairwise_cells(x, np.arange(1, n), np.full(n - 1, n)), cut)
        if kind == "median":
            return _midpoint(v[cut[0]], v[cut[1]])
        return float(v[lo:hi].mean())
    t_lo = _select_pairwise(x, cut[0])
    t_hi = t_lo if cut[1] == cut[0] else _select_pairwise(x, cut[1])
    if kind == "median" or t_lo == t_hi:  # an odd window's median is t_lo == t_hi
        return _midpoint(t_lo, t_hi)
    above = _pairwise_bounds(x, t_lo)  # first column > t_lo
    below = _pairwise_bounds(x, np.nextafter(t_hi, -np.inf))  # first column >= t_hi
    ties = (above.sum() - pairs - lo) * t_lo + (hi + pairs - below.sum()) * t_hi
    return float(ties + 0.5 * _square_sums(x, above, below)) / m
