"""Materialize the sorted kernel pseudo-sample over k-subsets of a sample.

The sample is sorted once and every index tuple is strictly increasing, so
every gathered row is ascending already.  Exact mode enumerates all C(n, k)
combinations in colexicographic blocks.  Monte Carlo mode draws combinations
uniformly with replacement, with one RNG substream per block of 2^18 draws,
so the result depends only on (sample, draws, seed) and never on the plan's
``chunk`` or on how blocks are scheduled.

The returned pseudo-sample is sorted ascending with -0.0 normalized to +0.0,
making it bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import (
    ArgumentError,
    CapacityError,
    CombinationOverflowError,
)
from .kernels import _check_order, _psi2, kernel_values
from .lstat import _OVERFLOW, TrimSpec, _midpoint, retained_window

__all__ = [
    "DEFAULT_BUDGET",
    "DEFAULT_CHUNK",
    "ExactPlan",
    "MonteCarloPlan",
    "PseudoPlan",
    "count_combinations",
    "build_pseudosample",
]

#: Default cap on C(n, k) for exact enumeration.
DEFAULT_BUDGET = 50_000_000

#: Default combinations (or draws) gathered and evaluated at once.
DEFAULT_CHUNK = 1 << 18

# Draws per Monte Carlo RNG substream.  It defines the stream, so it is
# fixed: changing it changes every Monte Carlo result.
_MC_BLOCK = 1 << 18

_MAX_UINT64 = 2**64 - 1
_MAX_INT64 = 2**63 - 1

# Pairwise selection probes 4096 cells a round, pivots two binomial SDs either
# side of the target, and partitions once at most max(16 n, 32768) cells remain.
_SELECT_PROBE, _SELECT_PIVOTS, _SELECT_GATHER, _SELECT_HOLD = 4096, np.array([-64, 64]), 16, 1 << 15


@dataclass(frozen=True)
class ExactPlan:
    """Enumerate every combination, provided C(n, k) <= budget.

    Gathers at most ``chunk`` combinations at once: beyond the C(n, k) output
    values they take O(chunk * k) memory, however large C(n, k) is, and the
    kernel's own temporaries are bounded by its fixed row tile.
    """

    budget: int = DEFAULT_BUDGET
    chunk: int = DEFAULT_CHUNK

    def __post_init__(self):
        if not isinstance(self.budget, (int, np.integer)) or self.budget < 1:
            raise ArgumentError(f"budget must be a positive integer, got {self.budget!r}")
        if not isinstance(self.chunk, (int, np.integer)) or self.chunk < 1:
            raise ArgumentError(f"chunk must be a positive integer, got {self.chunk!r}")


@dataclass(frozen=True)
class MonteCarloPlan:
    """Draw ``draws`` combinations uniformly with replacement, seeded.

    Gathers at most ``chunk`` combinations at once: beyond the ``draws``
    output values they take O(chunk * k) memory plus one block of 2^18 draws,
    and the kernel's own temporaries are bounded by its fixed row tile.
    """

    draws: int
    seed: int = 0
    chunk: int = DEFAULT_CHUNK

    def __post_init__(self):
        if not isinstance(self.draws, (int, np.integer)) or self.draws < 1:
            raise ArgumentError(f"draws must be >= 1, got {self.draws!r}")
        if not isinstance(self.seed, (int, np.integer)) or not 0 <= self.seed <= _MAX_UINT64:
            raise ArgumentError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")
        if not isinstance(self.chunk, (int, np.integer)) or self.chunk < 1:
            raise ArgumentError(f"chunk must be a positive integer, got {self.chunk!r}")


PseudoPlan = Union[ExactPlan, MonteCarloPlan]


def count_combinations(n: int, k: int) -> int:
    """Exact C(n, k); raises once the count no longer fits in 64 bits."""
    if not isinstance(n, (int, np.integer)) or not isinstance(k, (int, np.integer)):
        raise ArgumentError("n and k must be integers")
    n = int(n)
    k = int(k)
    if n < 0 or not 0 <= k <= n:
        raise ArgumentError(f"need 0 <= k <= n, got n={n}, k={k}")
    total = math.comb(n, k)
    if total > _MAX_INT64:
        raise CombinationOverflowError(
            f"C({n}, {k}) = {total} exceeds 64-bit range; use a Monte Carlo plan"
        )
    return total


def _sample_index_combinations(
    rng: np.random.Generator, n: int, k: int, m: int
) -> np.ndarray:
    """Draw m uniform k-subsets of {0..n-1}, rows sorted ascending.

    Sequential selection: the j-th index is uniform over the n-j values not
    yet chosen in its row, mapped past the chosen ones (kept ascending) and
    inserted among them.
    """
    sel = np.empty((k, m), dtype=np.int64)  # one contiguous row per position
    for j in range(k):
        v = rng.integers(0, n - j, size=m)
        for t in range(j):
            v += v >= sel[t]
        for t in range(j):
            low = np.minimum(sel[t], v)
            np.maximum(sel[t], v, out=v)
            sel[t] = low
        sel[j] = v
    return sel.T


def _monte_carlo_rows(x: np.ndarray, k: int, plan: MonteCarloPlan):
    """Yield the plan's drawn rows of x, at most ``plan.chunk`` at a time.

    Block b of _MC_BLOCK draws comes from its own substream keyed by
    (seed, b), so the stream is fixed by (n, k, plan.draws, plan.seed) alone.
    """
    for block, start in enumerate(range(0, plan.draws, _MC_BLOCK)):
        rng = np.random.default_rng(np.random.SeedSequence(plan.seed, spawn_key=(block,)))
        sel = _sample_index_combinations(rng, x.size, k, min(_MC_BLOCK, plan.draws - start))
        for at in range(0, sel.shape[0], plan.chunk):
            yield x[sel[at:at + plan.chunk]]


def _exact_rows(x: np.ndarray, k: int, chunk: int):
    """Yield the rows of x at every k-subset of indices, at most ``chunk`` at a time.

    In colexicographic order the r-subsets of range(m) are the first
    C(m, r) entries of one table, so "every r-subset of range(m), then x at
    fixed larger indices ``top``" is a table prefix plus constants.  Such a
    block is packed into the reused buffer (which every yielded view
    shares) when it has at most chunk // r rows, or when r = 1 (the table
    is x itself); otherwise it is split by its largest free index j.
    Tables for r >= 2 are capped at chunk // r rows as well, so tables and
    buffer hold O(chunk * k) values together.
    """
    n, xs = x.size, x.tolist()
    # tables[q]: x at the colex q-subsets, one contiguous row per position
    tables = [None, x[None, :]]

    def blocks(r, m, top):
        size = math.comb(m, r)
        if r == 1 or size <= chunk // r:
            for a in range(0, size, chunk):  # only r = 1 blocks exceed a chunk
                yield r, a, min(a + chunk, size), top
        else:
            for j in range(r - 1, m):
                yield from blocks(r - 1, j, (xs[j],) + top)

    buf = np.empty((k, min(chunk, math.comb(n, k))))
    fill = 0
    for r, a, b, top in blocks(k, n, ()):
        while len(tables) <= r:  # table q: for each j, table q - 1 up to C(j, q - 1), then j
            q = m = len(tables)  # no block at level q reaches past index n - (k - q)
            while m < n - (k - q) and math.comb(m + 1, q) <= chunk // q:
                m += 1
            counts = np.array([math.comb(j, q - 1) for j in range(q - 1, m)])
            at = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
            tables.append(np.vstack((tables[-1][:, at], np.repeat(x[q - 1:m], counts))))
        if fill + b - a > buf.shape[1]:
            yield buf[:, :fill].T
            fill = 0
        buf[:r, fill:fill + b - a] = tables[r][:, a:b]
        buf[r:, fill:fill + b - a] = np.reshape(top, (-1, 1))
        fill += b - a
    yield buf[:, :fill].T


def _checked_sample(sample, k: int) -> np.ndarray:
    try:
        x = np.asarray(sample, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ArgumentError(f"sample must be real numbers: {exc}") from exc
    if x.ndim != 1:
        raise ArgumentError(f"sample must be 1-D, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ArgumentError("sample entries must be finite (no NaN/inf)")
    if x.size < k:
        raise ArgumentError(f"sample size {x.size} is smaller than k={k}")
    return x


def _sorted_sample(sample, k, plan: PseudoPlan) -> tuple[int, np.ndarray, int]:
    """(k, sorted sample, pseudo-sample size) of a valid order, sample and plan
    whose exact C(n, k) is within its budget: what both routes start from."""
    k = _check_order(k)
    x = _checked_sample(sample, k)
    if isinstance(plan, ExactPlan):
        total = count_combinations(x.size, k)
        if total > plan.budget:
            raise CapacityError(
                f"C({x.size}, {k}) = {total} exceeds the exact-mode budget "
                f"{plan.budget}; use a Monte Carlo plan"
            )
    elif isinstance(plan, MonteCarloPlan):
        total = plan.draws
    else:
        raise ArgumentError(f"unknown plan type {type(plan).__name__}")
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
        chunks = _exact_rows(x, k, plan.chunk)
    else:
        chunks = _monte_carlo_rows(x, k, plan)
    out = np.empty(total)
    start = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for rows in chunks:
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
