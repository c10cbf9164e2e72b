"""Materialize the sorted kernel pseudo-sample over k-subsets of a sample.

Exact mode enumerates all C(n, k) combinations in disjoint rank blocks using
a combinadic (lexicographic rank <-> combination) bijection, so work units
partition the enumeration without coordination.  Monte Carlo mode draws
combinations uniformly with replacement, with one RNG substream per block
of 2^18 draws, so the result depends only on (sample, draws, seed) and
never on the plan's ``chunk`` or on how blocks are scheduled.

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
from .kernels import _check_order, kernel_values

__all__ = [
    "DEFAULT_BUDGET",
    "DEFAULT_CHUNK",
    "ExactPlan",
    "MonteCarloPlan",
    "PseudoPlan",
    "count_combinations",
    "rank_combination",
    "unrank_combination",
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


@dataclass(frozen=True)
class ExactPlan:
    """Enumerate every combination, provided C(n, k) <= budget."""

    budget: int = DEFAULT_BUDGET
    chunk: int = DEFAULT_CHUNK

    def __post_init__(self):
        if not isinstance(self.budget, (int, np.integer)) or self.budget < 1:
            raise ArgumentError(f"budget must be a positive integer, got {self.budget!r}")
        if not isinstance(self.chunk, (int, np.integer)) or self.chunk < 1:
            raise ArgumentError(f"chunk must be a positive integer, got {self.chunk!r}")


@dataclass(frozen=True)
class MonteCarloPlan:
    """Draw ``draws`` combinations uniformly with replacement, seeded."""

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


def _binomial_columns(n: int, k: int) -> list[np.ndarray]:
    # cols[i][m] = C(m, i) for i = 1..k; nondecreasing in m, int64-safe
    # because count_combinations(n, k) was checked by the caller.
    cols = []
    for i in range(1, k + 1):
        cols.append(np.array([math.comb(m, i) for m in range(n)], dtype=np.int64))
    return cols


def _unrank_lex(ranks: np.ndarray, n: int, k: int, total: int) -> np.ndarray:
    """Vectorized lexicographic unrank: (m,) ranks -> (m, k) ascending subsets.

    Uses the colexicographic unrank of the reversed complement: the r-th
    lex subset equals n-1 minus the (C(n,k)-1-r)-th colex subset, digit by
    digit.
    """
    cols = _binomial_columns(n, k)
    rem = (total - 1) - ranks.astype(np.int64)
    out = np.empty((ranks.shape[0], k), dtype=np.int64)
    for i in range(k, 0, -1):
        col = cols[i - 1]
        a = np.searchsorted(col, rem, side="right") - 1
        rem = rem - col[a]
        out[:, k - i] = (n - 1) - a
    return out


def unrank_combination(rank: int, n: int, k: int) -> tuple[int, ...]:
    """The lexicographically rank-th strictly increasing k-subset of {0..n-1}."""
    total = count_combinations(n, k)
    if not isinstance(rank, (int, np.integer)):
        raise ArgumentError(f"rank must be an integer, got {rank!r}")
    rank = int(rank)
    if not 0 <= rank < total:
        raise ArgumentError(f"rank {rank} outside [0, C({n},{k}) = {total})")
    if k == 0:
        return ()
    row = _unrank_lex(np.array([rank], dtype=np.int64), n, k, total)[0]
    return tuple(int(v) for v in row)


def rank_combination(combo, n: int, k: int) -> int:
    """Lexicographic rank of a strictly increasing k-subset of {0..n-1}."""
    total = count_combinations(n, k)
    combo = tuple(int(c) for c in combo)
    if len(combo) != k:
        raise ArgumentError(f"expected a {k}-subset, got {len(combo)} elements")
    if k == 0:
        return 0
    if combo[0] < 0 or combo[-1] >= n or any(a >= b for a, b in zip(combo, combo[1:])):
        raise ArgumentError(f"{combo} is not a strictly increasing subset of range({n})")
    rank = 0
    prev = -1
    for pos, c in enumerate(combo):
        for v in range(prev + 1, c):
            rank += math.comb(n - 1 - v, k - 1 - pos)
        prev = c
    assert rank < total
    return rank


def _sample_index_combinations(
    rng: np.random.Generator, n: int, k: int, m: int
) -> np.ndarray:
    """Draw m uniform k-subsets of {0..n-1}, rows sorted ascending.

    Sequential selection: the j-th index is uniform over the n-j values not
    yet chosen in its row, mapped past the chosen ones in ascending order.
    """
    sel = np.empty((m, k), dtype=np.int64)
    for j in range(k):
        v = rng.integers(0, n - j, size=m)
        if j:
            prev = np.sort(sel[:, :j], axis=1)
            for t in range(j):
                v = v + (v >= prev[:, t])
        sel[:, j] = v
    sel.sort(axis=1)
    return sel


def _monte_carlo_blocks(plan: MonteCarloPlan, n: int, k: int):
    """Yield the plan's index combinations in blocks of _MC_BLOCK draws.

    Block b is drawn from its own substream keyed by (seed, b), so the
    stream is fixed by (n, k, plan.draws, plan.seed) alone.
    """
    for block, start in enumerate(range(0, plan.draws, _MC_BLOCK)):
        rng = np.random.default_rng(np.random.SeedSequence(plan.seed, spawn_key=(block,)))
        yield _sample_index_combinations(rng, n, k, min(_MC_BLOCK, plan.draws - start))


def _checked_sample(sample, k: int) -> np.ndarray:
    x = np.asarray(sample, dtype=np.float64)
    if x.ndim != 1:
        raise ArgumentError(f"sample must be 1-D, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ArgumentError("sample entries must be finite (no NaN/inf)")
    if x.size < k:
        raise ArgumentError(f"sample size {x.size} is smaller than k={k}")
    return x


def build_pseudosample(sample, k: int, plan: PseudoPlan = ExactPlan()) -> np.ndarray:
    """Sorted kernel values psi_k over combinations of the sample.

    Exact plans produce all C(n, k) values (within ``plan.budget``);
    Monte Carlo plans produce ``plan.draws`` values over uniformly drawn
    combinations.  Output is ascending and a pure function of
    (sample, k, plan), independent of block scheduling.
    """
    k = _check_order(k)
    x = _checked_sample(sample, k)
    n = x.size

    if isinstance(plan, ExactPlan):
        total = count_combinations(n, k)
        if total > plan.budget:
            raise CapacityError(
                f"C({n}, {k}) = {total} exceeds the exact-mode budget "
                f"{plan.budget}; use a Monte Carlo plan"
            )
        out = np.empty(total)
        for start in range(0, total, plan.chunk):
            stop = min(start + plan.chunk, total)
            ranks = np.arange(start, stop, dtype=np.int64)
            idx = _unrank_lex(ranks, n, k, total)
            out[start:stop] = kernel_values(x[idx], k)
    elif isinstance(plan, MonteCarloPlan):
        out = np.empty(plan.draws)
        blocks = _monte_carlo_blocks(plan, n, k)
        sel = np.empty((0, k), dtype=np.int64)
        for start in range(0, plan.draws, plan.chunk):
            m = min(plan.chunk, plan.draws - start)
            while sel.shape[0] < m:
                block = next(blocks)
                sel = np.concatenate((sel, block)) if sel.shape[0] else block
            out[start:start + m] = kernel_values(x[sel[:m]], k)
            sel = sel[m:]
    else:
        raise ArgumentError(f"unknown plan type {type(plan).__name__}")

    if np.isnan(out).any():
        raise ArgumentError("kernel evaluation produced NaN; input is invalid")
    out += 0.0  # fold -0.0 into +0.0 so the sorted output is bit-canonical
    out.sort()
    return out
