"""Arithmetic behind the benchmark's reported numbers.

Kept free of hlmoments and numpy imports: ``run.py`` imports it before it
times ``import hlmoments``, and the rules can be tested on their own.
"""

from __future__ import annotations

import math

#: A tail percentile is only reported where at least this many jobs lie beyond it.
MIN_BEYOND = 10


def tail_percentile(times):
    """Highest integer percentile with at least MIN_BEYOND jobs beyond it.

    Returns ``(percentile, value, beyond)``.  The value is the nearest-rank
    order statistic: the job at 1-based rank ceil(p * N / 100) of the sorted
    times, with ``beyond = N - rank`` jobs above it.  The percentile is
    floor(100 * (N - MIN_BEYOND) / N), capped at 99; below 50 (fewer than
    2 * MIN_BEYOND jobs) the median rank is used and ``beyond`` then reports
    honestly how few jobs lie past it.  A failed job is passed as ``inf`` so
    that it counts as missing every latency limit.
    """
    xs = sorted(times)
    n = len(xs)
    if n == 0:
        raise ValueError("no job times")
    p = min(99, (100 * (n - MIN_BEYOND)) // n) if n > MIN_BEYOND else 0
    p = max(p, 50)
    rank = max(1, math.ceil(p * n / 100))
    return p, xs[rank - 1], n - rank


def failed_frac(failed: int, attempted: int) -> float:
    """Failed operations over attempted operations (timed jobs plus reference checks)."""
    if attempted < 1:
        raise ValueError("nothing was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted


def self_times(spans):
    """Self time of each span: its duration minus the durations of its direct children.

    ``spans`` is a sequence of ``(parent, start, end)`` where ``parent`` is the
    index of the enclosing span or ``None``.  Spans are recorded on one thread
    by a call stack, so children nest inside their parent and do not overlap;
    the sum of their durations is the part of the parent they cover.
    """
    out = [end - start for _, start, end in spans]
    for parent, start, end in spans:
        if parent is not None:
            out[parent] -= end - start
    return out
