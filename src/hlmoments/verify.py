"""Monte Carlo probes of the kernel-distribution theory, with typed reports.

Each probe draws from a parametric family, measures an empirical consequence
of the theory (shape of the pairwise-difference distribution, near-zero
median of the kernel distribution, variance dominance of the pairwise
trimmed SD, kernel extrema, affine equivariance) and returns a frozen report.
Reports share the package's one record codec: ``to_dict`` gives a flat,
tagged dict that survives JSON unchanged, and ``report_from_dict`` rebuilds
any of the five report types from it, raising ``ArgumentError`` on malformed
input.

All probes are deterministic functions of their arguments: replication
streams are derived from the seed with fixed spawn keys, never from global
state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .errors import ArgumentError
from .estimators import (
    hl_central_moment,
    hl_standardized_moment,
    trimmed_sd_pairwise,
    trimmed_sd_symmetric,
)
from .distributions import Family, Weibull, _open_unit
from .kernels import kernel_support_bounds, kernel_values
from .lstat import TrimSpec
from .pseudosample import ExactPlan, MonteCarloPlan
from .records import Record

__all__ = [
    "ShapeProbe",
    "VarianceComparison",
    "SupportBoundsReport",
    "EquivarianceReport",
    "McConsistencyReport",
    "pairwise_diff_probe",
    "kernel_shape_probe",
    "variance_comparison",
    "support_bound_probe",
    "equivariance_suite",
    "mc_consistency_probe",
    "report_from_dict",
]


def _checked_bins(n_draws: int, bins) -> int:
    """The histogram bin count: ``bins``, or about 2 n_draws^(1/3) when None."""
    if n_draws < 2:
        raise ArgumentError("n_draws must be at least 2")
    if bins is None:
        return int(math.ceil(2.0 * n_draws ** (1.0 / 3.0)))
    if not isinstance(bins, (int, np.integer)) or bins < 1:
        raise ArgumentError(f"bins must be a positive integer, got {bins!r}")
    return int(bins)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShapeProbe(Record):
    """Histogram summary of a simulated kernel or pairwise-difference draw.

    ``monotonicity`` is the fraction of adjacent bin pairs ordered the way a
    unimodal-toward-the-mode shape predicts (toward zero for the pairwise
    probe, toward the mode bin for kernel probes).
    """

    RECORD = "shape-probe"

    kind: str
    family: str
    k: int
    n_draws: int
    seed: int
    bin_edges: tuple[float, ...]
    counts: tuple[int, ...]
    median: float
    sigma: float
    mode_bin: int
    monotonicity: float
    abs_median_over_sigma: float


@dataclass(frozen=True)
class VarianceComparison(Record):
    """Replication variances of the two trimmed SDs across sample sizes."""

    RECORD = "variance-comparison"

    family: str
    eps: float
    n_values: tuple[int, ...]
    replications: int
    seed: int
    var_symmetric: tuple[float, ...]
    var_pairwise: tuple[float, ...]
    ratio: tuple[float, ...]


@dataclass(frozen=True)
class SupportBoundsReport(Record):
    """Grid-search extrema of psi_k under min=0, max=1 versus the bounds."""

    RECORD = "support-bounds"

    k: int
    resolution: int
    observed_min: float
    observed_max: float
    bound_lower: float
    bound_upper: float


@dataclass(frozen=True)
class EquivarianceReport(Record):
    """Worst relative deviation from kernel / estimator affine equivariance."""

    RECORD = "equivariance"

    trials: int
    seed: int
    max_k: int
    max_rel_dev_kernel: float
    max_rel_dev_standardized: float


@dataclass(frozen=True)
class McConsistencyReport(Record):
    """Relative deviation of Monte Carlo estimates from the exact estimate."""

    RECORD = "mc-consistency"

    family: str
    n: int
    k: int
    eps0: float
    gamma: float
    draws: int
    sample_seed: int
    seeds: tuple[int, ...]
    rel_devs: tuple[float, ...]
    tolerance: float
    passes: int


_REPORT_TYPES = {
    cls.RECORD: cls
    for cls in (
        ShapeProbe, VarianceComparison, SupportBoundsReport, EquivarianceReport,
        McConsistencyReport,
    )
}


def report_from_dict(d: dict):
    """Reconstruct any verify report; raise ``ArgumentError`` on malformed input."""
    if not isinstance(d, dict):
        raise ArgumentError(f"a report must be a dict, got {type(d).__name__}")
    tag = d.get("record")
    if not isinstance(tag, str) or tag not in _REPORT_TYPES:
        raise ArgumentError(f"unknown report record {tag!r}")
    return _REPORT_TYPES[tag].from_dict(d)


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------

def _shape_probe(kind, family, k, n_draws, seed, values, counts, edges, monotonicity):
    """The record of a probe's draw ``values`` and its histogram."""
    med, sigma = float(np.median(values)), float(values.std())
    return ShapeProbe(
        kind=kind,
        family=family.label,
        k=int(k),
        n_draws=int(n_draws),
        seed=int(seed),
        bin_edges=tuple(float(e) for e in edges),
        counts=tuple(int(c) for c in counts),
        median=med,
        sigma=sigma,
        mode_bin=int(np.argmax(counts)),
        monotonicity=monotonicity,
        abs_median_over_sigma=abs(med) / sigma if sigma > 0 else math.inf,
    )


def pairwise_diff_probe(
    family: Family,
    n_draws: int = 10**6,
    seed: int = 0,
    bins: int | None = None,
    tail_clip: float = 0.005,
) -> ShapeProbe:
    """Shape of the ordered pairwise difference X - X' (conditioned on X < X').

    For a unimodal parent this distribution lives on the negative axis with
    a density that increases monotonically toward its mode at zero, so the
    monotonicity statistic (fraction of adjacent bins non-decreasing toward
    zero) should approach 1.  ``tail_clip`` drops that lower quantile of the
    draw from the histogram range so a handful of extreme differences cannot
    flood the statistic with empty bins.
    """
    nbins = _checked_bins(n_draws, bins)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    u = _open_unit(rng, (int(n_draws), 2))
    x = family._q(u)
    d = -np.abs(x[:, 0] - x[:, 1])
    lo = float(np.quantile(d, tail_clip)) if tail_clip > 0 else float(d.min())
    counts, edges = np.histogram(d, bins=nbins, range=(lo, 0.0))
    mono = float(np.mean(counts[1:] >= counts[:-1]))
    return _shape_probe("pairwise-diff", family, 2, n_draws, seed, d, counts, edges, mono)


def kernel_shape_probe(
    family: Family,
    k: int,
    n_draws: int = 10**6,
    seed: int = 0,
    bins: int | None = None,
    tail_clip: float = 0.005,
) -> ShapeProbe:
    """Distribution of psi_k over independent k-tuples from the family.

    Reports |median| / sigma (expected to be small: the kernel distribution
    is unimodal-like with mode and median near zero) and a monotonicity
    statistic taken toward the mode bin from both sides, on a histogram
    clipped to the central (tail_clip, 1 - tail_clip) quantile range.
    """
    if k not in (3, 4):
        raise ArgumentError(f"kernel shape probe supports k in {{3, 4}}, got {k}")
    nbins = _checked_bins(n_draws, bins)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    u = _open_unit(rng, (int(n_draws), k))
    v = kernel_values(np.sort(family._q(u), axis=1), k)
    if tail_clip > 0:
        lo, hi = np.quantile(v, [tail_clip, 1.0 - tail_clip])
    else:
        lo, hi = float(v.min()), float(v.max())
    counts, edges = np.histogram(v, bins=nbins, range=(float(lo), float(hi)))
    mode = int(np.argmax(counts))
    left = counts[: mode + 1]
    right = counts[mode:]
    mono_left = float(np.mean(left[1:] >= left[:-1])) if left.size > 1 else 1.0
    mono_right = float(np.mean(right[1:] <= right[:-1])) if right.size > 1 else 1.0
    return _shape_probe("kernel", family, k, n_draws, seed, v, counts, edges,
                        min(mono_left, mono_right))


def variance_comparison(
    family: Family,
    n_values=(20, 50, 100),
    eps: float = 0.1,
    replications: int = 1000,
    seed: int = 0,
) -> VarianceComparison:
    """Replication variance of the symmetric-difference SD vs the pairwise SD.

    The pairwise pseudo-sample has ~n^2/2 entries against ~n/2 for the
    symmetric differences, so its trimmed SD is expected to be strictly more
    stable, increasingly so as n grows.
    """
    if replications < 2:
        raise ArgumentError("replications must be at least 2")
    n_values = tuple(int(n) for n in n_values)
    if any(n < 4 for n in n_values):
        raise ArgumentError("each n must be at least 4")
    var_sym = []
    var_pair = []
    for ni, n in enumerate(n_values):
        e1 = np.empty(replications)
        e2 = np.empty(replications)
        for r in range(replications):
            x = family.sample(n, np.random.SeedSequence(seed, spawn_key=(ni, r)))
            e1[r] = trimmed_sd_symmetric(x, eps).value
            e2[r] = trimmed_sd_pairwise(x, eps0=eps, gamma=1.0).value
        var_sym.append(float(np.var(e1, ddof=1)))
        var_pair.append(float(np.var(e2, ddof=1)))
    ratio = tuple(vs / vp for vs, vp in zip(var_sym, var_pair))
    return VarianceComparison(
        family=family.label,
        eps=float(eps),
        n_values=n_values,
        replications=int(replications),
        seed=int(seed),
        var_symmetric=tuple(var_sym),
        var_pairwise=tuple(var_pair),
        ratio=ratio,
    )


def support_bound_probe(k: int, resolution: int = 100) -> SupportBoundsReport:
    """Brute-force extrema of psi_k over grid tuples with min 0 and max 1.

    Enumerates sorted tuples (0, t_2, ..., t_{k-1}, 1) with interior
    coordinates on a uniform grid and compares the observed extrema with the
    closed-form bounds at range delta = -1.
    """
    if not isinstance(k, (int, np.integer)) or not 2 <= k <= 5:
        raise ArgumentError(f"support probe supports 2 <= k <= 5, got {k!r}")
    if not isinstance(resolution, (int, np.integer)) or resolution < 20:
        raise ArgumentError(f"resolution must be an integer >= 20, got {resolution!r}")
    k = int(k)
    resolution = int(resolution)
    interior = np.array(
        list(combinations_with_replacement(range(resolution + 1), k - 2)),
        dtype=np.float64,
    ) / float(resolution)
    tuples = np.empty((interior.shape[0], k))
    tuples[:, 0] = 0.0
    tuples[:, 1:-1] = interior
    tuples[:, -1] = 1.0
    v = kernel_values(tuples, k)  # rows are ascending by construction
    lower, upper = kernel_support_bounds(k, -1.0)
    return SupportBoundsReport(
        k=k,
        resolution=resolution,
        observed_min=float(v.min()),
        observed_max=float(v.max()),
        bound_lower=lower,
        bound_upper=upper,
    )


def equivariance_suite(
    trials: int = 10_000,
    seed: int = 0,
    max_k: int = 6,
    estimator_trials: int = 32,
) -> EquivarianceReport:
    """Random checks of psi_k(a*t + b) = a^k psi_k(t) and estimator invariance.

    Relative deviations are measured against max(|expected|, 1e-3 * S^k)
    where S bounds the transformed tuple magnitude; the floor keeps the
    ratio meaningful at tuples where the kernel is incidentally near zero.
    The estimator part checks that the standardized moment is unchanged (to
    relative accuracy) under x -> a*x + b with a > 0.
    """
    if trials < 100:
        raise ArgumentError("trials must be at least 100")
    if not 2 <= max_k <= 8:
        raise ArgumentError("max_k must lie in [2, 8]")
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    ks = rng.integers(2, max_k + 1, size=trials)
    max_rel_kernel = 0.0
    for k in range(2, max_k + 1):
        m = int(np.sum(ks == k))
        if m == 0:
            continue
        t = rng.uniform(-5.0, 5.0, size=(m, k))
        lam = rng.uniform(-3.0, 3.0, size=m)
        mu = rng.uniform(-5.0, 5.0, size=m)
        lhs = kernel_values(np.sort(lam[:, None] * t + mu[:, None], axis=1), k)
        rhs = lam**k * kernel_values(np.sort(t, axis=1), k)
        scale = (np.abs(lam) * np.abs(t).max(axis=1) + np.abs(mu)) ** k
        denom = np.maximum(np.abs(rhs), 1e-3 * np.maximum(scale, 1.0))
        max_rel_kernel = max(max_rel_kernel, float(np.max(np.abs(lhs - rhs) / denom)))

    rng2 = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    max_rel_est = 0.0
    for _ in range(estimator_trials):
        n = int(rng2.integers(8, 16))
        x = rng2.exponential(size=n)  # skewed, so the moment is well away from 0
        k = int(rng2.integers(3, 5))
        eps0 = float(rng2.choice([0.0, 0.1]))
        lam = float(rng2.uniform(0.5, 3.0))
        mu = float(rng2.uniform(-5.0, 5.0))
        trim = TrimSpec(eps0=eps0)
        v1 = hl_standardized_moment(x, k, trim).value
        v2 = hl_standardized_moment(lam * x + mu, k, trim).value
        rel = abs(v1 - v2) / max(abs(v1), 1e-6)
        max_rel_est = max(max_rel_est, rel)

    return EquivarianceReport(
        trials=int(trials),
        seed=int(seed),
        max_k=int(max_k),
        max_rel_dev_kernel=max_rel_kernel,
        max_rel_dev_standardized=max_rel_est,
    )


def mc_consistency_probe(
    family: Family = Weibull(1.0, 1.0),
    n: int = 20,
    k: int = 3,
    eps0: float = 0.1,
    gamma: float = 1.0,
    draws: int = 10**6,
    n_seeds: int = 10,
    sample_seed: int = 2024,
    first_seed: int = 0,
    tolerance: float = 0.01,
) -> McConsistencyReport:
    """Monte Carlo plans against the exact plan on one fixed sample.

    Draws one sample, computes the exact trimmed kernel moment, then repeats
    the Monte Carlo estimate over consecutive seeds and reports relative
    deviations and the number within tolerance.
    """
    if not isinstance(n_seeds, (int, np.integer)) or n_seeds < 1:
        raise ArgumentError(f"n_seeds must be a positive integer, got {n_seeds!r}")
    x = family.sample(n, sample_seed)
    trim = TrimSpec(eps0=eps0, gamma=gamma)
    exact = hl_central_moment(x, k, trim, plan=ExactPlan()).value
    if exact == 0.0:
        raise ArgumentError("exact estimate is zero; relative deviation undefined")
    seeds = tuple(range(first_seed, first_seed + n_seeds))
    devs = []
    for s in seeds:
        mc = hl_central_moment(x, k, trim, plan=MonteCarloPlan(draws=draws, seed=s)).value
        devs.append(abs(mc - exact) / abs(exact))
    passes = sum(d <= tolerance for d in devs)
    return McConsistencyReport(
        family=family.label,
        n=int(n),
        k=int(k),
        eps0=float(eps0),
        gamma=float(gamma),
        draws=int(draws),
        sample_seed=int(sample_seed),
        seeds=seeds,
        rel_devs=tuple(float(d) for d in devs),
        tolerance=float(tolerance),
        passes=int(passes),
    )
