"""Robust central-moment and scale estimators on kernel pseudo-samples.

The headline estimator applies an L-estimator (by default a trimmed mean) to
the sorted pseudo-sample of central-moment kernel values over all k-subsets
of the data — a generalized Hodges-Lehmann construction in the sense of
Serfling (1984).  With no trimming it reduces exactly to the U-statistic,
i.e. the minimum-variance unbiased estimator of the kth central moment.

Two trimmed standard deviations are provided for comparison:

* ``trimmed_sd_pairwise`` — square root of the trimmed mean of the sorted
  pairwise kernel values (x_i - x_j)^2 / 2, following Bickel and Lehmann's
  pairwise-difference measure of spread.  With no trimming it equals the
  Bessel-corrected sample standard deviation exactly (the 1/sqrt(2) scaling
  of the pairwise differences makes the estimand sigma rather than
  sqrt(2) sigma).
* ``trimmed_sd_symmetric`` — root mean square of symmetric order-statistic
  differences X_(i) - X_(n-i+1) for i from floor(n/2)+1 up to
  floor(n(1-eps)), normalized by the retained term count.  Its pseudo-sample
  has only ~n/2 entries, which is why its variance loses to the pairwise
  form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import ArgumentError, DegenerateSampleError, DegenerateTrimError
from .lstat import (
    LEstimatorSpec,
    TrimSpec,
    _check_fraction,
    _homogeneous,
    _snap,
    apply_lestimator,
    breakdown_from_trim,
    trimmed_mean,  # unused here, but perfbench/spans.py wraps estimators.trimmed_mean
)
from .pseudosample import (
    ExactPlan, MonteCarloPlan, PseudoPlan, _checked_sample, _pairwise_window, _sorted_sample,
    build_pseudosample,
)
from .records import Record

__all__ = [
    "MomentEstimate",
    "hl_central_moment",
    "hl_standardized_moment",
    "trimmed_sd_pairwise",
    "trimmed_sd_symmetric",
    "sample_central_moment",
    "h_statistic",
]


@dataclass(frozen=True)
class MomentEstimate(Record):
    """An estimate with full provenance.

    ``eps0``/``gamma`` are the pseudo-sample trim parameters, ``eps`` the
    induced sample-level breakdown point, ``pseudo_n`` the pseudo-sample
    size (C(n, k) for exact plans, the draw count for Monte Carlo plans),
    and ``seed`` the Monte Carlo seed when one was used.
    """

    RECORD = "moment-estimate"

    value: float
    k: int
    eps0: float
    gamma: float
    eps: float
    n: int
    pseudo_n: int
    method: str
    seed: Optional[int] = None


def _estimate(sample, k, trim, estimator, plan) -> MomentEstimate:
    """``hl_central_moment``'s record; the other callers replace its ``method``."""
    if not isinstance(trim, TrimSpec):
        raise ArgumentError(f"trim must be a TrimSpec, got {trim!r}")
    if not isinstance(estimator, LEstimatorSpec):
        raise ArgumentError(f"estimator must be an LEstimatorSpec, got {estimator!r}")
    if k == 2 and estimator.kind != "weighted" and isinstance(plan, ExactPlan):
        _, x, pseudo_n = _sorted_sample(sample, k, plan)
        value = _homogeneous(lambda s: _pairwise_window(s, trim, estimator.kind), x, 2)
    else:
        pseudo = build_pseudosample(sample, k, plan)
        value, pseudo_n = apply_lestimator(estimator, pseudo, trim), pseudo.size
    return MomentEstimate(
        value=value,
        k=int(k),
        eps0=trim.eps0,
        gamma=trim.gamma,
        eps=breakdown_from_trim(trim.eps0, int(k)),
        n=int(np.asarray(sample).size),
        pseudo_n=int(pseudo_n),
        method=f"hl-central-moment/{estimator.kind}",
        seed=plan.seed if isinstance(plan, MonteCarloPlan) else None,
    )


def hl_central_moment(
    sample,
    k: int,
    trim: TrimSpec = TrimSpec(),
    estimator: LEstimatorSpec = LEstimatorSpec.trimmed_mean(),
    plan: PseudoPlan = ExactPlan(),
) -> MomentEstimate:
    """L-estimate of the kth central moment from the kernel pseudo-sample.

    With ``trim.eps0 = 0`` and the trimmed-mean estimator this equals the
    U-statistic, the minimum-variance unbiased estimator of the kth central
    moment.  Exact k = 2 trimmed means and medians hold O(n log n), not the
    C(n, 2) pseudo-sample, which ``plan.budget`` still caps.
    """
    return _estimate(sample, k, trim, estimator, plan)


def hl_standardized_moment(
    sample,
    k: int,
    trim: TrimSpec = TrimSpec(),
    trim_scale: Optional[TrimSpec] = None,
    estimator: LEstimatorSpec = LEstimatorSpec.trimmed_mean(),
    plan: PseudoPlan = ExactPlan(),
) -> MomentEstimate:
    """Scale-free kth moment: kth estimate over the variance estimate^(k/2).

    The denominator is the same construction at k = 2, trimmed by
    ``trim_scale`` (defaults to ``trim``).  Invariant under x -> a*x + b for
    a > 0; for odd k the sign flips when a < 0.  The reported breakdown is
    the smaller of the numerator's and denominator's.
    """
    if not isinstance(k, (int, np.integer)) or k < 3:
        raise ArgumentError(f"standardized moments need k >= 3, got {k!r}")
    if trim_scale is None:
        trim_scale = trim
    num = hl_central_moment(sample, k, trim, estimator, plan)
    den = hl_central_moment(sample, 2, trim_scale, estimator, plan)
    if den.value <= 0.0:
        raise DegenerateSampleError(
            f"variance estimate {den.value} is not positive; sample is degenerate"
        )
    return replace(num, value=num.value / den.value ** (k / 2.0), eps=min(num.eps, den.eps),
                   method=f"hl-standardized-moment/{estimator.kind}")


def trimmed_sd_pairwise(
    sample,
    eps0: float = 0.0,
    gamma: float = 1.0,
    plan: PseudoPlan = ExactPlan(),
) -> MomentEstimate:
    """Trimmed SD from the sorted pairwise kernel values (x_i - x_j)^2 / 2.

    With eps0 = 0 this equals the Bessel-corrected sample standard
    deviation to floating-point accuracy.  Exact plans hold O(n log n), not
    the C(n, 2) pairs, which ``plan.budget`` still caps.
    """
    trim = TrimSpec(eps0=eps0, gamma=gamma)
    est = _estimate(sample, 2, trim, LEstimatorSpec.trimmed_mean(), plan)
    return replace(est, value=math.sqrt(est.value), method="trimmed-sd-pairwise")


def trimmed_sd_symmetric(sample, eps: float = 0.0) -> MomentEstimate:
    """Trimmed SD from symmetric order-statistic differences.

    Averages (X_(i) - X_(n-i+1))^2 over i = floor(n/2)+1 .. floor(n(1-eps))
    (1-based order statistics) and takes the square root; the normalizer is
    the actual number of retained terms, which matches n(1/2 - eps) whenever
    the cut points are integral.
    """
    _check_fraction("eps", eps, 0.5)
    xs = np.sort(_checked_sample(sample, 2))
    n = xs.size
    lo = n // 2 + 1
    hi = math.floor(_snap(n * (1.0 - eps)))
    if hi < lo:
        raise DegenerateTrimError(
            f"eps={eps} retains no symmetric differences for n={n}"
        )
    i = np.arange(lo, hi + 1)
    value = _homogeneous(lambda s: math.sqrt(np.mean((s[i - 1] - s[n - i]) ** 2)), xs, 1)
    return MomentEstimate(
        value=value,
        k=2,
        eps0=float(eps),
        gamma=1.0,
        eps=float(eps),
        n=n,
        pseudo_n=n - n // 2,
        method="trimmed-sd-symmetric",
        seed=None,
    )


def sample_central_moment(sample, k: int) -> float:
    """Plug-in moment m_k = mean((x - mean(x))^k); biased, non-robust comparator."""
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ArgumentError(f"k must be a positive integer, got {k!r}")
    return _homogeneous(lambda x: np.mean((x - x.mean()) ** k), _checked_sample(sample, 1), k)


def h_statistic(sample, k: int) -> float:
    """Closed-form unbiased estimator of the kth central moment, k in {2, 3, 4}.

    These are the classical h-statistics; they equal the kernel U-statistic
    and serve as an independent cross-check of the enumeration route.
    """
    if not isinstance(k, (int, np.integer)) or k not in (2, 3, 4):
        raise ArgumentError(f"h_statistic supports k in {{2, 3, 4}}, got {k!r}")
    x = _checked_sample(sample, k)
    return _homogeneous(lambda s: _h_statistic(s, k), x, k)


def _h_statistic(x: np.ndarray, k: int) -> float:
    n = x.size
    d = x - x.mean()
    if k == 2:
        return (d @ d) / (n - 1)
    if k == 3:
        m3 = np.mean(d**3)
        return n * n * m3 / ((n - 1) * (n - 2))
    m2 = np.mean(d**2)
    m4 = np.mean(d**4)
    num = 3.0 * n * (3.0 - 2.0 * n) * m2 * m2 + n * (n * n - 2.0 * n + 3.0) * m4
    return num / ((n - 1) * (n - 2) * (n - 3))
