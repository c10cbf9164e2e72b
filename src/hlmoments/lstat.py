"""L-estimators over sorted sequences, and the trim/breakdown mapping.

An L-estimator here acts on an already-sorted pseudo-sample.  Trimming is
positional: for a sequence of length N and trim parameters (eps0, gamma),
the retained entries are the 1-based positions

    ceil(N * gamma * eps0) + 1  ...  floor(N * (1 - eps0))

i.e. a fraction gamma*eps0 is cut from the bottom and eps0 from the top.
When the cut points are integers this reduces to summing between indices
N*gamma*eps0 and N*(1-eps0); for non-integer cut points the window above is
the convention used throughout.

Trimming a fraction eps0 of the pseudo-sample of k-subset kernel values
corresponds to a sample-level breakdown point of

    eps = 1 - (1 - eps0)^(1/k)

since a contaminated point survives only in subsets avoiding it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    _OVERFLOW,
    ArgumentError,
    ConfigurationError,
    ContractViolationError,
    DegenerateTrimError,
    _instance,
    _integer,
    _real,
    _reals,
)

__all__ = [
    "TrimSpec",
    "LEstimatorSpec",
    "retained_window",
    "trimmed_mean",
    "median_sorted",
    "apply_lestimator",
    "breakdown_from_trim",
    "trim_from_breakdown",
]


def _snap(x: float, tol: float = 1e-9) -> float:
    # Guards ceil/floor against float noise when N*eps0 is meant to be integral.
    r = round(x)
    return float(r) if abs(x - r) <= tol * max(1.0, abs(x)) else x


@dataclass(frozen=True)
class TrimSpec:
    """Trimming parameters: upper fraction ``eps0``, lower multiplier ``gamma``."""

    eps0: float = 0.0
    gamma: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "eps0", _real("eps0", self.eps0, 0.0, 1.0, open_high=True))
        object.__setattr__(self, "gamma", _real("gamma", self.gamma, 0.0))
        if self.gamma * self.eps0 + self.eps0 >= 1.0:
            raise ArgumentError(
                f"gamma*eps0 + eps0 = {self.gamma * self.eps0 + self.eps0} leaves "
                "no retained window"
            )


@dataclass(frozen=True)
class LEstimatorSpec:
    """Which L-estimator to apply to the sorted, trimmed pseudo-sample.

    ``weights`` (for kind "weighted") maps the retained window length m to a
    non-negative weight vector of length m summing to 1.  Any weight profile
    can be plugged in this way; the shipped default everywhere is the plain
    trimmed mean.
    """

    kind: str = "trimmed-mean"
    weights: Optional[Callable[[int], np.ndarray]] = None

    _KINDS = ("trimmed-mean", "median", "weighted")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ConfigurationError(
                f"unknown L-estimator kind {self.kind!r}; expected one of {self._KINDS}"
            )
        if self.kind == "weighted" and not callable(self.weights):
            raise ConfigurationError("kind 'weighted' requires a weights function")

    @classmethod
    def trimmed_mean(cls) -> "LEstimatorSpec":
        return cls(kind="trimmed-mean")

    @classmethod
    def median(cls) -> "LEstimatorSpec":
        return cls(kind="median")

    @classmethod
    def weighted(cls, weights: Callable[[int], np.ndarray]) -> "LEstimatorSpec":
        return cls(kind="weighted", weights=weights)


def retained_window(n: int, trim: TrimSpec) -> tuple[int, int]:
    """Half-open 0-based index window [lo, hi) retained after trimming."""
    n = _integer("n", n, 1)
    trim = _instance("trim", trim, TrimSpec)
    lo = math.ceil(_snap(n * trim.gamma * trim.eps0))
    hi = math.floor(_snap(n * (1.0 - trim.eps0)))
    if hi - lo < 1:
        raise DegenerateTrimError(
            f"trim (eps0={trim.eps0}, gamma={trim.gamma}) retains no entries "
            f"of a length-{n} sequence"
        )
    return lo, hi


def _midpoint(a, b) -> np.ndarray:
    """(a + b) / 2 of finite a and b, elementwise, halving each first only where a + b
    overflows: halving a subnormal first would drop its last bit."""
    with np.errstate(over="ignore"):
        total = np.add(a, b)
    return np.where(np.isfinite(total), 0.5 * total, 0.5 * a + 0.5 * b)


def _homogeneous(f, x: np.ndarray, degree: int) -> float:
    """f(x) for an f of the sample that is homogeneous of ``degree``.  Where that
    overflows, f(x * 2^-h) * 2^(h * degree) with |x| * 2^-h < 1/2 (power-of-two
    scaling is exact), or the overflow error when the value is beyond a double."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(f(x))
        if not math.isfinite(value):
            h = math.frexp(float(np.max(np.abs(x))))[1] + 1
            try:
                value = math.ldexp(float(f(np.ldexp(x, -h))), h * degree)
            except OverflowError:  # raised for a finite value only; inf and NaN pass through
                value = math.inf
    if not math.isfinite(value):
        raise ArgumentError(_OVERFLOW)
    return value


def trimmed_mean(sorted_values, trim: TrimSpec = TrimSpec()) -> float:
    """Mean of the retained window of an ascending sequence.

    With eps0 = 0 this is the plain arithmetic mean.
    """
    return apply_lestimator(LEstimatorSpec.trimmed_mean(), sorted_values, trim)


def median_sorted(sorted_values) -> float:
    """Median of an ascending sequence (mean of the two middles when even)."""
    return apply_lestimator(LEstimatorSpec.median(), sorted_values)


def apply_lestimator(
    spec: LEstimatorSpec, sorted_values, trim: TrimSpec = TrimSpec()
) -> float:
    """Apply the selected L-estimator to the trimmed window of sorted data."""
    spec = _instance("spec", spec, LEstimatorSpec)
    arr = _reals("sorted_values", sorted_values, 1)
    if arr.size == 0:
        raise ArgumentError("expected a non-empty sequence")
    if np.any(arr[1:] < arr[:-1]):  # np.diff would copy the whole sequence
        raise ContractViolationError("input sequence must be sorted ascending")
    lo, hi = retained_window(arr.size, trim)
    window = arr[lo:hi]
    if spec.kind == "trimmed-mean":
        return _homogeneous(np.mean, window, 1)
    if spec.kind == "median":
        return float(_midpoint(window[(window.size - 1) // 2], window[window.size // 2]))
    try:
        w = _reals("weights", spec.weights(window.size))
    except ArgumentError as exc:
        raise ConfigurationError(f"weights function returned bad weights: {exc}") from exc
    if w.shape != window.shape:
        raise ConfigurationError(
            f"weights function returned shape {w.shape} for window of "
            f"length {window.size}"
        )
    if np.any(w < 0):
        raise ConfigurationError("weights must be non-negative")
    total = w.sum()
    if not math.isclose(total, 1.0, rel_tol=0.0, abs_tol=1e-9):
        raise ConfigurationError(f"weights must sum to 1, got {total!r}")
    return float(w @ window)


def breakdown_from_trim(eps0: float, k: int) -> float:
    """Sample breakdown eps = 1 - (1 - eps0)^(1/k) for k-subset pseudo-samples."""
    k = _integer("k", k, 1)
    eps0 = _real("eps0", eps0, 0.0, 1.0, open_high=True)
    return 1.0 - (1.0 - eps0) ** (1.0 / k)


def trim_from_breakdown(eps: float, k: int) -> float:
    """Inverse of :func:`breakdown_from_trim`: eps0 = 1 - (1 - eps)^k."""
    k = _integer("k", k, 1)
    eps = _real("eps", eps, 0.0, 1.0, open_high=True)
    return 1.0 - (1.0 - eps) ** k
