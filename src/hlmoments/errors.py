"""Exception hierarchy, and the one rule each for integer, real, array and typed arguments.

Public functions never raise a bare ValueError: every contract violation maps
to one of the semantic errors below so callers (and the CLI) can translate
failures into stable exit codes.

Every integer parameter of the public API (orders, counts, sizes, seeds) is
checked by ``_integer``: it takes any ``numbers.Integral`` but ``bool`` (so
``np.int64`` too) within the parameter's range and returns a Python ``int``;
anything else (``2.5``, ``3.0``, ``True``, an out-of-range value) raises
``ArgumentError``.

Every real-valued parameter (trim fractions, family parameters, levels) is
checked by ``_real``: it takes any ``numbers.Real`` but ``bool`` (so
``np.float32`` and integers too) that is finite and within the parameter's
range and returns a Python ``float``; anything else (``True``, ``"2"``,
``nan``, ``inf``, an out-of-range value) raises ``ArgumentError``.

Every array parameter is read by ``_reals``: what numpy reads as integers or
floats, or objects that are all reals but bools (Fractions, ints beyond
int64), becomes float64, finite unless the function documents otherwise;
text, bool, complex, ragged or non-real input raises ``ArgumentError``.
Report record fields follow the integer and real rules (see ``records``).

A typed parameter (a trim, an L-estimator, a plan, a family, a spec string, a
tuple or list of sizes) is checked by ``_instance``: a value of any other class
raises ``ArgumentError``.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

__all__ = [
    "ArgumentError",
    "CapacityError",
    "CombinationOverflowError",
    "ConfigurationError",
    "ContractViolationError",
    "DegenerateSampleError",
    "DegenerateTrimError",
    "EstimatorError",
    "UnsupportedOrderError",
]


class EstimatorError(Exception):
    """Base class for all errors raised by this package."""


class ArgumentError(EstimatorError, ValueError):
    """An argument violates its domain contract (shape, range, finiteness)."""


class UnsupportedOrderError(ArgumentError):
    """Requested moment order is above the supported cap."""


class ContractViolationError(EstimatorError):
    """Input that the caller promised to provide (e.g. sorted data) is not."""


class DegenerateTrimError(EstimatorError):
    """Trimming removed every entry; the retained window is empty."""


class ConfigurationError(EstimatorError):
    """An estimator configuration is inconsistent (e.g. unnormalized weights)."""


class DegenerateSampleError(EstimatorError):
    """The sample carries no usable signal (e.g. zero variance estimate)."""


class CapacityError(EstimatorError):
    """Exact enumeration would exceed the configured budget."""


class CombinationOverflowError(CapacityError):
    """A combination count does not fit in 64 bits; use Monte Carlo instead."""


# Finite samples whose kernel values, or their means, overflow: every route raises
# this after evaluating with numpy's overflow and invalid-value warnings silenced.
_OVERFLOW = "kernel values overflow; the sample's range is too wide"


def _integer_range(low: int, high: int | None = None) -> str:
    """How messages name the integers in [low, high]."""
    if high is not None:
        return f"an integer in [{low}, {high}]"
    return {0: "a non-negative integer", 1: "a positive integer"}.get(low, f"an integer >= {low}")


def _integer(name: str, value, low: int, high: int | None = None) -> int:
    """``value`` as an ``int`` if it is an integer, not a bool, in [low, high]."""
    if (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and low <= value and (high is None or value <= high)):
        return int(value)
    raise ArgumentError(f"{name} must be {_integer_range(low, high)}, got {value!r}")


def _real(name: str, value, low: float = -math.inf, high: float = math.inf, *,
          open_low: bool = False, open_high: bool = False) -> float:
    """``value`` as a ``float`` if it is a finite real, not a bool, between low and high.

    The bounds are inclusive unless ``open_low`` / ``open_high`` is set.
    """
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            v = float(value)
        except OverflowError:  # an int or Fraction beyond the double range
            v = math.inf
        if (math.isfinite(v) and (low < v if open_low else low <= v)
                and (v < high if open_high else v <= high)):
            return v
    want = "a finite real"
    if low > -math.inf or high < math.inf:
        left = "(" if open_low or low == -math.inf else "["
        right = ")" if open_high or high == math.inf else "]"
        want += f" in {left}{low:g}, {high:g}{right}"
    raise ArgumentError(f"{name} must be {want}, got {value!r}")


def _reals(name: str, values, ndim: int | None = None, *, finite: bool = True) -> np.ndarray:
    """``values`` as float64 (a float64 array itself) of rank ``ndim`` if given."""
    try:
        arr = np.asarray(values)
        if arr.dtype == object and all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                                       for v in arr.flat):
            arr = arr.astype(np.float64)
    except (TypeError, ValueError, OverflowError) as exc:  # ragged, or beyond a double
        raise ArgumentError(f"{name} must be an array of reals: {exc}") from exc
    if arr.dtype.kind not in "iuf" or ndim not in (None, arr.ndim):
        rank = "" if ndim is None else f" of rank {ndim}"
        raise ArgumentError(
            f"{name} must be an array of reals{rank}, got {arr.dtype} of shape {arr.shape}")
    arr = arr.astype(np.float64, copy=False)
    if finite and not np.isfinite(arr).all():
        raise ArgumentError(f"{name} entries must be finite (no NaN/inf)")
    return arr


def _instance(name: str, value, types):
    """``value`` if it is an instance of ``types``, a class or a tuple of classes."""
    if isinstance(value, types):
        return value
    want = " or ".join(t.__name__ for t in (types if isinstance(types, tuple) else (types,)))
    raise ArgumentError(f"{name} must be of type {want}, got {value!r}")
