"""Exception hierarchy.

Public functions never raise a bare ValueError: every contract violation maps
to one of the semantic errors below so callers (and the CLI) can translate
failures into stable exit codes.
"""

from __future__ import annotations

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
