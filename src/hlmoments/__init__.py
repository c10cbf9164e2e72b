"""Robust L-estimation of central moments on kernel pseudo-samples.

The kth central moment has an unbiased symmetric kernel in k variables;
evaluating it over all k-subsets of a sample and applying an L-estimator
(trimmed mean, median, or a custom weighting) to the sorted values yields
robust, tunable-breakdown estimates of central and standardized moments.
This package provides the kernel machinery, exact and Monte Carlo
pseudo-sample construction, the estimators themselves, parametric families
with a quantile-average congruence analyzer, and a simulation harness that
checks the distributional claims behind the construction.
"""

from . import errors, kernels, lstat, pseudosample, estimators, distributions, verify
from .errors import *
from .kernels import *
from .lstat import *
from .pseudosample import *
from .estimators import *
from .distributions import *
from .verify import *

__version__ = "0.1.0"

# Each module's __all__ is the one declaration of its public names.
__all__ = [
    *errors.__all__, *kernels.__all__, *lstat.__all__, *pseudosample.__all__,
    *estimators.__all__, *distributions.__all__, *verify.__all__,
]
