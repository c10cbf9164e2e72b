"""Robust L-estimation of central moments on kernel pseudo-samples.

The kth central moment has an unbiased symmetric kernel in k variables;
evaluating it over all k-subsets of a sample and applying an L-estimator
(trimmed mean, median, or a custom weighting) to the sorted values yields
robust, tunable-breakdown estimates of central and standardized moments.
This package provides the kernel machinery, exact and Monte Carlo
pseudo-sample construction, the estimators themselves, parametric families
with a quantile-average congruence analyzer, and a simulation harness that
checks the distributional claims behind the construction.

Importing the package loads only the estimation core; the families
(``distributions``) and the simulation harness (``verify``) load on first use.
"""

from . import errors, kernels, lstat, pseudosample, estimators
from .errors import *
from .kernels import *
from .lstat import *
from .pseudosample import *
from .estimators import *

__version__ = "0.1.0"


def __getattr__(name):
    # PEP 562: the first name the core lacks loads distributions and verify, and binds
    # them, their names and __all__.  Each module's __all__ is the one declaration of
    # its public names; the package's is theirs concatenated, in this order.
    g = globals()
    if "__all__" not in g:
        import importlib

        lazy = {m: importlib.import_module(f"{__name__}.{m}") for m in ("distributions", "verify")}
        g.update(lazy)
        g.update((n, getattr(m, n)) for m in lazy.values() for n in m.__all__)
        g["__all__"] = [n for m in (errors, kernels, lstat, pseudosample, estimators,
                                    *lazy.values()) for n in m.__all__]
    try:
        return g[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__():
    __getattr__("__all__")  # binds the lazy modules and their names
    return sorted(globals())
