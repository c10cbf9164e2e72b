"""One rule for every real-valued parameter of the public API.

A real argument is any ``numbers.Real`` but ``bool`` (so ``np.float32``,
``np.int64`` and ``int`` too) that is finite and within the parameter's range;
it is kept as a Python ``float``.  A bool, a string, ``nan``, ``inf`` or an
out-of-range value raises ``ArgumentError``.
"""

import math

import numpy as np
import pytest

from hlmoments import (
    ArgumentError,
    Gamma,
    GeneralizedGaussian,
    LogNormal,
    Pareto,
    TrimSpec,
    Uniform,
    Weibull,
    boundary_kernel_value,
    breakdown_from_trim,
    congruence_check,
    kernel_shape_probe,
    kernel_support_bounds,
    laplace,
    lognormal_qa_sigma_derivative,
    mc_consistency_probe,
    normal,
    pairwise_diff_probe,
    qa_partial_sign,
    quantile_average,
    trim_from_breakdown,
    trimmed_sd_symmetric,
)

X = np.array([0.3, -1.2, 2.5, 0.9, 1.7, -0.4])

# name -> (call with the parameter set to v, a value in range, a value out of range or None)
PARAMETERS = {
    "TrimSpec.eps0": (lambda v: TrimSpec(eps0=v), 0, 1),
    "TrimSpec.gamma": (lambda v: TrimSpec(gamma=v), 2, -1),
    "breakdown_from_trim.eps0": (lambda v: breakdown_from_trim(v, 3), 0, 1),
    "trim_from_breakdown.eps": (lambda v: trim_from_breakdown(v, 3), 0, -1),
    "trimmed_sd_symmetric.eps": (lambda v: trimmed_sd_symmetric(X, v), 0, 0.5),
    "Weibull.shape": (lambda v: Weibull(v), 2, 0),
    "Weibull.scale": (lambda v: Weibull(1.0, v), 2, -1),
    "Pareto.shape": (lambda v: Pareto(v), 3, 0),
    "Pareto.xm": (lambda v: Pareto(3.0, v), 2, 0),
    "LogNormal.mu": (lambda v: LogNormal(v, 1.0), 1, None),
    "LogNormal.sigma": (lambda v: LogNormal(0.0, v), 2, 0),
    "Gamma.shape": (lambda v: Gamma(v), 2, 0),
    "Gamma.scale": (lambda v: Gamma(2.0, v), 3, 0),
    "GeneralizedGaussian.mu": (lambda v: GeneralizedGaussian(v, 1.0), -1, None),
    "GeneralizedGaussian.sigma": (lambda v: GeneralizedGaussian(0.0, v), 2, 0),
    "GeneralizedGaussian.beta": (lambda v: GeneralizedGaussian(0.0, 1.0, v), 1, 0),
    "Uniform.a": (lambda v: Uniform(v, 5.0), 1, None),
    "Uniform.b": (lambda v: Uniform(0.0, v), 1, None),
    "normal.mu": (lambda v: normal(v), 1, None),
    "normal.sd": (lambda v: normal(0.0, v), 2, 0),
    "laplace.b": (lambda v: laplace(0.0, v), 2, -1),
    "quantile_average.eps": (lambda v: quantile_average(Uniform(), v, 1.0), 0.25, 1),
    "quantile_average.gamma": (lambda v: quantile_average(Uniform(), 0.25, v), 2, 0),
    "qa_partial_sign.h": (lambda v: qa_partial_sign(normal(), "mu", 0.25, 1.0, h=v), 2, 0),
    "lognormal_qa_sigma_derivative.eps": (
        lambda v: lognormal_qa_sigma_derivative(LogNormal(0.0, 1.0), v, 1.0), 0.25, 0),
    "congruence_check.gamma": (
        lambda v: congruence_check(Uniform(), "a", gamma=v, grid_size=8), 1, 0),
    "mc_consistency_probe.tolerance": (
        lambda v: mc_consistency_probe(n=6, draws=50, n_seeds=1, tolerance=v), 1, -1),
    "boundary_kernel_value.a": (lambda v: boundary_kernel_value(4, 1, v, 1.0), 2, None),
    "kernel_support_bounds.delta": (lambda v: kernel_support_bounds(3, v), -1, 1),
    "pairwise_diff_probe.tail_clip": (
        lambda v: pairwise_diff_probe(normal(), n_draws=100, bins=4, tail_clip=v), 0, 0.5),
    "kernel_shape_probe.tail_clip": (
        lambda v: kernel_shape_probe(normal(), 3, n_draws=100, bins=4, tail_clip=v), 0, 0.5),
}

BAD = {"bool": True, "str": "2", "nan": math.nan, "inf": math.inf, "-inf": -math.inf}


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("name", PARAMETERS)
def test_non_reals_and_non_finite_values_are_argument_errors(name, bad):
    call, _, _ = PARAMETERS[name]
    with pytest.raises(ArgumentError, match=" must be a finite real"):
        call(BAD[bad])


@pytest.mark.parametrize("name", [n for n, p in PARAMETERS.items() if p[2] is not None])
def test_out_of_range_values_are_argument_errors(name):
    call, _, out_of_range = PARAMETERS[name]
    with pytest.raises(ArgumentError, match=" must be a finite real in "):
        call(out_of_range)


@pytest.mark.parametrize("name", PARAMETERS)
def test_numpy_floats_are_reals(name):
    call, good, _ = PARAMETERS[name]
    assert repr(call(np.float32(good))) == repr(call(float(good)))


@pytest.mark.parametrize("name", [n for n, p in PARAMETERS.items() if isinstance(p[1], int)])
def test_integers_are_reals(name):
    call, good, _ = PARAMETERS[name]
    assert repr(call(np.int64(good))) == repr(call(good)) == repr(call(float(good)))


def test_a_string_parameter_fails_at_construction():
    # It used to be stored as given, so only a later mean() failed, with a TypeError.
    with pytest.raises(ArgumentError, match="shape must be a finite real"):
        Weibull("2")


def test_checked_values_are_stored_as_floats():
    trim = TrimSpec(eps0=np.float32(0.1), gamma=np.int64(2))
    assert (trim.eps0, trim.gamma) == (float(np.float32(0.1)), 2.0)
    family = Weibull(np.float32(1.5), 2)
    assert type(family.shape) is float and type(family.scale) is float
    assert family.mean() == Weibull(1.5, 2.0).mean()


@pytest.mark.parametrize("family, label", [
    (Weibull(2, 1), "weibull(shape=2, scale=1)"),
    (Weibull(np.float32(0.5)), "weibull(shape=0.5, scale=1)"),
    (Pareto(3), "pareto(shape=3, xm=1)"),
    (LogNormal(np.int64(0), 1), "lognormal(mu=0, sigma=1)"),
    (Gamma(2.5, 2), "gamma(shape=2.5, scale=2)"),
    (normal(), "generalizedgaussian(mu=0, sigma=1.41421, beta=2)"),
    (laplace(1, 2), "generalizedgaussian(mu=1, sigma=2, beta=1)"),
    (Uniform(-1, 1), "uniform(a=-1, b=1)"),
])
def test_labels_are_unchanged(family, label):
    assert family.label == label
