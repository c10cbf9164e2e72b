"""One rule for every integer parameter of the public API.

An integer argument is any ``numbers.Integral`` but ``bool`` (so ``np.int64``
too) within the parameter's range; a fraction, a bool or an out-of-range
integer raises ``ArgumentError``.  The ``Family.sample`` seed, the shape
probes' ``bins`` and ``mc_consistency_probe``'s ``n_seeds`` have their own
parametrized tests in test_distributions.py and test_verify.py.
"""

import numpy as np
import pytest

from hlmoments import (
    ArgumentError,
    ExactPlan,
    MonteCarloPlan,
    TrimSpec,
    Uniform,
    Weibull,
    boundary_kernel_value,
    breakdown_from_trim,
    build_pseudosample,
    central_moment_kernel,
    congruence_check,
    count_combinations,
    equivariance_suite,
    h_statistic,
    hl_central_moment,
    hl_standardized_moment,
    kernel_shape_probe,
    kernel_support_bounds,
    kernel_values,
    mc_consistency_probe,
    normal,
    pairwise_diff_probe,
    retained_window,
    sample_central_moment,
    signed_binomial_sums,
    support_bound_probe,
    trim_from_breakdown,
    variance_comparison,
)

X = np.array([0.3, -1.2, 2.5, 0.9, 1.7, -0.4])

# name -> (call with the parameter set to v, a value in range, a value out of range)
PARAMETERS = {
    "kernel_values.k": (lambda v: kernel_values(np.zeros((1, 3)), v), 3, 1),
    "central_moment_kernel.k": (lambda v: central_moment_kernel([1.0, 2.0, 4.0], v), 3, 1),
    "kernel_support_bounds.k": (lambda v: kernel_support_bounds(v, -1.0), 3, 1),
    "boundary_kernel_value.k": (lambda v: boundary_kernel_value(v, 1, 0.0, 1.0), 3, 1),
    "boundary_kernel_value.i": (lambda v: boundary_kernel_value(4, v, 0.0, 1.0), 2, 4),
    "signed_binomial_sums.k": (lambda v: signed_binomial_sums(v, 2), 4, 1),
    "signed_binomial_sums.h": (lambda v: signed_binomial_sums(4, v), 3, 5),
    "retained_window.n": (lambda v: retained_window(v, TrimSpec()), 10, 0),
    "breakdown_from_trim.k": (lambda v: breakdown_from_trim(0.1, v), 3, 0),
    "trim_from_breakdown.k": (lambda v: trim_from_breakdown(0.1, v), 3, 0),
    "ExactPlan.budget": (lambda v: ExactPlan(budget=v), 10, 0),
    "MonteCarloPlan.draws": (lambda v: MonteCarloPlan(draws=v), 10, 0),
    "MonteCarloPlan.seed": (lambda v: MonteCarloPlan(draws=10, seed=v), 7, 2**64),
    "count_combinations.n": (lambda v: count_combinations(v, 2), 5, -1),
    "count_combinations.k": (lambda v: count_combinations(5, v), 2, 6),
    "build_pseudosample.k": (lambda v: build_pseudosample(X, v), 3, 1),
    "hl_central_moment.k": (lambda v: hl_central_moment(X, v), 3, 1),
    "hl_standardized_moment.k": (lambda v: hl_standardized_moment(X, v), 3, 2),
    "sample_central_moment.k": (lambda v: sample_central_moment(X, v), 3, 0),
    "h_statistic.k": (lambda v: h_statistic(X, v), 3, 5),
    "Family.sample.n": (lambda v: Weibull(1.0, 1.0).sample(v, 0), 5, 0),
    "congruence_check.grid_size": (
        lambda v: congruence_check(Uniform(0.0, 1.0), "a", grid_size=v), 8, 7),
    "pairwise_diff_probe.n_draws": (
        lambda v: pairwise_diff_probe(normal(), n_draws=v, bins=4), 100, 1),
    "pairwise_diff_probe.seed": (
        lambda v: pairwise_diff_probe(normal(), n_draws=100, seed=v, bins=4), 3, -1),
    "kernel_shape_probe.k": (lambda v: kernel_shape_probe(normal(), v, n_draws=100), 3, 5),
    "kernel_shape_probe.n_draws": (
        lambda v: kernel_shape_probe(normal(), 3, n_draws=v, bins=4), 100, 1),
    "kernel_shape_probe.seed": (
        lambda v: kernel_shape_probe(normal(), 3, n_draws=100, seed=v), 3, -1),
    "variance_comparison.n_values": (
        lambda v: variance_comparison(normal(), (v,), replications=2), 8, 3),
    "variance_comparison.replications": (
        lambda v: variance_comparison(normal(), (8,), replications=v), 2, 1),
    "variance_comparison.seed": (
        lambda v: variance_comparison(normal(), (8,), replications=2, seed=v), 1, -1),
    "support_bound_probe.k": (lambda v: support_bound_probe(v, resolution=20), 3, 6),
    "support_bound_probe.resolution": (lambda v: support_bound_probe(3, resolution=v), 20, 19),
    "equivariance_suite.trials": (
        lambda v: equivariance_suite(trials=v, estimator_trials=1), 100, 99),
    "equivariance_suite.seed": (
        lambda v: equivariance_suite(trials=100, seed=v, estimator_trials=1), 1, -1),
    "equivariance_suite.max_k": (
        lambda v: equivariance_suite(trials=100, max_k=v, estimator_trials=1), 3, 9),
    "equivariance_suite.estimator_trials": (
        lambda v: equivariance_suite(trials=100, estimator_trials=v), 1, 0),
    "mc_consistency_probe.n": (lambda v: mc_consistency_probe(n=v, draws=50, n_seeds=1), 6, 0),
    "mc_consistency_probe.k": (
        lambda v: mc_consistency_probe(n=6, k=v, draws=50, n_seeds=1), 3, 1),
    "mc_consistency_probe.draws": (
        lambda v: mc_consistency_probe(n=6, draws=v, n_seeds=1), 50, 0),
    "mc_consistency_probe.sample_seed": (
        lambda v: mc_consistency_probe(n=6, draws=50, n_seeds=1, sample_seed=v), 3, -1),
}


@pytest.mark.parametrize("bad", ["fraction", "bool", "out-of-range"])
@pytest.mark.parametrize("name", PARAMETERS)
def test_non_integers_and_out_of_range_values_are_argument_errors(name, bad):
    call, good, out_of_range = PARAMETERS[name]
    value = {"fraction": good + 0.5, "bool": True, "out-of-range": out_of_range}[bad]
    with pytest.raises(ArgumentError, match=" must be "):
        call(value)


@pytest.mark.parametrize("name", PARAMETERS)
def test_numpy_integers_are_integers(name):
    call, good, _ = PARAMETERS[name]
    assert repr(call(np.int64(good))) == repr(call(good))
