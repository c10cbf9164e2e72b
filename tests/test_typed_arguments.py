"""One rule for every typed parameter of the public API.

A typed argument (a trim, an L-estimator, a plan, a family, a family spec
string, a tuple or list of sample sizes) must be an instance of its class.
Anything else, such as ``0.1``, ``"median"``, ``None`` or a family spec string
where a family is expected, raises ``ArgumentError`` whose message starts
with the parameter's name.  A ``weights`` function that is not callable is a
``ConfigurationError``.
"""

import numpy as np
import pytest

from hlmoments import (
    ArgumentError,
    ConfigurationError,
    ExactPlan,
    LEstimatorSpec,
    LogNormal,
    MonteCarloPlan,
    TrimSpec,
    Uniform,
    Weibull,
    apply_lestimator,
    build_pseudosample,
    congruence_check,
    hl_central_moment,
    hl_standardized_moment,
    lognormal_qa_sigma_derivative,
    normal,
    parse_family,
    qa_partial_sign,
    quantile_average,
    retained_window,
    trimmed_mean,
    trimmed_sd_pairwise,
)
from hlmoments.errors import _instance
from hlmoments.verify import (
    kernel_shape_probe,
    mc_consistency_probe,
    pairwise_diff_probe,
    variance_comparison,
)

X = np.array([0.3, -1.2, 2.5, 0.9, 1.7, -0.4, 1.1, -2.0])
SORTED = np.sort(X)

# entry point -> (parameter name, call with the parameter set to v, a correctly typed value)
PARAMETERS = {
    "hl_central_moment.trim": ("trim", lambda v: hl_central_moment(X, 3, trim=v), TrimSpec(0.1)),
    "hl_central_moment.estimator": (
        "estimator", lambda v: hl_central_moment(X, 3, estimator=v), LEstimatorSpec.median()),
    "hl_central_moment.plan": (
        "plan", lambda v: hl_central_moment(X, 3, plan=v), MonteCarloPlan(draws=100)),
    "hl_central_moment-k2.plan": ("plan", lambda v: hl_central_moment(X, 2, plan=v), ExactPlan()),
    "hl_standardized_moment.trim": (
        "trim", lambda v: hl_standardized_moment(X, 3, trim=v), TrimSpec(0.1)),
    "hl_standardized_moment.trim_scale": (
        "trim_scale", lambda v: hl_standardized_moment(X, 3, trim_scale=v), TrimSpec(0.1)),
    "hl_standardized_moment.estimator": (
        "estimator", lambda v: hl_standardized_moment(X, 3, estimator=v), LEstimatorSpec.median()),
    "trimmed_sd_pairwise.plan": (
        "plan", lambda v: trimmed_sd_pairwise(X, plan=v), MonteCarloPlan(draws=100)),
    "build_pseudosample.plan": ("plan", lambda v: build_pseudosample(X, 3, v), ExactPlan()),
    "retained_window.trim": ("trim", lambda v: retained_window(10, v), TrimSpec(0.1)),
    "trimmed_mean.trim": ("trim", lambda v: trimmed_mean(SORTED, v), TrimSpec(0.1)),
    "apply_lestimator.spec": ("spec", lambda v: apply_lestimator(v, SORTED), LEstimatorSpec()),
    "apply_lestimator.trim": (
        "trim", lambda v: apply_lestimator(LEstimatorSpec.median(), SORTED, v), TrimSpec(0.1)),
    "parse_family.spec": ("spec", parse_family, "weibull(2, 1)"),
    "quantile_average.family": ("family", lambda v: quantile_average(v, 0.25, 1.0), Uniform()),
    "qa_partial_sign.family": ("family", lambda v: qa_partial_sign(v, "a", 0.25, 1.0), Uniform()),
    "congruence_check.family": (
        "family", lambda v: congruence_check(v, "a", grid_size=8), Uniform()),
    "lognormal_qa_sigma_derivative.family": (
        "family", lambda v: lognormal_qa_sigma_derivative(v, 0.25, 1.0), LogNormal(0.0, 1.0)),
    "pairwise_diff_probe.family": (
        "family", lambda v: pairwise_diff_probe(v, n_draws=100), normal()),
    "kernel_shape_probe.family": (
        "family", lambda v: kernel_shape_probe(v, 3, n_draws=100), normal()),
    "variance_comparison.family": (
        "family", lambda v: variance_comparison(v, n_values=(6,), replications=3), normal()),
    "variance_comparison.n_values": (
        "n_values", lambda v: variance_comparison(normal(), n_values=v, replications=3), (6,)),
    "mc_consistency_probe.family": (
        "family", lambda v: mc_consistency_probe(v, n=6, draws=50, n_seeds=1), Weibull(1.0)),
}

BAD = {"real": 0.1, "text": "median", "none": None, "family-spec": "weibull(1, 1)",
       "int": 3, "other-spec": TrimSpec()}


def _bad_values(name):
    """BAD without what the parameter takes: text for a spec string, a TrimSpec for a
    trim, and None for trim_scale, whose default it is."""
    param, _, good = PARAMETERS[name]
    return {b: v for b, v in BAD.items()
            if not isinstance(v, type(good)) and not (param == "trim_scale" and v is None)}


CASES = [(name, bad) for name in PARAMETERS for bad in _bad_values(name)]


@pytest.mark.parametrize("name, bad", CASES, ids=[f"{n}-{b}" for n, b in CASES])
def test_wrongly_typed_values_are_argument_errors_naming_the_parameter(name, bad):
    param, call, _ = PARAMETERS[name]
    with pytest.raises(ArgumentError, match=f"^{param} must be of type "):
        call(BAD[bad])


@pytest.mark.parametrize("name", PARAMETERS)
def test_correctly_typed_values_still_work(name):
    _, call, good = PARAMETERS[name]
    call(good)


def test_a_family_of_another_class_is_rejected_where_one_class_is_required():
    with pytest.raises(ArgumentError, match="^family must be of type LogNormal, got "):
        lognormal_qa_sigma_derivative(normal(), 0.25, 1.0)


def test_the_type_check_comes_before_the_sample_is_read():
    with pytest.raises(ArgumentError, match="^trim must be of type TrimSpec"):
        hl_central_moment("not a sample", 3, trim=0.1)


@pytest.mark.parametrize("weights", [42, "uniform", None, np.full(4, 0.25)])
def test_weights_that_are_not_callable_are_configuration_errors(weights):
    with pytest.raises(ConfigurationError, match="requires a weights function"):
        LEstimatorSpec.weighted(weights)


@pytest.mark.parametrize("types, good, want", [
    (TrimSpec, TrimSpec(), "TrimSpec"),
    ((ExactPlan, MonteCarloPlan), MonteCarloPlan(draws=1), "ExactPlan or MonteCarloPlan"),
    (str, "x", "str"),
])
def test_instance_returns_the_value_or_names_what_it_wanted(types, good, want):
    assert _instance("p", good, types) is good
    with pytest.raises(ArgumentError) as info:
        _instance("p", 0.1, types)
    assert str(info.value) == f"p must be of type {want}, got 0.1"
