"""The package namespace: each module's ``__all__`` declares its public names once."""

import hlmoments
from hlmoments import distributions, errors, estimators, kernels, lstat, pseudosample, verify

MODULES = (errors, kernels, lstat, pseudosample, estimators, distributions, verify)

# The names the package exported while it kept its own list of them (64), less the
# ranking functions ``rank_combination`` and ``unrank_combination``, which had no caller.
EARLIER = {
    "ArgumentError", "CapacityError", "CombinationOverflowError", "ConfigurationError",
    "ContractViolationError", "DegenerateSampleError", "DegenerateTrimError",
    "EstimatorError", "UnsupportedOrderError", "MAX_ORDER", "boundary_kernel_value",
    "central_moment_kernel", "kernel_support_bounds", "kernel_values",
    "signed_binomial_sums", "LEstimatorSpec", "TrimSpec", "apply_lestimator",
    "breakdown_from_trim", "median_sorted", "retained_window", "trim_from_breakdown",
    "trimmed_mean", "DEFAULT_BUDGET", "ExactPlan", "MonteCarloPlan", "build_pseudosample",
    "count_combinations", "MomentEstimate",
    "h_statistic", "hl_central_moment", "hl_standardized_moment", "sample_central_moment",
    "trimmed_sd_pairwise", "trimmed_sd_symmetric", "CongruenceVerdict", "Family", "Gamma",
    "GeneralizedGaussian", "LogNormal", "Pareto", "Uniform", "Weibull", "congruence_check",
    "laplace", "lognormal_qa_sigma_derivative", "normal", "parse_family",
    "qa_partial_sign", "quantile_average", "EquivarianceReport", "McConsistencyReport",
    "ShapeProbe", "SupportBoundsReport", "VarianceComparison", "equivariance_suite",
    "kernel_shape_probe", "mc_consistency_probe", "pairwise_diff_probe",
    "report_from_dict", "support_bound_probe", "variance_comparison",
}


def test_all_is_the_module_lists_concatenated():
    assert len(hlmoments.__all__) == len(set(hlmoments.__all__))
    assert hlmoments.__all__ == [name for module in MODULES for name in module.__all__]


def test_each_name_is_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(hlmoments, name) is getattr(module, name), (module.__name__, name)


def test_star_import_exports_exactly_all():
    for module in (hlmoments, *MODULES):
        namespace = {}
        exec(f"from {module.__name__} import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(module.__all__), module.__name__


def test_surface_is_the_earlier_one_plus_two_pseudosample_names():
    assert len(EARLIER) == 62
    assert set(hlmoments.__all__) == EARLIER | {"PseudoPlan"}
