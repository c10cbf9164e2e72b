"""Trimmed-window L-estimators and the trim/breakdown mapping."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hlmoments import (
    ArgumentError,
    ConfigurationError,
    ContractViolationError,
    DegenerateTrimError,
    LEstimatorSpec,
    TrimSpec,
    apply_lestimator,
    breakdown_from_trim,
    median_sorted,
    retained_window,
    trim_from_breakdown,
    trimmed_mean,
)


class TestTrimmedMean:
    def test_one_tenth_both_sides_of_ten(self):
        assert trimmed_mean(np.arange(1.0, 11.0), TrimSpec(0.1, 1.0)) == 5.5

    def test_no_trim_is_plain_mean(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            s = np.sort(rng.normal(size=rng.integers(1, 60)))
            assert trimmed_mean(s, TrimSpec(0.0, 5.0)) == pytest.approx(
                s.mean(), rel=1e-13
            )

    def test_single_survivor(self):
        assert trimmed_mean([1.0, 2.0, 3.0], TrimSpec(1 / 3, 1.0)) == 2.0

    def test_unsorted_rejected(self):
        with pytest.raises(ContractViolationError):
            trimmed_mean([3.0, 1.0, 2.0])

    def test_empty_window(self):
        with pytest.raises(DegenerateTrimError):
            trimmed_mean([1.0, 2.0], TrimSpec(0.45, 1.2))


class TestMedianSorted:
    def test_odd(self):
        assert median_sorted([1.0, 2.0, 3.0]) == 2.0

    def test_even(self):
        assert median_sorted([1.0, 2.0, 3.0, 4.0]) == 2.5

    def test_singleton(self):
        assert median_sorted([5.0]) == 5.0

    def test_empty_rejected(self):
        with pytest.raises(ArgumentError):
            median_sorted([])

    def test_midpoint_of_values_whose_sum_overflows(self):
        assert median_sorted([1e308, 1.5e308]) == 1.25e308
        assert trimmed_mean([1e308, 1.5e308]) == 1.25e308


class TestApply:
    def test_trimmed_mean_kind(self):
        spec = LEstimatorSpec.trimmed_mean()
        assert apply_lestimator(spec, np.arange(1.0, 11.0), TrimSpec(0.1, 1.0)) == 5.5

    def test_median_kind_ignores_outlier(self):
        assert apply_lestimator(LEstimatorSpec.median(), [1.0, 2.0, 100.0]) == 2.0

    def test_uniform_weights_equal_trimmed_mean(self):
        spec = LEstimatorSpec.weighted(lambda m: np.full(m, 1.0 / m))
        data = np.sort(np.random.default_rng(11).normal(size=37))
        trim = TrimSpec(0.12, 0.8)
        assert apply_lestimator(spec, data, trim) == pytest.approx(
            trimmed_mean(data, trim), rel=1e-13
        )

    def test_unnormalized_weights_rejected(self):
        spec = LEstimatorSpec.weighted(lambda m: np.full(m, 0.9 / m))
        with pytest.raises(ConfigurationError):
            apply_lestimator(spec, [1.0, 2.0, 3.0])

    def test_negative_weights_rejected(self):
        def w(m):
            out = np.full(m, 1.0 / m)
            out[0] = -out[0]
            out[-1] += 2 * out[0] * -1
            return out

        spec = LEstimatorSpec.weighted(lambda m: w(m))
        with pytest.raises(ConfigurationError):
            apply_lestimator(spec, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("weights", [
        lambda m: ["a"] * m, lambda m: [0.5j] * m, lambda m: [{}] * m, lambda m: None,
    ], ids=["text", "complex", "non-real", "None"])
    def test_weights_that_are_not_reals_rejected(self, weights):
        # a configuration fault like bad weights, not a bare ValueError or TypeError
        with pytest.raises(ConfigurationError, match="weights must be an array of reals"):
            apply_lestimator(LEstimatorSpec.weighted(weights), [1.0, 2.0])

    def test_weighted_without_function_rejected(self):
        with pytest.raises(ConfigurationError):
            LEstimatorSpec(kind="weighted")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            LEstimatorSpec(kind="winsorized")


class TestOneImplementation:
    def test_trimmed_mean_and_median_are_the_window_formulas(self):
        rng = np.random.default_rng(8)
        for size in (1, 2, 7, 10, 61, 200):
            s = np.sort(rng.normal(size=size))
            mid = size // 2
            assert median_sorted(s) == (s[mid] if size % 2 else 0.5 * (s[mid - 1] + s[mid]))
            assert trimmed_mean(s) == s.mean()
            if size < 10:  # the trims below leave no window of the smallest sizes
                continue
            for trim in (TrimSpec(0.1), TrimSpec(0.2, 0.5), TrimSpec(0.05, 3.0)):
                lo, hi = retained_window(size, trim)
                assert trimmed_mean(s, trim) == s[lo:hi].mean()
                assert apply_lestimator(LEstimatorSpec.median(), s, trim) == median_sorted(s[lo:hi])


class TestWindow:
    def test_count_formula(self):
        # retained count = floor(N(1-eps0)) - ceil(N*gamma*eps0) and is >= 1
        rng = np.random.default_rng(5)
        for _ in range(300):
            n = int(rng.integers(1, 300))
            eps0 = float(rng.uniform(0, 0.45))
            gamma = float(rng.uniform(0, 1.8))
            if gamma * eps0 + eps0 >= 1:
                continue
            trim = TrimSpec(eps0, gamma)
            try:
                lo, hi = retained_window(n, trim)
            except DegenerateTrimError:
                continue
            assert hi - lo == math.floor(n * (1 - eps0) + 1e-9) - math.ceil(
                n * gamma * eps0 - 1e-9
            )
            assert hi - lo >= 1

    def test_trim_spec_validation(self):
        with pytest.raises(ArgumentError):
            TrimSpec(eps0=-0.1)
        with pytest.raises(ArgumentError):
            TrimSpec(eps0=1.0)
        with pytest.raises(ArgumentError):
            TrimSpec(eps0=0.4, gamma=-1.0)
        with pytest.raises(ArgumentError):
            TrimSpec(eps0=0.6, gamma=1.0)  # nothing retained


class TestBreakdown:
    def test_known_values(self):
        assert breakdown_from_trim(0.19, 2) == pytest.approx(0.1, abs=1e-12)
        assert breakdown_from_trim(0.271, 3) == pytest.approx(0.1, abs=1e-12)
        for k in (1, 2, 5):
            assert breakdown_from_trim(0.0, k) == 0.0

    def test_identity_at_k1(self):
        for e in (0.0, 0.2, 0.7):
            assert breakdown_from_trim(e, 1) == pytest.approx(e, abs=1e-15)

    def test_monotone_in_eps0(self):
        grid = np.linspace(0.0, 0.9, 40)
        vals = [breakdown_from_trim(float(e), 4) for e in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    @given(st.floats(0.0, 0.99), st.integers(1, 12))
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, eps0, k):
        eps = breakdown_from_trim(eps0, k)
        assert trim_from_breakdown(eps, k) == pytest.approx(eps0, abs=1e-14)

    def test_out_of_range(self):
        with pytest.raises(ArgumentError):
            breakdown_from_trim(1.0, 2)
        with pytest.raises(ArgumentError):
            breakdown_from_trim(-0.01, 2)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.floats(-100, 100, allow_nan=False), min_size=3, max_size=50),
    st.floats(0.01, 5.0),
    st.floats(-50, 50),
    st.sampled_from(["trimmed-mean", "median"]),
)
def test_affine_equivariance(values, lam, mu, kind):
    s = np.sort(np.asarray(values))
    trim = TrimSpec(0.1, 1.0)
    spec = LEstimatorSpec(kind=kind)
    base = apply_lestimator(spec, s, trim)
    moved = apply_lestimator(spec, lam * s + mu, trim)
    assert moved == pytest.approx(lam * base + mu, rel=1e-9, abs=1e-7)
