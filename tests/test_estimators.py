"""Estimator-level contracts: unbiased limits, identities, robustness."""

import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from hlmoments import (
    ArgumentError,
    CapacityError,
    DegenerateSampleError,
    DegenerateTrimError,
    ExactPlan,
    LEstimatorSpec,
    MomentEstimate,
    MonteCarloPlan,
    TrimSpec,
    apply_lestimator,
    build_pseudosample,
    h_statistic,
    hl_central_moment,
    hl_standardized_moment,
    sample_central_moment,
    trimmed_sd_pairwise,
    trimmed_sd_symmetric,
)

from hlmoments import estimators, pseudosample
from oracles import exact_population_central_moment, exact_u_statistic


class TestCentralMoment:
    def test_variance_of_012(self):
        est = hl_central_moment([0.0, 1.0, 2.0], 2)
        assert est.value == 1.0
        assert est.pseudo_n == 3
        assert est.eps == 0.0

    def test_third_moment_single_triple(self):
        est = hl_central_moment([0.0, 1.0, 3.0], 3)
        assert est.value == pytest.approx(10 / 3, rel=1e-14)

    def test_constant_sample(self):
        for trim in (TrimSpec(), TrimSpec(0.2, 1.0)):
            est = hl_central_moment([3.0] * 8, 3, trim)
            assert abs(est.value) < 1e-12

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_untrimmed_equals_h_statistic(self, k):
        rng = np.random.default_rng(900 + k)
        for _ in range(40):
            n = int(rng.integers(k, 21))
            x = rng.normal(size=n) * rng.uniform(0.5, 3) + rng.uniform(-2, 2)
            u = hl_central_moment(x, k).value
            h = h_statistic(x, k)
            assert u == pytest.approx(h, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_untrimmed_equals_exact_rational_u_statistic(self, k):
        rng = np.random.default_rng(70 + k)
        nums = rng.integers(-9, 10, size=9)
        dens = rng.integers(1, 7, size=9)
        sample = [Fraction(int(a), int(b)) for a, b in zip(nums, dens)]
        want = float(exact_u_statistic(sample, k))
        got = hl_central_moment([float(v) for v in sample], k).value
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("k", [5, 6])
    def test_untrimmed_is_exact_under_location_shift(self, k):
        # multiples of 1/8 below 64 stay exact in binary after a shift up to 1e4,
        # so the shifted sample has exactly the unshifted U-statistic
        x = np.round(np.random.default_rng(30 + k).gamma(2.0, 1.0, 12) * 8) / 8
        want = float(exact_u_statistic([Fraction(v) for v in x], k))
        for shift in (0.0, 1e2, 1e3, 1e4):
            got = hl_central_moment(x + shift, k).value
            assert abs(got - want) <= 1e-10 * abs(want), shift

    def test_equivariance_under_scaling(self):
        rng = np.random.default_rng(31)
        x = rng.normal(size=14)
        kinds = (
            LEstimatorSpec.trimmed_mean(),
            LEstimatorSpec.median(),
            LEstimatorSpec.weighted(lambda m: np.full(m, 1.0 / m)),
        )
        for k in (2, 3, 4):
            for trim in (TrimSpec(), TrimSpec(0.15, 1.0)):
                for est in kinds:
                    base = hl_central_moment(x, k, trim, estimator=est).value
                    lam, mu = 2.5, -3.0
                    moved = hl_central_moment(lam * x + mu, k, trim, estimator=est).value
                    assert moved == pytest.approx(lam**k * base, rel=1e-10, abs=1e-12)
                    neg = hl_central_moment(-x, k, trim, estimator=est).value
                    assert neg == pytest.approx((-1.0) ** k * base, rel=1e-10, abs=1e-12)

    def test_median_estimator_selectable(self):
        x = np.random.default_rng(4).normal(size=12)
        est = hl_central_moment(x, 2, estimator=LEstimatorSpec.median())
        ps = np.sort(
            [0.5 * (a - b) ** 2 for i, a in enumerate(x) for b in x[i + 1 :]]
        )
        assert est.value == pytest.approx(np.median(ps), rel=1e-12)
        assert est.method.endswith("median")

    def test_k_larger_than_n(self):
        with pytest.raises(ArgumentError):
            hl_central_moment([1.0, 2.0], 3)

    def test_provenance_fields(self):
        x = np.random.default_rng(1).normal(size=10)
        est = hl_central_moment(x, 3, TrimSpec(0.19, 1.0))
        assert est.n == 10
        assert est.pseudo_n == 120
        assert est.eps == pytest.approx(1 - 0.81 ** (1 / 3))
        assert est.seed is None
        mc = hl_central_moment(x, 3, plan=MonteCarloPlan(draws=5000, seed=7))
        assert mc.pseudo_n == 5000
        assert mc.seed == 7

    def test_round_trip_dict(self):
        est = hl_central_moment([0.0, 1.0, 2.0], 2)
        assert MomentEstimate.from_dict(est.to_dict()) == est


class TestStandardizedMoment:
    def test_symmetric_sample_skewness_zero(self):
        est = hl_standardized_moment([-2.0, -1.0, 0.0, 1.0, 2.0], 3)
        assert abs(est.value) < 1e-12

    def test_known_value(self):
        est = hl_standardized_moment([0.0, 1.0, 3.0], 3)
        assert est.value == pytest.approx((10 / 3) / (7 / 3) ** 1.5, rel=1e-12)

    def test_affine_invariance(self):
        rng = np.random.default_rng(55)
        x = rng.exponential(size=15)
        for k in (3, 4):
            base = hl_standardized_moment(x, k).value
            moved = hl_standardized_moment(3.0 * x + 7.0, k).value
            assert moved == pytest.approx(base, rel=1e-9)

    def test_negative_scale_flips_odd_moment(self):
        x = np.random.default_rng(56).exponential(size=12)
        base = hl_standardized_moment(x, 3).value
        flipped = hl_standardized_moment(-2.0 * x + 1.0, 3).value
        assert flipped == pytest.approx(-base, rel=1e-9)

    def test_breakdown_is_min_of_numerator_and_denominator(self):
        x = np.random.default_rng(57).normal(size=12)
        est = hl_standardized_moment(x, 4, TrimSpec(0.2, 1.0))
        eps_num = 1 - 0.8 ** (1 / 4)
        eps_den = 1 - 0.8 ** (1 / 2)
        assert est.eps == pytest.approx(min(eps_num, eps_den))

    def test_distinct_scale_trim(self):
        x = np.random.default_rng(58).exponential(size=14)
        a = hl_standardized_moment(x, 3, TrimSpec(0.1), trim_scale=TrimSpec(0.2)).value
        b = hl_standardized_moment(x, 3, TrimSpec(0.1)).value
        assert a != b

    def test_requires_k_at_least_3(self):
        with pytest.raises(ArgumentError):
            hl_standardized_moment([1.0, 2.0, 3.0], 2)

    def test_degenerate_sample(self):
        with pytest.raises(DegenerateSampleError):
            hl_standardized_moment([5.0] * 6, 3)


class TestTrimmedSdPairwise:
    def test_simple_value(self):
        assert trimmed_sd_pairwise([0.0, 1.0, 2.0]).value == 1.0

    def test_constant_sample(self):
        assert trimmed_sd_pairwise([2.5] * 5).value == 0.0

    def test_untrimmed_equals_bessel_sd(self):
        rng = np.random.default_rng(123)
        for n in (5, 17, 100, 200):
            x = rng.normal(size=n)
            got = trimmed_sd_pairwise(x).value
            want = float(np.std(x, ddof=1))
            assert got == pytest.approx(want, rel=1e-12)

    def test_trimming_shrinks_under_contamination(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=40)
        x[0] = 1e6
        clean = trimmed_sd_pairwise(np.delete(x, 0)).value
        robust = trimmed_sd_pairwise(x, eps0=0.2).value
        raw = trimmed_sd_pairwise(x).value
        assert raw > 1e4
        assert robust < 3 * clean


class TestTrimmedSdSymmetric:
    def test_four_point_value(self):
        assert trimmed_sd_symmetric([0.0, 1.0, 2.0, 3.0]).value == pytest.approx(
            math.sqrt(5.0), rel=1e-14
        )

    def test_reflection_symmetry(self):
        x = np.random.default_rng(12).normal(size=23)
        a = trimmed_sd_symmetric(x, 0.1).value
        b = trimmed_sd_symmetric(-x, 0.1).value
        assert a == pytest.approx(b, rel=1e-13)

    def test_constant_sample(self):
        assert trimmed_sd_symmetric([7.0] * 9).value == 0.0

    def test_empty_window(self):
        with pytest.raises(DegenerateTrimError):
            trimmed_sd_symmetric([1.0, 2.0, 3.0, 4.0], 0.49)

    def test_eps_range(self):
        with pytest.raises(ArgumentError):
            trimmed_sd_symmetric([1.0, 2.0], 0.5)


class TestPlainMoments:
    def test_sample_central_moment_values(self):
        assert sample_central_moment([0.0, 1.0, 2.0], 2) == pytest.approx(2 / 3)
        assert sample_central_moment([0.0, 1.0, 2.0], 3) == 0.0
        assert sample_central_moment([0.0, 1.0, 3.0], 3) == pytest.approx(20 / 27)

    def test_h_statistic_values(self):
        assert h_statistic([0.0, 1.0, 2.0], 2) == 1.0
        assert h_statistic([0.0, 1.0, 3.0], 3) == pytest.approx(10 / 3, rel=1e-13)

    def test_h_statistic_validation(self):
        with pytest.raises(ArgumentError):
            h_statistic([1.0, 2.0, 3.0], 5)
        with pytest.raises(ArgumentError):
            h_statistic([1.0, 2.0], 3)


class TestRobustnessSmoke:
    def test_breakdown_protection(self):
        # contaminate floor(eps0 * n / k) points; the trimmed estimate stays
        # near the clean one while the untrimmed estimate explodes
        rng = np.random.default_rng(2718)
        n, k, eps0 = 30, 3, 0.2
        x = rng.normal(size=n)
        clean = hl_central_moment(x, k, TrimSpec(eps0, 1.0)).value
        bad = x.copy()
        m = int(eps0 * n / k)
        bad[:m] = 1e6
        robust = hl_central_moment(bad, k, TrimSpec(eps0, 1.0)).value
        raw = hl_central_moment(bad, k).value
        scale = abs(clean) + 1.0
        assert abs(robust - clean) < 10.0 * scale
        assert abs(raw) > 1e6 * scale


# exact k = 2 trimmed means and medians are selected from the sorted sample
# instead of built: up to 240 points all pairs are partitioned at once, from
# 300 the cut values are narrowed down in rounds first
N_SELECTED = 300
assert math.comb(N_SELECTED, 2) > max(pseudosample._SELECT_HOLD,
                                      pseudosample._SELECT_GATHER * N_SELECTED)
assert math.comb(240, 2) <= max(pseudosample._SELECT_HOLD, pseudosample._SELECT_GATHER * 240)

PAIRWISE_TRIMS = [(0.0, 1.0), (0.1, 1.0), (0.1, 0.0), (0.4, 1.0), (0.9, 0.0), (0.3, 2.0),
                  (0.6, 0.5)]


def _pairwise_samples(n, seed):
    rng = np.random.default_rng(seed)
    return {
        "normal": rng.normal(size=n),
        "cauchy": rng.standard_cauchy(size=n),
        "lognormal": rng.lognormal(0.0, 3.0, size=n),
        "integer-ties": rng.integers(-3, 4, size=n).astype(float),
        "gamma-quarters": np.round(rng.gamma(2.0, 1.0, size=n) * 4.0) / 4.0,
    }


class TestPairwiseSelection:
    @pytest.mark.parametrize("kind", ["normal", "cauchy", "lognormal", "integer-ties",
                                      "gamma-quarters"])
    @pytest.mark.parametrize("n", [7, 240, N_SELECTED, 2000])
    def test_agrees_with_built_pseudosample(self, kind, n):
        # the built pseudo-sample is the reference
        for shift in (0.0, 1e4, -1e4):
            x = _pairwise_samples(n, n)[kind] + shift
            built = build_pseudosample(x, 2)
            xs = np.sort(x)
            for eps0, gamma in PAIRWISE_TRIMS:
                trim = TrimSpec(eps0, gamma)
                try:
                    lo, hi = pseudosample.retained_window(built.size, trim)
                except DegenerateTrimError:
                    continue
                for r in (lo, hi - 1):  # both cut values, bit for bit
                    assert pseudosample._select_pairwise(xs, r) == built[r], (shift, trim, r)
                for est in (LEstimatorSpec.trimmed_mean(), LEstimatorSpec.median()):
                    got = hl_central_moment(x, 2, trim, est).value
                    want = apply_lestimator(est, built, trim)
                    if est.kind == "median":
                        assert got == want, (shift, trim)
                    else:
                        assert abs(got - want) <= 1e-13 * abs(want), (shift, trim)

    @pytest.mark.parametrize("n", [20, N_SELECTED])
    def test_exact_plans_skip_the_build(self, monkeypatch, n):
        x = np.random.default_rng(3).normal(size=n)
        want = trimmed_sd_pairwise(x, eps0=0.1).value
        calls = []
        monkeypatch.setattr(
            estimators, "build_pseudosample",
            lambda *a: calls.append(a) or build_pseudosample(*a),
        )
        assert trimmed_sd_pairwise(x, eps0=0.1).value == want
        est = hl_central_moment(x, 2, TrimSpec(0.2), LEstimatorSpec.median())
        assert est.pseudo_n == math.comb(n, 2)
        hl_standardized_moment(x, 3, TrimSpec(0.1))
        assert [a[1] for a in calls] == [3]  # only the numerator is built
        hl_central_moment(x, 2, plan=MonteCarloPlan(draws=1000, seed=1))
        hl_central_moment(x, 2, estimator=LEstimatorSpec.weighted(lambda m: np.full(m, 1 / m)))
        trimmed_sd_pairwise(x, plan=MonteCarloPlan(draws=1000, seed=1))
        assert len(calls) == 4

    @pytest.mark.parametrize("n", [100, N_SELECTED])
    def test_untrimmed_is_exact_under_location_shift(self, n):
        # multiples of 2^-20 below 64 stay exact under these shifts, so every
        # shifted estimate has the unshifted sample's exact U-statistic; their
        # squares do not fit in a double once shifted, so sums of x and x^2
        # would cancel
        x = np.round(np.random.default_rng(32).gamma(2.0, 1.0, n) * 2**20) / 2**20
        want = float(exact_u_statistic([Fraction(v) for v in x], 2))
        for shift in (0.0, 1e2, 1e3, 1e4):
            got = hl_central_moment(x + shift, 2).value
            assert abs(got - want) <= 1e-12 * abs(want), shift

    @pytest.mark.parametrize("n, limit", [(3000, 4 << 20), (10_000, 8 << 20)])
    def test_memory_does_not_grow_with_the_pairs(self, n, limit):
        # the built path held C(n, 2) doubles: 34 MiB at n = 3000
        x = np.random.default_rng(4).normal(size=n)
        trimmed_sd_pairwise(x[:N_SELECTED], eps0=0.1)  # warm caches
        tracemalloc.start()
        try:
            est = trimmed_sd_pairwise(x, eps0=0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.pseudo_n == math.comb(n, 2)
        assert peak <= limit

    @pytest.mark.parametrize("n", [3, N_SELECTED])
    @pytest.mark.parametrize("big", [1e308, 1e160])
    def test_overflowing_differences_raise_argument_error(self, n, big):
        # x_j - x_i overflows at 1e308, its square at 1e160; either way the
        # error comes before the (here degenerate) trim window is checked
        degenerate = TrimSpec(0.999999, 0.0)
        with np.errstate(all="ignore"):
            x = np.linspace(-1.0, 1.0, n) * big
            for trim in (TrimSpec(), TrimSpec(0.1), degenerate):
                with pytest.raises(ArgumentError):
                    hl_central_moment(x, 2, trim)
                with pytest.raises(ArgumentError):
                    hl_central_moment(x, 2, trim, LEstimatorSpec.median())
                with pytest.raises(ArgumentError):
                    trimmed_sd_pairwise(x, trim.eps0, trim.gamma)
            with pytest.raises(ArgumentError):
                hl_standardized_moment(x, 3)

    @pytest.mark.parametrize("n", [100, N_SELECTED])
    def test_contract_errors(self, n):
        x = np.random.default_rng(5).normal(size=n)
        with pytest.raises(CapacityError):
            trimmed_sd_pairwise(x, 0.1, plan=ExactPlan(budget=math.comb(n, 2) - 1))
        with pytest.raises(CapacityError):
            hl_central_moment(x, 2, TrimSpec(0.1), plan=ExactPlan(budget=math.comb(n, 2) - 1))
        with pytest.raises(DegenerateTrimError):
            hl_central_moment(x, 2, TrimSpec(0.999999, 0.0))
        with pytest.raises(DegenerateTrimError):
            trimmed_sd_pairwise(x, 0.999999, 0.0)
        with pytest.raises(ArgumentError):
            hl_central_moment(x[:1], 2)
        with pytest.raises(ArgumentError):
            hl_central_moment(x, 2.0)

    @pytest.mark.parametrize("n", [100, N_SELECTED])
    def test_chunk_does_not_change_results(self, n):
        x = np.random.default_rng(6).gamma(2.0, 1.0, size=n)

        def results(plan):
            return [
                trimmed_sd_pairwise(x, 0.1, plan=plan).value,
                hl_central_moment(x, 2, TrimSpec(0.2, 0.5), plan=plan).value,
                hl_central_moment(x, 2, TrimSpec(0.1), LEstimatorSpec.median(), plan).value,
                hl_standardized_moment(x[:40], 3, TrimSpec(0.1), plan=plan).value,
            ]

        want = results(ExactPlan())
        for chunk in (7, 4096):
            assert results(ExactPlan(chunk=chunk)) == want, chunk

    @pytest.mark.parametrize("sample", [["a", "b", "c"], [1.0, {}, 2.0], [[1.0], [2.0, 3.0]]])
    def test_non_numeric_sample_is_argument_error(self, sample):
        with pytest.raises(ArgumentError):
            hl_central_moment(sample, 2)
        with pytest.raises(ArgumentError):
            trimmed_sd_pairwise(sample)
        with pytest.raises(ArgumentError):
            build_pseudosample(sample, 2)


class TestSpecTypes:
    @pytest.mark.parametrize("k", [2, 3])  # k = 2 is selected, k = 3 builds
    def test_wrong_spec_type_is_argument_error(self, k):
        x = [1.0, 2.0, 3.0, 5.0]
        with pytest.raises(ArgumentError, match="TrimSpec"):
            hl_central_moment(x, k, trim=0.1)
        with pytest.raises(ArgumentError, match="LEstimatorSpec"):
            hl_central_moment(x, k, estimator="median")

    @pytest.mark.parametrize(
        "wrong", [{"trim": 0.1}, {"trim_scale": 0.1}, {"estimator": "median"}], ids=["trim", "trim_scale", "estimator"]
    )
    def test_standardized_moment_checks_each_spec(self, wrong):
        x = np.random.default_rng(2).normal(size=12)
        with pytest.raises(ArgumentError):
            hl_standardized_moment(x, 3, **wrong)


UNIFORM_WEIGHTS = LEstimatorSpec.weighted(lambda m: np.full(m, 1.0 / m))
OVERFLOW_ROUTES = {  # name: (k, keyword arguments); only "selected" never builds the pairs
    "selected": (2, {}),
    "weighted": (2, {"estimator": UNIFORM_WEIGHTS}),
    "monte-carlo": (2, {"plan": MonteCarloPlan(draws=100, seed=1)}),
    "k3": (3, {}),
}


class TestOverflow:
    @pytest.mark.parametrize(
        "n, route", [(n, r) for n in (3, 300) for r in OVERFLOW_ROUTES if n == 3 or r != "k3"]
    )
    def test_one_message_and_no_runtime_warning(self, n, route):
        k, kwargs = OVERFLOW_ROUTES[route]
        x = np.linspace(-1.0, 1.0, n) * 1e308
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ArgumentError) as info:
                hl_central_moment(x, k, **kwargs)
        assert str(info.value) == pseudosample._OVERFLOW
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("n", [3, 300])
    @pytest.mark.parametrize("kwargs", [{}, {"estimator": LEstimatorSpec.median()},
                                        {"plan": MonteCarloPlan(draws=1000, seed=1)}],
                             ids=["selected-mean", "selected-median", "monte-carlo-mean"])
    def test_finite_kernel_values_give_a_finite_estimate(self, n, kwargs):
        # every kernel value is below 1.7e308, but the window sums overflow
        x = np.linspace(-1.0, 1.0, n) * 9e153
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = hl_central_moment(x, 2, **kwargs).value
        want = hl_central_moment(x * 2.0**-20, 2, **kwargs).value * 2.0**40
        assert abs(got - want) <= 1e-13 * want
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_selected_and_built_means_agree_where_the_sum_overflows(self):
        x = np.linspace(-1.0, 1.0, 300) * 9e153
        trim = TrimSpec(0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            selected = hl_central_moment(x, 2, trim).value
            built = apply_lestimator(LEstimatorSpec.trimmed_mean(), build_pseudosample(x, 2), trim)
        assert math.isfinite(built) and abs(selected - built) <= 1e-13 * built


# Samples whose plain evaluation overflows somewhere: the sum behind the mean,
# a difference or a power.
WIDE_SAMPLES = {
    "linspace-1e160": np.linspace(-1.0, 1.0, 10) * 1e160,
    "falling-1.7e308": np.array([1.7e308, 1.6e308, 1.5e308, 1.4e308]),
    "quartet-1e308": np.array([-1e308, -2e307, 2e307, 1e308]),
    "shifted-1e300": 1e300 + np.arange(5.0) * 1e290,
}
DBL_MAX = Fraction(np.finfo(np.float64).max)


def _matches_exact(call, want: Fraction, scale: Fraction) -> None:
    """call() is want to 1e-12 of scale, or the overflow error where every value
    that close is past a double (either one where only some are)."""
    tol = scale / 10**12
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            got = call()
        except ArgumentError as exc:
            assert str(exc) == pseudosample._OVERFLOW
            assert abs(want) + tol > DBL_MAX
            return
    assert abs(want) - tol <= DBL_MAX
    assert math.isfinite(got) and abs(Fraction(got) - want) <= tol


def _scale(x, k: int) -> Fraction:
    """max |x_i|^k, exact: rounding the mean errs in proportion to it."""
    return max(abs(Fraction(v)) for v in x) ** k


class TestWideSamples:
    """Plain moments, h-statistics and the symmetric SD on samples whose plain
    evaluation overflows: the value where a double holds it, else the overflow
    error, and never a numpy RuntimeWarning."""

    @pytest.mark.parametrize("name", WIDE_SAMPLES)
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_sample_central_moment(self, name, k):
        x = WIDE_SAMPLES[name]
        want = exact_population_central_moment(x, [Fraction(1, x.size)] * x.size, k)
        _matches_exact(lambda: sample_central_moment(x, k), want, _scale(x, k))

    @pytest.mark.parametrize("name", WIDE_SAMPLES)
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_h_statistic(self, name, k):
        x = WIDE_SAMPLES[name]
        _matches_exact(lambda: h_statistic(x, k), exact_u_statistic(x, k), _scale(x, k))

    @pytest.mark.parametrize("name", WIDE_SAMPLES)
    @pytest.mark.parametrize("eps", [0.0, 0.2])
    def test_trimmed_sd_symmetric(self, name, eps):
        xs = sorted(Fraction(v) for v in WIDE_SAMPLES[name])
        n = len(xs)
        d2 = [(xs[i - 1] - xs[n - i]) ** 2 for i in range(n // 2 + 1, math.floor(n * (1 - eps)) + 1)]
        mean_square = sum(d2) / len(d2)
        # sqrt of the exact mean square, to 1e-12, with no conversion that overflows
        root = Fraction(math.isqrt(int(mean_square * 10**24)), 10**12)
        _matches_exact(lambda: trimmed_sd_symmetric(WIDE_SAMPLES[name], eps).value, root,
                       _scale(WIDE_SAMPLES[name], 1))

    def test_ordinary_samples_keep_their_bits(self):
        # the rescaled path is taken only where the plain one overflows
        x = np.random.default_rng(12).normal(3.0, 2.0, size=41)
        d = x - x.mean()
        assert sample_central_moment(x, 3) == float(np.mean(d**3))
        assert h_statistic(x, 2) == float((d @ d) / (x.size - 1))
        xs = np.sort(x)
        i = np.arange(41 // 2 + 1, math.floor(41 * 0.9) + 1)
        e = xs[i - 1] - xs[41 - i]
        assert trimmed_sd_symmetric(x, 0.1).value == math.sqrt(float(np.mean(e * e)))
