"""Kernel evaluation against exact brute-force expansion and closed forms."""

import tracemalloc
import warnings
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hlmoments import (
    ArgumentError,
    UnsupportedOrderError,
    boundary_kernel_value,
    central_moment_kernel,
    kernel_support_bounds,
    kernel_values,
    signed_binomial_sums,
)
from hlmoments.kernels import _TILE, _power_sum_coefficients
from hlmoments.lstat import _OVERFLOW

from oracles import (
    exact_kernel_expectation,
    exact_population_central_moment,
    psi_exact,
)


def _rational_tuple(rng, k, top, den):
    # k rationals a/b with |a| <= top and 1 <= b <= den
    nums = rng.integers(-top, top + 1, size=k)
    dens = rng.integers(1, den + 1, size=k)
    return [Fraction(int(a), int(b)) for a, b in zip(nums, dens)]


class TestKnownValues:
    def test_pair_kernel(self):
        assert central_moment_kernel([0.0, 1.0]) == 0.5

    def test_point_mass_is_zero(self):
        for c in (-3.5, 0.0, 7.25):
            assert central_moment_kernel([c, c, c]) == pytest.approx(0.0, abs=1e-12)

    def test_third_order_values(self):
        assert central_moment_kernel([0.0, 1.0, 1.0]) == pytest.approx(-1 / 3, rel=1e-14)
        assert central_moment_kernel([0.0, 1.0, 3.0]) == pytest.approx(10 / 3, rel=1e-14)

    def test_fourth_order_value(self):
        assert central_moment_kernel([0.0, 0.0, 1.0, 1.0]) == pytest.approx(-1 / 6, rel=1e-14)

    def test_third_order_matches_unbiased_three_point_formula(self):
        # n/((n-1)(n-2)) * sum((x-xbar)^3) with n = 3
        x = np.array([0.0, 1.0, 3.0])
        h3 = 3.0 / (2.0 * 1.0) * np.sum((x - x.mean()) ** 3)
        assert central_moment_kernel(x) == pytest.approx(h3, rel=1e-13)


class TestAgainstExactExpansion:
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7])
    def test_random_rational_tuples(self, k):
        rng = np.random.default_rng(100 + k)
        for _ in range(30):
            nums = rng.integers(-12, 13, size=k)
            dens = rng.integers(1, 8, size=k)
            tup = [Fraction(int(a), int(b)) for a, b in zip(nums, dens)]
            want = float(psi_exact(tup))
            got = central_moment_kernel([float(v) for v in tup], k)
            scale = max(abs(want), float(max(abs(v) for v in tup)) ** k * 1e-6, 1e-9)
            assert abs(got - want) / scale < 1e-12

    @pytest.mark.parametrize("k", range(2, 13))
    def test_closed_forms_match_expanded_evaluator(self, k):
        # the power-sum polynomial against the literal expansion, one batch
        rng = np.random.default_rng(7 + k)
        rows = 3 if k >= 10 else 20
        tups = [_rational_tuple(rng, k, 12, 7) for _ in range(rows)]
        x = np.array([[float(v) for v in t] for t in tups])
        got = kernel_values(x, k)
        for t, row, value in zip(tups, x, got):
            want = float(psi_exact(t))
            scale = max(abs(want), float(np.mean(np.abs(row - row.mean()) ** k)))
            assert abs(value - want) <= 1e-12 * scale

    @pytest.mark.parametrize("k", range(2, 13))
    def test_power_sum_coefficients_are_exact(self, k):
        # sum_parts c * prod p_r(t - mean t) equals psi_k(t) in rational arithmetic
        terms = _power_sum_coefficients(k)
        assert all(sum(parts) == k and min(parts) >= 2 for parts, _ in terms)
        rng = np.random.default_rng(200 + k)
        for _ in range(2 if k >= 10 else 6):
            t = _rational_tuple(rng, k, 9, 5)
            mean = sum(t) / k
            p = {r: sum((v - mean) ** r for v in t) for r in range(2, k + 1)}
            value = Fraction(0)
            for parts, coef in terms:
                term = coef
                for r in parts:
                    term *= p[r]
                value += term
            assert value == psi_exact(t)


class TestExactExpectationOracle:
    """E[psi_k] over a discrete distribution equals mu_k, in exact arithmetic."""

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_three_atoms(self, k):
        atoms = [Fraction(-1), Fraction(1, 2), Fraction(3)]
        probs = [Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)]
        assert exact_kernel_expectation(atoms, probs, k) == exact_population_central_moment(
            atoms, probs, k
        )

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_four_atoms(self, k):
        atoms = [Fraction(-2), Fraction(0), Fraction(1, 3), Fraction(5, 2)]
        probs = [Fraction(1, 8), Fraction(3, 8), Fraction(1, 8), Fraction(3, 8)]
        assert exact_kernel_expectation(atoms, probs, k) == exact_population_central_moment(
            atoms, probs, k
        )


class TestInvariances:
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_permutation_invariance_is_exact(self, k):
        # evaluation canonicalizes argument order, so this is bitwise
        rng = np.random.default_rng(40 + k)
        for _ in range(200 // k):
            t = rng.uniform(-5.0, 5.0, size=k)
            base = central_moment_kernel(t, k)
            for perm in permutations(range(k)):
                assert central_moment_kernel(t[list(perm)], k) == base

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_degeneracy(self, k):
        for c in (-7.5, -1.0, 0.5, 42.0):
            assert abs(central_moment_kernel([c] * k, k)) <= 1e-12 * max(abs(c), 1.0) ** k

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_location_scale_equivariance(self, k):
        rng = np.random.default_rng(60 + k)
        worst = 0.0
        for _ in range(200):
            t = rng.uniform(-5.0, 5.0, size=k)
            lam = rng.uniform(-3.0, 3.0)
            mu = rng.uniform(-5.0, 5.0)
            lhs = central_moment_kernel(lam * t + mu, k)
            rhs = lam**k * central_moment_kernel(t, k)
            scale = max(abs(rhs), 1e-3 * (abs(lam) * np.abs(t).max() + abs(mu) + 1.0) ** k)
            worst = max(worst, abs(lhs - rhs) / scale)
        assert worst < 1e-10

    def test_shift_only_leaves_kernel_unchanged(self):
        t = np.array([0.3, -1.2, 2.5, 0.9])
        base = central_moment_kernel(t)
        for mu in (-10.0, 3.25):
            moved = central_moment_kernel(t + mu)
            assert moved == pytest.approx(base, rel=1e-10, abs=1e-12)

    def test_negative_scale_flips_sign_for_odd_k(self):
        t = np.array([0.1, 1.4, -2.2])
        assert central_moment_kernel(-t) == pytest.approx(
            -central_moment_kernel(t), rel=1e-12
        )


class TestBoundaryValues:
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_matches_direct_evaluation(self, k):
        rng = np.random.default_rng(80 + k)
        for _ in range(20):
            a = rng.uniform(-3.0, 1.0)
            b = a + rng.uniform(0.5, 3.0)
            for i in range(1, k):
                direct = central_moment_kernel([a] * i + [b] * (k - i), k)
                closed = boundary_kernel_value(k, i, a, b)
                assert direct == pytest.approx(closed, rel=1e-10, abs=1e-11)

    def test_known_values(self):
        assert boundary_kernel_value(3, 1, 0.0, 1.0) == pytest.approx(-1 / 3, rel=1e-15)
        assert boundary_kernel_value(4, 2, 0.0, 1.0) == pytest.approx(-1 / 6, rel=1e-15)
        assert boundary_kernel_value(2, 1, 1.7, 1.7) == 0.0

    def test_i_out_of_range(self):
        with pytest.raises(ArgumentError):
            boundary_kernel_value(3, 0, 0.0, 1.0)
        with pytest.raises(ArgumentError):
            boundary_kernel_value(3, 3, 0.0, 1.0)


class TestSupportBounds:
    def test_known_values(self):
        assert kernel_support_bounds(3, -1.0) == pytest.approx((-1 / 3, 1 / 3))
        assert kernel_support_bounds(4, -1.0) == pytest.approx((-1 / 6, 1 / 4))
        assert kernel_support_bounds(2, 0.0) == (0.0, 0.0)

    def test_ordering(self):
        for k in range(2, 9):
            lo, hi = kernel_support_bounds(k, -2.5)
            assert lo <= 0.0 <= hi

    def test_positive_delta_rejected(self):
        with pytest.raises(ArgumentError):
            kernel_support_bounds(3, 0.5)

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_extrema_realized_on_grid(self, k):
        # brute force over sorted grid tuples with min 0, max 1
        from itertools import combinations_with_replacement

        res = 24
        interior = (
            np.array(list(combinations_with_replacement(range(res + 1), k - 2)), dtype=float)
            / res
        )
        tuples = np.empty((interior.shape[0], k))
        tuples[:, 0] = 0.0
        tuples[:, 1:-1] = interior
        tuples[:, -1] = 1.0
        v = kernel_values(tuples, k)
        lo, hi = kernel_support_bounds(k, -1.0)
        assert v.min() == pytest.approx(lo, abs=1.5 / res)
        assert v.max() == pytest.approx(hi, abs=1.5 / res)
        assert v.min() >= lo - 1e-12 and v.max() <= hi + 1e-12


class TestSignedBinomialSums:
    def test_known_values(self):
        assert signed_binomial_sums(4, 2) == (1, 0)
        assert signed_binomial_sums(5, 3) == (-1, -1)
        assert signed_binomial_sums(7, 5) == (-1, -3)

    def test_closed_forms_exactly(self):
        for k in range(2, 21):
            for h in range(2, k + 1):
                s1, s2 = signed_binomial_sums(k, h)
                assert s1 == (-1) ** k
                assert s2 == (h - 2) * (-1) ** k

    def test_range_validation(self):
        with pytest.raises(ArgumentError):
            signed_binomial_sums(4, 1)
        with pytest.raises(ArgumentError):
            signed_binomial_sums(4, 5)


class TestValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(ArgumentError):
            central_moment_kernel([1.0, 2.0, 3.0], 2)

    def test_order_cap(self):
        with pytest.raises(UnsupportedOrderError):
            central_moment_kernel(list(range(13)), 13)

    def test_order_too_small(self):
        with pytest.raises(ArgumentError):
            central_moment_kernel([1.0], 1)

    def test_non_finite_rejected(self):
        with pytest.raises(ArgumentError):
            central_moment_kernel([np.nan, 1.0])
        with pytest.raises(ArgumentError):
            central_moment_kernel([np.inf, 1.0])

    @pytest.mark.parametrize("values", [
        [1e100, -1e100, 0.0, 1.0],
        [1e200, -1e200, 0.0],
        [[0.0, 1.0, 3.0], [1e200, -1e200, 0.0]],
        [[0.0, 1.0, 3.0, 4.0], [1e100, -1e100, 0.0, 1.0]],
    ], ids=["tuple-k4", "tuple-k3", "batch-k3", "batch-k4"])
    def test_overflow_is_the_overflow_error_without_warnings(self, values):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArgumentError) as info:
                central_moment_kernel(values)
        assert str(info.value) == _OVERFLOW


class TestTiles:
    """kernel_values takes its rows one fixed tile at a time."""

    @pytest.mark.parametrize("k", range(2, 13))
    @pytest.mark.parametrize("m", [_TILE - 1, _TILE, _TILE + 1, 2 * _TILE + 7])
    def test_tiles_change_no_bit(self, k, m):
        # every row is evaluated alone, so 1000-row slices give the same bytes;
        # rows arrive column-contiguous from the pipeline and row-contiguous here
        x = np.sort(np.random.default_rng(k * m).gamma(2.0, 1.0, size=(m, k)), axis=1)
        for rows in (x, np.asfortranarray(x)):
            whole = kernel_values(rows, k)
            parts = [kernel_values(rows[a:a + 1000], k) for a in range(0, m, 1000)]
            assert whole.tobytes() == np.concatenate(parts).tobytes()

    @pytest.mark.parametrize("k", [3, 4, 12])
    def test_temporaries_are_bounded_by_the_tile(self, k):
        x = np.asfortranarray(np.random.default_rng(k).normal(size=(1 << 18, k)))
        kernel_values(x[:10], k)  # warm the coefficient cache
        tracemalloc.start()
        try:
            out = kernel_values(x, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes <= 4 << 20


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-50, 50, allow_nan=False), min_size=2, max_size=6),
    st.floats(-3, 3),
)
def test_hypothesis_shift_and_scale(values, lam):
    t = np.asarray(values)
    k = t.size
    lhs = central_moment_kernel(lam * t, k)
    rhs = lam**k * central_moment_kernel(t, k)
    scale = max(abs(rhs), 1e-3 * ((abs(lam) + 1.0) * (np.abs(t).max() + 1.0)) ** k)
    assert abs(lhs - rhs) / scale < 1e-10
