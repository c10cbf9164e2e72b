"""Families, quantile averages, and congruence verdicts."""

import math
import re
import tracemalloc
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import erfcinv, gammainc, gammainccinv, gammaincinv, ndtr, ndtri
from scipy.stats import norm

from hlmoments import (
    ArgumentError,
    CongruenceVerdict,
    Family,
    Gamma,
    GeneralizedGaussian,
    LogNormal,
    Pareto,
    Uniform,
    Weibull,
    congruence_check,
    laplace,
    lognormal_qa_sigma_derivative,
    normal,
    parse_family,
    qa_partial_sign,
    quantile_average,
)
from hlmoments import distributions
from hlmoments.distributions import (
    _CONGRUENCE_DELTA,
    _DEAD_BAND,
    _EPS_MACH,
    _STIRLING_A,
    _gammaincinv,
    _open_unit,
    _pq,
)
from hlmoments.kernels import _TILE

ALL_FAMILIES = [
    Weibull(1.0, 1.0),
    Weibull(0.5, 1.0),
    Pareto(2.0, 1.0),
    LogNormal(0.0, 1.0),
    Gamma(2.0, 1.0),
    GeneralizedGaussian(0.0, 1.0, 1.5),
    normal(0.0, 1.0),
    laplace(0.0, 1.0),
    Uniform(0.0, 1.0),
]


class TestQuantiles:
    def test_weibull_medians(self):
        assert Weibull(1.0, 1.0).quantile(0.5) == pytest.approx(math.log(2), rel=1e-12)
        assert Weibull(0.5, 1.0).quantile(0.5) == pytest.approx(
            math.log(2) ** 2, rel=1e-12
        )

    def test_uniform(self):
        assert Uniform(0.0, 1.0).quantile(0.25) == 0.25

    def test_lognormal_erfcinv_form(self):
        # Q(p) = exp(mu - sqrt(2) * sigma * erfcinv(2p))
        f = LogNormal(0.3, 1.7)
        for p in (0.05, 0.31, 0.5, 0.77, 0.99):
            want = math.exp(0.3 - math.sqrt(2.0) * 1.7 * erfcinv(2.0 * p))
            assert f.quantile(p) == pytest.approx(want, rel=1e-12)

    def test_pareto_closed_form(self):
        f = Pareto(2.0, 3.0)
        assert f.quantile(0.75) == pytest.approx(3.0 * 0.25 ** (-0.5), rel=1e-14)

    def test_normal_helper_matches_standard_quantiles(self):
        f = normal(0.0, 1.0)
        assert f.quantile(0.5) == pytest.approx(0.0, abs=1e-12)
        assert f.quantile(0.975) == pytest.approx(1.959964, abs=1e-5)

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.label)
    def test_cdf_quantile_round_trip(self, family):
        ps = np.arange(0.01, 1.0, 0.01)
        back = family.cdf(family.quantile(ps))
        assert np.max(np.abs(back - ps)) < 1e-10

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.label)
    def test_quantile_monotone(self, family):
        ps = np.linspace(0.001, 0.999, 250)
        q = family.quantile(ps)
        assert np.all(np.diff(q) >= 0)

    def test_out_of_range_p(self):
        with pytest.raises(ArgumentError):
            Uniform(0.0, 1.0).quantile(0.0)
        with pytest.raises(ArgumentError):
            Uniform(0.0, 1.0).quantile(1.0)

    def test_parameter_validation(self):
        with pytest.raises(ArgumentError):
            Weibull(-1.0, 1.0)
        with pytest.raises(ArgumentError):
            Uniform(2.0, 1.0)
        with pytest.raises(ArgumentError):
            LogNormal(0.0, 0.0)


GAMMA_SHAPES = [0.1, 0.25, 0.5, 2.0 / 3.0, 1.0, 1.5, 2.0, 5.0, 50.0]

#: Shapes where P at the solver's lower starts underflows, up to _pq's largest.
LARGE_SHAPES = [2000.0, 5000.0, 9999.0]

#: Tails far below 2^-60, where the Newton solver's steps meet underflow.
DEEP_TAILS = [1e-20, 1e-100, 1e-300]

#: How many ulp the package's inverse may be worse than scipy's gammaincinv at
#: its worst point: room for a last-bit difference in libm's pow and exp.
ULP_MARGIN = 4.0


def _gamma_seams(a):
    """Seams to cross: _gammaincinv's two halves at u = 1/2, its residual's series and
    continued fraction at x = a + 1, and u = 2^-60 in the lower tail."""
    return [0.5, float(gammainc(a, a + 1.0)), 2.0**-60]


def _gamma_points(a):
    """Seeded 53-bit draws, both tails down to 2^-52, u = 1/2, P(a, 2) and 2^-60 each
    with its neighbours, points just below x = 2, and u = 1e-20, 1e-100 and 1e-300."""
    draws = np.random.default_rng(2024).integers(1, 1 << 53, 150) / float(1 << 53)
    tails = 2.0 ** -np.arange(1, 53)
    marks = [0.5, float(gammainc(a, 2.0)), 2.0**-60]
    seams = [np.nextafter(s, d) for s in marks for d in (0.0, 1.0)]
    below_two = gammainc(a, np.array([1.0, 1.5, 1.9, 1.99, 1.999]))
    return np.concatenate([draws, tails, 1.0 - tails, marks, seams, below_two, DEEP_TAILS])


def _oracle_ulp_errors(mpmath, a, u, x, q=None):
    """|x - x*| in ulp of x*, where x* solves P(a, x*) = u (Q(a, x*) = 1 - u above
    u = 1/2, or Q(a, x*) = q at every point when q is given) by Newton's method at
    100 bits from scipy's answer.  Where scipy gives 0, x* must round to 0."""
    out = []
    q = [None] * len(u) if q is None else q.tolist()
    with mpmath.workprec(100):
        am = mpmath.mpf(a)
        for ui, qi, xi in zip(u.tolist(), q, x.tolist()):
            um = mpmath.mpf(ui)
            upper = ui > 0.5 or qi is not None
            tail = mpmath.mpf(qi) if qi is not None else 1 - um
            root = mpmath.mpf(float(gammainccinv(a, float(tail)) if upper else gammaincinv(a, ui)))
            if root == 0:
                assert not upper and mpmath.gammainc(am, 0, mpmath.mpf(2) ** -1075, regularized=True) >= um
                out.append(abs(xi) / np.spacing(0.0))
                continue
            for _ in range(6):
                pdf = mpmath.exp((am - 1) * mpmath.log(root) - root - mpmath.loggamma(am))
                if upper:
                    miss = tail - mpmath.gammainc(am, root, mpmath.inf, regularized=True)
                else:
                    miss = mpmath.gammainc(am, 0, root, regularized=True) - um
                step = miss / pdf
                root -= step
                if abs(step) < root * mpmath.mpf(2) ** -90:
                    break
            out.append(float(abs(mpmath.mpf(xi) - root)) / np.spacing(float(root)))
    return np.array(out)


class TestGammaQuantile:
    """The inverse of P(a, x) behind the gamma and generalized Gaussian quantiles."""

    @pytest.mark.parametrize("a", GAMMA_SHAPES, ids=lambda a: f"a={a:.3g}")
    def test_no_worse_than_scipy_against_an_mpmath_oracle(self, a):
        mpmath = pytest.importorskip("mpmath")
        u = _gamma_points(a)
        ours = _oracle_ulp_errors(mpmath, a, u, _gammaincinv(a, u))
        theirs = _oracle_ulp_errors(mpmath, a, u, gammaincinv(a, u))
        assert ours.max() <= theirs.max() + ULP_MARGIN, (ours.max(), theirs.max())
        # the deep upper tails, Q(a, x) = q itself, which 1 - u cannot carry below 2^-53
        q = np.array(DEEP_TAILS)
        ours = _oracle_ulp_errors(mpmath, a, 1.0 - q, _gammaincinv(a, 1.0 - q, q), q)
        theirs = _oracle_ulp_errors(mpmath, a, 1.0 - q, gammainccinv(a, q), q)
        assert ours.max() <= theirs.max() + ULP_MARGIN, (ours.max(), theirs.max())

    def test_shape_50_at_two_to_the_minus_12(self):
        # the residual's own P: scipy's gammainc is 117 ulp off at the start there
        mpmath = pytest.importorskip("mpmath")
        u = np.array([2.0**-12])
        assert _oracle_ulp_errors(mpmath, 50.0, u, _gammaincinv(50.0, u))[0] <= 4.0

    @pytest.mark.parametrize("a", GAMMA_SHAPES + LARGE_SHAPES, ids=lambda a: f"a={a:.3g}")
    def test_seeded_draws_never_fall_back_to_scipy(self, a, monkeypatch):
        def no_scipy():
            raise AssertionError("scipy fallback")

        monkeypatch.setattr(distributions, "_special", no_scipy)
        for seed in range(3):
            assert np.isfinite(Gamma(a).sample(20_000, seed)).all()
            # nor a tiny shape, most of whose draws underflow
            assert np.isfinite(Gamma(1e-3).sample(20_000, seed)).all()
        # nor deep tails, down to the smallest subnormal
        tail = np.array(DEEP_TAILS + [2.0**-1074])
        assert np.isfinite(_gammaincinv(a, tail)).all()
        assert np.isfinite(_gammaincinv(a, 1.0 - tail, tail)).all()

    @pytest.mark.parametrize("a", GAMMA_SHAPES + LARGE_SHAPES, ids=lambda a: f"a={a:.3g}")
    def test_seeded_quantiles_never_fall_back_to_scipy(self, a, monkeypatch):
        # draws take numpy's gamma sampler, so the quantile's body is checked here
        def no_scipy():
            raise AssertionError("scipy fallback")

        monkeypatch.setattr(distributions, "_special", no_scipy)
        for seed in range(3):
            u = _open_unit(np.random.default_rng(seed), 20_000)
            assert np.isfinite(Gamma(a).quantile(u)).all()
            assert np.isfinite(Gamma(1e-3).quantile(u)).all()

    @pytest.mark.parametrize("a", GAMMA_SHAPES + [1e-3, 3e3, 9999.0], ids=lambda a: f"a={a:.3g}")
    def test_monotone_across_the_seams(self, a):
        steps = 1.0 + np.arange(-500, 501) * 2.0**-40
        for seam in _gamma_seams(a):
            x = _gammaincinv(a, seam * steps)
            assert np.all(np.diff(x) >= 0), seam
        # both halves on a geometric grid through [2^-1074, 2^-60] and across the
        # subnormal seam at 2^-1022
        tail = np.unique(np.concatenate([2.0 ** -np.linspace(1074, 60, 4057), 2.0**-1022 * steps]))
        lower, upper = _gammaincinv(a, tail), _gammaincinv(a, 1.0 - tail, tail)
        assert np.isfinite(lower).all() and np.isfinite(upper).all()
        assert np.all(np.diff(lower) >= 0) and np.all(np.diff(upper) <= 0)

    def test_zero_and_one_and_the_shape_of_the_input(self):
        assert _gammaincinv(0.5, np.array([0.0, 1.0])).tolist() == [0.0, math.inf]
        assert _gammaincinv(0.5, 0.3).shape == ()
        grid = np.linspace(0.05, 0.95, 12).reshape(3, 4)
        out = _gammaincinv(0.5, grid)
        assert out.shape == (3, 4) and np.array_equal(out.ravel(), _gammaincinv(0.5, grid.ravel()))

    @pytest.mark.parametrize("family", [Gamma(0.5, 2.0), GeneralizedGaussian(1.7, 2.0, 1.5)],
                             ids=lambda f: f.label)
    def test_family_quantiles_keep_the_input_shape(self, family):
        assert type(family.quantile(np.float64(0.3))) is float
        assert family.quantile(np.full((2, 3), 0.7)).shape == (2, 3)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 1.5, 2.0, 8.0])
    def test_generalized_gaussian_median_is_mu_exactly(self, beta):
        assert GeneralizedGaussian(1.7, 2.0, beta).quantile(0.5) == 1.7

    @pytest.mark.parametrize("p", [1e-10, 1e-5, 1.0 - 1e-10, 2.0**-52])
    def test_normal_and_laplace_tails_keep_the_bits_of_p(self, p):
        # the upper half takes the exact tail 2 min(p, 1 - p), not 1 - |2p - 1|
        tail = min(p, 1.0 - p)
        sign = -1.0 if p < 0.5 else 1.0
        for got, want in ((normal().quantile(p), -sign * ndtri(tail)),
                          (laplace().quantile(p), sign * -math.log(2.0 * tail))):
            assert abs(got - want) <= 4.0 * np.spacing(abs(want)), (got, want)

    def test_generalized_gaussian_lower_tail_cdf_keeps_its_bits(self):
        assert normal().cdf(-10.0) == pytest.approx(norm.cdf(-10.0), rel=1e-13)
        assert laplace().cdf(-30.0) == pytest.approx(0.5 * math.exp(-30.0), rel=1e-13)


class TestIncompleteGammaRatio:
    """``_pq``: P(a, x) by its series below x = a + 1, Q(a, x) by Legendre's fraction above."""

    @pytest.mark.parametrize("a", [0.1, 2.0 / 3.0, 1.5, 5.0, 50.0], ids=lambda a: f"a={a:.3g}")
    def test_against_mpmath_on_both_sides_of_a_plus_one(self, a):
        mpmath = pytest.importorskip("mpmath")
        x = np.array([a / 2.0, a, np.nextafter(a + 1.0, 0.0), a + 1.0, 2.0 * (a + 1.0)])
        p, q, pre = _pq(a, x)
        np.testing.assert_allclose(p + q, 1.0, rtol=0, atol=_EPS_MACH)
        with mpmath.workprec(100):
            for xi, pi, qi, prei in zip(x.tolist(), p, q, pre):
                am, xm = mpmath.mpf(a), mpmath.mpf(xi)
                lower = xi < a + 1.0
                want = mpmath.gammainc(am, 0, xm, regularized=True) if lower else \
                    mpmath.gammainc(am, xm, mpmath.inf, regularized=True)
                got = pi if lower else qi
                assert abs(float((got - want) / want)) <= 8 * _EPS_MACH, (xi, got, float(want))
                want_pre = mpmath.exp(am * mpmath.log(xm) - xm - mpmath.loggamma(am))
                assert abs(float((prei - want_pre) / want_pre)) <= 8 * _EPS_MACH, xi

    def test_the_two_prefactor_forms_meet_at_the_stirling_seam(self):
        below = np.nextafter(_STIRLING_A, 0.0)
        x = _STIRLING_A * np.array([0.5, 0.9, 1.0, 1.1, 2.0])
        for got, want in zip(_pq(below, x), _pq(_STIRLING_A, x)):
            np.testing.assert_allclose(got, want, rtol=1e-13)

    @pytest.mark.parametrize("a", [1e-3, 3e3, 2e4], ids=lambda a: f"a={a:g}")
    def test_extreme_shapes_match_scipy(self, a):
        # 2e4 is above _A_MAX, where scipy gives P and Q; 1e-3 and 3e3 are the package's
        u = np.array([1e-20, 1e-5, 0.3, 0.5, 0.7, 1.0 - 1e-5])
        want = np.where(u > 0.5, gammainccinv(a, 1.0 - u), gammaincinv(a, u))
        np.testing.assert_allclose(Gamma(a).quantile(u), want, rtol=1e-12)
        np.testing.assert_allclose(Gamma(a).cdf(want), gammainc(a, want), rtol=1e-12)

    def test_ends_and_nan(self):
        p, q, pre = _pq(2.0, np.array([0.0, np.inf, np.nan]))
        assert p[:2].tolist() == [0.0, 1.0] and q[:2].tolist() == [1.0, 0.0]
        assert pre[:2].tolist() == [0.0, 0.0] and np.isnan([p[2], q[2], pre[2]]).all()


class TestLogNormalCdf:
    """The lognormal cdf takes Phi(z) from ``_pq``: Q(1/2, z^2/2) / 2 below the median."""

    def test_no_worse_than_scipy_against_an_mpmath_oracle(self):
        # LogNormal(-z, 1).cdf(1) is Phi(z) at a z without the rounding of a log.  Both
        # forms lose most near z = -35, where z^2/2 (or z / sqrt 2) carries its rounding
        mpmath = pytest.importorskip("mpmath")
        z = np.concatenate([np.linspace(-37.0, 8.2, 450),
                            np.random.default_rng(3).uniform(-37.0, 8.2, 450),
                            [-1e-300, 0.0, 1e-300, -1e-8, 1e-8]])
        ours = np.array([LogNormal(-zi, 1.0).cdf(1.0) for zi in z.tolist()])
        with mpmath.workdps(60):
            want = [mpmath.ncdf(mpmath.mpf(zi)) for zi in z.tolist()]

            def ulps(got):
                return max(float(abs(mpmath.mpf(float(g)) - w)) / np.spacing(float(w))
                           for g, w in zip(got, want))

            assert ulps(ours) <= ulps(ndtr(z)) + ULP_MARGIN, (ulps(ours), ulps(ndtr(z)))


class TestDensities:
    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.label)
    def test_pdf_is_the_derivative_of_cdf(self, family):
        x = family.quantile(np.arange(1, 10) / 10.0)
        h = 1e-7 * np.maximum(np.abs(x), 1.0)  # small enough for laplace's kink at 0
        slope = (family.cdf(x + h) - family.cdf(x - h)) / (2.0 * h)
        np.testing.assert_allclose(family.pdf(x), slope, rtol=1e-6)


# every family, Weibull and Gamma with shape below, at and above 1, a Pareto whose
# minimum^shape overflows a double, Gamma scales whose x / scale under- or overflows,
# and a lognormal whose bulk lies among the subnormals
EDGE_FAMILIES = [
    Weibull(0.5), Weibull(1.0), Weibull(1.5), Pareto(3.0), Pareto(3.0, 1e200), LogNormal(0.0, 1.0),
    LogNormal(-700.0, 1.0),
    Gamma(0.5), Gamma(1.0), Gamma(2.0), Gamma(2.0, 1e300), Gamma(2.0, 1e-300),
    GeneralizedGaussian(0.0, 1.0, 0.5), normal(), laplace(), Uniform(-1.0, 1.0),
]


class TestEdges:
    """pdf is 0 at +-inf, cdf 0 at -inf and 1 at inf, and no x makes a family warn."""

    @pytest.mark.parametrize("family", EDGE_FAMILIES, ids=lambda f: f.label)
    def test_limits_at_infinity_without_warnings(self, family):
        x = np.array([-np.inf, -1.0, 0.0, np.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pdf, cdf = family.pdf(x), family.cdf(x)
            assert (family.pdf(np.inf), family.cdf(-np.inf), family.cdf(np.inf)) == (0, 0, 1)
        assert pdf[0] == pdf[-1] == 0.0 and cdf[0] == 0.0 and cdf[-1] == 1.0
        assert np.isfinite(pdf).all() and (pdf >= 0).all()
        assert ((cdf >= 0) & (cdf <= 1)).all()

    @pytest.mark.parametrize("family", EDGE_FAMILIES, ids=lambda f: f.label)
    def test_no_real_x_warns_or_gives_nan(self, family):
        x = np.array([-1.7e308, -1e300, 0.0, 5e-324, 1e-300, 1e-3, 1.0, 1e10, 1e300, 1.7e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pdf, cdf = family.pdf(x), family.cdf(x)
        assert not np.isnan(pdf).any() and (pdf >= 0).all()
        assert ((cdf >= 0) & (cdf <= 1)).all()
        assert pdf[-1] == 0.0 and cdf[-1] == 1.0 and cdf[0] == 0.0

    @pytest.mark.parametrize("family", EDGE_FAMILIES, ids=lambda f: f.label)
    def test_nan_stays_nan_and_a_scalar_gives_a_float(self, family):
        assert np.isnan(family.cdf([np.nan])[0]) and np.isnan(family.pdf([np.nan])[0])
        assert type(family.cdf(0.5)) is float and type(family.pdf(np.inf)) is float


# (family, method, x, value): mpmath at 120 bits; each x is subnormal, which the
# formulas take as it is, not as the smallest normal double 2.2e-308
SUBNORMAL_CASES = [
    (Gamma(2.0, 1e-300), "pdf", 5e-324, 4.9406564584124651941e276),
    (Gamma(2.0, 1e-300), "pdf", 1e-310, 9.9999999989999689482e289),
    (Gamma(2.0, 1e-300), "cdf", 5e-324, 1.2205043120026402319e-47),
    (Gamma(2.0), "pdf", 5e-324, 5e-324),
    (Gamma(0.5), "pdf", 5e-324, 2.5382403001605819581e161),
    (LogNormal(-700.0, 1.0), "pdf", 1e-310, 1.7343047167124540692e268),
    (LogNormal(-700.0, 1.0), "pdf", 5e-324, 1.1447165557252270405e-106),
    (LogNormal(-700.0, 1.0), "cdf", 1e-310, 1.2501210915703304823e-43),
]


@pytest.mark.parametrize("family, method, x, want", SUBNORMAL_CASES,
                         ids=lambda v: getattr(v, "label", repr(v)))
def test_subnormal_x_is_not_taken_as_the_smallest_normal(family, method, x, want):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = getattr(family, method)([x, -x, 0.0, -0.0])
    assert got[0] == pytest.approx(want, rel=1e-11, abs=0)  # z^2/2 near 1000 spreads log x's ulp
    assert got[1:].tolist() == [0.0, 0.0, 0.0]  # x <= 0 stays 0


def test_pareto_density_where_the_minimum_to_the_shape_overflows():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = Pareto(3.0, 1e200).pdf([2e200])[0]
    assert got == pytest.approx(1.5e-200 * 0.125, rel=1e-15, abs=0)  # approx's abs=1e-12 passes 0


class TestMeans:
    def test_weibull_paper_style_values(self):
        assert Weibull(1.0, 1.0).mean() == pytest.approx(1.0, rel=1e-12)
        assert Weibull(0.5, 1.0).mean() == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("sigma", [40.0, 1e160])
    def test_lognormal_mean_beyond_a_double_is_inf(self, sigma):
        # exp(sigma^2 / 2) overflows a double, and at 1e160 so does sigma^2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert LogNormal(0.0, sigma).mean() == math.inf

    def test_pareto_infinite_mean_tag(self):
        assert Pareto(0.5, 1.0).mean() == math.inf
        assert Pareto(1.0, 1.0).mean() == math.inf
        assert Pareto(3.0, 1.0).mean() == pytest.approx(1.5)

    def test_closed_form_means(self):
        assert LogNormal(0.0, 1.0).mean() == pytest.approx(math.exp(0.5), rel=1e-12)
        assert Gamma(2.0, 3.0).mean() == 6.0
        assert Uniform(-1.0, 3.0).mean() == 1.0
        assert laplace(2.0, 5.0).mean() == 2.0


class TestSampling:
    def test_determinism(self):
        f = Weibull(1.0, 1.0)
        assert np.array_equal(f.sample(100, 7), f.sample(100, 7))
        assert not np.array_equal(f.sample(100, 7), f.sample(100, 8))

    def test_seed_sequences_are_seeds(self):
        f = Weibull(1.0, 1.0)
        a = f.sample(10, np.random.SeedSequence(7, spawn_key=(1, 2)))
        assert np.array_equal(a, f.sample(10, np.random.SeedSequence(7, spawn_key=(1, 2))))
        assert np.array_equal(f.sample(10, np.int64(7)), f.sample(10, 7))

    @pytest.mark.parametrize("seed", [-1, np.int64(-1), 2.5, 3.0, "7", None, True])
    def test_seed_that_is_not_a_non_negative_integer_rejected(self, seed):
        with pytest.raises(ArgumentError, match="seed must be a non-negative integer"):
            Weibull(1.0, 1.0).sample(10, seed)

    @pytest.mark.parametrize("beta", [1e-3, 5e-3, 1e-5])
    def test_generalized_gaussian_quantiles_beyond_a_double_name_beta(self, beta):
        # |Z| = G^(1/beta) with G ~ gamma(1/beta): about 1000^1000 at beta = 1e-3.
        # A RuntimeWarning would fail the test (the suite makes them errors)
        f = GeneralizedGaussian(0.0, 1.0, beta)
        with pytest.raises(ArgumentError, match=f"^beta={beta:g} is too small"):
            f.sample(1000, 1)
        with pytest.raises(ArgumentError, match="beta"):
            f.quantile(0.9)
        assert f.quantile(0.5) == 0.0
        assert np.isfinite(GeneralizedGaussian(0.0, 1.0, 0.02).sample(1000, 1)).all()

    def test_uniform_range(self):
        x = Uniform(0.0, 1.0).sample(1000, 3)
        assert np.all((x > 0) & (x < 1))

    def test_weibull_mean_convergence(self):
        x = Weibull(1.0, 1.0).sample(10**6, 42)
        assert x.mean() == pytest.approx(1.0, abs=0.01)

    @pytest.mark.parametrize("f", [Gamma(2.0, 1.0), Gamma(0.5), Gamma(50.0),
                                   GeneralizedGaussian(0.0, 1.0, 1.5), normal(), laplace()],
                             ids=lambda f: f.label)
    def test_empirical_matches_cdf(self, f):
        x = f.sample(200_000, 11)
        for p in (0.1, 0.5, 0.9):
            assert np.mean(x <= f.quantile(p)) == pytest.approx(p, abs=5e-3)


# every family, gamma shapes on both sides of the Stirling seam up to _pq's own
# largest, and scales near the double limit
TILED_FAMILIES = ALL_FAMILIES + [
    Gamma(30.0), Gamma(50.0), Gamma(1e3), Gamma(9999.0),
    Gamma(2.0, 1e300), Weibull(1.0, 1e300), GeneralizedGaussian(0.0, 1e300, 2.0),
]


#: the families drawn by inverse transform; the gamma family takes numpy's samplers
INVERSE_TRANSFORM_FAMILIES = [f for f in TILED_FAMILIES if not isinstance(f, (Gamma, GeneralizedGaussian))]

#: the gamma family's members among them, plus a shape below 1 and a non-zero mu
#: at a light and a heavy tail
NUMPY_SAMPLER_FAMILIES = [f for f in TILED_FAMILIES if isinstance(f, (Gamma, GeneralizedGaussian))] + [
    Gamma(0.5), GeneralizedGaussian(1.7, 2.0, 0.5), GeneralizedGaussian(1.7, 2.0, 8.0),
]


class TestTiledQuantiles:
    """Quantiles run one _TILE of lanes at a time, with the bits of one whole-array call."""

    @pytest.mark.parametrize("n", [1, _TILE - 1, _TILE + 1, 100_000])
    @pytest.mark.parametrize("family", INVERSE_TRANSFORM_FAMILIES, ids=lambda f: f.label)
    def test_draws_keep_the_bits_of_one_whole_array_quantile(self, family, n):
        whole = family._q(_open_unit(np.random.default_rng(5), n))
        assert family.sample(n, 5).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("n", [1, _TILE - 1, _TILE + 1, 100_000])
    @pytest.mark.parametrize("family", NUMPY_SAMPLER_FAMILIES, ids=lambda f: f.label)
    def test_gamma_family_draws_are_numpys_draws(self, family, n):
        rng = np.random.default_rng(5)
        if isinstance(family, Gamma):
            want = family.scale * rng.standard_gamma(family.shape, n)
        elif family.beta == 2.0:  # the normal member
            want = family.mu + family.sigma / math.sqrt(2.0) * rng.standard_normal(n)
        else:  # |Z| = G^(1/beta) with G ~ gamma(1/beta), then a fair sign from one bool a draw
            z = rng.standard_gamma(1.0 / family.beta, n) ** (1.0 / family.beta)
            want = family.mu + family.sigma * np.where(rng.integers(0, 2, n, dtype=bool), -z, z)
        assert family.sample(n, 5).tobytes() == want.tobytes()

    @pytest.mark.parametrize("family", TILED_FAMILIES, ids=lambda f: f.label)
    def test_quantile_keeps_the_bits_and_the_shape_of_the_input(self, family):
        p = np.random.default_rng(6).random((3, _TILE + 5))
        got = family.quantile(p)
        assert got.shape == p.shape and got.tobytes() == family._q(p).tobytes()

    @pytest.mark.parametrize("family", [GeneralizedGaussian(0.0, 1.0, 1.5), Gamma(0.5), Gamma(50.0),
                                        LogNormal(0.0, 1.0), Weibull(1.5), Uniform()],
                             ids=lambda f: f.label)
    def test_sample_holds_the_uniforms_the_draws_and_one_tile(self, family):
        # by inverse transform _open_unit holds n 53-bit integers and their n uniforms,
        # then the quantiles hold the uniforms, the n draws and one tile of temporaries;
        # the gamma family's numpy samplers hold the n draws and one n-byte mask
        n = 100_000
        family.sample(10, 1)  # warm scipy's import
        tracemalloc.start()
        try:
            out = family.sample(n, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.size == n
        assert peak <= 2 * 8 * n + 32 * 8 * _TILE

    @pytest.mark.parametrize("family", [GeneralizedGaussian(0.0, 1e308, 2.0), Weibull(1.0, 1e308),
                                        Gamma(2.0, 1e308), Pareto(1e-3)],
                             ids=lambda f: f.label)
    def test_quantiles_beyond_a_double_raise_naming_the_family(self, family):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArgumentError, match=rf"^{re.escape(family.label)}: quantiles overflow"):
                family.sample(1000, 1)
            with pytest.raises(ArgumentError, match=re.escape(family.label)):
                family.quantile(0.9999)
            with pytest.raises(ArgumentError, match="quantiles overflow a double"):
                congruence_check(family, family.param_names[1])

    @pytest.mark.parametrize("a, b", [(-1e308, 1e308), (-1.5e308, 1.5e308), (1e308, 1.7e308)])
    def test_uniform_is_exact_up_to_the_double_limit(self, a, b):
        # b - a overflows a double, but every quantile lies in [a, b]; the formulas
        # take the half-width b/2 - a/2
        f, p = Uniform(a, b), np.array([1e-300, 0.1, 0.25, 0.5, 0.9, 1.0 - 2.0**-53])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q, draws = f.quantile(p), f.sample(1000, 1)
            cdf, pdf, mean = f.cdf(q), f.pdf(q), f.mean()
            qa = quantile_average(f, 0.1, 1.0)
            verdict = congruence_check(f, "b")
        ulp = np.spacing(max(abs(a), abs(b)))
        want = [float(Fraction(a) + Fraction(pi) * (Fraction(b) - Fraction(a))) for pi in p.tolist()]
        np.testing.assert_allclose(q, want, rtol=0, atol=2 * ulp)
        assert ((draws >= a) & (draws <= b)).all()
        np.testing.assert_allclose(cdf, p, rtol=0, atol=4 * _EPS_MACH)
        np.testing.assert_allclose(pdf, float(1 / (Fraction(b) - Fraction(a))), rtol=2 * _EPS_MACH)
        assert mean == float((Fraction(a) + Fraction(b)) / 2)
        assert abs(qa - 0.5 * q[1] - 0.5 * q[4]) <= ulp
        assert verdict.verdict == "congruent" and set(verdict.signs) == {1}

    @pytest.mark.parametrize("a", [1e20, 1e50, 2e305])
    def test_huge_shapes_draw_their_mean(self, a):
        # the relative spread a^-1/2 is far below an ulp, and the Stirling terms of
        # log Gamma(a) are below 2^-55, where a^7 may overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = Gamma(a).sample(10, 1)
            pre = _pq(a, np.array([a]))[2]
        np.testing.assert_allclose(x, a, rtol=1e-9)
        np.testing.assert_allclose(pre, math.sqrt(a / (2.0 * math.pi)), rtol=1e-12)

    @pytest.mark.parametrize("family, message", [
        (Gamma(3e305), "shape=3e+305 is too large"),
        (Gamma(1.7e308), "shape=1.7e+308 is too large"),
        (GeneralizedGaussian(0.0, 1.0, 1e-300), "beta=1e-300 is too small"),
        (GeneralizedGaussian(0.0, 1.0, 1e-320), "beta=9.99989e-321 is too small"),
    ], ids=["gamma-3e305", "gamma-1.7e308", "beta-1e-300", "beta-1e-320"])
    def test_shapes_beyond_the_table_raise(self, family, message):
        # log Gamma(a + 1) overflows from a = 2.56e305, and 1 / 1e-320 is inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArgumentError, match=f"^{re.escape(message)}"):
                family.sample(10, 1)


class TestQuantileAverage:
    def test_symmetric_family_center(self):
        f = normal(1.5, 2.0)
        for eps in (0.05, 0.2, 0.45):
            assert quantile_average(f, eps, 1.0) == pytest.approx(1.5, abs=1e-10)

    def test_uniform_midpoint(self):
        assert quantile_average(Uniform(0.0, 1.0), 0.25, 1.0) == pytest.approx(0.5)

    def test_lognormal_numeric(self):
        f = LogNormal(0.0, 1.0)
        want = 0.5 * (f.quantile(0.25) + f.quantile(0.75))
        assert quantile_average(f, 0.25, 1.0) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("family, eps", [
        (Uniform(1e308, 1.7e308), 0.4),
        (Weibull(1.0, 1.5e308), 0.5),
    ], ids=["uniform", "weibull"])
    def test_quantiles_near_the_double_limit(self, family, eps):
        # both quantiles pass 9e307, so their sum overflows: each is halved first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = quantile_average(family, eps, 1.0)
        assert got == 0.5 * family.quantile(eps) + 0.5 * family.quantile(1.0 - eps)
        assert 9e307 < got < 1.8e308

    def test_domain(self):
        with pytest.raises(ArgumentError):
            quantile_average(Uniform(0.0, 1.0), 0.0, 1.0)
        with pytest.raises(ArgumentError):
            quantile_average(Uniform(0.0, 1.0), 0.5, 2.5)  # gamma*eps >= 1


class TestPartialSigns:
    def test_pareto_shape_always_negative(self):
        f = Pareto(2.0, 1.0)
        for gamma in (0.5, 1.0, 2.0):
            for eps in np.geomspace(1e-4, 1.0 / (1.0 + gamma), 12):
                assert qa_partial_sign(f, "shape", float(eps), gamma) == -1

    def test_lognormal_sigma_positive_at_moderate_trims(self):
        f = LogNormal(0.0, 1.0)
        for gamma in (0.5, 1.0):
            assert qa_partial_sign(f, "sigma", 0.1, gamma) == 1

    def test_location_parameters_positive(self):
        for f, p in [
            (normal(0.0, 1.0), "mu"),
            (laplace(0.0, 2.0), "mu"),
            (GeneralizedGaussian(1.0, 1.0, 1.5), "mu"),
        ]:
            for eps in (0.01, 0.2, 0.45):
                assert qa_partial_sign(f, p, eps, 1.0) == 1

    def test_positive_support_scale_parameters_positive(self):
        for f, p in [
            (Weibull(1.0, 1.0), "scale"),
            (Gamma(2.0, 1.0), "scale"),
            (Pareto(2.0, 1.0), "xm"),
            (LogNormal(0.0, 1.0), "mu"),  # log-scale: multiplies every quantile
        ]:
            for gamma in (0.5, 1.0):
                for eps in np.geomspace(1e-3, 1.0 / (1.0 + gamma), 8):
                    assert qa_partial_sign(f, p, float(eps), gamma) == 1

    def test_symmetric_sigma_derivative_dead_bands_to_zero(self):
        # gamma = 1: the quantile average of a symmetric family never moves
        # with sigma, so the estimate must land in the dead band, not at a
        # spurious sign
        f = normal(0.0, 1.0)
        for eps in (0.01, 0.1, 0.37, 0.499):
            assert qa_partial_sign(f, "sigma", eps, 1.0) == 0

    def test_unknown_parameter(self):
        with pytest.raises(ArgumentError):
            qa_partial_sign(Weibull(1.0, 1.0), "rate", 0.1, 1.0)

    @pytest.mark.parametrize("param", ["label", "nope"])
    def test_parameter_checked_before_it_is_read(self, param):
        # Weibull has a "label" attribute, but it is not a parameter
        with pytest.raises(ArgumentError):
            qa_partial_sign(Weibull(1.0, 1.0), param, 0.1, 1.0)
        with pytest.raises(ArgumentError):
            congruence_check(Weibull(1.0, 1.0), param)

    def test_perturbation_leaving_domain(self):
        f = Weibull(5e-7, 1.0)  # step 1e-6 pushes the shape negative
        with pytest.raises(ArgumentError):
            qa_partial_sign(f, "shape", 0.1, 1.0)

    def test_lognormal_derivative_with_quantiles_beyond_a_double_raises(self):
        # as quantile_average does: no bare OverflowError from exp
        f = LogNormal(0.0, 1000.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for check in (quantile_average, lognormal_qa_sigma_derivative):
                with pytest.raises(ArgumentError, match=r"^lognormal\(mu=0, sigma=1000\): quantiles overflow"):
                    check(f, 0.1, 1.0)

    def test_analytic_lognormal_derivative_agrees(self):
        f = LogNormal(0.2, 0.8)
        for gamma in (0.5, 1.0):
            for eps in np.geomspace(1e-3, 1.0 / (1.0 + gamma), 16):
                sign = qa_partial_sign(f, "sigma", float(eps), gamma)
                analytic = lognormal_qa_sigma_derivative(f, float(eps), gamma)
                if sign != 0:
                    assert sign == (1 if analytic > 0 else -1)
                else:
                    assert abs(analytic) < 1e-8


@dataclass(frozen=True)
class Stepped(Family):
    """Q(p) = Phi^-1(p) + theta * s(min(p, 1 - p)) / 2, so at gamma = 1
    dQA/dtheta = s(eps): +1 below 0.01, 0 below 0.1, -1 above."""

    theta: float = 1.0

    def _q(self, p):
        e = np.minimum(p, 1.0 - p)
        return ndtri(p) + self.theta * np.where(e < 0.01, 0.5, np.where(e < 0.1, 0.0, -0.5))


@dataclass(frozen=True)
class Floored(Family):
    """Q(p) = low * theta^power below 1/2 and high * theta^power + slope * theta from 1/2
    on.  Where low = -high or power = 0, dQA/dtheta is slope / 2 up to rounding, while
    low, high and power set each |Q| and so the noise floor."""

    _ANY_SIGN = ("theta", "low", "high", "power", "slope")

    theta: float = 1.0
    low: float = -1e6
    high: float = 1.0
    power: float = 0.0
    slope: float = 1.0

    def _q(self, p):
        lead = self.theta**self.power
        return np.where(p < 0.5, self.low * lead, self.high * lead + self.slope * self.theta)


def floor_at(lead, h):
    """The rounding-noise floor of a scan whose largest |Q| is ``lead``, with step h."""
    return 8.0 * _EPS_MACH * lead / h


class TestCongruence:
    def test_weibull_shape_non_congruent(self):
        v = congruence_check(Weibull(1.0, 1.0), "shape", gamma=1.0)
        assert v.verdict == "non-congruent"
        assert 1 in v.signs and -1 in v.signs

    def test_pareto_shape_congruent(self):
        v = congruence_check(Pareto(2.0, 1.0), "shape", gamma=1.0)
        assert v.verdict == "congruent"
        assert set(v.signs) == {-1}

    def test_normal_sigma_congruent(self):
        v = congruence_check(normal(0.0, 1.0), "sigma", gamma=1.0)
        assert v.verdict == "congruent"

    def test_laplace_sigma_congruent(self):
        v = congruence_check(laplace(0.0, 1.0), "sigma", gamma=1.0)
        assert v.verdict == "congruent"

    def test_lognormal_sigma_congruent_at_gamma_1(self):
        v = congruence_check(LogNormal(0.0, 1.0), "sigma", gamma=1.0)
        assert v.verdict == "congruent"

    def test_lognormal_sigma_flips_at_gamma_half(self):
        # dQ(p)/dsigma = z_p * exp(mu + sigma*z_p) with z_p = Phi^{-1}(p), so
        # with asymmetric trimming the sigma-derivative of the quantile
        # midpoint is positive for small eps and has a single root near
        # eps ~ 0.391, before eps reaches 1/2.  At the scan's upper limit
        # eps = 2/3 both retained quantiles equal Q(1/3), below the median,
        # and the derivative is Q'_sigma(1/3) < 0.  The scan therefore finds
        # a clean conflict.
        f = LogNormal(0.0, 1.0)
        gamma = 0.5
        v = congruence_check(f, "sigma", gamma=gamma)
        assert v.verdict == "non-congruent"
        assert 1 in v.signs and -1 in v.signs
        # every scanned sign matches the closed form, independent of the
        # package's finite differences
        eps = np.asarray(v.epsilons)
        z_lo = norm.ppf(gamma * eps)
        z_hi = norm.ppf(1.0 - eps)
        closed = z_lo * np.exp(f.mu + f.sigma * z_lo) + z_hi * np.exp(f.mu + f.sigma * z_hi)
        assert list(v.signs) == [int(s) for s in np.sign(closed)]

    def test_gamma_family_reports_a_verdict(self):
        # treated as empirical evidence only; no stronger claim encoded
        v = congruence_check(Gamma(2.0, 1.0), "shape", gamma=1.0)
        assert v.verdict in ("congruent", "non-congruent", "inconclusive")
        assert len(v.signs) == len(v.epsilons) == 64

    def test_dead_band_soundness_under_smaller_h(self):
        # shrinking h tenfold must not flip any clean sign
        cases = [
            (Weibull(1.0, 1.0), "shape", 1.0),
            (Pareto(2.0, 1.0), "shape", 1.0),
            (LogNormal(0.0, 1.0), "sigma", 1.0),
        ]
        for f, p, g in cases:
            base = congruence_check(f, p, gamma=g)
            theta = abs(getattr(f, p))
            small = congruence_check(f, p, gamma=g, h=max(1e-6, 1e-4 * theta) / 10.0)
            for s_base, s_small in zip(base.signs, small.signs):
                if s_base != 0 and s_small != 0:
                    assert s_base == s_small

    def test_signs_split_by_a_dead_band_are_inconclusive(self):
        v = congruence_check(Stepped(), "theta", gamma=1.0)
        assert set(v.signs) == {1, 0, -1}
        assert v.verdict == "inconclusive"
        assert v.family == "stepped(theta=1)"

    @pytest.mark.parametrize("gamma", [1e-17, 5e-324])
    def test_gamma_whose_grid_end_rounds_to_one_is_named(self, gamma):
        # below about 1.1e-16, 1/(1 + gamma) is 1.0: no eps grid ends short of 1
        with pytest.raises(ArgumentError, match=f"^gamma={gamma} is too small: the eps grid's "
                                                r"end 1/\(1 \+ gamma\) rounds to 1$"):
            congruence_check(Weibull(1.0, 1.0), "shape", gamma=gamma)
        assert congruence_check(Pareto(2.0, 1.0), "shape", gamma=1e-15).epsilons[-1] < 1.0

    def test_grid_size_validation(self):
        with pytest.raises(ArgumentError):
            congruence_check(Weibull(1.0, 1.0), "shape", grid_size=4)

    def test_round_trip_dict(self):
        v = congruence_check(Pareto(2.0, 1.0), "shape", gamma=1.0, grid_size=16)
        assert CongruenceVerdict.from_dict(v.to_dict()) == v


def reference_quantile_average(family, eps, gamma):
    """QA from two scalar quantile calls, as the per-eps scan took it."""
    return 0.5 * (family.quantile(gamma * eps) + family.quantile(1.0 - eps))


def reference_sign(family, param, eps, gamma, h=None):
    """The per-eps sign of dQA/dparam from scalar quantile calls, the reference the array
    scan is held to: two perturbed families per eps and four scalar quantiles, which give
    the estimate and the noise floor (the per-eps loop took the same four twice)."""
    theta = getattr(family, param)
    h = max(1e-6, 1e-4 * abs(theta)) if h is None else h
    fp = replace(family, **{param: theta + h})
    fm = replace(family, **{param: theta - h})
    (plo, phi), (mlo, mhi) = ([f.quantile(p) for p in (gamma * eps, 1.0 - eps)] for f in (fp, fm))
    est = (0.5 * (plo + phi) - 0.5 * (mlo + mhi)) / (2.0 * h)
    qmag = max(abs(plo), abs(phi), abs(mlo), abs(mhi))
    noise_floor = 8.0 * _EPS_MACH * qmag / h
    if abs(est) < max(_DEAD_BAND, noise_floor):
        return 0
    return 1 if est > 0 else -1


def reference_scan(family, param, gamma=1.0, grid_size=64, h=None):
    """(signs, verdict) of a scan that calls reference_sign once per eps."""
    grid = np.geomspace(_CONGRUENCE_DELTA, 1.0 / (1.0 + gamma), grid_size)
    signs = tuple(reference_sign(family, param, float(e), gamma, h) for e in grid)
    nonzero = [s for s in signs if s != 0]
    if not nonzero or all(s == nonzero[0] for s in nonzero):
        return signs, "congruent"
    if any(s == 0 for s in signs):
        return signs, "inconclusive"
    return signs, "non-congruent"


# (family, param, gamma, h, grid_size): criterion 9's six cases, every TestCongruence
# case and the cases of demos/04_congruence_scan.py
SCAN_CASES = [
    (Weibull(1.0, 1.0), "shape", 1.0, None, 64),
    (Pareto(2.0, 1.0), "shape", 1.0, None, 64),
    (LogNormal(0.0, 1.0), "sigma", 1.0, None, 64),
    (LogNormal(0.0, 1.0), "sigma", 0.5, None, 64),
    (normal(0.0, 1.0), "sigma", 1.0, None, 64),
    (laplace(0.0, 1.0), "sigma", 1.0, None, 64),
    (Gamma(2.0, 1.0), "shape", 1.0, None, 64),
    (Weibull(1.0, 1.0), "shape", 1.0, 1e-5, 64),
    (Pareto(2.0, 1.0), "shape", 1.0, 2e-5, 64),
    (LogNormal(0.0, 1.0), "sigma", 1.0, 1e-5, 64),
    (Stepped(), "theta", 1.0, None, 64),
    (Pareto(2.0, 1.0), "shape", 1.0, None, 16),
    (Weibull(1.0, 1.0), "scale", 1.0, None, 64),
    (normal(0.0, 1.0), "mu", 1.0, None, 64),
    # far from 0 the rounding noise floor, not the fixed dead band, sets the zeros
    (normal(1000.0, 1.0), "sigma", 1.0, None, 64),
    (laplace(-1000.0, 1.0), "sigma", 1.0, None, 64),
]


def _random_family(rng, kind):
    u = rng.uniform
    if kind == "weibull":
        return Weibull(u(0.3, 5.0), u(0.1, 10.0))
    if kind == "pareto":
        return Pareto(u(0.5, 5.0), u(0.1, 10.0))
    if kind == "lognormal":
        return LogNormal(u(-2.0, 2.0), u(0.1, 2.0))
    if kind == "gamma":
        return Gamma(u(0.3, 10.0), u(0.1, 10.0))
    if kind == "gengauss":
        return GeneralizedGaussian(u(-1e3, 1e3), u(0.2, 5.0), u(0.5, 4.0))
    a = u(-1e3, 0.0)
    return Uniform(a, a + u(0.1, 5.0))


class TestArrayScan:
    """The scan takes each perturbed family's quantiles once, on the whole eps grid; its
    signs and verdicts are those of the per-eps loop over scalar quantile calls."""

    @pytest.mark.parametrize("family, param, gamma, h, grid_size", SCAN_CASES,
                             ids=lambda v: getattr(v, "label", repr(v)))
    def test_fixed_cases_match_the_per_eps_loop(self, family, param, gamma, h, grid_size):
        v = congruence_check(family, param, gamma=gamma, grid_size=grid_size, h=h)
        assert (v.signs, v.verdict) == reference_scan(family, param, gamma, grid_size, h)
        assert v.signs == tuple(qa_partial_sign(family, param, e, gamma, h) for e in v.epsilons)

    def test_seeded_sweep_matches_the_per_eps_loop(self):
        rng = np.random.default_rng(20240521)
        kinds = ("weibull", "pareto", "lognormal", "gamma", "gengauss", "uniform")
        scans, mismatches = 0, []
        for _ in range(16):
            for kind in kinds:
                family = _random_family(rng, kind)
                for param in family.param_names:
                    gamma, grid_size = float(rng.uniform(0.2, 2.0)), int(rng.integers(8, 65))
                    v = congruence_check(family, param, gamma=gamma, grid_size=grid_size)
                    if (v.signs, v.verdict) != reference_scan(family, param, gamma, grid_size):
                        mismatches.append((family.label, param, gamma, grid_size))
                    scans += 1
        assert scans >= 200 and not mismatches

    @pytest.mark.parametrize("family, h", [
        # |Q(gamma eps)| = 1e6 against |Q(1 - eps)| near 1: the floor is set by the
        # lower level's quantile, and an estimate of 3/4 of it is a zero sign
        (Floored(slope=1.5 * floor_at(1e6, 1e-4)), 1e-4),
        # |Q| is 2.25e6 for theta + h and 0.25e6 for theta - h: the floor is set by
        # the larger, and an estimate of 0.6 of it is a zero sign
        (Floored(low=-1e6, high=1e6, power=2.0, slope=1.2 * floor_at(2.25e6, 0.5)), 0.5),
    ], ids=["lower-level", "larger-family"])
    def test_noise_floor_is_eight_ulps_of_the_largest_quantile(self, family, h):
        # twice the slope puts the estimate above the floor, so the floor sits between
        for slope, want in ((family.slope, 0), (2.0 * family.slope, 1)):
            f = replace(family, slope=slope)
            for eps in (1e-4, 0.01, 0.1, 0.3):
                assert qa_partial_sign(f, "theta", eps, 1.0, h) == want
                assert reference_sign(f, "theta", eps, 1.0, h) == want
            v = congruence_check(f, "theta", grid_size=8, h=h)
            assert v.signs == reference_scan(f, "theta", 1.0, 8, h)[0]

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.label)
    def test_quantile_average_matches_the_scalar_calls(self, family):
        for eps, gamma in ((1e-4, 1.0), (0.1, 0.5), (0.3, 2.0), (0.49, 1.0)):
            got = quantile_average(family, eps, gamma)
            want = reference_quantile_average(family, eps, gamma)
            assert type(got) is float
            if isinstance(family, (Weibull, Pareto)):  # numpy's scalar power rounds apart
                assert got == pytest.approx(want, rel=4 * _EPS_MACH)
            else:
                assert got == want

    def test_one_quantile_call_per_perturbed_family(self):
        calls = {"_q": 0, "built": 0}

        @dataclass(frozen=True)
        class Counted(Family):
            _ANY_SIGN = ("mu",)

            mu: float = 0.0

            def __post_init__(self):
                super().__post_init__()
                calls["built"] += 1

            def _q(self, p):
                calls["_q"] += 1
                return self.mu + ndtri(p)

        def count(run):
            family = Counted()
            calls.update(_q=0, built=0)
            run(family)
            return calls["_q"], calls["built"]

        assert count(lambda f: congruence_check(f, "mu")) == (2, 2)
        assert count(lambda f: quantile_average(f, 0.1, 1.0)) == (1, 0)
        assert count(lambda f: qa_partial_sign(f, "mu", 0.1, 1.0)) == (2, 2)


class TestParseFamily:
    def test_round_trip_specs(self):
        assert parse_family("weibull(1,1)") == Weibull(1.0, 1.0)
        assert parse_family("pareto(2, 1)") == Pareto(2.0, 1.0)
        assert parse_family("normal(0,1)") == normal(0.0, 1.0)
        assert parse_family("uniform(0,1)") == Uniform(0.0, 1.0)

    def test_unknown_family(self):
        with pytest.raises(ArgumentError):
            parse_family("cauchy(0,1)")

    def test_malformed(self):
        with pytest.raises(ArgumentError):
            parse_family("weibull(1,")
        with pytest.raises(ArgumentError):
            parse_family("weibull(a,b)")
        with pytest.raises(ArgumentError):
            parse_family("weibull(1,2,3)")
