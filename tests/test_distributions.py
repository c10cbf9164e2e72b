"""Families, quantile averages, and congruence verdicts."""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.special import erfcinv, ndtri
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


class TestDensities:
    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.label)
    def test_pdf_is_the_derivative_of_cdf(self, family):
        x = family.quantile(np.arange(1, 10) / 10.0)
        h = 1e-7 * np.maximum(np.abs(x), 1.0)  # small enough for laplace's kink at 0
        slope = (family.cdf(x + h) - family.cdf(x - h)) / (2.0 * h)
        np.testing.assert_allclose(family.pdf(x), slope, rtol=1e-6)


class TestMeans:
    def test_weibull_paper_style_values(self):
        assert Weibull(1.0, 1.0).mean() == pytest.approx(1.0, rel=1e-12)
        assert Weibull(0.5, 1.0).mean() == pytest.approx(2.0, rel=1e-12)

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

    def test_uniform_range(self):
        x = Uniform(0.0, 1.0).sample(1000, 3)
        assert np.all((x > 0) & (x < 1))

    def test_weibull_mean_convergence(self):
        x = Weibull(1.0, 1.0).sample(10**6, 42)
        assert x.mean() == pytest.approx(1.0, abs=0.01)

    def test_empirical_matches_cdf(self):
        f = Gamma(2.0, 1.0)
        x = f.sample(200_000, 11)
        for p in (0.1, 0.5, 0.9):
            assert np.mean(x <= f.quantile(p)) == pytest.approx(p, abs=5e-3)


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
        @dataclass(frozen=True)
        class Stepped(Family):
            """Q(p) = Phi^-1(p) + theta * s(min(p, 1 - p)) / 2, so at gamma = 1
            dQA/dtheta = s(eps): +1 below 0.01, 0 below 0.1, -1 above."""

            theta: float = 1.0

            def _q(self, p):
                e = np.minimum(p, 1.0 - p)
                return ndtri(p) + self.theta * np.where(e < 0.01, 0.5, np.where(e < 0.1, 0.0, -0.5))

        v = congruence_check(Stepped(), "theta", gamma=1.0)
        assert set(v.signs) == {1, 0, -1}
        assert v.verdict == "inconclusive"
        assert v.family == "stepped(theta=1)"

    def test_grid_size_validation(self):
        with pytest.raises(ArgumentError):
            congruence_check(Weibull(1.0, 1.0), "shape", grid_size=4)

    def test_round_trip_dict(self):
        v = congruence_check(Pareto(2.0, 1.0), "shape", gamma=1.0, grid_size=16)
        assert CongruenceVerdict.from_dict(v.to_dict()) == v


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
