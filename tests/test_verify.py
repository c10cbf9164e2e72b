"""Verification probes: determinism, report integrity, fast property checks.

Large-scale runs of these probes (the tolerances stated at N = 10^6 and
R = 1000) live in test_acceptance.py; here the probes run small and fast.
"""

import json
import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from hlmoments import (
    ArgumentError,
    CongruenceVerdict,
    EquivarianceReport,
    Gamma,
    McConsistencyReport,
    MomentEstimate,
    MonteCarloPlan,
    ShapeProbe,
    SupportBoundsReport,
    Uniform,
    VarianceComparison,
    Weibull,
    congruence_check,
    equivariance_suite,
    hl_central_moment,
    kernel_shape_probe,
    mc_consistency_probe,
    normal,
    pairwise_diff_probe,
    report_from_dict,
    support_bound_probe,
    variance_comparison,
)
from hlmoments.kernels import _TILE
from hlmoments.verify import _shape_args

# one hand-built instance of each frozen report record
RECORDS = [
    MomentEstimate(1.5, 3, 0.1, 1.0, 0.03, 10, 120, "hl-central-moment/trimmed-mean"),
    CongruenceVerdict("weibull(shape=1, scale=1)", "shape", 1.0, (0.1, 0.5), (-1, 1),
                      "non-congruent"),
    ShapeProbe("kernel", "normal(mu=0, sigma=1)", 3, 100, 0, (-1.0, 0.0, 1.0), (40, 60),
               0.1, 1.0, 1, 1.0, 0.1),
    VarianceComparison("normal(mu=0, sigma=1)", 0.1, (12, 16), 40, 3, (2.0, 1.5), (1.0, 0.5),
                       (2.0, 3.0)),
    SupportBoundsReport(3, 20, -0.3, 0.3, -1 / 3, 1 / 3),
    EquivarianceReport(200, 4, 6, 0.0, 1e-15),
    McConsistencyReport("weibull(shape=1, scale=1)", 10, 3, 0.1, 1.0, 100, 2024, (0, 1),
                        (0.004, 0.02), 0.01, 1),
]


class TestPairwiseDiffProbe:
    def test_deterministic(self):
        f = normal(0.0, 1.0)
        a = pairwise_diff_probe(f, n_draws=50_000, seed=5, bins=40)
        b = pairwise_diff_probe(f, n_draws=50_000, seed=5, bins=40)
        assert a == b

    def test_counts_sum_within_clip(self):
        probe = pairwise_diff_probe(Uniform(0.0, 1.0), n_draws=50_000, seed=1, bins=40)
        # only the clipped lower tail may fall outside the histogram
        assert sum(probe.counts) >= 0.99 * probe.n_draws
        assert len(probe.bin_edges) == len(probe.counts) + 1

    def test_mass_conserved_without_clipping(self):
        for probe in (
            pairwise_diff_probe(Uniform(0.0, 1.0), n_draws=30_000, seed=2, bins=30, tail_clip=0.0),
            kernel_shape_probe(normal(0.0, 1.0), 3, n_draws=30_000, seed=2, bins=30, tail_clip=0.0),
        ):
            assert sum(probe.counts) == probe.n_draws

    def test_monotonicity_calibration_on_uniform_differences(self):
        # the closed-form monotone case: full-scale statistic stays >= 0.9
        for seed in range(5):
            probe = pairwise_diff_probe(
                Uniform(0.0, 1.0), n_draws=10**6, seed=seed, bins=50
            )
            assert probe.monotonicity >= 0.9

    def test_uniform_triangular_negative_half(self):
        probe = pairwise_diff_probe(
            Uniform(0.0, 1.0), n_draws=200_000, seed=2, bins=50, tail_clip=0.0
        )
        assert probe.monotonicity >= 0.95
        assert probe.mode_bin >= len(probe.counts) - 2
        assert probe.median < 0.0

    def test_monotone_for_unimodal_families(self):
        for f in (normal(0.0, 1.0), Weibull(1.0, 1.0)):
            probe = pairwise_diff_probe(f, n_draws=200_000, seed=3, bins=40)
            assert probe.monotonicity >= 0.9

    @pytest.mark.parametrize("bins", [0, -3, 2.5, "10", True])
    def test_bins_must_be_a_positive_integer(self, bins):
        with pytest.raises(ArgumentError):
            pairwise_diff_probe(normal(0.0, 1.0), n_draws=1000, bins=bins)


class TestKernelShapeProbe:
    def test_deterministic_and_valid(self):
        probe = kernel_shape_probe(normal(0.0, 1.0), 3, n_draws=60_000, seed=4, bins=60)
        again = kernel_shape_probe(normal(0.0, 1.0), 3, n_draws=60_000, seed=4, bins=60)
        assert probe == again
        assert probe.sigma > 0

    def test_median_near_zero_for_normal_k3(self):
        probe = kernel_shape_probe(normal(0.0, 1.0), 3, n_draws=200_000, seed=6)
        assert probe.abs_median_over_sigma <= 0.05

    def test_uniform_k3_mode_bin_contains_zero(self):
        probe = kernel_shape_probe(
            Uniform(0.0, 1.0), 3, n_draws=300_000, seed=7, bins=40, tail_clip=0.0
        )
        lo = probe.bin_edges[probe.mode_bin]
        hi = probe.bin_edges[probe.mode_bin + 1]
        assert lo <= 0.0 <= hi

    def test_unimodal_like_shape(self):
        probe = kernel_shape_probe(Weibull(1.0, 1.0), 3, n_draws=300_000, seed=8, bins=30)
        assert probe.monotonicity >= 0.9

    def test_k_restricted(self):
        with pytest.raises(ArgumentError):
            kernel_shape_probe(normal(0.0, 1.0), 5, n_draws=1000)

    def test_draws_are_the_family_sample_within_its_memory_bound(self):
        # n x k draws are one n * k family sample, reshaped, so they hold what the
        # sample holds
        n, k, f = 100_000, 3, Gamma(2.0)
        tracemalloc.start()
        try:
            x = _shape_args(f, k, n, 1, None)[3]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x.tobytes() == f.sample(n * k, 1).reshape(n, k).tobytes()
        assert peak <= 2 * 8 * n * k + 32 * 8 * _TILE

    @pytest.mark.parametrize("bins", [0, -3, 2.5, "10", True])
    def test_bins_must_be_a_positive_integer(self, bins):
        with pytest.raises(ArgumentError):
            kernel_shape_probe(normal(0.0, 1.0), 3, n_draws=1000, bins=bins)


class TestVarianceComparison:
    def test_deterministic(self):
        f = normal(0.0, 1.0)
        a = variance_comparison(f, (16, 24), eps=0.1, replications=80, seed=9)
        b = variance_comparison(f, (16, 24), eps=0.1, replications=80, seed=9)
        assert a == b

    def test_shapes_and_positivity(self):
        rep = variance_comparison(normal(0.0, 1.0), (16, 24), 0.1, 100, seed=10)
        assert len(rep.ratio) == 2
        assert all(v > 0 for v in rep.var_symmetric)
        assert all(v > 0 for v in rep.var_pairwise)

    def test_pairwise_form_dominates_at_moderate_r(self):
        rep = variance_comparison(normal(0.0, 1.0), (20, 50), 0.1, 200, seed=11)
        assert all(r > 1.0 for r in rep.ratio)


class TestSupportBoundProbe:
    @pytest.mark.parametrize("k", [3, 4])
    def test_matches_bounds(self, k):
        rep = support_bound_probe(k, resolution=60)
        assert abs(rep.observed_min - rep.bound_lower) <= 1e-2
        assert abs(rep.observed_max - rep.bound_upper) <= 1e-2

    def test_degenerate_pair_case(self):
        rep = support_bound_probe(2, resolution=50)
        assert rep.observed_min == rep.observed_max == 0.5

    def test_validation(self):
        with pytest.raises(ArgumentError):
            support_bound_probe(3, resolution=5)
        with pytest.raises(ArgumentError):
            support_bound_probe(9)


class TestEquivarianceSuite:
    def test_small_run_is_tight_and_deterministic(self):
        rep = equivariance_suite(trials=500, seed=12, estimator_trials=8)
        again = equivariance_suite(trials=500, seed=12, estimator_trials=8)
        assert rep == again
        assert rep.max_rel_dev_kernel <= 1e-9
        assert rep.max_rel_dev_standardized <= 1e-9

    def test_validation(self):
        with pytest.raises(ArgumentError):
            equivariance_suite(trials=10)


class TestMcConsistency:
    def test_small_probe(self):
        rep = mc_consistency_probe(
            Weibull(1.0, 1.0), n=15, k=3, eps0=0.1, draws=200_000, n_seeds=3
        )
        assert len(rep.rel_devs) == 3
        assert rep.passes == sum(d <= rep.tolerance for d in rep.rel_devs)
        assert max(rep.rel_devs) < 0.05

    @pytest.mark.parametrize("n_seeds", [0, -3, 2.0, 2.5, True])
    def test_seed_count_must_be_a_positive_integer(self, n_seeds):
        with pytest.raises(ArgumentError, match="n_seeds"):
            mc_consistency_probe(n=6, k=3, draws=50, n_seeds=n_seeds)


class TestReportSerialization:
    def test_round_trips(self):
        probe = pairwise_diff_probe(Uniform(0.0, 1.0), n_draws=5_000, seed=1, bins=20)
        reports = [
            probe,
            replace(probe, abs_median_over_sigma=math.inf),
            kernel_shape_probe(normal(0.0, 1.0), 3, n_draws=5_000, seed=2, bins=20),
            variance_comparison(normal(0.0, 1.0), (12, 16), 0.1, 40, seed=3),
            support_bound_probe(3, resolution=25),
            equivariance_suite(trials=200, seed=4, estimator_trials=4),
            mc_consistency_probe(
                Weibull(1.0, 1.0), n=10, k=3, eps0=0.1, draws=20_000, n_seeds=2
            ),
        ]
        for rep in reports:
            wire = json.dumps(rep.to_dict(), sort_keys=True)
            back = report_from_dict(json.loads(wire))
            assert back == rep
        assert '"abs_median_over_sigma": Infinity' in json.dumps(reports[1].to_dict())

        x = Weibull(1.0, 1.0).sample(8, 0)
        unseeded = hl_central_moment(x, 3)
        seeded = hl_central_moment(x, 3, plan=MonteCarloPlan(draws=200, seed=5))
        assert unseeded.seed is None and seeded.seed == 5
        for rec in (unseeded, seeded, congruence_check(Weibull(1.0, 1.0), "shape")):
            wire = json.dumps(rec.to_dict(), sort_keys=True)
            assert type(rec).from_dict(json.loads(wire)) == rec
        seedless = unseeded.to_dict()
        del seedless["seed"]
        assert MomentEstimate.from_dict(seedless) == unseeded

    def test_wire_tags(self):
        # the tags are part of the output format
        assert [rec.to_dict()["record"] for rec in RECORDS] == [
            "moment-estimate", "congruence-verdict", "shape-probe", "variance-comparison",
            "support-bounds", "equivariance", "mc-consistency",
        ]

    @pytest.mark.parametrize(
        "case", ["missing-field", "uncoercible", "not-a-dict", "foreign-tag", "schema-version",
                 "numeric-text", "numeric-bool", "tuple-text"]
    )
    @pytest.mark.parametrize("rec", RECORDS, ids=lambda rec: type(rec).__name__)
    def test_malformed_input_raises_argument_error(self, rec, case):
        d = rec.to_dict()
        first = fields(rec)[0].name
        numeric = next(f.name for f in fields(rec) if type(d[f.name]) in (int, float))
        seq = next((f.name for f in fields(rec) if type(d[f.name]) is list), numeric)
        bad = {
            "missing-field": {key: v for key, v in d.items() if key != first},
            "uncoercible": {**d, numeric: "not a number"},
            "numeric-text": {**d, numeric: str(d[numeric])},
            "numeric-bool": {**d, numeric: True},
            "tuple-text": {**d, seq: "1" * 8},
            "not-a-dict": [d],
            "foreign-tag": {**d, "record": "congruence-verdict" if d["record"] == "moment-estimate"
                            else "moment-estimate"},
            "schema-version": {**d, "schema_version": 99},
        }[case]
        with pytest.raises(ArgumentError):
            type(rec).from_dict(bad)

    @pytest.mark.parametrize("record, field, value", [
        ("moment-estimate", "k", 2.7), ("moment-estimate", "seed", 3.9),
        ("moment-estimate", "n", "10"), ("moment-estimate", "k", True),
        ("moment-estimate", "method", None), ("shape-probe", "kind", 3),
        ("congruence-verdict", "signs", "11111111"),
        ("congruence-verdict", "signs", [1, 0.5]), ("congruence-verdict", "gamma", "1"),
        ("shape-probe", "counts", [1, True]),
    ])
    def test_fields_take_only_values_of_their_annotation(self, record, field, value):
        rec = next(r for r in RECORDS if r.RECORD == record)
        with pytest.raises(ArgumentError, match=f"field {field!r} cannot hold"):
            type(rec).from_dict({**rec.to_dict(), field: value})

    def test_float_fields_take_inf_and_nan_and_integers(self):
        probe = next(r for r in RECORDS if r.RECORD == "shape-probe")
        d = {**probe.to_dict(), "abs_median_over_sigma": math.nan, "median": -math.inf,
             "sigma": 2, "bin_edges": [0, 0.5, 1]}
        back = type(probe).from_dict(json.loads(json.dumps(d)))
        assert math.isnan(back.abs_median_over_sigma) and back.median == -math.inf
        assert repr(back.sigma) == "2.0" and back.bin_edges == (0.0, 0.5, 1.0)

    def test_unknown_record_rejected(self):
        for bad in ({"record": "mystery"}, {"record": ["x"]}, RECORDS[0].to_dict(), [1], None):
            with pytest.raises(ArgumentError):
                report_from_dict(bad)
