"""Tests of the benchmark's own arithmetic and tracing.

    python3 -m pytest -q perfbench
"""

import math
import os
import sys

import pytest

from spans import Recorder, targets
from summary import MIN_BEYOND, failed_frac, self_times, tail_percentile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))


class TestTailPercentile:
    @pytest.mark.parametrize("n, p", [(20, 50), (25, 60), (84, 88), (100, 90), (1000, 99), (5000, 99)])
    def test_highest_percentile_with_ten_beyond(self, n, p):
        got_p, value, beyond = tail_percentile([float(i) for i in range(n)])
        assert got_p == p
        assert beyond >= MIN_BEYOND
        assert value == n - 1 - beyond
        if p < 99:  # one percentile higher would leave fewer than ten beyond
            assert n - math.ceil((p + 1) * n / 100) < MIN_BEYOND

    @pytest.mark.parametrize("n", range(20, 400, 7))
    def test_rule_holds_for_every_size(self, n):
        p, _, beyond = tail_percentile(list(range(n)))
        assert beyond >= MIN_BEYOND
        assert p == 99 or n - math.ceil((p + 1) * n / 100) < MIN_BEYOND

    def test_too_few_jobs_falls_back_to_the_median_and_says_so(self):
        p, value, beyond = tail_percentile([3.0, 1.0, 2.0, 5.0, 4.0] * 3)
        assert (p, value, beyond) == (50, 3.0, 7)

    def test_failed_jobs_count_as_slowest(self):
        times = [1.0] * 90 + [math.inf] * 10
        assert tail_percentile(times) == (90, 1.0, 10)
        assert tail_percentile(times + [math.inf])[1] == math.inf


class TestFailedFrac:
    def test_denominator_is_jobs_plus_checks(self):
        jobs, checks = 40, 2
        assert failed_frac(1, jobs + checks) == pytest.approx(1 / 42)
        assert failed_frac(0, jobs + checks) == 0.0

    def test_rejects_impossible_counts(self):
        with pytest.raises(ValueError):
            failed_frac(0, 0)
        with pytest.raises(ValueError):
            failed_frac(5, 4)


class TestSelfTimes:
    def test_standardized_nests_two_central_calls(self):
        # standardized [0, 10) -> central [1, 4) -> pseudosample [1.5, 3.5) -> kernels [2, 3)
        #                      -> central [5, 9)
        spans = [(None, 0.0, 10.0), (0, 1.0, 4.0), (1, 1.5, 3.5), (2, 2.0, 3.0), (0, 5.0, 9.0)]
        assert self_times(spans) == [3.0, 1.0, 1.0, 1.0, 4.0]

    def test_cli_chain_self_times_sum_to_the_root(self):
        # cli -> estimators -> pseudosample -> kernels (two calls) and lstat
        spans = [(None, 0.0, 8.0), (0, 0.5, 7.0), (1, 1.0, 5.0), (2, 1.5, 2.5),
                 (2, 3.0, 4.0), (1, 5.5, 6.0)]
        got = self_times(spans)
        assert got == [1.5, 2.0, 2.0, 1.0, 1.0, 0.5]
        assert sum(got) == 8.0


class TestRecorder:
    def test_nested_wrappers_record_parents_and_restore(self):
        import types

        mod = types.SimpleNamespace()
        mod.inner = lambda v: v + 1
        mod.outer = lambda v: mod.inner(v) * mod.inner(v)
        rec = Recorder()
        restore = rec.install([(mod, "inner", "kernels", None), (mod, "outer", "estimators", None)])
        rec.job = 0
        assert mod.outer(1) == 4
        restore()
        assert mod.outer(1) == 4 and len(rec.spans) == 3
        assert [(s[1], s[2]) for s in rec.spans] == [(None, "estimators"), (0, "kernels"), (0, "kernels")]
        acc = rec.per_job()[0]
        total = rec.spans[0][5] - rec.spans[0][4]
        assert acc["estimators.self_s"] + acc["kernels.self_s"] == pytest.approx(total, abs=1e-12)

    def test_traced_package_matches_untraced_and_nests(self):
        import numpy as np

        import hlmoments
        from hlmoments import cli, estimators

        x = np.random.default_rng(3).gamma(2.0, 1.0, 12)
        plain = repr(hlmoments.hl_standardized_moment(x, 3, hlmoments.TrimSpec(eps0=0.1)))
        rec = Recorder()
        restore = rec.install(targets())
        try:
            rec.job = 0
            traced = repr(cli.hl_standardized_moment(x, 3, hlmoments.TrimSpec(eps0=0.1)))
        finally:
            restore()
        assert traced == plain
        assert estimators.hl_central_moment is hlmoments.hl_central_moment
        layers = [(s[1], s[2]) for s in rec.spans]
        # standardized -> central(k=3) -> {pseudosample -> kernels, lstat}, then central(k=2) alike
        assert layers == [
            (None, "estimators"),
            (0, "estimators"), (1, "pseudosample"), (2, "kernels"), (1, "lstat"),
            (0, "estimators"), (5, "pseudosample"), (6, "kernels"), (5, "lstat"),
        ]
        acc = rec.per_job()[0]
        assert acc["estimators.items"] == math.comb(12, 3) + math.comb(12, 2)
        assert acc["kernels.tuples.k3"] == math.comb(12, 3)
        assert acc["kernels.bytes"] == (math.comb(12, 3) * 4 + math.comb(12, 2) * 3) * 8
