"""Combination counts and pseudo-sample construction."""

import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from hlmoments import (
    ArgumentError,
    CapacityError,
    CombinationOverflowError,
    ExactPlan,
    DEFAULT_CHUNK,
    MonteCarloPlan,
    build_pseudosample,
    central_moment_kernel,
    count_combinations,
)
from hlmoments.kernels import _TILE


class TestCountCombinations:
    def test_known_values(self):
        assert count_combinations(3, 2) == 3
        assert count_combinations(30, 4) == 27405
        assert count_combinations(5, 0) == 1

    def test_overflow_detected(self):
        with pytest.raises(CombinationOverflowError):
            count_combinations(70, 35)

    def test_bad_arguments(self):
        with pytest.raises(ArgumentError):
            count_combinations(3, 4)
        with pytest.raises(ArgumentError):
            count_combinations(-1, 0)


class TestExactBuild:
    def test_pair_kernel_values(self):
        out = build_pseudosample([0.0, 1.0, 2.0], 2)
        assert out.tolist() == [0.5, 0.5, 2.0]

    def test_single_triple(self):
        out = build_pseudosample([0.0, 1.0, 3.0], 3)
        assert out.shape == (1,)
        assert out[0] == pytest.approx(10 / 3, rel=1e-14)

    def test_degenerate_sample(self):
        out = build_pseudosample([4.0] * 6, 3)
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_sorted_ascending(self):
        rng = np.random.default_rng(17)
        out = build_pseudosample(rng.normal(size=15), 3)
        assert np.all(np.diff(out) >= 0)

    def test_partition_completeness(self):
        # chunked enumeration covers exactly the full combination set
        rng = np.random.default_rng(23)
        x = rng.normal(size=13)
        full = np.sort(
            central_moment_kernel(x[np.array(list(combinations(range(13), 3)))], 3) + 0.0
        )
        for chunk in (1, 7, 50, 10**6):
            got = build_pseudosample(x, 3, ExactPlan(chunk=chunk))
            assert np.array_equal(got, full)

    @pytest.mark.parametrize("k", range(2, 13))
    @pytest.mark.parametrize("offset", [0.0, 1e4])
    def test_matches_sorted_kernel_of_every_subset(self, k, offset):
        # unsorted input with ties and both signed zeros; the pipeline sorts
        # the sample once, so its rows reach the kernel in ascending order
        n = max(12, k + 3)
        rng = np.random.default_rng(k)
        x = np.round(rng.normal(size=n) * 2.0) / 2.0
        x[:4] = [0.0, -0.0, 1.5, 0.0]
        x = rng.permutation(x) + offset
        want = np.sort(
            central_moment_kernel(x[np.array(list(combinations(range(n), k)))], k) + 0.0
        )
        # (k - 1) * C(n - 2, k - 1) keeps every top-index block whole but
        # the last, which it splits
        splitting = (k - 1) * math.comb(n - 2, k - 1)
        for chunk in (1, 7, splitting, 10**6):
            got = build_pseudosample(x, k, ExactPlan(chunk=chunk))
            assert got.tobytes() == want.tobytes(), chunk

    def test_working_memory_is_bounded_by_chunk(self):
        # C(29, 5) = 118755 subsets share the largest index, far more than
        # the chunk; only the output may grow with C(n, k)
        x = np.random.default_rng(30).normal(size=30)
        chunk = 4096
        build_pseudosample(x[:8], 6, ExactPlan(chunk=chunk))  # warm caches
        tracemalloc.start()
        try:
            out = build_pseudosample(x, 6, ExactPlan(chunk=chunk))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.size == math.comb(30, 6)
        assert peak - out.nbytes <= 4 * chunk * 6 * 8

    def test_budget_exceeded(self):
        with pytest.raises(CapacityError):
            build_pseudosample(np.arange(200.0), 4, ExactPlan(budget=50_000_000))

    def test_sample_smaller_than_k(self):
        with pytest.raises(ArgumentError):
            build_pseudosample([1.0, 2.0], 3)

    def test_nan_rejected(self):
        with pytest.raises(ArgumentError):
            build_pseudosample([1.0, np.nan, 2.0], 2)

    @pytest.mark.parametrize("plan", [ExactPlan(chunk=2), MonteCarloPlan(draws=50, seed=1)])
    def test_nan_kernel_value_rejected(self, plan):
        # finite inputs whose kernel overflows to inf - inf
        with np.errstate(all="ignore"), pytest.raises(ArgumentError):
            build_pseudosample([1e200, -1e200, 3.0, 1.0], 3, plan)

    def test_no_negative_zero_in_output(self):
        x = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        out = build_pseudosample(x, 3)
        assert not np.any(np.signbit(out[out == 0.0]))


class TestKernelTiles:
    @pytest.mark.parametrize("plan", [ExactPlan, lambda chunk: MonteCarloPlan(20_000, 5, chunk)],
                             ids=["exact", "monte-carlo"])
    @pytest.mark.parametrize("n, k", [(50, 3), (20, 5)])
    def test_chunks_around_the_kernel_tile_change_no_bit(self, plan, n, k):
        # C(50, 3) = 19600 and C(20, 5) = 15504 rows span several kernel tiles
        x = np.random.default_rng(n).lognormal(size=n)
        want = build_pseudosample(x, k, plan(chunk=DEFAULT_CHUNK))
        for chunk in (1, _TILE - 1, _TILE + 1):
            assert build_pseudosample(x, k, plan(chunk=chunk)).tobytes() == want.tobytes(), chunk


class TestMonteCarloBuild:
    def test_seeded_determinism(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=25)
        plan = MonteCarloPlan(draws=40_000, seed=99)
        a = build_pseudosample(x, 3, plan)
        b = build_pseudosample(x, 3, plan)
        assert np.array_equal(a, b)

    def test_chunk_does_not_change_result(self):
        # the RNG substreams are keyed on fixed blocks, not on the chunk;
        # 600k draws span three blocks, the last one partial
        x = np.random.default_rng(6).normal(size=25)
        want = build_pseudosample(x, 3, MonteCarloPlan(draws=600_000, seed=7))
        for chunk in (1000, 4096, 10**6):
            got = build_pseudosample(x, 3, MonteCarloPlan(draws=600_000, seed=7, chunk=chunk))
            assert np.array_equal(got, want), chunk

    def test_different_seeds_differ(self):
        x = np.random.default_rng(5).normal(size=25)
        a = build_pseudosample(x, 3, MonteCarloPlan(draws=10_000, seed=1))
        b = build_pseudosample(x, 3, MonteCarloPlan(draws=10_000, seed=2))
        assert not np.array_equal(a, b)

    def test_draw_count_and_sortedness(self):
        x = np.random.default_rng(8).normal(size=12)
        out = build_pseudosample(x, 4, MonteCarloPlan(draws=5_000, seed=3))
        assert out.shape == (5_000,)
        assert np.all(np.diff(out) >= 0)

    def test_values_are_kernel_values_of_subsets(self):
        # with n = k the only subset is the whole sample
        x = np.array([0.0, 1.0, 3.0])
        out = build_pseudosample(x, 3, MonteCarloPlan(draws=64, seed=0))
        assert np.allclose(out, 10 / 3)

    def test_index_sampler_uniformity(self):
        # every pair of a 5-point sample appears with roughly equal frequency
        from hlmoments.pseudosample import _sample_index_combinations

        rng = np.random.default_rng(42)
        sel = _sample_index_combinations(rng, 5, 2, 100_000)
        assert np.all(sel[:, 0] < sel[:, 1])
        pairs, counts = np.unique(sel, axis=0, return_counts=True)
        assert len(pairs) == 10
        assert counts.min() > 9_300 and counts.max() < 10_700

    @pytest.mark.parametrize(
        "n, k, m, seed",
        [(5, 2, 1000, 0), (13, 12, 4000, 1), (40, 3, 5000, 2), (100_000, 4, 20_000, 3), (9, 9, 50, 4)],
    )
    def test_index_sampler_matches_reference_algorithm(self, n, k, m, seed):
        from hlmoments.pseudosample import _sample_index_combinations

        def reference(rng, n, k, m):
            # the sampler as first written: re-sort the chosen prefix for
            # every column and sort every row at the end
            sel = np.empty((m, k), dtype=np.int64)
            for j in range(k):
                v = rng.integers(0, n - j, size=m)
                if j:
                    prev = np.sort(sel[:, :j], axis=1)
                    for t in range(j):
                        v = v + (v >= prev[:, t])
                sel[:, j] = v
            sel.sort(axis=1)
            return sel

        got = _sample_index_combinations(np.random.default_rng(seed), n, k, m)
        want = reference(np.random.default_rng(seed), n, k, m)
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    def test_plan_validation(self):
        with pytest.raises(ArgumentError):
            MonteCarloPlan(draws=0)
        with pytest.raises(ArgumentError):
            MonteCarloPlan(draws=10, seed=-1)
        with pytest.raises(ArgumentError):
            ExactPlan(budget=0)
