"""Combination counts and pseudo-sample construction."""

import hashlib
import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hlmoments import (
    ArgumentError,
    CapacityError,
    CombinationOverflowError,
    ExactPlan,
    MonteCarloPlan,
    build_pseudosample,
    central_moment_kernel,
    count_combinations,
    kernel_values,
)
from hlmoments import pseudosample
from hlmoments.kernels import _TILE
from hlmoments.pseudosample import (
    _MC_BLOCK,
    _TABLE_CELLS,
    _exact_rows,
    _monte_carlo_rows,
    _sample_index_combinations,
)


def exact_rows(x, k, cap, tile=_TILE):
    """The tiles of rows of the sorted x that ``_exact_rows`` yields with table
    cap ``cap`` and tile ``tile``, each copied out of the buffer they share."""
    return [rows.copy() for rows in _exact_rows(np.sort(x), k, cap, tile)]


def drawn_blocks(x, k, plan):
    """The plan's drawn rows of the sorted x, one array per block of _MC_BLOCK
    draws, joined from the tiles ``_monte_carlo_rows`` yields."""
    rows = np.vstack(list(_monte_carlo_rows(np.sort(x), k, plan)))
    return np.split(rows, range(_MC_BLOCK, plan.draws, _MC_BLOCK))


def index_combinations(rng, n, k, m):
    """The (m, k) index rows that ``_sample_index_combinations`` yields as tiles."""
    return np.hstack(list(_sample_index_combinations(rng, n, k, m))).T


def block_sampler(rng, n, k, m):
    """``_sample_index_combinations`` before it was tiled: 8-byte indices, each
    row drawn just before its skip-and-insert pass over the whole block."""
    sel = np.empty((k, m), dtype=np.int64)
    for j in range(k):
        v = rng.integers(0, n - j, size=m)
        for t in range(j):
            v += v >= sel[t]
        for t in range(j):
            low = np.minimum(sel[t], v)
            np.maximum(sel[t], v, out=v)
            sel[t] = low
        sel[j] = v
    return sel.T


def pseudosample_of(blocks, k):
    """Sorted psi_k of row blocks, evaluated block by block as build_pseudosample does."""
    out = np.concatenate([kernel_values(rows, k) for rows in blocks])
    out += 0.0
    out.sort()
    return out


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
        # every table cap and tile covers exactly the full combination set, in
        # full tiles but the last, or in one piece where C(13, 3) <= cap // 3;
        # on x = 0..12 the rows are the index tuples
        full = list(combinations(range(13), 3))
        for cap in (1, 7, 50, 10**6):
            for tile in (1, 7, 50, _TILE):
                tiles = exact_rows(np.arange(13.0), 3, cap, tile)
                if cap == 10**6:
                    assert len(tiles) == 1
                else:
                    assert {rows.shape[0] for rows in tiles[:-1]} <= {tile}
                    assert 0 < tiles[-1].shape[0] <= tile
                got = sorted(map(tuple, np.vstack(tiles).astype(int).tolist()))
                assert got == full, (cap, tile)

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
        assert build_pseudosample(x, k).tobytes() == want.tobytes()
        # (k - 1) * C(n - 2, k - 1) keeps every top-index block whole but
        # the last, which it splits
        splitting = (k - 1) * math.comb(n - 2, k - 1)
        for cap in (1, 7, splitting, 10**6):
            for tile in (7, _TILE):
                got = pseudosample_of(exact_rows(x, k, cap, tile), k)
                assert got.tobytes() == want.tobytes(), (cap, tile)

    def test_working_memory_is_bounded_by_cap_and_tile(self):
        # C(29, 5) = 118755 subsets share the largest index, far more than
        # the cap; only the output may grow with C(n, k)
        x = np.sort(np.random.default_rng(30).normal(size=30))
        cap = 4096

        def evaluate(x):
            out, at = np.empty(math.comb(x.size, 6)), 0
            for rows in _exact_rows(x, 6, cap, cap):
                out[at:at + rows.shape[0]] = kernel_values(rows, 6)
                at += rows.shape[0]
            return out

        evaluate(x[:8])  # warm caches
        tracemalloc.start()
        try:
            out = evaluate(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.size == math.comb(30, 6)
        assert peak - out.nbytes <= 4 * cap * 6 * 8

    def test_build_holds_the_output_the_level_table_and_one_tile(self):
        # C(60, 4) = 487635 rows exceed the level-4 cap, so they come in blocks
        # of 3-subsets of range(j), j < 60, below x_j: one level-3 table of
        # C(59, 3) rows of 3 values, and tiles of 8192 rows packed from it
        k = 4
        x = np.random.default_rng(4).normal(size=60)
        build_pseudosample(x, k)  # warm caches
        tracemalloc.start()
        try:
            out = build_pseudosample(x, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.size == math.comb(60, 4) > _TABLE_CELLS // k
        table = 3 * math.comb(59, 3) * 8
        assert peak - out.nbytes - table <= 4 * _TILE * k * 8

    def test_budget_exceeded(self):
        with pytest.raises(CapacityError):
            build_pseudosample(np.arange(200.0), 4, ExactPlan(budget=50_000_000))

    def test_sample_smaller_than_k(self):
        with pytest.raises(ArgumentError):
            build_pseudosample([1.0, 2.0], 3)

    def test_nan_rejected(self):
        with pytest.raises(ArgumentError):
            build_pseudosample([1.0, np.nan, 2.0], 2)

    @pytest.mark.parametrize("plan", [ExactPlan(), MonteCarloPlan(draws=50, seed=1)])
    def test_nan_kernel_value_rejected(self, plan):
        # finite inputs whose kernel overflows to inf - inf
        with np.errstate(all="ignore"), pytest.raises(ArgumentError):
            build_pseudosample([1e200, -1e200, 3.0, 1.0], 3, plan)

    def test_no_negative_zero_in_output(self):
        x = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        out = build_pseudosample(x, 3)
        assert not np.any(np.signbit(out[out == 0.0]))


class TestIndexCache:
    @pytest.fixture(autouse=True)
    def empty_cache(self, monkeypatch):
        monkeypatch.setattr(pseudosample, "_COLEX", {})

    def test_rows_are_the_colex_subsets_as_the_cache_grows_and_shrinks(self):
        # each call reads its own prefix of the one table per level, however
        # far earlier calls grew it; on x = 0..n-1 the rows are the index tuples.
        # C(21, 6) rows are one gather at cap 10**6 but split at _TABLE_CELLS
        for n, k in ((14, 6), (21, 6), (9, 6)):
            want = np.array(sorted(combinations(range(n), k), key=lambda c: c[::-1]))
            for cap in (1, 7, _TABLE_CELLS, 10**6):
                got = np.vstack(exact_rows(np.arange(float(n)), k, cap))
                assert np.array_equal(got, want), (n, k, cap)

    def test_samples_of_one_size_share_one_table(self):
        rng = np.random.default_rng(3)
        build_pseudosample(rng.normal(size=16), 6)
        table = pseudosample._COLEX[6]
        build_pseudosample(rng.lognormal(size=16), 6)
        assert pseudosample._COLEX[6] is table
        assert not table.flags.writeable

    def test_tables_stay_within_the_cap(self):
        # n_k is the largest n whose C(n, k) rows are one gather, which takes
        # level k to its cap; n_k + 1 and n_k + 4 split into lower levels
        for k in range(2, 13):
            n_k = max(n for n in range(k, 600) if math.comb(n, k) <= _TABLE_CELLS // k)
            for n in (n_k, n_k + 1, n_k + 4):
                for _ in _exact_rows(np.arange(float(n)), k):
                    pass
        tables = pseudosample._COLEX
        assert sorted(tables) == list(range(1, 13))
        for q, table in tables.items():
            assert table.dtype == np.uint16 and table.shape[0] == q
            assert table.shape[1] <= _TABLE_CELLS // q, q
            assert table.max() <= 511
        # every level reached its cap: the worst case the module documents
        assert sum(table.nbytes for table in tables.values()) == 4_776_450


class TestKernelTiles:
    @pytest.mark.parametrize("plan", [ExactPlan(), MonteCarloPlan(20_000, 5)],
                             ids=["exact", "monte-carlo"])
    @pytest.mark.parametrize("n, k", [(50, 3), (20, 5)])
    def test_tiles_around_the_kernel_tile_change_no_bit(self, plan, n, k):
        # C(50, 3) = 19600 and C(20, 5) = 15504 rows span several kernel tiles;
        # exact rows are gathered that many at a time, drawn rows split after
        x = np.random.default_rng(n).lognormal(size=n)
        want = build_pseudosample(x, k, plan)
        for chunk in (1, _TILE - 1, _TILE + 1):
            if isinstance(plan, ExactPlan):
                blocks = exact_rows(x, k, chunk, chunk)
            else:
                (drawn,) = drawn_blocks(x, k, plan)  # one block of draws
                blocks = [drawn[a:a + chunk] for a in range(0, plan.draws, chunk)]
            assert pseudosample_of(blocks, k).tobytes() == want.tobytes(), chunk


class TestMonteCarloBuild:
    def test_seeded_determinism(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=25)
        plan = MonteCarloPlan(draws=40_000, seed=99)
        a = build_pseudosample(x, 3, plan)
        b = build_pseudosample(x, 3, plan)
        assert np.array_equal(a, b)

    def test_blocks_are_substreams_of_the_seed(self):
        # 600k draws span three blocks, the last one partial; block b is drawn
        # from (seed, b) alone, so it does not depend on the total draw count.
        # Tiles never cross a block, so the last block ends in a partial tile
        x = np.sort(np.random.default_rng(6).normal(size=25))
        plan = MonteCarloPlan(draws=600_000, seed=7)
        tiles = [rows.shape[0] for rows in _monte_carlo_rows(x, 3, plan)]
        last = 600_000 - (1 << 19)
        assert tiles == [_TILE] * (2 * _MC_BLOCK // _TILE + last // _TILE) + [last % _TILE]
        blocks = drawn_blocks(x, 3, plan)
        assert [rows.shape[0] for rows in blocks] == [1 << 18, 1 << 18, 600_000 - (1 << 19)]
        (first,) = drawn_blocks(x, 3, MonteCarloPlan(draws=1 << 18, seed=7))
        assert np.array_equal(blocks[0], first)
        assert not np.array_equal(blocks[0], blocks[1])

    def test_working_memory_is_bounded_by_the_tile(self):
        # beyond the output and the sorted sample, a block of draws holds its
        # k rows of 4-byte indices (and, while drawing, the row rng.integers
        # returns before it is copied in) and gathers one tile of rows at a time
        x = np.random.default_rng(31).normal(size=100_000)
        k = 4
        build_pseudosample(x[:50], k, MonteCarloPlan(1000))  # warm caches
        tracemalloc.start()
        try:
            out = build_pseudosample(x, k, MonteCarloPlan(1 << 18))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes - x.nbytes <= 4 * (k + 1) * _MC_BLOCK + 2 * _TILE * k * 8

    def test_two_blocks_hold_one_block_of_indices(self):
        # the finished block is released before the next one is drawn, so the
        # bound of one block holds across blocks; holding both took 4 (2k + 1) _MC_BLOCK
        x = np.random.default_rng(31).normal(size=100_000)
        k = 4
        build_pseudosample(x[:50], k, MonteCarloPlan(1000))  # warm caches
        tracemalloc.start()
        try:
            out = build_pseudosample(x, k, MonteCarloPlan(2 * _MC_BLOCK))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes - x.nbytes <= 4 * (k + 1) * _MC_BLOCK + 2 * _TILE * k * 8

    @pytest.mark.parametrize("k, want", [
        (2, "929fd249d6c5d87de90857f7e02fefab6a3210667c174e76efdcdad511f61f55"),
        (4, "bccf2de97a98e8f9ff7632b74f5ee4353d944b6521c86ce2505e6d7f0e0b236f"),
        (12, "1d74d1c02848de43f1aa677781ed0d68590a16a17e8db6172d258539b11b3722"),
    ])
    def test_three_block_digest_is_pinned(self, k, want):
        # 2 _MC_BLOCK + 1000 draws: two full blocks and a partial one; the sample is
        # exact arithmetic on seeded integers and uniforms, so the digest is portable
        rng = np.random.default_rng(300 + k)
        x = rng.random(1000) * 8.0 - 3.0 + rng.integers(0, 4, size=1000)
        out = build_pseudosample(x, k, MonteCarloPlan(2 * _MC_BLOCK + 1000, seed=k))
        assert hashlib.sha256(out.tobytes()).hexdigest() == want

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
        rng = np.random.default_rng(42)
        sel = index_combinations(rng, 5, 2, 100_000)
        assert np.all(sel[:, 0] < sel[:, 1])
        pairs, counts = np.unique(sel, axis=0, return_counts=True)
        assert len(pairs) == 10
        assert counts.min() > 9_300 and counts.max() < 10_700

    @pytest.mark.parametrize(
        "n, k, m, seed",
        [(5, 2, 1000, 0), (13, 12, 4000, 1), (40, 3, 5000, 2), (100_000, 4, 20_000, 3), (9, 9, 50, 4)],
    )
    def test_index_sampler_matches_reference_algorithm(self, n, k, m, seed):
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

        got = index_combinations(np.random.default_rng(seed), n, k, m)
        want = reference(np.random.default_rng(seed), n, k, m)
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    @settings(max_examples=20, deadline=None)
    @given(k=st.integers(2, 12), n=st.integers(2, 10**5),
           m=st.sampled_from([1, _TILE - 1, _TILE + 1, 2 * _TILE + 1, _MC_BLOCK]),
           seed=st.integers(0, 2**32))
    @example(k=12, n=12, m=_MC_BLOCK, seed=0)
    @example(k=12, n=10**5, m=_MC_BLOCK, seed=1)
    @example(k=2, n=2, m=2 * _TILE + 1, seed=2)
    def test_tiled_sampler_matches_the_block_sampler(self, k, n, m, seed):
        n = max(n, k)
        got = index_combinations(np.random.default_rng(seed), n, k, m)
        want = block_sampler(np.random.default_rng(seed), n, k, m)
        assert got.dtype == np.int32 and got.shape == (m, k)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n, dtype", [(2**31 - 1, np.int32), (2**31, np.int64),
                                          (2**31 + 5, np.int64)])
    def test_indices_widen_to_8_bytes_from_n_2_31(self, n, dtype):
        # rng.integers allocates nothing of size n, so n itself may be huge
        for k in (2, 5, 12):
            got = index_combinations(np.random.default_rng(k), n, k, _TILE + 1)
            want = block_sampler(np.random.default_rng(k), n, k, _TILE + 1)
            assert got.dtype == dtype
            assert np.array_equal(got, want)

    def test_plan_validation(self):
        with pytest.raises(ArgumentError):
            MonteCarloPlan(draws=0)
        with pytest.raises(ArgumentError):
            MonteCarloPlan(draws=10, seed=-1)
        with pytest.raises(ArgumentError):
            ExactPlan(budget=0)


class TestUnallocatable:
    """A pseudo-sample too large to allocate is a capacity error naming its size.

    Only sizes that no host can map are tried: 2^45 values or more (256 TiB,
    beyond a 47-bit user address space) for the MemoryError route, and 2^61
    or more (beyond numpy's largest array) for its ValueError route.
    """

    def test_exact_plan_beyond_the_address_space(self):
        total = math.comb(200, 8)  # above 2^45
        with pytest.raises(CapacityError, match=f"^a pseudo-sample of {total} values "
                                                f"\\({8 * total} bytes\\) is too large"):
            build_pseudosample(np.arange(200.0), 8, ExactPlan(budget=10**15))

    @pytest.mark.parametrize("draws", [2**45, 2**61, 2**62])
    def test_monte_carlo_plan_beyond_the_address_space(self, draws):
        with pytest.raises(CapacityError, match=f"^a pseudo-sample of {draws} values"):
            build_pseudosample(np.arange(20.0), 3, MonteCarloPlan(draws=draws))
