"""Unit and cross-validation tests for the vectorized miss counters.

The key property: for any stream, the vectorized counters agree
reference-for-reference with the sequential object simulator.
"""

import numpy as np
import pytest

from repro.caches.base import CacheGeometry
from repro.caches.setassoc import SetAssociativeCache
from repro.caches.vectorized import (
    compulsory_mask,
    lru_stack_distances,
    miss_mask_direct_mapped,
    miss_mask_fully_associative,
    miss_mask_set_associative,
)


def _random_lines(n=3000, span=400, seed=0):
    return np.random.default_rng(seed).integers(0, span, n).astype(np.uint64)


def _sequential_mask(lines, n_sets, ways):
    cache = SetAssociativeCache(CacheGeometry(n_sets * ways * 32, 32, ways))
    return np.array([not cache.access_line(int(l)) for l in lines])


class TestDirectMapped:
    def test_matches_sequential(self):
        lines = _random_lines()
        vec = miss_mask_direct_mapped(lines, 128)
        seq = _sequential_mask(lines, 128, 1)
        assert np.array_equal(vec, seq)

    def test_all_first_touches_miss(self):
        lines = np.arange(100, dtype=np.uint64)
        assert miss_mask_direct_mapped(lines, 256).all()

    def test_repeat_hits(self):
        lines = np.array([5, 5, 5], dtype=np.uint64)
        assert list(miss_mask_direct_mapped(lines, 16)) == [True, False, False]

    def test_conflict_alternation_always_misses(self):
        lines = np.array([0, 16, 0, 16, 0], dtype=np.uint64)
        assert miss_mask_direct_mapped(lines, 16).all()

    def test_empty(self):
        assert len(miss_mask_direct_mapped(np.zeros(0, np.uint64), 16)) == 0

    def test_rejects_non_power_sets(self):
        with pytest.raises(ValueError):
            miss_mask_direct_mapped(np.array([0], np.uint64), 100)


class TestSetAssociative:
    @pytest.mark.parametrize("ways", [2, 4, 8])
    def test_matches_sequential(self, ways):
        lines = _random_lines(seed=ways)
        vec = miss_mask_set_associative(lines, 64, ways)
        seq = _sequential_mask(lines, 64, ways)
        assert np.array_equal(vec, seq)

    def test_ways_one_delegates_to_direct_mapped(self):
        lines = _random_lines(seed=11)
        assert np.array_equal(
            miss_mask_set_associative(lines, 128, 1),
            miss_mask_direct_mapped(lines, 128),
        )

    def test_higher_associativity_never_more_misses_same_size(self):
        lines = _random_lines(seed=2)
        total_lines = 256
        m1 = miss_mask_set_associative(lines, total_lines, 1).sum()
        m2 = miss_mask_set_associative(lines, total_lines // 2, 2).sum()
        m8 = miss_mask_set_associative(lines, total_lines // 8, 8).sum()
        # Not strictly monotone in theory, but overwhelmingly so for
        # random streams; allow a tiny margin.
        assert m2 <= m1 * 1.02
        assert m8 <= m2 * 1.02


class TestFullyAssociative:
    def test_matches_sequential_fa(self):
        lines = _random_lines(n=1500, span=120, seed=3)
        vec = miss_mask_fully_associative(lines, 64)
        cache = SetAssociativeCache(CacheGeometry(64 * 32, 32, 0))
        seq = np.array([not cache.access_line(int(l)) for l in lines])
        assert np.array_equal(vec, seq)

    def test_capacity_one(self):
        lines = np.array([1, 1, 2, 1], dtype=np.uint64)
        assert list(miss_mask_fully_associative(lines, 1)) == [
            True, False, True, True,
        ]


class TestStackDistances:
    def test_known_sequence(self):
        lines = np.array([1, 2, 3, 1, 2, 2, 3], dtype=np.uint64)
        distances = lru_stack_distances(lines)
        assert list(distances) == [-1, -1, -1, 2, 2, 0, 2]

    def test_first_touches_are_negative(self):
        lines = np.array([10, 20, 30], dtype=np.uint64)
        assert (lru_stack_distances(lines) == -1).all()

    def test_immediate_repeat_distance_zero(self):
        lines = np.array([5, 5], dtype=np.uint64)
        assert lru_stack_distances(lines)[1] == 0

    def test_distances_bounded_by_distinct_count(self):
        lines = _random_lines(n=2000, span=50, seed=6)
        distances = lru_stack_distances(lines)
        assert distances.max() < 50

    def test_miss_mask_consistency_across_capacities(self):
        # The FA miss masks derived from one distance array must be
        # monotone: larger capacity -> subset of misses.
        lines = _random_lines(n=1000, span=80, seed=8)
        small = miss_mask_fully_associative(lines, 16)
        large = miss_mask_fully_associative(lines, 64)
        assert not (large & ~small).any()


class TestCompulsory:
    def test_each_line_once(self):
        lines = np.array([3, 4, 3, 5, 4], dtype=np.uint64)
        mask = compulsory_mask(lines)
        assert list(mask) == [True, True, False, True, False]
        assert mask.sum() == 3

    def test_empty(self):
        assert compulsory_mask(np.zeros(0, np.uint64)).sum() == 0


class TestLineOrderCache:
    """Memoized per-stream artifacts shared across a sweep's calls."""

    def test_same_array_same_cache(self):
        from repro.caches.vectorized import clear_order_caches, line_order_cache

        clear_order_caches()
        lines = _random_lines()
        assert line_order_cache(lines) is line_order_cache(lines)

    def test_order_correct_across_key_widths(self):
        # Set counts up to 2**16 sort uint16 keys, larger ones uint32;
        # either way the permutation is the unique stable one.
        from repro.caches.vectorized import clear_order_caches, line_order_cache

        clear_order_caches()
        lines = _random_lines(n=5000, span=1 << 24)
        cache = line_order_cache(lines)
        for n_sets in (128, 1 << 16, 1 << 17, 1 << 20):
            sets = lines & np.uint64(n_sets - 1)
            expected = np.argsort(sets, kind="stable")
            assert np.array_equal(cache.order(n_sets), expected), n_sets

    def test_order_is_correct(self):
        from repro.caches.vectorized import clear_order_caches, line_order_cache

        clear_order_caches()
        lines = _random_lines()
        order = line_order_cache(lines).order(128)
        sets = lines & np.uint64(127)
        assert np.array_equal(order, np.argsort(sets, kind="stable"))

    def test_explicit_order_matches_cached(self):
        from repro.caches.vectorized import clear_order_caches

        clear_order_caches()
        lines = _random_lines()
        sets = lines & np.uint64(127)
        explicit = np.argsort(sets, kind="stable")
        with_explicit = miss_mask_direct_mapped(lines, 128, order=explicit)
        with_cache = miss_mask_direct_mapped(lines, 128)
        assert np.array_equal(with_explicit, with_cache)

    def test_compulsory_memoized_and_correct(self):
        from repro.caches.vectorized import clear_order_caches, line_order_cache

        clear_order_caches()
        lines = np.array([3, 1, 3, 2, 1, 4], dtype=np.uint64)
        cache = line_order_cache(lines)
        mask = cache.compulsory()
        assert list(mask) == [True, True, False, True, False, True]
        assert cache.compulsory() is mask
        assert np.array_equal(compulsory_mask(lines), mask)

    def test_results_are_read_only(self):
        from repro.caches.vectorized import clear_order_caches, line_order_cache

        clear_order_caches()
        lines = _random_lines()  # the registry holds streams only weakly
        cache = line_order_cache(lines)
        with pytest.raises(ValueError):
            cache.by_line()[0] = 0
        with pytest.raises(ValueError):
            cache.stack_distances(1)[0] = 0
        with pytest.raises(ValueError):
            cache.stack_distances(64)[0] = 0
        with pytest.raises(ValueError):
            cache.compulsory()[0] = False

    def test_registry_bounded(self):
        # The byte budget is the registry's one cap: live streams are
        # evicted LRU-first once their memoized bytes exceed it.
        from repro.caches.vectorized import (
            _ORDER_CACHE_MAX_BYTES,
            clear_order_caches,
            configure_order_cache,
            line_order_cache,
            order_cache_stats,
        )

        clear_order_caches()
        arrays = [_random_lines(n=1000, seed=i) for i in range(8)]
        configure_order_cache(max_bytes=20_000)
        try:
            for lines in arrays:
                line_order_cache(lines).stack_distances(1)
                stats = order_cache_stats()
                assert stats["entries"] == 1 or stats["bytes"] <= 20_000
            assert order_cache_stats()["entries"] < len(arrays)
        finally:
            configure_order_cache(max_bytes=_ORDER_CACHE_MAX_BYTES)
            clear_order_caches()

    def test_repeated_sweep_reuses_order(self):
        from repro.caches.vectorized import clear_order_caches

        clear_order_caches()
        lines = _random_lines()
        first = miss_mask_direct_mapped(lines, 64)
        second = miss_mask_direct_mapped(lines, 64)
        assert np.array_equal(first, second)
        seq = _sequential_mask(lines, 64, 1)
        assert np.array_equal(first, seq)


class TestMemoLifetime:
    """A stream's memo lives exactly as long as the stream."""

    def test_entry_dropped_with_its_stream(self):
        import gc

        from repro.caches.vectorized import (
            clear_order_caches,
            line_order_cache,
            order_cache_stats,
        )

        clear_order_caches()
        gc.collect()
        lines = _random_lines()
        cache = line_order_cache(lines)
        cache.stack_distances(64)
        cache.miss_masks([(64, 2), (256, 0)])
        assert cache.lines is lines
        stats = order_cache_stats()
        assert stats["entries"] == 1 and stats["bytes"] > 0
        del lines, cache
        gc.collect()
        assert order_cache_stats()["entries"] == 0
        assert order_cache_stats()["bytes"] == 0

    def test_coarsened_view_lives_with_its_parent(self):
        import gc

        from repro.caches.vectorized import (
            clear_order_caches,
            line_order_cache,
            order_cache_stats,
        )

        clear_order_caches()
        gc.collect()
        lines = _random_lines()
        coarse = line_order_cache(lines).coarsened(1)
        line_order_cache(coarse).stack_distances(1)
        del coarse
        assert order_cache_stats()["entries"] == 2
        del lines
        gc.collect()
        assert order_cache_stats()["entries"] == 0
        assert order_cache_stats()["bytes"] == 0

    def test_reused_id_never_serves_a_stale_memo(self):
        from repro.caches.vectorized import clear_order_caches, line_order_cache

        clear_order_caches()
        seen: set[int] = set()
        for seed in range(1000):
            lines = _random_lines(n=500, span=60, seed=seed)
            if id(lines) in seen:
                break
            seen.add(id(lines))
            line_order_cache(lines).miss_masks([(16, 1), (16, 2), (32, 0)])
            del lines
        else:
            pytest.skip("the allocator never reused an array id")
        masks = line_order_cache(lines).miss_masks([(16, 1), (16, 2), (32, 0)])
        assert np.array_equal(masks[(16, 1)], _sequential_mask(lines, 16, 1))
        assert np.array_equal(masks[(16, 2)], _sequential_mask(lines, 16, 2))
        fa = SetAssociativeCache(CacheGeometry(32 * 32, 32, 0))
        expected = np.array([not fa.access_line(int(l)) for l in lines])
        assert np.array_equal(masks[(32, 0)], expected)

    def test_transient_streams_free_their_memo(self, small_trace):
        import gc

        from repro.caches.vectorized import order_cache_stats
        from repro.tapeworm.trapdriven import TapewormSimulator
        from repro.tlb.tlb import simulate_tlb
        from repro.trace.rle import to_line_runs

        runs = to_line_runs(small_trace.ifetch_addresses(), 32)
        gc.collect()
        before = order_cache_stats()
        simulate_tlb(small_trace.addresses, small_trace.instruction_count)
        after = order_cache_stats()
        assert (after["entries"], after["bytes"]) == (
            before["entries"], before["bytes"],
        )
        TapewormSimulator().run_grid(
            runs,
            [CacheGeometry(8 * 1024, 32, 1), CacheGeometry(8 * 1024, 32, 2)],
            n_trials=2,
        )
        after = order_cache_stats()
        assert (after["entries"], after["bytes"]) == (
            before["entries"], before["bytes"],
        )

    def test_concurrent_streams_keep_the_registry_consistent(self):
        import gc
        import sys
        import threading

        from repro.caches.vectorized import (
            _ORDER_CACHE_MAX_BYTES,
            clear_order_caches,
            configure_order_cache,
            line_order_cache,
            order_cache_stats,
        )

        clear_order_caches()
        gc.collect()
        shared = [_random_lines(n=64, span=50, seed=i) for i in range(8)]
        errors = []

        def churn(seed):
            # Cheap memos keep the threads in the registry: lookups of
            # shared live streams race with eviction passes and with
            # finalizers of each thread's transient streams.
            rng = np.random.default_rng(seed)
            try:
                for i in range(10000):
                    lines = rng.integers(0, 50, 64).astype(np.uint64)
                    line_order_cache(lines).compulsory()
                    line_order_cache(shared[i % 8]).coarsened(1 + i % 3)
            except Exception as exc:  # surfaced below
                errors.append(exc)

        # More threads than cores, switching often, under a budget that
        # makes most inserts evict; a lost update to the running byte
        # total would leave it non-zero at the end.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        configure_order_cache(max_bytes=2_000)
        try:
            threads = [
                threading.Thread(target=churn, args=(t,)) for t in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            configure_order_cache(max_bytes=_ORDER_CACHE_MAX_BYTES)
            sys.setswitchinterval(interval)
        del shared
        gc.collect()
        assert errors == []
        assert order_cache_stats()["entries"] == 0
        assert order_cache_stats()["bytes"] == 0


class TestIndexWidth:
    """int32 memo arrays agree with the int64 reference paths."""

    @staticmethod
    def _set_conflicting_lines(n_sets, n=3000, seed=0):
        # A few dozen sets, each shared by up to eight tags, so grouped
        # distances are non-trivial at any set count.
        rng = np.random.default_rng(seed)
        sets = rng.choice(rng.integers(0, n_sets, 40), n)
        tags = rng.integers(0, 8, n)
        return (tags * n_sets + sets).astype(np.uint64)

    @pytest.mark.parametrize("n_sets", [64, 1 << 16, 1 << 17])
    def test_distances_match_int64_path(self, n_sets):
        from repro.caches.vectorized import clear_order_caches, line_order_cache

        clear_order_caches()
        lines = self._set_conflicting_lines(n_sets, seed=n_sets.bit_length())
        cache = line_order_cache(lines)
        assert cache.by_line().dtype == np.int32
        whole = cache.stack_distances(1)
        assert whole.dtype == np.int32
        assert lru_stack_distances(lines).dtype == np.int64
        assert np.array_equal(whole, lru_stack_distances(lines))
        grouped = cache.stack_distances(n_sets)
        assert grouped.dtype == np.int32
        sets = lines & np.uint64(n_sets - 1)
        for s in np.unique(sets):
            members = np.flatnonzero(sets == s)
            assert np.array_equal(
                grouped[members], lru_stack_distances(lines[members])
            )

    @pytest.mark.parametrize("n_sets", [64, 1 << 17])
    def test_masks_match_sequential(self, n_sets):
        from repro.caches.vectorized import clear_order_caches, line_order_cache

        clear_order_caches()
        lines = self._set_conflicting_lines(n_sets, n=1500, seed=5)
        masks = line_order_cache(lines).miss_masks(
            [(n_sets, 1), (n_sets, 2), (n_sets, 4)]
        )
        for (sets, ways), mask in masks.items():
            expected = _sequential_mask(lines, sets, ways)
            assert np.array_equal(mask, expected), ways


class TestMultiGeometryMasks:
    """miss_masks(): many geometries priced from shared stack distances."""

    def shapes(self):
        # Direct-mapped, set-associative (several ways per set count),
        # and fully-associative shapes, deliberately mixed.
        return [(64, 1), (64, 2), (64, 4), (32, 1), (16, 8), (256, 0)]

    def test_matches_single_shape_masks(self):
        from repro.caches.vectorized import clear_order_caches, line_order_cache

        clear_order_caches()
        lines = _random_lines()
        masks = line_order_cache(lines).miss_masks(self.shapes())
        assert set(masks) == set(self.shapes())
        for shape, mask in masks.items():
            n_sets, ways = shape
            # The single-shape calls read the same memo; start each
            # from an empty one so it computes its own mask.
            clear_order_caches()
            expected = (
                miss_mask_fully_associative(lines, n_sets)
                if ways == 0
                else miss_mask_set_associative(lines, n_sets, ways)
            )
            assert np.array_equal(mask, expected), shape

    def test_masks_land_in_the_memo(self):
        from repro.caches.vectorized import clear_order_caches, line_order_cache

        clear_order_caches()
        lines = _random_lines(seed=3)
        cache = line_order_cache(lines)
        batched = cache.miss_masks(self.shapes())
        for shape, mask in batched.items():
            assert cache.miss_mask(*shape) is mask

    def test_empty_stream(self):
        from repro.caches.vectorized import clear_order_caches, line_order_cache

        clear_order_caches()
        lines = np.array([], dtype=np.uint64)
        masks = line_order_cache(lines).miss_masks([(8, 1), (4, 2)])
        assert all(mask.shape == (0,) for mask in masks.values())

    def test_eviction_counter_exposed(self):
        from repro.caches.vectorized import (
            _ORDER_CACHE_MAX_BYTES,
            clear_order_caches,
            configure_order_cache,
            line_order_cache,
            order_cache_stats,
        )

        clear_order_caches()
        assert order_cache_stats()["evictions"] == 0
        # Live streams, so only the byte budget can evict them.
        arrays = [_random_lines(n=512, seed=100 + i) for i in range(6)]
        configure_order_cache(max_bytes=8_000)
        try:
            for lines in arrays:
                line_order_cache(lines).stack_distances(1)
            stats = order_cache_stats()
        finally:
            configure_order_cache(max_bytes=_ORDER_CACHE_MAX_BYTES)
        assert stats["evictions"] >= 3
        assert set(stats) == {"entries", "bytes", "evictions", "max_bytes"}
        clear_order_caches()
        assert order_cache_stats()["evictions"] == 0
