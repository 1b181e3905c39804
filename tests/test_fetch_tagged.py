"""Unit tests for tagged sequential prefetch (Smith78)."""

import numpy as np
import pytest

from repro.caches.base import CacheGeometry
from repro.fetch.engine import DemandFetchEngine
from repro.fetch.prefetch import PrefetchOnMissEngine, TaggedPrefetchEngine
from repro.fetch.timing import MemoryTiming
from repro.trace.rle import to_line_runs

GEOMETRY = CacheGeometry(1024, 32, 1)
TIMING = MemoryTiming(latency=6, bytes_per_cycle=16)  # 7 cycles per line


def _runs(addresses):
    return to_line_runs(np.asarray(addresses, dtype=np.uint64), 32)


class TestTaggedPrefetch:
    def test_long_sequential_walk_one_demand_miss(self):
        engine = TaggedPrefetchEngine(GEOMETRY, TIMING)
        addresses = list(range(0, 32 * 8, 4))  # 8 lines, sequential
        result = engine.run(_runs(addresses), warmup_fraction=0.0)
        assert result.misses == 1  # only the cold start
        assert engine.prefetches_issued >= 7

    def test_sequential_walk_cheaper_than_demand(self, medium_trace):
        runs = to_line_runs(medium_trace.ifetch_addresses()[:60_000], 32)
        geometry = CacheGeometry(8192, 32, 1)
        demand = DemandFetchEngine(geometry, TIMING).run(runs)
        tagged = TaggedPrefetchEngine(geometry, TIMING).run(runs)
        assert tagged.stall_cycles < demand.stall_cycles

    def test_tagged_vs_prefetch_on_miss(self, medium_trace):
        """Smith's classic result: tagged prefetch covers strictly more
        of a sequential stream than prefetch-on-miss at depth 1."""
        runs = to_line_runs(medium_trace.ifetch_addresses()[:60_000], 32)
        geometry = CacheGeometry(8192, 32, 1)
        on_miss = PrefetchOnMissEngine(geometry, TIMING, n_prefetch=1).run(runs)
        tagged = TaggedPrefetchEngine(geometry, TIMING).run(runs)
        assert tagged.misses <= on_miss.misses

    def test_flight_time_charged_when_consumed_early(self):
        engine = TaggedPrefetchEngine(GEOMETRY, TIMING)
        # Touch line 0 (miss, prefetch line 1 arriving 7 cycles later),
        # then jump straight to line 1 after a single instruction.
        result = engine.run(_runs([0, 32]), warmup_fraction=0.0)
        # Miss: 7 stall.  Line 1's fill started at t=7, completes t=14;
        # the fetch of line 1 happens at t=8 -> waits 6.
        assert result.stall_cycles == 7 + 6
        assert result.misses == 1

    def test_prefetch_not_reissued_for_resident_lines(self):
        engine = TaggedPrefetchEngine(GEOMETRY, TIMING)
        engine.run(_runs([0, 0, 0]), warmup_fraction=0.0)
        issued_once = engine.prefetches_issued
        assert issued_once == 1  # line 1, exactly once


class TestTaggedStateMemo:
    def test_memo_charges_every_column(self, medium_trace):
        """The memoized replay is numpy columns, so the memo's byte
        accounting sees all of it (lists would be charged nothing)."""
        from repro.caches.vectorized import line_order_cache
        from repro.fetch.vectorized import run_vectorized

        runs = to_line_runs(medium_trace.ifetch_addresses()[:60_000], 32)
        geometry = CacheGeometry(8192, 32, 1)
        cache = line_order_cache(runs.lines)
        assert cache.memo_bytes == 0
        vectorized = run_vectorized(runs, geometry, TIMING, "tagged")
        columns = cache._memo[("tagged-state", geometry.n_sets, 1)]
        # Run indices at the stream's index width (int32 below 2**31).
        assert [c.dtype for c in columns] == [
            np.int32, np.bool_, np.int32, np.bool_,
        ]
        assert len({len(c) for c in columns}) == 1
        assert cache.memo_bytes == sum(c.nbytes for c in columns)
        reference = TaggedPrefetchEngine(geometry, TIMING).run(runs)
        assert vectorized == reference
