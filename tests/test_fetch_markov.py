"""Unit tests for the Markov (miss-correlation) prefetcher."""

import numpy as np
import pytest

from repro.caches.base import CacheGeometry
from repro.fetch.engine import DemandFetchEngine
from repro.fetch.markov import MarkovPrefetchEngine
from repro.fetch.timing import MemoryTiming
from repro.trace.rle import to_line_runs

GEOMETRY = CacheGeometry(1024, 32, 1)
TIMING = MemoryTiming(latency=6, bytes_per_cycle=16)


def _runs(addresses):
    return to_line_runs(np.asarray(addresses, dtype=np.uint64), 32)


class TestMarkovPrefetchEngine:
    def test_learns_repeating_miss_pattern(self):
        engine = MarkovPrefetchEngine(GEOMETRY, TIMING, n_buffers=4)
        # Two conflicting pairs force a repeating miss sequence
        # A -> B -> A -> B...; after one round trip the predictor
        # prefetches the successor.
        stride = 32 * 32
        a, b = 0, stride
        addresses = [a, b] * 30
        result = engine.run(_runs(addresses), warmup_fraction=0.0)
        assert engine.buffer_hits > 0
        demand = DemandFetchEngine(GEOMETRY, TIMING).run(
            _runs(addresses), warmup_fraction=0.0
        )
        assert result.stall_cycles < demand.stall_cycles

    def test_no_predictions_without_history(self):
        engine = MarkovPrefetchEngine(GEOMETRY, TIMING)
        engine.run(_runs([0]), warmup_fraction=0.0)
        assert engine.predictions_made == 0

    def test_hybrid_adds_sequential(self):
        engine = MarkovPrefetchEngine(GEOMETRY, TIMING, hybrid=True)
        engine.run(_runs([0]), warmup_fraction=0.0)
        # With no correlation history, hybrid still prefetches line+1.
        assert engine.predictions_made == 1

    def test_hybrid_helps_on_real_traces(self, medium_trace):
        runs = to_line_runs(medium_trace.ifetch_addresses()[:60_000], 32)
        geometry = CacheGeometry(8192, 32, 1)
        markov = MarkovPrefetchEngine(geometry, TIMING).run(runs)
        hybrid = MarkovPrefetchEngine(geometry, TIMING, hybrid=True).run(runs)
        demand = DemandFetchEngine(geometry, TIMING).run(runs)
        assert markov.stall_cycles < demand.stall_cycles
        assert hybrid.stall_cycles < markov.stall_cycles

    def test_table_is_bounded(self):
        engine = MarkovPrefetchEngine(GEOMETRY, TIMING, table_size=4)
        # A long non-repeating miss stream cannot grow the table past 4.
        addresses = [i * 32 * 32 for i in range(40)]
        engine.run(_runs(addresses), warmup_fraction=0.0)
        assert len(engine._table) <= 4

    def test_buffer_is_bounded(self):
        engine = MarkovPrefetchEngine(GEOMETRY, TIMING, n_buffers=2, hybrid=True)
        addresses = [i * 32 * 32 for i in range(40)]
        engine.run(_runs(addresses), warmup_fraction=0.0)
        assert len(engine._buffer) <= 2

    def test_validation(self):
        with pytest.raises(ValueError):
            MarkovPrefetchEngine(GEOMETRY, TIMING, table_size=0)
        with pytest.raises(ValueError):
            MarkovPrefetchEngine(GEOMETRY, TIMING, n_buffers=0)


class TestMarkovStateMemo:
    @pytest.mark.parametrize("ways", [1, 2])
    def test_memo_holds_narrow_event_columns(self, medium_trace, ways):
        """The memoized replay (direct-mapped and associative) keeps run
        and source indices at the stream's index width and issue slots
        at their narrowest unsigned width; the kernel reads them only
        through ``tolist()``, so the reference engine still agrees."""
        from repro.caches.vectorized import line_order_cache
        from repro.fetch.vectorized import run_vectorized

        runs = to_line_runs(medium_trace.ifetch_addresses()[:60_000], 32)
        geometry = CacheGeometry(8192, 32, ways)
        cache = line_order_cache(runs.lines)
        vectorized = run_vectorized(
            runs, geometry, TIMING, "markov", hybrid=True
        )
        (key,) = [k for k in cache._memo if k[0] == "markov-state"]
        event_run, is_miss, source, offset = cache._memo[key]
        assert (event_run.dtype, is_miss.dtype, source.dtype) == (
            np.int32, np.bool_, np.int32,
        )
        assert offset.dtype == np.min_scalar_type(int(offset.max()))
        assert offset.itemsize == 1
        assert len({len(event_run), len(is_miss), len(source), len(offset)}) == 1
        reference = MarkovPrefetchEngine(geometry, TIMING, hybrid=True).run(runs)
        assert vectorized == reference
