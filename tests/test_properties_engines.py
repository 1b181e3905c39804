"""Property-based tests on fetch engines and VM mappers."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caches.base import CacheGeometry
from repro.fetch.bypass import PrefetchBypassEngine
from repro.fetch.engine import DemandFetchEngine
from repro.fetch.prefetch import PrefetchOnMissEngine
from repro.fetch.streambuf import StreamBufferEngine
from repro.fetch.timing import MemoryTiming
from repro.trace.rle import to_line_runs
from repro.vm.pagemap import BinHoppingMapper, PageColoringMapper, RandomPageMapper

GEOMETRY = CacheGeometry(1024, 32, 1)

addresses_strategy = st.lists(
    st.integers(min_value=0, max_value=1 << 16), min_size=1, max_size=250
).map(lambda xs: np.array(xs, dtype=np.uint64) * 4)


def _engines(timing):
    yield DemandFetchEngine(GEOMETRY, timing)
    yield PrefetchOnMissEngine(GEOMETRY, timing, n_prefetch=2)
    yield PrefetchBypassEngine(GEOMETRY, timing, n_prefetch=1)
    yield StreamBufferEngine(GEOMETRY, timing, n_lines=2)


class TestEngineInvariants:
    @given(addresses_strategy)
    @settings(max_examples=30, deadline=None)
    def test_stalls_and_misses_non_negative_and_bounded(self, addresses):
        timing = MemoryTiming(latency=6, bytes_per_cycle=16)
        runs = to_line_runs(addresses, 32)
        for engine in _engines(timing):
            result = engine.run(runs, warmup_fraction=0.0)
            assert result.stall_cycles >= 0
            assert 0 <= result.misses <= len(runs)
            assert result.instructions == len(addresses)

    @given(addresses_strategy)
    @settings(max_examples=20, deadline=None)
    def test_demand_cpi_monotone_in_latency(self, addresses):
        runs = to_line_runs(addresses, 32)
        fast = DemandFetchEngine(GEOMETRY, MemoryTiming(3, 16)).run(
            runs, warmup_fraction=0.0
        )
        slow = DemandFetchEngine(GEOMETRY, MemoryTiming(20, 16)).run(
            runs, warmup_fraction=0.0
        )
        assert slow.stall_cycles >= fast.stall_cycles
        assert slow.misses == fast.misses  # timing never changes misses

    @given(addresses_strategy, st.sampled_from([0, 1, 4]))
    @settings(max_examples=20, deadline=None)
    def test_stream_buffer_stalls_bounded_by_demand(self, addresses, n_lines):
        timing = MemoryTiming(6, 32)
        geometry = CacheGeometry(1024, 32, 1)
        runs = to_line_runs(addresses, 32)
        demand = DemandFetchEngine(geometry, timing).run(runs, 0.0)
        buffered = StreamBufferEngine(geometry, timing, n_lines=n_lines).run(
            runs, 0.0
        )
        # Demand pays fill_penalty(32) = 6 per miss; the stream-buffer
        # model pays latency (6) per miss plus flight-wait on hits,
        # which never exceeds the full latency per run.
        assert buffered.stall_cycles <= demand.stall_cycles + len(runs)


class TestMapperProperties:
    @given(st.lists(st.integers(0, 5000), min_size=1, max_size=300),
           st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_random_mapper_is_injective(self, pages, seed):
        mapper = RandomPageMapper(n_frames=1 << 14, seed=seed)
        frames = [mapper.frame_of(p) for p in pages]
        # Same page -> same frame; distinct pages -> distinct frames.
        mapping = dict(zip(pages, frames))
        assert all(mapper.frame_of(p) == f for p, f in mapping.items())
        distinct_pages = set(pages)
        assert len({mapping[p] for p in distinct_pages}) == len(distinct_pages)

    @given(st.lists(st.integers(0, 5000), min_size=1, max_size=300),
           st.sampled_from([2, 4, 16]))
    @settings(max_examples=30, deadline=None)
    def test_coloring_and_binhop_injective(self, pages, n_colors):
        for mapper in (PageColoringMapper(n_colors), BinHoppingMapper(n_colors)):
            frames = {p: mapper.frame_of(p) for p in pages}
            assert len(set(frames.values())) == len(frames)

    @given(st.lists(st.integers(0, 1 << 24), min_size=1, max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_translation_preserves_page_offsets(self, raw):
        addresses = np.array(raw, dtype=np.uint64)
        mapper = RandomPageMapper(seed=1)
        physical = mapper.translate_many(addresses)
        assert np.array_equal(
            physical & np.uint64(4095), addresses & np.uint64(4095)
        )
