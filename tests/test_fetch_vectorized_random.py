"""Randomized differential sweep: vectorized kernels vs reference engines.

The structured grid in ``test_fetch_vectorized.py`` pins the paper's
combinations; this file attacks the kernels with *randomized* streams
and randomly drawn (geometry, mechanism, options, timing, warmup)
points, plus targeted parametrized sweeps over the corners that only
gained kernels late: associative ``prefetch+bypass``, wrap-around
bursts (``n_sets <= n_prefetch``), stream buffers whose line size is
not the transfer width, victim caches, and markov prefetching.  Every
point must match the reference engine bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caches.base import CacheGeometry
from repro.core.config import MemorySystemConfig
from repro.core.study import make_engine
from repro.fetch import MemoryTiming, run_vectorized
from repro.fetch.vectorized import (
    _demand_mask,
    _prefetch_mask,
    _prefetch_mask_compute,
)
from repro.trace.rle import to_line_runs

LINE_SIZE = 32

GEOMETRIES = (
    CacheGeometry(1024, LINE_SIZE, 1),   # 32 sets, direct-mapped
    CacheGeometry(2048, LINE_SIZE, 2),
    CacheGeometry(4096, LINE_SIZE, 4),
    CacheGeometry(1024, LINE_SIZE, 0),   # fully associative
    CacheGeometry(128, LINE_SIZE, 1),    # 4 sets — wrap-around territory
)

TIMINGS = (
    MemoryTiming(latency=30, bytes_per_cycle=4),
    MemoryTiming(latency=12, bytes_per_cycle=8),
    MemoryTiming(latency=6, bytes_per_cycle=16),
    MemoryTiming(latency=6, bytes_per_cycle=32),
    MemoryTiming(latency=8, bytes_per_cycle=64),
)


def synthetic_runs(seed: int, n: int = 3000, n_lines: int = 80):
    """A random instruction stream with loop-like locality.

    Mostly sequential fetch with occasional jumps into a bounded code
    footprint — enough structure for hits, evictions, prefetch reuse,
    and buffer wrap-around to all occur.
    """
    rng = np.random.default_rng(seed)
    footprint = n_lines * LINE_SIZE
    addresses = np.empty(n, dtype=np.uint64)
    pc = int(rng.integers(0, n_lines)) * LINE_SIZE
    jumps = rng.random(n) < 0.12
    targets = rng.integers(0, footprint // 4, size=n) * 4
    for i in range(n):
        pc = int(targets[i]) if jumps[i] else (pc + 4) % footprint
        addresses[i] = pc
    return to_line_runs(addresses, LINE_SIZE)


def assert_point_identical(runs, geometry, timing, mechanism,
                           warmup=0.3, **options):
    config = MemorySystemConfig(name="rand", l1=geometry, memory=timing)
    ref = make_engine(config, mechanism, **options).run(runs, warmup)
    vec = run_vectorized(runs, geometry, timing, mechanism, warmup, **options)
    assert (vec.instructions, vec.stall_cycles, vec.misses) == (
        ref.instructions, ref.stall_cycles, ref.misses,
    ), (mechanism, geometry, timing, options, warmup)


def draw_point(rng):
    """One random (geometry, timing, mechanism, options, warmup) point."""
    mechanism = rng.choice(
        ["demand", "prefetch", "tagged", "prefetch+bypass",
         "stream-buffer", "victim", "markov"]
    )
    geometry = GEOMETRIES[rng.integers(len(GEOMETRIES))]
    if mechanism == "victim":
        # The engine only accepts a direct-mapped primary.
        geometry = GEOMETRIES[0] if rng.random() < 0.5 else GEOMETRIES[-1]
    timing = TIMINGS[rng.integers(len(TIMINGS))]
    warmup = float(rng.choice([0.0, 0.25, 0.3, 0.6]))
    options = {}
    if mechanism in ("prefetch", "prefetch+bypass"):
        options["n_prefetch"] = int(rng.integers(0, 6))
    elif mechanism == "stream-buffer":
        options["n_lines"] = int(rng.integers(0, 7))
        if rng.random() < 0.4:
            options["refill_on_use"] = True
        if rng.random() < 0.4:
            options["move_penalty"] = int(rng.integers(0, 3))
    elif mechanism == "victim":
        options["n_victims"] = int(rng.integers(1, 9))
        options["swap_penalty"] = int(rng.integers(0, 3))
    elif mechanism == "markov":
        options["table_size"] = int(rng.choice([16, 64, 1024]))
        options["n_buffers"] = int(rng.integers(1, 5))
        options["hybrid"] = bool(rng.random() < 0.5)
    return geometry, timing, mechanism, options, warmup


@pytest.mark.parametrize("stream_seed", (11, 23, 47))
def test_randomized_points(stream_seed):
    runs = synthetic_runs(stream_seed)
    rng = np.random.default_rng(1000 + stream_seed)
    for _ in range(40):
        geometry, timing, mechanism, options, warmup = draw_point(rng)
        assert_point_identical(
            runs, geometry, timing, mechanism, warmup, **options
        )


class TestFormerlyUncoveredCorners:
    """The combinations that only recently gained closed-form kernels."""

    @pytest.fixture(scope="class")
    def runs(self):
        return synthetic_runs(5)

    @pytest.mark.parametrize("associativity", (2, 4, 0))
    @pytest.mark.parametrize("n_prefetch", (1, 3))
    def test_bypass_on_associative_geometries(
        self, runs, associativity, n_prefetch
    ):
        geometry = CacheGeometry(2048, LINE_SIZE, associativity)
        for timing in (TIMINGS[0], TIMINGS[2]):
            assert_point_identical(
                runs, geometry, timing, "prefetch+bypass",
                n_prefetch=n_prefetch,
            )

    @pytest.mark.parametrize("n_prefetch", (4, 5, 9))
    def test_bypass_wraps_around_tiny_caches(self, runs, n_prefetch):
        # 4 sets <= n_prefetch: the prefetch burst wraps and evicts the
        # lines it just installed — the order-sensitive case.
        geometry = CacheGeometry(128, LINE_SIZE, 1)
        assert_point_identical(
            runs, geometry, TIMINGS[2], "prefetch+bypass",
            n_prefetch=n_prefetch,
        )

    @pytest.mark.parametrize("timing", TIMINGS)
    def test_stream_buffer_any_transfer_width(self, runs, timing):
        # Narrower and wider than the 32 B line both included.
        geometry = CacheGeometry(1024, LINE_SIZE, 1)
        assert_point_identical(runs, geometry, timing, "stream-buffer",
                               n_lines=4)
        assert_point_identical(runs, geometry, timing, "stream-buffer",
                               n_lines=3, refill_on_use=True)

    @pytest.mark.parametrize("n_victims", (1, 4, 8))
    @pytest.mark.parametrize("swap_penalty", (0, 2))
    def test_victim_cache(self, runs, n_victims, swap_penalty):
        geometry = CacheGeometry(1024, LINE_SIZE, 1)
        assert_point_identical(
            runs, geometry, TIMINGS[1], "victim",
            n_victims=n_victims, swap_penalty=swap_penalty,
        )

    @pytest.mark.parametrize("hybrid", (False, True))
    @pytest.mark.parametrize("table_size", (16, 256))
    def test_markov_prefetch(self, runs, hybrid, table_size):
        # The tiny table forces correlation-table evictions.
        for geometry in (GEOMETRIES[0], GEOMETRIES[1]):
            assert_point_identical(
                runs, geometry, TIMINGS[0], "markov",
                table_size=table_size, n_buffers=2, hybrid=hybrid,
            )


class TestDepthZeroPrefetchMask:
    """Depth 0 installs nothing, so the prefetch replay is plain LRU:
    ``_prefetch_mask`` returns the memoized demand mask, and the
    per-reference replay it skips stays the oracle."""

    @settings(max_examples=150, deadline=None)
    @given(
        lines=st.lists(st.integers(0, 95), max_size=400),
        size_log2=st.integers(6, 12),
        associativity=st.sampled_from((0, 1, 2, 4, 8)),
    )
    def test_matches_the_replay(self, lines, size_log2, associativity):
        size = 1 << size_log2
        if size // LINE_SIZE < max(associativity, 1):
            associativity = 0  # fewer lines than ways: fully associative
        geometry = CacheGeometry(size, LINE_SIZE, associativity)
        addresses = np.array(lines, dtype=np.uint64) * LINE_SIZE
        runs = to_line_runs(addresses, LINE_SIZE)
        oracle = _prefetch_mask_compute(
            np.asarray(runs.lines), geometry.n_sets, geometry.ways, 0
        )
        mask = _prefetch_mask(runs, geometry, 0)
        assert np.array_equal(mask, oracle)
        assert mask is _demand_mask(runs, geometry)

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_depth_zero_bypass_matches_reference(self, geometry):
        runs = synthetic_runs(seed=17)
        for timing in TIMINGS[:3]:
            assert_point_identical(
                runs, geometry, timing, "prefetch+bypass", n_prefetch=0
            )
