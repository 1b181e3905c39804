"""Line-run streams are held at their narrowest width, and every kernel
reads them at that width.

A 32-bit address space's stream holds ``uint32`` lines and counts as
wide as its longest run.  Numpy arithmetic on a narrow column stays
narrow and can wrap, so every fetch mechanism and every mask kernel
must answer a narrow stream exactly as it answers the same stream with
``uint64`` lines and ``int64`` counts, and the line-order memo must
register and share a ``uint32`` stream as it does a ``uint64`` one.  A
stream whose line numbers pass 32 bits stays ``uint64``; lifting a
narrow stream by ``2**33`` lines changes no set index and no line
distance, so that wide stream must give the same answers too.
"""

import tracemalloc

import numpy as np
import pytest

from repro.caches.base import CacheGeometry
from repro.caches.vectorized import (
    clear_order_caches,
    compulsory_mask,
    line_order_cache,
    miss_mask_direct_mapped,
    order_cache_stats,
)
from repro.core.config import MemorySystemConfig
from repro.core.study import make_engine
from repro.fetch import HIGH_PERF_MEMORY, L1_L2_INTERFACE, run_vectorized
from repro.plan.inputs import prime_miss_masks
from repro.trace.rle import LineRuns, to_line_runs

#: Lines added to a stream to push it past 32 bits; a multiple of every
#: set count here, so no set index moves.
LIFT = 2**33

#: (mechanism, geometry, options): every mechanism, and each kernel
#: path (sparse and replayed bypass).  Each case carries a fixed id, so
#: retiring one renames no other.
CASES = [
    pytest.param("demand", CacheGeometry(8192, 32, 1), {}, id="demand-1way-0"),
    pytest.param("demand", CacheGeometry(4096, 32, 0), {}, id="demand-0way-1"),
    pytest.param(
        "prefetch", CacheGeometry(8192, 32, 2), {"n_prefetch": 2},
        id="prefetch-2way-2",
    ),
    pytest.param(
        "prefetch+bypass", CacheGeometry(8192, 32, 1), {"n_prefetch": 3},
        id="prefetch+bypass-1way-4",
    ),
    pytest.param(
        "prefetch+bypass", CacheGeometry(8192, 32, 2), {"n_prefetch": 1},
        id="prefetch+bypass-2way-5",
    ),
    pytest.param(
        "stream-buffer", CacheGeometry(8192, 32, 1), {"refill_on_use": True},
        id="stream-buffer-1way-6",
    ),
]

#: (n_sets, associativity) mask shapes: bounded LRU set-associative,
#: fully associative (capacity, 0) and direct-mapped.
SHAPES = [(64, 2), (128, 4), (256, 0), (512, 1)]


def _widened(runs: LineRuns) -> LineRuns:
    """``runs`` with ``uint64`` lines and ``int64`` counts.

    ``LineRuns`` narrows whatever it is given, so the twin's columns
    are set after construction.
    """
    twin = LineRuns(runs.lines, runs.counts, runs.first_offsets, runs.line_size)
    object.__setattr__(twin, "lines", runs.lines.astype(np.uint64))
    object.__setattr__(twin, "counts", runs.counts.astype(np.int64))
    return twin


def _lifted(runs: LineRuns) -> LineRuns:
    """``runs`` moved ``LIFT`` lines up: a wide stream, built as any is."""
    lines = runs.lines.astype(np.uint64) + np.uint64(LIFT)
    return LineRuns(lines, runs.counts, runs.first_offsets, runs.line_size)


@pytest.fixture(scope="module")
def streams(small_trace):
    runs = to_line_runs(small_trace.ifetch_addresses(), 32)
    return runs, _widened(runs), _lifted(runs)


def test_streams_are_held_at_their_widths(streams):
    narrow, twin, wide = streams
    assert narrow.lines.dtype == np.uint32
    assert narrow.counts.dtype == np.min_scalar_type(int(narrow.counts.max()))
    assert narrow.counts.itemsize < 4
    assert (twin.lines.dtype, twin.counts.dtype) == (np.uint64, np.int64)
    assert wide.lines.dtype == np.uint64
    assert wide.counts.dtype == narrow.counts.dtype


@pytest.mark.parametrize("mechanism, geometry, options", CASES)
def test_every_mechanism_ignores_the_width(streams, mechanism, geometry, options):
    narrow, twin, wide = streams
    assert narrow.lines.dtype == np.uint32
    results = []
    for runs in (narrow, twin, wide):
        for timing in (HIGH_PERF_MEMORY, L1_L2_INTERFACE):
            results.append(
                run_vectorized(runs, geometry, timing, mechanism, 0.2, **options)
            )
    assert results[2:4] == results[:2]
    assert results[4:6] == results[:2]
    # The reference engine stays the oracle, on the narrow stream and on
    # the wide one.
    for runs in (narrow, wide):
        config = MemorySystemConfig(
            name="widths", l1=geometry, memory=HIGH_PERF_MEMORY
        )
        engine = make_engine(config, mechanism, **options)
        assert engine.run(runs, 0.2) == results[0]


@pytest.mark.parametrize("line_size", [4, 32])
def test_every_mask_kernel_ignores_the_width(small_trace, line_size):
    runs = to_line_runs(small_trace.ifetch_addresses(), line_size)
    narrow = runs.lines
    assert narrow.dtype == np.uint32
    twin = narrow.astype(np.uint64)
    wide = twin + np.uint64(LIFT)
    masks = {}
    for name, lines in (("narrow", narrow), ("twin", twin), ("wide", wide)):
        cache = line_order_cache(lines)
        coarse = cache.coarsened(3)
        assert coarse.dtype == lines.dtype
        masks[name] = (
            cache.miss_masks(SHAPES),
            miss_mask_direct_mapped(lines, 256),
            compulsory_mask(lines),
            line_order_cache(coarse).miss_masks(SHAPES),
            compulsory_mask(coarse),
        )
    for name in ("twin", "wide"):
        for ours, theirs in zip(masks["narrow"], masks[name]):
            if isinstance(ours, dict):
                assert ours.keys() == theirs.keys()
                for shape in ours:
                    assert np.array_equal(ours[shape], theirs[shape]), shape
            else:
                assert np.array_equal(ours, theirs)
    assert np.array_equal(
        line_order_cache(narrow).coarsened(3), twin >> np.uint64(3)
    )
    # The exact stack distances stay the bounded masks' oracle.
    cache = line_order_cache(narrow)
    for n_sets, ways in SHAPES:
        sets, bound = (1, n_sets) if ways == 0 else (n_sets, ways)
        distances = cache.stack_distances(sets)
        expected = (distances < 0) | (distances >= bound)
        assert np.array_equal(cache.miss_mask(n_sets, ways), expected)


def test_uint32_stream_is_registered_and_shared(small_trace):
    clear_order_caches()
    runs = to_line_runs(small_trace.ifetch_addresses(), 32)
    assert runs.lines.dtype == np.uint32
    cache = line_order_cache(runs.lines)
    assert line_order_cache(runs.lines) is cache
    assert order_cache_stats()["entries"] == 1
    mask = cache.miss_mask(128, 2)
    assert line_order_cache(runs.lines).miss_mask(128, 2) is mask
    assert order_cache_stats()["bytes"] == cache.memo_bytes >= mask.nbytes
    coarse = cache.coarsened(1)
    assert coarse.dtype == np.uint32
    assert line_order_cache(coarse) is line_order_cache(coarse)
    assert order_cache_stats()["entries"] == 2
    # A bare uint32 array is registered too.
    lines = np.arange(100, dtype=np.uint32)
    assert line_order_cache(lines) is line_order_cache(lines)
    # The memo lives exactly as long as the stream.
    del runs, cache, mask, coarse, lines
    assert order_cache_stats()["entries"] == 0
    clear_order_caches()


def test_priming_a_narrow_stream_peaks_no_higher_than_its_twin(small_trace):
    runs = to_line_runs(small_trace.ifetch_addresses(), 4)
    assert runs.lines.dtype == np.uint32
    plan = {
        (4, 4): {(256, 1), (512, 2), (1024, 0)},
        (4, 32): {(64, 1), (128, 4), (256, 0)},
    }

    def peak(stream: LineRuns) -> int:
        clear_order_caches()
        tracemalloc.start()
        try:
            prime_miss_masks(lambda line_size: stream, plan)
            _, traced = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            clear_order_caches()
        return traced

    twin = _widened(runs)
    assert peak(runs) <= peak(twin)
