"""The memory footprint of instruction-fetch streams.

A report runs one trace at a time: every report cell reads at most one
trace, and each of its inputs (the trace's columns, each line-run
stream with its miss masks) is primed before its first reader and
freed after its last.  One trace and the width of its streams are
therefore the report's resident memory.
These tests pin both.  At ``--jobs 1`` the in-memory trace cache never
holds more than one trace, and each trace is synthesized once; at
``--jobs 2`` the pool workers prime every trace, so the parent reads
none.  No trace
keeps a copy of its fetch addresses, a line run holds each column at
its narrowest width (``uint32`` line, a count as wide as the longest
run needs, ``uint8`` first offset: 6 bytes at 4 B lines), and the
narrow columns encode exactly what a plain int64 encoding does.  The
LRU miss masks a report computes come from bounded queries, so no
report builds an exact stack-distance array, and one bounded mask
costs a small multiple of its stream.
"""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caches.base import CacheGeometry
from repro.caches import vectorized
from repro.caches.vectorized import (
    LineOrderCache,
    clear_order_caches,
    line_order_cache,
)
from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.common import ExperimentSettings
from repro.fetch.timing import MemoryTiming
from repro.fetch.vectorized import _run_starts, run_vectorized
from repro.plan.compile import compile_report
from repro.plan.executor import run_report
from repro.plan.ir import collect_inputs, dedup_cells, plan_phases
from repro.trace.rle import LineRuns, to_line_runs
from repro.workloads import registry
from repro.workloads.registry import BoundedTraceCache
from tests.test_golden import GOLDEN, digest
from tests.test_golden import SETTINGS as GOLDEN_SETTINGS

REPORT_SETTINGS = ExperimentSettings(n_instructions=5_000, seed=0)


@pytest.fixture(scope="module")
def report_run():
    """What a 5k-instruction ``--jobs 1`` report held, released and
    synthesized.

    Every input is freed after its last reader, so the cache is empty
    afterwards.  The report therefore runs with
    :meth:`BoundedTraceCache.release` (which ``discard`` also goes
    through) wrapped to keep each released trace and stream and record
    the line-order memo keys live at that moment, with
    :meth:`BoundedTraceCache.put` wrapped to record how many traces
    the cache held at once, and with
    :meth:`LineOrderCache.stack_distances` wrapped to record its calls
    (including those on transient streams, such as TLB pages and
    Tapeworm trials, whose memos die before any test looks).
    """
    record = SimpleNamespace(
        traces=[], streams=[], memo_keys=set(), distance_calls=[], held=[],
        stored=[], synthesized=0,
    )
    saved = registry._disk_cache
    registry.set_trace_cache_backend(None)
    registry.clear_trace_cache()
    clear_order_caches()
    exact = LineOrderCache.stack_distances
    release = BoundedTraceCache.release
    put = BoundedTraceCache.put

    def recorded(self, n_sets=1):
        record.distance_calls.append(n_sets)
        return exact(self, n_sets)

    def releasing(self, key, **what):
        record.memo_keys.update(
            memo_key
            for cache in list(vectorized._order_caches.values())
            for memo_key in cache._memo
        )
        trace, streams = release(self, key, **what)
        record.streams.extend(streams)
        if trace is not None:
            record.traces.append(trace)
        return trace, streams

    def storing(self, key, trace):
        put(self, key, trace)
        record.stored.append(key)
        record.held.append(len(self))

    def counted(event):
        if event == registry.TRACE_CACHE_SYNTHESIZED:
            record.synthesized += 1

    LineOrderCache.stack_distances = recorded
    BoundedTraceCache.release = releasing
    BoundedTraceCache.put = storing
    registry.add_trace_cache_observer(counted)
    try:
        run_report(dict(ALL_EXPERIMENTS), REPORT_SETTINGS, jobs=1)
        record.left_cached = len(registry._trace_cache)
    finally:
        LineOrderCache.stack_distances = exact
        BoundedTraceCache.release = release
        BoundedTraceCache.put = put
        registry.remove_trace_cache_observer(counted)
    yield record
    registry._disk_cache = saved
    registry.clear_trace_cache()


@pytest.fixture(scope="module")
def report_traces(report_run):
    """Every trace the report released, in release order."""
    return report_run.traces


def _report_phases():
    """Each phase's trace set, as the report plan splits it at jobs=1."""
    plan = compile_report(dict(ALL_EXPERIMENTS), REPORT_SETTINGS)
    unique, _ = dedup_cells(plan.cells)
    return [
        set(collect_inputs([unique[index] for index in members]).traces)
        for members in plan_phases(unique)
    ]


def test_report_builds_no_exact_stack_distances(report_run, report_traces):
    assert report_traces
    assert report_run.distance_calls == []
    memo_keys = report_run.memo_keys
    assert any(key[0] == "miss-mask" for key in memo_keys)
    assert not any(key[0] == "stack-distances" for key in memo_keys)


def test_report_holds_at_most_one_phase_of_traces(report_run):
    # Every phase is one trace, so the cache never holds two.
    assert max(len(traces) for traces in _report_phases()) == 1
    assert max(report_run.held) == 1
    # Every phase released what it primed.
    assert report_run.left_cached == 0
    assert len(report_run.traces) == len(report_run.stored)


def test_report_synthesizes_each_trace_once(report_run):
    distinct = set().union(*_report_phases())
    assert report_run.synthesized == len(distinct)
    assert len(report_run.stored) == len(set(report_run.stored))
    assert set(report_run.stored) == {
        (key.workload, key.os_name, key.n_instructions, key.seed)
        for key in distinct
    }


def test_pooled_report_reads_no_trace_in_the_parent():
    """At ``--jobs 2`` the workers prime every trace; the parent only
    merges and renders, and the renderings are the golden bytes."""
    events: list = []
    saved = registry._disk_cache
    registry.set_trace_cache_backend(None)
    registry.clear_trace_cache()
    registry.add_trace_cache_observer(events.append)
    try:
        planned, timing = run_report(
            dict(ALL_EXPERIMENTS), GOLDEN_SETTINGS, jobs=2
        )
    finally:
        registry.remove_trace_cache_observer(events.append)
        registry._disk_cache = saved
    assert events == []
    assert len(registry._trace_cache) == 0
    assert timing["plan"]["inputs_primed"] == timing["plan"]["inputs_total"]
    assert [(name, digest(text)) for name, text in planned] == [
        (name, GOLDEN[name]) for name in ALL_EXPERIMENTS
    ]


def test_bounded_mask_peak_memory_is_a_small_multiple_of_its_stream():
    # 100k references over 5,000 lines at a 64-line bound: nearly every
    # repeat has a long gap, so the scan does its most work.  Measured
    # peak: 4.0x the stream's bytes (the exact-distance kernel this
    # replaced peaked at 15.4x); the bound leaves 50% headroom.
    lines = np.random.default_rng(1).integers(0, 5000, 100_000)
    lines = lines.astype(np.uint64)
    clear_order_caches()
    tracemalloc.start()
    try:
        mask = line_order_cache(lines).miss_mask(64, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert mask.shape == lines.shape and mask.any()
    assert peak <= 6 * lines.nbytes, peak / lines.nbytes


def test_no_trace_memoizes_its_fetch_addresses(report_traces):
    assert report_traces
    for trace in report_traces:
        assert "ifetch_addresses" not in trace._cache
        assert not any(
            isinstance(value, np.ndarray) and value.dtype == np.uint64
            for value in trace._cache.values()
        )


def test_memoized_line_runs_hold_their_narrowest_widths(report_run):
    # Every report stream is a 32-bit address space's, at 4-256 B lines:
    # uint32 lines, counts at the width of the longest run, uint8 first
    # offsets.  A 4 B stream's runs are single references: 6 bytes each.
    memoized = report_run.streams
    assert memoized
    assert all(isinstance(runs, LineRuns) for runs in memoized)
    assert {runs.line_size for runs in memoized} >= {4, 32}
    for runs in memoized:
        assert runs.lines.dtype == np.uint32, runs.line_size
        longest = int(runs.counts.max())
        assert runs.counts.dtype == np.min_scalar_type(longest)
        assert runs.first_offsets.dtype == np.uint8
        held = runs.lines.nbytes + runs.counts.nbytes + runs.first_offsets.nbytes
        assert held == (5 + runs.counts.itemsize) * len(runs), runs.line_size
        if runs.line_size == 4:
            assert held == 6 * len(runs)


def _plain_encoding(addresses: list[int], line_size: int):
    """Run-length encoding in Python integers, one reference at a time."""
    shift = line_size.bit_length() - 1
    lines, counts, offsets = [], [], []
    for address in addresses:
        line = address >> shift
        if lines and lines[-1] == line:
            counts[-1] += 1
        else:
            lines.append(line)
            counts.append(1)
            offsets.append(address & (line_size - 1))
    return lines, counts, offsets


# Sequential segments (4-byte instructions from an arbitrary start), the
# shape of real fetch streams, over the whole uint64 address space.
_segments = st.lists(
    st.tuples(st.integers(0, 2**64 - 2**12), st.integers(1, 300)),
    max_size=12,
)


@given(segments=_segments, log_line=st.integers(2, 9))
@settings(max_examples=80, deadline=None)
def test_to_line_runs_matches_plain_int64_encoding(segments, log_line):
    line_size = 1 << log_line
    addresses = [
        start + 4 * i for start, length in segments for i in range(length)
    ]
    runs = to_line_runs(np.array(addresses, dtype=np.uint64), line_size)
    lines, counts, offsets = _plain_encoding(addresses, line_size)
    assert runs.lines.tolist() == lines
    assert runs.counts.tolist() == counts
    assert runs.first_offsets.tolist() == offsets
    assert runs.total_references == len(addresses)
    assert runs.first_offsets.dtype == (np.uint8 if line_size <= 256 else np.uint16)


def test_run_starts_accumulate_past_int32():
    big = 2**31 - 1
    runs = LineRuns(
        lines=np.arange(3, dtype=np.uint64),
        counts=np.array([big, big, 5]),
        first_offsets=np.zeros(3, np.uint8),
        line_size=32,
    )
    assert _run_starts(runs).tolist() == [0, big, 2 * big]


def test_miss_positions_are_memoized_at_index_width():
    addresses = np.random.default_rng(4).integers(0, 1 << 16, 4000) * 4
    runs = to_line_runs(addresses.astype(np.uint64), 32)
    run_vectorized(
        runs, CacheGeometry(1024, 32, 1), MemoryTiming(6, 8), "stream-buffer"
    )
    positions = [
        value
        for key, value in line_order_cache(runs.lines)._memo.items()
        if key[0] == "nz"
    ]
    assert positions
    assert all(value.dtype == np.int32 for value in positions)
