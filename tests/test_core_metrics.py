"""Unit tests for MPI measurement with warmup handling."""

import numpy as np
import pytest

from repro.caches.base import CacheGeometry
from repro.core.metrics import (
    MpiMeasurement,
    measure_mpi,
    measure_mpi_lines,
    measure_three_cs,
    warmup_cut,
)
from repro.trace.rle import LineRuns, to_line_runs


def _runs(addresses, line_size=32):
    return to_line_runs(np.asarray(addresses, dtype=np.uint64), line_size)


class TestWarmupCut:
    def test_zero_warmup(self):
        runs = _runs([0, 32, 64])
        cut, measured = warmup_cut(runs, 0.0)
        assert cut == 0
        assert measured == 3

    def test_half(self):
        runs = _runs([i * 32 for i in range(10)])
        cut, measured = warmup_cut(runs, 0.5)
        assert cut == 5
        assert measured == 5

    def test_weighted_runs(self):
        # Runs carrying different instruction counts: the cut respects
        # instructions, not run count.
        runs = LineRuns(
            lines=np.array([0, 1, 2], dtype=np.uint64),
            counts=np.array([80, 10, 10], dtype=np.int64),
            first_offsets=np.zeros(3, dtype=np.int64),
            line_size=32,
        )
        cut, measured = warmup_cut(runs, 0.5)
        assert cut == 1  # the 80-instruction run covers the warmup
        assert measured == 20

    def test_never_cuts_everything(self):
        runs = _runs([0])
        cut, measured = warmup_cut(runs, 0.9)
        assert cut == 0 or measured > 0

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            warmup_cut(_runs([0]), 1.0)


class TestMeasureMpi:
    def test_basic(self):
        geometry = CacheGeometry(1024, 32, 1)
        result = measure_mpi(_runs([0, 32, 0, 32]), geometry, 0.0)
        assert result.misses == 2
        assert result.instructions == 4
        assert result.mpi == pytest.approx(0.5)
        assert result.mpi_per_100 == pytest.approx(50.0)

    def test_cpi_contribution(self):
        measurement = MpiMeasurement(misses=10, instructions=1000)
        assert measurement.cpi_contribution(7) == pytest.approx(0.07)

    def test_warmup_excludes_cold_misses(self):
        geometry = CacheGeometry(1024, 32, 1)
        # Touch 8 lines, then loop over them (all hits).
        addresses = [i * 32 for i in range(8)] + [i * 32 for i in range(8)] * 4
        no_warmup = measure_mpi(_runs(addresses), geometry, 0.0)
        warm = measure_mpi(_runs(addresses), geometry, 0.3)
        assert no_warmup.misses == 8
        assert warm.misses == 0

    def test_coarser_geometry_allowed(self):
        runs = _runs([0, 16, 32, 48], line_size=16)
        geometry = CacheGeometry(1024, 32, 1)
        result = measure_mpi(runs, geometry, 0.0)
        assert result.misses == 2  # two 32-byte lines

    def test_finer_geometry_rejected(self):
        runs = _runs([0], line_size=32)
        with pytest.raises(ValueError):
            measure_mpi(runs, CacheGeometry(1024, 16, 1), 0.0)

    def test_empty_measurement(self):
        measurement = MpiMeasurement(misses=0, instructions=0)
        assert measurement.mpi == 0.0


class TestMeasureMpiLines:
    def test_per_reference_default(self):
        geometry = CacheGeometry(1024, 32, 1)
        lines = np.array([0, 1, 0, 1], dtype=np.uint64)
        result = measure_mpi_lines(lines, geometry, 32, warmup_fraction=0.0)
        assert result.misses == 2
        assert result.instructions == 4

    def test_with_counts(self):
        geometry = CacheGeometry(1024, 32, 1)
        lines = np.array([0, 1], dtype=np.uint64)
        counts = np.array([10, 90], dtype=np.int64)
        result = measure_mpi_lines(
            lines, geometry, 32, instruction_counts=counts, warmup_fraction=0.0
        )
        assert result.instructions == 100


class TestMeasureThreeCs:
    def test_components_match_plain_measurement(self, medium_trace):
        geometry = CacheGeometry(8192, 32, 1)
        runs = to_line_runs(medium_trace.ifetch_addresses(), 32)
        breakdown, instructions = measure_three_cs(runs, geometry, 0.3)
        plain = measure_mpi(runs, geometry, 0.3)
        assert instructions == plain.instructions
        assert breakdown.total == pytest.approx(plain.misses, abs=plain.misses * 0.02)

    def test_associativity_removes_conflicts(self, medium_trace):
        runs = to_line_runs(medium_trace.ifetch_addresses(), 32)
        dm, _ = measure_three_cs(runs, CacheGeometry(8192, 32, 1), 0.3)
        eight, _ = measure_three_cs(runs, CacheGeometry(8192, 32, 8), 0.3)
        assert eight.conflict == 0
        assert dm.conflict > 0


class TestWarmupCutMemo:
    def test_second_call_is_a_memo_hit(self, monkeypatch):
        from repro.caches.vectorized import line_order_cache
        from repro.core import metrics

        runs = _runs([i * 32 for i in range(10)])
        first = warmup_cut(runs, 0.5)
        assert ("warmup-cut", 0.5) in line_order_cache(runs.lines)._memo

        def recompute(*args):
            raise AssertionError("warmup_cut recomputed a memoized cut")

        monkeypatch.setattr(metrics, "_warmup_cut_compute", recompute)
        assert warmup_cut(runs, 0.5) == first == (5, 5)

    def test_memo_is_per_counts_column(self):
        # Two streams over one line array with different counts must not
        # share a memoized cut.
        lines = np.arange(3, dtype=np.uint64)
        zeros = np.zeros(3, np.uint8)
        even = LineRuns(lines, np.array([10, 10, 10]), zeros, 32)
        heavy = LineRuns(lines, np.array([80, 10, 10]), zeros, 32)
        assert warmup_cut(even, 0.5) == (2, 10)
        assert warmup_cut(heavy, 0.5) == (1, 20)
        assert warmup_cut(even, 0.5) == (2, 10)

    def test_cut_past_int32_is_exact(self):
        # Cumulative counts past 2**31 accumulate in int64, not int32.
        big = 2**31 - 1
        runs = LineRuns(
            lines=np.arange(3, dtype=np.uint64),
            counts=np.array([big, big, 5], np.int64),
            first_offsets=np.zeros(3, np.int64),
            line_size=32,
        )
        assert runs.counts.dtype == np.uint32
        assert warmup_cut(runs, 0.0) == (0, 2 * big + 5)
        assert warmup_cut(runs, 0.5) == (2, 5)
        assert warmup_cut(runs, 0.25) == (1, big + 5)
