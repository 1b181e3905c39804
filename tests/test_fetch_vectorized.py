"""Differential tests: vectorized fetch kernels vs the reference engines.

The contract under test is exact: for every covered (mechanism, timing,
geometry, options) combination, :func:`repro.fetch.run_vectorized` must
return the same ``(instructions, stall_cycles, misses)`` as stepping the
reference engine over the same stream — not approximately, bit for bit.
That is what lets ``engine="auto"`` route the paper sweeps through the
kernels without changing a single rendered digit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.caches.base import CacheGeometry
from repro.core.config import MemorySystemConfig
from repro.core.study import (
    ENGINES,
    MECHANISMS,
    evaluate_trace,
    fetch_result,
    make_engine,
)
from repro.experiments import figure6, figure7, table6
from repro.experiments.common import (
    ExperimentSettings,
    fetch_cells,
    fetch_point,
    fetch_values,
    trace_fetch_cpi,
)
from repro.fetch import (
    ECONOMY_MEMORY,
    HIGH_PERF_MEMORY,
    L1_L2_INTERFACE,
    MemoryTiming,
    run_vectorized,
    supports,
    unsupported_reason,
)
from repro.fetch.vectorized import _MECHANISM_OPTIONS
from repro.trace.rle import LineRuns, to_line_runs
from repro.workloads.registry import get_trace, suite_workloads

TIMINGS = (
    ECONOMY_MEMORY,                        # 30 cyc, 4 B/cyc
    HIGH_PERF_MEMORY,                      # 12 cyc, 8 B/cyc
    L1_L2_INTERFACE,                       # 6 cyc, 16 B/cyc
    MemoryTiming(latency=6, bytes_per_cycle=32),
    MemoryTiming(latency=8, bytes_per_cycle=64),
)

GEOMETRIES = (
    CacheGeometry(8192, 32, 1),    # the paper's baseline L1
    CacheGeometry(8192, 32, 2),
    CacheGeometry(16384, 32, 4),
    CacheGeometry(4096, 64, 0),    # fully associative
)

#: Per-mechanism option points exercised by the differential grid.
OPTION_GRID = {
    "demand": ({},),
    "prefetch": ({}, {"n_prefetch": 0}, {"n_prefetch": 3}),
    "prefetch+bypass": ({}, {"n_prefetch": 1}, {"n_prefetch": 3}),
    "stream-buffer": (
        {},
        {"n_lines": 2},
        {"n_lines": 0},
        {"n_lines": 4, "refill_on_use": True},
        {"n_lines": 6, "move_penalty": 1},
    ),
}


def reference_result(runs, geometry, timing, mechanism, warmup=0.3, **options):
    config = MemorySystemConfig(name="diff", l1=geometry, memory=timing)
    return make_engine(config, mechanism, **options).run(runs, warmup)


def assert_identical(runs, geometry, timing, mechanism, warmup=0.3, **options):
    ref = reference_result(runs, geometry, timing, mechanism, warmup, **options)
    vec = run_vectorized(
        runs, geometry, timing, mechanism, warmup, **options
    )
    assert (vec.instructions, vec.stall_cycles, vec.misses) == (
        ref.instructions,
        ref.stall_cycles,
        ref.misses,
    ), (mechanism, geometry, timing, options)


@pytest.fixture(scope="module")
def runs_by_line_size(small_trace):
    return {
        line_size: small_trace.ifetch_line_runs(line_size)
        for line_size in {g.line_size for g in GEOMETRIES}
    }


class TestDifferentialGrid:
    """Exact equality over the full supported grid, per mechanism."""

    @pytest.mark.parametrize("mechanism", MECHANISMS)
    def test_matches_reference(self, mechanism, runs_by_line_size):
        covered = 0
        for geometry in GEOMETRIES:
            runs = runs_by_line_size[geometry.line_size]
            for timing in TIMINGS:
                for options in OPTION_GRID[mechanism]:
                    if not supports(geometry, timing, mechanism, options):
                        continue
                    assert_identical(
                        runs, geometry, timing, mechanism, **options
                    )
                    covered += 1
        assert covered > 0, f"grid never exercised {mechanism}"

    @pytest.mark.parametrize("mechanism", MECHANISMS)
    def test_no_warmup(self, mechanism, runs_by_line_size):
        geometry = GEOMETRIES[0]
        runs = runs_by_line_size[geometry.line_size]
        for timing in (ECONOMY_MEMORY, MemoryTiming(6, 32)):
            if not supports(geometry, timing, mechanism):
                continue
            assert_identical(runs, geometry, timing, mechanism, warmup=0.0)


class TestWarmupEdgeCases:
    def empty_runs(self, line_size=32):
        return LineRuns(
            lines=np.array([], dtype=np.uint64),
            counts=np.array([], dtype=np.int64),
            first_offsets=np.array([], dtype=np.int64),
            line_size=line_size,
        )

    @pytest.mark.parametrize("mechanism", MECHANISMS)
    def test_empty_window(self, mechanism):
        geometry = CacheGeometry(1024, 32, 1)
        timing = MemoryTiming(latency=6, bytes_per_cycle=32)
        runs = self.empty_runs()
        vec = run_vectorized(runs, geometry, timing, mechanism)
        assert (vec.instructions, vec.stall_cycles, vec.misses) == (0, 0, 0)
        assert_identical(runs, geometry, timing, mechanism)

    @pytest.mark.parametrize("mechanism", MECHANISMS)
    def test_miss_on_warmup_boundary(self, mechanism):
        # One cache line: every run misses, including the run exactly at
        # the warmup cut.
        geometry = CacheGeometry(32, 32, 1)
        timing = MemoryTiming(latency=5, bytes_per_cycle=32)
        addresses = np.repeat(
            np.array([0, 32, 0, 32, 0, 32], dtype=np.uint64), 4
        )
        runs = to_line_runs(addresses, 32)
        for warmup in (0.0, 0.25, 0.5, 0.75):
            assert_identical(runs, geometry, timing, mechanism, warmup=warmup)

    def test_single_run_stream(self):
        geometry = CacheGeometry(1024, 32, 1)
        timing = ECONOMY_MEMORY
        runs = to_line_runs(np.full(8, 0x1000, dtype=np.uint64), 32)
        for mechanism in ("demand", "prefetch"):
            assert_identical(runs, geometry, timing, mechanism)


class TestSupports:
    GEOMETRY = CacheGeometry(8192, 32, 1)

    def test_whole_grid_covered(self):
        """Every (mechanism, geometry, timing) of the paper grids."""
        assert set(_MECHANISM_OPTIONS) == set(MECHANISMS)
        for mechanism in MECHANISMS:
            for geometry in GEOMETRIES:
                for timing in TIMINGS:
                    assert supports(geometry, timing, mechanism), (
                        mechanism, geometry, timing,
                    )

    def test_formerly_uncovered_corners_now_supported(self):
        # Each of these used to route to the reference engines.
        # Associative prefetch+bypass.
        assert supports(
            CacheGeometry(8192, 32, 2), ECONOMY_MEMORY, "prefetch+bypass"
        )
        # Wrap-around burst: two sets, burst of three lines.
        tiny = CacheGeometry(64, 32, 1)
        assert supports(tiny, ECONOMY_MEMORY, "prefetch+bypass",
                        {"n_prefetch": 2})
        # Stream buffer over a narrower (and a wider) transfer width.
        assert supports(self.GEOMETRY, L1_L2_INTERFACE, "stream-buffer")
        assert supports(self.GEOMETRY, MemoryTiming(8, 64), "stream-buffer")

    def test_unknown_mechanism_refused_with_reason(self):
        assert not supports(self.GEOMETRY, ECONOMY_MEMORY, "no-such-thing")
        reason = unsupported_reason(
            self.GEOMETRY, ECONOMY_MEMORY, "no-such-thing"
        )
        assert "no-such-thing" in reason
        assert "no vectorized kernel" in reason

    def test_unknown_option_defers_to_reference(self):
        assert not supports(
            self.GEOMETRY, ECONOMY_MEMORY, "demand", {"n_prefetch": 1}
        )
        reason = unsupported_reason(
            self.GEOMETRY, ECONOMY_MEMORY, "demand", {"n_prefetch": 1}
        )
        assert "'n_prefetch'" in reason
        assert "'demand'" in reason

    def test_line_size_mismatch_raises(self, runs_by_line_size):
        runs = runs_by_line_size[32]
        with pytest.raises(ValueError, match="32 B lines"):
            run_vectorized(runs, CacheGeometry(4096, 64, 1), ECONOMY_MEMORY)

    def test_unsupported_raise_names_the_combination(self, runs_by_line_size):
        """The forced-engine error identifies mechanism, option, geometry."""
        runs = runs_by_line_size[32]
        with pytest.raises(ValueError) as excinfo:
            run_vectorized(
                runs, self.GEOMETRY, ECONOMY_MEMORY, "demand", n_prefetch=1
            )
        message = str(excinfo.value)
        assert "'demand'" in message
        assert "n_prefetch" in message
        assert self.GEOMETRY.describe() in message
        assert "engine='reference'" in message
        with pytest.raises(ValueError, match="no vectorized kernel"):
            run_vectorized(
                runs, self.GEOMETRY, ECONOMY_MEMORY, "no-such-thing"
            )


class TestEngineKnob:
    """fetch_result's engine dispatch: auto falls back, vectorized raises."""

    CONFIG = MemorySystemConfig(
        name="knob", l1=CacheGeometry(8192, 32, 1), memory=ECONOMY_MEMORY
    )

    def test_engines_tuple(self):
        assert ENGINES == ("auto", "reference", "vectorized")

    def test_unknown_engine_rejected(self, runs_by_line_size):
        with pytest.raises(ValueError, match="unknown engine"):
            fetch_result(runs_by_line_size[32], self.CONFIG, engine="numba")

    def test_explicit_engines_agree(self, runs_by_line_size):
        runs = runs_by_line_size[32]
        for mechanism in MECHANISMS:
            results = [
                fetch_result(runs, self.CONFIG, mechanism, engine=engine)
                for engine in ENGINES
            ]
            assert results[0] == results[1] == results[2], mechanism

    def test_vectorized_runs_formerly_reference_only(self, runs_by_line_size):
        """Associative bypass now runs under engine="vectorized"."""
        runs = runs_by_line_size[32]
        assoc = MemorySystemConfig(
            name="assoc", l1=CacheGeometry(8192, 32, 2), memory=ECONOMY_MEMORY
        )
        forced = fetch_result(
            runs, assoc, "prefetch+bypass", engine="vectorized", n_prefetch=2
        )
        assert forced == fetch_result(
            runs, assoc, "prefetch+bypass", engine="reference", n_prefetch=2
        )

    def test_vectorized_raises_on_unknown_options(self, runs_by_line_size):
        runs = runs_by_line_size[32]
        with pytest.raises(ValueError, match="'demand'"):
            fetch_result(
                runs, self.CONFIG, "demand", engine="vectorized", n_prefetch=1
            )

    def test_evaluate_trace_engines_agree(self, small_trace):
        for engine in ("reference", "vectorized"):
            result = evaluate_trace(
                small_trace, self.CONFIG, "prefetch", engine=engine,
                n_prefetch=2,
            )
            assert result.cpi_l1 == pytest.approx(
                evaluate_trace(
                    small_trace, self.CONFIG, "prefetch", n_prefetch=2
                ).cpi_l1,
                abs=0,
            )


class TestSweepPlanner:
    SETTINGS = ExperimentSettings(n_instructions=30_000, seed=3)

    def test_matches_per_point_evaluate(self):
        config = MemorySystemConfig(
            name="planner", l1=CacheGeometry(8192, 32, 1),
            memory=L1_L2_INTERFACE,
        )
        with_l2 = MemorySystemConfig.economy().with_l2(
            CacheGeometry(64 * 1024, 64, 8)
        )
        points = [
            fetch_point(("demand",), config, "demand"),
            fetch_point(("prefetch", 2), config, "prefetch", n_prefetch=2),
            fetch_point(("l2",), with_l2, "demand"),
            fetch_point(("l2-bypass",), with_l2, "prefetch+bypass",
                        n_prefetch=1),
        ]
        workloads = suite_workloads("ibs-mach3")
        cells = fetch_cells({("col",): ("ibs-mach3", points)}, self.SETTINGS)
        # One cell per workload, in suite order, each reading one trace.
        assert [cell.key for cell in cells] == [
            ("col", name, os_name) for name, os_name in workloads
        ]
        assert all(len(cell.traces) == 1 for cell in cells)
        swept = fetch_values({cell.key: cell.fn(*cell.args) for cell in cells})
        assert list(swept) == [point.key for point in points]
        # Bit-identical to evaluating each point one trace at a time.
        traces = [
            get_trace(name, os_name, self.SETTINGS.n_instructions,
                      self.SETTINGS.seed)
            for name, os_name in workloads
        ]
        for point in points:
            results = [
                evaluate_trace(
                    trace, point.config, point.mechanism,
                    warmup_fraction=self.SETTINGS.warmup_fraction,
                    engine=self.SETTINGS.engine, **dict(point.options),
                )
                for trace in traces
            ]
            expected = (
                float(np.mean([r.cpi_l1 for r in results])),
                float(np.mean([r.cpi_l2 for r in results])),
            )
            assert swept[point.key] == expected, point.key
        assert swept[("l2",)][1] > 0.0
        assert swept[("demand",)][1] == 0.0

    def test_duplicate_keys_rejected(self):
        config = MemorySystemConfig(
            name="dup", l1=CacheGeometry(8192, 32, 1), memory=L1_L2_INTERFACE
        )
        points = [
            fetch_point(("x",), config, "demand"),
            fetch_point(("x",), config, "prefetch", n_prefetch=1),
        ]
        [(name, os_name), *_] = suite_workloads("ibs-mach3")
        with pytest.raises(ValueError, match="duplicate"):
            trace_fetch_cpi(name, os_name, points, self.SETTINGS)

    def test_settings_engine_validated(self):
        with pytest.raises(ValueError, match="unknown engine"):
            ExperimentSettings(n_instructions=1000, seed=0, engine="numba")

    def test_scaled_preserves_engine(self):
        settings = ExperimentSettings(
            n_instructions=1000, seed=0, engine="reference"
        )
        assert settings.scaled(0.5).engine == "reference"


class TestRendersBitIdentical:
    """The acceptance criterion: figure/table output is byte-identical
    whichever engine produced it."""

    def _settings(self, engine):
        return ExperimentSettings(n_instructions=30_000, seed=0, engine=engine)

    def test_figure6(self):
        renders = {
            engine: figure6.run(
                self._settings(engine),
                bandwidths=(4, 16),
                line_sizes=(16, 32),
            ).render()
            for engine in ("reference", "vectorized")
        }
        assert renders["reference"] == renders["vectorized"]

    def test_table6(self):
        renders = {
            engine: table6.run(self._settings(engine)).render()
            for engine in ("reference", "vectorized")
        }
        assert renders["reference"] == renders["vectorized"]

    def test_figure7(self):
        # Exercises demand, prefetch, bypass and stream-buffer kernels
        # in one ladder (plus the engine-independent L2 leg).
        renders = {
            engine: figure7.run(self._settings(engine)).render()
            for engine in ("reference", "auto")
        }
        assert renders["reference"] == renders["auto"]
