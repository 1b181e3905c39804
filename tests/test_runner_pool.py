"""Tests for the process-pool sweep runner.

The load-bearing property: a parallel run is *bit-identical* to a
serial one — same cells, same arithmetic, merge in enumeration order —
so ``--jobs N`` is purely a wall-clock knob.
"""

import pytest

from repro.experiments import figure1, table1, table4, table5
from repro.experiments.common import ExperimentSettings
from repro.obs import tracing
from repro.obs.export import cell_rollups
from repro.plan.executor import run_experiment, run_report
from repro.plan.ir import PlanCell
from repro.runner.pool import CellExecutionError, resolve_jobs, run_cells
from repro.workloads.registry import clear_trace_cache, set_trace_cache_backend

SETTINGS = ExperimentSettings(n_instructions=20_000, seed=3)


@pytest.fixture(autouse=True)
def _no_disk_cache():
    from repro.workloads import registry

    saved = registry._disk_cache
    set_trace_cache_backend(None)
    yield
    registry._disk_cache = saved


def _double(x):
    return 2 * x


def _boom(x):
    raise ValueError(f"bad input {x}")


class TestRunCells:
    def _cells(self, n=5):
        return [
            PlanCell(key=("cell", i), fn=_double, args=(i,))
            for i in range(n)
        ]

    def test_serial_order(self):
        results, timings = run_cells(self._cells(), jobs=1)
        assert results == [0, 2, 4, 6, 8]
        assert [t.key for t in timings] == [("cell", i) for i in range(5)]

    def test_parallel_matches_serial(self):
        serial, _ = run_cells(self._cells(), jobs=1)
        parallel, timings = run_cells(self._cells(), jobs=4)
        assert parallel == serial
        assert [t.key for t in timings] == [("cell", i) for i in range(5)]

    def test_empty(self):
        results, timings = run_cells([], jobs=4)
        assert results == []
        assert timings == []

    def test_resolve_jobs(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) >= 1


class TestCellFailures:
    """Worker failures must name the cell that died (satellite fix)."""

    def _mixed_cells(self):
        return [
            PlanCell(key=("ok", 0), fn=_double, args=(1,)),
            PlanCell(key=("groff", "mach3", "8KB"), fn=_boom, args=(7,)),
        ]

    def test_serial_failure_names_cell(self):
        with pytest.raises(CellExecutionError) as excinfo:
            run_cells(self._mixed_cells(), jobs=1)
        message = str(excinfo.value)
        assert "('groff', 'mach3', '8KB')" in message
        assert "ValueError: bad input 7" in message
        assert excinfo.value.key == ("groff", "mach3", "8KB")
        # The original exception stays chained for serial runs.
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_parallel_failure_names_cell(self):
        with pytest.raises(CellExecutionError) as excinfo:
            run_cells(self._mixed_cells(), jobs=2)
        assert "('groff', 'mach3', '8KB')" in str(excinfo.value)
        assert excinfo.value.key == ("groff", "mach3", "8KB")

    def test_pickle_roundtrip(self):
        import pickle

        original = CellExecutionError(("a", 1), "ValueError: nope")
        clone = pickle.loads(pickle.dumps(original))
        assert clone.key == ("a", 1)
        assert clone.message == "ValueError: nope"
        assert str(clone) == str(original)

    def test_no_double_wrapping(self):
        def reraise():
            raise CellExecutionError(("inner",), "RuntimeError: x")

        cell = PlanCell(key=("outer",), fn=reraise)
        with pytest.raises(CellExecutionError) as excinfo:
            run_cells([cell], jobs=1)
        assert excinfo.value.key == ("inner",)


class TestCellApi:
    @pytest.mark.parametrize("module", [table1, table4, table5, figure1])
    def test_modules_expose_cells(self, module):
        cell_list = module.plan_cells(SETTINGS)
        assert len(cell_list) >= 2
        assert len({cell.key for cell in cell_list}) == len(cell_list)

    def test_run_matches_cells_plus_merge(self):
        direct = table5.run(SETTINGS)
        rebuilt = table5.merge(
            SETTINGS,
            {
                cell.key: cell.fn(*cell.args)
                for cell in table5.plan_cells(SETTINGS)
            },
        )
        assert direct.render() == rebuilt.render()


class TestParallelEqualsSerial:
    """The ISSUE's acceptance bar: --jobs 4 output == serial output."""

    @pytest.mark.parametrize("module", [table5, table4])
    def test_experiment_bit_identical(self, module):
        serial = module.run(SETTINGS)
        clear_trace_cache()  # force the parallel run to start cold
        result, report = run_experiment(module, SETTINGS, jobs=4)
        assert result.render() == serial.render()
        assert report.jobs >= 1
        assert len(report.cells) == len(module.plan_cells(SETTINGS))


class TestRunReport:
    def test_report_matches_individual_runs(self):
        modules = {"table5": table5, "table4": table4}
        renderings, report = run_report(modules, SETTINGS, jobs=2)
        assert [name for name, _ in renderings] == ["table5", "table4"]
        assert renderings[0][1] == table5.run(SETTINGS).render()
        assert renderings[1][1] == table4.run(SETTINGS).render()
        assert report.label == "report"
        # Timing granularity is the plan cell, namespaced by experiment.
        expected = len(table5.plan_cells(SETTINGS)) + len(
            table4.plan_cells(SETTINGS)
        )
        assert len(report.cells) == expected
        assert report.plan is not None
        assert report.plan["cells_total"] == expected

    def test_timing_report_has_phases(self):
        clear_trace_cache()
        _, report = run_experiment(table5, SETTINGS, jobs=1)
        totals = report.phase_totals
        # A cold serial run synthesizes and simulates in-process.
        assert totals.get("synthesize", 0.0) > 0.0
        assert totals.get("simulate", 0.0) > 0.0
        assert report.wall_seconds > 0.0


def _nested_table5():
    """A cell whose body runs the whole table5 plan in-process."""
    return run_experiment(table5, SETTINGS, jobs=1)[1]


class TestNestedCells:
    """A cell that runs a plan in-process keeps its inner cells' work."""

    def _run(self):
        clear_trace_cache()
        cell = PlanCell(key=("outer",), fn=_nested_table5, args=())
        [inner], [outer] = run_cells([cell], jobs=1)
        return inner, outer

    def test_outer_cell_counts_inner_work(self):
        inner, outer = self._run()
        assert sum(inner.dispatch_totals.values()) > 0
        assert outer.dispatch == inner.dispatch_totals
        # Inner totals add the rounded priming phases to the cells'.
        assert set(outer.phases) == set(inner.phase_totals)
        for name, seconds in inner.phase_totals.items():
            assert outer.phases[name] == pytest.approx(seconds, abs=1e-5)

    def test_outer_cell_equals_span_rollup(self):
        with tracing.run("nested") as recorder:
            _, outer = self._run()
        [rollup] = [
            cell for cell in cell_rollups(recorder.spans)
            if cell["key"] == ["outer"]
        ]
        assert outer.dispatch
        assert tracing.nest_dispatch(outer.dispatch) == \
            rollup["engine_dispatch"]
        assert outer.phases == rollup["phases"]
        assert outer.wall_seconds == rollup["wall_seconds"]
