"""Engine-dispatch accounting: counters, observers, and report plumbing.

``repro.fetch.dispatch`` records which engine (vectorized kernel or
reference fallback) ran each fetch simulation.  These tests pin the
accounting layer end to end: the thread-local/process-total split, the
observer fan-out the serving tier hangs metrics on, the recording site
in :func:`repro.core.study.fetch_result`, and the ``engine_dispatch``
sections of the runner's timing reports.
"""

from __future__ import annotations

import threading

import pytest

from repro.caches.base import CacheGeometry
from repro.core.config import MemorySystemConfig
from repro.core.study import fetch_result
from repro.fetch import ECONOMY_MEMORY, dispatch
from repro.plan.ir import PlanCell
from repro.runner.pool import run_cells
from repro.runner.timing import CellTiming, TimingReport


@pytest.fixture(autouse=True)
def _clean_dispatch():
    dispatch.reset()
    dispatch.reset_totals()
    yield
    dispatch.reset()
    dispatch.reset_totals()


class TestAccumulators:
    def test_record_and_snapshot(self):
        dispatch.record("demand", dispatch.ENGINE_VECTORIZED)
        dispatch.record("demand", dispatch.ENGINE_VECTORIZED)
        dispatch.record("victim", dispatch.ENGINE_REFERENCE)
        snap = dispatch.snapshot()
        assert snap[("demand", dispatch.ENGINE_VECTORIZED)] == 2
        assert snap[("victim", dispatch.ENGINE_REFERENCE)] == 1

    def test_snapshot_reset(self):
        dispatch.record("demand", dispatch.ENGINE_VECTORIZED)
        first = dispatch.snapshot(reset=True)
        assert first
        assert dispatch.snapshot() == {}
        # Process totals survive a thread-local reset.
        assert dispatch.totals()[("demand", dispatch.ENGINE_VECTORIZED)] == 1

    def test_observers(self):
        seen = []
        observer = lambda m, e, n: seen.append((m, e, n))
        dispatch.add_observer(observer)
        try:
            dispatch.record("markov", dispatch.ENGINE_VECTORIZED, count=3)
        finally:
            dispatch.remove_observer(observer)
        dispatch.record("markov", dispatch.ENGINE_VECTORIZED)
        assert seen == [("markov", dispatch.ENGINE_VECTORIZED, 3)]

    def test_notify_merges_worker_counts(self):
        seen = []
        observer = lambda m, e, n: seen.append((m, e, n))
        dispatch.add_observer(observer)
        try:
            dispatch.notify({("demand", dispatch.ENGINE_REFERENCE): 5})
        finally:
            dispatch.remove_observer(observer)
        assert seen == [("demand", dispatch.ENGINE_REFERENCE, 5)]
        assert dispatch.totals()[("demand", dispatch.ENGINE_REFERENCE)] == 5

    def test_concurrent_observer_churn_while_recording(self):
        # Observer registration must be safe against concurrent
        # mutation: record() snapshots the list under a dedicated lock
        # (separate from the totals lock, so callbacks never run with
        # the counter lock held).
        stop = threading.Event()
        errors = []

        def churn():
            def observer(mechanism, engine, count):
                pass
            try:
                while not stop.is_set():
                    dispatch.add_observer(observer)
                    dispatch.remove_observer(observer)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        seen = []
        keeper = lambda m, e, n: seen.append(n)
        dispatch.add_observer(keeper)
        threads = [threading.Thread(target=churn) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(300):
                dispatch.record("demand", dispatch.ENGINE_VECTORIZED)
        finally:
            stop.set()
            for thread in threads:
                thread.join()
            dispatch.remove_observer(keeper)
        assert not errors
        assert len(seen) == 300
        assert (
            dispatch.totals()[("demand", dispatch.ENGINE_VECTORIZED)] == 300
        )

    def test_observer_may_reenter_counters(self):
        # Regression guard for the lock split: an observer that reads
        # the totals back must not deadlock on the counter lock.
        readback = []
        observer = lambda m, e, n: readback.append(dict(dispatch.totals()))
        dispatch.add_observer(observer)
        try:
            dispatch.record("demand", dispatch.ENGINE_VECTORIZED)
        finally:
            dispatch.remove_observer(observer)
        assert readback[0][("demand", dispatch.ENGINE_VECTORIZED)] == 1

    def test_as_report_nests_by_engine(self):
        report = dispatch.as_report({
            ("demand", dispatch.ENGINE_VECTORIZED): 2,
            ("victim", dispatch.ENGINE_REFERENCE): 1,
        })
        assert report == {
            dispatch.ENGINE_VECTORIZED: {"demand": 2},
            dispatch.ENGINE_REFERENCE: {"victim": 1},
        }


class TestRecordingSite:
    CONFIG = MemorySystemConfig(
        name="dispatch", l1=CacheGeometry(8192, 32, 1), memory=ECONOMY_MEMORY
    )

    def test_fetch_result_records_engine(self, small_trace):
        runs = small_trace.ifetch_line_runs(32)
        fetch_result(runs, self.CONFIG, "demand", engine="vectorized")
        fetch_result(runs, self.CONFIG, "demand", engine="reference")
        fetch_result(runs, self.CONFIG, "victim", engine="auto")
        snap = dispatch.snapshot()
        assert snap[("demand", dispatch.ENGINE_VECTORIZED)] == 1
        assert snap[("demand", dispatch.ENGINE_REFERENCE)] == 1
        # Full kernel coverage: auto routes victim to the kernels now.
        assert snap[("victim", dispatch.ENGINE_VECTORIZED)] == 1
        assert ("victim", dispatch.ENGINE_REFERENCE) not in snap


def _dispatching_cell(mechanism: str, engine: str) -> int:
    dispatch.record(mechanism, engine)
    return 1


class TestReportPlumbing:
    def test_run_cells_captures_dispatch(self):
        cells = [
            PlanCell(
                key=("a",), fn=_dispatching_cell,
                args=("demand", dispatch.ENGINE_VECTORIZED),
            ),
            PlanCell(
                key=("b",), fn=_dispatching_cell,
                args=("victim", dispatch.ENGINE_REFERENCE),
            ),
        ]
        _results, timings = run_cells(cells, jobs=1)
        assert timings[0].dispatch == {
            ("demand", dispatch.ENGINE_VECTORIZED): 1
        }
        assert timings[1].dispatch == {
            ("victim", dispatch.ENGINE_REFERENCE): 1
        }

    def test_timing_report_aggregates_and_serializes(self):
        cells = (
            CellTiming(
                key=("a",), wall_seconds=0.5,
                dispatch={("demand", "vectorized"): 2},
            ),
            CellTiming(
                key=("b",), wall_seconds=0.5,
                dispatch={
                    ("demand", "vectorized"): 1,
                    ("victim", "reference"): 4,
                },
            ),
        )
        report = TimingReport(
            label="x", jobs=1, wall_seconds=1.0, cells=cells
        )
        assert report.dispatch_totals == {
            ("demand", "vectorized"): 3,
            ("victim", "reference"): 4,
        }
        record = report.to_dict()
        assert record["engine_dispatch"] == {
            "vectorized": {"demand": 3},
            "reference": {"victim": 4},
        }
        assert record["cells"][0]["engine_dispatch"] == {
            "vectorized": {"demand": 2}
        }
