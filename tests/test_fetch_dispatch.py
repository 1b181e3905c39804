"""Engine-dispatch accounting: counters, totals, and report plumbing.

``repro.fetch.dispatch`` records which engine (vectorized kernel or
reference fallback) ran each fetch simulation.  These tests pin the
accounting layer end to end: the span/process-total split, the
folding of worker-process counts into the totals, the recording site
in :func:`repro.core.study.fetch_result`, and the ``engine_dispatch``
sections of the runner's timing reports.
"""

from __future__ import annotations

import pytest

from repro.caches.base import CacheGeometry
from repro.core.config import MemorySystemConfig
from repro.core.study import fetch_result
from repro.fetch import ECONOMY_MEMORY, dispatch
from repro.obs import tracing
from repro.obs.export import timing_record
from repro.plan.ir import PlanCell
from repro.runner.pool import run_cells


@pytest.fixture(autouse=True)
def _clean_dispatch():
    dispatch.reset_totals()
    yield
    dispatch.reset_totals()


class TestAccumulators:
    def test_record_and_snapshot(self):
        with tracing.capture("probe") as records:
            dispatch.record("demand", dispatch.ENGINE_VECTORIZED)
            dispatch.record("demand", dispatch.ENGINE_VECTORIZED)
            dispatch.record("stream-buffer", dispatch.ENGINE_REFERENCE)
        assert records[-1]["engine_dispatch"] == {
            dispatch.ENGINE_VECTORIZED: {"demand": 2},
            dispatch.ENGINE_REFERENCE: {"stream-buffer": 1},
        }
        assert dispatch.totals()[("demand", dispatch.ENGINE_VECTORIZED)] == 2

    def test_notify_merges_worker_counts(self):
        with tracing.capture("probe") as records:
            dispatch.notify({dispatch.ENGINE_REFERENCE: {"demand": 5}})
        assert dispatch.totals()[("demand", dispatch.ENGINE_REFERENCE)] == 5
        # Worker counts go to the process totals only; the worker's own
        # spans already carry them, so no span here counts them again.
        assert records[-1]["engine_dispatch"] == {}


class TestRecordingSite:
    CONFIG = MemorySystemConfig(
        name="dispatch", l1=CacheGeometry(8192, 32, 1), memory=ECONOMY_MEMORY
    )

    def test_fetch_result_records_engine(self, small_trace):
        runs = small_trace.ifetch_line_runs(32)
        with tracing.capture("probe") as records:
            fetch_result(runs, self.CONFIG, "demand", engine="vectorized")
            fetch_result(runs, self.CONFIG, "demand", engine="reference")
            fetch_result(runs, self.CONFIG, "stream-buffer", engine="auto")
        counts = records[-1]["engine_dispatch"]
        assert counts[dispatch.ENGINE_VECTORIZED]["demand"] == 1
        assert counts[dispatch.ENGINE_REFERENCE]["demand"] == 1
        # Full kernel coverage: auto routes the stream buffer to the
        # kernels.
        assert counts[dispatch.ENGINE_VECTORIZED]["stream-buffer"] == 1
        assert "stream-buffer" not in counts[dispatch.ENGINE_REFERENCE]


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
                args=("stream-buffer", dispatch.ENGINE_REFERENCE),
            ),
        ]
        _results, timings = run_cells(cells, jobs=1)
        assert timings[0]["engine_dispatch"] == {
            dispatch.ENGINE_VECTORIZED: {"demand": 1}
        }
        assert timings[1]["engine_dispatch"] == {
            dispatch.ENGINE_REFERENCE: {"stream-buffer": 1}
        }

    def test_pool_worker_counts_reach_totals(self):
        # Pool workers count in their own processes; run_cells folds
        # each cell's record into the parent's totals.
        cells = [
            PlanCell(
                key=(mechanism,), fn=_dispatching_cell,
                args=(mechanism, dispatch.ENGINE_VECTORIZED),
            )
            for mechanism in ("demand", "stream-buffer")
        ]
        run_cells(cells, jobs=2)
        assert dispatch.totals() == {
            ("demand", dispatch.ENGINE_VECTORIZED): 1,
            ("stream-buffer", dispatch.ENGINE_VECTORIZED): 1,
        }

    def test_timing_report_aggregates_and_serializes(self):
        timing = {
            "label": "x", "jobs": 1, "wall_seconds": 1.0,
            "cells": [
                {"key": ("a",), "wall_seconds": 0.5, "phases": {},
                 "engine_dispatch": {"vectorized": {"demand": 2}}},
                {"key": ("b",), "wall_seconds": 0.5, "phases": {},
                 "engine_dispatch": {"vectorized": {"demand": 1},
                                     "reference": {"stream-buffer": 4}}},
            ],
            "plan": {},
        }
        record = timing_record(timing)
        assert record["engine_dispatch"] == {
            "vectorized": {"demand": 3},
            "reference": {"stream-buffer": 4},
        }
        assert record["cells"][0]["engine_dispatch"] == {
            "vectorized": {"demand": 2}
        }
