"""Unit tests for manifest exports (``repro.obs.export``).

Built on hand-rolled span records so every assertion is exact: subtree
rollups per cell, Trace Event Format structure, summary totals, and
the two-run diff.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.export import (
    cell_rollups,
    diff_manifests,
    render_diff,
    render_summary,
    summarize,
    timing_record,
    to_chrome_trace,
)


def _span(
    name,
    span_id,
    parent_id=None,
    start=100.0,
    wall=1.0,
    pid=10,
    thread="MainThread",
    **extra,
):
    record = {
        "name": name,
        "span_id": span_id,
        "parent_id": parent_id,
        "trace_id": "t" * 32,
        "pid": pid,
        "thread": thread,
        "start": start,
        "wall_seconds": wall,
        "cpu_seconds": wall / 2,
        "attrs": {},
        "events": [],
        "phases": {},
        "engine_dispatch": {},
        "trace_cache": {},
    }
    record.update(extra)
    return record


def _manifest(spans, label="unit", provenance=None):
    roots = [span for span in spans if span["parent_id"] is None]
    return {
        "schema": 1,
        "trace_id": "t" * 32,
        "label": label,
        "created_at": 100.0,
        "provenance": provenance
        or {"package_version": "1.0", "generator_version": 2,
            "git": {"revision": "r", "describe": "d"}},
        "extra": {},
        "wall_seconds": max(s["wall_seconds"] for s in roots),
        "cells": [],  # force summarize() down the rollup path
        "spans": spans,
    }


def _two_cell_spans():
    return [
        _span("run", "root", wall=4.0),
        _span("cell", "c1", parent_id="root", wall=1.5,
              attrs={"key": ["groff", 1]},
              phases={"synthesize": 0.5}),
        _span("evaluate", "e1", parent_id="c1", wall=1.0,
              phases={"simulate": 0.9},
              engine_dispatch={"vectorized": {"demand": 2}},
              trace_cache={"memory-hit": 1}),
        _span("cell", "c2", parent_id="root", wall=2.0, pid=11,
              thread="worker", attrs={"key": ["sdet", 2]},
              phases={"simulate": 1.8},
              engine_dispatch={"reference": {"stream-buffer": 1}}),
    ]


class TestCellRollups:
    def test_subtree_aggregation(self):
        rollups = cell_rollups(_two_cell_spans())
        assert [cell["key"] for cell in rollups] == \
            [["groff", 1], ["sdet", 2]]
        groff = rollups[0]
        # The cell's own phases merge with its evaluate child's.
        assert groff["phases"] == {"synthesize": 0.5, "simulate": 0.9}
        assert groff["engine_dispatch"] == {"vectorized": {"demand": 2}}
        assert groff["trace_cache"] == {"memory-hit": 1}
        assert groff["wall_seconds"] == 1.5
        sdet = rollups[1]
        assert sdet["phases"] == {"simulate": 1.8}
        assert sdet["pid"] == 11

    def test_non_cell_spans_produce_no_rollups(self):
        assert cell_rollups([_span("run", "root")]) == []


class TestChromeTrace:
    def test_structure(self):
        spans = _two_cell_spans()
        spans[1]["events"] = [
            {"name": "phase", "time": 100.5,
             "attrs": {"phase": "synthesize", "seconds": 0.5}},
        ]
        trace = to_chrome_trace(_manifest(spans))
        json.dumps(trace)  # must be JSON-serializable as-is
        events = trace["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == 4
        root = [e for e in complete if e["name"] == "run"][0]
        assert root["ts"] == 0.0  # timestamps rebased to the first span
        assert root["dur"] == 4.0e6
        assert root["args"]["trace_id"] == "t" * 32
        # Bridged annotations become thread-scoped instants.
        instants = [e for e in events if e["ph"] == "i"]
        assert instants[0]["name"] == "phase"
        assert instants[0]["ts"] == 0.5e6
        # One thread_name metadata record per (pid, thread).
        metadata = [e for e in events if e["ph"] == "M"]
        assert {(e["pid"], e["args"]["name"]) for e in metadata} == {
            (10, "MainThread"), (11, "worker")
        }
        assert trace["otherData"]["trace_id"] == "t" * 32

    def test_worker_pids_get_distinct_tids(self):
        trace = to_chrome_trace(_manifest(_two_cell_spans()))
        cells = [
            e for e in trace["traceEvents"]
            if e["ph"] == "X" and e["name"] == "cell"
        ]
        assert len({(e["pid"], e["tid"]) for e in cells}) == 2


class TestSummarize:
    def test_totals_over_all_spans(self):
        summary = summarize(_manifest(_two_cell_spans()))
        assert summary["phase_totals"] == {
            "synthesize": 0.5, "simulate": 0.9 + 1.8
        }
        assert summary["engine_dispatch"] == {
            "vectorized": {"demand": 2}, "reference": {"stream-buffer": 1}
        }
        assert summary["trace_cache"] == {"memory-hit": 1}
        assert summary["span_count"] == 4
        assert len(summary["cells"]) == 2

    def test_render_mentions_cells_and_phases(self):
        text = render_summary(summarize(_manifest(_two_cell_spans())))
        assert "trace " + "t" * 32 in text
        assert "simulate" in text
        assert "groff/1" in text and "sdet/2" in text


class TestTimingRecord:
    """The ``--timing-out`` record: the plan run's timing plus totals."""

    def test_prime_phases_fold_into_totals(self):
        plan = {
            "cells_total": 3,
            "inputs_primed": 2,
            "prime_phases": {"synthesize": 0.5},
        }
        record = timing_record(
            {"label": "x", "jobs": 1, "wall_seconds": 1.0, "cells": [],
             "plan": plan}
        )
        assert record["plan"] == plan
        assert record["phase_totals"] == {"synthesize": 0.5}
        assert record["engine_dispatch"] == {}


class TestDiff:
    def _b_spans(self):
        spans = _two_cell_spans()
        spans[0]["wall_seconds"] = 5.0
        spans[3]["wall_seconds"] = 3.0  # sdet slowed down
        spans[3]["phases"] = {"simulate": 2.8}
        return spans

    def test_deltas(self):
        diff = diff_manifests(
            _manifest(_two_cell_spans()), _manifest(self._b_spans())
        )
        assert diff["wall_delta_seconds"] == pytest.approx(1.0)
        assert diff["phases"]["simulate"]["delta"] == pytest.approx(1.0)
        sdet = [c for c in diff["cells"] if c["key"] == "sdet/2"][0]
        assert sdet["delta"] == pytest.approx(1.0)
        assert diff["provenance_changed"] == {}

    def test_provenance_drift_reported(self):
        drifted = _manifest(
            self._b_spans(),
            provenance={"package_version": "2.0", "generator_version": 2,
                        "git": {"revision": "r2", "describe": "d2"}},
        )
        diff = diff_manifests(_manifest(_two_cell_spans()), drifted)
        assert set(diff["provenance_changed"]) == {"package_version", "git"}
        text = render_diff(diff)
        assert "provenance changed" in text
        assert "'d' -> 'd2'" in text

    def test_unmatched_cells_flagged(self):
        solo = [_span("run", "root", wall=1.0),
                _span("cell", "c9", parent_id="root",
                      attrs={"key": ["only-a"]})]
        diff = diff_manifests(_manifest(solo), _manifest(_two_cell_spans()))
        unmatched = [c for c in diff["cells"] if c["delta"] is None]
        assert {c["key"] for c in unmatched} == {"only-a", "groff/1", "sdet/2"}
        assert "(only in a)" in render_diff(diff)
