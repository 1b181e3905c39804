"""Unit tests for the span-tracing substrate (``repro.obs.tracing``).

Covers the recorder/span lifecycle, the phase/dispatch/cache sites
annotating the active span, cell capture (adopted by a traced run,
returned to the caller either way), and re-parenting of shipped spans
— including the end-to-end ``run_cells(jobs=2)`` path across a real
process pool.
"""

from __future__ import annotations

import time

from repro.fetch import dispatch
from repro.obs import tracing
from repro.plan.ir import PlanCell
from repro.runner import timing
from repro.runner.pool import run_cells


class TestSpanLifecycle:
    def test_inert_without_recorder(self):
        assert tracing.active_recorder() is None
        with tracing.span("orphan") as current:
            assert current is None
        assert tracing.current_trace_id() is None
        assert tracing.current_span() is None

    def test_run_collects_root_span(self):
        with tracing.run("demo", flavour="test") as recorder:
            assert tracing.active_recorder() is recorder
            assert tracing.current_trace_id() == recorder.trace_id
        spans = recorder.spans
        assert len(spans) == 1
        root = spans[0]
        assert root["name"] == "demo"
        assert root["parent_id"] is None
        assert root["trace_id"] == recorder.trace_id
        assert root["attrs"]["kind"] == "run"
        assert root["attrs"]["flavour"] == "test"
        assert root["wall_seconds"] >= 0.0

    def test_run_kind_attr_does_not_collide(self):
        # Regression: run() used to pass kind= positionally into span(),
        # so callers supplying their own kind attr crashed.
        with tracing.run("job", kind="experiment") as recorder:
            pass
        assert recorder.spans[0]["attrs"]["kind"] == "experiment"

    def test_explicit_trace_id(self):
        with tracing.run("demo", trace_id="abc123") as recorder:
            assert recorder.trace_id == "abc123"
        assert recorder.spans[0]["trace_id"] == "abc123"

    def test_nesting_records_parent_ids(self):
        with tracing.run("outer") as recorder:
            root = tracing.current_span()
            with tracing.span("child"):
                child = tracing.current_span()
                with tracing.span("grandchild"):
                    pass
        by_name = {span["name"]: span for span in recorder.spans}
        assert by_name["child"]["parent_id"] == root.span_id
        assert by_name["grandchild"]["parent_id"] == child.span_id
        # Innermost spans finish (and are recorded) first.
        names = [span["name"] for span in recorder.spans]
        assert names == ["grandchild", "child", "outer"]

    def test_on_span_callback_fires_per_span(self):
        seen = []
        with tracing.run("demo", on_span=lambda r: seen.append(r["name"])):
            with tracing.span("inner"):
                pass
        assert seen == ["inner", "demo"]

    def test_attrs_are_json_safe(self):
        with tracing.run("demo") as recorder:
            with tracing.span("s", key=("a", 1), obj=object()):
                pass
        attrs = recorder.spans[0]["attrs"]
        assert attrs["key"] == ["a", 1]
        assert isinstance(attrs["obj"], str)

    def test_event_cap_counts_drops(self):
        with tracing.run("demo") as recorder:
            current = tracing.current_span()
            for index in range(tracing.MAX_EVENTS_PER_SPAN + 5):
                current.add_event("tick", index=index)
        root = recorder.spans[0]
        assert len(root["events"]) == tracing.MAX_EVENTS_PER_SPAN
        assert root["dropped_events"] == 5


class TestBridges:
    def test_phase_bridge_attaches_to_innermost_span(self):
        with tracing.run("demo") as recorder:
            with tracing.span("inner"):
                with timing.phase("simulate"):
                    time.sleep(0.005)
        by_name = {span["name"]: span for span in recorder.spans}
        assert by_name["inner"]["phases"]["simulate"] >= 0.001
        assert "simulate" not in by_name["demo"]["phases"]

    def test_dispatch_bridge_aggregates_counts(self):
        with tracing.run("demo") as recorder:
            dispatch.record("demand", dispatch.ENGINE_VECTORIZED, count=2)
            dispatch.record("demand", dispatch.ENGINE_VECTORIZED)
        root = recorder.spans[0]
        assert root["engine_dispatch"] == {
            dispatch.ENGINE_VECTORIZED: {"demand": 3}
        }

    def test_trace_cache_bridge_counts_outcomes(self):
        from repro.workloads import registry

        with tracing.run("demo") as recorder:
            registry._notify_cache("memory-hit")
            registry._notify_cache("memory-hit")
            registry._notify_cache("synthesized")
        root = recorder.spans[0]
        assert root["trace_cache"] == {"memory-hit": 2, "synthesized": 1}

    def test_bridges_silent_without_recorder(self):
        # No recorder bound: the annotation feeds must be inert.
        tracing.on_phase("simulate", 1.0)
        tracing.on_dispatch("demand", "vectorized", 1)
        tracing.on_trace_cache("memory-hit")
        with timing.phase("simulate"):
            dispatch.record("demand", dispatch.ENGINE_VECTORIZED)
        assert tracing.current_span() is None


class TestAdoption:
    def _worker_records(self):
        return [
            {"span_id": "w-root", "parent_id": None,
             "trace_id": "unadopted", "name": "cell"},
            {"span_id": "w-leaf", "parent_id": "w-root",
             "trace_id": "unadopted", "name": "evaluate"},
        ]

    def test_adopt_reparents_roots_and_unifies_trace_id(self):
        recorder = tracing.RunRecorder("parent")
        recorder.adopt(self._worker_records(), parent_id="coordinator")
        by_id = {span["span_id"]: span for span in recorder.spans}
        assert by_id["w-root"]["parent_id"] == "coordinator"
        # Intra-batch parentage survives; only roots are re-parented.
        assert by_id["w-leaf"]["parent_id"] == "w-root"
        assert all(
            span["trace_id"] == recorder.trace_id
            for span in recorder.spans
        )

    def test_adopt_does_not_mutate_shipped_records(self):
        records = self._worker_records()
        tracing.RunRecorder("parent").adopt(records, parent_id="x")
        assert records[0]["trace_id"] == "unadopted"
        assert records[0]["parent_id"] is None


class TestCellCapture:
    def test_live_mode_opens_cell_span(self):
        # A traced in-process cell is adopted under the current span.
        with tracing.run("demo") as recorder:
            parent = tracing.current_span()
            with tracing.capture(
                "cell", key=("t", 1), engine="auto"
            ) as records:
                with tracing.span("evaluate"):
                    pass
            assert [span["name"] for span in records] == ["evaluate", "cell"]
        cell = [s for s in recorder.spans if s["name"] == "cell"][0]
        assert cell["attrs"]["key"] == ["t", 1]
        assert cell["attrs"]["engine"] == "auto"
        assert cell["parent_id"] == parent.span_id
        assert cell["trace_id"] == recorder.trace_id
        names = [span["name"] for span in recorder.spans]
        assert names == ["evaluate", "cell", "demo"]

    def test_untraced_capture_returns_records(self):
        assert tracing.active_recorder() is None
        with tracing.capture("cell", key=("t", 2)) as records:
            with tracing.span("evaluate"):
                pass
        assert [span["name"] for span in records] == ["evaluate", "cell"]
        roots = [s for s in records if s["parent_id"] is None]
        assert len(roots) == 1 and roots[0]["name"] == "cell"
        # Nothing stays bound once the capture closes.
        assert tracing.active_recorder() is None


def _traced_cell(tag: str) -> str:
    with timing.phase("simulate"):
        time.sleep(0.002)
    dispatch.record("demand", dispatch.ENGINE_VECTORIZED)
    return tag


class TestPoolIntegration:
    def test_jobs2_reparents_worker_spans(self):
        cells = [
            PlanCell(key=("cell", i), fn=_traced_cell, args=(f"r{i}",))
            for i in range(3)
        ]
        with tracing.run("pool-run") as recorder:
            with tracing.span("experiment"):
                coordinator = tracing.current_span()
                results, _ = run_cells(cells, jobs=2)
        assert results == ["r0", "r1", "r2"]
        spans = recorder.spans
        cell_spans = [s for s in spans if s["name"] == "cell"]
        assert len(cell_spans) == 3
        span_ids = {s["span_id"] for s in spans}
        for cell in cell_spans:
            # Re-parented under the coordinating span of this run.
            assert cell["parent_id"] == coordinator.span_id
            assert cell["parent_id"] in span_ids
            assert cell["trace_id"] == recorder.trace_id
            assert cell["phases"].get("simulate", 0.0) > 0.0
            assert cell["engine_dispatch"] == {
                dispatch.ENGINE_VECTORIZED: {"demand": 1}
            }
        # Worker events reach the run only through the shipped spans:
        # the coordinating span counts none of them a second time.
        experiment = [s for s in spans if s["name"] == "experiment"][0]
        assert experiment["phases"] == {}
        assert experiment["engine_dispatch"] == {}

    def test_serial_run_traces_cells_live(self):
        cells = [
            PlanCell(key=("cell", 0), fn=_traced_cell, args=("r",))
        ]
        with tracing.run("serial-run") as recorder:
            run_cells(cells, jobs=1)
        cell = [s for s in recorder.spans if s["name"] == "cell"][0]
        assert cell["trace_id"] == recorder.trace_id
        assert cell["phases"].get("simulate", 0.0) > 0.0
