"""Unit tests for the runner's phase-timing accounting."""

import json
import time

import pytest

from repro.obs import tracing
from repro.obs.export import timing_record
from repro.runner import timing


class TestPhase:
    """Phase exits charge the active span; read back from a capture."""

    def test_accumulates(self):
        with tracing.capture("probe") as records:
            with timing.phase("simulate"):
                time.sleep(0.01)
        phases = records[-1]["phases"]
        assert phases["simulate"] >= 0.005

    def test_nesting_charges_innermost(self):
        with tracing.capture("probe") as records:
            with timing.phase("simulate"):
                with timing.phase("line-runs"):
                    time.sleep(0.02)
        phases = records[-1]["phases"]
        # The sleep is charged to the inner phase, not double-counted.
        assert phases["line-runs"] >= 0.01
        assert phases["simulate"] < phases["line-runs"]

    def test_same_phase_reentrant(self):
        with tracing.capture("probe") as records:
            with timing.phase("simulate"):
                with timing.phase("simulate"):
                    time.sleep(0.01)
        phases = records[-1]["phases"]
        assert 0.005 <= phases["simulate"] < 0.05

    def test_exception_still_recorded(self):
        with pytest.raises(RuntimeError):
            with tracing.capture("probe") as records:
                with timing.phase("simulate"):
                    raise RuntimeError("boom")
        assert "simulate" in records[-1]["phases"]


class TestReport:
    """The ``--timing-out`` record: a plan run's timing plus totals."""

    def _timing(self):
        return {
            "label": "test",
            "jobs": 2,
            "wall_seconds": 0.8,
            "cells": [
                {"key": ("a", 1), "wall_seconds": 0.5,
                 "phases": {"simulate": 0.3, "synthesize": 0.1},
                 "engine_dispatch": {}},
                {"key": ("b", 2), "wall_seconds": 0.25,
                 "phases": {"simulate": 0.2}, "engine_dispatch": {}},
            ],
            "plan": {"cells_total": 2},
        }

    def test_phase_totals(self):
        totals = timing_record(self._timing())["phase_totals"]
        assert totals["simulate"] == pytest.approx(0.5)
        assert totals["synthesize"] == pytest.approx(0.1)

    def test_to_dict(self):
        record = timing_record(self._timing())
        assert record["label"] == "test"
        assert record["jobs"] == 2
        assert len(record["cells"]) == 2
        assert record["plan"] == {"cells_total": 2}

    def test_write_json(self, tmp_path):
        path = tmp_path / "timing.json"
        path.write_text(json.dumps(timing_record(self._timing())))
        record = json.loads(path.read_text())
        assert record["phase_totals"]["simulate"] == pytest.approx(0.5)
        assert record["cells"][0]["key"] == ["a", 1]


class TestReportRoundTrip:
    """A written ``--timing-out`` file reloads with the same cells, and
    its totals are the sums of what it holds."""

    def _timing(self):
        return {
            "label": "round-trip",
            "jobs": 2,
            "wall_seconds": 0.8,
            "cells": [
                {"key": ("groff", "mach3", 1), "wall_seconds": 0.5,
                 "phases": {"simulate": 0.3, "synthesize": 0.1},
                 "engine_dispatch": {"vectorized": {"demand": 2},
                                     "reference": {"victim": 1}}},
                {"key": ("sdet", "mach3", 2), "wall_seconds": 0.25,
                 "phases": {"simulate": 0.2}, "engine_dispatch": {}},
            ],
            "plan": {"cells_total": 2, "prime_phases": {"line-runs": 0.05}},
        }

    def _write_read(self, tmp_path) -> dict:
        path = tmp_path / "timing.json"
        path.write_text(
            json.dumps(timing_record(self._timing()), sort_keys=True)
        )
        return json.loads(path.read_text())

    def test_write_read_preserves_totals(self, tmp_path):
        loaded = self._write_read(tmp_path)
        written = timing_record(self._timing())
        assert loaded["phase_totals"] == pytest.approx(written["phase_totals"])
        assert loaded["phase_totals"]["line-runs"] == pytest.approx(0.05)
        assert loaded["engine_dispatch"] == written["engine_dispatch"]

    def test_round_trip_preserves_cells(self, tmp_path):
        loaded = self._write_read(tmp_path)
        assert loaded["label"] == "round-trip"
        assert loaded["jobs"] == 2
        assert loaded["wall_seconds"] == pytest.approx(0.8)
        timing = self._timing()
        assert [cell["key"] for cell in loaded["cells"]] == [
            list(cell["key"]) for cell in timing["cells"]
        ]
        for original, reloaded in zip(timing["cells"], loaded["cells"]):
            assert reloaded["phases"] == pytest.approx(original["phases"])
            assert reloaded["engine_dispatch"] == original["engine_dispatch"]

    def test_from_dict_matches_to_dict(self, tmp_path):
        # Summing a reloaded file's cells again gives the totals it
        # carries: the file is self-consistent.
        loaded = self._write_read(tmp_path)
        assert timing_record(loaded) == loaded
