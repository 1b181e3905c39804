"""Unit tests for the runner's phase-timing accounting."""

import json
import time

import pytest

from repro.runner import timing
from repro.runner.timing import CellTiming, TimingReport


@pytest.fixture(autouse=True)
def _fresh_accumulator():
    timing.reset()
    yield
    timing.reset()


class TestPhase:
    def test_accumulates(self):
        with timing.phase("simulate"):
            time.sleep(0.01)
        phases = timing.snapshot()
        assert phases["simulate"] >= 0.005

    def test_nesting_charges_innermost(self):
        with timing.phase("simulate"):
            with timing.phase("line-runs"):
                time.sleep(0.02)
        phases = timing.snapshot()
        # The sleep is charged to the inner phase, not double-counted.
        assert phases["line-runs"] >= 0.01
        assert phases["simulate"] < phases["line-runs"]

    def test_same_phase_reentrant(self):
        with timing.phase("simulate"):
            with timing.phase("simulate"):
                time.sleep(0.01)
        phases = timing.snapshot()
        assert 0.005 <= phases["simulate"] < 0.05

    def test_snapshot_reset(self):
        with timing.phase("synthesize"):
            pass
        first = timing.snapshot(reset=True)
        assert "synthesize" in first
        assert timing.snapshot() == {}

    def test_exception_still_recorded(self):
        with pytest.raises(RuntimeError):
            with timing.phase("simulate"):
                raise RuntimeError("boom")
        assert "simulate" in timing.snapshot()


class TestReport:
    def _report(self):
        cells = (
            CellTiming(key=("a", 1), wall_seconds=0.5,
                       phases={"simulate": 0.3, "synthesize": 0.1}),
            CellTiming(key=("b", 2), wall_seconds=0.25,
                       phases={"simulate": 0.2}),
        )
        return TimingReport(
            label="test", jobs=2, wall_seconds=0.8, cells=cells
        )

    def test_phase_totals(self):
        totals = self._report().phase_totals
        assert totals["simulate"] == pytest.approx(0.5)
        assert totals["synthesize"] == pytest.approx(0.1)

    def test_to_dict(self):
        record = self._report().to_dict()
        assert record["label"] == "test"
        assert record["jobs"] == 2
        assert len(record["cells"]) == 2
        assert record["cells"][0]["key"] == ["a", 1]

    def test_write_json(self, tmp_path):
        path = tmp_path / "timing.json"
        self._report().write(path)
        record = json.loads(path.read_text())
        assert record["phase_totals"]["simulate"] == pytest.approx(0.5)


class TestReportRoundTrip:
    def _report(self):
        cells = (
            CellTiming(
                key=("groff", "mach3", 1), wall_seconds=0.5,
                phases={"simulate": 0.3, "synthesize": 0.1},
                dispatch={("demand", "vectorized"): 2,
                          ("victim", "reference"): 1},
            ),
            CellTiming(key=("sdet", "mach3", 2), wall_seconds=0.25,
                       phases={"simulate": 0.2}),
        )
        return TimingReport(
            label="round-trip", jobs=2, wall_seconds=0.8, cells=cells
        )

    def test_write_read_preserves_totals(self, tmp_path):
        # The --timing-out acceptance bar: a written report reloads with
        # identical phase and dispatch totals.
        report = self._report()
        path = tmp_path / "timing.json"
        report.write(path)
        loaded = TimingReport.read(path)
        assert loaded.phase_totals == pytest.approx(report.phase_totals)
        assert loaded.dispatch_totals == report.dispatch_totals

    def test_round_trip_preserves_cells(self, tmp_path):
        report = self._report()
        path = tmp_path / "timing.json"
        report.write(path)
        loaded = TimingReport.read(path)
        assert loaded.label == "round-trip"
        assert loaded.jobs == 2
        assert loaded.wall_seconds == pytest.approx(0.8)
        assert [cell.key for cell in loaded.cells] == \
            [cell.key for cell in report.cells]
        for original, reloaded in zip(report.cells, loaded.cells):
            assert reloaded.phases == pytest.approx(original.phases)
            # Per-cell dispatch survives the nest/flatten round trip.
            assert reloaded.dispatch == original.dispatch

    def test_from_dict_matches_to_dict(self):
        report = self._report()
        rebuilt = TimingReport.from_dict(report.to_dict())
        assert rebuilt.to_dict() == report.to_dict()
