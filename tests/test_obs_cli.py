"""End-to-end tests for ``--obs-dir`` runs and the ``repro obs`` CLI.

One traced experiment run (shared across the class via a module
fixture) feeds every assertion: manifest shape on disk, summary totals
agreeing with the ``--timing-out`` report, chrome-trace export, diff,
and the failure modes on bad input.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.cli import main
from repro.obs.manifest import load_manifest


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    """One small traced experiment: its manifest and timing report."""
    root = tmp_path_factory.mktemp("obs")
    timing_path = root / "timing.json"
    code = main(
        [
            "--instructions", "20000",
            "--obs-dir", str(root),
            "--timing-out", str(timing_path),
            "experiment", "table2",
        ]
    )
    assert code == 0
    manifests = sorted(root.glob("manifest-table2-*.json"))
    assert len(manifests) == 1
    return {
        "dir": root,
        "manifest_path": manifests[0],
        "manifest": load_manifest(manifests[0]),
        "timing": json.loads(timing_path.read_text()),
    }


class TestTracedRun:
    def test_manifest_shape(self, traced_run):
        manifest = traced_run["manifest"]
        assert manifest["label"] == "table2"
        assert len(manifest["trace_id"]) == 32
        assert manifest["extra"]["command"] == "experiment"
        assert manifest["extra"]["settings"]["n_instructions"] == 20000
        assert manifest["provenance"]["generator_version"] >= 2
        names = {span["name"] for span in manifest["spans"]}
        assert {"table2", "experiment", "cell"} <= names
        assert manifest["cells"], "no per-cell rollups"

    def test_spans_share_the_trace_id(self, traced_run):
        manifest = traced_run["manifest"]
        assert {
            span["trace_id"] for span in manifest["spans"]
        } == {manifest["trace_id"]}

    def test_summary_matches_timing_report(self, traced_run):
        # The acceptance bar: the span timeline and the --timing-out
        # report are two views of the same phase measurements.
        from repro.obs.export import summarize

        summary = summarize(traced_run["manifest"])
        timing_totals = traced_run["timing"]["phase_totals"]
        assert set(summary["phase_totals"]) == set(timing_totals)
        for name, seconds in timing_totals.items():
            assert math.isclose(
                summary["phase_totals"][name], seconds, rel_tol=1e-9
            )


def _key_text(key) -> str:
    return json.dumps(list(key))


class TestSpanTimingAgreement:
    """The span view and the timing view of one run agree, serial or pooled.

    Every phase exit, engine dispatch and trace-cache lookup annotates
    the active span; ``--timing-out`` accumulates the same phases and
    dispatches per cell.  Plan priming runs in the parent before the
    cells (``prime_phases`` in the timing report, a ``plan-prime`` span
    in the manifest), and with ``--jobs 2`` the cells run in worker
    processes whose spans ship back to the parent.
    """

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_summary_equals_timing_report(self, jobs, tmp_path):
        from repro.obs.export import summarize

        timing_path = tmp_path / "timing.json"
        code = main(
            [
                "--instructions", "20000",
                "--jobs", str(jobs),
                "--obs-dir", str(tmp_path),
                "--timing-out", str(timing_path),
                "experiment", "figure6",
            ]
        )
        assert code == 0
        (manifest_path,) = tmp_path.glob("manifest-figure6-*.json")
        summary = summarize(load_manifest(manifest_path))
        report = json.loads(timing_path.read_text())
        assert len(report["cells"]) > 1

        timing_totals = report["phase_totals"]
        assert set(summary["phase_totals"]) == set(timing_totals)
        for name, seconds in timing_totals.items():
            assert summary["phase_totals"][name] == pytest.approx(
                seconds, rel=1e-6, abs=1e-5
            )

        assert summary["engine_dispatch"] == report["engine_dispatch"]
        assert sum(
            count
            for mechanisms in report["engine_dispatch"].values()
            for count in mechanisms.values()
        ) > 0

        span_cells = {
            _key_text(cell["key"]): cell["phases"]
            for cell in summary["cells"]
        }
        timing_cells = {
            _key_text(cell["key"]): cell["phases"]
            for cell in report["cells"]
        }
        assert set(span_cells) == set(timing_cells)
        for key, phases in timing_cells.items():
            assert set(span_cells[key]) == set(phases)
            for name, seconds in phases.items():
                assert span_cells[key][name] == pytest.approx(
                    seconds, rel=1e-9, abs=1e-12
                )


class TestObsCommands:
    def test_summary_renders(self, traced_run, capsys):
        assert main(["obs", "summary", str(traced_run["manifest_path"])]) == 0
        out = capsys.readouterr().out
        assert traced_run["manifest"]["trace_id"] in out
        assert "cells (slowest first):" in out

    def test_summary_json(self, traced_run, capsys):
        code = main(
            ["obs", "summary", str(traced_run["manifest_path"]), "--json"]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["span_count"] == len(traced_run["manifest"]["spans"])

    def test_export_chrome_trace(self, traced_run, tmp_path, capsys):
        out = tmp_path / "trace.json"
        code = main(
            [
                "obs", "export", str(traced_run["manifest_path"]),
                "--format", "chrome-trace", "--out", str(out),
            ]
        )
        assert code == 0
        trace = json.loads(out.read_text())
        cells = [
            event for event in trace["traceEvents"]
            if event.get("name") == "cell" and event.get("ph") == "X"
        ]
        assert len(cells) == len(traced_run["manifest"]["cells"])

    def test_export_json_roundtrips_manifest(self, traced_run, capsys):
        code = main(
            [
                "obs", "export", str(traced_run["manifest_path"]),
                "--format", "json",
            ]
        )
        assert code == 0
        exported = json.loads(capsys.readouterr().out)
        assert exported["trace_id"] == traced_run["manifest"]["trace_id"]

    def test_diff_against_itself(self, traced_run, capsys):
        path = str(traced_run["manifest_path"])
        assert main(["obs", "diff", path, path, "--json"]) == 0
        diff = json.loads(capsys.readouterr().out)
        assert diff["wall_delta_seconds"] == 0.0
        assert diff["provenance_changed"] == {}

    def test_missing_manifest_fails_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="repro obs:"):
            main(["obs", "summary", str(tmp_path / "nope.json")])

    def test_non_manifest_fails_cleanly(self, tmp_path):
        junk = tmp_path / "junk.json"
        junk.write_text("{}")
        with pytest.raises(SystemExit, match="not a run manifest"):
            main(["obs", "summary", str(junk)])


class TestVersionProvenance:
    def test_reports_generator_and_git(self, capsys):
        from repro import version_info

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        info = version_info()
        assert f"repro {info['package_version']}" in out
        assert f"generator v{info['generator_version']}" in out
        assert "git " in out
