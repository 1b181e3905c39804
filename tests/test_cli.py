"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "groff" in out
        assert "ibs-mach3" in out
        assert "table4" in out
        assert "ext_prefetch" in out

    def test_experiment_table2(self, capsys):
        assert main(["--instructions", "20000", "experiment", "table2"]) == 0
        assert "Table 2" in capsys.readouterr().out

    def test_experiment_unknown(self, capsys):
        assert main(["experiment", "table99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_evaluate(self, capsys):
        code = main(
            [
                "--instructions", "30000",
                "evaluate", "gcc",
                "--config", "high-performance",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "CPIinstr" in out
        assert "gcc@mach3" in out

    def test_evaluate_mechanism(self, capsys):
        code = main(
            [
                "--instructions", "30000",
                "evaluate", "nroff", "--mechanism", "prefetch",
            ]
        )
        assert code == 0
        assert "prefetch" in capsys.readouterr().out

    def test_trace_roundtrip(self, tmp_path, capsys):
        out_path = tmp_path / "t.npz"
        code = main(
            [
                "--instructions", "20000",
                "trace", "eqntott", "--os", "spec92",
                "--out", str(out_path),
            ]
        )
        assert code == 0
        assert out_path.exists()
        from repro.trace.io import load_trace

        trace = load_trace(out_path)
        assert trace.instruction_count == 20000


class TestVersionFlag:
    def test_version_exits_zero(self, capsys):
        from repro import package_version

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert f"repro {package_version()}" in capsys.readouterr().out


class TestServeParser:
    def test_serve_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--port", "9000", "--host", "0.0.0.0",
             "--batch-window", "0.05"]
        )
        assert args.command == "serve"
        assert args.port == 9000
        assert args.host == "0.0.0.0"
        assert args.batch_window == 0.05

    def test_serve_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve"])
        assert args.port == 8765
        assert args.host == "127.0.0.1"


class TestCliReportExtensions:
    def test_report_flag_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["report", "--extensions"])
        assert args.extensions is True
        args = build_parser().parse_args(["report"])
        assert args.extensions is False


class TestCacheAndJobsCli:
    @pytest.fixture(autouse=True)
    def _isolated_backend(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        from repro.workloads import registry
        from repro.workloads.registry import clear_trace_cache

        saved = registry._disk_cache
        clear_trace_cache()
        yield
        registry._disk_cache = saved
        clear_trace_cache()

    def test_cache_info_unconfigured(self, capsys):
        assert main(["cache", "info"]) == 0
        out = capsys.readouterr().out
        assert "no cache configured" in out
        # The in-process line-order memo is reported even without a
        # disk backend.
        assert "line-order memo" in out
        assert "evictions:" in out

    def test_cache_clear_unconfigured(self, capsys):
        assert main(["cache", "clear"]) == 2

    def test_experiment_populates_cache(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        code = main(
            [
                "--instructions", "20000",
                "--cache-dir", cache_dir,
                "experiment", "table5",
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert main(["--cache-dir", cache_dir, "cache", "info"]) == 0
        out = capsys.readouterr().out
        assert cache_dir in out
        assert "entries: 22" in out
        assert main(["--cache-dir", cache_dir, "cache", "clear"]) == 0
        assert "cleared 22 entries" in capsys.readouterr().out

    def test_cache_info_json(self, tmp_path, capsys):
        import json

        cache_dir = str(tmp_path / "cache")
        assert main(
            [
                "--instructions", "20000",
                "--cache-dir", cache_dir,
                "experiment", "table5",
            ]
        ) == 0
        capsys.readouterr()
        assert main(["--cache-dir", cache_dir, "cache", "info", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["root"] == cache_dir
        assert record["entry_count"] == 22
        assert record["total_bytes"] > 0
        order = record["order_cache"]
        assert set(order) == {"entries", "bytes", "evictions", "max_bytes"}
        # The experiment's traces are still cached, and so are the
        # memos of their streams.
        assert order["entries"] > 0
        entry = record["entries"][0]
        assert {"name", "os", "n_instructions", "seed", "bytes",
                "artifacts", "path"} <= set(entry)

    def test_cache_info_json_unconfigured(self, capsys):
        import json

        assert main(["cache", "info", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["root"] is None

    def test_results_info_and_clear(self, tmp_path, capsys):
        import json

        from repro.service.store import ResultStore

        cache_dir = str(tmp_path / "cache")
        store = ResultStore(str(tmp_path / "cache" / "results"))
        store.put("f" * 64, {"kind": "experiment", "name": "table5"}, "body")

        assert main(["--cache-dir", cache_dir, "results", "info"]) == 0
        out = capsys.readouterr().out
        assert "entries: 1" in out
        assert "table5" in out

        assert main(
            ["--cache-dir", cache_dir, "results", "info", "--json"]
        ) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["entry_count"] == 1
        assert record["entries"][0]["key"] == "f" * 64

        assert main(["--cache-dir", cache_dir, "results", "clear"]) == 0
        assert "cleared 1 results" in capsys.readouterr().out
        assert main(
            ["--cache-dir", cache_dir, "results", "info", "--json"]
        ) == 0
        assert json.loads(capsys.readouterr().out)["entry_count"] == 0

    def test_results_unconfigured(self, capsys):
        assert main(["results", "info"]) == 0
        assert "no result store configured" in capsys.readouterr().out
        assert main(["results", "clear"]) == 2

    def test_no_disk_cache_flag(self, tmp_path, capsys, monkeypatch):
        cache_dir = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        code = main(
            [
                "--instructions", "20000", "--no-disk-cache",
                "experiment", "table5",
            ]
        )
        assert code == 0
        assert not cache_dir.exists()

    def test_jobs_bit_identical(self, capsys):
        assert main(["--instructions", "20000", "experiment", "table5"]) == 0
        serial = capsys.readouterr().out
        from repro.workloads.registry import clear_trace_cache

        clear_trace_cache()
        code = main(
            ["--instructions", "20000", "--jobs", "4", "experiment", "table5"]
        )
        assert code == 0
        assert capsys.readouterr().out == serial

    def test_timing_out(self, tmp_path, capsys):
        import json

        path = tmp_path / "timing.json"
        code = main(
            [
                "--instructions", "20000", "--timing-out", str(path),
                "experiment", "table5",
            ]
        )
        assert code == 0
        record = json.loads(path.read_text())
        assert record["label"] == "table5"
        assert record["jobs"] == 1
        assert len(record["cells"]) == 4
        assert "phase_totals" in record
