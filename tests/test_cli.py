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
        assert "ext_methodology" in out

    def test_experiment_table2(self, capsys):
        assert main(["--instructions", "20000", "experiment", "table2"]) == 0
        assert "Table 2" in capsys.readouterr().out

    def test_experiment_unknown(self, capsys):
        for name in ("table99", "ext_prefetch"):  # never existed; retired
            assert main(["experiment", name]) == 2
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
        from repro.runner import cachedir
        from repro.workloads import registry
        from repro.workloads.registry import clear_trace_cache

        # main() selects a cache directory for the process; put the
        # selection back afterwards along with the registry's backend.
        monkeypatch.setattr(cachedir, "_selected", cachedir._selected)
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
        # 22 traces, and the 32 B line runs of each.
        assert "entries: 44" in out
        assert "traces: 22 entries" in out
        assert "lineruns: 22 entries" in out
        assert main(["--cache-dir", cache_dir, "cache", "clear"]) == 0
        assert "cleared 44 entries" in capsys.readouterr().out

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
        assert record["entry_count"] == 44
        assert record["total_bytes"] == sum(
            entry["bytes"] for entry in record["entries"]
        )
        order = record["order_cache"]
        assert set(order) == {"entries", "bytes", "evictions", "max_bytes"}
        # The experiment's traces are still cached, and so are the
        # memos of their streams.
        assert order["entries"] > 0
        entry = record["entries"][0]
        assert entry["namespace"] == "traces"
        assert {"name", "path", "bytes", "mtime", "meta"} <= set(entry)
        assert {"name", "os", "n_instructions", "seed",
                "generator_version"} <= set(entry["meta"])

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

        assert main(["--cache-dir", cache_dir, "cache", "info"]) == 0
        out = capsys.readouterr().out
        assert "results: 1 entries" in out
        assert "experiment table5" in out

        assert main(["--cache-dir", cache_dir, "cache", "info", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["entry_count"] == 1
        (entry,) = record["entries"]
        assert entry["namespace"] == "results"
        assert entry["name"] == "f" * 64
        assert entry["meta"] == {"kind": "experiment", "name": "table5"}

        assert main(["--cache-dir", cache_dir, "cache", "clear"]) == 0
        assert "cleared 1 entries" in capsys.readouterr().out
        assert main(["--cache-dir", cache_dir, "cache", "info", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["entry_count"] == 0

    def test_results_subcommand_is_gone(self, capsys):
        # `repro cache` reports and clears the results with the traces.
        with pytest.raises(SystemExit) as exc:
            main(["results", "info"])
        assert exc.value.code == 2
        assert "invalid choice: 'results'" in capsys.readouterr().err

    def test_clear_removes_what_info_lists_and_keeps_the_lock(
        self, tmp_path, capsys
    ):
        import json

        from repro.service.store import ResultStore

        cache_dir = tmp_path / "cache"
        assert main([
            "--instructions", "20000", "--cache-dir", str(cache_dir),
            "experiment", "table5",
        ]) == 0
        store = ResultStore(cache_dir / "results")
        store.put("f" * 64, {"kind": "experiment", "name": "table5"})
        lock = cache_dir / "results" / ".lock"
        inode = lock.stat().st_ino
        capsys.readouterr()

        info = ["--cache-dir", str(cache_dir), "cache", "info", "--json"]
        assert main(info) == 0
        listed = json.loads(capsys.readouterr().out)["entry_count"]
        assert listed == 45
        assert main(["--cache-dir", str(cache_dir), "cache", "clear"]) == 0
        assert f"cleared {listed} entries" in capsys.readouterr().out
        # A live server's flock stays on the same file.
        assert lock.stat().st_ino == inode
        assert main(info) == 0
        assert json.loads(capsys.readouterr().out)["entry_count"] == 0
        assert store.get("f" * 64) is None

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


#: ``(flags, whether $REPRO_CACHE_DIR is set, which directory wins)``:
#: ``--no-disk-cache`` beats ``--cache-dir``, which beats the variable.
CACHE_SELECTIONS = [
    pytest.param([], False, None, id="none"),
    pytest.param([], True, "env", id="env"),
    pytest.param(["--cache-dir", "{flag}"], True, "flag", id="flag-over-env"),
    pytest.param(["--no-disk-cache"], True, None, id="no-disk-cache"),
    pytest.param(
        ["--no-disk-cache", "--cache-dir", "{flag}"], False, None,
        id="no-disk-cache-over-flag",
    ),
]


def _selection_argv(tmp_path, monkeypatch, flags, env_set):
    dirs = {"flag": tmp_path / "flag", "env": tmp_path / "env"}
    if env_set:
        monkeypatch.setenv("REPRO_CACHE_DIR", str(dirs["env"]))
    else:
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    return [flag.format(flag=dirs["flag"]) for flag in flags], dirs


class TestCacheSelection:
    """The cache flags pick the same trace backend as they always have."""

    @pytest.fixture(autouse=True)
    def _isolated_backend(self, monkeypatch):
        from repro.runner import cachedir
        from repro.workloads import registry

        monkeypatch.setattr(cachedir, "_selected", cachedir._selected)
        monkeypatch.setattr(registry, "_disk_cache", registry._disk_cache)

    @pytest.mark.parametrize("flags, env_set, winner", CACHE_SELECTIONS)
    def test_report(self, tmp_path, monkeypatch, flags, env_set, winner):
        from repro.plan import executor
        from repro.workloads import registry

        argv, dirs = _selection_argv(tmp_path, monkeypatch, flags, env_set)
        seen = []

        def run_report(experiments, settings, jobs=1):
            seen.append(registry.trace_cache_backend())
            return [], None

        monkeypatch.setattr(executor, "run_report", run_report)
        assert main(argv + ["report"]) == 0
        (backend,) = seen
        if winner is None:
            assert backend is None
        else:
            assert backend.root == str(dirs[winner])

    @pytest.mark.parametrize("flags, env_set, winner", CACHE_SELECTIONS)
    def test_warm(self, tmp_path, monkeypatch, flags, env_set, winner):
        # A fresh process: the registry first loads after the selection.
        import subprocess
        import sys

        argv, dirs = _selection_argv(tmp_path, monkeypatch, flags, env_set)
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro", "--instructions", "5000",
                *argv, "warm", "--suite", "ibs-mach3", "--config",
                "economy", "--mechanism", "demand",
            ],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        for name, directory in dirs.items():
            if name == winner:
                # Traces, their line runs and the results, side by side.
                assert (directory / "results").is_dir()
                assert any(
                    directory.glob("traces/gcc-mach3-5000-0-*/digest.json")
                )
            else:
                assert not directory.exists()
        if winner is None:
            assert "memory only" in proc.stdout
