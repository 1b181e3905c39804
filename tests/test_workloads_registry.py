"""Unit tests for the workload registry and trace cache."""

import pytest

from repro.workloads.ibs import IBS_WORKLOADS, ibs_workload
from repro.workloads.registry import (
    clear_trace_cache,
    get_trace,
    get_workload,
    list_workloads,
    suite_names,
    suite_workloads,
)
from repro.workloads.spec import spec_workload


class TestLookups:
    def test_ibs_mach(self):
        workload = get_workload("groff", "mach3")
        assert workload.name == "groff"
        assert workload.os_name == "mach3"

    def test_ibs_ultrix_derived(self):
        workload = get_workload("groff", "ultrix")
        assert workload.os_name == "ultrix"

    @pytest.mark.parametrize("os_name", ["mach3", "ultrix", "spec92"])
    def test_one_object_per_workload(self, os_name):
        # Trace-cache fingerprints are memoized per params object.
        name = list_workloads(os_name)[0][0]
        assert get_workload(name, os_name) is get_workload(name, os_name)

    def test_spec(self):
        workload = get_workload("eqntott", "spec92")
        assert workload.name == "eqntott"

    def test_spec89(self):
        assert get_workload("matrix300", "spec89").os_name == "spec89"

    @pytest.mark.parametrize(
        "name,os_name",
        [("nonesuch", "mach3"), ("groff", "spec92"), ("groff", "bsd")],
    )
    def test_unknown(self, name, os_name):
        with pytest.raises(KeyError):
            get_workload(name, os_name)

    def test_ibs_workload_helper(self):
        assert ibs_workload("gs").name == "gs"
        with pytest.raises(KeyError):
            ibs_workload("nonesuch")

    def test_spec_workload_helper(self):
        assert spec_workload("fpppp").name == "fpppp"
        with pytest.raises(KeyError):
            spec_workload("nonesuch")


class TestSuites:
    def test_suite_names(self):
        names = suite_names()
        for expected in ("ibs-mach3", "ibs-ultrix", "spec92",
                         "specint92", "specfp92", "specint89", "specfp89"):
            assert expected in names

    def test_ibs_suite_has_eight_workloads(self):
        assert len(suite_workloads("ibs-mach3")) == 8
        assert len(suite_workloads("ibs-ultrix")) == 8

    def test_spec92_union(self):
        spec = suite_workloads("spec92")
        assert len(spec) == len(suite_workloads("specint92")) + len(
            suite_workloads("specfp92")
        )

    def test_unknown_suite(self):
        with pytest.raises(KeyError):
            suite_workloads("spec2006")

    def test_list_workloads_filter(self):
        all_pairs = list_workloads()
        mach_only = list_workloads("mach3")
        assert len(mach_only) == 8
        assert set(mach_only).issubset(set(all_pairs))

    def test_every_ibs_workload_has_paper_target(self):
        for workload in IBS_WORKLOADS.values():
            assert workload.target_mpi_8kb is not None
            assert workload.description


class TestTraceCache:
    def test_cache_returns_same_object(self):
        a = get_trace("gcc", "mach3", 10_000, seed=42)
        b = get_trace("gcc", "mach3", 10_000, seed=42)
        assert a is b

    def test_distinct_keys_distinct_traces(self):
        a = get_trace("gcc", "mach3", 10_000, seed=42)
        b = get_trace("gcc", "mach3", 10_000, seed=43)
        assert a is not b

    def test_clear(self):
        a = get_trace("gcc", "mach3", 10_000, seed=44)
        clear_trace_cache()
        b = get_trace("gcc", "mach3", 10_000, seed=44)
        assert a is not b


class TestBoundedCache:
    """The in-memory layer is a bounded LRU, not an unbounded dict."""

    def _restore(self):
        from repro.workloads.registry import configure_trace_cache

        configure_trace_cache(max_entries=64, max_bytes=2 * 1024**3)

    def test_stats_report_bounds(self):
        from repro.workloads.registry import trace_cache_stats

        stats = trace_cache_stats()
        assert stats["max_entries"] > 0
        assert stats["max_bytes"] > 0
        assert stats["entries"] >= 0

    def test_entry_limit_evicts_lru(self):
        from repro.workloads.registry import (
            configure_trace_cache,
            trace_cache_stats,
        )

        try:
            clear_trace_cache()
            configure_trace_cache(max_entries=2)
            a = get_trace("gcc", "mach3", 10_000, seed=50)
            b = get_trace("groff", "mach3", 10_000, seed=50)
            # Touch a so b is now least-recently used.
            assert get_trace("gcc", "mach3", 10_000, seed=50) is a
            c = get_trace("sdet", "mach3", 10_000, seed=50)
            assert trace_cache_stats()["entries"] == 2
            # a (recently used) and c (new) survive; b was evicted.
            assert get_trace("gcc", "mach3", 10_000, seed=50) is a
            assert get_trace("sdet", "mach3", 10_000, seed=50) is c
            assert get_trace("groff", "mach3", 10_000, seed=50) is not b
        finally:
            self._restore()
            clear_trace_cache()

    def test_byte_limit_evicts(self):
        from repro.workloads.registry import (
            configure_trace_cache,
            trace_cache_stats,
        )

        try:
            clear_trace_cache()
            a = get_trace("gcc", "mach3", 10_000, seed=51)
            nbytes = (
                a.addresses.nbytes + a.kinds.nbytes + a.components.nbytes
            )
            # Room for one resident trace but not two.
            configure_trace_cache(max_entries=64, max_bytes=int(nbytes * 1.5))
            get_trace("groff", "mach3", 10_000, seed=51)
            stats = trace_cache_stats()
            assert stats["entries"] == 1
            assert stats["resident_bytes"] <= int(nbytes * 1.5)
        finally:
            self._restore()
            clear_trace_cache()

    def test_discard_uncharges_one_trace(self):
        from repro.workloads.registry import discard_trace, trace_cache_stats

        try:
            clear_trace_cache()
            a = get_trace("gcc", "mach3", 10_000, seed=52)
            b = get_trace("groff", "mach3", 10_000, seed=52)
            b_bytes = b.addresses.nbytes + b.kinds.nbytes + b.components.nbytes
            before = trace_cache_stats()["resident_bytes"]
            discard_trace("groff", "mach3", 10_000, 52)
            discard_trace("groff", "mach3", 10_000, 52)  # absent: no-op
            stats = trace_cache_stats()
            assert stats["entries"] == 1
            assert stats["resident_bytes"] == before - b_bytes
            assert get_trace("gcc", "mach3", 10_000, seed=52) is a
            assert get_trace("groff", "mach3", 10_000, seed=52) is not b
        finally:
            clear_trace_cache()

    def test_release_drops_columns_and_named_streams_apart(self):
        from repro.workloads.registry import (
            discard_trace,
            get_line_runs,
            release_inputs,
            trace_cache_stats,
        )

        key = ("gcc", "mach3", 10_000, 55)
        try:
            clear_trace_cache()
            runs = {size: get_line_runs(*key, size) for size in (16, 32)}
            release_inputs(*key, columns=True)
            stats = trace_cache_stats()
            assert (stats["entries"], stats["resident_bytes"]) == (0, 0)
            assert stats["stream_entries"] == 1
            release_inputs(*key, line_sizes=(16,))
            assert trace_cache_stats()["stream_bytes"] == sum(
                column.nbytes
                for column in (
                    runs[32].lines, runs[32].counts, runs[32].first_offsets
                )
            )
            assert get_line_runs(*key, 32) is runs[32]
            # The last stream gone, the entry goes too.
            release_inputs(*key, line_sizes=(32, 64))
            assert trace_cache_stats()["stream_entries"] == 0
            # Kept streams stay; releasing them never sets the flag.
            kept = get_line_runs(*key, 32)
            discard_trace(*key, keep_streams=True)
            release_inputs(*key, line_sizes=(32,))
            assert get_line_runs(*key, 32) is kept
            other = ("groff", "mach3", 10_000, 55)
            get_line_runs(*other, 32)
            release_inputs(*other, columns=True)
            release_inputs(*other, line_sizes=(32,))
            assert trace_cache_stats()["stream_entries"] == 1
        finally:
            clear_trace_cache()

    def test_rejects_nonpositive_bounds(self):
        import pytest as _pytest

        from repro.workloads.registry import configure_trace_cache

        with _pytest.raises(ValueError):
            configure_trace_cache(max_entries=0)
        with _pytest.raises(ValueError):
            configure_trace_cache(max_bytes=-1)


class TestKeptStreams:
    """A trace's kept line-run streams outlive its columns."""

    def test_kept_streams_rejoin_a_reloaded_trace(self, monkeypatch):
        from repro.trace import rle
        from repro.workloads.registry import (
            discard_trace,
            get_line_runs,
            trace_cache_stats,
        )

        key = ("gcc", "mach3", 10_000, 53)
        try:
            clear_trace_cache()
            runs = get_line_runs(*key, 32)
            discard_trace(*key, keep_streams=True)
            stats = trace_cache_stats()
            assert (stats["entries"], stats["resident_bytes"]) == (0, 0)
            assert stats["stream_entries"] == 1
            assert stats["stream_bytes"] == (
                runs.lines.nbytes + runs.counts.nbytes
                + runs.first_offsets.nbytes
            )
            assert get_line_runs(*key, 32) is runs
            # A reloaded trace shares the kept stream, so the stream is
            # never encoded twice.
            encoded = []
            monkeypatch.setattr(
                rle, "to_line_runs",
                lambda *args: encoded.append(args) or None,
            )
            get_trace(*key[:3], seed=key[3])
            assert get_line_runs(*key, 32) is runs
            assert encoded == []
            assert trace_cache_stats()["entries"] == 1
            # Releasing the trace leaves the kept stream.
            discard_trace(*key)
            stats = trace_cache_stats()
            assert (stats["entries"], stats["stream_entries"]) == (0, 1)
            assert get_line_runs(*key, 32) is runs
        finally:
            clear_trace_cache()

    def test_keeping_an_unencoded_trace_keeps_nothing(self):
        from repro.workloads.registry import discard_trace, trace_cache_stats

        try:
            clear_trace_cache()
            get_trace("gcc", "mach3", 10_000, seed=54)
            discard_trace("gcc", "mach3", 10_000, 54, keep_streams=True)
            # absent: no-op
            discard_trace("groff", "mach3", 10_000, 54, keep_streams=True)
            stats = trace_cache_stats()
            assert (stats["entries"], stats["stream_entries"]) == (0, 0)
            assert stats["resident_bytes"] == stats["stream_bytes"] == 0
        finally:
            clear_trace_cache()

    def test_threads_keep_the_cache_accounts(self):
        """The server's executor threads share the cache: concurrent
        puts, keeps, discards and lookups lose no byte or entry."""
        import random
        import sys
        import threading

        import numpy as np

        from repro.trace.rle import to_line_runs
        from repro.trace.trace import Trace
        from repro.workloads.registry import BoundedTraceCache

        cache = BoundedTraceCache(max_entries=3, max_bytes=1 << 30)
        traces, streams = [], []
        for index in range(5):
            addresses = np.arange(256, dtype=np.uint64) * 4 + index * 8192
            zeros = np.zeros(256, dtype=np.uint8)  # instruction fetches
            traces.append(Trace(addresses, zeros, zeros))
            streams.append(to_line_runs(addresses, 32))

        def work(seed):
            rng = random.Random(seed)
            for _ in range(3000):
                index = rng.randrange(len(traces))
                key = ("w", index)
                op = rng.randrange(6)
                if op == 0:
                    cache.put(key, traces[index])
                elif op == 1:
                    cache.put_line_runs(key, 32, streams[index])
                elif op == 2:
                    cache.discard(key, keep_streams=True)
                elif op == 3:
                    cache.discard(key)
                elif op == 4:
                    cache.get(key)
                else:
                    cache.line_runs(key, 32)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(target=work, args=(seed,), daemon=True)
                for seed in range(8)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        entries = list(cache._entries.values())
        assert len(entries) <= 3
        trace_bytes = sum(
            entry.trace.addresses.nbytes + 2 * entry.trace.kinds.nbytes
            for entry in entries if entry.trace is not None
        )
        stream_bytes = sum(
            runs.lines.nbytes + runs.counts.nbytes + runs.first_offsets.nbytes
            for entry in entries
            for runs in entry.streams.values()
        )
        assert (cache.trace_bytes, cache.stream_bytes) == (
            trace_bytes, stream_bytes
        )


class TestStreamBeforeTrace:
    """A persisted stream answers without its trace."""

    #: Counts the disk layer's loads for one ``get_line_runs`` call.
    _FRESH_READ = """
import json, sys
from repro.runner.cache import TraceDiskCache
from repro.workloads import registry

calls = []
load, load_line_runs = TraceDiskCache.load, TraceDiskCache.load_line_runs

def counted_load(self, *args):
    calls.append("trace load")
    return load(self, *args)

def counted_load_line_runs(self, *args):
    calls.append("line-runs load")
    return load_line_runs(self, *args)

TraceDiskCache.load = counted_load
TraceDiskCache.load_line_runs = counted_load_line_runs
registry.set_trace_cache_backend(TraceDiskCache(sys.argv[1]))
runs = registry.get_line_runs("gcc", "mach3", 20_000, 0, 32)
print(json.dumps({"calls": calls, "runs": len(runs)}))
"""

    def test_fresh_process_reads_the_stream_not_the_trace(self, tmp_path):
        import json
        import os
        import subprocess
        import sys

        from repro.runner.cache import TraceDiskCache
        from repro.workloads import registry

        saved = registry._disk_cache
        registry.set_trace_cache_backend(TraceDiskCache(tmp_path))
        try:
            clear_trace_cache()
            runs = registry.get_line_runs("gcc", "mach3", 20_000, 0, 32)
        finally:
            registry.set_trace_cache_backend(saved)
            clear_trace_cache()
        env = dict(os.environ, PYTHONPATH="src")
        env.pop("REPRO_CACHE_DIR", None)
        fresh = subprocess.run(
            [sys.executable, "-c", self._FRESH_READ, str(tmp_path)],
            capture_output=True, text=True, check=True, env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert json.loads(fresh.stdout) == {
            "calls": ["line-runs load"], "runs": len(runs),
        }


class TestCacheBoundSettings:
    """The environment's cache bounds are positive integers or errors."""

    @pytest.mark.parametrize(
        "name,raw",
        [
            ("REPRO_TRACE_CACHE_ENTRIES", "0"),
            ("REPRO_TRACE_CACHE_ENTRIES", "many"),
            ("REPRO_TRACE_CACHE_BYTES", "-1"),
            ("REPRO_TRACE_CACHE_BYTES", "2GB"),
        ],
    )
    def test_bad_bound_names_the_variable(self, monkeypatch, name, raw):
        from repro._util.validate import env_positive_int

        monkeypatch.setenv(name, raw)
        with pytest.raises(ValueError) as caught:
            env_positive_int(name, 64)
        assert name in str(caught.value)
        assert repr(raw) in str(caught.value)

    def test_good_and_unset_bounds(self, monkeypatch):
        from repro._util.validate import env_positive_int

        monkeypatch.setenv("REPRO_TRACE_CACHE_ENTRIES", " 8 ")
        assert env_positive_int("REPRO_TRACE_CACHE_ENTRIES", 64) == 8
        monkeypatch.delenv("REPRO_TRACE_CACHE_ENTRIES")
        assert env_positive_int("REPRO_TRACE_CACHE_ENTRIES", 64) == 64

    def test_cli_rejects_a_zero_entry_bound(self):
        import os
        import subprocess
        import sys

        env = dict(
            os.environ, PYTHONPATH="src", REPRO_TRACE_CACHE_ENTRIES="0"
        )
        run = subprocess.run(
            [
                sys.executable, "-m", "repro", "--instructions", "10000",
                "--no-disk-cache", "experiment", "table5",
            ],
            capture_output=True, text=True, env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert run.returncode != 0
        assert "REPRO_TRACE_CACHE_ENTRIES must be a positive integer, " \
            "got '0'" in run.stderr
