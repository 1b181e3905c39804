"""Unit tests for the persistent on-disk trace/artifact cache."""

import dataclasses
import errno
import os
import shutil

import numpy as np
import pytest

from repro.runner import cachedir
from repro.runner.cache import TraceDiskCache, params_fingerprint
from repro.runner.cachedir import select_cache_dir, selected_cache_dir
from repro.trace.rle import to_line_runs
from repro.workloads import params as params_module
from repro.workloads import registry
from repro.workloads.generator import GENERATOR_VERSION, synthesize_trace
from repro.workloads.registry import (
    clear_trace_cache,
    get_line_runs,
    get_trace,
    get_workload,
    set_trace_cache_backend,
)

N = 20_000
SEED = 11


def _is_file_backed(column: np.ndarray) -> bool:
    """Whether a column's storage is a memory-mapped file.

    ``Trace.__post_init__`` normalizes columns with ``ascontiguousarray``,
    which turns a loaded ``np.memmap`` into a plain ndarray *view* of it
    — still file-backed, so walk the base chain.
    """
    base = column
    while base is not None:
        if isinstance(base, np.memmap):
            return True
        base = getattr(base, "base", None)
    return False


@pytest.fixture(autouse=True)
def _isolated_backend():
    """Each test starts with no disk backend and a cold in-memory cache."""
    saved = registry._disk_cache
    set_trace_cache_backend(None)
    clear_trace_cache()
    yield
    registry._disk_cache = saved
    clear_trace_cache()


@pytest.fixture
def params():
    return get_workload("gcc", "mach3")


@pytest.fixture
def trace(params):
    return synthesize_trace(params, N, seed=SEED)


class TestFingerprint:
    def test_stable(self, params):
        assert params_fingerprint(params) == params_fingerprint(params)

    def test_sensitive_to_params(self, params):
        tweaked = dataclasses.replace(
            params, burst_visits=params.burst_visits + 1.0
        )
        assert params_fingerprint(params) != params_fingerprint(tweaked)

    def test_sensitive_to_generator_version(self, params):
        assert params_fingerprint(params, generator_version=1) != (
            params_fingerprint(params, generator_version=2)
        )

    def test_distinct_workloads(self):
        a = params_fingerprint(get_workload("gcc", "mach3"))
        b = params_fingerprint(get_workload("groff", "mach3"))
        assert a != b

    def test_computed_once_per_object(self, tmp_path, params, monkeypatch):
        calls = []
        compute = params_module._fingerprint
        monkeypatch.setattr(params_module, "_FINGERPRINTS", {})
        monkeypatch.setattr(
            params_module,
            "_fingerprint",
            lambda *args: calls.append(args) or compute(*args),
        )
        cache = TraceDiskCache(tmp_path)
        assert cache.load(params, N, SEED) is None
        assert cache.load(params, N, SEED) is None
        assert params_fingerprint(params) == compute(params, GENERATOR_VERSION)
        assert len(calls) == 1

    def test_memo_keys_on_object_and_version(self, params, monkeypatch):
        monkeypatch.setattr(params_module, "_FINGERPRINTS", {})
        memoized = params_fingerprint(params)
        tweaked = dataclasses.replace(params, load_rate=params.load_rate / 2)
        assert params_fingerprint(tweaked) != memoized
        assert params_fingerprint(tweaked) == params_module._fingerprint(
            tweaked, GENERATOR_VERSION
        )
        older = params_fingerprint(params, generator_version=1)
        assert older != memoized
        assert older == params_module._fingerprint(params, 1)
        assert params_fingerprint(params) == memoized

    def test_memo_is_bounded(self, params, monkeypatch):
        monkeypatch.setattr(params_module, "_FINGERPRINTS", {})
        monkeypatch.setattr(params_module, "_FINGERPRINTS_MAX", 4)
        for k in range(10):
            params_fingerprint(
                dataclasses.replace(params, burst_visits=1.0 + k)
            )
        assert len(params_module._FINGERPRINTS) == 4


class TestRoundTrip:
    def test_miss_on_empty_cache(self, tmp_path, params):
        cache = TraceDiskCache(tmp_path)
        assert cache.load(params, N, SEED) is None

    def test_trace_round_trip(self, tmp_path, params, trace):
        cache = TraceDiskCache(tmp_path)
        cache.store(trace, params, N, SEED)
        loaded = cache.load(params, N, SEED)
        assert loaded is not None
        assert np.array_equal(loaded.addresses, trace.addresses)
        assert np.array_equal(loaded.kinds, trace.kinds)
        assert np.array_equal(loaded.components, trace.components)

    def test_loaded_trace_is_memory_mapped(self, tmp_path, params, trace):
        cache = TraceDiskCache(tmp_path)
        cache.store(trace, params, N, SEED)
        loaded = cache.load(params, N, SEED)
        assert _is_file_backed(loaded.addresses)
        assert _is_file_backed(loaded.kinds)

    def test_store_idempotent(self, tmp_path, params, trace):
        cache = TraceDiskCache(tmp_path)
        first = cache.store(trace, params, N, SEED)
        second = cache.store(trace, params, N, SEED)
        assert first == second
        assert len(cache.traces.entries()) == 1

    def test_line_runs_round_trip(self, tmp_path, params, trace):
        cache = TraceDiskCache(tmp_path)
        cache.store(trace, params, N, SEED)
        runs = to_line_runs(trace.ifetch_addresses(), 32)
        cache.store_line_runs(runs, params, N, SEED)
        loaded = cache.load_line_runs(params, N, SEED, 32)
        assert loaded is not None
        assert loaded.line_size == 32
        assert np.array_equal(loaded.lines, runs.lines)
        assert np.array_equal(loaded.counts, runs.counts)
        assert np.array_equal(loaded.first_offsets, runs.first_offsets)

    def test_int64_line_runs_load_narrow_and_identical(
        self, tmp_path, params, trace
    ):
        # Older caches wrote int64 counts and first offsets; they load
        # into the narrow columns and drive every kernel identically.
        from repro.caches.base import CacheGeometry
        from repro.fetch.timing import MemoryTiming
        from repro.fetch.vectorized import (
            VECTORIZED_MECHANISMS,
            run_vectorized,
            supports,
        )

        cache = TraceDiskCache(tmp_path)
        entry = cache.store(trace, params, N, SEED)
        runs = to_line_runs(trace.ifetch_addresses(), 32)
        name = os.path.basename(entry) + "-32"
        cache.line_runs.publish(
            name,
            lambda staging: np.savez(
                os.path.join(staging, "runs.npz"),
                lines=runs.lines,
                counts=runs.counts.astype(np.int64),
                first_offsets=runs.first_offsets.astype(np.int64),
            ),
        )
        loaded = cache.load_line_runs(params, N, SEED, 32)
        assert loaded.counts.dtype == np.int32
        assert loaded.first_offsets.dtype == np.uint8
        timing = MemoryTiming(latency=6, bytes_per_cycle=8)
        for geometry in (CacheGeometry(4096, 32, 1), CacheGeometry(4096, 32, 2)):
            for mechanism in VECTORIZED_MECHANISMS:
                if not supports(geometry, timing, mechanism) or (
                    mechanism == "victim" and geometry.associativity != 1
                ):
                    continue
                assert run_vectorized(
                    loaded, geometry, timing, mechanism
                ) == run_vectorized(runs, geometry, timing, mechanism)

    def test_line_runs_require_trace_entry(self, tmp_path, params, trace):
        cache = TraceDiskCache(tmp_path)
        runs = to_line_runs(trace.ifetch_addresses(), 32)
        assert cache.store_line_runs(runs, params, N, SEED) is None
        assert cache.load_line_runs(params, N, SEED, 32) is None


class TestInvalidation:
    def test_params_change_misses(self, tmp_path, params, trace):
        cache = TraceDiskCache(tmp_path)
        cache.store(trace, params, N, SEED)
        tweaked = dataclasses.replace(
            params, burst_visits=params.burst_visits + 1.0
        )
        assert cache.load(tweaked, N, SEED) is None

    def test_generator_version_bump_misses(
        self, tmp_path, params, trace, monkeypatch
    ):
        cache = TraceDiskCache(tmp_path)
        cache.store(trace, params, N, SEED)
        # The version is defined with the params records, where the
        # fingerprint reads it.
        monkeypatch.setattr(
            params_module, "GENERATOR_VERSION", GENERATOR_VERSION + 1
        )
        assert cache.load(params, N, SEED) is None

    def test_foreign_directory_is_a_miss(self, tmp_path, params, trace):
        cache = TraceDiskCache(tmp_path)
        entry = cache.store(trace, params, N, SEED)
        shutil.rmtree(entry)
        os.makedirs(entry)
        with open(os.path.join(entry, "garbage.txt"), "w") as handle:
            handle.write("not a trace")
        assert cache.load(params, N, SEED) is None


class TestInventory:
    def test_entries_and_clear(self, tmp_path, params, trace):
        cache = TraceDiskCache(tmp_path)
        assert cache.traces.entries() == []
        cache.store(trace, params, N, SEED)
        infos = cache.traces.entries()
        assert len(infos) == 1
        assert infos[0].meta["name"] == "gcc"
        assert infos[0].meta["os"] == "mach3"
        assert infos[0].meta["n_instructions"] == N
        assert infos[0].bytes > 0
        assert cache.traces.clear() == 1
        assert cache.traces.entries() == []

    def test_artifact_count(self, tmp_path, params, trace):
        cache = TraceDiskCache(tmp_path)
        entry = cache.store(trace, params, N, SEED)
        runs = to_line_runs(trace.ifetch_addresses(), 32)
        cache.store_line_runs(runs, params, N, SEED)
        (info,) = cache.line_runs.entries()
        assert info.meta["line_size"] == 32
        assert info.meta["trace"] == os.path.basename(entry)

    def test_entries_report_generator_version(self, tmp_path, params, trace):
        from repro.workloads.generator import GENERATOR_VERSION

        cache = TraceDiskCache(tmp_path)
        cache.store(trace, params, N, SEED)
        info = cache.traces.entries()[0]
        assert info.meta["generator_version"] == GENERATOR_VERSION

    def test_entries_report_the_version_their_key_uses(
        self, tmp_path, params, trace, monkeypatch
    ):
        """The recorded version and the fingerprint in the entry's key
        are read at the same time, so a bumped version shows in both."""
        monkeypatch.setattr(
            params_module, "GENERATOR_VERSION", GENERATOR_VERSION + 1
        )
        cache = TraceDiskCache(tmp_path)
        cache.store(trace, params, N, SEED)
        assert cache.load(params, N, SEED) is not None
        assert cache.traces.entries()[0].meta["generator_version"] == (
            GENERATOR_VERSION + 1
        )


class TestEnvironment:
    """With no directory selected, ``$REPRO_CACHE_DIR`` names the cache."""

    @pytest.fixture(autouse=True)
    def _nothing_selected(self, monkeypatch):
        monkeypatch.setattr(cachedir, "_selected", cachedir._UNSET)
        monkeypatch.setattr(registry, "_disk_cache", registry._UNSET)

    def test_unset_means_disabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert selected_cache_dir() is None
        assert registry.trace_cache_backend() is None

    def test_env_var_selects_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert selected_cache_dir() == str(tmp_path)
        # The registry builds its backend from the selection on first use.
        assert registry.trace_cache_backend().root == str(tmp_path)

    def test_selection_overrides_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        set_trace_cache_backend(TraceDiskCache(tmp_path / "installed"))
        select_cache_dir(tmp_path / "chosen")
        assert selected_cache_dir() == str(tmp_path / "chosen")
        # An already-loaded registry follows the new selection at once.
        assert registry.trace_cache_backend().root == str(tmp_path / "chosen")
        select_cache_dir(None)
        assert selected_cache_dir() is None
        assert registry.trace_cache_backend() is None


class TestRegistryIntegration:
    def test_get_trace_populates_disk(self, tmp_path):
        set_trace_cache_backend(TraceDiskCache(tmp_path))
        trace = get_trace("gcc", "mach3", N, seed=SEED)
        backend = registry.trace_cache_backend()
        assert len(backend.traces.entries()) == 1
        # A cold in-memory cache now loads from disk: equal data, and
        # memory-mapped rather than freshly synthesized.
        clear_trace_cache()
        reloaded = get_trace("gcc", "mach3", N, seed=SEED)
        assert reloaded is not trace
        assert _is_file_backed(reloaded.addresses)
        assert np.array_equal(reloaded.addresses, trace.addresses)

    def test_get_line_runs_populates_disk(self, tmp_path):
        set_trace_cache_backend(TraceDiskCache(tmp_path))
        runs = get_line_runs("gcc", "mach3", N, seed=SEED, line_size=32)
        assert len(registry.trace_cache_backend().line_runs.entries()) == 1
        # Warm process: memoized on the Trace, same object back.
        assert get_line_runs("gcc", "mach3", N, seed=SEED, line_size=32) is runs
        # Cold process (simulated): the artifact loads from disk.
        clear_trace_cache()
        reloaded = get_line_runs("gcc", "mach3", N, seed=SEED, line_size=32)
        assert np.array_equal(reloaded.lines, runs.lines)
        assert np.array_equal(reloaded.counts, runs.counts)

    def test_failed_disk_writes_still_return_the_value(self, tmp_path):
        class FullDisk(TraceDiskCache):
            def store(self, *args):
                raise OSError(errno.ENOSPC, "No space left on device")

            store_line_runs = store

        set_trace_cache_backend(FullDisk(tmp_path))
        trace = get_trace("gcc", "mach3", N, seed=SEED)
        runs = get_line_runs("gcc", "mach3", N, seed=SEED, line_size=32)
        expected = synthesize_trace(get_workload("gcc", "mach3"), N, seed=SEED)
        assert np.array_equal(trace.addresses, expected.addresses)
        assert np.array_equal(
            runs.lines, to_line_runs(expected.ifetch_addresses(), 32).lines
        )

    def test_disabled_backend_still_works(self):
        trace = get_trace("gcc", "mach3", N, seed=SEED)
        assert get_trace("gcc", "mach3", N, seed=SEED) is trace

    def test_cache_observer_sees_each_outcome(self, tmp_path):
        """One synthesis, one memory hit, one disk hit — in that order."""
        events = []
        registry.add_trace_cache_observer(events.append)
        try:
            set_trace_cache_backend(TraceDiskCache(tmp_path))
            clear_trace_cache()
            get_trace("gcc", "mach3", N, seed=SEED)
            get_trace("gcc", "mach3", N, seed=SEED)
            clear_trace_cache()
            get_trace("gcc", "mach3", N, seed=SEED)
        finally:
            registry.remove_trace_cache_observer(events.append)
        assert events == [
            registry.TRACE_CACHE_SYNTHESIZED,
            registry.TRACE_CACHE_MEMORY_HIT,
            registry.TRACE_CACHE_DISK_HIT,
        ]
