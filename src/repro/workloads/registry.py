"""Workload registry and trace cache.

Central lookup for every workload model in the library, by name and OS,
plus suite groupings matching the paper's aggregations and a two-level
trace cache:

* a **bounded in-memory LRU** so experiments that sweep hundreds of
  cache configurations over the same workloads synthesize each trace
  once, without letting a full ``repro report`` over every suite grow
  memory without limit; and
* an optional **persistent on-disk layer**
  (:class:`repro.runner.cache.TraceDiskCache`) so fresh processes —
  including the parallel sweep runner's workers — memory-map previously
  synthesized traces instead of regenerating them.

The disk layer is configured by the ``REPRO_CACHE_DIR`` environment
variable, the CLI's ``--cache-dir`` flag (both resolved through
:mod:`repro.runner.cachedir`), or programmatically via
:func:`set_trace_cache_backend`; it is off by default.
"""

from __future__ import annotations

import os

import numpy as np

from repro.obs import tracing
from repro.obs.logs import log_event
from repro.runner import timing
from repro.trace.rle import LineRuns
from repro.trace.trace import Trace
from repro.workloads.generator import synthesize_trace
from repro.workloads.os_model import MACH3
# Lookup and suites live in the numpy-free suites module (the CLI parser
# and the server's store-hit path use them); re-exported here.
from repro.workloads.suites import (
    DEFAULT_TRACE_INSTRUCTIONS,
    get_workload,
    list_workloads,
    suite_names,
    suite_workloads,
)

#: Environment knobs bounding the in-memory trace cache.
TRACE_CACHE_ENTRIES_ENV = "REPRO_TRACE_CACHE_ENTRIES"
TRACE_CACHE_BYTES_ENV = "REPRO_TRACE_CACHE_BYTES"

_DEFAULT_MAX_ENTRIES = 64
_DEFAULT_MAX_BYTES = 2 * 1024**3


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        return default


class BoundedTraceCache:
    """An LRU trace cache bounded by entry count and resident bytes.

    Memory-mapped traces (loaded from the disk layer) are charged zero
    resident bytes — their pages are file-backed, reclaimable, and
    shared between processes.
    """

    def __init__(self, max_entries: int, max_bytes: int):
        if max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._entries: dict[tuple, Trace] = {}
        self._bytes: dict[tuple, int] = {}
        self.current_bytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

    @staticmethod
    def _resident_bytes(trace: Trace) -> int:
        total = 0
        for column in (trace.addresses, trace.kinds, trace.components):
            base = column
            file_backed = False
            while base is not None:
                if isinstance(base, np.memmap):
                    file_backed = True
                    break
                base = getattr(base, "base", None)
            if not file_backed:
                total += column.nbytes
        return total

    def get(self, key: tuple) -> Trace | None:
        trace = self._entries.get(key)
        if trace is not None:
            # Move-to-end keeps dict order = LRU order.
            del self._entries[key]
            self._entries[key] = trace
        return trace

    def put(self, key: tuple, trace: Trace) -> None:
        if key in self._entries:
            del self._entries[key]
            self.current_bytes -= self._bytes.pop(key)
        size = self._resident_bytes(trace)
        self._entries[key] = trace
        self._bytes[key] = size
        self.current_bytes += size
        self._evict()

    def _evict(self) -> None:
        while len(self._entries) > self.max_entries or (
            self.current_bytes > self.max_bytes and len(self._entries) > 1
        ):
            victim = next(iter(self._entries))
            del self._entries[victim]
            self.current_bytes -= self._bytes.pop(victim)

    def discard(self, key: tuple) -> Trace | None:
        """Drop one entry (if cached) and return it, uncharging its bytes."""
        trace = self._entries.pop(key, None)
        if trace is not None:
            self.current_bytes -= self._bytes.pop(key)
        return trace

    def rebound(self, max_entries: int, max_bytes: int) -> None:
        """Change the limits and evict down to them immediately."""
        if max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._evict()

    def clear(self) -> None:
        self._entries.clear()
        self._bytes.clear()
        self.current_bytes = 0


_trace_cache = BoundedTraceCache(
    max_entries=_env_int(TRACE_CACHE_ENTRIES_ENV, _DEFAULT_MAX_ENTRIES),
    max_bytes=_env_int(TRACE_CACHE_BYTES_ENV, _DEFAULT_MAX_BYTES),
)

#: Sentinel distinguishing "not configured yet" from "explicitly None".
_UNSET = object()
_disk_cache = _UNSET

#: Trace-cache outcome events, fired once per :func:`get_trace` call.
TRACE_CACHE_MEMORY_HIT = "memory-hit"
TRACE_CACHE_DISK_HIT = "disk-hit"
TRACE_CACHE_SYNTHESIZED = "synthesized"

#: Process-wide cache-outcome observers, for counting lookups across a
#: whole process.  Every outcome also annotates the active span (see
#: :func:`repro.obs.tracing.on_trace_cache`).  Observers must be cheap
#: and must not raise.
_cache_observers: list = []


def add_trace_cache_observer(observer) -> None:
    """Register ``observer(event)`` to fire on every trace lookup.

    ``event`` is one of :data:`TRACE_CACHE_MEMORY_HIT`,
    :data:`TRACE_CACHE_DISK_HIT` or :data:`TRACE_CACHE_SYNTHESIZED`.
    """
    if observer not in _cache_observers:
        _cache_observers.append(observer)


def remove_trace_cache_observer(observer) -> None:
    """Unregister an observer from :func:`add_trace_cache_observer`."""
    try:
        _cache_observers.remove(observer)
    except ValueError:
        pass


def _notify_cache(event: str) -> None:
    tracing.on_trace_cache(event)
    for observer in list(_cache_observers):
        observer(event)


def trace_cache_backend():
    """The active on-disk cache backend, or ``None`` when disabled.

    Built on first use from the process's selected cache directory
    (:func:`repro.runner.cachedir.selected_cache_dir`: the CLI's
    ``--cache-dir``/``--no-disk-cache``, else ``REPRO_CACHE_DIR``);
    override with :func:`set_trace_cache_backend`.
    """
    global _disk_cache
    if _disk_cache is _UNSET:
        from repro.runner.cache import TraceDiskCache
        from repro.runner.cachedir import selected_cache_dir

        root = selected_cache_dir()
        _disk_cache = TraceDiskCache(root) if root else None
    return _disk_cache


def set_trace_cache_backend(backend) -> None:
    """Install (or, with ``None``, disable) the on-disk cache backend.

    ``backend`` is any object with the ``load``/``store`` and
    ``load_line_runs``/``store_line_runs`` methods of
    :class:`repro.runner.cache.TraceDiskCache`.
    """
    global _disk_cache
    _disk_cache = backend


def _persist(store, value, params, n_instructions: int, seed: int) -> None:
    """Write a computed value to the disk layer, best effort.

    The caller already holds the value, so a disk that cannot take it
    (full, read-only) costs only the next run's recomputation; the
    failure is logged rather than failing the cell.
    """
    try:
        store(value, params, n_instructions, seed)
    except OSError as exc:
        log_event(
            "trace_cache_store_failed",
            workload=params.name,
            os=params.os_name,
            error=str(exc),
        )


def get_trace(
    name: str,
    os_name: str = MACH3,
    n_instructions: int = DEFAULT_TRACE_INSTRUCTIONS,
    seed: int = 0,
) -> Trace:
    """Synthesize (or fetch from cache) the trace of one workload."""
    key = (name, os_name, n_instructions, seed)
    trace = _trace_cache.get(key)
    if trace is not None:
        _notify_cache(TRACE_CACHE_MEMORY_HIT)
        return trace
    params = get_workload(name, os_name)
    backend = trace_cache_backend()
    trace = None
    if backend is not None:
        with timing.phase(timing.PHASE_TRACE_LOAD):
            trace = backend.load(params, n_instructions, seed)
    if trace is None:
        with timing.phase(timing.PHASE_SYNTHESIZE):
            trace = synthesize_trace(params, n_instructions, seed=seed)
        if backend is not None:
            _persist(backend.store, trace, params, n_instructions, seed)
        _notify_cache(TRACE_CACHE_SYNTHESIZED)
    else:
        _notify_cache(TRACE_CACHE_DISK_HIT)
    _trace_cache.put(key, trace)
    return trace


def get_line_runs(
    name: str,
    os_name: str = MACH3,
    n_instructions: int = DEFAULT_TRACE_INSTRUCTIONS,
    seed: int = 0,
    line_size: int = 32,
) -> LineRuns:
    """The RLE instruction-fetch stream of one workload at one line size.

    Memoized at three levels: per-:class:`Trace` (in memory, shared by
    every sweep over the same trace object), and — when the disk layer
    is active — as a persistent artifact next to the owning trace, so a
    warm rerun skips both synthesis and re-encoding.
    """
    trace = get_trace(name, os_name, n_instructions, seed)
    memo_key = ("ifetch_line_runs", line_size)
    runs = trace._cache.get(memo_key)
    if runs is not None:
        return runs
    backend = trace_cache_backend()
    params = get_workload(name, os_name)
    runs = None
    if backend is not None:
        with timing.phase(timing.PHASE_TRACE_LOAD):
            runs = backend.load_line_runs(params, n_instructions, seed, line_size)
    if runs is None:
        runs = trace.ifetch_line_runs(line_size)
        if backend is not None:
            _persist(
                backend.store_line_runs, runs, params, n_instructions, seed
            )
    else:
        trace._cache[memo_key] = runs
    return runs


def configure_trace_cache(
    max_entries: int | None = None, max_bytes: int | None = None
) -> None:
    """Adjust the in-memory cache bounds (evicting immediately if over)."""
    _trace_cache.rebound(
        max_entries if max_entries is not None else _trace_cache.max_entries,
        max_bytes if max_bytes is not None else _trace_cache.max_bytes,
    )


def trace_cache_stats() -> dict[str, int]:
    """Entry count, resident bytes, and bounds of the in-memory cache."""
    return {
        "entries": len(_trace_cache),
        "resident_bytes": _trace_cache.current_bytes,
        "max_entries": _trace_cache.max_entries,
        "max_bytes": _trace_cache.max_bytes,
    }


def discard_trace(
    name: str, os_name: str, n_instructions: int, seed: int
) -> None:
    """Drop one trace from the in-memory cache.

    Once no caller holds the trace, its memoized line runs go with it,
    and their line-order memos and miss masks follow through the
    finalizers of :func:`repro.caches.vectorized.line_order_cache`.
    The disk layer is untouched.
    """
    _trace_cache.discard((name, os_name, n_instructions, seed))


def clear_trace_cache() -> None:
    """Drop all cached traces (tests use this to bound memory)."""
    _trace_cache.clear()
