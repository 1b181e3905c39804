"""Workload registry and trace cache.

Central lookup for every workload model in the library, by name and OS,
plus suite groupings matching the paper's aggregations and a two-level
trace cache:

* a **bounded in-memory LRU** so experiments that sweep hundreds of
  cache configurations over the same workloads synthesize each trace
  once, without letting a full ``repro report`` over every suite grow
  memory without limit.  An entry holds a trace key's trace, the
  instruction line-run streams kept for it (:func:`keep_line_runs`:
  a long-lived caller such as ``repro serve`` keeps only the streams
  its evaluations read and drops the trace's columns), or both; the
  entry and byte bounds cover both; and
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
import threading
from dataclasses import dataclass, field

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

#: :class:`Trace` memo key prefix of its line-run streams (see
#: :meth:`Trace.ifetch_line_runs`).
_RUNS_MEMO = "ifetch_line_runs"


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        return default


def _file_backed(column: np.ndarray) -> bool:
    base = column
    while base is not None:
        if isinstance(base, np.memmap):
            return True
        base = getattr(base, "base", None)
    return False


def _resident_bytes(columns) -> int:
    """Bytes of ``columns`` not backed by a memory-mapped file."""
    return sum(column.nbytes for column in columns if not _file_backed(column))


@dataclass
class _Entry:
    """What the cache holds for one trace key, and the bytes charged."""

    trace: Trace | None = None
    streams: dict[int, LineRuns] = field(default_factory=dict)
    trace_bytes: int = 0
    stream_bytes: int = 0


class BoundedTraceCache:
    """An LRU cache of trace inputs, bounded by entry count and bytes.

    Each entry is one trace key, holding its :class:`Trace`, the
    line-run streams kept for it (:meth:`keep_streams`), or both; it
    counts once against ``max_entries`` and is evicted whole.  Resident
    bytes are the trace's columns plus the kept streams' columns;
    memory-mapped ones (loaded from the disk layer) are charged zero —
    their pages are file-backed, reclaimable, and shared between
    processes.  Every method holds one lock, so the server's executor
    threads may share the cache.
    """

    def __init__(self, max_entries: int, max_bytes: int):
        if max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._entries: dict[tuple, _Entry] = {}
        self.trace_bytes = 0
        self.stream_bytes = 0
        self._lock = threading.RLock()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

    @property
    def current_bytes(self) -> int:
        """Resident bytes charged against ``max_bytes``."""
        return self.trace_bytes + self.stream_bytes

    def stats(self) -> dict[str, int]:
        """Traces and kept streams held, and the bytes of each."""
        with self._lock:
            return {
                "entries": sum(
                    entry.trace is not None for entry in self._entries.values()
                ),
                "resident_bytes": self.trace_bytes,
                "stream_entries": sum(
                    bool(entry.streams) for entry in self._entries.values()
                ),
                "stream_bytes": self.stream_bytes,
            }

    def _touch(self, key: tuple, entry: _Entry) -> None:
        # Move-to-end keeps dict order = LRU order.
        del self._entries[key]
        self._entries[key] = entry

    def _charge(self, entry: _Entry) -> None:
        """Recount one entry's bytes after its trace or streams changed."""
        self.trace_bytes -= entry.trace_bytes
        self.stream_bytes -= entry.stream_bytes
        trace = entry.trace
        entry.trace_bytes = 0 if trace is None else _resident_bytes(
            (trace.addresses, trace.kinds, trace.components)
        )
        entry.stream_bytes = sum(
            _resident_bytes((runs.lines, runs.counts, runs.first_offsets))
            for runs in entry.streams.values()
        )
        self.trace_bytes += entry.trace_bytes
        self.stream_bytes += entry.stream_bytes

    def _drop(self, key: tuple) -> None:
        entry = self._entries.pop(key)
        self.trace_bytes -= entry.trace_bytes
        self.stream_bytes -= entry.stream_bytes

    def get(self, key: tuple) -> Trace | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry.trace is None:
                return None
            self._touch(key, entry)
            return entry.trace

    def put(self, key: tuple, trace: Trace) -> None:
        """Cache ``trace``; the key's kept streams join its memo."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                entry = self._entries[key] = _Entry()
            else:
                self._touch(key, entry)
            for line_size, runs in entry.streams.items():
                trace._cache[(_RUNS_MEMO, line_size)] = runs
            entry.trace = trace
            self._charge(entry)
            self._evict()

    def line_runs(self, key: tuple, line_size: int) -> LineRuns | None:
        """The stream kept for ``key`` at ``line_size``, if any."""
        with self._lock:
            entry = self._entries.get(key)
            runs = None if entry is None else entry.streams.get(line_size)
            if runs is not None:
                self._touch(key, entry)
            return runs

    def keep_streams(self, key: tuple) -> None:
        """Keep the streams ``key``'s trace has encoded; drop the trace.

        The trace's columns are uncharged and no longer referenced by
        the cache; its memoized line runs move to the entry, and with
        them stay their line-order memos and miss masks.  An entry left
        holding nothing is removed.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry.trace is None:
                return
            for memo_key, value in list(entry.trace._cache.items()):
                if isinstance(memo_key, tuple) and memo_key[0] == _RUNS_MEMO:
                    entry.streams.setdefault(memo_key[1], value)
            entry.trace = None
            if entry.streams:
                self._charge(entry)
                self._evict()
            else:
                self._drop(key)

    def _evict(self) -> None:
        while len(self._entries) > self.max_entries or (
            self.current_bytes > self.max_bytes and len(self._entries) > 1
        ):
            self._drop(next(iter(self._entries)))

    def discard(self, key: tuple) -> Trace | None:
        """Drop one key's trace (if cached) and return it, uncharging its
        bytes.  Streams kept for the key stay."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry.trace is None:
                return None
            trace = entry.trace
            if entry.streams:
                entry.trace = None
                self._charge(entry)
            else:
                self._drop(key)
            return trace

    def rebound(self, max_entries: int, max_bytes: int) -> None:
        """Change the limits and evict down to them immediately."""
        if max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        with self._lock:
            self.max_entries = max_entries
            self.max_bytes = max_bytes
            self._evict()

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.trace_bytes = 0
            self.stream_bytes = 0


_trace_cache = BoundedTraceCache(
    max_entries=_env_int(TRACE_CACHE_ENTRIES_ENV, _DEFAULT_MAX_ENTRIES),
    max_bytes=_env_int(TRACE_CACHE_BYTES_ENV, _DEFAULT_MAX_BYTES),
)


def _reset_trace_cache_lock() -> None:
    # A fork child inherits the lock in whatever state another thread
    # of the parent held it; start the child with a fresh one.
    _trace_cache._lock = threading.RLock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_trace_cache_lock)

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

    Memoized at three levels: the streams kept for the trace key (see
    :func:`keep_line_runs`) answer first, without the trace, as a
    memory hit; then the trace's own memo (in memory, shared by every
    sweep over the same trace object); and — when the disk layer is
    active — a persistent artifact next to the owning trace, so a warm
    rerun skips both synthesis and re-encoding.  Kept streams rejoin
    the memo of a reloaded trace, so each (trace key, line size) has
    one :class:`LineRuns` object per process while it stays cached.
    """
    key = (name, os_name, n_instructions, seed)
    runs = _trace_cache.line_runs(key, line_size)
    if runs is not None:
        _notify_cache(TRACE_CACHE_MEMORY_HIT)
        return runs
    trace = get_trace(name, os_name, n_instructions, seed)
    memo_key = (_RUNS_MEMO, line_size)
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


def keep_line_runs(
    name: str, os_name: str, n_instructions: int, seed: int
) -> None:
    """Keep one trace's encoded line-run streams; drop its columns.

    The streams the cached trace has encoded stay in the in-memory
    cache, charged to its bounds, and :func:`get_line_runs` answers
    them without the trace; their line-order memos and miss masks stay
    with them.  The trace leaves the cache (it is freed once no caller
    holds it).  Evicting the entry later drops the streams, and their
    memos and masks follow through the finalizers of
    :func:`repro.caches.vectorized.line_order_cache`.  A trace that is
    not cached, or has encoded no stream, keeps nothing.
    """
    _trace_cache.keep_streams((name, os_name, n_instructions, seed))


def configure_trace_cache(
    max_entries: int | None = None, max_bytes: int | None = None
) -> None:
    """Adjust the in-memory cache bounds (evicting immediately if over)."""
    _trace_cache.rebound(
        max_entries if max_entries is not None else _trace_cache.max_entries,
        max_bytes if max_bytes is not None else _trace_cache.max_bytes,
    )


def trace_cache_stats() -> dict[str, int]:
    """What the in-memory cache holds, and its bounds.

    ``entries``/``resident_bytes`` count the traces held and their
    columns; ``stream_entries``/``stream_bytes`` the trace keys with
    kept line-run streams and those streams' columns.  ``max_entries``
    bounds the trace keys held (each once, whatever it holds) and
    ``max_bytes`` the sum of both byte counts.
    """
    return {
        **_trace_cache.stats(),
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
    Streams kept for the trace (:func:`keep_line_runs`) stay, and the
    disk layer is untouched.
    """
    _trace_cache.discard((name, os_name, n_instructions, seed))


def clear_trace_cache() -> None:
    """Drop all cached traces and kept streams (tests use this to bound
    memory)."""
    _trace_cache.clear()
