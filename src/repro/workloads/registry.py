"""Workload registry and trace cache.

Central lookup for every workload model in the library, by name and OS,
plus suite groupings matching the paper's aggregations and a two-level
trace cache:

* a **bounded in-memory LRU** so experiments that sweep hundreds of
  cache configurations over the same workloads synthesize each trace
  once, without letting a full ``repro report`` over every suite grow
  memory without limit.  An entry is one trace key: its trace, its
  instruction line-run streams, or both.  The entry's streams are the
  only memo of them in the process (:func:`get_line_runs` fills it;
  the trace object memoizes none), so each (trace key, line size) has
  one :class:`~repro.trace.rle.LineRuns` while the entry is cached.
  :func:`discard_trace` drops an entry whole, or with
  ``keep_streams`` only its trace: a long-lived caller such as
  ``repro serve`` keeps the streams its evaluations read and drops the
  trace's columns.  :func:`release_inputs` drops a trace's columns or
  named streams one at a time, as the plan executor's readers of each
  finish.  The entry and byte bounds cover both; and
* an optional **persistent on-disk layer**
  (:class:`repro.runner.cache.TraceDiskCache`) so fresh processes —
  including the parallel sweep runner's workers — memory-map previously
  synthesized traces and encoded streams instead of regenerating them.

The disk layer is configured by the ``REPRO_CACHE_DIR`` environment
variable, the CLI's ``--cache-dir`` flag (both resolved through
:mod:`repro.runner.cachedir`), or programmatically via
:func:`set_trace_cache_backend`; it is off by default.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from repro._util.validate import env_positive_int
from repro.obs import tracing
from repro.obs.logs import log_event
from repro.runner import timing
from repro.trace import rle
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
    #: Whether the streams outlive the trace (see :meth:`discard`).
    kept: bool = False
    trace_bytes: int = 0
    stream_bytes: int = 0


class BoundedTraceCache:
    """An LRU cache of trace inputs, bounded by entry count and bytes.

    Each entry is one trace key, holding its :class:`Trace`, its
    line-run streams (:meth:`put_line_runs`), or both; it counts once
    against ``max_entries`` and is evicted whole.  Resident bytes are
    the trace's columns plus the streams' columns;
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
        """Traces and streams held, and the bytes of each."""
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

    def _entry(self, key: tuple) -> _Entry:
        """``key``'s entry, most recently used; created if absent."""
        entry = self._entries.get(key)
        if entry is None:
            entry = self._entries[key] = _Entry()
        else:
            self._touch(key, entry)
        return entry

    def put(self, key: tuple, trace: Trace) -> None:
        """Cache ``trace`` in ``key``'s entry."""
        with self._lock:
            entry = self._entry(key)
            entry.trace = trace
            self._charge(entry)
            self._evict()

    def line_runs(self, key: tuple, line_size: int) -> LineRuns | None:
        """The stream cached for ``key`` at ``line_size``, if any."""
        with self._lock:
            entry = self._entries.get(key)
            runs = None if entry is None else entry.streams.get(line_size)
            if runs is not None:
                self._touch(key, entry)
            return runs

    def put_line_runs(
        self, key: tuple, line_size: int, runs: LineRuns
    ) -> LineRuns:
        """Cache ``runs`` as ``key``'s stream at ``line_size``.

        Returns the cached stream: ``runs``, or the one another thread
        cached first, so a stream has one object while it is cached.
        """
        with self._lock:
            entry = self._entry(key)
            runs = entry.streams.setdefault(line_size, runs)
            self._charge(entry)
            self._evict()
            return runs

    def _evict(self) -> None:
        while len(self._entries) > self.max_entries or (
            self.current_bytes > self.max_bytes and len(self._entries) > 1
        ):
            self._drop(next(iter(self._entries)))

    def release(
        self,
        key: tuple,
        *,
        columns: bool = False,
        line_sizes: Iterable[int] = (),
    ) -> tuple[Trace | None, list[LineRuns]]:
        """Drop one key's trace (``columns``) and/or named streams.

        Returns what was dropped: the trace (``None`` if not asked for
        or not cached) and the streams.  Streams of an entry whose
        streams are kept (see :meth:`discard`) stay; this call never
        sets that flag.  An entry left holding nothing is removed.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None, []
            trace = None
            if columns:
                trace, entry.trace = entry.trace, None
            dropped = [] if entry.kept else [
                entry.streams.pop(size)
                for size in line_sizes
                if size in entry.streams
            ]
            if entry.trace is None and not entry.streams:
                self._drop(key)
            else:
                self._charge(entry)
            return trace, dropped

    def discard(self, key: tuple, keep_streams: bool = False) -> Trace | None:
        """Drop one key's trace and return it (``None`` if not cached).

        The key's streams go too, unless ``keep_streams`` is set now or
        was set by an earlier discard: kept streams stay, charged to
        the bounds, until eviction or :meth:`clear`.  An entry left
        holding nothing is removed.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            entry.kept = entry.kept or keep_streams
            trace, _ = self.release(
                key, columns=True, line_sizes=tuple(entry.streams)
            )
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
    max_entries=env_positive_int(
        TRACE_CACHE_ENTRIES_ENV, _DEFAULT_MAX_ENTRIES
    ),
    max_bytes=env_positive_int(TRACE_CACHE_BYTES_ENV, _DEFAULT_MAX_BYTES),
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

#: Trace-cache outcome events, fired once per :func:`get_trace` or
#: :func:`get_line_runs` call.
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

    Answered, in order, from the trace key's cached stream (a memory
    hit); the disk layer's persisted stream (a disk hit, without
    loading the trace); or the trace (:func:`get_trace`), encoded here
    and persisted.  The stream is then cached in the key's entry, the
    one memo of it in the process.
    """
    (runs,) = get_line_runs_at(
        name, os_name, n_instructions, seed, (line_size,)
    )
    return runs


def get_line_runs_at(
    name: str,
    os_name: str,
    n_instructions: int,
    seed: int,
    line_sizes: Iterable[int],
) -> list[LineRuns]:
    """One workload's RLE instruction-fetch streams at several line
    sizes, in the order asked.

    Each is answered as :func:`get_line_runs` answers one.  The streams
    that must be encoded share one selection of the trace's fetch
    addresses, freed after the last of them is encoded.
    """
    key = (name, os_name, n_instructions, seed)
    line_sizes = list(line_sizes)
    found: dict[int, LineRuns] = {}
    missing: list[int] = []
    params = backend = None
    for line_size in dict.fromkeys(line_sizes):
        runs = _trace_cache.line_runs(key, line_size)
        if runs is not None:
            _notify_cache(TRACE_CACHE_MEMORY_HIT)
            found[line_size] = runs
            continue
        if params is None:
            params = get_workload(name, os_name)
            backend = trace_cache_backend()
        if backend is not None:
            with timing.phase(timing.PHASE_TRACE_LOAD):
                runs = backend.load_line_runs(
                    params, n_instructions, seed, line_size
                )
        if runs is None:
            missing.append(line_size)
            continue
        _notify_cache(TRACE_CACHE_DISK_HIT)
        found[line_size] = _trace_cache.put_line_runs(key, line_size, runs)
    if missing:
        trace = get_trace(name, os_name, n_instructions, seed)
        addresses = trace.ifetch_addresses()
        for line_size in missing:
            runs = rle.to_line_runs(addresses, line_size)
            if backend is not None:
                _persist(
                    backend.store_line_runs, runs, params, n_instructions,
                    seed,
                )
            found[line_size] = _trace_cache.put_line_runs(
                key, line_size, runs
            )
        del addresses
    return [found[line_size] for line_size in line_sizes]


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
    line-run streams and those streams' columns.  ``max_entries``
    bounds the trace keys held (each once, whatever it holds) and
    ``max_bytes`` the sum of both byte counts.
    """
    return {
        **_trace_cache.stats(),
        "max_entries": _trace_cache.max_entries,
        "max_bytes": _trace_cache.max_bytes,
    }


def discard_trace(
    name: str,
    os_name: str,
    n_instructions: int,
    seed: int,
    keep_streams: bool = False,
) -> None:
    """Drop one trace from the in-memory cache, with its streams.

    Once no caller holds them, the streams' line-order memos and miss
    masks follow through the finalizers of
    :func:`repro.caches.vectorized.line_order_cache`.  With
    ``keep_streams`` (or after an earlier call with it) the streams
    stay, charged to the bounds, and :func:`get_line_runs` answers them
    without the trace; evicting the entry later drops them.  The disk
    layer is untouched.
    """
    _trace_cache.discard(
        (name, os_name, n_instructions, seed), keep_streams
    )


def release_inputs(
    name: str,
    os_name: str,
    n_instructions: int,
    seed: int,
    *,
    columns: bool = False,
    line_sizes: Iterable[int] = (),
) -> None:
    """Drop one trace's columns and/or named streams from the in-memory
    cache.

    The plan executor calls this as each input's last reader finishes.
    Unlike :func:`discard_trace` with ``keep_streams``, it never marks
    the trace's streams as kept, and it leaves streams already kept
    alone.  A released stream's line-order memo and miss masks follow
    through the finalizers of
    :func:`repro.caches.vectorized.line_order_cache`.  The disk layer
    is untouched.
    """
    _trace_cache.release(
        (name, os_name, n_instructions, seed),
        columns=columns,
        line_sizes=line_sizes,
    )


def clear_trace_cache() -> None:
    """Drop all cached traces and streams (tests use this to bound
    memory)."""
    _trace_cache.clear()
