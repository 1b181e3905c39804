"""Span-based tracing: one timeline for everything a run does.

The library measures itself three ways — phase wall-times
(:mod:`repro.runner.timing`), engine-dispatch counters
(:mod:`repro.fetch.dispatch`), and trace-cache lookup events
(:mod:`repro.workloads.registry`).  Each of those sites calls one of
:func:`on_phase`, :func:`on_dispatch` or :func:`on_trace_cache`, which
annotate whichever span is active on the calling thread.  A
:func:`span` context manager builds the tree of timed spans under a
per-run **trace id**, so a single timeline answers "where did this
run's time go, per cell, per phase, per engine" — the software analogue
of the paper's logic analyzer on the CPU pins.  Run manifests and the
serving tier's ``/metrics`` series are derived from the finished span
records.

A run is traced while a :class:`RunRecorder` is bound to the current
thread (via :func:`run` or :meth:`RunRecorder.bind`); outside any
recorder :func:`span` and the annotation functions are inert and cost a
thread-local read.  Every experiment cell and every plan-priming pass
is recorded regardless, by :func:`capture`: the block's span tree goes
into a local recorder, the per-cell and priming timings are rolled up
from those records, and a bound run adopts them under its current span.
Pool workers ship their captured records back with the cell results;
the coordinating run re-parents them under its own trace id with
:meth:`RunRecorder.adopt` when it is traced.

This module imports nothing from the rest of the library, so every
layer can call into it without import cycles.
"""

from __future__ import annotations

import os
import threading
import time
import uuid
from contextlib import contextmanager
from typing import Iterator

#: Per-span cap on discrete annotation events.  Aggregates (phases,
#: dispatch counts, cache outcomes) are unbounded dicts and never drop;
#: only the point-in-time event list is capped, with a drop counter.
MAX_EVENTS_PER_SPAN = 512

_tls = threading.local()


def new_trace_id() -> str:
    """A fresh 32-hex-character trace id."""
    return uuid.uuid4().hex


def _new_span_id() -> str:
    return uuid.uuid4().hex[:16]


def _json_safe(value):
    """Coerce an attribute value to something JSON/pickle can carry."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _json_safe(item) for key, item in value.items()}
    return str(value)


def nest_dispatch(counts: dict) -> dict:
    """``(mechanism, engine)`` counts as ``{engine: {mechanism: n}}``.

    The JSON shape of dispatch counts in span records and timing
    reports; deterministic key order.
    """
    nested: dict[str, dict[str, int]] = {}
    for mechanism, engine in sorted(counts):
        nested.setdefault(engine, {})[mechanism] = counts[(mechanism, engine)]
    return nested


def _stack() -> list:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    return stack


def _active_recorder():
    recorder = getattr(_tls, "recorder", None)
    if recorder is not None and recorder.pid != os.getpid():
        # A forked pool worker inherited the parent's thread-local
        # state; that recorder collects in another process and must not
        # receive this process's spans.
        _tls.recorder = None
        _tls.stack = []
        return None
    return recorder


def active_recorder():
    """The recorder bound to this thread, or ``None``."""
    return _active_recorder()


def current_trace_id() -> str | None:
    """The trace id of the recorder bound to this thread, if any."""
    recorder = _active_recorder()
    return recorder.trace_id if recorder is not None else None


def current_span():
    """The innermost open span on this thread, or ``None``."""
    if _active_recorder() is None:
        return None
    stack = _stack()
    return stack[-1] if stack else None


class Span:
    """One open span: a named, attributed interval on the timeline.

    Aggregates the annotation streams while open — net seconds per
    phase, dispatch decisions per (mechanism, engine), trace-cache
    outcome counts — plus a bounded list of discrete events.  Closed
    spans are plain dicts (picklable across the pool boundary).
    """

    __slots__ = (
        "name", "span_id", "parent_id", "attrs", "start", "pid", "thread",
        "events", "dropped_events", "phases", "dispatch", "cache",
        "_t0", "_cpu0",
    )

    def __init__(self, name: str, parent_id: str | None, attrs: dict):
        self.name = name
        self.span_id = _new_span_id()
        self.parent_id = parent_id
        self.attrs = {key: _json_safe(value) for key, value in attrs.items()}
        self.pid = os.getpid()
        self.thread = threading.current_thread().name
        self.events: list[dict] = []
        self.dropped_events = 0
        self.phases: dict[str, float] = {}
        self.dispatch: dict[tuple, int] = {}
        self.cache: dict[str, int] = {}
        self.start = time.time()
        self._t0 = time.perf_counter()
        self._cpu0 = time.thread_time()

    def add_event(self, name: str, **attrs) -> None:
        """Attach one point-in-time event to this span."""
        if len(self.events) >= MAX_EVENTS_PER_SPAN:
            self.dropped_events += 1
            return
        self.events.append(
            {"name": name, "time": time.time(), "attrs": attrs}
        )

    def finish(self, trace_id: str) -> dict:
        """Close the span and return its JSON-ready record."""
        record = {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": trace_id,
            "pid": self.pid,
            "thread": self.thread,
            "start": self.start,
            "wall_seconds": time.perf_counter() - self._t0,
            "cpu_seconds": time.thread_time() - self._cpu0,
            "attrs": self.attrs,
            "events": self.events,
            "phases": dict(self.phases),
            "engine_dispatch": nest_dispatch(self.dispatch),
            "trace_cache": dict(self.cache),
        }
        if self.dropped_events:
            record["dropped_events"] = self.dropped_events
        return record


class RunRecorder:
    """Collects the finished spans of one traced run.

    Thread-safe: executor threads and re-parented worker spans all
    append through :meth:`record`.  ``on_span`` (if given) fires with
    each finished span record — the serving tier hangs its span-latency
    histograms on it.
    """

    def __init__(
        self,
        label: str,
        trace_id: str | None = None,
        on_span=None,
    ):
        self.label = label
        self.trace_id = trace_id or new_trace_id()
        self.pid = os.getpid()
        self.started_at = time.time()
        self.on_span = on_span
        self._lock = threading.Lock()
        self._spans: list[dict] = []

    @property
    def spans(self) -> list[dict]:
        """The finished span records so far (a copy)."""
        with self._lock:
            return list(self._spans)

    def record(self, record: dict) -> None:
        """Append one finished span record."""
        with self._lock:
            self._spans.append(record)
        if self.on_span is not None:
            self.on_span(record)

    def adopt(self, records, parent_id: str | None = None) -> None:
        """Re-parent spans shipped back from a worker process.

        Every record joins this run's trace id; records whose parent is
        not among the shipped batch (the worker's roots) are re-parented
        under ``parent_id`` — the coordinating span that scheduled the
        worker's cell.
        """
        shipped = {record["span_id"] for record in records}
        for record in records:
            adopted = dict(record)
            adopted["trace_id"] = self.trace_id
            if adopted.get("parent_id") not in shipped:
                adopted["parent_id"] = parent_id
            self.record(adopted)

    @contextmanager
    def bind(self) -> Iterator["RunRecorder"]:
        """Collect spans opened on the current thread.

        Executor threads use this to join a run that was started
        elsewhere (thread-locals do not cross ``run_in_executor``).
        """
        previous = getattr(_tls, "recorder", None)
        _tls.recorder = self
        try:
            yield self
        finally:
            _tls.recorder = previous


@contextmanager
def span(name: str, **attrs) -> Iterator[Span | None]:
    """Open one span under the current run; inert without a recorder."""
    recorder = _active_recorder()
    if recorder is None:
        yield None
        return
    stack = _stack()
    parent_id = stack[-1].span_id if stack else None
    current = Span(name, parent_id, attrs)
    stack.append(current)
    try:
        yield current
    finally:
        stack.pop()
        recorder.record(current.finish(recorder.trace_id))


@contextmanager
def run(
    label: str,
    trace_id: str | None = None,
    on_span=None,
    **attrs,
) -> Iterator[RunRecorder]:
    """Trace one run: bind a fresh recorder and open its root span."""
    recorder = RunRecorder(label, trace_id=trace_id, on_span=on_span)
    attrs.setdefault("kind", "run")
    with recorder.bind():
        with span(label, **attrs):
            yield recorder


# -- capture ------------------------------------------------------------


@contextmanager
def capture(name: str, **attrs) -> Iterator[list[dict]]:
    """Record the enclosed block as a ``name`` span tree, traced or not.

    The block records into a local :class:`RunRecorder` (under the bound
    run's trace id, if any).  On exit the yielded list holds the finished
    records in finish order, so the ``name`` span itself is last; a run
    recorder bound on this thread adopts them under its current span.
    """
    outer = _active_recorder()
    local = RunRecorder(name, outer.trace_id if outer is not None else None)
    records: list[dict] = []
    try:
        with local.bind(), span(name, **attrs):
            yield records
    finally:
        records.extend(local.spans)
        if outer is not None:
            parent = current_span()
            outer.adopt(records, parent.span_id if parent else None)


# -- annotation feeds ------------------------------------------------


def on_phase(name: str, seconds: float) -> None:
    """Charge ``seconds`` of phase ``name`` to the innermost open span."""
    current = current_span()
    if current is not None:
        current.phases[name] = current.phases.get(name, 0.0) + seconds
        current.add_event("phase", phase=name, seconds=seconds)


def on_dispatch(mechanism: str, engine: str, count: int) -> None:
    """Count a fetch-engine dispatch decision on the innermost span."""
    current = current_span()
    if current is not None:
        key = (mechanism, engine)
        current.dispatch[key] = current.dispatch.get(key, 0) + count
        current.add_event(
            "dispatch", mechanism=mechanism, engine=engine, count=count
        )


def on_trace_cache(event: str) -> None:
    """Count a trace-cache lookup outcome on the innermost span."""
    current = current_span()
    if current is not None:
        current.cache[event] = current.cache.get(event, 0) + 1
        current.add_event("trace-cache", result=event)
