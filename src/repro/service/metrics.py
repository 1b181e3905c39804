"""Service metrics: counters, gauges, and latency histograms.

The serving layer wants the classic trio — request/hit/miss counters, a
queue-depth gauge, and per-phase latency histograms — exported in the
Prometheus text format at ``GET /metrics`` (and as JSON for tests and
tooling).  Everything here is stdlib: a handful of dicts behind one
lock, safe to update from the event loop and from job worker threads.
The scheduler derives the span, phase, engine-dispatch and trace-cache
series from each finished span of the jobs it runs.

Metric identity is ``(name, labels)`` where labels is a small dict
(``{"phase": "simulate"}``); the registry namespaces everything under
the ``repro_`` prefix on render.
"""

from __future__ import annotations

import threading
from collections.abc import Mapping

#: Histogram bucket upper bounds, in seconds.  Spans sub-millisecond
#: cache hits through multi-minute full-report sweeps.
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 15.0, 60.0, 300.0,
)

#: Prefix applied to every exported metric name.
METRIC_PREFIX = "repro_"

#: ``# HELP`` text for the metric families the service exports.
#: Unlisted (ad-hoc) metrics get a generated line so every family in
#: the exposition still carries the HELP/TYPE header pair scrapers
#: expect.
METRIC_HELP = {
    "requests_total": "HTTP requests received, by endpoint.",
    "responses_total": "HTTP responses sent, by status code.",
    "request_seconds": "HTTP request handling latency.",
    "jobs_submitted_total": "Jobs submitted, by kind.",
    "jobs_coalesced_total": "Requests coalesced onto an in-flight job.",
    "jobs_executed_total": "Jobs executed to completion, by kind.",
    "jobs_failed_total": "Jobs that raised, by kind.",
    "job_seconds": "Job execution latency, by kind.",
    "queue_depth": "Jobs currently queued or running.",
    "queue_wait_seconds": "Time jobs spent queued before executing.",
    "inflight_jobs": "Jobs currently executing on worker threads.",
    "queued_jobs": "Admitted jobs waiting for a worker thread.",
    "admission_total": (
        "Admission decisions, by decision "
        "(accepted/shed/coalesced/store-hit)."
    ),
    "eval_batches_total": "Evaluate batches flushed to the pool.",
    "eval_batch_size": "Evaluate requests per flushed batch.",
    "result_store_hits_total": "Jobs answered from the result store.",
    "result_store_misses_total": "Result-store lookups that missed.",
    "result_store_entries": "Entries resident in the result store.",
    "result_store_bytes": "Bytes resident in the result store.",
    "result_store_dropped": (
        "Result-store entries dropped on read for failing verification."
    ),
    "result_store_publish_failures_total": (
        "Computed results the store failed to publish (served anyway)."
    ),
    "phase_seconds": "Simulation phase wall time per span, by phase.",
    "span_seconds": "Traced span wall time, by span name.",
    "engine_dispatch_total": (
        "Fetch-timing dispatch decisions, by mechanism and engine."
    ),
    "trace_cache_lookups_total": "Trace cache lookups, by result.",
    "trace_cache_entries": "Traces resident in the in-memory cache.",
    "trace_cache_resident_bytes": "Bytes resident in the trace cache.",
    "line_order_cache_entries": "Entries in the line-order memo.",
    "line_order_cache_bytes": "Bytes in the line-order memo.",
    "line_order_cache_evictions": "Evictions from the line-order memo.",
}


def _label_key(labels: Mapping[str, str] | None) -> tuple:
    """Canonical hashable identity of a label set."""
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format.

    Backslash, double-quote, and newline are the three characters the
    format requires escaping inside quoted label values.
    """
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _render_labels(label_key: tuple, extra: str = "") -> str:
    parts = [f'{k}="{_escape_label_value(v)}"' for k, v in label_key]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _help_line(full: str, name: str) -> str:
    help_text = METRIC_HELP.get(name, f"Service metric {name}.")
    escaped = help_text.replace("\\", "\\\\").replace("\n", "\\n")
    return f"# HELP {full} {escaped}"


class Histogram:
    """A fixed-bucket latency histogram (cumulative, Prometheus-style)."""

    __slots__ = ("buckets", "counts", "total", "count")

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_BUCKETS):
        self.buckets = tuple(buckets)
        self.counts = [0] * (len(self.buckets) + 1)  # last = +Inf
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                break
        else:
            self.counts[-1] += 1
        self.total += value
        self.count += 1

    def cumulative(self) -> list[int]:
        """Cumulative bucket counts, ``+Inf`` last (== ``count``)."""
        out, running = [], 0
        for n in self.counts:
            running += n
            out.append(running)
        return out

    def to_dict(self) -> dict:
        return {
            "buckets": list(self.buckets),
            "cumulative": self.cumulative(),
            "sum": self.total,
            "count": self.count,
        }


class ServiceMetrics:
    """Thread-safe registry of the service's counters/gauges/histograms."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[str, dict[tuple, float]] = {}
        self._gauges: dict[str, dict[tuple, float]] = {}
        self._histograms: dict[str, dict[tuple, Histogram]] = {}

    # -- updates -------------------------------------------------------

    def inc(
        self,
        name: str,
        labels: Mapping[str, str] | None = None,
        amount: float = 1,
    ) -> None:
        """Add ``amount`` to a counter (created at zero on first use)."""
        key = _label_key(labels)
        with self._lock:
            series = self._counters.setdefault(name, {})
            series[key] = series.get(key, 0) + amount

    def set_gauge(
        self, name: str, value: float, labels: Mapping[str, str] | None = None
    ) -> None:
        """Set a gauge to an absolute value."""
        with self._lock:
            self._gauges.setdefault(name, {})[_label_key(labels)] = value

    def observe(
        self,
        name: str,
        value: float,
        labels: Mapping[str, str] | None = None,
    ) -> None:
        """Record one latency sample into a histogram."""
        key = _label_key(labels)
        with self._lock:
            series = self._histograms.setdefault(name, {})
            histogram = series.get(key)
            if histogram is None:
                histogram = series[key] = Histogram()
            histogram.observe(value)

    # -- reads ---------------------------------------------------------

    def counter_value(
        self, name: str, labels: Mapping[str, str] | None = None
    ) -> float:
        """Current value of one counter series (0 if never incremented)."""
        with self._lock:
            return self._counters.get(name, {}).get(_label_key(labels), 0)

    def to_dict(self) -> dict:
        """JSON-ready snapshot of every metric."""
        def expand(series):
            return [
                {"labels": dict(key), "value": value}
                for key, value in sorted(series.items())
            ]

        with self._lock:
            return {
                "counters": {
                    name: expand(series)
                    for name, series in sorted(self._counters.items())
                },
                "gauges": {
                    name: expand(series)
                    for name, series in sorted(self._gauges.items())
                },
                "histograms": {
                    name: [
                        {"labels": dict(key), **histogram.to_dict()}
                        for key, histogram in sorted(series.items())
                    ]
                    for name, series in sorted(self._histograms.items())
                },
            }

    def render_prometheus(self) -> str:
        """The Prometheus text exposition of every metric."""
        lines: list[str] = []
        with self._lock:
            for name, series in sorted(self._counters.items()):
                full = METRIC_PREFIX + name
                lines.append(_help_line(full, name))
                lines.append(f"# TYPE {full} counter")
                for key, value in sorted(series.items()):
                    lines.append(f"{full}{_render_labels(key)} {value:g}")
            for name, series in sorted(self._gauges.items()):
                full = METRIC_PREFIX + name
                lines.append(_help_line(full, name))
                lines.append(f"# TYPE {full} gauge")
                for key, value in sorted(series.items()):
                    lines.append(f"{full}{_render_labels(key)} {value:g}")
            for name, series in sorted(self._histograms.items()):
                full = METRIC_PREFIX + name
                lines.append(_help_line(full, name))
                lines.append(f"# TYPE {full} histogram")
                for key, histogram in sorted(series.items()):
                    cumulative = histogram.cumulative()
                    bounds = [f"{b:g}" for b in histogram.buckets] + ["+Inf"]
                    for bound, count in zip(bounds, cumulative):
                        labels = _render_labels(key, f'le="{bound}"')
                        lines.append(f"{full}_bucket{labels} {count}")
                    labels = _render_labels(key)
                    lines.append(f"{full}_sum{labels} {histogram.total:g}")
                    lines.append(f"{full}_count{labels} {histogram.count}")
        return "\n".join(lines) + "\n"

