"""Per-request latency recording and tail-percentile summaries.

The load driver appends one :class:`Sample` per completed request;
:func:`summarize` turns the measure-phase samples into the record the
``BENCH_serve.json`` trajectory stores: throughput, p50/p95/p99/p999
latency, and the status/outcome breakdown an admission-control check
needs (how many requests were answered 2xx vs shed with 429 vs failed).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Sample", "LatencyRecorder", "percentiles", "summarize"]

#: Tail percentiles every summary reports, as (label, quantile).
PERCENTILES = (
    ("p50", 50.0),
    ("p95", 95.0),
    ("p99", 99.0),
    ("p999", 99.9),
)

#: Client-observed outcomes.
OK = "ok"           # 2xx with a terminal job state
SHED = "shed"       # 429 admission rejection
ERROR = "error"     # any other status, or a transport failure


@dataclass(frozen=True)
class Sample:
    """One completed request as the client observed it."""

    index: int
    started_at: float
    latency: float
    status: int
    outcome: str
    phase: str  # "warmup" | "measure"
    retry_after: float | None = None


@dataclass
class LatencyRecorder:
    """Accumulates samples; one per load run."""

    samples: list[Sample] = field(default_factory=list)

    def record(self, sample: Sample) -> None:
        self.samples.append(sample)

    def measured(self) -> list[Sample]:
        return [s for s in self.samples if s.phase == "measure"]


def percentiles(latencies: list[float]) -> dict[str, float]:
    """The trajectory's tail percentiles, in seconds."""
    if not latencies:
        return {label: 0.0 for label, _ in PERCENTILES}
    values = np.asarray(latencies, dtype=np.float64)
    return {
        label: round(float(np.percentile(values, q)), 6)
        for label, q in PERCENTILES
    }


def summarize(recorder: LatencyRecorder, measure_seconds: float) -> dict:
    """Throughput + tails + outcome breakdown over the measure phase."""
    measured = recorder.measured()
    completed = [s for s in measured if s.outcome == OK]
    statuses: dict[str, int] = {}
    outcomes: dict[str, int] = {}
    for sample in measured:
        statuses[str(sample.status)] = statuses.get(str(sample.status), 0) + 1
        outcomes[sample.outcome] = outcomes.get(sample.outcome, 0) + 1
    elapsed = max(measure_seconds, 1e-9)
    return {
        "requests": len(measured),
        "completed": len(completed),
        "measure_seconds": round(measure_seconds, 4),
        "throughput_rps": round(len(completed) / elapsed, 2),
        "offered_rps": round(len(measured) / elapsed, 2),
        "latency_seconds": percentiles([s.latency for s in completed]),
        "statuses": dict(sorted(statuses.items())),
        "outcomes": dict(sorted(outcomes.items())),
    }
