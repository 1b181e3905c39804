"""Workload-replay load generation for the serving tier.

The subsystem that answers "does ``repro serve`` survive heavy
traffic?": deterministic seeded request streams over the experiment
grid (:mod:`~repro.loadgen.workload`), open- and closed-loop asyncio
drivers with per-request latency recording
(:mod:`~repro.loadgen.driver`), tail-percentile summaries
(:mod:`~repro.loadgen.stats`), and the ``BENCH_serve.json`` trajectory
plus its CI gate (:mod:`~repro.loadgen.report`).

Exposed on the CLI as ``repro loadgen run | report`` and scripted by
``benchmarks/bench_serve.py``.
"""

from repro._util.lazy import lazy_exports

_EXPORTS = {
    "GRID_CONFIGS": ".workload",
    "LatencyRecorder": ".stats",
    "LoadConfig": ".driver",
    "LoadResult": ".driver",
    "Request": ".workload",
    "ReqGenEngine": ".workload",
    "Sample": ".stats",
    "Workload": ".workload",
    "grid_population": ".workload",
    "percentiles": ".stats",
    "run_load": ".driver",
    "summarize": ".stats",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
