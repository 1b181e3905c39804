"""Workload-replay load generation for the serving tier.

Deterministic seeded request streams over the experiment grid
(:mod:`~repro.loadgen.workload`), a closed-loop asyncio driver with
per-request latency recording (:mod:`~repro.loadgen.driver`),
tail-percentile summaries (:mod:`~repro.loadgen.stats`), and the
``BENCH_serve.json`` trajectory plus its CI gate
(:mod:`~repro.loadgen.report`).

Scripted by ``benchmarks/bench_serve.py``; the admission tests drive
the closed loop, and the end-to-end benchmark replays the workload
streams.
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
