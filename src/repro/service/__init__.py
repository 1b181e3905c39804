"""The serving tier: a long-running simulation server over the library.

Layers (bottom up):

* :mod:`repro.service.metrics` — counters/gauges/latency histograms,
  rendered for Prometheus at ``GET /metrics``.
* :mod:`repro.service.store` — the content-addressed result store:
  finished experiment/evaluation results persisted under the cache
  directory, keyed by a canonical hash of everything that determines
  them, bounded by an LRU byte budget.
* :mod:`repro.service.scheduler` — single-flight request coalescing,
  evaluate-cell batching, and non-blocking dispatch onto the pool
  runner.
* :mod:`repro.service.http` — minimal stdlib HTTP/1.1 framing.
* :mod:`repro.service.app` — routing and the ``repro serve`` loop.
"""

from repro._util.lazy import lazy_exports

_EXPORTS = {
    "DEFAULT_HOST": ".app",
    "DEFAULT_PORT": ".app",
    "EvaluateRequest": ".scheduler",
    "Job": ".scheduler",
    "JobScheduler": ".scheduler",
    "ResultStore": ".store",
    "ServiceApp": ".app",
    "ServiceMetrics": ".metrics",
    "result_store_for_cache": ".store",
    "run_service": ".app",
    "start_service": ".app",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
