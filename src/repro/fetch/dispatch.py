"""Engine-dispatch accounting for the fetch-timing paths.

``engine="auto"`` silently picks between the vectorized kernels and the
reference engines per (mechanism, geometry, options) cell.  That silence
is exactly how coverage regressions hide: a kernel that stops matching a
sweep's shape quietly turns a numpy pass into a per-run Python loop and
the only symptom is wall-clock.  This module counts every dispatch
decision on the active span through
:func:`repro.obs.tracing.on_dispatch`.  Each cell's engine counts are
the rollup of its span (:func:`repro.obs.export.span_rollup`), and the
serving tier derives its ``repro_engine_dispatch_total{mechanism,engine}``
counters from the same spans.

Besides the spans, the module keeps process-lifetime :func:`totals`;
worker-process counts are folded into the parent's totals through
:func:`notify`.  Like :mod:`repro.runner.timing`, this module imports
only :mod:`repro.obs.tracing`, so any layer can use it without cycles.
"""

from __future__ import annotations

import threading
from collections.abc import Mapping

from repro.obs import tracing

#: Engine labels recorded at the dispatch point.
ENGINE_VECTORIZED = "vectorized"
ENGINE_REFERENCE = "reference"

#: Mechanism names accepted by :func:`repro.core.study.evaluate`.
MECHANISMS = ("demand", "prefetch", "prefetch+bypass", "stream-buffer")

#: Fetch-timing implementations accepted by
#: :func:`repro.core.study.evaluate`.  ``"reference"`` steps the per-run
#: object engines, ``"vectorized"`` requires the numpy kernels (raising
#: when they don't cover the combination), and ``"auto"`` uses the
#: kernels whenever they do — the differential tests pin the two paths
#: bit-identical, so ``auto`` is the default everywhere.
ENGINES = ("auto", ENGINE_REFERENCE, ENGINE_VECTORIZED)

_lock = threading.Lock()

#: Process-lifetime totals: (mechanism, engine) -> dispatch count.
_totals: dict[tuple[str, str], int] = {}


def record(mechanism: str, engine: str, count: int = 1) -> None:
    """Count one dispatch of ``mechanism`` to ``engine``.

    Counts on the active span (for per-cell reports, traced runs and
    service metrics) and in the process totals (for tests and
    diagnostics).
    """
    key = (mechanism, engine)
    with _lock:
        _totals[key] = _totals.get(key, 0) + count
    tracing.on_dispatch(mechanism, engine, count)


def totals() -> dict[tuple[str, str], int]:
    """Process-lifetime dispatch counts (a copy)."""
    with _lock:
        return dict(_totals)


def reset_totals() -> None:
    """Zero the process totals (tests use this for isolation)."""
    with _lock:
        _totals.clear()


def notify(counts: Mapping[str, Mapping[str, int]]) -> None:
    """Fold counts recorded in a worker process into this process's totals.

    ``counts`` is a span rollup's ``{engine: {mechanism: n}}``.  The
    pool runner calls this with each cell's, so :func:`totals` covers
    every dispatch regardless of ``--jobs``.
    """
    with _lock:
        for engine, mechanisms in counts.items():
            for mechanism, count in mechanisms.items():
                if count:
                    key = (mechanism, engine)
                    _totals[key] = _totals.get(key, 0) + count
