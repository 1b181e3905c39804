"""Parallel cell execution and persistent artifact caching.

The runner package is the layer below the sweep plan
(:mod:`repro.plan`, which compiles and runs experiments); it imports
nothing from it:

* :mod:`repro.runner.timing` — per-phase wall-time accounting
  (synthesize / line-runs / simulate) and JSON timing reports.
* :mod:`repro.runner.cache` — the persistent on-disk trace and
  line-run cache (``REPRO_CACHE_DIR`` / ``--cache-dir``).
* :mod:`repro.runner.pool` — the process-pool cell runner behind the
  CLI's ``--jobs N`` flag, returning results in cell order so parallel
  runs are bit-identical to serial ones.

Only :mod:`~repro.runner.timing` is imported eagerly: the low-level
modules (the workload registry, the RLE encoder, the metrics layer)
mark their phases through it, so it must import nothing from the rest
of the library.  ``cache`` and ``pool`` load on first attribute access.
"""

from repro.runner import timing
from repro.runner.timing import CellTiming, TimingReport, phase

__all__ = [
    "CellTiming",
    "TimingReport",
    "TraceDiskCache",
    "phase",
    "run_cells",
    "timing",
]

_LAZY = {
    "TraceDiskCache": ("repro.runner.cache", "TraceDiskCache"),
    "run_cells": ("repro.runner.pool", "run_cells"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    value = getattr(importlib.import_module(module_name), attr)
    globals()[name] = value
    return value
