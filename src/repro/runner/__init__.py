"""Parallel cell execution and persistent artifact caching.

The runner package is the layer below the sweep plan
(:mod:`repro.plan`, which compiles and runs experiments); it imports
nothing from it:

* :mod:`repro.runner.timing` — per-phase wall-time accounting
  (synthesize / trace-load / line-runs / simulate) on the active span.
* :mod:`repro.runner.entrystore` — verified on-disk entries: the one
  publish and read path under a cache directory, numpy-free.
* :mod:`repro.runner.cache` — the persistent on-disk trace and
  line-run cache, two namespaces of that store.
* :mod:`repro.runner.cachedir` — which cache directory the process
  uses (``--cache-dir`` / ``--no-disk-cache`` / ``REPRO_CACHE_DIR``),
  as a numpy-free setting.
* :mod:`repro.runner.pool` — the process-pool cell runner behind the
  CLI's ``--jobs N`` flag, returning results in cell order so parallel
  runs are bit-identical to serial ones.

:mod:`~repro.runner.timing` imports only :mod:`repro.obs.tracing`, so
the low-level modules (the workload registry, the RLE encoder, the
metrics layer) can mark their phases through it.
"""

from repro._util.lazy import lazy_exports

#: Environment variable naming the on-disk trace cache directory.
#: Defined here rather than in :mod:`repro.runner.cache` so the CLI
#: parser can name it without importing numpy.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

_EXPORTS = {
    "TraceDiskCache": ".cache",
    "phase": ".timing",
    "run_cells": ".pool",
    "timing": None,
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
