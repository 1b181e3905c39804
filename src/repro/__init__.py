"""repro — a reproduction of *Instruction Fetching: Coping with Code Bloat*
(Uhlig, Nagle, Mudge, Sechrest, Emer; ISCA 1995).

The library contains everything the paper's evaluation rests on, built
from scratch in Python:

* synthetic models of the IBS and SPEC workloads
  (:mod:`repro.workloads`) that stand in for the original address
  traces,
* trace infrastructure (:mod:`repro.trace`),
* cache, TLB and VM simulators (:mod:`repro.caches`, :mod:`repro.tlb`,
  :mod:`repro.vm`),
* instruction-fetch timing mechanisms — prefetch, bypass, stream
  buffers (:mod:`repro.fetch`),
* the measurement apparatus models (:mod:`repro.monitor`,
  :mod:`repro.tapeworm`),
* the CPI analysis framework (:mod:`repro.core`), and
* one module per paper table/figure (:mod:`repro.experiments`).

Quickstart::

    from repro import evaluate, MemorySystemConfig

    result = evaluate("groff", "mach3", MemorySystemConfig.economy())
    print(result.cpi_instr)
"""

from repro._util.lazy import lazy_exports

_EXPORTS = {
    "CpiBreakdown": ".core.cpi",
    "MemorySystemConfig": ".core.config",
    "MpiMeasurement": ".core.metrics",
    "StudyResult": ".core.study",
    "cpi_instr": ".core.cpi",
    "evaluate": ".core.study",
    "measure_mpi": ".core.metrics",
    "CacheGeometry": ".caches.base",
    "ThreeCs": ".caches.classify",
    "classify_misses": ".caches.classify",
    "DemandFetchEngine": ".fetch.engine",
    "MemoryTiming": ".fetch.timing",
    "PrefetchBypassEngine": ".fetch.bypass",
    "PrefetchOnMissEngine": ".fetch.prefetch",
    "StreamBufferEngine": ".fetch.streambuf",
    "Trace": ".trace.trace",
    "load_trace": ".trace.io",
    "save_trace": ".trace.io",
    "to_line_runs": ".trace.rle",
    "WorkloadParams": ".workloads.params",
    "get_trace": ".workloads.registry",
    "get_workload": ".workloads.suites",
    "suite_workloads": ".workloads.suites",
    "synthesize_trace": ".workloads.generator",
}

__version__ = "1.0.0"


def package_version() -> str:
    """The installed distribution version, falling back to the source's.

    Prefers package metadata (what ``pip`` actually installed) so a
    stale checkout cannot misreport a deployed server's version; the
    result store and ``/healthz`` both key on it.
    """
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:
        return __version__


def version_info() -> dict:
    """Package, generator, and git provenance in one record.

    The full answer to "what exactly is this installation": the
    distribution version, the trace-generator version (which keys the
    on-disk trace cache), and the source checkout's git revision.
    ``python -m repro --version`` and run manifests both print from it.
    """
    from repro.obs.manifest import git_provenance
    from repro.workloads.params import GENERATOR_VERSION

    return {
        "package_version": package_version(),
        "generator_version": GENERATOR_VERSION,
        "git": git_provenance(),
    }


#: Subpackages stay reachable as attributes (``repro.core``) after a
#: bare ``import repro``, loading on first access like the names above.
_SUBPACKAGES = (
    "caches", "core", "experiments", "fetch", "loadgen", "monitor",
    "obs", "plan", "runner", "service", "tapeworm", "tlb", "trace", "vm",
    "workloads",
)

__all__ = [*_EXPORTS, "package_version", "version_info", "__version__"]
__getattr__, __dir__ = lazy_exports(
    __name__, {**_EXPORTS, **dict.fromkeys(_SUBPACKAGES)}
)
