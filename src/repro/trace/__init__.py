"""Address-trace representation and manipulation.

This subpackage provides the reference-stream substrate that everything
else in the library consumes: a compact numpy-backed :class:`Trace`
container holding instruction-fetch and data references tagged with the
address-space component (user task, kernel, BSD server, X server) that
issued them, plus trace I/O, line-granular run-length encoding, filters
and summary statistics.

The design mirrors the traces the paper collected with the Monster logic
analyzer: long, continuous streams covering *all* user and operating
system activity.
"""

from repro._util.lazy import lazy_exports

_EXPORTS = {
    "RefKind": ".record",
    "Component": ".record",
    "COMPONENT_NAMES": ".record",
    "Trace": ".trace",
    "save_trace": ".io",
    "load_trace": ".io",
    "LineRuns": ".rle",
    "to_line_runs": ".rle",
    "ifetch_only": ".filters",
    "data_only": ".filters",
    "by_kind": ".filters",
    "by_component": ".filters",
    "concat": ".filters",
    "head": ".filters",
    "interleave": ".filters",
    "TraceStats": ".stats",
    "compute_stats": ".stats",
    "component_mix": ".stats",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
