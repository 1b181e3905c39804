"""Profile-guided code placement (the paper's Section 2 software methods).

    "Compilers can reduce conflict misses by carefully placing
    procedures in memory with the assistance of execution-profile
    information and through call-graph analysis [Hwu89, McFarling89,
    Torrellas95]."

The paper deliberately does not evaluate these; this subpackage does, as
an extension study.  :mod:`repro.layout.profile` attributes a trace's
instruction fetches back to the procedures of the synthetic code image
(an execution profile), and :mod:`repro.layout.placement` re-lays the
image out — hottest procedures packed contiguously from the base — and
rewrites the trace's addresses accordingly, so the same execution can be
re-simulated under the optimized layout.
"""

from repro._util.lazy import lazy_exports

_EXPORTS = {
    "ExecutionProfile": ".profile",
    "profile_trace": ".profile",
    "PlacementPlan": ".placement",
    "place_by_heat": ".placement",
    "relocate_addresses": ".placement",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
