"""Synthetic workload models (the IBS and SPEC92 suites).

The paper's workloads are real binaries traced on real hardware; the
traces are no longer obtainable.  This subpackage replaces them with
*program-structure-driven synthesis*: each workload is described by a
:class:`WorkloadParams` record — per-component code footprints,
procedure-reuse locality, loop structure, OS-service mix — and
:class:`TraceSynthesizer` turns that description into a full address
trace (instruction fetches, loads, stores, tagged with the issuing
component).

Parameters are calibrated so each workload's 8 KB direct-mapped MPI
matches the paper's Table 4 and the suite miss-versus-size curves match
Figure 1 (see ``tools/calibrate.py`` and EXPERIMENTS.md).
"""

from repro._util.lazy import lazy_exports

_EXPORTS = {
    "WorkloadBuilder": ".builder",
    "ComponentParams": ".params",
    "WorkloadParams": ".params",
    "Procedure": ".codeimage",
    "Module": ".codeimage",
    "CodeImage": ".codeimage",
    "build_code_image": ".codeimage",
    "build_call_graph": ".callgraph",
    "call_graph_stats": ".callgraph",
    "TraceSynthesizer": ".generator",
    "synthesize_trace": ".generator",
    "IBS_WORKLOADS": ".ibs",
    "ibs_workload": ".ibs",
    "SPEC92_INT_WORKLOADS": ".spec",
    "SPEC92_FP_WORKLOADS": ".spec",
    "SPEC89_INT_WORKLOADS": ".spec",
    "SPEC89_FP_WORKLOADS": ".spec",
    "spec_workload": ".spec",
    "get_workload": ".registry",
    "get_trace": ".registry",
    "list_workloads": ".suites",
    "suite_names": ".suites",
    "suite_workloads": ".suites",
    "clear_trace_cache": ".registry",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
