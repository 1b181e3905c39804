"""Declarative sweep-plan IR and its executor.

The paper's results are ~30 figure/table grids over one small set of
workloads.  Instead of each experiment hand-rolling its loop (and
re-walking traces, RLE streams, and miss masks its siblings already
computed), an experiment *compiles* into the sweep-plan IR: a list of
:class:`~repro.plan.ir.PlanCell` — one ``(workload, os, config,
engine)`` unit each — annotated with the shared inputs it consumes
(trace, line-run stream, miss-mask geometry family).  A single
executor (:mod:`repro.plan.executor`) runs the deduplicated cells one
trace group at a time, priming each shared input once per group —
cheetah-style ``miss_masks()`` across the union of geometries
requested by *all* experiments in the plan — and freeing it after the
group's last cell.

``repro report``, ``repro experiment``, ``repro warm``, the service
scheduler's evaluate batches and every experiment module's ``run``
execute through this package: ``plan_cells`` + ``merge`` is the only
way an experiment says what it computes (see
:mod:`repro.plan.compile`).
"""

from repro._util.lazy import lazy_exports

_EXPORTS = {
    "CompiledExperiment": ".ir",
    "DEMAND_MASK_MECHANISMS": ".inputs",
    "MaskFamily": ".ir",
    "PlanCell": ".ir",
    "PlanInputs": ".ir",
    "SweepPlan": ".ir",
    "TraceKey": ".ir",
    "add_plan_observer": ".executor",
    "compile_module": ".compile",
    "compile_report": ".compile",
    "execute_cells": ".executor",
    "execute_plan": ".executor",
    "mask_families": ".inputs",
    "mask_shape_plan": ".inputs",
    "point_streams": ".inputs",
    "prime_miss_masks": ".inputs",
    "remove_plan_observer": ".executor",
    "run_cell": ".inputs",
    "run_experiment": ".executor",
    "run_report": ".executor",
    "workload_trace_keys": ".inputs",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
