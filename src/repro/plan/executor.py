"""The plan executor: prime shared inputs, fan out cells, free inputs.

One code path executes every compiled plan — ``repro experiment``,
``repro report``, ``repro warm``, and the service scheduler's evaluate
batches all land here:

1. **Dedup** cells whose function and arguments are identical across
   experiments; each unique cell runs once.
2. **Split** the unique cells into *phases* that share no trace
   (:func:`~repro.plan.ir.plan_phases`): the connected components of
   "these cells read a common trace", with runs of single-trace
   components packed up to the size of the largest component.  A
   caller that keeps its inputs (the server, whose registry is its
   cache across requests) runs the whole plan as one phase.
3. For each phase in turn, **prime** its shared inputs (traces,
   line-run streams, miss-mask geometry families) exactly once, in
   the parent process, captured as one ``plan-prime`` span carrying
   the phase index and trace count: traces through the registry
   (memory/disk cache), streams through :func:`~repro.workloads.
   registry.get_line_runs`, and mask families through one
   cheetah-style :func:`~repro.plan.inputs.prime_miss_masks` call per
   (trace, stream) covering the union of geometries the phase's cells
   requested.  The spans' summed rollups are the plan's
   ``prime_seconds`` and ``prime_phases``.  Then **execute** the
   phase's cells on :func:`~repro.runner.pool.run_cells`.  Priming
   happens before the pool forks, so workers inherit every warm memo
   copy-on-write and one trace walk serves the whole plan (on
   spawn-only platforms the cells recompute lazily — slower, never
   incorrect).
4. **Release** the phase's traces from the registry's in-memory cache
   once its last cell has run.  No later phase reads them, so their
   line runs, line-order memos and miss masks die with them (through
   the memo finalizers), and the plan's resident memory is one phase
   at a time rather than the whole plan.
5. **Fan back** results in plan order and merge per experiment.

Plan-level dedup counters (``cells_total``, ``inputs_shared``,
``inputs_primed``, ``phases``, ...) ride on the returned
:class:`~repro.runner.timing.TimingReport` (the ``plan`` block of
``--timing-out``), on the service's ``/metrics``, and — through
:func:`add_plan_observer` — on any process-wide observer.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections import Counter
from collections.abc import Callable, Mapping, Sequence

from repro.obs import tracing
from repro.obs.export import span_rollup
from repro.plan.compile import compile_module, compile_report
from repro.plan.inputs import prime_miss_masks
from repro.plan.ir import (
    PlanCell,
    PlanInputs,
    SweepPlan,
    collect_inputs,
    dedup_cells,
    plan_phases,
)
from repro.runner.pool import resolve_jobs, run_cells
from repro.runner.timing import TimingReport
from repro.workloads.registry import discard_trace, get_line_runs, get_trace

__all__ = [
    "add_plan_observer",
    "execute_cells",
    "execute_plan",
    "remove_plan_observer",
    "run_experiment",
    "run_report",
]

#: Process-wide plan observers, called with each executed plan's stats
#: dict; the end-to-end benchmark counts plan dedup through this feed.
#: Observers must be cheap and must not raise.
_observers: list[Callable[[dict], None]] = []
_observers_lock = threading.Lock()


def add_plan_observer(observer: Callable[[dict], None]) -> None:
    """Register ``observer(stats)`` to fire after every plan execution."""
    with _observers_lock:
        if observer not in _observers:
            _observers.append(observer)


def remove_plan_observer(observer: Callable[[dict], None]) -> None:
    """Unregister an observer installed by :func:`add_plan_observer`."""
    with _observers_lock:
        try:
            _observers.remove(observer)
        except ValueError:
            pass


def _notify(stats: dict) -> None:
    with _observers_lock:
        observers = tuple(_observers)
    for observer in observers:
        observer(stats)


def _prime_inputs(inputs: PlanInputs) -> int:
    """Prime every shared input once; returns the number primed.

    Order is deterministic (annotation insertion order) and layered:
    traces first, then their RLE streams, then the mask families over
    those streams — each layer's work is a memo hit for the next.
    """
    primed = 0
    for key in inputs.traces:
        get_trace(key.workload, key.os_name, key.n_instructions, key.seed)
        primed += 1
    for trace_key, line_size in inputs.streams:
        get_line_runs(
            trace_key.workload,
            trace_key.os_name,
            trace_key.n_instructions,
            trace_key.seed,
            line_size,
        )
        primed += 1
    for (trace_key, encode_size, mask_size), (shapes, _) in (
        inputs.masks.items()
    ):
        trace = get_trace(
            trace_key.workload,
            trace_key.os_name,
            trace_key.n_instructions,
            trace_key.seed,
        )
        prime_miss_masks(trace, {(encode_size, mask_size): shapes})
        primed += 1
    return primed


def _release_traces(inputs: PlanInputs) -> None:
    """Drop a phase's traces from the registry's in-memory cache."""
    for key in inputs.traces:
        discard_trace(key.workload, key.os_name, key.n_instructions, key.seed)


def execute_cells(
    cells: Sequence[PlanCell],
    jobs: int = 1,
    label: str = "plan",
    *,
    keep_inputs: bool = False,
) -> tuple[list, TimingReport]:
    """Execute plan cells with priming and dedup; results align with
    ``cells``.

    The returned :class:`TimingReport` carries the per-(unique-)cell
    timings plus the plan stats block; results are bit-identical to
    running every cell individually with no priming.  Each phase's
    traces leave the registry's in-memory cache after its last cell
    unless ``keep_inputs`` is set, which runs the plan as one phase
    and leaves every trace cached.
    """
    start = time.perf_counter()
    inputs = collect_inputs(cells)
    unique, index_map = dedup_cells(cells)
    if keep_inputs:
        phases = [list(range(len(unique)))]
    else:
        phases = plan_phases(unique)
    stats = {
        "cells_total": len(cells),
        "cells_unique": len(unique),
        "inputs_total": inputs.total,
        "inputs_shared": inputs.shared,
        "inputs_primed": 0,
        "phases": len(phases),
    }
    prime_seconds = 0.0
    prime_phases: Counter[str] = Counter()
    results_unique: list = [None] * len(unique)
    cell_timings: list = [None] * len(unique)
    for number, members in enumerate(phases):
        phase_cells = [unique[index] for index in members]
        phase_inputs = collect_inputs(phase_cells)
        try:
            if phase_inputs.total:
                with tracing.capture(
                    "plan-prime",
                    label=label,
                    phase=number,
                    traces=len(phase_inputs.traces),
                    streams=len(phase_inputs.streams),
                    masks=len(phase_inputs.masks),
                ) as records:
                    stats["inputs_primed"] += _prime_inputs(phase_inputs)
                prime = span_rollup(records, records[-1])
                prime_seconds += prime["wall_seconds"]
                prime_phases.update(prime["phases"])
            phase_results, phase_timings = run_cells(phase_cells, jobs)
        finally:
            if not keep_inputs:
                _release_traces(phase_inputs)
        for index, result, cell_timing in zip(
            members, phase_results, phase_timings
        ):
            results_unique[index] = result
            cell_timings[index] = cell_timing
    if inputs.total:
        stats["prime_seconds"] = round(prime_seconds, 6)
        stats["prime_phases"] = {
            name: round(seconds, 6)
            for name, seconds in prime_phases.items()
            if seconds > 0.0
        }
    results = [results_unique[index] for index in index_map]
    _notify(dict(stats, label=label))
    report = TimingReport(
        label=label,
        jobs=resolve_jobs(jobs),
        wall_seconds=time.perf_counter() - start,
        cells=tuple(cell_timings),
        plan=stats,
    )
    return results, report


def execute_plan(
    plan: SweepPlan,
    jobs: int = 1,
    label: str = "plan",
    *,
    keep_inputs: bool = False,
) -> tuple[list, TimingReport]:
    """Execute a whole plan; returns one merged result per experiment."""
    results, report = execute_cells(
        plan.cells, jobs, label=label, keep_inputs=keep_inputs
    )
    merged = []
    cursor = 0
    for experiment in plan.experiments:
        count = len(experiment.cells)
        merged.append(experiment.assemble(results[cursor : cursor + count]))
        cursor += count
    return merged, report


def run_experiment(
    module,
    settings,
    jobs: int = 1,
    label: str | None = None,
    *,
    keep_inputs: bool = False,
    **axes,
):
    """Run one experiment module through its compiled plan.

    ``axes`` narrow the module's sweep (they are passed through to its
    ``plan_cells``); ``keep_inputs`` is :func:`execute_cells`'s.
    Returns ``(result, TimingReport)``; each experiment module's
    ``run`` returns the result of this call.
    """
    if label is None:
        label = module.__name__.rsplit(".", 1)[-1]
    start = time.perf_counter()
    with tracing.span("experiment", label=label, jobs=resolve_jobs(jobs)):
        compiled = compile_module(module, settings, name=label, **axes)
        plan = SweepPlan(experiments=(compiled,))
        [result], report = execute_plan(
            plan, jobs, label=label, keep_inputs=keep_inputs
        )
    return result, dataclasses.replace(
        report, wall_seconds=time.perf_counter() - start
    )


def run_report(
    modules: Mapping[str, object], settings, jobs: int = 1
) -> tuple[list[tuple[str, str]], TimingReport]:
    """Run many experiments as one grid-wide plan (``repro report``).

    Every module compiles into a single :class:`SweepPlan`, so shared
    inputs are primed once *across experiments* — one trace walk per
    (workload, stream) for the whole report — and identical cells
    appearing in several experiments run once.  Each trace is freed
    once the one phase that reads it has run.  Rendering happens in
    the parent, from each experiment's merged result.  Returns
    ``[(name, rendering), ...]`` in module order plus the timing
    report with the plan stats block.
    """
    start = time.perf_counter()
    plan = compile_report(modules, settings)
    results, report = execute_plan(plan, jobs, label="report")
    renderings = [
        (experiment.name, result.render())
        for experiment, result in zip(plan.experiments, results)
    ]
    return renderings, dataclasses.replace(
        report, wall_seconds=time.perf_counter() - start
    )
