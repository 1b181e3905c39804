"""The plan executor: prime shared inputs once, then fan out cells.

One code path executes every compiled plan — ``repro experiment``,
``repro report``, ``repro warm``, and the service scheduler's evaluate
batches all land here:

1. **Collect** the shared-input union of all cells (traces, line-run
   streams, miss-mask geometry families) with demand counts.
2. **Prime** each input exactly once, in the parent process, under a
   ``plan-prime`` span: traces through the registry (memory/disk
   cache), streams through :func:`~repro.workloads.registry.
   get_line_runs`, and mask families through one cheetah-style
   :func:`~repro.plan.inputs.prime_miss_masks` call per (trace,
   stream) covering the union of geometries every experiment in the
   plan requested.  The primed memos live as long as their streams,
   which the trace cache holds (the line-order registry's byte budget
   is the memory cap).
3. **Dedup** cells whose function and arguments are identical across
   experiments; each unique cell runs once.
4. **Execute** the unique cells on :func:`~repro.runner.pool.
   run_cells`.  Priming happens before the pool forks, so workers
   inherit every warm memo copy-on-write and one trace walk serves
   the whole plan (on spawn-only platforms the cells recompute
   lazily — slower, never incorrect).
5. **Fan back** results in plan order and merge per experiment.

Plan-level dedup counters (``cells_total``, ``inputs_shared``,
``inputs_primed``, ...) ride on the returned
:class:`~repro.runner.timing.TimingReport` (the ``plan`` block of
``--timing-out``), on the ``plan-prime`` span, and — through
:func:`add_plan_observer` — on the service's ``/metrics``.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable, Mapping, Sequence

from repro.obs import tracing
from repro.plan.compile import compile_module, compile_report
from repro.plan.inputs import prime_miss_masks
from repro.plan.ir import (
    PlanCell,
    PlanInputs,
    SweepPlan,
    collect_inputs,
    dedup_cells,
)
from repro.runner import timing
from repro.runner.pool import resolve_jobs, run_cells
from repro.runner.timing import TimingReport
from repro.workloads.registry import get_line_runs, get_trace

__all__ = [
    "add_plan_observer",
    "execute_cells",
    "execute_plan",
    "remove_plan_observer",
    "run_experiment",
    "run_report",
]

#: Process-wide plan observers (the serving layer's live metrics feed),
#: called with each executed plan's stats dict.  Mirrors the phase and
#: dispatch observer registries: cheap, must not raise.
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


def execute_cells(
    cells: Sequence[PlanCell], jobs: int = 1, label: str = "plan"
) -> tuple[list, TimingReport]:
    """Execute plan cells with priming and dedup; results align with
    ``cells``.

    The returned :class:`TimingReport` carries the per-(unique-)cell
    timings plus the plan stats block; results are bit-identical to
    running every cell individually with no priming.
    """
    start = time.perf_counter()
    inputs = collect_inputs(cells)
    unique, index_map = dedup_cells(cells)
    stats = {
        "cells_total": len(cells),
        "cells_unique": len(unique),
        "inputs_total": inputs.total,
        "inputs_shared": inputs.shared,
        "inputs_primed": 0,
    }
    if inputs.total:
        phases_before = timing.snapshot()
        prime_start = time.perf_counter()
        with tracing.span(
            "plan-prime",
            label=label,
            traces=len(inputs.traces),
            streams=len(inputs.streams),
            masks=len(inputs.masks),
        ):
            stats["inputs_primed"] = _prime_inputs(inputs)
        stats["prime_seconds"] = round(time.perf_counter() - prime_start, 6)
        phases_after = timing.snapshot()
        stats["prime_phases"] = {
            name: round(seconds - phases_before.get(name, 0.0), 6)
            for name, seconds in phases_after.items()
            if seconds - phases_before.get(name, 0.0) > 0.0
        }
    results_unique, cell_timings = run_cells(unique, jobs)
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
    plan: SweepPlan, jobs: int = 1, label: str = "plan"
) -> tuple[list, TimingReport]:
    """Execute a whole plan; returns one merged result per experiment."""
    results, report = execute_cells(plan.cells, jobs, label=label)
    merged = []
    cursor = 0
    for experiment in plan.experiments:
        count = len(experiment.cells)
        merged.append(experiment.assemble(results[cursor : cursor + count]))
        cursor += count
    return merged, report


def run_experiment(
    module, settings, jobs: int = 1, label: str | None = None, **axes
):
    """Run one experiment module through its compiled plan.

    ``axes`` narrow the module's sweep (they are passed through to its
    ``plan_cells``).  Returns ``(result, TimingReport)``; each
    experiment module's ``run`` returns the result of this call.
    """
    if label is None:
        label = module.__name__.rsplit(".", 1)[-1]
    start = time.perf_counter()
    with tracing.span("experiment", label=label, jobs=resolve_jobs(jobs)):
        compiled = compile_module(module, settings, name=label, **axes)
        plan = SweepPlan(experiments=(compiled,))
        [result], report = execute_plan(plan, jobs, label=label)
    return result, TimingReport(
        label=label,
        jobs=report.jobs,
        wall_seconds=time.perf_counter() - start,
        cells=report.cells,
        plan=report.plan,
    )


def run_report(
    modules: Mapping[str, object], settings, jobs: int = 1
) -> tuple[list[tuple[str, str]], TimingReport]:
    """Run many experiments as one grid-wide plan (``repro report``).

    Every module compiles into a single :class:`SweepPlan`, so shared
    inputs are primed once *across experiments* — one trace walk per
    (workload, stream) for the whole report — and identical cells
    appearing in several experiments run once.  Rendering happens in
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
    return renderings, TimingReport(
        label="report",
        jobs=report.jobs,
        wall_seconds=time.perf_counter() - start,
        cells=report.cells,
        plan=report.plan,
    )
