"""The plan executor: run a plan one trace group at a time.

One code path executes every compiled plan — ``repro experiment``,
``repro report``, ``repro warm``, and the service scheduler's evaluate
batches all land here:

1. **Dedup** cells whose function and arguments are identical across
   experiments; each unique cell runs once.
2. **Group** the unique cells by trace
   (:func:`~repro.plan.ir.plan_phases`): each *phase* is a connected
   component of "these cells read a common trace".  Fetch sweeps and
   Figure 1 emit one cell per workload, so a report's phases are one
   trace each.  A caller that keeps its inputs (the server's evaluate
   batches, whose registry is their cache across requests) runs the
   whole plan as one phase.
3. For each phase, **prime** its shared inputs (traces, line-run
   streams, miss-mask geometry families) exactly once, captured as
   one ``plan-prime`` span carrying the phase index and input counts:
   streams and mask families through
   :func:`~repro.workloads.registry.get_line_runs` (one cheetah-style
   :func:`~repro.plan.inputs.prime_miss_masks` call per (trace,
   stream) covering the union of geometries the phase's cells
   requested), which loads a trace through the registry (memory/disk
   cache) only for a stream it neither holds nor finds persisted; a
   trace without declared streams is loaded directly.  The spans' summed
   rollups are the plan's ``prime_seconds`` and ``prime_phases``.
   Then **execute** the phase's cells, and **release** its traces
   from the registry's in-memory cache: no other phase reads them, so
   their line runs, line-order memos and miss masks die with them
   (through the memo finalizers).  A caller that keeps its inputs
   releases only the traces' columns: their line-run streams stay in
   the registry (:func:`~repro.workloads.registry.discard_trace` with
   ``keep_streams``), and with them their line-order memos and miss
   masks.
4. **Where.**  At ``--jobs 1`` the phases run in this process, one
   after another, so it holds one phase's inputs at a time.  At
   ``--jobs N`` one pool serves the whole plan: the phases go to it in
   plan order, and each worker primes, runs and releases one phase at
   a time, so this process primes nothing.  The workers' ``plan-prime``
   and cell spans are adopted into this process's run, and their
   dispatch counts folded into its totals.  A plan of one phase
   (including a kept-inputs plan) primes here and fans its cells out
   on :func:`~repro.runner.pool.run_cells`, so workers inherit every
   warm memo copy-on-write.
5. **Fan back** results in plan order and merge per experiment.

Plan-level dedup counters (``cells_total``, ``inputs_shared``,
``inputs_primed``, ``phases``, ...) ride on the returned
:class:`~repro.runner.timing.TimingReport` (the ``plan`` block of
``--timing-out``), on the service's ``/metrics``, and — through
:func:`add_plan_observer` — on any process-wide observer.
"""

from __future__ import annotations

import dataclasses
import functools
import threading
import time
from collections import Counter
from collections.abc import Callable, Mapping, Sequence

from repro.fetch import dispatch

from repro.obs import tracing
from repro.obs.export import span_rollup
from repro.plan.compile import compile_module, compile_report
from repro.plan.inputs import prime_miss_masks
from repro.plan.ir import (
    PlanCell,
    PlanInputs,
    SweepPlan,
    TraceKey,
    collect_inputs,
    dedup_cells,
    plan_phases,
)
from repro.runner.pool import resolve_jobs, run_cells, run_in_pool
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


def _registry_key(key: TraceKey) -> tuple[str, str, int, int]:
    """A trace key as the registry's positional arguments."""
    return key.workload, key.os_name, key.n_instructions, key.seed


def _prime_inputs(inputs: PlanInputs) -> int:
    """Prime every shared input once; returns the number primed.

    Order is deterministic (annotation insertion order) and layered:
    traces, then their RLE streams, then the mask families over those
    streams — each layer's work is a memo hit for the next.  Streams
    and masks are read through
    :func:`~repro.workloads.registry.get_line_runs`, which loads a
    trace only for a stream the registry neither holds nor finds
    persisted; so a trace with declared streams is loaded through
    them, and not at all when they are all held or persisted.
    """
    streamed = {trace_key for trace_key, _ in inputs.streams}
    primed = 0
    for key in inputs.traces:
        if key not in streamed:
            get_trace(*_registry_key(key))
        primed += 1
    for trace_key, line_size in inputs.streams:
        get_line_runs(*_registry_key(trace_key), line_size)
        primed += 1
    for (trace_key, encode_size, mask_size), (shapes, _) in (
        inputs.masks.items()
    ):
        prime_miss_masks(
            functools.partial(get_line_runs, *_registry_key(trace_key)),
            {(encode_size, mask_size): shapes},
        )
        primed += 1
    return primed


def _release_traces(inputs: PlanInputs, keep: bool) -> None:
    """Drop a phase's traces and streams from the registry's in-memory
    cache.

    With ``keep``, the streams stay cached, and with them their
    line-order memos and miss masks.
    """
    for key in inputs.traces:
        discard_trace(*_registry_key(key), keep_streams=keep)


@dataclasses.dataclass(frozen=True)
class _Phase:
    """One trace group of a plan, as a pool worker receives it."""

    number: int
    label: str
    cells: tuple[PlanCell, ...]


def _run_phase(
    phase: _Phase, jobs: int = 1, keep: bool = False
) -> tuple[int, dict | None, list, list]:
    """Prime one phase's inputs, run its cells, then free its traces
    (with ``keep``, all but their line-run streams).

    Returns the number of inputs primed, the ``plan-prime`` span's
    rollup (``None`` when the phase declares no input), and the cells'
    results and timings in cell order.
    """
    inputs = collect_inputs(phase.cells)
    primed, prime = 0, None
    try:
        if inputs.total:
            with tracing.capture(
                "plan-prime",
                label=phase.label,
                phase=phase.number,
                traces=len(inputs.traces),
                streams=len(inputs.streams),
                masks=len(inputs.masks),
            ) as records:
                primed = _prime_inputs(inputs)
            prime = span_rollup(records, records[-1])
        results, timings = run_cells(phase.cells, jobs)
    finally:
        _release_traces(inputs, keep)
    return primed, prime, results, timings


def _run_phase_in_worker(phase: _Phase) -> tuple[tuple, list[dict]]:
    """:func:`_run_phase` in a pool worker, with its span records."""
    recorder = tracing.RunRecorder(phase.label)
    with recorder.bind():
        outcome = _run_phase(phase)
    return outcome, recorder.spans


def _run_phases(
    phases: list[_Phase], jobs: int, keep_inputs: bool
) -> list[tuple[int, dict | None, list, list]]:
    """Each phase's :func:`_run_phase` outcome, in phase order."""
    workers = min(resolve_jobs(jobs), len(phases))
    if workers <= 1:
        return [
            _run_phase(phase, jobs, keep=keep_inputs)
            for phase in phases
        ]
    recorder = tracing.active_recorder()
    parent = tracing.current_span()
    parent_id = parent.span_id if parent is not None else None
    tasks = [
        (phase.cells[0].key, _run_phase_in_worker, (phase,))
        for phase in phases
    ]
    outcomes = []
    for outcome, records in run_in_pool(tasks, workers):
        # Fold the workers' dispatch counts into this process's totals,
        # so those match a serial run.
        for cell_timing in outcome[3]:
            dispatch.notify(cell_timing.dispatch)
        if recorder is not None:
            recorder.adopt(records, parent_id)
        outcomes.append(outcome)
    return outcomes


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
    traces leave the registry's in-memory cache after its last cell.
    ``keep_inputs`` runs the plan as one phase primed in this process
    and then keeps the line-run streams its traces encoded (with their
    miss masks) in the registry, dropping only the traces' columns.
    """
    start = time.perf_counter()
    inputs = collect_inputs(cells)
    unique, index_map = dedup_cells(cells)
    if keep_inputs:
        members = [list(range(len(unique)))]
    else:
        members = plan_phases(unique)
    phases = [
        _Phase(number, label, tuple(unique[index] for index in indices))
        for number, indices in enumerate(members)
    ]
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
    outcomes = _run_phases(phases, jobs, keep_inputs)
    for indices, (primed, prime, results, timings) in zip(members, outcomes):
        stats["inputs_primed"] += primed
        if prime is not None:
            prime_seconds += prime["wall_seconds"]
            prime_phases.update(prime["phases"])
        for index, result, cell_timing in zip(indices, results, timings):
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
    module,
    settings,
    jobs: int = 1,
    label: str | None = None,
    **axes,
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
