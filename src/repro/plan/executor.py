"""The plan executor: run a plan one trace group at a time, in stages.

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
3. **Walk** each phase in stages, so every input lives only from its
   first reader to its last (:func:`_schedule`).  Cells that read
   trace columns run first.  Then the phase's streams are encoded,
   finest line size first, and the columns are dropped.  Then the
   stream-only cells run, ordered by the finest line size each reads.
   A trace is loaded, and a stream or miss-mask family primed, just
   before the stage of its first reader — each exactly once, a mask
   family with the union of the geometries its readers request (one
   cheetah-style :func:`~repro.plan.inputs.prime_miss_masks` call).
   Streams and masks are read through
   :func:`~repro.workloads.registry.get_line_runs`, which loads a
   trace through the registry (memory/disk cache) only for a stream
   it neither holds nor finds persisted.  A stream is **released**
   (:func:`~repro.workloads.registry.release_inputs`) right after its
   last reader, and its line-order memo and miss masks die with it
   (through the memo finalizers).  Each stage's primes and releases
   are one ``plan-prime`` span carrying the phase, the stage and the
   counts primed and released; the spans' summed rollups are the
   plan's ``prime_seconds`` and ``prime_phases``.  A caller that
   keeps its inputs releases only the traces' columns: their
   line-run streams stay in the registry
   (:func:`~repro.workloads.registry.discard_trace` with
   ``keep_streams``), and with them their line-order memos and miss
   masks.
4. **Where.**  At ``--jobs 1`` the phases run in this process, one
   after another, so it holds at most one phase's inputs at a time.  At
   ``--jobs N`` one pool serves the whole plan: the phases go to it in
   plan order, and each worker primes, runs and releases one phase at
   a time, so this process primes nothing.  Each worker returns its
   phase's rollups, whose dispatch counts are folded into this
   process's totals; it ships its ``plan-prime`` and cell spans only
   when this process is traced, to be adopted into its run.  A plan
   of one phase (including a kept-inputs plan) primes here and fans
   each stage's cells out on :func:`~repro.runner.pool.run_cells`, so
   workers inherit every warm memo copy-on-write.
5. **Fan back** results and timings in plan order and merge per
   experiment.

The run's timing is one plain dict: ``label``, ``jobs``,
``wall_seconds``, ``cells`` (each unique cell's span rollup: ``key``,
``wall_seconds``, ``phases``, ``engine_dispatch``) and the ``plan``
block of dedup counters (``cells_total``, ``inputs_shared``,
``inputs_primed``, ``phases``, ...).  ``--timing-out`` writes it with
its totals (:func:`~repro.obs.export.timing_record`); the plan block
also feeds the service's ``/metrics`` and, through
:func:`add_plan_observer`, any process-wide observer.
"""

from __future__ import annotations

import bisect
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
from repro.workloads.registry import (
    discard_trace,
    get_line_runs,
    get_line_runs_at,
    get_trace,
    release_inputs,
)

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


def _rank(cell: PlanCell) -> tuple[bool, int]:
    """Where a cell runs in its phase: column readers first, then by
    the finest line size it reads (none first)."""
    return (
        not (cell.traces and cell.columns),
        min(cell.stream_sizes, default=0),
    )


@dataclasses.dataclass
class _Step:
    """One stage of a phase's walk: what is primed and released just
    before its cells run, then the cells (indices into the phase's
    cells, in run order).

    In order: streams whose last reader ran in the previous stage are
    released; traces are loaded for their first column reader; streams
    are encoded one trace at a time, finest first, and traces whose
    last column reader has run lose their columns, each right after
    its own streams are encoded; mask families are primed for their
    first reader.  ``primed`` and ``released`` count the inputs (a trace, a
    stream, a mask family) primed and released here; a released
    stream's mask families go with it.
    """

    cells: list[int] = dataclasses.field(default_factory=list)
    release: list[tuple[TraceKey, int]] = dataclasses.field(
        default_factory=list
    )
    loads: list[TraceKey] = dataclasses.field(default_factory=list)
    streams: list[tuple[TraceKey, int]] = dataclasses.field(
        default_factory=list
    )
    drop: list[TraceKey] = dataclasses.field(default_factory=list)
    masks: list[tuple[TraceKey, int, int]] = dataclasses.field(
        default_factory=list
    )
    primed: int = 0
    released: int = 0


def _schedule(cells: Sequence[PlanCell], keep: bool) -> list[_Step]:
    """Order one phase's cells into stages and place every input's
    prime and release.

    Cells that read trace columns run first; the others follow.  Each
    group is ordered by the finest line size its cells read (cells
    that read no stream first; plan order breaks ties), and a stage
    ends wherever that size changes.  So a column reader that reads no
    stream (Figure 2) runs before any stream is primed for the column
    readers that need one (the machine model's 4-byte fetch stream).
    A trace is loaded before its first column reader and its columns
    are dropped after its last one.  A stream is encoded before its
    first reader, or, when that reader comes after the columns are
    dropped, just before the drop: it is the last moment the stream
    can be encoded without loading the trace again.  Each mask family
    is primed once, with the union of its readers' shapes, before the
    stage of its first reader.  Unless ``keep``, a stream is released
    right after its last reader, so a stage ends there.  Returns one
    step per stage plus a last, cell-less step that releases what the
    last stage read.
    """
    ranks = [_rank(cell) for cell in cells]
    order = sorted(range(len(cells)), key=ranks.__getitem__)
    trace_first: dict[TraceKey, int] = {}
    column_first: dict[TraceKey, int] = {}
    column_last: dict[TraceKey, int] = {}
    stream_first: dict[tuple[TraceKey, int], int] = {}
    stream_last: dict[tuple[TraceKey, int], int] = {}
    mask_first: dict[tuple[TraceKey, int, int], int] = {}
    for position, index in enumerate(order):
        cell = cells[index]
        for trace in cell.traces:
            trace_first.setdefault(trace, position)
            if cell.columns:
                column_first.setdefault(trace, position)
                column_last[trace] = position
            for size in cell.stream_sizes:
                stream_first.setdefault((trace, size), position)
                stream_last[(trace, size)] = position
            for family in cell.masks:
                mask_first.setdefault(
                    (trace, family.encode_line_size, family.mask_line_size),
                    position,
                )
    cuts = {
        position for position in range(1, len(order))
        if ranks[order[position]] != ranks[order[position - 1]]
    }
    cuts.update(position + 1 for position in column_last.values())
    if not keep:
        cuts.update(position + 1 for position in stream_last.values())
    bounds = [0, *sorted(c for c in cuts if 0 < c < len(order)), len(order)]
    steps = [_Step(cells=order[a:b]) for a, b in zip(bounds, bounds[1:])]
    steps.append(_Step())

    def stage(position: int) -> int:
        return bisect.bisect_right(bounds, position) - 1

    # A trace no cell reads columns of is "dropped" (it may have been
    # loaded to encode a stream) before its first reader.
    drop_at = {
        trace: stage(column_last[trace]) + 1
        if trace in column_last else stage(position)
        for trace, position in trace_first.items()
    }
    for trace in trace_first:
        if trace in column_first:
            step = steps[stage(column_first[trace])]
            step.loads.append(trace)
        else:
            step = steps[drop_at[trace]]
        step.primed += 1
        steps[drop_at[trace]].drop.append(trace)
        steps[drop_at[trace]].released += 1
    families = Counter((trace, encode) for trace, encode, _ in mask_first)
    for stream in sorted(stream_first, key=lambda stream: stream[1]):
        trace, _ = stream
        step = steps[min(stage(stream_first[stream]), drop_at[trace])]
        step.streams.append(stream)
        step.primed += 1
        if not keep:
            step = steps[stage(stream_last[stream]) + 1]
            step.release.append(stream)
            step.released += 1 + families[stream]
    for family, position in mask_first.items():
        step = steps[stage(position)]
        step.masks.append(family)
        step.primed += 1
    return steps


def _prime_and_release(step: _Step, inputs: PlanInputs) -> None:
    """Carry out one step's releases and primes, in :class:`_Step`
    order.

    A trace's streams go to
    :func:`~repro.workloads.registry.get_line_runs_at` together, which
    loads the trace only for streams the registry neither holds nor
    finds persisted and selects its fetch addresses once for them all;
    a trace to be dropped here loses its columns right after its
    streams, before the next trace's are encoded.  Masks read their
    streams through :func:`~repro.workloads.registry.get_line_runs`.
    """
    for trace, size in step.release:
        release_inputs(*_registry_key(trace), line_sizes=(size,))
    for trace in step.loads:
        get_trace(*_registry_key(trace))
    sizes: dict[TraceKey, list[int]] = {trace: [] for trace in step.drop}
    for trace, size in step.streams:
        sizes.setdefault(trace, []).append(size)
    for trace, trace_sizes in sizes.items():
        if trace_sizes:
            get_line_runs_at(*_registry_key(trace), trace_sizes)
        if trace in step.drop:
            release_inputs(*_registry_key(trace), columns=True)
    for family in step.masks:
        trace, encode_size, mask_size = family
        shapes, _ = inputs.masks[family]
        prime_miss_masks(
            functools.partial(get_line_runs, *_registry_key(trace)),
            {(encode_size, mask_size): shapes},
        )


@dataclasses.dataclass(frozen=True)
class _Phase:
    """One trace group of a plan, as a pool worker receives it."""

    number: int
    label: str
    cells: tuple[PlanCell, ...]


def _run_phase(
    phase: _Phase, jobs: int = 1, keep: bool = False
) -> tuple[int, list[dict], list, list]:
    """Walk one phase stage by stage (see :func:`_schedule`).

    Each stage's primes and releases are one ``plan-prime`` span, and
    its cells go to :func:`~repro.runner.pool.run_cells` together.
    Whatever the phase still holds at the end (after a failed cell,
    say) is dropped; with ``keep``, its traces' line-run streams stay.

    Returns the number of inputs primed, the ``plan-prime`` spans'
    rollups, and the cells' results and timings in cell order.
    """
    inputs = collect_inputs(phase.cells)
    primed, primes = 0, []
    results: list = [None] * len(phase.cells)
    timings: list = [None] * len(phase.cells)
    try:
        for number, step in enumerate(_schedule(phase.cells, keep)):
            if step.primed or step.released:
                with tracing.capture(
                    "plan-prime",
                    label=phase.label,
                    phase=phase.number,
                    stage=number,
                    primed=step.primed,
                    released=step.released,
                ) as records:
                    _prime_and_release(step, inputs)
                primes.append(span_rollup(records, records[-1]))
                primed += step.primed
            if step.cells:
                stage_results, stage_timings = run_cells(
                    [phase.cells[index] for index in step.cells], jobs
                )
                for index, result, cell_timing in zip(
                    step.cells, stage_results, stage_timings
                ):
                    results[index] = result
                    timings[index] = cell_timing
    finally:
        for trace in inputs.traces:
            discard_trace(*_registry_key(trace), keep_streams=keep)
    return primed, primes, results, timings


def _run_phase_in_worker(
    phase: _Phase, ship: bool
) -> tuple[tuple, list[dict] | None]:
    """:func:`_run_phase` in a pool worker; with ``ship``, also its span
    records for a traced parent to adopt (``None`` without)."""
    if not ship:
        return _run_phase(phase), None
    recorder = tracing.RunRecorder(phase.label)
    with recorder.bind():
        outcome = _run_phase(phase)
    return outcome, recorder.spans


def _run_phases(
    phases: list[_Phase], jobs: int, keep_inputs: bool
) -> list[tuple[int, list[dict], list, list]]:
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
        (
            phase.cells[0].key,
            _run_phase_in_worker,
            (phase, recorder is not None),
        )
        for phase in phases
    ]
    outcomes = []
    for outcome, records in run_in_pool(tasks, workers):
        # Fold the workers' dispatch counts into this process's totals,
        # so those match a serial run.
        for timing in outcome[3]:
            dispatch.notify(timing["engine_dispatch"])
        if records is not None:
            recorder.adopt(records, parent_id)
        outcomes.append(outcome)
    return outcomes


def execute_cells(
    cells: Sequence[PlanCell],
    jobs: int = 1,
    label: str = "plan",
    *,
    keep_inputs: bool = False,
) -> tuple[list, dict]:
    """Execute plan cells with priming and dedup; results align with
    ``cells``.

    The returned timing dict carries the per-(unique-)cell timings
    plus the plan stats block; results are bit-identical to
    running every cell individually with no priming.  Each input
    leaves the registry's in-memory cache after its last reader.
    ``keep_inputs`` runs the plan as one phase primed in this process
    and keeps the line-run streams its traces encoded (with their
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
    for indices, (primed, primes, results, timings) in zip(members, outcomes):
        stats["inputs_primed"] += primed
        for prime in primes:
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
    timing = {
        "label": label,
        "jobs": resolve_jobs(jobs),
        "wall_seconds": time.perf_counter() - start,
        "cells": cell_timings,
        "plan": stats,
    }
    return results, timing


def execute_plan(
    plan: SweepPlan, jobs: int = 1, label: str = "plan"
) -> tuple[list, dict]:
    """Execute a whole plan; returns one merged result per experiment."""
    results, timing = execute_cells(plan.cells, jobs, label=label)
    merged = []
    cursor = 0
    for experiment in plan.experiments:
        count = len(experiment.cells)
        merged.append(experiment.assemble(results[cursor : cursor + count]))
        cursor += count
    return merged, timing


def run_experiment(
    module,
    settings,
    jobs: int = 1,
    label: str | None = None,
    **axes,
):
    """Run one experiment module through its compiled plan.

    ``axes`` narrow the module's sweep (they are passed through to its
    ``plan_cells``).  Returns ``(result, timing)``; each
    experiment module's ``run`` returns the result of this call.
    """
    if label is None:
        label = module.__name__.rsplit(".", 1)[-1]
    start = time.perf_counter()
    with tracing.span("experiment", label=label, jobs=resolve_jobs(jobs)):
        compiled = compile_module(module, settings, name=label, **axes)
        plan = SweepPlan(experiments=(compiled,))
        [result], timing = execute_plan(plan, jobs, label=label)
    return result, dict(timing, wall_seconds=time.perf_counter() - start)


def run_report(
    modules: Mapping[str, object], settings, jobs: int = 1
) -> tuple[list[tuple[str, str]], dict]:
    """Run many experiments as one grid-wide plan (``repro report``).

    Every module compiles into a single :class:`SweepPlan`, so shared
    inputs are primed once *across experiments* — one trace walk per
    (workload, stream) for the whole report — and identical cells
    appearing in several experiments run once.  Each input is freed
    after its last reader.  Rendering happens in
    the parent, from each experiment's merged result.  Returns
    ``[(name, rendering), ...]`` in module order plus the timing dict
    with the plan stats block.
    """
    start = time.perf_counter()
    plan = compile_report(modules, settings)
    results, timing = execute_plan(plan, jobs, label="report")
    renderings = [
        (experiment.name, result.render())
        for experiment, result in zip(plan.experiments, results)
    ]
    return renderings, dict(timing, wall_seconds=time.perf_counter() - start)
