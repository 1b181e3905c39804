"""Shared experiment harness.

Each experiment sweeps configurations over workload suites; this module
provides the common plumbing: settings (defined in
:mod:`repro.experiments.settings`), cached trace access, the
suite-mean fetch sweep and the cells that run it, and the DECstation
machine-model cell that Tables 1 and 3 share.  How an experiment
decomposes into independently schedulable units is its ``plan_cells``
+ ``merge`` pair (see :mod:`repro.plan.compile`).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.config import MemorySystemConfig
from repro.core.cpi import CpiBreakdown
from repro.core.study import evaluate_trace
# Settings and job keys live in the numpy-free settings module (the
# server's store-hit path uses them); re-exported here.
from repro.experiments.settings import (
    DEFAULT_SETTINGS,
    MODEL_VERSION,
    ExperimentSettings,
    canonical_job_key,
    settings_record,
    workloads_fingerprint,
)
from repro.monitor.hwcounters import DECSTATION_3100, HardwareMonitor
from repro.plan import inputs as plan_inputs
from repro.plan.ir import PlanCell
from repro.trace.record import Component
from repro.trace.rle import LineRuns
from repro.trace.stats import component_mix
from repro.trace.trace import Trace
from repro.workloads.registry import (
    get_line_runs,
    get_trace,
    suite_workloads,
)

__all__ = [
    "DEFAULT_SETTINGS",
    "MODEL_VERSION",
    "ExperimentSettings",
    "FetchPoint",
    "canonical_job_key",
    "fetch_cells",
    "fetch_point",
    "fetch_values",
    "machine_breakdown",
    "settings_record",
    "suite_groups",
    "suite_runs",
    "suite_traces",
    "sweep_fetch_cpi",
    "workload_cells",
    "workloads_fingerprint",
]


def suite_traces(
    suite: str, settings: ExperimentSettings = DEFAULT_SETTINGS
) -> list[Trace]:
    """All traces of a suite (cached by the workload registry)."""
    return [
        get_trace(name, os_name, settings.n_instructions, settings.seed)
        for name, os_name in suite_workloads(suite)
    ]


def suite_runs(
    suite: str,
    line_size: int,
    settings: ExperimentSettings = DEFAULT_SETTINGS,
) -> list[LineRuns]:
    """RLE instruction streams of a whole suite at one line size.

    Served through the registry's derived-artifact memoization: each
    (workload, line size) stream is encoded at most once per process
    and — with the on-disk cache enabled — once ever.
    """
    return [
        get_line_runs(name, os_name, settings.n_instructions, settings.seed,
                      line_size)
        for name, os_name in suite_workloads(suite)
    ]


def machine_breakdown(
    name: str, os_name: str, settings: ExperimentSettings
) -> tuple[CpiBreakdown, float]:
    """One workload on the DECstation 3100 model, as Tables 1 and 3 see it.

    Returns the hardware monitor's CPI breakdown of the workload's trace
    and the user share of its instruction fetches.  Both tables build
    their cells on this one function (through :func:`workload_cells`),
    so a workload they share has one cell identity and runs once per
    plan.
    """
    trace = get_trace(name, os_name, settings.n_instructions, settings.seed)
    breakdown = HardwareMonitor(DECSTATION_3100).measure(
        trace, settings.warmup_fraction
    )
    return breakdown, component_mix(trace).get(Component.USER, 0.0)


def workload_cells(
    fn, suites: Iterable[str], settings: ExperimentSettings
) -> list[PlanCell]:
    """One ``fn(name, os_name, settings)`` cell per (suite, workload).

    Keys are ``(suite, name, os_name)``; the only shared input is each
    workload's trace (``fn`` walks the raw records itself).
    """
    return [
        PlanCell(
            key=(suite, name, os_name),
            fn=fn,
            args=(name, os_name, settings),
            traces=plan_inputs.workload_trace_keys(
                [(name, os_name)], settings
            ),
        )
        for suite in suites
        for name, os_name in suite_workloads(suite)
    ]


def suite_groups(keyed: dict[tuple, object]) -> dict[str, list]:
    """Per-workload results grouped by suite, each in plan order.

    ``keyed`` maps ``(suite, name, os_name)`` keys (as
    :func:`workload_cells` emits them) to results.
    """
    groups: dict[str, list] = {}
    for (suite, _name, _os_name), value in keyed.items():
        groups.setdefault(suite, []).append(value)
    return groups


@dataclass(frozen=True)
class FetchPoint:
    """One design point of a fetch-timing sweep.

    Attributes:
        key: the caller's identity for the point (dict key of the
            sweep's result).
        config: memory-system configuration to evaluate.
        mechanism: L1 refill mechanism name.
        options: mechanism options as sorted ``(name, value)`` pairs
            (hashable and picklable; build points with
            :func:`fetch_point`).
    """

    key: tuple
    config: MemorySystemConfig
    mechanism: str = "demand"
    options: tuple = ()


def fetch_point(
    key, config: MemorySystemConfig, mechanism: str = "demand", **options
) -> FetchPoint:
    """Build a :class:`FetchPoint` from keyword mechanism options."""
    return FetchPoint(
        key=tuple(key) if isinstance(key, (tuple, list)) else (key,),
        config=config,
        mechanism=mechanism,
        options=tuple(sorted(options.items())),
    )


def sweep_fetch_cpi(
    suite: str,
    points: Sequence[FetchPoint],
    settings: ExperimentSettings = DEFAULT_SETTINGS,
) -> dict[tuple, tuple[float, float]]:
    """Suite-mean (L1, L2) CPIinstr for many design points, trace-major.

    The evaluator behind every fetch sweep (each :func:`fetch_cells`
    cell runs one call): workloads iterate on the *outside* and design
    points on the inside, so each workload's RLE streams, miss masks,
    and mechanism state (all memoized per stream
    through :class:`~repro.caches.vectorized.LineOrderCache`) are
    computed once per (workload, line size) and shared across every
    L2-latency/width/mechanism point, instead of being rebuilt per
    point.  The geometry axis is batched too: before evaluating a
    trace's points, every mask shape the sweep needs is computed
    through one multi-geometry pass per (stream, set count) — one
    trace walk per (workload, line size).  Each point's means are
    ``np.mean`` over the suite's per-trace
    :func:`~repro.core.study.evaluate_trace` results in workload order,
    so results are bit-identical to running the points one at a time.
    """
    per_point: dict[tuple, tuple[list, list]] = {}
    for point in points:
        if point.key in per_point:
            raise ValueError(f"duplicate sweep point key {point.key!r}")
        per_point[point.key] = ([], [])
    plan = plan_inputs.mask_shape_plan(points, settings.engine)
    for trace in suite_traces(suite, settings):
        plan_inputs.prime_miss_masks(trace, plan)
        for point in points:
            result = evaluate_trace(
                trace,
                point.config,
                point.mechanism,
                warmup_fraction=settings.warmup_fraction,
                engine=settings.engine,
                **dict(point.options),
            )
            l1_values, l2_values = per_point[point.key]
            l1_values.append(result.cpi_l1)
            l2_values.append(result.cpi_l2)
    return {
        key: (float(np.mean(l1_values)), float(np.mean(l2_values)))
        for key, (l1_values, l2_values) in per_point.items()
    }


def fetch_cells(
    columns: Mapping[tuple, tuple[str, Sequence[FetchPoint]]],
    settings: ExperimentSettings,
) -> list[PlanCell]:
    """One :func:`sweep_fetch_cpi` cell per column of a fetch sweep.

    ``columns`` maps each cell key to ``(suite, points)``.  The cell
    runs ``sweep_fetch_cpi(suite, points, settings)``, and its traces,
    streams and mask families are derived from those same points, so
    an experiment declares each design point once.  Two experiments
    that sweep the same points on the same suite emit cells with one
    identity, which a plan runs once.
    """
    cells = []
    for key, (suite, points) in columns.items():
        points = tuple(points)
        cells.append(
            PlanCell(
                key=key,
                fn=sweep_fetch_cpi,
                args=(suite, points, settings),
                traces=plan_inputs.suite_trace_keys(suite, settings),
                streams=plan_inputs.point_streams(points),
                masks=plan_inputs.mask_families(points, settings.engine),
            )
        )
    return cells


def fetch_values(
    keyed: Mapping[tuple, dict[tuple, tuple[float, float]]],
) -> dict[tuple, tuple[float, float]]:
    """Merge :func:`fetch_cells` results into ``{point key: (l1, l2)}``.

    Points appear in plan order: column by column, each column's points
    in the order it declared them.
    """
    merged: dict[tuple, tuple[float, float]] = {}
    for swept in keyed.values():
        merged.update(swept)
    return merged
