"""Shared experiment harness.

Each experiment sweeps configurations over workload suites; this module
provides the common plumbing: settings (defined in
:mod:`repro.experiments.settings`), the per-trace fetch sweep with the
cells that run it and their suite means, and the DECstation
machine-model cell that Tables 1 and 3 share.  How an experiment
decomposes into independently schedulable units is its ``plan_cells``
+ ``merge`` pair (see :mod:`repro.plan.compile`).
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.core.config import MemorySystemConfig
from repro.core.cpi import CpiBreakdown
from repro.core.study import evaluate_streams
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
from repro.plan.ir import MaskFamily, PlanCell
from repro.trace.record import Component
from repro.trace.stats import component_mix
from repro.workloads.registry import (
    get_line_runs,
    get_trace,
    suite_workloads,
)

__all__ = [
    "DEFAULT_SETTINGS",
    "MODEL_VERSION",
    "ExperimentSettings",
    "FetchMetrics",
    "FetchPoint",
    "MACHINE_STREAMS",
    "canonical_job_key",
    "fetch_cell",
    "fetch_cells",
    "fetch_point",
    "fetch_values",
    "machine_breakdown",
    "settings_record",
    "suite_groups",
    "trace_fetch_cpi",
    "workload_cells",
    "workloads_fingerprint",
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
    ifetch_runs = get_line_runs(
        name,
        os_name,
        settings.n_instructions,
        settings.seed,
        DECSTATION_3100.icache.line_size,
    )
    breakdown = HardwareMonitor(DECSTATION_3100).measure(
        trace, ifetch_runs, settings.warmup_fraction
    )
    return breakdown, component_mix(trace).get(Component.USER, 0.0)


#: The line-run streams :func:`machine_breakdown` reads: the I-cache's
#: fetch stream (the cells that run it declare it through
#: :func:`workload_cells`).
MACHINE_STREAMS = (DECSTATION_3100.icache.line_size,)


def workload_cells(
    fn,
    suites: Iterable[str],
    settings: ExperimentSettings,
    streams: tuple[int, ...] = (),
) -> list[PlanCell]:
    """One ``fn(name, os_name, settings)`` cell per (suite, workload).

    Keys are ``(suite, name, os_name)``.  Each cell reads its
    workload's trace columns, and ``streams`` names the line sizes of
    the fetch streams ``fn`` reads too (:data:`MACHINE_STREAMS` for
    :func:`machine_breakdown`), so a plan primes and shares them.
    """
    return [
        PlanCell(
            key=(suite, name, os_name),
            fn=fn,
            args=(name, os_name, settings),
            traces=plan_inputs.workload_trace_keys(
                [(name, os_name)], settings
            ),
            streams=streams,
            columns=True,
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


class FetchMetrics(NamedTuple):
    """One design point's fetch metrics, as ``/v1/evaluate`` reports
    them (see :class:`~repro.core.study.StudyResult`)."""

    mpi: float
    l2_mpi: float
    cpi_l1: float
    cpi_l2: float
    cpi_instr: float


def trace_fetch_cpi(
    name: str,
    os_name: str,
    points: Sequence[FetchPoint],
    settings: ExperimentSettings = DEFAULT_SETTINGS,
) -> dict[tuple, FetchMetrics]:
    """One workload's fetch metrics at many design points.

    The evaluator behind every fetch point: the report's sweeps, ``repro
    warm`` and ``/v1/evaluate`` all run it in cells built by
    :func:`fetch_cell`.  It reads each line-run stream its points need
    once, through :func:`~repro.workloads.registry.get_line_runs`, and
    never the trace.  Miss masks and mechanism state are memoized per stream
    through :class:`~repro.caches.vectorized.LineOrderCache`, so they
    are computed once and shared by every L2-latency/width/mechanism
    point.  The geometry axis is batched too: before the first point,
    every mask shape the points need is computed through one
    multi-geometry pass per (stream, set count).  Each value holds the
    point's :func:`~repro.core.study.evaluate_streams` result, so a
    sweep is bit-identical to running its points one at a time.
    """
    seen: set[tuple] = set()
    for point in points:
        if point.key in seen:
            raise ValueError(f"duplicate sweep point key {point.key!r}")
        seen.add(point.key)
    # One registry read per stream, not one per point and leg: each
    # read is a counted lookup and an event on the active span.
    line_runs = {
        line_size: get_line_runs(
            name, os_name, settings.n_instructions, settings.seed, line_size
        )
        for line_size in plan_inputs.point_streams(points)
    }.__getitem__
    plan_inputs.prime_miss_masks(
        line_runs, plan_inputs.mask_shape_plan(points, settings.engine)
    )
    values: dict[tuple, FetchMetrics] = {}
    for point in points:
        result = evaluate_streams(
            f"{name}@{os_name}",  # the trace's label
            line_runs,
            point.config,
            point.mechanism,
            warmup_fraction=settings.warmup_fraction,
            engine=settings.engine,
            **dict(point.options),
        )
        values[point.key] = FetchMetrics(
            mpi=result.l1.mpi,
            l2_mpi=result.l2_mpi,
            cpi_l1=result.cpi_l1,
            cpi_l2=result.cpi_l2,
            cpi_instr=result.cpi_instr,
        )
    return values


@functools.lru_cache(maxsize=256)
def _point_inputs(
    points: tuple[FetchPoint, ...], engine: str
) -> tuple[tuple[int, ...], tuple[MaskFamily, ...]]:
    """The streams and mask families a sweep's points read.

    Memoized, so every workload's cell of one column (and every cell
    sweeping equal points) holds the same two tuples.
    """
    return (
        plan_inputs.point_streams(points),
        plan_inputs.mask_families(points, engine),
    )


def fetch_cell(
    key: tuple,
    name: str,
    os_name: str,
    points: Sequence[FetchPoint],
    settings: ExperimentSettings,
) -> PlanCell:
    """One :func:`trace_fetch_cpi` cell: ``points`` on one workload.

    The cell reads one trace's streams, not its columns, and its
    streams and mask families are derived from its points (once per
    distinct point tuple), so a caller declares each design point
    once.  Two cells that sweep the same points on the same workload
    have one identity, which a plan runs once.
    """
    points = tuple(points)
    streams, masks = _point_inputs(points, settings.engine)
    return PlanCell(
        key=key,
        fn=trace_fetch_cpi,
        args=(name, os_name, points, settings),
        traces=plan_inputs.workload_trace_keys([(name, os_name)], settings),
        streams=streams,
        masks=masks,
    )


def fetch_cells(
    columns: Mapping[tuple, tuple[str, Sequence[FetchPoint]]],
    settings: ExperimentSettings,
) -> list[PlanCell]:
    """One :func:`fetch_cell` per (column, workload).

    ``columns`` maps each column key to ``(suite, points)``.  The
    column becomes one cell per workload of its suite, keyed
    ``(*column key, name, os_name)`` in suite order.
    """
    return [
        fetch_cell((*key, name, os_name), name, os_name, points, settings)
        for key, (suite, points) in columns.items()
        for name, os_name in suite_workloads(suite)
    ]


def fetch_values(
    keyed: Mapping[tuple, dict[tuple, FetchMetrics]],
) -> dict[tuple, tuple[float, float]]:
    """Suite-mean ``{point key: (l1, l2)}`` from :func:`fetch_cells` results.

    Each point's L1 and L2 values are ``np.mean`` of its ``cpi_l1`` and
    ``cpi_l2`` over its column's workloads in suite order.  Points
    appear in plan order: column by column, each column's points in
    the order it declared them.
    """
    columns: dict[tuple, dict[tuple, tuple[list, list]]] = {}
    for key, values in keyed.items():
        column = columns.setdefault(key[:-2], {})
        for point, metrics in values.items():
            l1_values, l2_values = column.setdefault(point, ([], []))
            l1_values.append(metrics.cpi_l1)
            l2_values.append(metrics.cpi_l2)
    merged: dict[tuple, tuple[float, float]] = {}
    for column in columns.values():
        merged.update(
            (point, (float(np.mean(l1_values)), float(np.mean(l2_values))))
            for point, (l1_values, l2_values) in column.items()
        )
    return merged
