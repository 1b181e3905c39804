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
from repro.trace.stats import component_mix
from repro.workloads.registry import get_trace, suite_workloads

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


def trace_fetch_cpi(
    name: str,
    os_name: str,
    points: Sequence[FetchPoint],
    settings: ExperimentSettings = DEFAULT_SETTINGS,
) -> dict[tuple, tuple[float, float]]:
    """One workload's (L1, L2) CPIinstr at many design points.

    The evaluator behind every fetch sweep (each :func:`fetch_cells`
    cell runs one call).  The trace's RLE streams, miss masks and
    mechanism state are memoized per stream through
    :class:`~repro.caches.vectorized.LineOrderCache`, so they are
    computed once and shared by every L2-latency/width/mechanism
    point.  The geometry axis is batched too: before the first point,
    every mask shape the points need is computed through one
    multi-geometry pass per (stream, set count).  Each value is the
    trace's :func:`~repro.core.study.evaluate_trace` result, so a
    sweep is bit-identical to running its points one at a time.
    """
    seen: set[tuple] = set()
    for point in points:
        if point.key in seen:
            raise ValueError(f"duplicate sweep point key {point.key!r}")
        seen.add(point.key)
    trace = get_trace(name, os_name, settings.n_instructions, settings.seed)
    plan_inputs.prime_miss_masks(
        trace.ifetch_line_runs,
        plan_inputs.mask_shape_plan(points, settings.engine),
    )
    values: dict[tuple, tuple[float, float]] = {}
    for point in points:
        result = evaluate_trace(
            trace,
            point.config,
            point.mechanism,
            warmup_fraction=settings.warmup_fraction,
            engine=settings.engine,
            **dict(point.options),
        )
        values[point.key] = (result.cpi_l1, result.cpi_l2)
    return values


def fetch_cells(
    columns: Mapping[tuple, tuple[str, Sequence[FetchPoint]]],
    settings: ExperimentSettings,
) -> list[PlanCell]:
    """One :func:`trace_fetch_cpi` cell per (column, workload).

    ``columns`` maps each column key to ``(suite, points)``.  The
    column becomes one cell per workload of its suite, keyed
    ``(*column key, name, os_name)`` in suite order, each running
    ``trace_fetch_cpi(name, os_name, points, settings)``.  A cell reads
    one trace, and its streams and mask families are derived from the
    column's points, so an experiment declares each design point once.
    Two experiments that sweep the same points on the same workload
    emit cells with one identity, which a plan runs once.
    """
    cells = []
    for key, (suite, points) in columns.items():
        points = tuple(points)
        streams = plan_inputs.point_streams(points)
        masks = plan_inputs.mask_families(points, settings.engine)
        for name, os_name in suite_workloads(suite):
            cells.append(
                PlanCell(
                    key=(*key, name, os_name),
                    fn=trace_fetch_cpi,
                    args=(name, os_name, points, settings),
                    traces=plan_inputs.workload_trace_keys(
                        [(name, os_name)], settings
                    ),
                    streams=streams,
                    masks=masks,
                )
            )
    return cells


def fetch_values(
    keyed: Mapping[tuple, dict[tuple, tuple[float, float]]],
) -> dict[tuple, tuple[float, float]]:
    """Suite-mean ``{point key: (l1, l2)}`` from :func:`fetch_cells` results.

    Each point's L1 and L2 values are ``np.mean`` over its column's
    workloads in suite order.  Points appear in plan order: column by
    column, each column's points in the order it declared them.
    """
    columns: dict[tuple, dict[tuple, tuple[list, list]]] = {}
    for key, values in keyed.items():
        column = columns.setdefault(key[:-2], {})
        for point, (l1, l2) in values.items():
            l1_values, l2_values = column.setdefault(point, ([], []))
            l1_values.append(l1)
            l2_values.append(l2)
    merged: dict[tuple, tuple[float, float]] = {}
    for column in columns.values():
        merged.update(
            (point, (float(np.mean(l1_values)), float(np.mean(l2_values))))
            for point, (l1_values, l2_values) in column.items()
        )
    return merged
