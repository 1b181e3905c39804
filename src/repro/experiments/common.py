"""Shared experiment harness.

Each experiment sweeps configurations over workload suites; this module
provides the common plumbing: settings (defined in
:mod:`repro.experiments.settings`), cached trace access,
suite-averaged evaluation helpers, and the DECstation machine-model
cell that Tables 1 and 3 share.  How an experiment decomposes into
independently schedulable units is its ``plan_cells`` + ``merge`` pair
(see :mod:`repro.plan.compile`).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro.core.config import MemorySystemConfig
from repro.core.cpi import CpiBreakdown
from repro.core.study import StudyResult, evaluate_trace
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
    "fetch_point",
    "machine_breakdown",
    "settings_record",
    "suite_groups",
    "suite_cpi_instr",
    "suite_evaluate",
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


def suite_evaluate(
    suite: str,
    config: MemorySystemConfig,
    mechanism: str = "demand",
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    **options,
) -> list[StudyResult]:
    """Evaluate a configuration over every workload of a suite."""
    return [
        evaluate_trace(
            trace,
            config,
            mechanism,
            warmup_fraction=settings.warmup_fraction,
            engine=settings.engine,
            **options,
        )
        for trace in suite_traces(suite, settings)
    ]


def suite_cpi_instr(
    suite: str,
    config: MemorySystemConfig,
    mechanism: str = "demand",
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    **options,
) -> tuple[float, float]:
    """Suite-mean (L1 CPIinstr, L2 CPIinstr) for one configuration."""
    results = suite_evaluate(suite, config, mechanism, settings, **options)
    return (
        float(np.mean([r.cpi_l1 for r in results])),
        float(np.mean([r.cpi_l2 for r in results])),
    )


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
    points: list[FetchPoint],
    settings: ExperimentSettings = DEFAULT_SETTINGS,
) -> dict[tuple, tuple[float, float]]:
    """Suite-mean (L1, L2) CPIinstr for many design points, trace-major.

    The Figure 5-7 / Table 6 sweep planner: workloads iterate on the
    *outside* and design points on the inside, so each workload's RLE
    streams, miss masks, and mechanism state (all memoized per stream
    through :class:`~repro.caches.vectorized.LineOrderCache`) are
    computed once per (workload, line size) and shared across every
    L2-latency/width/mechanism point, instead of being rebuilt per
    point.  The geometry axis is batched too: before evaluating a
    trace's points, every mask shape the sweep needs is computed
    through one multi-geometry pass per (stream, set count) — one
    trace walk per (workload, line size).  Per-point arithmetic and
    averaging order are exactly :func:`suite_cpi_instr`'s, so results
    are bit-identical to running the points one at a time.
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
