"""Table 4 — Detailed I-cache performance of the IBS workloads.

Per-workload misses per instruction in the reference cache (8 KB,
direct-mapped, 32-byte lines) and the execution-time fraction spent in
each workload component (user task, Mach kernel, BSD server, X server),
plus the suite averages under Mach 3.0, Ultrix 3.1 and for SPEC92.

This is the calibration anchor of the whole reproduction: the workload
models were tuned so these MPI values match the paper (see
``tools/calibrate.py``), and this experiment verifies they still do.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from repro._util.fmt import format_table
from repro.caches.base import CacheGeometry
from repro.core.metrics import measure_mpi
from repro.experiments.common import (
    DEFAULT_SETTINGS,
    ExperimentSettings,
)
from repro.plan import inputs as plan_inputs
from repro.plan.executor import run_experiment
from repro.plan.ir import MaskFamily, PlanCell
from repro.trace.record import Component
from repro.trace.stats import component_mix
from repro.workloads.ibs import IBS_WORKLOADS
from repro.workloads.registry import get_line_runs, get_trace, suite_workloads

#: The reference cache of Table 4.
REFERENCE_CACHE = CacheGeometry(size_bytes=8192, line_size=32, associativity=1)

#: Paper values: workload -> (MPI per 100, user%, kernel%, bsd%, x%).
PAPER_WORKLOADS = {
    "mpeg_play": (4.28, 0.40, 0.23, 0.30, 0.07),
    "jpeg_play": (2.39, 0.67, 0.13, 0.17, 0.03),
    "gs": (5.15, 0.47, 0.34, 0.10, 0.09),
    "verilog": (5.28, 0.75, 0.14, 0.11, 0.00),
    "gcc": (4.69, 0.75, 0.17, 0.08, 0.00),
    "sdet": (6.05, 0.10, 0.70, 0.20, 0.00),
    "nroff": (3.99, 0.80, 0.05, 0.15, 0.00),
    "groff": (6.51, 0.82, 0.13, 0.05, 0.00),
}

#: Paper suite averages (MPI per 100 instructions).
PAPER_AVERAGES = {
    "ibs-mach3": 4.79,
    "ibs-ultrix": 3.52,
    "spec92": 1.10,
}


@dataclass(frozen=True)
class Table4Row:
    """One workload's measurement."""

    mpi_per_100: float
    components: dict[Component, float]


@dataclass(frozen=True)
class Table4Result:
    """Reproduced Table 4."""

    workloads: dict[str, Table4Row] = field(default_factory=dict)
    averages: dict[str, float] = field(default_factory=dict)

    def render(self) -> str:
        headers = [
            "Workload", "MPI/100", "(paper)", "User", "Kernel", "BSD", "X",
        ]
        body = []
        for name, row in self.workloads.items():
            paper_mpi = PAPER_WORKLOADS[name][0]
            comps = row.components
            body.append(
                [
                    name,
                    f"{row.mpi_per_100:.2f}",
                    f"{paper_mpi:.2f}",
                    f"{comps.get(Component.USER, 0.0):.0%}",
                    f"{comps.get(Component.KERNEL, 0.0):.0%}",
                    f"{comps.get(Component.BSD_SERVER, 0.0):.0%}",
                    f"{comps.get(Component.X_SERVER, 0.0):.0%}",
                ]
            )
        for suite, value in self.averages.items():
            body.append(
                [
                    f"avg {suite}",
                    f"{value:.2f}",
                    f"{PAPER_AVERAGES[suite]:.2f}",
                    "", "", "", "",
                ]
            )
        return format_table(
            headers,
            body,
            title="Table 4: I-cache MPI (8 KB direct-mapped, 32 B lines) "
            "and component mix",
        )


_AVERAGE_SUITES = ("ibs-ultrix", "spec92")


def _measure_row(name: str, settings: ExperimentSettings) -> Table4Row:
    """One cell: MPI and component mix of one Mach workload."""
    trace = get_trace(name, "mach3", settings.n_instructions, settings.seed)
    runs = get_line_runs(
        name, "mach3", settings.n_instructions, settings.seed,
        REFERENCE_CACHE.line_size,
    )
    measurement = measure_mpi(runs, REFERENCE_CACHE, settings.warmup_fraction)
    return Table4Row(
        mpi_per_100=measurement.mpi_per_100,
        components=component_mix(trace),
    )


def _measure_mpi_only(
    name: str, os_name: str, settings: ExperimentSettings
) -> float:
    """One cell: reference-cache MPI/100 of one workload."""
    runs = get_line_runs(
        name, os_name, settings.n_instructions, settings.seed,
        REFERENCE_CACHE.line_size,
    )
    return measure_mpi(
        runs, REFERENCE_CACHE, settings.warmup_fraction
    ).mpi_per_100


def _reference_mask_family() -> MaskFamily:
    """The reference cache's mask shape (always mask-based)."""
    return MaskFamily(
        encode_line_size=REFERENCE_CACHE.line_size,
        mask_line_size=REFERENCE_CACHE.line_size,
        shapes=((REFERENCE_CACHE.n_sets, REFERENCE_CACHE.associativity),),
    )


def plan_cells(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
) -> list[PlanCell]:
    """One cell per Mach workload row, plus the comparison-suite cells.

    :func:`~repro.core.metrics.measure_mpi` is mask-based under every
    engine, so each cell shares its workload's trace, the 32-byte line
    stream, and the reference cache's mask.  Only the Mach rows read
    the trace's columns (for the component mix).
    """
    masks = (_reference_mask_family(),)
    cell_list = [
        PlanCell(
            key=("mach3", name),
            fn=_measure_row,
            args=(name, settings),
            traces=plan_inputs.workload_trace_keys(
                [(name, "mach3")], settings
            ),
            streams=(REFERENCE_CACHE.line_size,),
            masks=masks,
            columns=True,
        )
        for name in IBS_WORKLOADS
    ]
    for suite in _AVERAGE_SUITES:
        cell_list.extend(
            PlanCell(
                key=(suite, name),
                fn=_measure_mpi_only,
                args=(name, os_name, settings),
                traces=plan_inputs.workload_trace_keys(
                    [(name, os_name)], settings
                ),
                streams=(REFERENCE_CACHE.line_size,),
                masks=masks,
            )
            for name, os_name in suite_workloads(suite)
        )
    return cell_list


def merge(settings: ExperimentSettings, keyed: dict) -> Table4Result:
    """Reassemble rows and suite means from the per-workload cells."""
    workloads: dict[str, Table4Row] = {}
    per_suite: dict[str, list[float]] = {}
    for (group, name), value in keyed.items():
        if group == "mach3":
            workloads[name] = value
        else:
            per_suite.setdefault(group, []).append(value)
    averages: dict[str, float] = {
        "ibs-mach3": float(
            np.mean([row.mpi_per_100 for row in workloads.values()])
        )
    }
    for suite, values in per_suite.items():
        averages[suite] = float(np.mean(values))
    return Table4Result(workloads=workloads, averages=averages)


def run(settings: ExperimentSettings = DEFAULT_SETTINGS) -> Table4Result:
    """Reproduce Table 4: per-workload MPI under Mach plus suite means."""
    return run_experiment(sys.modules[__name__], settings)[0]
