"""Table 1 — Memory-system performance of the SPEC benchmarks.

The paper's Table 1 reports, per SPEC suite, the total memory CPI and
its components (I-cache, D-cache, TLB, write) as measured by the
hardware monitor on the DECstation 3100.  We reproduce it by running
the SPEC workload models through the machine model in
:mod:`repro.monitor.hwcounters`.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from repro._util.fmt import format_table
from repro.core.cpi import CpiBreakdown
from repro.experiments.common import (
    DEFAULT_SETTINGS,
    ExperimentSettings,
)
from repro.monitor.hwcounters import DECSTATION_3100, HardwareMonitor
from repro.plan import inputs as plan_inputs
from repro.plan.executor import run_experiment
from repro.plan.ir import PlanCell
from repro.workloads.registry import get_trace, suite_workloads

#: The paper's measured values: suite -> (total memory CPI, I, D, TLB, write).
PAPER = {
    "specint89": (0.285, 0.067, 0.100, 0.044, 0.074),
    "specfp89": (0.967, 0.100, 0.668, 0.020, 0.179),
    "specint92": (0.271, 0.051, 0.084, 0.073, 0.063),
    "specfp92": (0.749, 0.053, 0.436, 0.134, 0.126),
}

_SUITE_LABELS = {
    "specint89": "SPECint89",
    "specfp89": "SPECfp89",
    "specint92": "SPECint92",
    "specfp92": "SPECfp92",
}


@dataclass(frozen=True)
class Table1Result:
    """Reproduced Table 1.

    Attributes:
        rows: suite name -> suite-averaged CPI breakdown.
    """

    rows: dict[str, CpiBreakdown] = field(default_factory=dict)

    def render(self) -> str:
        """Text table mirroring the paper's layout, with paper values."""
        headers = [
            "Benchmark", "Memory CPI", "I-cache", "D-cache", "TLB", "Write",
            "(paper: total / I-cache)",
        ]
        body = []
        for suite, breakdown in self.rows.items():
            paper_total, paper_i = PAPER[suite][0], PAPER[suite][1]
            body.append(
                [
                    _SUITE_LABELS[suite],
                    f"{breakdown.memory_cpi:.3f}",
                    f"{breakdown.instr_l1:.3f}",
                    f"{breakdown.data:.3f}",
                    f"{breakdown.tlb:.3f}",
                    f"{breakdown.write:.3f}",
                    f"{paper_total:.3f} / {paper_i:.3f}",
                ]
            )
        return format_table(
            headers,
            body,
            title="Table 1: Memory-system performance of the SPEC "
            "benchmarks (DECstation 3100 model)",
        )


def _measure_workload(
    name: str, os_name: str, settings: ExperimentSettings
) -> CpiBreakdown:
    """One cell: the CPI breakdown of a single workload's trace."""
    monitor = HardwareMonitor(DECSTATION_3100)
    trace = get_trace(name, os_name, settings.n_instructions, settings.seed)
    return monitor.measure(trace, settings.warmup_fraction)


def plan_cells(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
) -> list[PlanCell]:
    """One cell per (suite, workload) measurement.

    The hardware-monitor model walks the raw trace records itself, so
    the only shared input is each workload's synthesized trace.
    """
    return [
        PlanCell(
            key=(suite, name, os_name),
            fn=_measure_workload,
            args=(name, os_name, settings),
            traces=plan_inputs.workload_trace_keys(
                [(name, os_name)], settings
            ),
        )
        for suite in PAPER
        for name, os_name in suite_workloads(suite)
    ]


def merge(
    settings: ExperimentSettings,
    keyed: dict[tuple[str, str, str], CpiBreakdown],
) -> Table1Result:
    """Suite-average the per-workload breakdowns (deterministic order)."""
    per_suite: dict[str, list[CpiBreakdown]] = {}
    for (suite, _name, _os_name), breakdown in keyed.items():
        per_suite.setdefault(suite, []).append(breakdown)
    rows = {
        suite: CpiBreakdown(
            instr_l1=float(np.mean([b.instr_l1 for b in breakdowns])),
            data=float(np.mean([b.data for b in breakdowns])),
            write=float(np.mean([b.write for b in breakdowns])),
            tlb=float(np.mean([b.tlb for b in breakdowns])),
        )
        for suite, breakdowns in per_suite.items()
    }
    return Table1Result(rows=rows)


def run(settings: ExperimentSettings = DEFAULT_SETTINGS) -> Table1Result:
    """Reproduce Table 1 over all four SPEC suites."""
    return run_experiment(sys.modules[__name__], settings)[0]
