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
    machine_cells,
    suite_groups,
)
from repro.plan.executor import run_experiment
from repro.plan.ir import PlanCell

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


def plan_cells(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
) -> list[PlanCell]:
    """One machine-model cell per (suite, workload), shared with Table 3."""
    return machine_cells(PAPER, settings)


def merge(
    settings: ExperimentSettings,
    keyed: dict[tuple[str, str, str], tuple[CpiBreakdown, float]],
) -> Table1Result:
    """Suite-average the per-workload breakdowns (deterministic order)."""
    rows = {}
    for suite, measured in suite_groups(keyed).items():
        breakdowns = [breakdown for breakdown, _user in measured]
        rows[suite] = CpiBreakdown(
            instr_l1=float(np.mean([b.instr_l1 for b in breakdowns])),
            data=float(np.mean([b.data for b in breakdowns])),
            write=float(np.mean([b.write for b in breakdowns])),
            tlb=float(np.mean([b.tlb for b in breakdowns])),
        )
    return Table1Result(rows=rows)


def run(settings: ExperimentSettings = DEFAULT_SETTINGS) -> Table1Result:
    """Reproduce Table 1 over all four SPEC suites."""
    return run_experiment(sys.modules[__name__], settings)[0]
