"""Table 3 — Memory performance of the IBS workloads.

The paper's Table 3 contrasts the IBS suite (under Mach 3.0 and Ultrix
3.1) with SPEC92 on the same DECstation 3100: execution-time user/OS
split and the I-cache, D-cache and write CPI components.  The headline:
IBS spends 24-38% of its time in the OS and loses 4-7x more CPI to
instruction fetches than SPEC92.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from repro._util.fmt import format_table
from repro.core.cpi import CpiBreakdown
from repro.experiments.common import (
    DEFAULT_SETTINGS,
    MACHINE_STREAMS,
    ExperimentSettings,
    machine_breakdown,
    suite_groups,
    workload_cells,
)
from repro.plan.executor import run_experiment
from repro.plan.ir import PlanCell

#: Paper values: suite -> (user%, os%, CPIinstr, CPIdata, CPIwrite).
PAPER = {
    "ibs-mach3": (0.62, 0.38, 0.36, 0.28, 0.16),
    "ibs-ultrix": (0.76, 0.24, 0.19, 0.30, 0.11),
    "specint92": (0.97, 0.03, 0.05, 0.08, 0.06),
    "specfp92": (0.98, 0.02, 0.05, 0.44, 0.13),
}

_SUITE_LABELS = {
    "ibs-mach3": "IBS (Mach 3.0)",
    "ibs-ultrix": "IBS (Ultrix 3.1)",
    "specint92": "SPECint92",
    "specfp92": "SPECfp92",
}


@dataclass(frozen=True)
class Table3Row:
    """One suite's measured row."""

    user_fraction: float
    os_fraction: float
    cpi_instr: float
    cpi_data: float
    cpi_write: float


@dataclass(frozen=True)
class Table3Result:
    """Reproduced Table 3."""

    rows: dict[str, Table3Row] = field(default_factory=dict)

    def render(self) -> str:
        headers = [
            "Benchmark", "User", "OS",
            "I-cache", "D-cache", "Write",
            "(paper: I/D/W)",
        ]
        body = []
        for suite, row in self.rows.items():
            p = PAPER[suite]
            body.append(
                [
                    _SUITE_LABELS[suite],
                    f"{row.user_fraction:.0%}",
                    f"{row.os_fraction:.0%}",
                    f"{row.cpi_instr:.2f}",
                    f"{row.cpi_data:.2f}",
                    f"{row.cpi_write:.2f}",
                    f"{p[2]:.2f}/{p[3]:.2f}/{p[4]:.2f}",
                ]
            )
        return format_table(
            headers,
            body,
            title="Table 3: Memory performance of the IBS workloads "
            "(DECstation 3100 model)",
        )


def plan_cells(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
) -> list[PlanCell]:
    """One machine-model cell per (suite, workload).

    The cells are Table 1's (both tables run :func:`~repro.experiments.
    common.machine_breakdown`), so in a report plan the SPEC92
    workloads both tables measure run once.
    """
    return workload_cells(
        machine_breakdown, PAPER, settings, streams=MACHINE_STREAMS
    )


def merge(
    settings: ExperimentSettings,
    keyed: dict[tuple[str, str, str], tuple[CpiBreakdown, float]],
) -> Table3Result:
    """Suite-average the per-workload measurements (plan order)."""
    rows = {}
    for suite, measured in suite_groups(keyed).items():
        breakdowns = [breakdown for breakdown, _user in measured]
        user = float(np.mean([user for _breakdown, user in measured]))
        rows[suite] = Table3Row(
            user_fraction=user,
            os_fraction=1.0 - user,
            cpi_instr=float(np.mean([b.instr_l1 for b in breakdowns])),
            cpi_data=float(np.mean([b.data for b in breakdowns])),
            cpi_write=float(np.mean([b.write for b in breakdowns])),
        )
    return Table3Result(rows=rows)


def run(settings: ExperimentSettings = DEFAULT_SETTINGS) -> Table3Result:
    """Reproduce Table 3 over IBS (both OSes) and SPEC92 int/fp."""
    return run_experiment(sys.modules[__name__], settings)[0]
