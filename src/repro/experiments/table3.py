"""Table 3 — Memory performance of the IBS workloads.

The paper's Table 3 contrasts the IBS suite (under Mach 3.0 and Ultrix
3.1) with SPEC92 on the same DECstation 3100: execution-time user/OS
split and the I-cache, D-cache and write CPI components.  The headline:
IBS spends 24-38% of its time in the OS and loses 4-7x more CPI to
instruction fetches than SPEC92.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._util.fmt import format_table
from repro.experiments.common import DEFAULT_SETTINGS, ExperimentSettings, suite_traces
from repro.monitor.hwcounters import DECSTATION_3100, HardwareMonitor
from repro.trace.record import Component
from repro.trace.stats import component_mix
from repro.plan import inputs as plan_inputs

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


def run(settings: ExperimentSettings = DEFAULT_SETTINGS) -> Table3Result:
    """Reproduce Table 3 over IBS (both OSes) and SPEC92 int/fp."""
    monitor = HardwareMonitor(DECSTATION_3100)
    rows: dict[str, Table3Row] = {}
    for suite in PAPER:
        traces = suite_traces(suite, settings)
        breakdowns = [
            monitor.measure(trace, settings.warmup_fraction) for trace in traces
        ]
        user = float(
            np.mean(
                [
                    component_mix(trace).get(Component.USER, 0.0)
                    for trace in traces
                ]
            )
        )
        rows[suite] = Table3Row(
            user_fraction=user,
            os_fraction=1.0 - user,
            cpi_instr=float(np.mean([b.instr_l1 for b in breakdowns])),
            cpi_data=float(np.mean([b.data for b in breakdowns])),
            cpi_write=float(np.mean([b.write for b in breakdowns])),
        )
    return Table3Result(rows=rows)


def plan_cells(settings: ExperimentSettings = DEFAULT_SETTINGS):
    """The sweep-plan compilation: one cell sharing all four suites' traces."""
    return plan_inputs.run_cell(run, settings, suites=tuple(PAPER))
