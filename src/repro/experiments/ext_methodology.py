"""Extension — auditing the paper's own methodology.

Section 3 measures the two cache levels independently and adds their
CPI contributions; Section 5 notes that a shared (I+D) L2 would make
things worse than the instruction-only results show.  Both statements
are *checkable* with an integrated simulator, and this experiment
checks them:

* **additive vs integrated**: the paper's method
  (L1-with-perfect-L2 + L2-vs-memory) against one simulation of the
  real hierarchy, instructions only.  With an inclusive L2 the two
  should nearly coincide — quantifying the methodology's error bar.
* **the shared-L2 lower bound**: the same integrated simulation with
  the workload's loads/stores also streaming through the L2.  The
  increase over the instruction-only number is exactly the effect the
  paper flags as unmodelled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._util.fmt import format_table
from repro.caches.base import CacheGeometry
from repro.core.config import MemorySystemConfig
from repro.core.study import evaluate_trace
from repro.experiments.common import (
    DEFAULT_SETTINGS,
    ExperimentSettings,
    fetch_point,
)
from repro.plan import inputs as plan_inputs
from repro.fetch.timing import L1_L2_INTERFACE
from repro.fetch.twolevel import TwoLevelDemandEngine
from repro.workloads.registry import get_trace, suite_workloads

L2 = CacheGeometry(64 * 1024, 64, 8)
METHODS = ("additive (paper)", "integrated", "integrated + shared data")


@dataclass(frozen=True)
class ExtMethodologyResult:
    """Suite-mean CPIinstr under each accounting method."""

    cells: dict[str, float] = field(default_factory=dict)

    def render(self) -> str:
        headers = ["Method", "CPIinstr (IBS mean)"]
        body = [[m, f"{self.cells[m]:.3f}"] for m in METHODS]
        return format_table(
            headers,
            body,
            title="Extension: methodology audit — additive vs integrated "
            "two-level simulation (economy + 64KB 8-way L2)",
        )

    @property
    def additive_error(self) -> float:
        """Relative error of the paper's additive method vs integrated."""
        integrated = self.cells["integrated"]
        if integrated == 0:
            return 0.0
        return (self.cells["additive (paper)"] - integrated) / integrated

    @property
    def shared_data_penalty(self) -> float:
        """Relative CPIinstr increase when the L2 is shared with data."""
        integrated = self.cells["integrated"]
        if integrated == 0:
            return 0.0
        return (
            self.cells["integrated + shared data"] - integrated
        ) / integrated


def run(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    suite: str = "ibs-mach3",
) -> ExtMethodologyResult:
    """Audit the additive methodology over a suite."""
    base = MemorySystemConfig.economy().with_l2(L2)
    additive, integrated, shared = [], [], []
    for name, os_name in suite_workloads(suite):
        trace = get_trace(name, os_name, settings.n_instructions, settings.seed)

        paper_method = evaluate_trace(
            trace, base, "demand", warmup_fraction=settings.warmup_fraction
        )
        additive.append(paper_method.cpi_instr)

        engine = TwoLevelDemandEngine(
            base.l1, L2, L1_L2_INTERFACE, base.memory, shared_data=False
        )
        integrated.append(
            engine.run(trace, settings.warmup_fraction).cpi_instr
        )

        shared_engine = TwoLevelDemandEngine(
            base.l1, L2, L1_L2_INTERFACE, base.memory, shared_data=True
        )
        shared.append(
            shared_engine.run(trace, settings.warmup_fraction).cpi_instr
        )

    return ExtMethodologyResult(
        cells={
            "additive (paper)": float(np.mean(additive)),
            "integrated": float(np.mean(integrated)),
            "integrated + shared data": float(np.mean(shared)),
        }
    )


def plan_cells(settings: ExperimentSettings = DEFAULT_SETTINGS):
    """The sweep-plan compilation: the additive leg is the planner's own
    demand evaluation, so its stream and masks are shared; the
    integrated engine replays raw streams privately."""
    base = MemorySystemConfig.economy().with_l2(L2)
    return plan_inputs.run_cell(
        run, settings,
        suites=("ibs-mach3",),
        points=[fetch_point(("ext_methodology",), base, "demand")],
    )
