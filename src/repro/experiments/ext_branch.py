"""Extension — branch prediction meets instruction fetching.

The paper's second future-work axis.  Two questions:

1. How much does fetch redirection cost on IBS vs SPEC, across BTB
   sizes?  (Bloated, branchy, many-component code should both take more
   transfers *and* overflow small BTBs sooner.)
2. How does CPIbranch compose with the optimized CPIinstr floor — i.e.
   what does total *instruction delivery* cost after the paper's whole
   Section 5 program, once prediction is accounted?
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._util.fmt import format_table
from repro.experiments.common import DEFAULT_SETTINGS, ExperimentSettings
from repro.fetch.branch import BranchTargetBuffer
from repro.workloads.registry import get_trace, suite_workloads
from repro.plan import inputs as plan_inputs

BTB_SIZES = (64, 256, 1024, 4096)
MISPREDICT_PENALTY = 3.0
SUITES = ("spec92", "ibs-mach3")


@dataclass(frozen=True)
class ExtBranchResult:
    """Suite-mean branch statistics per BTB size."""

    # (suite, btb size) -> (taken rate, mispredict rate)
    cells: dict[tuple[str, int], tuple[float, float]] = field(
        default_factory=dict
    )

    def render(self) -> str:
        headers = ["Suite", "BTB", "taken rate", "mispredict rate",
                   f"CPIbranch (x{MISPREDICT_PENALTY:.0f})"]
        body = []
        for (suite, size), (taken, mispredict) in sorted(self.cells.items()):
            body.append(
                [
                    suite,
                    str(size),
                    f"{taken:.1%}",
                    f"{mispredict:.2%}",
                    f"{mispredict * MISPREDICT_PENALTY:.3f}",
                ]
            )
        return format_table(
            headers,
            body,
            title="Extension: branch-target-buffer behaviour "
            "(fetch redirects; taken transfers from trace control flow)",
        )

    def cpi_branch(self, suite: str, btb_size: int) -> float:
        """CPI lost to mispredicted fetch redirects."""
        _taken, mispredict = self.cells[(suite, btb_size)]
        return mispredict * MISPREDICT_PENALTY

    def improvement(self, suite: str) -> float:
        """Mispredict-rate reduction from the smallest to largest BTB."""
        small = self.cells[(suite, min(BTB_SIZES))][1]
        large = self.cells[(suite, max(BTB_SIZES))][1]
        if small == 0:
            return 0.0
        return 1.0 - large / small


def run(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    btb_sizes: tuple[int, ...] = BTB_SIZES,
    suites: tuple[str, ...] = SUITES,
) -> ExtBranchResult:
    """Sweep BTB sizes over both suites."""
    cells: dict[tuple[str, int], tuple[float, float]] = {}
    for suite in suites:
        streams = [
            get_trace(
                name, os_name, settings.n_instructions, settings.seed
            ).ifetch_addresses()
            for name, os_name in suite_workloads(suite)
        ]
        for size in btb_sizes:
            taken_rates = []
            mispredict_rates = []
            for addresses in streams:
                skip = int(settings.warmup_fraction * (len(addresses) - 1))
                result = BranchTargetBuffer(size).simulate(addresses, skip)
                taken_rates.append(result.taken_rate)
                mispredict_rates.append(result.misprediction_rate)
            cells[(suite, size)] = (
                float(np.mean(taken_rates)),
                float(np.mean(mispredict_rates)),
            )
    return ExtBranchResult(cells=cells)


def plan_cells(settings: ExperimentSettings = DEFAULT_SETTINGS):
    """The sweep-plan compilation: the BTB walks raw addresses, so only
    the suites' traces are shared."""
    return plan_inputs.run_cell(run, settings, suites=SUITES)
