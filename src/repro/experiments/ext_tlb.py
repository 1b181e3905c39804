"""Extension — what TLB misses really cost under a microkernel.

Nagle et al.'s companion work (cited in Section 2) showed that
software-managed TLB cost is dominated by *which* miss-handler path
runs, and that OS structure decides that mix.  This experiment applies
the Mach cost taxonomy (:mod:`repro.tlb.mach_tlb`) to the IBS traces
under both OS models and contrasts it with the naive single-penalty
accounting:

* under Mach, a third or more of TLB misses are kernel/server pages on
  slow handler paths, so the *effective* refill cost exceeds the uTLB
  fast path substantially;
* under Ultrix the same applications take more of their misses on the
  user fast path, so the blended cost is lower — TLB structure is one
  more place the microkernel tax shows up.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._util.fmt import format_table
from repro.experiments.common import DEFAULT_SETTINGS, ExperimentSettings
from repro.tlb.mach_tlb import USER_REFILL_CYCLES, simulate_mach_tlb
from repro.trace.record import Component
from repro.workloads.registry import get_trace, suite_workloads
from repro.plan import inputs as plan_inputs


@dataclass(frozen=True)
class TlbRow:
    """One workload's classified TLB accounting."""

    cpi_taxonomy: float
    effective_refill: float
    user_miss_share: float


@dataclass(frozen=True)
class ExtTlbResult:
    """Per-(workload, OS) TLB cost accounting."""

    rows: dict[tuple[str, str], TlbRow] = field(default_factory=dict)

    def render(self) -> str:
        headers = ["Workload", "OS", "CPItlb", "effective cycles/miss",
                   "user-path miss share"]
        body = []
        for (name, os_name), row in sorted(self.rows.items()):
            body.append(
                [
                    name,
                    os_name,
                    f"{row.cpi_taxonomy:.3f}",
                    f"{row.effective_refill:.0f}",
                    f"{row.user_miss_share:.0%}",
                ]
            )
        return format_table(
            headers,
            body,
            title="Extension: software-TLB cost taxonomy "
            "(user 20 / kernel 40 / server 80 cycles per refill)",
        )

    def mean_effective_refill(self, os_name: str) -> float:
        """Suite-mean effective cycles per miss under one OS."""
        values = [
            row.effective_refill
            for (_n, os), row in self.rows.items()
            if os == os_name and row.effective_refill > 0
        ]
        return float(np.mean(values)) if values else 0.0


def run(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    workload_names: tuple[str, ...] | None = None,
) -> ExtTlbResult:
    """Classify TLB costs for IBS under both OS models."""
    rows: dict[tuple[str, str], TlbRow] = {}
    for suite, os_label in (("ibs-mach3", "mach3"), ("ibs-ultrix", "ultrix")):
        for name, os_name in suite_workloads(suite):
            if workload_names is not None and name not in workload_names:
                continue
            trace = get_trace(
                name, os_name, settings.n_instructions, settings.seed
            )
            result = simulate_mach_tlb(
                trace, warmup_fraction=settings.warmup_fraction
            )
            user_misses = result.misses_by_class.get(Component.USER, 0)
            total = max(result.total_misses, 1)
            rows[(name, os_label)] = TlbRow(
                cpi_taxonomy=result.cpi,
                effective_refill=result.effective_refill_cycles,
                user_miss_share=user_misses / total,
            )
    return ExtTlbResult(rows=rows)


def plan_cells(settings: ExperimentSettings = DEFAULT_SETTINGS):
    """The sweep-plan compilation: TLB simulation walks raw traces of
    both OS suites."""
    return plan_inputs.run_cell(
        run, settings, suites=("ibs-mach3", "ibs-ultrix")
    )
