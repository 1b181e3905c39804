"""Extension — who causes the misses: per-component attribution.

Table 4 reports how execution time splits across the user task, kernel
and servers; this experiment asks the sharper question the paper's
Section 4 discussion implies: how do the *misses* split?  OS code runs
in shorter, more scattered bursts than application code, so its share
of misses should exceed its share of execution — the quantitative core
of the "OS-intensive workloads need bigger caches" literature the paper
cites ([Clark83, Agarwal88, Chen93, ...]).

Method: simulate the reference cache over the full interleaved stream
(misses depend on all components together), then attribute each miss to
the component that issued the fetch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._util.fmt import format_table
from repro.caches.base import CacheGeometry
from repro.caches.vectorized import miss_mask_set_associative
from repro.experiments.common import DEFAULT_SETTINGS, ExperimentSettings
from repro.trace.record import COMPONENT_NAMES, Component, RefKind
from repro.workloads.registry import get_trace, suite_workloads
from repro.plan import inputs as plan_inputs

REFERENCE = CacheGeometry(8192, 32, 1)


@dataclass(frozen=True)
class ComponentShare:
    """One component's execution and miss shares."""

    execution: float
    misses: float

    @property
    def concentration(self) -> float:
        """Miss share relative to execution share (>1 = misses more
        than its time would predict)."""
        if self.execution == 0:
            return 0.0
        return self.misses / self.execution


@dataclass(frozen=True)
class ExtComponentsResult:
    """Per-workload, per-component execution and miss shares."""

    rows: dict[str, dict[Component, ComponentShare]] = field(
        default_factory=dict
    )

    def render(self) -> str:
        headers = ["Workload", "Component", "exec share", "miss share",
                   "concentration"]
        body = []
        for workload, shares in self.rows.items():
            for component, share in sorted(shares.items()):
                body.append(
                    [
                        workload,
                        COMPONENT_NAMES[component],
                        f"{share.execution:.0%}",
                        f"{share.misses:.0%}",
                        f"{share.concentration:.2f}",
                    ]
                )
        return format_table(
            headers,
            body,
            title="Extension: per-component miss attribution "
            "(8 KB DM, 32 B lines; concentration = miss share / exec share)",
        )

    def os_concentration(self, workload: str) -> float:
        """Combined OS (non-user) concentration for one workload."""
        shares = self.rows[workload]
        os_exec = sum(
            s.execution for c, s in shares.items() if c != Component.USER
        )
        os_miss = sum(
            s.misses for c, s in shares.items() if c != Component.USER
        )
        if os_exec == 0:
            return 0.0
        return os_miss / os_exec


def run(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    suite: str = "ibs-mach3",
    workload_names: tuple[str, ...] | None = None,
) -> ExtComponentsResult:
    """Attribute misses to components for each suite workload."""
    pairs = suite_workloads(suite)
    if workload_names is not None:
        pairs = [(n, o) for n, o in pairs if n in workload_names]
    rows: dict[str, dict[Component, ComponentShare]] = {}
    for name, os_name in pairs:
        trace = get_trace(name, os_name, settings.n_instructions, settings.seed)
        ifetch_mask = trace.kinds == RefKind.IFETCH
        addresses = trace.addresses[ifetch_mask]
        components = trace.components[ifetch_mask]
        lines = addresses >> np.uint64(REFERENCE.offset_bits)
        miss = miss_mask_set_associative(
            lines, REFERENCE.n_sets, REFERENCE.associativity
        )
        cut = int(settings.warmup_fraction * len(lines))
        miss = miss[cut:]
        window_components = components[cut:]

        total_instr = len(window_components)
        total_miss = int(miss.sum())
        shares: dict[Component, ComponentShare] = {}
        for component in np.unique(window_components):
            member = window_components == component
            shares[Component(int(component))] = ComponentShare(
                execution=float(member.sum()) / total_instr,
                misses=float(miss[member].sum()) / max(total_miss, 1),
            )
        rows[name] = shares
    return ExtComponentsResult(rows=rows)


def plan_cells(settings: ExperimentSettings = DEFAULT_SETTINGS):
    """The sweep-plan compilation: per-component attribution reads the
    raw traces directly."""
    return plan_inputs.run_cell(
        run, settings, suites=("ibs-mach3",)
    )
