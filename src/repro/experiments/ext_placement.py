"""Extension — profile-guided procedure placement (Section 2's software path).

The paper lists compiler code placement [Hwu89, McFarling89,
Torrellas95] among the software remedies it deliberately leaves out.
This experiment evaluates the simplest member of that family on the IBS
workloads — profile each component, repack its procedures hottest-first
(contiguous hot prefix), rewrite the trace, re-measure — and asks the
question placement studies on single-task benchmarks never faced:

*does per-task placement survive an OS-intensive workload?*

Placement can only reorganize code **within** an address space, but an
IBS workload's conflict misses arise substantially from the
**interleaving across** user, kernel and server components, which no
per-task layout controls.  So the experiment reports two numbers per
workload:

* the MPI reduction on the *user task in isolation* (the setting of the
  placement literature — gains should be visible), and
* the MPI reduction on the *full multi-component stream* (the setting
  the paper cares about — gains largely wash out).

The gap between the two is the cross-component interference that keeps
the paper's remedy hardware-side.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._util.fmt import format_table
from repro.caches.base import CacheGeometry
from repro.core.metrics import measure_mpi
from repro.experiments.common import DEFAULT_SETTINGS, ExperimentSettings
from repro.layout.placement import place_by_heat, relocate_addresses
from repro.layout.profile import profile_trace
from repro.trace.record import Component, RefKind
from repro.trace.rle import to_line_runs
from repro.workloads.generator import TraceSynthesizer
from repro.workloads.ibs import IBS_WORKLOADS
from repro.workloads.registry import get_workload
from repro.plan import inputs as plan_inputs

REFERENCE = CacheGeometry(8192, 32, 1)


@dataclass(frozen=True)
class PlacementRow:
    """One workload's placement outcome."""

    full_before: float
    full_after: float
    user_before: float
    user_after: float

    @property
    def full_reduction(self) -> float:
        """Relative MPI reduction on the full multi-component stream."""
        if self.full_before == 0:
            return 0.0
        return (self.full_before - self.full_after) / self.full_before

    @property
    def user_reduction(self) -> float:
        """Relative MPI reduction on the user task in isolation."""
        if self.user_before == 0:
            return 0.0
        return (self.user_before - self.user_after) / self.user_before


@dataclass(frozen=True)
class ExtPlacementResult:
    """Per-workload placement outcomes."""

    rows: dict[str, PlacementRow] = field(default_factory=dict)

    def render(self) -> str:
        headers = [
            "Workload",
            "user-only before/after",
            "gain",
            "full stream before/after",
            "gain",
        ]
        body = []
        for name, row in self.rows.items():
            body.append(
                [
                    name,
                    f"{row.user_before:.2f} -> {row.user_after:.2f}",
                    f"{row.user_reduction:+.1%}",
                    f"{row.full_before:.2f} -> {row.full_after:.2f}",
                    f"{row.full_reduction:+.1%}",
                ]
            )
        body.append(
            [
                "MEAN",
                "",
                f"{self.mean_user_reduction():+.1%}",
                "",
                f"{self.mean_reduction():+.1%}",
            ]
        )
        return format_table(
            headers,
            body,
            title="Extension: profile-guided procedure placement "
            "(heat-ordered; MPI per 100, 8 KB DM, 32 B lines)",
        )

    def mean_reduction(self) -> float:
        """Mean relative reduction on the full streams."""
        return float(np.mean([r.full_reduction for r in self.rows.values()]))

    def mean_user_reduction(self) -> float:
        """Mean relative reduction on the isolated user tasks."""
        return float(np.mean([r.user_reduction for r in self.rows.values()]))


def _mpi(addresses, warmup: float) -> float:
    return measure_mpi(
        to_line_runs(addresses, 32), REFERENCE, warmup
    ).mpi_per_100


def run(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    workload_names: tuple[str, ...] | None = None,
) -> ExtPlacementResult:
    """Evaluate heat-ordered placement, isolated and interleaved."""
    names = workload_names or tuple(IBS_WORKLOADS)
    rows: dict[str, PlacementRow] = {}
    for name in names:
        synthesizer = TraceSynthesizer(
            get_workload(name, "mach3"), seed=settings.seed
        )
        trace = synthesizer.synthesize(settings.n_instructions)
        ifetch_mask = trace.kinds == RefKind.IFETCH
        addresses = trace.addresses[ifetch_mask]
        components = trace.components[ifetch_mask]
        user_addresses = addresses[components == int(Component.USER)]

        relocated = addresses
        for image in synthesizer.code_images().values():
            profile = profile_trace(trace, image)
            if profile.total == 0:
                continue
            relocated = relocate_addresses(
                relocated, place_by_heat(profile)
            )
        relocated_user = relocated[components == int(Component.USER)]

        rows[name] = PlacementRow(
            full_before=_mpi(addresses, settings.warmup_fraction),
            full_after=_mpi(relocated, settings.warmup_fraction),
            user_before=_mpi(user_addresses, settings.warmup_fraction),
            user_after=_mpi(relocated_user, settings.warmup_fraction),
        )
    return ExtPlacementResult(rows=rows)


def plan_cells(settings: ExperimentSettings = DEFAULT_SETTINGS):
    """The sweep-plan compilation: placement re-synthesizes its traces."""
    return plan_inputs.run_cell(run, settings)
