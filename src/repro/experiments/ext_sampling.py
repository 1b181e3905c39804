"""Extension — how much simulation does an accurate MPI need?

The paper's group built Tapeworm precisely because full trace-driven
simulation of OS-intensive workloads is slow; time-sampled simulation
(:mod:`repro.caches.sampling`) is the standard trace-side answer.  This
experiment sweeps the sampled fraction and reports estimate error
against full simulation, per suite — quantifying the
simulation-cost / accuracy frontier a practitioner faces when applying
this library (or any trace-driven simulator) to long traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._util.fmt import format_table
from repro.caches.base import CacheGeometry
from repro.caches.sampling import sampled_mpi
from repro.core.metrics import measure_mpi
from repro.experiments.common import DEFAULT_SETTINGS, ExperimentSettings
from repro.trace.rle import to_line_runs
from repro.workloads.registry import get_trace, suite_workloads
from repro.plan import inputs as plan_inputs

GEOMETRY = CacheGeometry(8192, 32, 1)
FRACTIONS = (0.05, 0.1, 0.2, 0.5)
WINDOW = 10_000


@dataclass(frozen=True)
class ExtSamplingResult:
    """Mean |relative error| and speedup per sampled fraction."""

    # (suite, fraction) -> (mean abs relative error, mean speedup)
    cells: dict[tuple[str, float], tuple[float, float]] = field(
        default_factory=dict
    )

    def render(self) -> str:
        headers = ["Suite", "fraction", "mean |error|", "speedup"]
        body = []
        for (suite, fraction), (error, speedup) in sorted(self.cells.items()):
            body.append(
                [suite, f"{fraction:.0%}", f"{error:.1%}", f"{speedup:.1f}x"]
            )
        return format_table(
            headers,
            body,
            title="Extension: time-sampled simulation accuracy "
            f"(8 KB DM; {WINDOW // 1000}k-instruction windows, half-window "
            "warm-up)",
        )

    def error(self, suite: str, fraction: float) -> float:
        """Mean absolute relative error at one sampled fraction."""
        return self.cells[(suite, fraction)][0]


def run(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    suite_names: tuple[str, ...] = ("ibs-mach3",),
    fractions: tuple[float, ...] = FRACTIONS,
) -> ExtSamplingResult:
    """Sweep sampled fraction; compare against full simulation."""
    cells: dict[tuple[str, float], tuple[float, float]] = {}
    for suite in suite_names:
        streams = []
        for name, os_name in suite_workloads(suite):
            addresses = get_trace(
                name, os_name, settings.n_instructions, settings.seed
            ).ifetch_addresses()
            steady = addresses[int(settings.warmup_fraction * len(addresses)):]
            streams.append(to_line_runs(steady, 32))
        exact = [
            measure_mpi(runs, GEOMETRY, warmup_fraction=0.0).mpi
            for runs in streams
        ]
        for fraction in fractions:
            errors = []
            speedups = []
            for runs, truth in zip(streams, exact):
                estimate = sampled_mpi(
                    runs, GEOMETRY,
                    sample_fraction=fraction,
                    window_instructions=WINDOW,
                )
                if truth > 0 and estimate.instructions_simulated > 0:
                    errors.append(abs(estimate.mpi - truth) / truth)
                    speedups.append(
                        runs.total_references
                        / estimate.instructions_simulated
                    )
            cells[(suite, fraction)] = (
                float(np.mean(errors)),
                float(np.mean(speedups)),
            )
    return ExtSamplingResult(cells=cells)


def plan_cells(settings: ExperimentSettings = DEFAULT_SETTINGS):
    """The sweep-plan compilation: sampled replicas share the traces."""
    return plan_inputs.run_cell(
        run, settings, suites=("ibs-mach3",)
    )
