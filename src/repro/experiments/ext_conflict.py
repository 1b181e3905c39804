"""Extension — four remedies for conflict misses, head to head.

Section 5.1 of the paper observes that associative on-chip L2 caches
"offer an attractive alternative to the recently-proposed cache miss
lookaside (CML) buffers", and Section 2 lists OS page-allocation and
victim-buffer approaches.  This experiment puts all four conflict
remedies on one axis, for the reference 8-64 KB direct-mapped I-cache:

* a 4-entry victim cache (Jouppi90),
* a CML buffer with dynamic page recoloring (Bershad94),
* hardware associativity (2-way and 8-way),

against the plain direct-mapped baseline, in misses per instruction.
(Static page coloring is a *variance* remedy, not a mean-MPI remedy —
under a fixed virtual layout it reproduces the baseline by definition;
see the os_variability example and Figure 5 for that comparison.)
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._util.fmt import format_table
from repro.caches.base import CacheGeometry
from repro.caches.cml import CmlConflictAvoider
from repro.core.metrics import measure_mpi, warmup_cut
from repro.experiments.common import DEFAULT_SETTINGS, ExperimentSettings
from repro.fetch.timing import MemoryTiming
from repro.fetch.victim import VictimCacheEngine
from repro.trace.rle import LineRuns, to_line_runs
from repro.workloads.registry import get_trace, suite_workloads
from repro.plan import inputs as plan_inputs

LINE_SIZE = 32
TIMING = MemoryTiming(latency=6, bytes_per_cycle=16)
REMEDIES = ("direct-mapped", "victim-4", "cml", "2-way", "8-way")


@dataclass(frozen=True)
class ExtConflictResult:
    """Suite-mean MPI (per 100) per cache size per remedy."""

    cells: dict[tuple[int, str], float] = field(default_factory=dict)

    def render(self) -> str:
        sizes = sorted({s for s, _r in self.cells})
        headers = ["Size", *REMEDIES]
        body = [
            [
                f"{size // 1024}KB",
                *(f"{self.cells[(size, r)]:.2f}" for r in REMEDIES),
            ]
            for size in sizes
        ]
        return format_table(
            headers,
            body,
            title="Extension: conflict-miss remedies "
            "(IBS suite-mean MPI per 100 instructions, 32 B lines)",
        )


def _suite_mean_mpi(per_workload: list[float]) -> float:
    return float(np.mean(per_workload))


def run(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    sizes: tuple[int, ...] = (8192, 16384, 32768, 65536),
    suite: str = "ibs-mach3",
) -> ExtConflictResult:
    """Compare the remedies over a suite across cache sizes."""
    cells: dict[tuple[int, str], float] = {}
    workloads = suite_workloads(suite)
    streams: list[LineRuns] = []
    for name, os_name in workloads:
        trace = get_trace(name, os_name, settings.n_instructions, settings.seed)
        streams.append(to_line_runs(trace.ifetch_addresses(), LINE_SIZE))

    for size in sizes:
        results = {remedy: [] for remedy in REMEDIES}
        for runs in streams:
            cut, instructions = warmup_cut(runs, settings.warmup_fraction)

            dm = CacheGeometry(size, LINE_SIZE, 1)
            results["direct-mapped"].append(
                measure_mpi(runs, dm, settings.warmup_fraction).mpi_per_100
            )
            results["2-way"].append(
                measure_mpi(
                    runs, CacheGeometry(size, LINE_SIZE, 2),
                    settings.warmup_fraction,
                ).mpi_per_100
            )

            victim = VictimCacheEngine(dm, TIMING, n_victims=4)
            victim_result = victim.run(runs, settings.warmup_fraction)
            results["victim-4"].append(
                100.0 * victim_result.misses / victim_result.instructions
            )

            cml = CmlConflictAvoider(dm, conflict_threshold=32)
            cml_result = cml.simulate(runs.lines, skip=cut)
            results["cml"].append(
                100.0 * cml_result.misses / instructions
            )

            results["8-way"].append(
                measure_mpi(
                    runs, CacheGeometry(size, LINE_SIZE, 8),
                    settings.warmup_fraction,
                ).mpi_per_100
            )
        for remedy, values in results.items():
            cells[(size, remedy)] = _suite_mean_mpi(values)
    return ExtConflictResult(cells=cells)


def plan_cells(settings: ExperimentSettings = DEFAULT_SETTINGS):
    """The sweep-plan compilation: the remedies build their own RLE
    streams, so only the suite's traces are shared."""
    return plan_inputs.run_cell(
        run, settings, suites=("ibs-mach3",)
    )
