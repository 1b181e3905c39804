"""Extension — context switching and multiprogramming.

Section 2 cites Mogul & Borg's "The effect of context switches on cache
performance" among the OS-intensive studies motivating IBS.  The IBS
traces already interleave kernel/server activity at fine grain; this
experiment adds the *multiprogramming* axis: two independent IBS tasks
sharing one I-cache under round-robin scheduling, swept over the
scheduling quantum.

Expected shape (and what the bench asserts): short quanta hurt — every
switch restarts in the other task's working set — and the damage
shrinks as the quantum grows.  (Quanta comparable to the trace length
are excluded: with synthetic traces this short, the measurement window
would then be dominated by whichever task occupies it, not by switch
costs.)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro._util.fmt import format_table
from repro.caches.base import CacheGeometry
from repro.core.metrics import measure_mpi
from repro.experiments.common import DEFAULT_SETTINGS, ExperimentSettings
from repro.trace.filters import ifetch_only, interleave
from repro.trace.rle import to_line_runs
from repro.workloads.registry import get_trace
from repro.plan import inputs as plan_inputs

QUANTA = (1_000, 5_000, 20_000)
SIZES = (8192, 32768)
PAIR = (("gcc", "mach3"), ("gs", "mach3"))


@dataclass(frozen=True)
class ExtContextResult:
    """MPI per (cache size, quantum), plus the no-sharing baseline."""

    cells: dict[tuple[int, int], float] = field(default_factory=dict)
    solo: dict[int, float] = field(default_factory=dict)

    def render(self) -> str:
        headers = ["Size", *(f"q={q // 1000}k" for q in QUANTA), "solo mean"]
        body = []
        for size in sorted(self.solo):
            body.append(
                [
                    f"{size // 1024}KB",
                    *(f"{self.cells[(size, q)]:.2f}" for q in QUANTA),
                    f"{self.solo[size]:.2f}",
                ]
            )
        return format_table(
            headers,
            body,
            title="Extension: multiprogramming (two IBS tasks, round-robin; "
            "MPI per 100 instructions vs scheduling quantum)",
        )

    def overhead(self, size: int, quantum: int) -> float:
        """Relative MPI increase of sharing vs solo execution."""
        return self.cells[(size, quantum)] / self.solo[size] - 1.0


def run(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    quanta: tuple[int, ...] = QUANTA,
    sizes: tuple[int, ...] = SIZES,
) -> ExtContextResult:
    """Sweep scheduling quantum for a two-task IBS mix."""
    traces = [
        ifetch_only(get_trace(name, os_name, settings.n_instructions,
                              settings.seed))
        for name, os_name in PAIR
    ]
    solo_runs = [to_line_runs(t.addresses, 32) for t in traces]

    cells: dict[tuple[int, int], float] = {}
    solo: dict[int, float] = {}
    for size in sizes:
        geometry = CacheGeometry(size, 32, 1)
        solo[size] = sum(
            measure_mpi(runs, geometry, settings.warmup_fraction).mpi_per_100
            for runs in solo_runs
        ) / len(solo_runs)
        for quantum in quanta:
            merged = interleave(traces, quantum)
            runs = to_line_runs(merged.addresses, 32)
            cells[(size, quantum)] = measure_mpi(
                runs, geometry, settings.warmup_fraction
            ).mpi_per_100
    return ExtContextResult(cells=cells, solo=solo)


def plan_cells(settings: ExperimentSettings = DEFAULT_SETTINGS):
    """The sweep-plan compilation: the two interleaved workloads' traces."""
    return plan_inputs.run_cell(run, settings, workloads=PAIR)
