"""Table 8 — Pipelined memory system with stream buffers.

The L1-L2 interface is pipelined (one request per cycle) and a
fully-associative stream buffer of N lines prefetches sequentially past
each miss.  The L1 line size equals the per-cycle transfer size (16 or
32 bytes).  The paper finds stream buffers effective up to about 6
lines, with marginal returns beyond.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

from repro._util.fmt import format_series
from repro.caches.base import CacheGeometry
from repro.core.config import MemorySystemConfig
from repro.experiments.common import (
    DEFAULT_SETTINGS,
    ExperimentSettings,
    FetchPoint,
    fetch_cells,
    fetch_point,
    fetch_values,
)
from repro.fetch.timing import MemoryTiming
from repro.plan.executor import run_experiment
from repro.plan.ir import PlanCell

#: Paper values: bandwidth (B/cyc) -> {buffer lines -> CPIinstr}.
PAPER = {
    16: {0: 0.439, 1: 0.267, 3: 0.184, 6: 0.147, 12: 0.122, 18: 0.114},
    32: {0: 0.287, 1: 0.186, 3: 0.137, 6: 0.118, 12: 0.103, 18: 0.099},
}

BUFFER_SIZES = (0, 1, 3, 6, 12, 18)
BANDWIDTHS = (16, 32)
SUITE = "ibs-mach3"


@dataclass(frozen=True)
class Table8Result:
    """Reproduced Table 8."""

    cells: dict[tuple[int, int], float] = field(default_factory=dict)

    def render(self) -> str:
        series = {}
        for bw in BANDWIDTHS:
            series[f"{bw} B/cyc"] = [
                self.cells[(bw, n)] for n in BUFFER_SIZES
            ]
            series[f"(paper {bw})"] = [PAPER[bw][n] for n in BUFFER_SIZES]
        return format_series(
            "Buffer lines",
            BUFFER_SIZES,
            series,
            title="Table 8: Pipelined system with a stream buffer "
            "(L1 CPIinstr; line size = bytes/cycle)",
        )


def _bandwidth_points(bw: int) -> list[FetchPoint]:
    """All buffer-depth points of one bandwidth column."""
    config = MemorySystemConfig(
        name=f"pipelined-{bw}",
        l1=CacheGeometry(8192, bw, 1),
        memory=MemoryTiming(latency=6, bytes_per_cycle=bw),
    )
    return [
        fetch_point((bw, n_lines), config, "stream-buffer", n_lines=n_lines)
        for n_lines in BUFFER_SIZES
    ]


def plan_cells(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
) -> list[PlanCell]:
    """One cell per (interface bandwidth, workload).

    Stream buffers consult the plain demand mask, so each bandwidth's
    L1 shape joins the batched mask pass alongside its stream.
    """
    return fetch_cells(
        {(bw,): (SUITE, _bandwidth_points(bw)) for bw in BANDWIDTHS},
        settings,
    )


def merge(
    settings: ExperimentSettings, keyed: dict[tuple[int, str, str], dict]
) -> Table8Result:
    """Combine the per-bandwidth columns."""
    return Table8Result(
        cells={key: l1 for key, (l1, _l2) in fetch_values(keyed).items()}
    )


def run(settings: ExperimentSettings = DEFAULT_SETTINGS) -> Table8Result:
    """Reproduce Table 8 for both interface bandwidths."""
    return run_experiment(sys.modules[__name__], settings)[0]
