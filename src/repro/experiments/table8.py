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
    fetch_point,
    suite_cpi_instr,
)
from repro.fetch.timing import MemoryTiming
from repro.plan import inputs as plan_inputs
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


def _bandwidth_config(bw: int) -> MemorySystemConfig:
    return MemorySystemConfig(
        name=f"pipelined-{bw}",
        l1=CacheGeometry(8192, bw, 1),
        memory=MemoryTiming(latency=6, bytes_per_cycle=bw),
    )


def _bandwidth_points(bw: int):
    """All buffer-depth points of one bandwidth column."""
    config = _bandwidth_config(bw)
    return [
        fetch_point((bw, n_lines), config, "stream-buffer", n_lines=n_lines)
        for n_lines in BUFFER_SIZES
    ]


def _sweep_bandwidth(
    bw: int, settings: ExperimentSettings
) -> dict[tuple[int, int], float]:
    """One cell: every buffer size at one interface bandwidth."""
    config = _bandwidth_config(bw)
    column: dict[tuple[int, int], float] = {}
    for n_lines in BUFFER_SIZES:
        l1, _ = suite_cpi_instr(
            SUITE, config, "stream-buffer", settings, n_lines=n_lines
        )
        column[(bw, n_lines)] = l1
    return column


def plan_cells(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
) -> list[PlanCell]:
    """One cell per interface bandwidth.

    Stream buffers consult the plain demand mask, so each bandwidth's
    L1 shape joins the batched mask pass alongside its stream.
    """
    traces = plan_inputs.suite_trace_keys(SUITE, settings)
    return [
        PlanCell(
            key=(bw,),
            fn=_sweep_bandwidth,
            args=(bw, settings),
            traces=traces,
            streams=plan_inputs.point_streams(_bandwidth_points(bw)),
            masks=plan_inputs.mask_families(
                _bandwidth_points(bw), settings.engine
            ),
        )
        for bw in BANDWIDTHS
    ]


def merge(
    settings: ExperimentSettings,
    keyed: dict[tuple[int], dict[tuple[int, int], float]],
) -> Table8Result:
    """Combine the per-bandwidth columns."""
    merged: dict[tuple[int, int], float] = {}
    for column in keyed.values():
        merged.update(column)
    return Table8Result(cells=merged)


def run(settings: ExperimentSettings = DEFAULT_SETTINGS) -> Table8Result:
    """Reproduce Table 8 for both interface bandwidths."""
    return run_experiment(sys.modules[__name__], settings)[0]
