"""Table 7 — Prefetching + bypassing.

Adds bypass buffers to the Table 6 configurations: the processor
resumes as soon as the missing word returns, and during the refill it
may fetch from the bypass buffers.  The paper's comparison shows bypass
consistently lowers CPIinstr at every (line size, prefetch) point.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

from repro._util.fmt import format_table
from repro.caches.base import CacheGeometry
from repro.core.config import MemorySystemConfig
from repro.experiments.common import (
    DEFAULT_SETTINGS,
    ExperimentSettings,
    suite_cpi_instr,
)
from repro.experiments.table6 import (
    INTERFACE,
    LINE_SIZES,
    PREFETCH_DEPTHS,
    SUITE,
    _line_size_points,
)
from repro.experiments.table6 import PAPER as PAPER_NO_BYPASS
from repro.plan import inputs as plan_inputs
from repro.plan.executor import run_experiment
from repro.plan.ir import PlanCell

#: Paper values with bypass buffers: (line, N) -> L1 CPIinstr.
PAPER_WITH_BYPASS = {
    (16, 1): 0.218, (16, 2): 0.205, (16, 3): 0.181,
    (32, 0): 0.296, (32, 1): 0.224,
    (64, 0): 0.226, (64, 1): 0.224,
}


@dataclass(frozen=True)
class Table7Result:
    """Reproduced Table 7 (both with- and without-bypass grids)."""

    no_bypass: dict[tuple[int, int], float] = field(default_factory=dict)
    with_bypass: dict[tuple[int, int], float] = field(default_factory=dict)

    def render(self) -> str:
        headers = [
            "Line/N",
            "no bypass",
            "(paper)",
            "with bypass",
            "(paper)",
        ]
        body = []
        for line_size in LINE_SIZES:
            for depth in PREFETCH_DEPTHS:
                paper_nb = PAPER_NO_BYPASS.get((line_size, depth))
                paper_wb = PAPER_WITH_BYPASS.get((line_size, depth))
                body.append(
                    [
                        f"{line_size}B/N={depth}",
                        f"{self.no_bypass[(line_size, depth)]:.3f}",
                        f"{paper_nb:.3f}" if paper_nb is not None else "-",
                        f"{self.with_bypass[(line_size, depth)]:.3f}",
                        f"{paper_wb:.3f}" if paper_wb is not None else "-",
                    ]
                )
        return format_table(
            headers,
            body,
            title="Table 7: Prefetching + bypassing (L1 CPIinstr, 8 KB DM, "
            "16 B/cyc)",
        )


def _sweep_line_size(
    line_size: int, settings: ExperimentSettings
) -> tuple[dict[tuple[int, int], float], dict[tuple[int, int], float]]:
    """One cell: both grids' column at one line size.

    Evaluates prefetch before prefetch+bypass at each depth.
    """
    config = MemorySystemConfig(
        name=f"l1-{line_size}B",
        l1=CacheGeometry(8192, line_size, 1),
        memory=INTERFACE,
    )
    no_bypass: dict[tuple[int, int], float] = {}
    with_bypass: dict[tuple[int, int], float] = {}
    for depth in PREFETCH_DEPTHS:
        l1, _ = suite_cpi_instr(
            SUITE, config, "prefetch", settings, n_prefetch=depth
        )
        no_bypass[(line_size, depth)] = l1
        l1b, _ = suite_cpi_instr(
            SUITE, config, "prefetch+bypass", settings, n_prefetch=depth
        )
        with_bypass[(line_size, depth)] = l1b
    return no_bypass, with_bypass


def plan_cells(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
) -> list[PlanCell]:
    """One cell per L1 line size (covering both bypass variants).

    Both mechanisms consult install-aware masks (not the plain demand
    mask), so the shared inputs are the traces and per-line-size
    streams — the same ones Table 6's columns declare.
    """
    traces = plan_inputs.suite_trace_keys(SUITE, settings)
    return [
        PlanCell(
            key=(line_size,),
            fn=_sweep_line_size,
            args=(line_size, settings),
            traces=traces,
            streams=plan_inputs.point_streams(
                _line_size_points(line_size, PREFETCH_DEPTHS)
            ),
        )
        for line_size in LINE_SIZES
    ]


def merge(
    settings: ExperimentSettings,
    keyed: dict[tuple[int], tuple[dict, dict]],
) -> Table7Result:
    """Combine the per-line-size columns into both grids."""
    no_bypass: dict[tuple[int, int], float] = {}
    with_bypass: dict[tuple[int, int], float] = {}
    for cell_no_bypass, cell_with_bypass in keyed.values():
        no_bypass.update(cell_no_bypass)
        with_bypass.update(cell_with_bypass)
    return Table7Result(no_bypass=no_bypass, with_bypass=with_bypass)


def run(settings: ExperimentSettings = DEFAULT_SETTINGS) -> Table7Result:
    """Reproduce Table 7: the Table 6 grid with and without bypass."""
    return run_experiment(sys.modules[__name__], settings)[0]
