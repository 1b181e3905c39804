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
from repro.experiments import table6
from repro.experiments.common import (
    DEFAULT_SETTINGS,
    ExperimentSettings,
    fetch_cells,
    fetch_values,
)
from repro.experiments.table6 import (
    LINE_SIZES,
    PREFETCH_DEPTHS,
    SUITE,
    _line_size_points,
)
from repro.experiments.table6 import PAPER as PAPER_NO_BYPASS
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


def plan_cells(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
) -> list[PlanCell]:
    """Table 6's cells, plus one bypass cell per (L1 line size, workload).

    The no-bypass grid is Table 6 itself: the same cells under the same
    keys, so a report runs them once for both tables.  Bypass columns
    are keyed ``("bypass", line_size)``.
    """
    return table6.plan_cells(settings) + fetch_cells(
        {
            ("bypass", line_size): (
                SUITE, _line_size_points(line_size, "prefetch+bypass")
            )
            for line_size in LINE_SIZES
        },
        settings,
    )


def merge(
    settings: ExperimentSettings, keyed: dict[tuple, dict]
) -> Table7Result:
    """Table 6's cells are the no-bypass grid; the rest add bypass."""
    bypass = {key: swept for key, swept in keyed.items() if key[0] == "bypass"}
    no_bypass = {
        key: swept for key, swept in keyed.items() if key not in bypass
    }
    return Table7Result(
        no_bypass=table6.merge(settings, no_bypass).cells,
        with_bypass={
            key: l1 for key, (l1, _l2) in fetch_values(bypass).items()
        },
    )


def run(settings: ExperimentSettings = DEFAULT_SETTINGS) -> Table7Result:
    """Reproduce Table 7: the Table 6 grid with and without bypass."""
    return run_experiment(sys.modules[__name__], settings)[0]
