"""Figure 7 — Summary of L1 and L2 cache optimizations.

The cumulative-optimization bar chart: starting from each baseline,
add an 8-way on-chip L2, then successively optimize the L1-L2
interface — bandwidth, prefetching, bypassing, pipelining.  The paper's
conclusions this experiment reproduces:

* the associative on-chip L2 is the single largest win (dramatic for
  the economy system);
* pipelining (stream buffers) is the largest L1-L2 interface win;
* after everything, IBS still pays ~0.2 CPIinstr — the "stubborn lower
  bound" that motivates the paper's title.
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
    FetchPoint,
    fetch_cells,
    fetch_point,
    fetch_values,
)
from repro.fetch.timing import MemoryTiming
from repro.plan.executor import run_experiment
from repro.plan.ir import PlanCell

STEPS = (
    "baseline",
    "on-chip L2",
    "bandwidth",
    "prefetching",
    "bypassing",
    "pipelining",
)

CONFIG_NAMES = ("economy", "high-performance")
SUITE = "ibs-mach3"

#: The optimized on-chip L2 arrived at in Figures 3-4.
L2_GEOMETRY = CacheGeometry(64 * 1024, 64, 8)


@dataclass(frozen=True)
class Figure7Result:
    """Reproduced Figure 7."""

    # (config, step) -> (L1 CPIinstr, L2 CPIinstr)
    cells: dict[tuple[str, str], tuple[float, float]] = field(
        default_factory=dict
    )

    def render(self) -> str:
        headers = ["Step", "L1 CPI", "L2 CPI", "Total"]
        blocks = []
        for config_name in CONFIG_NAMES:
            body = []
            for step in STEPS:
                l1, l2 = self.cells[(config_name, step)]
                body.append(
                    [step, f"{l1:.3f}", f"{l2:.3f}", f"{l1 + l2:.3f}"]
                )
            blocks.append(
                format_table(
                    headers,
                    body,
                    title=f"Figure 7 ({config_name}): cumulative "
                    "instruction-fetch optimizations",
                )
            )
        return "\n\n".join(blocks)

    def total(self, config_name: str, step: str) -> float:
        """Total CPIinstr at one step."""
        l1, l2 = self.cells[(config_name, step)]
        return l1 + l2


def _base_config(config_name: str) -> MemorySystemConfig:
    if config_name == "economy":
        return MemorySystemConfig.economy()
    return MemorySystemConfig.high_performance()


def _step_points(config_name: str) -> list[FetchPoint]:
    """The six cumulative-optimization points of one configuration.

    Every step drives the same 8 KB / 32 B L1 stream, so the ladder's
    per-workload miss masks are computed once and shared across all
    six steps.
    """
    base = _base_config(config_name)
    # Step 2: add the 8-way on-chip L2 (16 B/cyc interface).
    with_l2 = base.with_l2(L2_GEOMETRY)
    # Step 3: double the L1-L2 bandwidth to 32 B/cyc.
    fast = with_l2.with_l1_interface(MemoryTiming(latency=6, bytes_per_cycle=32))
    # Step 6: pipelined interface with a 6-line stream buffer
    # (line size = transfer size).
    pipelined = MemorySystemConfig(
        name=f"{config_name}-pipelined",
        l1=CacheGeometry(8192, 32, 1),
        memory=base.memory,
        l2=L2_GEOMETRY,
        l1_interface=MemoryTiming(latency=6, bytes_per_cycle=32),
    )
    return [
        fetch_point((config_name, "baseline"), base, "demand"),
        fetch_point((config_name, "on-chip L2"), with_l2, "demand"),
        fetch_point((config_name, "bandwidth"), fast, "demand"),
        fetch_point((config_name, "prefetching"), fast, "prefetch",
                    n_prefetch=1),
        fetch_point((config_name, "bypassing"), fast, "prefetch+bypass",
                    n_prefetch=1),
        fetch_point((config_name, "pipelining"), pipelined, "stream-buffer",
                    n_lines=6),
    ]


def plan_cells(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
) -> list[PlanCell]:
    """One cell per (baseline configuration, workload), six steps each."""
    return fetch_cells(
        {
            (config_name,): (SUITE, _step_points(config_name))
            for config_name in CONFIG_NAMES
        },
        settings,
    )


def merge(
    settings: ExperimentSettings, keyed: dict[tuple[str, str, str], dict]
) -> Figure7Result:
    """Reassemble the ladder from the per-configuration cells."""
    return Figure7Result(cells=fetch_values(keyed))


def run(settings: ExperimentSettings = DEFAULT_SETTINGS) -> Figure7Result:
    """Reproduce Figure 7's cumulative-optimization ladder."""
    return run_experiment(sys.modules[__name__], settings)[0]
