"""Table 5 — CPIinstr of the two baseline configurations.

Both baselines use the 8 KB direct-mapped L1 with 32-byte lines; the
*economy* configuration refills from main memory (30 cycles to first
word, 4 bytes/cycle) and the *high-performance* configuration from an
ideal off-chip cache (12 cycles, 8 bytes/cycle).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

from repro._util.fmt import format_table
from repro.core.config import MemorySystemConfig
from repro.experiments.common import (
    DEFAULT_SETTINGS,
    ExperimentSettings,
    fetch_cells,
    fetch_point,
    fetch_values,
)
from repro.plan.executor import run_experiment
from repro.plan.ir import PlanCell

#: Paper values: (config, suite) -> CPIinstr.
PAPER = {
    ("economy", "spec92"): 0.54,
    ("economy", "ibs-mach3"): 1.77,
    ("high-performance", "spec92"): 0.18,
    ("high-performance", "ibs-mach3"): 0.72,
}


@dataclass(frozen=True)
class Table5Result:
    """Reproduced Table 5."""

    cells: dict[tuple[str, str], float] = field(default_factory=dict)

    def render(self) -> str:
        headers = ["", "Economy", "High Performance"]
        body = [
            [
                "Latency / bandwidth",
                "30 cyc, 4 B/cyc",
                "12 cyc, 8 B/cyc",
            ],
            [
                "CPIinstr (SPEC)",
                f"{self.cells[('economy', 'spec92')]:.2f}"
                f"  (paper {PAPER[('economy', 'spec92')]:.2f})",
                f"{self.cells[('high-performance', 'spec92')]:.2f}"
                f"  (paper {PAPER[('high-performance', 'spec92')]:.2f})",
            ],
            [
                "CPIinstr (IBS)",
                f"{self.cells[('economy', 'ibs-mach3')]:.2f}"
                f"  (paper {PAPER[('economy', 'ibs-mach3')]:.2f})",
                f"{self.cells[('high-performance', 'ibs-mach3')]:.2f}"
                f"  (paper {PAPER[('high-performance', 'ibs-mach3')]:.2f})",
            ],
        ]
        return format_table(
            headers, body, title="Table 5: CPIinstr for base system configurations"
        )


_CONFIG_NAMES = ("economy", "high-performance")
_SUITES = ("spec92", "ibs-mach3")


def _config(config_name: str) -> MemorySystemConfig:
    if config_name == "economy":
        return MemorySystemConfig.economy()
    return MemorySystemConfig.high_performance()


def plan_cells(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
) -> list[PlanCell]:
    """One cell per (configuration, suite) table entry and workload."""
    return fetch_cells(
        {
            (name, suite): (suite, [fetch_point((name, suite), _config(name))])
            for name in _CONFIG_NAMES
            for suite in _SUITES
        },
        settings,
    )


def merge(
    settings: ExperimentSettings,
    keyed: dict[tuple[str, str, str, str], dict],
) -> Table5Result:
    """Each entry is its baseline's suite-mean total CPIinstr."""
    return Table5Result(
        cells={
            key: l1 + l2 for key, (l1, l2) in fetch_values(keyed).items()
        }
    )


def run(settings: ExperimentSettings = DEFAULT_SETTINGS) -> Table5Result:
    """Reproduce Table 5: both baselines, both suites."""
    return run_experiment(sys.modules[__name__], settings)[0]
