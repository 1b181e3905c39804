"""Extension — allocating on-chip area between L1 and L2.

Section 5.1 closes with the observation that fine-grained cache sizing
"helps to more optimally allocate chip die-area among various on-chip
memory-system structures [Nagle94]".  This experiment performs that
allocation for the instruction side: under a fixed die-area budget
(Mulder's rbe model, :mod:`repro.core.area`), enumerate the legal
configurations — a cycle-time-legal L1 (4-16 KB direct-mapped, the
paper's premise) plus an on-chip L2 sized to the remaining area, at
direct-mapped or 8-way — and pick the best CPIinstr per suite.

Expected findings (asserted by the bench):

* IBS's best configuration at every budget spends most of the area on
  an associative L2 (the paper's Section 5.1 design, derived here from
  an area argument);
* the absolute CPI at stake in the allocation (worst minus best legal
  configuration) is several times larger for IBS than for SPEC — a
  SPEC-guided allocator would see little to optimize and leave most of
  IBS's recoverable cycles on the table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro._util.fmt import format_table
from repro.caches.base import CacheGeometry
from repro.core.area import cache_area_rbe
from repro.core.config import MemorySystemConfig
from repro.experiments.common import (
    DEFAULT_SETTINGS,
    ExperimentSettings,
    suite_cpi_instr,
)
from repro.plan import inputs as plan_inputs

#: Cycle-time-legal L1 options (the paper: fast clocks cap the L1 at
#: 4-16 KB direct-mapped).
L1_SIZES = (4096, 8192, 16384)
L2_ASSOCIATIVITIES = (1, 8)
L2_LINE = 64

#: Area budgets, expressed in rbe (~the area of 48/96/192 KB of SRAM).
BUDGETS_RBE = tuple(int(k * 1024 * 8 * 0.6 * 1.1) for k in (48, 96, 192))


@dataclass(frozen=True)
class AreaPoint:
    """One legal configuration under a budget."""

    l1: CacheGeometry
    l2: CacheGeometry | None
    cpi_instr: float

    def describe(self) -> str:
        """Short label for tables."""
        if self.l2 is None:
            return f"L1 {self.l1.describe()}, no L2"
        return f"L1 {self.l1.describe()} + L2 {self.l2.describe()}"


@dataclass(frozen=True)
class ExtAreaResult:
    """Best/worst configurations per (suite, budget)."""

    points: dict[tuple[str, int], tuple[AreaPoint, ...]] = field(
        default_factory=dict
    )

    def best(self, suite: str, budget: int) -> AreaPoint:
        """The minimum-CPI configuration."""
        return min(self.points[(suite, budget)], key=lambda p: p.cpi_instr)

    def worst(self, suite: str, budget: int) -> AreaPoint:
        """The maximum-CPI legal configuration."""
        return max(self.points[(suite, budget)], key=lambda p: p.cpi_instr)

    def spread(self, suite: str, budget: int) -> float:
        """worst/best CPI ratio — how much allocation matters."""
        best = self.best(suite, budget).cpi_instr
        if best == 0:
            return 1.0
        return self.worst(suite, budget).cpi_instr / best

    def stakes(self, suite: str, budget: int) -> float:
        """Absolute CPI riding on the allocation (worst - best)."""
        return (
            self.worst(suite, budget).cpi_instr
            - self.best(suite, budget).cpi_instr
        )

    def render(self) -> str:
        headers = ["Suite", "Budget (rbe)", "best configuration",
                   "CPIinstr", "worst/best"]
        body = []
        for (suite, budget) in sorted(self.points):
            best = self.best(suite, budget)
            body.append(
                [
                    suite,
                    f"{budget:,}",
                    best.describe(),
                    f"{best.cpi_instr:.3f}",
                    f"{self.spread(suite, budget):.2f}x",
                ]
            )
        return format_table(
            headers,
            body,
            title="Extension: die-area allocation between L1 and L2 "
            "(Mulder rbe model; cycle-legal L1 only)",
        )


def _largest_l2(budget_rbe: float, l1: CacheGeometry, ways: int) -> CacheGeometry | None:
    """The largest power-of-two L2 fitting the remaining area."""
    remaining = budget_rbe - cache_area_rbe(l1)
    best = None
    size = 8192
    while size <= 1 << 20:
        if size // L2_LINE >= ways:
            geometry = CacheGeometry(size, L2_LINE, ways)
            if cache_area_rbe(geometry) <= remaining:
                best = geometry
        size *= 2
    return best


def run(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    suites: tuple[str, ...] = ("spec92", "ibs-mach3"),
    budgets: tuple[int, ...] = BUDGETS_RBE,
) -> ExtAreaResult:
    """Enumerate legal configurations per budget; evaluate per suite."""
    base = MemorySystemConfig.high_performance()
    points: dict[tuple[str, int], tuple[AreaPoint, ...]] = {}
    for budget in budgets:
        configs: list[tuple[CacheGeometry, CacheGeometry | None]] = []
        for l1_size in L1_SIZES:
            l1 = CacheGeometry(l1_size, 32, 1)
            if cache_area_rbe(l1) > budget:
                continue
            configs.append((l1, None))
            for ways in L2_ASSOCIATIVITIES:
                l2 = _largest_l2(budget, l1, ways)
                if l2 is not None:
                    configs.append((l1, l2))
        for suite in suites:
            evaluated = []
            for l1, l2 in configs:
                config = base.with_l1(l1)
                if l2 is not None:
                    config = config.with_l2(l2)
                cpi_l1, cpi_l2 = suite_cpi_instr(
                    suite, config, "demand", settings
                )
                evaluated.append(
                    AreaPoint(l1=l1, l2=l2, cpi_instr=cpi_l1 + cpi_l2)
                )
            points[(suite, budget)] = tuple(evaluated)
    return ExtAreaResult(points=points)


def plan_cells(settings: ExperimentSettings = DEFAULT_SETTINGS):
    """The sweep-plan compilation.

    The legal-configuration grid depends on the budget argument, so
    only the suites' traces are declared; the per-budget masks stay
    cell-private.
    """
    return plan_inputs.run_cell(
        run, settings, suites=("spec92", "ibs-mach3")
    )
