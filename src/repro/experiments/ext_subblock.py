"""Extension — sub-block placement vs small lines + prefetch.

The paper's Section 5.2 footnote:

    "Our simulations also show that a 64-byte line with 16-byte
    sub-block allocation can perform almost as well as a 16-byte line
    with 3 line prefetch.  On a cache miss, the system only refills the
    missing sub-block and all subsequent sub-blocks in the line.  While
    the sub-block configuration had more cache pollution, the decrease
    in refill cost provided the performance gains."

This experiment reproduces that footnote as a full comparison: the
plain 64 B-line cache, the 16 B-line cache with 3-line prefetch
(Table 6's winner), and the 64 B/16 B sub-block cache, all at 8 KB
direct-mapped behind the 16 B/cycle interface.  The sub-block refill
cost is the tail transfer only (the footnote's point).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._util.fmt import format_table
from repro.caches.base import CacheGeometry
from repro.caches.subblock import SubblockCache
from repro.core.metrics import warmup_cut
from repro.experiments.common import DEFAULT_SETTINGS, ExperimentSettings
from repro.fetch.prefetch import PrefetchOnMissEngine
from repro.fetch.timing import MemoryTiming
from repro.trace.rle import to_line_runs
from repro.workloads.registry import get_trace, suite_workloads
from repro.plan import inputs as plan_inputs

TIMING = MemoryTiming(latency=6, bytes_per_cycle=16)
SIZE = 8192
CONFIGS = ("64B plain", "16B + 3 prefetch", "64B/16B sub-block")


@dataclass(frozen=True)
class ExtSubblockResult:
    """Suite-mean CPIinstr per configuration."""

    cells: dict[str, float] = field(default_factory=dict)

    def render(self) -> str:
        headers = ["Configuration", "L1 CPIinstr"]
        body = [[config, f"{self.cells[config]:.3f}"] for config in CONFIGS]
        return format_table(
            headers,
            body,
            title="Extension: sub-block allocation vs prefetch "
            "(8 KB DM, 16 B/cyc; the paper's Section 5.2 footnote)",
        )


def _subblock_cpi(
    trace_addresses: np.ndarray, warmup_fraction: float
) -> float:
    """Cycle-account a 64 B/16 B sub-block cache.

    Refill cost is the tail transfer: ``latency + ceil(tail/16) - 1``
    cycles for the sub-blocks actually fetched.
    """
    cache = SubblockCache(CacheGeometry(SIZE, 64, 1), subblock_size=16)
    runs = to_line_runs(trace_addresses, 16)  # 16 B granularity: offsets matter
    cut, instructions = warmup_cut(runs, warmup_fraction)
    stalls = 0
    lines16 = runs.lines.tolist()
    for i, line16 in enumerate(lines16):
        address = line16 << 4
        outcome = cache.access_word(address)
        if outcome == SubblockCache.HIT:
            continue
        sub = (address >> 4) & 3
        tail_subblocks = 4 - sub
        penalty = TIMING.fill_penalty(16 * tail_subblocks)
        if i >= cut:
            stalls += penalty
    return stalls / instructions


def run(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    suite: str = "ibs-mach3",
) -> ExtSubblockResult:
    """Reproduce the footnote comparison over a suite."""
    plain_values, prefetch_values, subblock_values = [], [], []
    for name, os_name in suite_workloads(suite):
        trace = get_trace(name, os_name, settings.n_instructions, settings.seed)
        addresses = trace.ifetch_addresses()

        runs64 = to_line_runs(addresses, 64)
        plain = PrefetchOnMissEngine(
            CacheGeometry(SIZE, 64, 1), TIMING, n_prefetch=0
        ).run(runs64, settings.warmup_fraction)
        plain_values.append(plain.cpi_instr)

        runs16 = to_line_runs(addresses, 16)
        prefetch = PrefetchOnMissEngine(
            CacheGeometry(SIZE, 16, 1), TIMING, n_prefetch=3
        ).run(runs16, settings.warmup_fraction)
        prefetch_values.append(prefetch.cpi_instr)

        subblock_values.append(
            _subblock_cpi(addresses, settings.warmup_fraction)
        )

    return ExtSubblockResult(
        cells={
            "64B plain": float(np.mean(plain_values)),
            "16B + 3 prefetch": float(np.mean(prefetch_values)),
            "64B/16B sub-block": float(np.mean(subblock_values)),
        }
    )


def plan_cells(settings: ExperimentSettings = DEFAULT_SETTINGS):
    """The sweep-plan compilation: the engines replay raw streams, so
    only the suite's traces are shared."""
    return plan_inputs.run_cell(
        run, settings, suites=("ibs-mach3",)
    )
