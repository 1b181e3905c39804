"""Time-sampled cache simulation.

Trace-driven simulation of long traces is expensive; the classic remedy
(central to Uhlig's thesis work this paper builds on) is *time
sampling*: simulate only every k-th window of the trace and correct for
the cold state at each window's start.  This module implements window
sampling with the standard half-window warm-up correction and reports
the estimate alongside its sampling error, so users can trade accuracy
for speed on their own traces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util.bitops import ilog2
from repro._util.validate import check_positive
from repro.caches.base import CacheGeometry
from repro.caches.vectorized import miss_mask_set_associative
from repro.trace.rle import LineRuns


@dataclass(frozen=True)
class SampledEstimate:
    """A sampled MPI estimate.

    Attributes:
        mpi: estimated misses per instruction.
        windows: number of windows simulated.
        instructions_simulated: instructions actually simulated
            (including warm-up halves).
        instructions_measured: instructions contributing to the estimate.
        per_window_mpi: the individual window estimates (for error bars).
    """

    mpi: float
    windows: int
    instructions_simulated: int
    instructions_measured: int
    per_window_mpi: tuple[float, ...]

    @property
    def standard_error(self) -> float:
        """Standard error of the estimate across windows."""
        if self.windows < 2:
            return 0.0
        return float(
            np.std(self.per_window_mpi, ddof=1) / np.sqrt(self.windows)
        )


def sampled_mpi(
    runs: LineRuns,
    geometry: CacheGeometry,
    sample_fraction: float = 0.2,
    window_instructions: int = 50_000,
    warm_fraction: float = 0.5,
) -> SampledEstimate:
    """Estimate MPI by simulating sampled windows of the stream.

    Windows are spaced evenly to cover the whole trace; within each,
    the first ``warm_fraction`` warms the (cold) cache and only the
    remainder is measured — the standard cold-start correction.

    Args:
        runs: RLE instruction stream at the cache's line size (or finer).
        geometry: the cache to estimate.
        sample_fraction: fraction of the trace to simulate (0 < f <= 1).
        window_instructions: instructions per sampled window.
        warm_fraction: leading fraction of each window used as warm-up.
    """
    if not 0.0 < sample_fraction <= 1.0:
        raise ValueError(
            f"sample_fraction must be in (0, 1], got {sample_fraction}"
        )
    check_positive("window_instructions", window_instructions)
    if not 0.0 <= warm_fraction < 1.0:
        raise ValueError(
            f"warm_fraction must be in [0, 1), got {warm_fraction}"
        )
    if runs.line_size > geometry.line_size:
        raise ValueError(
            f"runs at {runs.line_size} B cannot drive a "
            f"{geometry.line_size} B-line cache"
        )
    shift = ilog2(geometry.line_size) - ilog2(runs.line_size)
    lines = runs.lines >> np.uint64(shift)
    counts = runs.counts
    cumulative = np.cumsum(counts, dtype=np.int64)
    total_instructions = int(cumulative[-1]) if len(counts) else 0
    if total_instructions == 0:
        return SampledEstimate(0.0, 0, 0, 0, ())

    n_windows = max(
        1, int(sample_fraction * total_instructions / window_instructions)
    )
    window_starts = np.linspace(
        0, max(total_instructions - window_instructions, 0), n_windows
    ).astype(np.int64)

    per_window = []
    simulated = 0
    measured_total = 0
    for start_instr in window_starts.tolist():
        lo = int(np.searchsorted(cumulative, start_instr, side="right"))
        hi = int(
            np.searchsorted(
                cumulative, start_instr + window_instructions, side="left"
            )
        )
        hi = min(hi + 1, len(lines))
        window_lines = lines[lo:hi]
        window_counts = counts[lo:hi]
        if len(window_lines) == 0:
            continue
        window_instr = int(window_counts.sum(dtype=np.int64))
        simulated += window_instr
        miss = miss_mask_set_associative(
            window_lines, geometry.n_sets, geometry.associativity
        )
        # Warm-up cut inside the window.
        warm_target = warm_fraction * window_instr
        inner_cum = np.cumsum(window_counts, dtype=np.int64)
        cut = int(
            np.searchsorted(inner_cum - window_counts, warm_target, side="left")
        )
        cut = min(cut, len(window_lines) - 1)
        measured_instr = window_instr - (
            int(inner_cum[cut]) - int(window_counts[cut])
        )
        if measured_instr <= 0:
            continue
        window_mpi = float(miss[cut:].sum()) / measured_instr
        per_window.append(window_mpi)
        measured_total += measured_instr

    if not per_window:
        return SampledEstimate(0.0, 0, simulated, 0, ())
    return SampledEstimate(
        mpi=float(np.mean(per_window)),
        windows=len(per_window),
        instructions_simulated=simulated,
        instructions_measured=measured_total,
        per_window_mpi=tuple(per_window),
    )
