"""Miss-ratio measurement with cold-start (warmup) handling.

The paper's traces are 100 MB per workload, long enough that cold-start
(compulsory) misses are "a negligible fraction of all I-cache misses"
(Figure 1 footnote).  Our synthesized traces are shorter, so we apply
the standard trace-driven remedy: the cache is simulated from the start
of the trace, but misses and instructions are *counted* only after a
warmup window.  The synthesizer front-loads footprint discovery so cold
misses land inside the window (see
:class:`repro.workloads.generator.TraceSynthesizer`).

All MPI values in this library are produced through this module, so
every experiment and the calibration share one measurement convention.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from repro._util.bitops import ilog2
from repro.caches.base import CacheGeometry
from repro.caches.classify import ThreeCs
from repro.caches.vectorized import compulsory_mask, line_order_cache
from repro.core.config import DEFAULT_WARMUP_FRACTION
from repro.runner import timing
from repro.trace.rle import LineRuns


@dataclass(frozen=True)
class MpiMeasurement:
    """An MPI measurement over the post-warmup window.

    Attributes:
        misses: misses counted in the measurement window.
        instructions: instructions executed in the measurement window.
    """

    misses: int
    instructions: int

    @property
    def mpi(self) -> float:
        """Misses per instruction."""
        if self.instructions == 0:
            return 0.0
        return self.misses / self.instructions

    @property
    def mpi_per_100(self) -> float:
        """Misses per 100 instructions (the paper's Table 4 unit)."""
        return 100.0 * self.mpi

    def cpi_contribution(self, miss_penalty_cycles: float) -> float:
        """``CPIinstr = MPI x CPM`` (the paper's Section 3 model)."""
        return self.mpi * miss_penalty_cycles


def warmup_cut(runs: LineRuns, warmup_fraction: float) -> tuple[int, int]:
    """Index of the first measured run, and instructions after the cut.

    The cut is placed at the first run whose cumulative instruction
    count reaches ``warmup_fraction`` of the total.  Memoized per
    (stream, fraction) in the stream's line-order memo: a report asks
    thousands of times, and each answer is a pass over every run.
    """
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError(
            f"warmup_fraction must be in [0, 1), got {warmup_fraction}"
        )
    counts = runs.counts
    owner, cut, measured = line_order_cache(runs.lines).memo(
        ("warmup-cut", warmup_fraction),
        lambda: (weakref.ref(counts),)
        + _warmup_cut_compute(counts, warmup_fraction),
    )
    if owner() is not counts:
        # Another counts column over the same line array: not ours.
        return _warmup_cut_compute(counts, warmup_fraction)
    return cut, measured


def _warmup_cut_compute(
    counts: np.ndarray, warmup_fraction: float
) -> tuple[int, int]:
    starts = np.cumsum(counts, dtype=np.int64)
    total = int(starts[-1]) if len(starts) else 0
    if len(counts) == 0 or warmup_fraction == 0.0:
        return 0, total
    starts -= counts
    # The window opens at the first run that *starts* at or beyond the
    # threshold, so the warmup covers at least warmup_fraction of the
    # instructions.
    cut = int(np.searchsorted(starts, warmup_fraction * total, side="left"))
    cut = min(cut, len(counts) - 1)
    return cut, total - int(starts[cut])


def measure_mpi(
    runs: LineRuns,
    geometry: CacheGeometry,
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
) -> MpiMeasurement:
    """Measure MPI of one cache geometry over an RLE instruction stream.

    ``runs`` must be encoded at a line size no coarser than
    ``geometry.line_size``.
    """
    if runs.line_size > geometry.line_size:
        raise ValueError(
            f"runs encoded at {runs.line_size} B cannot drive a "
            f"{geometry.line_size} B-line cache"
        )
    lines = _lines_at(runs, geometry.line_size)
    with timing.phase(timing.PHASE_SIMULATE):
        mask = line_order_cache(lines).miss_mask(
            geometry.n_sets, geometry.associativity
        )
    cut, instructions = warmup_cut(runs, warmup_fraction)
    return MpiMeasurement(
        misses=int(mask[cut:].sum()),
        instructions=instructions,
    )


def prime_mpi_masks(runs: LineRuns, geometries: list[CacheGeometry]) -> None:
    """Batch the miss masks :func:`measure_mpi` will read for ``runs``.

    One :meth:`~repro.caches.vectorized.LineOrderCache.miss_masks` call
    per line size prices every geometry of that size from shared
    per-set-count passes, so the per-geometry measurements that follow
    are memo hits.  Geometries finer than the runs are left to
    :func:`measure_mpi` to refuse.
    """
    shapes: dict[int, list[tuple[int, int]]] = {}
    for geometry in geometries:
        if geometry.line_size >= runs.line_size:
            shapes.setdefault(geometry.line_size, []).append(
                (geometry.n_sets, geometry.associativity)
            )
    with timing.phase(timing.PHASE_SIMULATE):
        for line_size, group in shapes.items():
            line_order_cache(_lines_at(runs, line_size)).miss_masks(group)


def _lines_at(runs: LineRuns, line_size: int) -> np.ndarray:
    """``runs.lines`` coarsened to ``line_size`` granularity.

    Returns the *same* array object for each (stream, line size) pair —
    identity-stable through the :class:`~repro.caches.vectorized.
    LineOrderCache` memo — so the per-array sort and miss-mask
    memoization can recognize repeated sweeps over one stream.
    """
    shift = ilog2(line_size) - ilog2(runs.line_size)
    return line_order_cache(runs.lines).coarsened(shift)


def measure_three_cs(
    runs: LineRuns,
    geometry: CacheGeometry,
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
    reference_associativity: int = 8,
) -> tuple[ThreeCs, int]:
    """Warmup-aware three-Cs classification (the paper's Figure 1 method).

    Capacity = misses of an ``reference_associativity``-way cache of the
    same size, minus compulsory; conflict = the analysed cache's excess
    over that reference.  All counts are restricted to the measurement
    window.  Returns ``(breakdown, instructions_measured)``.
    """
    if runs.line_size > geometry.line_size:
        raise ValueError(
            f"runs encoded at {runs.line_size} B cannot drive a "
            f"{geometry.line_size} B-line cache"
        )
    lines = _lines_at(runs, geometry.line_size)
    cut, instructions = warmup_cut(runs, warmup_fraction)

    with timing.phase(timing.PHASE_SIMULATE):
        masks = line_order_cache(lines)
        compulsory = int(compulsory_mask(lines)[cut:].sum())
        reference_misses = int(
            masks.miss_mask(
                geometry.n_lines // reference_associativity,
                reference_associativity,
            )[cut:].sum()
        )
        actual_misses = int(
            masks.miss_mask(geometry.n_sets, geometry.associativity)[cut:].sum()
        )
    breakdown = ThreeCs(
        compulsory=compulsory,
        capacity=max(reference_misses - compulsory, 0),
        conflict=max(actual_misses - reference_misses, 0),
    )
    return breakdown, instructions


def measure_mpi_lines(
    lines: np.ndarray,
    geometry: CacheGeometry,
    base_line_size: int,
    instruction_counts: np.ndarray | None = None,
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
) -> MpiMeasurement:
    """Like :func:`measure_mpi` but for raw line columns.

    ``instruction_counts`` gives the instructions carried by each entry
    (defaults to 1 per entry — an unencoded per-reference stream).
    """
    if instruction_counts is None:
        instruction_counts = np.ones(len(lines), dtype=np.int32)
    runs = LineRuns(
        lines=lines,
        counts=instruction_counts,
        first_offsets=np.zeros(len(lines), dtype=np.uint8),
        line_size=base_line_size,
    )
    return measure_mpi(runs, geometry, warmup_fraction)
