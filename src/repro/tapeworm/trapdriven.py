"""Multi-trial trap-driven cache simulation with page-mapping variation.

Reproduces the paper's Figure 5 methodology:

    "Each datapoint... represents 5 experimental trials conducted with
    the Tapeworm simulator running in an actual system.  Variability is
    reported... in terms of one standard deviation of CPIinstr...
    Performance varies because the allocation of virtual pages to
    physical cache page frames is different from run to run."

A trial = one random virtual-to-physical page mapping (what the Ultrix
page allocator effectively produced) + one simulation of the
physically-indexed I-cache over the translated reference stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util.bitops import ilog2
from repro.caches.base import CacheGeometry
from repro.core.metrics import (
    DEFAULT_WARMUP_FRACTION,
    measure_mpi,
    prime_mpi_masks,
)
from repro.trace.rle import LineRuns
from repro.vm.pagemap import PageMapper, RandomPageMapper


def translate_lines(
    lines: np.ndarray, line_size: int, mapper: PageMapper
) -> np.ndarray:
    """Translate virtual line numbers through a page mapping.

    Lines never span pages (line size divides page size), so a line
    maps to ``frame(page) * lines_per_page + line-within-page``.  The
    stream is read at its own width, and the physical lines come back
    as ``uint32`` when every one fits 32 bits (``uint64`` otherwise), so
    no full-width copy of the stream is made.
    """
    if mapper.page_size % line_size:
        raise ValueError(
            f"line size {line_size} does not divide page size "
            f"{mapper.page_size}"
        )
    lines = np.asarray(lines)
    if lines.dtype.kind != "u":
        lines = lines.astype(np.uint64)
    bits = ilog2(mapper.page_size // line_size)
    word = lines.dtype.type
    unique_pages, inverse = np.unique(
        lines >> word(bits), return_inverse=True
    )
    frames = [mapper.frame_of(int(page)) for page in unique_pages]
    highest = (max(frames, default=0) << bits) | ((1 << bits) - 1)
    physical_dtype = np.uint32 if highest < 2**32 else np.uint64
    physical = np.array(frames, dtype=physical_dtype)[inverse]
    del inverse
    physical <<= physical_dtype(bits)
    physical |= (lines & word((1 << bits) - 1)).astype(
        physical_dtype, copy=False
    )
    return physical


@dataclass(frozen=True)
class TrialResult:
    """One trap-driven trial."""

    seed: int
    mpi: float
    cpi_instr: float


@dataclass(frozen=True)
class VariabilityResult:
    """Aggregate of several trials at one cache configuration."""

    geometry: CacheGeometry
    trials: tuple[TrialResult, ...]

    @property
    def mean_cpi(self) -> float:
        """Mean CPIinstr across trials."""
        return float(np.mean([t.cpi_instr for t in self.trials]))

    @property
    def std_cpi(self) -> float:
        """One standard deviation of CPIinstr (Figure 5's y-axis).

        Sample standard deviation (ddof=1), matching how one reports
        variability of repeated experimental trials.
        """
        values = [t.cpi_instr for t in self.trials]
        if len(values) < 2:
            return 0.0
        return float(np.std(values, ddof=1))

    @property
    def mean_mpi(self) -> float:
        """Mean misses per instruction across trials."""
        return float(np.mean([t.mpi for t in self.trials]))


class TapewormSimulator:
    """Runs repeated randomly-mapped trials of a physically-indexed cache."""

    def __init__(
        self,
        miss_penalty: float = 15.0,
        page_size: int = 4096,
        n_frames: int = 1 << 16,
        warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
    ):
        """Args:
        miss_penalty: cycles per miss used to convert MPI to CPIinstr
            (the paper's Tapeworm host refills from its off-chip
            hierarchy; 15 cycles matches the high-performance
            baseline's full-line refill).
        page_size: OS page size.
        n_frames: physical frames available to the random allocator.
        warmup_fraction: measurement warmup, as everywhere else.
        """
        if miss_penalty <= 0:
            raise ValueError(f"miss_penalty must be positive, got {miss_penalty}")
        self.miss_penalty = miss_penalty
        self.page_size = page_size
        self.n_frames = n_frames
        self.warmup_fraction = warmup_fraction

    def translated_runs(self, runs: LineRuns, seed: int) -> LineRuns:
        """The stream under one seed's random page mapping.

        Translation depends only on the seed (and the page/frame
        parameters), never on the cache geometry, so a grid sweep can
        translate once per trial and reuse the stream for every
        geometry.
        """
        mapper = RandomPageMapper(
            n_frames=self.n_frames, page_size=self.page_size, seed=seed
        )
        physical = translate_lines(runs.lines, runs.line_size, mapper)
        return LineRuns(
            lines=physical,
            counts=runs.counts,
            first_offsets=runs.first_offsets,
            line_size=runs.line_size,
        )

    def _measure(
        self, translated: LineRuns, geometry: CacheGeometry, seed: int
    ) -> TrialResult:
        measured = measure_mpi(translated, geometry, self.warmup_fraction)
        return TrialResult(
            seed=seed,
            mpi=measured.mpi,
            cpi_instr=measured.cpi_contribution(self.miss_penalty),
        )

    def run_trial(
        self, runs: LineRuns, geometry: CacheGeometry, seed: int
    ) -> TrialResult:
        """One trial: fresh random page mapping, one cache simulation."""
        return self._measure(self.translated_runs(runs, seed), geometry, seed)

    def _trial_seeds(self, n_trials: int, base_seed: int) -> list[int]:
        if n_trials < 1:
            raise ValueError(f"n_trials must be >= 1, got {n_trials}")
        return [base_seed * 1000 + i for i in range(n_trials)]

    def run_trials(
        self,
        runs: LineRuns,
        geometry: CacheGeometry,
        n_trials: int = 5,
        base_seed: int = 0,
    ) -> VariabilityResult:
        """Figure 5's protocol: ``n_trials`` independently-mapped runs."""
        trials = tuple(
            self.run_trial(runs, geometry, seed=seed)
            for seed in self._trial_seeds(n_trials, base_seed)
        )
        return VariabilityResult(geometry=geometry, trials=trials)

    def run_grid(
        self,
        runs: LineRuns,
        geometries: list[CacheGeometry],
        n_trials: int = 5,
        base_seed: int = 0,
    ) -> list[VariabilityResult]:
        """Trial grid over many geometries, translating once per seed.

        Bit-identical to calling :meth:`run_trials` per geometry, but
        the trials run one at a time.  Each trial's page-mapped stream
        is built once, its masks are batched so geometries sharing a
        set count share one pass (``prime_mpi_masks``), every geometry
        is measured on it, and then it is dropped with its line-order
        memos and masks, so one trial's stream is live at a time.
        """
        trials: list[list[TrialResult]] = [[] for _ in geometries]
        for seed in self._trial_seeds(n_trials, base_seed):
            stream = self.translated_runs(runs, seed)
            prime_mpi_masks(stream, geometries)
            for column, geometry in zip(trials, geometries):
                column.append(self._measure(stream, geometry, seed))
            del stream
        return [
            VariabilityResult(geometry=geometry, trials=tuple(column))
            for geometry, column in zip(geometries, trials)
        ]
