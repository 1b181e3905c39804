"""Line-granular run-length encoding of reference streams.

Instruction streams are highly sequential: with 4-byte instructions and
32-byte lines, straight-line code touches each line eight times in a
row.  Collapsing consecutive references to the same cache line into a
``(line, count)`` run shrinks the stream the sequential cache and fetch
simulators must walk by roughly the line-size/instruction-size ratio,
without changing any hit/miss outcome (repeat references to a resident
line always hit).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util.bitops import ilog2
from repro.runner import timing


@dataclass(frozen=True)
class LineRuns:
    """A run-length-encoded, line-granular reference stream.

    Each column is stored once, at construction, at its narrowest exact
    width, and every reader uses it at that width: a 32-bit address
    space's stream takes 6 bytes per run at 4 B lines (``uint32`` line,
    ``uint8`` count, ``uint8`` first offset).  Read ``counts`` and
    ``first_offsets`` as numbers only through ``int()``/``tolist()`` or
    a reduction with an explicit ``dtype=np.int64``, and ``lines`` only
    as line numbers (compare, sort, gather, shift): numpy arithmetic on
    a narrow column, even with a Python int, stays narrow and can wrap.

    Attributes:
        lines: line numbers (byte address >> log2(line_size)), ``uint32``
            when every one fits 32 bits and ``uint64`` otherwise.
        counts: number of consecutive references to each line, the
            narrowest unsigned type that holds the longest run (every
            run is shorter than 2**31 references).
        line_size: the line size in bytes the stream was encoded for.
        first_offsets: byte offset within the line of the *first* reference
            of each run (needed by the bypass/critical-word models),
            ``uint8`` up to 256 B lines and ``uint16`` above.
    """

    lines: np.ndarray
    counts: np.ndarray
    first_offsets: np.ndarray
    line_size: int

    def __post_init__(self) -> None:
        lines = _narrow_lines(self.lines)
        counts = narrowest_unsigned(self.counts, 2**31, "run count")
        offsets = _narrowed(
            self.first_offsets,
            np.min_scalar_type(max(self.line_size - 1, 0)),
            self.line_size,
            "first offset",
        )
        if not (len(lines) == len(counts) == len(offsets)):
            raise ValueError("lines, counts and first_offsets must align")
        object.__setattr__(self, "lines", lines)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "first_offsets", offsets)

    def __len__(self) -> int:
        return len(self.lines)

    @property
    def total_references(self) -> int:
        """Number of references in the original (unencoded) stream."""
        return int(self.counts.sum(dtype=np.int64))


def _checked_max(column: np.ndarray, limit: int, what: str) -> int:
    """The largest value of ``column`` (0 when empty), refusing any
    value outside ``[0, limit)`` rather than letting a cast wrap it."""
    if not len(column):
        return 0
    low = 0 if column.dtype.kind == "u" else int(column.min())
    high = int(column.max())
    if low < 0 or high >= limit:
        bad = low if low < 0 else high
        raise ValueError(f"{what} {bad} is outside [0, {limit})")
    return high


def _narrow_lines(lines) -> np.ndarray:
    """Line numbers as ``uint32`` when every one fits 32 bits, else
    ``uint64``; an array already at that width is returned as is."""
    lines = np.asarray(lines)
    high = _checked_max(lines, 2**64, "line number")
    return lines.astype(np.uint32 if high < 2**32 else np.uint64, copy=False)


def narrowest_unsigned(column, limit: int = 2**64, what: str = "value"):
    """``column`` at the narrowest unsigned width that holds its largest
    value, refusing any value outside ``[0, limit)``; an array already
    at that width is returned as is."""
    column = np.asarray(column)
    high = _checked_max(column, limit, what)
    return column.astype(np.min_scalar_type(high), copy=False)


def _narrowed(column, dtype, limit: int, what: str) -> np.ndarray:
    """``column`` cast to ``dtype``, refusing any value outside
    ``[0, limit)`` rather than letting the cast wrap it."""
    column = np.asarray(column)
    if column.dtype != dtype:
        _checked_max(column, limit, what)
    return column.astype(dtype, copy=False)


def to_line_runs(addresses: np.ndarray, line_size: int) -> LineRuns:
    """Run-length encode ``addresses`` at ``line_size`` granularity.

    Consecutive references that fall in the same line are merged into a
    single run.  Non-adjacent repeats are *not* merged (they may be
    separated by evictions, so they matter to the simulators).  Each
    column is narrowed as soon as it is built, so no full-width copy of
    a column outlives the next one's construction.
    """
    shift = ilog2(line_size)
    addresses = np.asarray(addresses, dtype=np.uint64)
    if len(addresses) == 0:
        empty = np.zeros(0, dtype=np.uint8)
        return LineRuns(empty, empty, empty, line_size)
    with timing.phase(timing.PHASE_LINE_RUNS):
        lines = addresses >> np.uint64(shift)
        boundaries = np.empty(len(lines), dtype=bool)
        boundaries[0] = True
        np.not_equal(lines[1:], lines[:-1], out=boundaries[1:])
        starts = np.flatnonzero(boundaries)
        # Free each full-width transient as soon as it is read: at 4 B
        # lines a stream has about one run per reference, so every
        # column here is as wide as the input.
        del boundaries
        run_lines = lines[starts]
        del lines
        run_lines = _narrow_lines(run_lines)
        counts = narrowest_unsigned(
            np.diff(starts, append=len(addresses)), 2**31, "run count"
        )
        offsets = addresses[starts]
        del starts
        offsets &= np.uint64(line_size - 1)
        return LineRuns(run_lines, counts, offsets, line_size)
