"""Non-sequential (Markov / miss-correlation) prefetching.

The paper's stated future work:

    "This study did not consider more aggressive (non-sequential)
    prefetching schemes...  By making the IBS traces available, we hope
    to encourage the exploration of these more sophisticated hardware
    mechanisms on demanding workloads."

This module is that exploration.  A *Markov prefetcher* records, per
missing line, which line missed next last time; on a miss it prefetches
the recorded successor(s) into a small fully-associative prefetch buffer
(looked up in parallel with the cache, like a stream buffer).  Unlike
sequential prefetch it can follow taken branches, call targets and
cross-procedure transitions — exactly the cold transfers that keep the
paper's Table 8 curves from reaching zero.

The ``hybrid`` flag adds next-sequential prefetching alongside the
predicted successor, the classic combination.
"""

from __future__ import annotations

import numpy as np

from repro.caches.base import CacheGeometry
from repro.caches.vectorized import _index_dtype
from repro.fetch.engine import FetchEngine
from repro.fetch.timing import MemoryTiming
from repro.trace.rle import narrowest_unsigned


class MarkovPrefetchEngine(FetchEngine):
    """L1 with a miss-successor (Markov) prefetcher.

    The correlation table maps a missing line to the line that missed
    immediately after it last time (one successor per entry, LRU-bounded
    at ``table_size`` entries).  On a miss, the table's prediction —
    plus the next sequential line when ``hybrid`` — is requested into an
    ``n_buffers``-entry prefetch buffer.
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        timing: MemoryTiming,
        table_size: int = 1024,
        n_buffers: int = 4,
        hybrid: bool = False,
    ):
        super().__init__(geometry, timing)
        if table_size < 1:
            raise ValueError(f"table_size must be >= 1, got {table_size}")
        if n_buffers < 1:
            raise ValueError(f"n_buffers must be >= 1, got {n_buffers}")
        self.table_size = table_size
        self.n_buffers = n_buffers
        self.hybrid = hybrid
        self._penalty = timing.fill_penalty(geometry.line_size)
        # Correlation table: miss line -> next miss line (LRU-bounded).
        self._table: dict[int, int] = {}
        # Prefetch buffer: line -> arrival cycle (insertion-ordered).
        self._buffer: dict[int, int] = {}
        self._last_miss: int | None = None
        self.buffer_hits = 0
        self.predictions_made = 0

    def _access(self, line: int, first_offset: int, now: int) -> tuple[int, bool]:
        cache = self.cache
        if cache.contains_line(line):
            return 0, False
        arrival = self._buffer.pop(line, None)
        if arrival is not None:
            # Prefetch-buffer hit: move into the cache, pay only the
            # remaining flight time.
            self.buffer_hits += 1
            cache.install_line(line)
            self._learn(line)
            self._predict(line, now)
            return max(0, arrival - now), False

        # Full miss.
        cache.install_line(line)
        self._learn(line)
        self._predict(line, now)
        return self._penalty, True

    def _learn(self, miss_line: int) -> None:
        """Record the (previous miss -> this miss) correlation."""
        previous = self._last_miss
        if previous is not None and previous != miss_line:
            if previous in self._table:
                del self._table[previous]
            elif len(self._table) >= self.table_size:
                del self._table[next(iter(self._table))]
            self._table[previous] = miss_line
        self._last_miss = miss_line

    def _predict(self, miss_line: int, now: int) -> None:
        """Issue prefetches for the predicted successor(s)."""
        targets = []
        predicted = self._table.get(miss_line)
        if predicted is not None:
            targets.append(predicted)
        if self.hybrid:
            targets.append(miss_line + 1)
        arrival = now + self._penalty
        for offset, target in enumerate(targets):
            if self.cache.contains_line(target) or target in self._buffer:
                continue
            self.predictions_made += 1
            self._insert(target, arrival + offset + 1)

    def _insert(self, line: int, arrival: int) -> None:
        while len(self._buffer) >= self.n_buffers:
            del self._buffer[next(iter(self._buffer))]
        self._buffer[line] = arrival


def markov_trace_events(
    lines: np.ndarray,
    n_sets: int,
    ways: int,
    table_size: int,
    n_buffers: int,
    hybrid: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Timing-independent replay of the Markov-prefetch state machine.

    Nothing in the engine's cache, correlation-table, or buffer
    *membership* updates reads the clock — arrival cycles are stored but
    only ever become stall cycles — so one replay over the line stream
    yields the sparse event structure every timing point shares.  For
    each cache-miss event: its run index, whether it was a full miss
    (vs. a prefetch-buffer hit), and for buffer hits which earlier event
    issued the prefetch (``source``) and at what queue position
    (``offset``, the engine's back-to-back issue slot).  The buffer
    hit's arrival is then ``now(source) + fill_penalty + offset + 1``
    for any timing, which is what the vectorized kernel replays.
    """
    set_mask = n_sets - 1
    sets_state: list[dict[int, None]] = [dict() for _ in range(n_sets)]
    table: dict[int, int] = {}
    buffer: dict[int, tuple[int, int]] = {}  # line -> (event, offset)
    last_miss: int | None = None

    event_run: list[int] = []
    event_is_miss: list[bool] = []
    event_source: list[int] = []
    event_offset: list[int] = []

    for i, line in enumerate(lines.tolist()):
        cache_set = sets_state[line & set_mask]
        if line in cache_set:
            # contains_line: a pure hit never touches replacement state.
            continue
        entry = buffer.pop(line, None)
        event = len(event_run)
        event_run.append(i)
        if entry is None:
            event_is_miss.append(True)
            event_source.append(-1)
            event_offset.append(0)
        else:
            event_is_miss.append(False)
            event_source.append(entry[0])
            event_offset.append(entry[1])
        # install_line (insert-if-absent; the line just missed, so insert)
        if len(cache_set) >= ways:
            del cache_set[next(iter(cache_set))]
        cache_set[line] = None
        # _learn: record the (previous miss -> this miss) correlation.
        if last_miss is not None and last_miss != line:
            if last_miss in table:
                del table[last_miss]
            elif len(table) >= table_size:
                del table[next(iter(table))]
            table[last_miss] = line
        last_miss = line
        # _predict: queue the successor(s) at back-to-back issue slots.
        targets = []
        predicted = table.get(line)
        if predicted is not None:
            targets.append(predicted)
        if hybrid:
            targets.append(line + 1)
        for offset, target in enumerate(targets):
            if target in sets_state[target & set_mask] or target in buffer:
                continue
            while len(buffer) >= n_buffers:  # _insert
                del buffer[next(iter(buffer))]
            buffer[target] = (event, offset)
    return _event_columns(
        len(lines), event_run, event_is_miss, event_source, event_offset
    )


def markov_trace_events_direct(
    lines: np.ndarray,
    positions: np.ndarray,
    n_sets: int,
    table_size: int,
    n_buffers: int,
    hybrid: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`markov_trace_events` for direct-mapped caches, sparsely.

    A 1-way set installs on every cache miss and never touches
    replacement state on a hit — exactly a demand-fetch cache — so the
    cache-miss ``positions`` are the (memoized) demand miss mask and
    the table/buffer state machine only needs to walk those events,
    with the cache itself a flat array of resident line numbers.
    """
    set_mask = n_sets - 1
    resident = [-1] * n_sets
    table: dict[int, int] = {}
    buffer: dict[int, tuple[int, int]] = {}  # line -> (event, offset)
    last_miss: int | None = None

    n_events = len(positions)
    event_is_miss: list[bool] = []
    event_source: list[int] = []
    event_offset: list[int] = []

    for event, line in enumerate(lines[positions].tolist()):
        entry = buffer.pop(line, None)
        if entry is None:
            event_is_miss.append(True)
            event_source.append(-1)
            event_offset.append(0)
        else:
            event_is_miss.append(False)
            event_source.append(entry[0])
            event_offset.append(entry[1])
        # install_line: the one resident way is simply replaced.
        resident[line & set_mask] = line
        # _learn: record the (previous miss -> this miss) correlation.
        if last_miss is not None and last_miss != line:
            if last_miss in table:
                del table[last_miss]
            elif len(table) >= table_size:
                del table[next(iter(table))]
            table[last_miss] = line
        last_miss = line
        # _predict: queue the successor(s) at back-to-back issue slots.
        predicted = table.get(line)
        if predicted is not None:
            targets = [predicted, line + 1] if hybrid else [predicted]
        elif hybrid:
            targets = [line + 1]
        else:
            continue
        for offset, target in enumerate(targets):
            if resident[target & set_mask] == target or target in buffer:
                continue
            while len(buffer) >= n_buffers:  # _insert
                del buffer[next(iter(buffer))]
            buffer[target] = (event, offset)
    return _event_columns(
        len(lines),
        np.asarray(positions).reshape(n_events),
        event_is_miss,
        event_source,
        event_offset,
    )


def _event_columns(
    n_runs: int, event_run, is_miss, source, offset
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A replay's event columns as the kernel memoizes them: run and
    source indices at the stream's index width, issue slots at the
    narrowest unsigned width (the kernel reads them via ``tolist()``)."""
    index = _index_dtype(n_runs)
    return (
        np.asarray(event_run, dtype=index),
        np.asarray(is_miss, dtype=bool),
        np.asarray(source, dtype=index),
        narrowest_unsigned(offset),
    )
