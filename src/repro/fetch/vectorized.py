"""Vectorized stall-cycle accounting for the fetch mechanisms.

The reference engines in this subpackage walk the run-length-encoded
instruction stream one run at a time in interpreted Python.  That is
the right shape for a ground-truth model, but the paper's payoff sweeps
(Figures 5-7, Tables 6-8) evaluate the *same* stream against dozens of
L2-latency/bandwidth/mechanism points, and the per-run loop made them
orders of magnitude slower than the numpy miss-ratio sweeps.

This module computes :class:`~repro.fetch.engine.FetchResult` from
per-reference miss masks (memoized per stream through
:class:`~repro.caches.vectorized.LineOrderCache`) plus inter-miss gap
arithmetic, without stepping a Python object per line run:

* **demand** / **prefetch** — the stall per counted miss is a constant
  (``fill_penalty``), so the result is closed-form in the miss mask.
* **prefetch+bypass** / **stream-buffer** — stalls depend on inter-miss
  gaps, so the kernels walk *miss events* (plus the few runs inside a
  refill burst window) instead of every run; the bypass kernel walks
  every miss's window at once, one numpy step per window depth.
  Associative and wrap-around bypass geometries, whose cache state
  depends on the timing point, get an exact per-timing replay instead
  of the memoized miss mask.

Every kernel is bit-identical to its reference engine — the same
``(instructions, stall_cycles, misses)`` on any stream — which the
differential tests in ``tests/test_fetch_vectorized.py`` pin across a
grid of timings and geometries.  Every mechanism and geometry of the
Figure 6/7 and Table 6 grids is covered; :func:`unsupported_reason`
names anything that is not (unknown mechanisms, reference-only
options), and the ``engine="auto"`` path falls back to the reference
engines for those.
"""

from __future__ import annotations

import numpy as np

from repro.caches.base import CacheGeometry
from repro.caches.vectorized import (
    LineOrderCache,
    _index_dtype,
    line_order_cache,
)
from repro.core.metrics import DEFAULT_WARMUP_FRACTION, warmup_cut
from repro.fetch.dispatch import MECHANISMS
from repro.fetch.engine import FetchResult
from repro.fetch.timing import MemoryTiming
from repro.trace.rle import LineRuns

__all__ = [
    "supports",
    "unsupported_reason",
    "run_vectorized",
]

#: Options each mechanism's kernel understands; anything else means the
#: caller wants a knob only the reference engine implements.
_MECHANISM_OPTIONS = {
    "demand": frozenset(),
    "prefetch": frozenset({"n_prefetch"}),
    "prefetch+bypass": frozenset({"n_prefetch"}),
    "stream-buffer": frozenset({"n_lines", "refill_on_use", "move_penalty"}),
}


def unsupported_reason(
    geometry: CacheGeometry,
    timing: MemoryTiming,
    mechanism: str,
    options: dict | None = None,
) -> str | None:
    """Why the vectorized kernels do not cover this exact simulation.

    ``None`` means covered.  A reason is a *routing* answer, not an
    error: ``engine="auto"`` falls back to the reference engines for
    anything not covered, and ``engine="vectorized"`` surfaces the
    reason in its :class:`ValueError` so callers know what to change.
    """
    allowed = _MECHANISM_OPTIONS.get(mechanism)
    if allowed is None:
        return (
            f"mechanism {mechanism!r} has no vectorized kernel "
            f"(covered: {', '.join(MECHANISMS)})"
        )
    options = options or {}
    unknown = sorted(set(options) - allowed)
    if unknown:
        return (
            f"option(s) {', '.join(map(repr, unknown))} of mechanism "
            f"{mechanism!r} are not understood by its vectorized kernel "
            f"(known: {', '.join(sorted(allowed)) or 'none'})"
        )
    return None


def supports(
    geometry: CacheGeometry,
    timing: MemoryTiming,
    mechanism: str,
    options: dict | None = None,
) -> bool:
    """Whether the vectorized kernels cover this exact simulation.

    Every mechanism and geometry of the paper grids is covered; see
    :func:`unsupported_reason` for what is not and why.
    """
    return unsupported_reason(geometry, timing, mechanism, options) is None


def run_vectorized(
    runs: LineRuns,
    geometry: CacheGeometry,
    timing: MemoryTiming,
    mechanism: str = "demand",
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
    **options,
) -> FetchResult:
    """Compute one mechanism's :class:`FetchResult` without an engine.

    Raises :class:`ValueError` when ``supports()`` is false for the
    combination — callers wanting automatic fallback should check
    ``supports`` first (that is what ``engine="auto"`` does).
    """
    if runs.line_size != geometry.line_size:
        raise ValueError(
            f"stream encoded at {runs.line_size} B lines cannot drive "
            f"an engine with {geometry.line_size} B lines; "
            "re-encode with to_line_runs()"
        )
    reason = unsupported_reason(geometry, timing, mechanism, options)
    if reason is not None:
        raise ValueError(
            f"engine='vectorized' cannot run mechanism {mechanism!r} "
            f"with options {{{', '.join(sorted(options))}}} on "
            f"{geometry.describe()}: {reason}; "
            "use engine='reference' or engine='auto'"
        )
    cut, instructions = warmup_cut(runs, warmup_fraction)
    if mechanism == "demand":
        mask = _demand_mask(runs, geometry)
        penalty = timing.fill_penalty(geometry.line_size)
        return _counting_result(mask, penalty, cut, instructions)
    if mechanism == "prefetch":
        n_prefetch = _check_depth(options.get("n_prefetch", 1))
        mask = _prefetch_mask(runs, geometry, n_prefetch)
        penalty = timing.fill_penalty(geometry.line_size * (n_prefetch + 1))
        return _counting_result(mask, penalty, cut, instructions)
    if mechanism == "prefetch+bypass":
        n_prefetch = _check_depth(options.get("n_prefetch", 0))
        return _bypass_result(
            runs, geometry, timing, n_prefetch, cut, instructions
        )
    # supports() admitted it, so this is the stream buffer.
    n_lines = options.get("n_lines", 6)
    if n_lines < 0:
        raise ValueError(f"n_lines must be >= 0, got {n_lines}")
    move_penalty = options.get("move_penalty", 0)
    if move_penalty < 0:
        raise ValueError(f"move_penalty must be >= 0, got {move_penalty}")
    return _stream_buffer_result(
        runs,
        geometry,
        timing,
        n_lines,
        bool(options.get("refill_on_use", False)),
        move_penalty,
        cut,
        instructions,
    )


def _check_depth(n_prefetch: int) -> int:
    if n_prefetch < 0:
        raise ValueError(f"n_prefetch must be >= 0, got {n_prefetch}")
    return n_prefetch


def _counting_result(
    mask: np.ndarray, penalty: int, cut: int, instructions: int
) -> FetchResult:
    """Constant-stall mechanisms are closed-form in the miss mask."""
    misses = int(mask[cut:].sum())
    return FetchResult(
        instructions=instructions,
        stall_cycles=misses * penalty,
        misses=misses,
    )


# -- miss masks (memoized per stream) ----------------------------------


def _mask_shape(geometry: CacheGeometry) -> tuple[int, int]:
    """(n_sets, associativity) in miss_mask_set_associative's convention
    (fully associative caches pass capacity with associativity 0)."""
    if geometry.associativity == 0:
        return geometry.n_lines, 0
    return geometry.n_sets, geometry.associativity


def _demand_mask(runs: LineRuns, geometry: CacheGeometry) -> np.ndarray:
    n_sets, associativity = _mask_shape(geometry)
    return line_order_cache(runs.lines).miss_mask(n_sets, associativity)


def _miss_positions(cache: LineOrderCache, mask_key, mask) -> np.ndarray:
    return cache.memo(
        ("nz",) + mask_key,
        lambda: np.flatnonzero(mask).astype(_index_dtype(len(mask))),
    )


def _prefetch_mask(
    runs: LineRuns, geometry: CacheGeometry, n_prefetch: int
) -> np.ndarray:
    """Miss mask of an LRU cache with N-line sequential install-on-miss.

    Computed once per (stream, shape, depth) — installs feed back into
    the miss sequence, so unlike the demand mask this needs one exact
    replay; every timing point then reuses it.  With no installs
    (depth 0, the ``prefetch+bypass`` default) the replay is plain LRU,
    so the memoized demand mask is the answer.
    """
    if n_prefetch == 0:
        return _demand_mask(runs, geometry)
    cache = line_order_cache(runs.lines)
    n_sets, ways = geometry.n_sets, geometry.ways
    return cache.memo(
        ("prefetch-mask", n_sets, ways, n_prefetch),
        lambda: _prefetch_mask_compute(cache.lines, n_sets, ways, n_prefetch),
    )


def _prefetch_mask_compute(
    lines: np.ndarray, n_sets: int, ways: int, n_prefetch: int
) -> np.ndarray:
    miss = np.ones(len(lines), dtype=bool)
    set_mask = n_sets - 1
    sets_state: list[dict[int, None]] = [dict() for _ in range(n_sets)]
    for i, line in enumerate(lines.tolist()):
        cache_set = sets_state[line & set_mask]
        if line in cache_set:
            del cache_set[line]
            cache_set[line] = None  # LRU refresh
            miss[i] = False
            continue
        if len(cache_set) >= ways:
            del cache_set[next(iter(cache_set))]
        cache_set[line] = None
        for distance in range(1, n_prefetch + 1):
            prefetched = line + distance
            target = sets_state[prefetched & set_mask]
            if prefetched not in target:  # install_line: no LRU touch
                if len(target) >= ways:
                    del target[next(iter(target))]
                target[prefetched] = None
    miss.setflags(write=False)
    return miss


def _run_starts(runs: LineRuns) -> np.ndarray:
    """Instruction count preceding each run (time base with no stalls)."""
    starts = np.cumsum(runs.counts, dtype=np.int64)
    starts -= runs.counts
    return starts


# -- prefetch with bypass buffers --------------------------------------


def _bypass_result(
    runs: LineRuns,
    geometry: CacheGeometry,
    timing: MemoryTiming,
    n_prefetch: int,
    cut: int,
    instructions: int,
) -> FetchResult:
    """Sparse replay of the bypass engine over miss events.

    On direct-mapped geometries with no index wrap-around, cache
    contents match sequential prefetch-on-miss exactly, so the memoized
    prefetch mask gives the miss sequence and this kernel only walks
    the few runs inside each refill burst window, all windows in step.
    Associative caches (buffer hits skip the LRU update, so replacement
    state depends on the timing point) and bursts that wrap the index
    (a prefetch can evict its own burst's lines, making in-window
    buffer hits diverge from any timing-free mask) take the exact
    per-timing replay, :func:`_bypass_replay_result`, which covers
    direct-mapped caches as 1-way sets.
    """
    if geometry.associativity != 1 or geometry.n_sets <= n_prefetch:
        return _bypass_replay_result(
            runs, geometry, timing, n_prefetch, cut, instructions
        )
    cache = line_order_cache(runs.lines)
    mask = _prefetch_mask(runs, geometry, n_prefetch)
    positions = _miss_positions(
        cache, ("prefetch-mask", geometry.n_sets, geometry.ways, n_prefetch),
        mask,
    )
    misses = int(mask[cut:].sum())
    if len(positions) == 0:
        return FetchResult(instructions, 0, 0)

    lines = runs.lines
    counts = runs.counts
    n_runs = len(runs)
    burst = timing.fill_penalty(geometry.line_size * (n_prefetch + 1))
    fills = np.array(
        [
            timing.fill_penalty(geometry.line_size * (d + 1))
            for d in range(n_prefetch + 1)
        ],
        dtype=np.int64,
    )
    # Every miss opens a refill burst window, fresh or chained off an
    # earlier window, and what happens inside it depends only on times
    # relative to the miss: its stall, the buffers' arrival times and
    # the busy horizon ``burst``.  So every miss's window is walked at
    # once, one numpy step per window depth, and the misses the replay
    # actually opens a window at are picked out afterwards.  ``rel`` is
    # a live window's next run's start relative to its miss.
    stall = timing.latency + (
        runs.first_offsets[positions].astype(np.int64)
        // timing.bytes_per_cycle
    )
    stalls = np.where(positions >= cut, stall, 0)
    resume = np.full(len(positions), n_runs, dtype=np.int64)
    live = np.arange(len(positions))
    j = positions.astype(np.int64) + 1
    rel = stall + counts[positions]
    # Line distances are signed and taken in int64, whatever the
    # stream's width (a uint32 difference would wrap below zero).
    base = lines[positions].astype(np.int64)
    while len(live):
        inside = (j < n_runs) & (rel <= burst)
        # A window ends at its first run past the busy horizon.
        resume[live[~inside]] = j[~inside]
        live, j, rel, base = live[inside], j[inside], rel[inside], base[inside]
        d = lines[j].astype(np.int64)
        d -= base
        buffered = (d >= 0) & (d <= n_prefetch)
        # A buffered line waits for its beat of the burst; anything else
        # waits out the whole refill.
        wait = np.where(
            buffered,
            np.maximum(fills[np.where(buffered, d, 0)] - rel, 0),
            burst - rel + 1,
        )
        stalls[live] += np.where(j >= cut, wait, 0)
        # A further miss outside the buffers restarts the burst there.
        chained = ~buffered & mask[j]
        resume[live[chained]] = j[chained]
        rel += wait + counts[j]
        j += 1
        kept = ~chained
        live, j, rel, base = live[kept], j[kept], rel[kept], base[kept]
    # The replay opens a window at the first miss, then at the chained
    # miss or the first miss at or past the window's end; hits outside
    # a busy window are free.
    follow = np.searchsorted(positions, resume).tolist()
    window_stalls = stalls.tolist()
    total = k = 0
    while k < len(positions):
        total += window_stalls[k]
        k = follow[k]
    return FetchResult(instructions, total, misses)


def _bypass_replay_result(
    runs: LineRuns,
    geometry: CacheGeometry,
    timing: MemoryTiming,
    n_prefetch: int,
    cut: int,
    instructions: int,
) -> FetchResult:
    """Exact per-timing replay of the bypass engine (hard geometries).

    For associative caches and index-wrapping bursts the cache state
    itself depends on *when* each run executes (in-window buffer hits
    skip the LRU touch), so no timing-independent mask exists.  This
    replay mirrors :class:`PrefetchBypassEngine` run-for-run on plain
    dicts — covering the corners the sparse kernel cannot, at reference
    asymptotics but without the per-run object machinery.  A
    direct-mapped cache with a burst that wraps the index is the 1-way
    case of the same replay: its LRU refresh is a no-op, and the
    install order (demand line first, then prefetch distances
    ascending) evicts exactly the engine's lines.
    """
    n_sets = geometry.n_sets
    ways = geometry.ways
    set_mask = n_sets - 1
    sets_state: list[dict[int, None]] = [dict() for _ in range(n_sets)]
    latency = timing.latency
    bandwidth = timing.bytes_per_cycle
    line_size = geometry.line_size
    burst = timing.fill_penalty(line_size * (n_prefetch + 1))
    fills = [
        timing.fill_penalty(line_size * (d + 1)) for d in range(n_prefetch + 1)
    ]

    # The buffers hold the contiguous burst [base_line, base_line + N]:
    # membership and arrival are arithmetic off the base line (only
    # consulted inside a busy window, i.e. after at least one miss).
    base_line = 0
    base_at = 0
    busy_until = -1
    now = 0
    stalls = 0
    misses = 0
    lines = runs.lines.tolist()
    counts = runs.counts.tolist()
    offsets = runs.first_offsets.tolist()
    for i, line in enumerate(lines):
        missed = False
        wait = 0
        bypassed = False
        if now <= busy_until:
            d = line - base_line
            if 0 <= d <= n_prefetch:
                # Fetching from a bypass buffer: no cache access at all.
                ready = base_at + fills[d]
                stall = ready - now if ready > now else 0
                bypassed = True
            else:
                # Not in the buffers: wait out the refill, then demand.
                wait = busy_until - now + 1
        if not bypassed:
            at = now + wait
            cache_set = sets_state[line & set_mask]
            if line in cache_set:
                del cache_set[line]
                cache_set[line] = None  # access_line: LRU refresh
                stall = wait
            else:
                missed = True
                if len(cache_set) >= ways:
                    del cache_set[next(iter(cache_set))]
                cache_set[line] = None
                # Resume as soon as the missing word arrives.
                stall = wait + latency + offsets[i] // bandwidth
                base_line = line
                base_at = at
                for distance in range(1, n_prefetch + 1):
                    prefetched = line + distance
                    # install_line: insert-if-absent, no LRU touch.
                    target = sets_state[prefetched & set_mask]
                    if prefetched not in target:
                        if len(target) >= ways:
                            del target[next(iter(target))]
                        target[prefetched] = None
                busy_until = at + burst
        if i >= cut:
            stalls += stall
            if missed:
                misses += 1
        now += stall + counts[i]
    return FetchResult(instructions, stalls, misses)


# -- pipelined stream buffers ------------------------------------------


def _stream_buffer_result(
    runs: LineRuns,
    geometry: CacheGeometry,
    timing: MemoryTiming,
    n_lines: int,
    refill_on_use: bool,
    move_penalty: int,
    cut: int,
    instructions: int,
) -> FetchResult:
    """Sparse replay of the stream-buffer engine over cache-miss events.

    The engine consults its buffer only when the I-cache misses, and its
    cache updates are identical to demand fetch, so the demand miss mask
    gives the event positions and the kernel replays buffer state (and
    flight-time stalls) at those events alone.
    """
    cache = line_order_cache(runs.lines)
    mask = _demand_mask(runs, geometry)
    positions = _miss_positions(cache, _mask_shape(geometry), mask)
    if len(positions) == 0:
        return FetchResult(instructions, 0, 0)

    starts = _run_starts(runs)
    event_base = starts[positions].tolist()
    event_lines = runs.lines[positions].tolist()
    position_list = positions.tolist()
    # Interface occupancy of one line: the pipelined L2 accepts a new
    # request every `beats` cycles (1 in Table 8's matched case).
    beats = -(-geometry.line_size // timing.bytes_per_cycle)
    fill = timing.fill_penalty(geometry.line_size)

    buffer: dict[int, int] = {}  # line -> arrival cycle, oldest first
    next_prefetch = -1
    last_issue = -1
    extra = 0
    stalls = 0
    misses = 0
    for event, p in enumerate(position_list):
        now = event_base[event] + extra
        line = event_lines[event]
        arrival = buffer.pop(line, None)
        if arrival is not None:
            stall = (arrival - now if arrival > now else 0) + move_penalty
            missed = False
            if refill_on_use and n_lines > 0:
                # Extend the stream by one line (refill-on-use).
                issue = now if now > last_issue + beats else last_issue + beats
                if next_prefetch in buffer:
                    del buffer[next_prefetch]
                while len(buffer) >= n_lines:
                    del buffer[next(iter(buffer))]
                buffer[next_prefetch] = issue + fill
                next_prefetch += 1
                last_issue = issue
        else:
            # Miss in both: the restarted stream's n_lines requests are
            # exactly the buffer's capacity, so they define its content.
            buffer.clear()
            first_arrival = now + beats + fill
            for distance in range(n_lines):
                buffer[line + 1 + distance] = first_arrival + distance * beats
            next_prefetch = line + 1 + n_lines
            last_issue = now + n_lines * beats
            stall = fill
            missed = True
        if p >= cut:
            stalls += stall
            if missed:
                misses += 1
        extra += stall
    return FetchResult(instructions, stalls, misses)
