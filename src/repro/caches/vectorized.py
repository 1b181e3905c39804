"""Vectorized cache miss counting over numpy address columns.

The design-space sweeps in the paper (Figures 1, 3, 4 and the line-size
and bandwidth studies) need miss counts for hundreds of cache
configurations over multi-million-reference traces.  These functions
compute per-reference miss masks without simulating cache state one
Python object at a time:

* direct-mapped: a reference hits iff the previous reference to the same
  set carried the same tag — computable with one stable sort.
* set-associative LRU: a reference hits iff fewer than
  ``associativity`` distinct lines of its set intervened since its
  previous occurrence.
* fully-associative LRU: the same question over the whole stream, with
  the capacity as the bound.

Both LRU questions are small thresholds, so the masks come from bounded
queries (:func:`_bounded_miss_masks`), not from exact stack distances.
A reference whose gap to its previous occurrence is shorter than the
bound hits outright; only the long-gap references are counted, by a
vectorized backward scan of their windows that stops at the bound.
Every bound of one set grouping shares one previous/next-occurrence
pass, built from the stream's one memoized sort, and only the masks are
memoized.

Exact stack distances (:func:`lru_stack_distances`,
:meth:`LineOrderCache.stack_distances`) remain as the differential
oracle for the masks.  They are computed offline and fully vectorized
(no Python per-reference loop): a reference's distance is the count of
distinct lines in the window back to its previous occurrence, which
reduces to counting the occurrence-gap intervals nested strictly inside
the window's own gap interval — a 2D dominance count solved by an
MSD-radix divide and conquer made of cumulative sums and stable
partitions (see :func:`_count_smaller_to_right`).

All functions take *line numbers* (byte address >> log2(line_size)); use
:meth:`repro.trace.Trace.line_addresses` or :func:`repro.trace.to_line_runs`
to produce them.
"""

from __future__ import annotations

import os
import threading
import weakref

import numpy as np

from repro._util.validate import check_power_of_two


class LineOrderCache:
    """Memoized per-configuration derived views of one line array.

    The miss masks and the compulsory-miss mask each need a full stable
    sort of the line stream, and design-space sweeps (Figures 1, 3, 4;
    the bandwidth studies) re-request them for the same stream over and
    over — the sorts dominated sweep time.  This cache computes the
    by-line order once per line array and memoizes the masks answered
    from it (each LRU mask a bounded query, see :meth:`miss_masks`) and
    the first-touch mask.  Exact stack distances
    (:meth:`stack_distances`) are the masks' oracle only; no mask reads
    them.

    Obtain instances through :func:`line_order_cache`, which keeps a
    registry keyed by array identity so independent sweeps over the same
    stream share one cache.  A registered cache holds its stream only
    weakly: the memo lives exactly as long as the stream does.
    """

    def __init__(self, lines: np.ndarray, weak: bool = False):
        if weak:
            self._lines = weakref.ref(lines)
        else:
            strong = _line_array(lines)
            self._lines = lambda: strong
        self._memo: dict = {}
        #: Approximate bytes held by memoized artifacts.  The line array
        #: itself is not charged: the memo never keeps it alive.
        self.memo_bytes = 0
        #: Drops the registry entry when the stream dies; set while the
        #: cache is registered (see :func:`line_order_cache`).
        self._finalizer: weakref.finalize | None = None

    @property
    def lines(self) -> np.ndarray:
        """The memoized stream; callers must keep a registered one alive."""
        lines = self._lines()
        if lines is None:
            raise ReferenceError("the memoized line stream was freed")
        return lines

    def memo(self, key, compute):
        """Memoize ``compute()`` under ``key`` for this line array.

        The generic extension point behind the derived-artifact caches:
        miss masks, coarsened views, and the fetch-timing kernels'
        mechanism state all key their per-stream results here, so one
        stream's artifacts are computed once no matter how many sweep
        points revisit it.  Memoized values must not reference the
        stream itself, or it could never be freed.
        """
        value = self._memo.get(key)
        if value is None:
            value = compute()
            nbytes = _value_nbytes(value)
            with _order_cache_lock:
                existing = self._memo.get(key)
                if existing is not None:  # another thread won the race
                    return existing
                self._memo[key] = value
                self.memo_bytes += nbytes
                if self._finalizer is not None:
                    _charge_order_cache(nbytes)
        return value

    def coarsened(self, shift: int) -> np.ndarray:
        """``lines >> shift``, memoized (identity-preserving at 0).

        Returning one stable array object per shift lets downstream
        per-array caches (this registry included) recognize repeated
        sweeps over the same coarsened stream.  The view keeps the
        stream's dtype (a shift by a ``uint64`` scalar would widen a
        ``uint32`` stream).
        """
        if shift == 0:
            return self.lines

        def compute() -> np.ndarray:
            lines = self.lines
            return lines >> lines.dtype.type(shift)

        return self.memo(("coarsen", shift), compute)

    def miss_mask(self, n_sets: int, associativity: int) -> np.ndarray:
        """Memoized per-reference LRU miss mask of one cache shape."""
        shape = (n_sets, associativity)
        return self.miss_masks([shape])[shape]

    def miss_masks(
        self, shapes: list[tuple[int, int]]
    ) -> dict[tuple[int, int], np.ndarray]:
        """Memoized miss masks for many cache shapes in one pass.

        ``shapes`` are ``(n_sets, associativity)`` pairs in
        :func:`miss_mask_set_associative`'s convention (fully
        associative passes capacity with associativity 0).  Shapes
        sharing a grouping — the same set count, or any
        fully-associative capacity — share one previous/next-occurrence
        pass and one bounded scan (:func:`_bounded_miss_masks`): a
        reference misses a shape iff at least ``ways`` distinct lines of
        its group intervened since its previous occurrence (or it is a
        first touch), and counting up to the largest bound answers every
        smaller one.  A set count requested only direct-mapped keeps the
        cheaper sort-based path.  Only the masks are memoized, each
        under its ``("miss-mask", n_sets, associativity)`` key.
        """
        unique = list(dict.fromkeys((int(n), int(a)) for n, a in shapes))
        out: dict[tuple[int, int], np.ndarray] = {}
        # grouping (set count; 1 = whole stream) -> members as
        # (shape, miss bound on the group-local distinct-line count)
        groups: dict[int, list[tuple[tuple[int, int], int]]] = {}
        for shape in unique:
            n_sets, associativity = shape
            cached = self._memo.get(("miss-mask",) + shape)
            if cached is not None:
                out[shape] = cached
            elif associativity == 0:
                groups.setdefault(1, []).append((shape, n_sets))
            else:
                check_power_of_two("n_sets", n_sets)
                groups.setdefault(n_sets, []).append((shape, associativity))
        for group_sets, members in groups.items():
            if group_sets > 1 and all(t == 1 for _, t in members):
                for shape, _ in members:
                    out[shape] = self.memo(
                        ("miss-mask",) + shape,
                        lambda n=group_sets: _read_only(
                            miss_mask_direct_mapped(self.lines, n)
                        ),
                    )
                continue
            masks = self._bounded_masks(
                group_sets, sorted({t for _, t in members})
            )
            for shape, bound in members:
                out[shape] = self.memo(
                    ("miss-mask",) + shape, lambda m=masks[bound]: m
                )
        return out

    def _bounded_masks(
        self, n_sets: int, bounds: list[int]
    ) -> dict[int, np.ndarray]:
        """LRU miss masks of one ``n_sets`` grouping at several bounds.

        Not memoized: the grouping and its previous/next-occurrence
        arrays are transient, and :meth:`miss_masks` keeps the masks.
        """
        order, prev, nxt = _grouped_links(self.lines, n_sets, self.by_line())
        grouped = _bounded_miss_masks(prev, nxt, bounds)
        del prev, nxt
        masks = {}
        for bound, mask in zip(bounds, grouped):
            masks[bound] = _read_only(_ungrouped(order, mask))
        return masks

    def by_line(self) -> np.ndarray:
        """Memoized stable argsort of the stream by line number.

        The one full sort every set grouping shares: a line
        maps to exactly one set at any set count, so a grouped stream's
        by-line order is this global order re-indexed through the
        grouping permutation (two O(n) gathers) instead of a fresh
        O(n log n) sort per set count.  Stored as int32 when the stream
        is shorter than 2**31.
        """
        def compute() -> np.ndarray:
            lines = self.lines
            order = np.argsort(lines, kind="stable").astype(
                _index_dtype(len(lines)), copy=False
            )
            order.setflags(write=False)  # shared between callers
            return order

        return self.memo(("by-line",), compute)

    def order(self, n_sets: int) -> np.ndarray:
        """Stable argsort of the stream grouped by ``n_sets``-set index.

        Not memoized: the masks built from it are, and nothing else
        reads the permutation.
        """
        return _set_order(self.lines, n_sets)

    def compulsory(self) -> np.ndarray:
        """Memoized first-touch mask of the stream."""
        def compute() -> np.ndarray:
            lines = self.lines
            mask = np.zeros(len(lines), dtype=bool)
            if len(lines):
                _, first_indices = np.unique(lines, return_index=True)
                mask[first_indices] = True
            mask.setflags(write=False)  # shared between callers
            return mask

        return self.memo(("compulsory",), compute)

    def stack_distances(self, n_sets: int = 1) -> np.ndarray:
        """Memoized exact LRU stack distances, grouped by ``n_sets`` sets.

        ``n_sets == 1`` gives whole-stream distances (fully-associative
        behaviour); larger values give each reference's distance within
        its own set's substream.  The differential oracle of the
        bounded masks: ``(d < 0) | (d >= ways)`` is what
        :meth:`miss_mask` must return, but no mask path calls this.
        Stored as int32 when the stream is shorter than 2**31.
        """
        def compute() -> np.ndarray:
            distances = _grouped_stack_distances(
                self.lines, n_sets, self.by_line()
            )
            distances.setflags(write=False)  # shared between callers
            return distances

        return self.memo(("stack-distances", n_sets), compute)


def _index_dtype(n: int) -> type:
    """The narrowest signed dtype holding every index (and ``n``) of a
    length-``n`` stream."""
    return np.int32 if n < 2**31 else np.int64


def _set_order(lines: np.ndarray, n_sets: int) -> np.ndarray:
    """Stable argsort of ``lines`` by their ``n_sets``-set index.

    The index is sorted at the narrowest unsigned width that holds it,
    which puts numpy on its radix path; a stable sort by identical keys
    is unique, so the permutation does not depend on the width.  The
    index is cut from the lines at that width (a power-of-two set count
    keeps only low bits, which the cast keeps), so no full-width copy
    of the stream is made.
    """
    key_dtype = (
        np.uint16 if n_sets <= 1 << 16
        else np.uint32 if n_sets <= 1 << 32
        else np.uint64
    )
    sets = lines.astype(key_dtype)
    sets &= key_dtype(n_sets - 1)
    return np.argsort(sets, kind="stable")


#: The widths a line stream is held at (see ``LineRuns``).
_LINE_DTYPES = (np.dtype(np.uint32), np.dtype(np.uint64))


def _held_width(lines) -> bool:
    """Whether ``lines`` is an array at a width a stream is held at."""
    return isinstance(lines, np.ndarray) and lines.dtype in _LINE_DTYPES


def _line_array(lines) -> np.ndarray:
    """``lines`` as it is when it is held at a stream's width (a
    :class:`~repro.trace.rle.LineRuns` column or a coarsened view of
    one), else as a ``uint64`` array."""
    return lines if _held_width(lines) else np.asarray(lines, np.uint64)


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array``, frozen: memoized masks are shared between callers."""
    array.setflags(write=False)
    return array


def _grouped_links(
    lines: np.ndarray, n_sets: int, by_line: np.ndarray
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Set-grouped stream order plus its previous/next-occurrence arrays.

    Returns ``(order, prev, nxt)``: ``order`` is the stable grouping
    permutation (``None`` for one set, where the stream is its own
    grouping), and ``prev``/``nxt`` index the grouped stream (see
    :func:`_occurrence_links`).  ``by_line`` is the stream's stable
    by-line argsort; a line belongs to one set, so the grouped stream's
    by-line order is that one re-indexed through the grouping — no
    second sort.
    """
    n = len(lines)
    index = by_line.dtype
    repeats = _repeat_slots(lines[by_line])
    if n_sets == 1:
        return (None,) + _occurrence_links(repeats, by_line)
    order = _set_order(lines, n_sets).astype(index, copy=False)
    inverse = np.empty(n, dtype=index)
    inverse[order] = np.arange(n, dtype=index)
    return (order,) + _occurrence_links(repeats, inverse[by_line])


def _ungrouped(order: np.ndarray | None, values: np.ndarray) -> np.ndarray:
    """Per-position ``values`` of a grouped stream, back in trace order."""
    if order is None:
        return values
    out = np.empty_like(values)
    out[order] = values
    return out


def _repeat_slots(sorted_lines: np.ndarray) -> np.ndarray:
    """Slots ``s`` of a by-line sorted stream whose line repeats at ``s + 1``."""
    repeats = np.flatnonzero(sorted_lines[1:] == sorted_lines[:-1])
    return repeats.astype(_index_dtype(len(sorted_lines)), copy=False)


def _occurrence_links(
    repeats: np.ndarray, by_line: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Previous and next same-line position of every stream position.

    ``by_line`` is the stream's stable by-line argsort and ``repeats``
    its :func:`_repeat_slots`.  ``prev`` is ``-1`` and ``nxt`` is ``n``
    where there is none.  A line maps to exactly one group of a set
    grouping, so same-line adjacency in the sorted view never crosses
    groups.
    """
    n = len(by_line)
    index = _index_dtype(n)
    later = by_line[repeats + 1]
    earlier = by_line[repeats]
    prev = np.full(n, -1, dtype=index)
    prev[later] = earlier
    nxt = np.full(n, n, dtype=index)
    nxt[earlier] = later
    return prev, nxt


#: The bounded scan's step shape.  Each numpy step examines at least
#: ``_SCAN_WIDTH`` window positions of every active reference (one step
#: settles a miss at a 64-entry bound) and at most ``_SCAN_CELLS``
#: (reference, position) cells in all, which caps the step's transient
#: arrays at a few hundred KB; fewer active references get a
#: proportionally wider window.
_SCAN_WIDTH = 64
_SCAN_CELLS = 1 << 16


def _bounded_miss_masks(
    prev: np.ndarray, nxt: np.ndarray, bounds: list[int]
) -> list[np.ndarray]:
    """LRU miss masks at each bound, without exact stack distances.

    ``prev``/``nxt`` are one grouped stream's occurrence links
    (:func:`_occurrence_links`); masks come back in the same grouped
    order, one per bound.  A first touch misses.  A reference whose gap
    ``i - p - 1`` to its previous occurrence is below a bound hits it,
    since its distance is at most its gap.  Only the long-gap
    references are counted, each up to the largest bound, which
    answers every smaller one too (see :func:`_capped_window_counts`).
    """
    n = len(prev)
    first = prev < 0
    gap = np.arange(-1, n - 1, dtype=prev.dtype)
    gap -= prev
    long = np.flatnonzero(~first & (gap >= min(bounds))).astype(
        prev.dtype, copy=False
    )
    del gap
    counts = _capped_window_counts(long, prev[long], nxt, max(bounds))
    masks = []
    for bound in bounds:
        mask = first.copy()
        mask[long] = counts >= bound
        masks.append(mask)
    return masks


def _capped_window_counts(
    i: np.ndarray, p: np.ndarray, nxt: np.ndarray, bound: int
) -> np.ndarray:
    """Distinct-line counts of the windows ``(p, i)``, capped at ``bound``.

    The distinct lines of a window are its positions ``j`` whose next
    occurrence ``nxt[j]`` is at or past ``i`` (each line's last use in
    the window).  Every window is scanned backwards from ``i - 1`` in
    steps of many positions, all active windows together, and leaves
    the scan as soon as its count reaches ``bound`` or its window is
    exhausted.  Each returned count is exact below ``bound`` and at
    least ``bound`` otherwise.  Active windows are topped up from the
    queue after each step, so the step stays full while long windows
    walk.  A position is scanned only by windows whose part after it
    holds fewer than ``bound`` distinct lines, which are at most
    ``bound`` windows, so the scan is ``O(bound * n)`` at worst.
    """
    m = len(i)
    index = nxt.dtype
    counts = np.zeros(m, dtype=index)
    if m == 0 or bound <= 0:
        return counts
    rows = _SCAN_CELLS // _SCAN_WIDTH
    active = np.zeros(0, dtype=index)  # query ids
    hi = np.zeros(0, dtype=index)  # newest unscanned position
    seen = np.zeros(0, dtype=index)  # distinct lines counted so far
    admitted = 0
    while admitted < m or len(active):
        if admitted < m and len(active) < rows:
            new = np.arange(
                admitted, min(m, admitted + rows - len(active)), dtype=index
            )
            admitted += len(new)
            active = np.concatenate([active, new])
            hi = np.concatenate([hi, i[new] - 1])
            seen = np.concatenate([seen, np.zeros(len(new), dtype=index)])
        lo = p[active]
        width = min(
            max(_SCAN_WIDTH, _SCAN_CELLS // len(active)),
            int((hi - lo).max()),
        )
        cells = hi[:, None] - np.arange(width, dtype=index)
        inside = cells > lo[:, None]
        np.maximum(cells, 0, out=cells)
        last_use = nxt[cells] >= i[active][:, None]
        last_use &= inside
        seen += last_use.sum(axis=1, dtype=index)
        hi -= width
        done = (seen >= bound) | (hi <= lo)
        counts[active[done]] = seen[done]
        keep = ~done
        active, hi, seen = active[keep], hi[keep], seen[keep]
    return counts


def _value_nbytes(value) -> int:
    """Approximate bytes of a memoized artifact (arrays, containers)."""
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, (tuple, list)):
        return sum(_value_nbytes(item) for item in value)
    if isinstance(value, dict):
        return sum(_value_nbytes(item) for item in value.values())
    return 0


#: Registry of :class:`LineOrderCache` instances, keyed by the identity
#: of the line array.  The registry holds each stream only weakly: a
#: ``weakref.finalize`` on the array drops its entry when the array
#: dies, which is also what makes the ``id`` key safe — an entry is
#: gone before its id can be reused.  Streams the trace cache owns keep
#: their memos as long as the trace lives; transient streams free theirs
#: on return.  Access order doubles as the eviction order (LRU) under
#: the one hard cap, the total bytes of memoized artifacts, so a
#: long-running ``repro serve`` process cannot grow it without limit.
#: Finalizers fire on whichever thread drops a stream's last reference,
#: so every change to the registry holds the (re-entrant) lock.
_ORDER_CACHE_MAX_BYTES = 1 << 30
_order_caches: dict[int, LineOrderCache] = {}
_order_cache_lock = threading.RLock()
_order_cache_bytes = 0
_order_cache_max_bytes = _ORDER_CACHE_MAX_BYTES
_order_cache_evictions = 0


def _reset_order_cache_lock() -> None:
    # A fork child inherits the lock in whatever state another thread
    # of the parent held it; start the child with a fresh one.
    global _order_cache_lock
    _order_cache_lock = threading.RLock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_order_cache_lock)


def _charge_order_cache(nbytes: int) -> None:
    """Add a registered cache's new artifact to the total; enforce the cap."""
    global _order_cache_bytes
    _order_cache_bytes += nbytes
    _enforce_order_cache_budget()


def _unregister(key: int) -> None:
    """Remove one entry and its bytes; the caller holds the lock."""
    global _order_cache_bytes
    cache = _order_caches.pop(key)
    cache._finalizer.detach()
    cache._finalizer = None
    _order_cache_bytes -= cache.memo_bytes


def _forget(key: int, cache: LineOrderCache) -> None:
    """Finalizer of a registered stream: drop its entry."""
    with _order_cache_lock:
        if _order_caches.get(key) is cache:
            _unregister(key)


def _enforce_order_cache_budget() -> None:
    """Evict least-recently-used entries past the byte budget.

    The caller holds the lock.  At least one entry always survives: the
    active stream's artifacts may legitimately exceed the budget on
    their own, and evicting them would only force an immediate
    recompute.
    """
    global _order_cache_evictions
    while len(_order_caches) > 1 and (
        _order_cache_bytes > _order_cache_max_bytes
    ):
        _unregister(next(iter(_order_caches)))
        _order_cache_evictions += 1


def line_order_cache(lines: np.ndarray) -> LineOrderCache:
    """The shared :class:`LineOrderCache` for ``lines``.

    Caching is by object identity: passing an equal-but-distinct array
    creates a fresh cache entry, so callers that want reuse must pass
    the *same* array object — which the registry's trace cache and
    :class:`~repro.trace.trace.Trace` memoization already arrange.
    ``uint32`` and ``uint64`` arrays, the widths a line stream is held
    at, are registered as they are; anything else gets a private cache
    over its ``uint64`` copy, which no later caller can share.
    """
    if not _held_width(lines):
        return LineOrderCache(lines)
    key = id(lines)
    with _order_cache_lock:
        cache = _order_caches.get(key)
        if cache is not None:
            # Move-to-end keeps dict order = LRU order.
            del _order_caches[key]
            _order_caches[key] = cache
            return cache
        cache = LineOrderCache(lines, weak=True)
        cache._finalizer = weakref.finalize(lines, _forget, key, cache)
        cache._finalizer.atexit = False
        _order_caches[key] = cache
    return cache


def configure_order_cache(max_bytes: int) -> None:
    """Set the byte budget (evicting down to it immediately)."""
    global _order_cache_max_bytes
    if max_bytes <= 0:
        raise ValueError(f"max_bytes must be positive, got {max_bytes}")
    with _order_cache_lock:
        _order_cache_max_bytes = max_bytes
        _enforce_order_cache_budget()


def order_cache_stats() -> dict[str, int]:
    """Entry count, memoized bytes, evictions, and the byte budget.

    ``evictions`` counts process-lifetime budget evictions — a rising
    rate means streams are cycling through the memo faster than sweeps
    reuse them.  The serving tier exports all of these as gauges (and
    ``repro cache info`` prints them) so operators can watch the memo
    instead of discovering it through process growth.
    """
    return {  # plain reads: safe without the lock (and in fork hooks)
        "entries": len(_order_caches),
        "bytes": _order_cache_bytes,
        "evictions": _order_cache_evictions,
        "max_bytes": _order_cache_max_bytes,
    }


def clear_order_caches() -> None:
    """Drop every memo entry and reset the eviction count (tests use
    this for isolation)."""
    global _order_cache_evictions
    with _order_cache_lock:
        while _order_caches:  # dropping a memo can finalize other entries
            _unregister(next(iter(_order_caches)))
        _order_cache_evictions = 0


def miss_mask_direct_mapped(
    lines: np.ndarray, n_sets: int, order: np.ndarray | None = None
) -> np.ndarray:
    """Per-reference miss mask of a direct-mapped cache with ``n_sets`` sets.

    A direct-mapped set holds exactly one line, so a reference hits iff
    the immediately preceding reference to its set had the same tag.
    Grouping references by set with a stable sort makes that a purely
    vectorized comparison.  The mask, not the sort, is what
    :class:`LineOrderCache` memoizes; pass ``order`` to supply a
    precomputed grouping explicitly.
    """
    check_power_of_two("n_sets", n_sets)
    lines = _line_array(lines)
    n = len(lines)
    if n == 0:
        return np.zeros(0, dtype=bool)
    if order is None:
        order = _set_order(lines, n_sets)
    # Equal lines share a set, so within the set-grouped stream a
    # reference hits iff its predecessor is the same line.
    sorted_lines = lines[order]
    miss_sorted = np.ones(n, dtype=bool)
    np.not_equal(sorted_lines[1:], sorted_lines[:-1], out=miss_sorted[1:])
    miss = np.empty(n, dtype=bool)
    miss[order] = miss_sorted
    return miss


def miss_mask_set_associative(
    lines: np.ndarray, n_sets: int, associativity: int
) -> np.ndarray:
    """Per-reference miss mask of an LRU set-associative cache.

    ``associativity == 0`` means fully associative with capacity
    ``n_sets`` lines.  A reference hits iff fewer than
    ``associativity`` distinct lines of its set intervened since its
    previous occurrence; the bounded kernel answers that without exact
    stack distances, and the mask is memoized per stream and shape.
    """
    if associativity == 0:
        return miss_mask_fully_associative(lines, n_sets)
    if associativity == 1:
        return miss_mask_direct_mapped(lines, n_sets)
    check_power_of_two("n_sets", n_sets)
    lines = _line_array(lines)
    return line_order_cache(lines).miss_mask(n_sets, associativity)


def miss_mask_fully_associative(
    lines: np.ndarray, capacity_lines: int
) -> np.ndarray:
    """Per-reference miss mask of a fully-associative LRU cache.

    A reference misses iff at least ``capacity_lines`` distinct lines
    were touched since its previous occurrence (always, for first
    touches).  The bounded kernel counts those lines only as far as
    the capacity, and the mask is memoized per stream and capacity.
    """
    lines = _line_array(lines)
    return line_order_cache(lines).miss_mask(capacity_lines, 0)


def lru_stack_distances(lines: np.ndarray) -> np.ndarray:
    """Exact LRU stack distance of every reference, as int64.

    Returns ``-1`` for first touches (infinite distance).  Fully
    vectorized: the distance of a reference at position ``i`` with
    previous occurrence ``p`` is the number of distinct lines in
    ``(p, i)``, which equals ``(i - p - 1)`` minus the number of
    occurrence-gap intervals nested strictly inside ``(p, i)`` — a 2D
    dominance count handled by :func:`_count_smaller_to_right`.
    """
    lines = _line_array(lines)
    by_line = np.argsort(lines, kind="stable").astype(
        _index_dtype(len(lines)), copy=False
    )
    distances = _grouped_stack_distances(lines, 1, by_line)
    return distances.astype(np.int64, copy=False)


def _grouped_stack_distances(
    lines: np.ndarray, n_sets: int, by_line: np.ndarray
) -> np.ndarray:
    """Exact per-reference stack distances within each of ``n_sets`` sets.

    The distance of a reference is computed within its set's substream
    only (one set: the whole stream).  ``by_line`` is the stream's
    stable by-line argsort.  Returns distances in original trace order,
    ``-1`` for set-local first touches, as int32 when
    ``len(lines) < 2**31`` (int64 beyond).
    """
    n = len(lines)
    index = _index_dtype(n)
    if n == 0:
        return np.zeros(0, dtype=index)
    order, prev, nxt = _grouped_links(lines, n_sets, by_line)
    # distance(i) = (i - p - 1) - #{gap intervals [j, next_j] strictly
    # inside (p, i)}.  Intervals sorted by left endpoint are simply the
    # positions with a finite next, so the nested-interval count is a
    # count-smaller-to-right over their next positions — and the query
    # interval (p, i) is itself the gap interval anchored at p.
    points = np.flatnonzero(nxt < n)
    nested = np.zeros(n, dtype=index)
    nested[points] = _count_smaller_to_right(nxt[points])
    where = np.flatnonzero(prev >= 0)
    p = prev[where]
    distances = np.full(n, -1, dtype=index)
    distances[where] = (where - p - 1) - nested[p]
    return _ungrouped(order, distances)


def _count_smaller_to_right(values: np.ndarray) -> np.ndarray:
    """For each position ``t``: ``#{s > t : values[s] < values[t]}``.

    Exact and fully vectorized, replacing the classic Fenwick-tree loop:
    an MSD-radix divide and conquer over the value bits.  Elements stay
    stably partitioned by the bits already processed; at each bit, every
    element whose current bit is 1 gains the count of same-prefix
    elements after it whose bit is 0 (exactly the pairs this bit
    decides).  Each level is cumulative-sum and stable-partition work —
    ``O(n)`` numpy passes per bit, ``O(n log n)`` total.  Counts (at
    most ``n - 1``) come back as int32 when ``n < 2**31``.
    """
    values = np.asarray(values)
    n = len(values)
    index_dtype = _index_dtype(n)
    if n == 0:
        return np.zeros(0, dtype=index_dtype)
    n_bits = max(1, int(values.max()).bit_length())
    order = np.arange(n, dtype=index_dtype)
    counts = np.zeros(n, dtype=index_dtype)  # slot space, permuted with order
    seg_new = np.zeros(n, dtype=bool)  # True at each segment's first slot
    seg_new[0] = True
    for b in range(n_bits - 1, -1, -1):
        bit = ((values[order] >> b) & 1).astype(index_dtype)
        zero = 1 - bit
        seg_starts = np.flatnonzero(seg_new).astype(index_dtype)
        if len(seg_starts) == n:
            break  # every segment is a singleton; later bits decide nothing
        seg_id = (np.cumsum(seg_new) - 1).astype(index_dtype)
        cum_zeros = np.cumsum(zero, dtype=index_dtype)
        zeros_before_seg = cum_zeros[seg_starts] - zero[seg_starts]
        seg_ends = np.append(seg_starts[1:] - 1, n - 1).astype(index_dtype)
        zeros_in_seg = cum_zeros[seg_ends] - zeros_before_seg
        zseg = zeros_in_seg[seg_id]
        # Zeros strictly after each slot within its segment.
        zeros_after = (zeros_before_seg[seg_id] + zseg) - cum_zeros
        counts += bit * zeros_after
        # Stable partition by bit within each segment.
        cum_ones = np.cumsum(bit, dtype=index_dtype)
        base = seg_starts[seg_id]
        zero_rank = cum_zeros - 1 - zeros_before_seg[seg_id]
        one_rank = (
            cum_ones - 1 - (cum_ones[seg_starts] - bit[seg_starts])[seg_id]
        )
        new_pos = np.where(bit == 1, base + zseg + one_rank, base + zero_rank)
        new_order = np.empty(n, dtype=index_dtype)
        new_order[new_pos] = order
        new_counts = np.empty(n, dtype=index_dtype)
        new_counts[new_pos] = counts
        next_seg = np.zeros(n, dtype=bool)
        next_seg[seg_starts] = True
        splits = seg_starts + zeros_in_seg
        next_seg[splits[(zeros_in_seg > 0) & (splits <= seg_ends)]] = True
        order, counts, seg_new = new_order, new_counts, next_seg
    out = np.empty(n, dtype=index_dtype)
    out[order] = counts
    return out


def compulsory_mask(lines: np.ndarray) -> np.ndarray:
    """Mask of first-touch (compulsory-miss) references.

    Memoized per line array through :class:`LineOrderCache` — the
    underlying ``np.unique`` is a full sort, and three-Cs sweeps ask
    for the same stream's mask at every cache size.
    """
    lines = _line_array(lines)
    return line_order_cache(lines).compulsory()
