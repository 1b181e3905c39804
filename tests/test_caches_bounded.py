"""The bounded LRU miss kernel against exact stack distances.

Every LRU miss mask comes from a bounded query: a reference misses iff
at least ``k`` distinct lines of its set intervened since its previous
occurrence, counted only as far as ``k``.  The exact grouped stack
distances stay as the oracle, so each mask must equal
``(d < 0) | (d >= k)`` for the distances ``d`` of the same grouping.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caches import vectorized
from repro.caches.vectorized import clear_order_caches, line_order_cache

SET_COUNTS = [1, 2, 64, 1 << 16, 1 << 17]


def _bounds(n: int) -> list[int]:
    return [1, 2, 4, 8, 64, n + 1]


def _shape(n_sets: int, bound: int) -> tuple[int, int]:
    """The cache shape whose miss bound is ``bound`` at ``n_sets`` sets
    (one set is the fully-associative capacity)."""
    return (bound, 0) if n_sets == 1 else (n_sets, bound)


def _oracle(lines: np.ndarray, n_sets: int, bound: int) -> np.ndarray:
    distances = line_order_cache(lines).stack_distances(n_sets)
    return (distances < 0) | (distances >= bound)


def _check_all_bounds(lines: np.ndarray, n_sets: int) -> None:
    clear_order_caches()
    bounds = _bounds(len(lines))
    masks = line_order_cache(lines).miss_masks(
        [_shape(n_sets, k) for k in bounds]
    )
    for k in bounds:
        mask = masks[_shape(n_sets, k)]
        assert mask.dtype == bool and mask.shape == lines.shape
        assert np.array_equal(mask, _oracle(lines, n_sets, k)), (n_sets, k)


# A handful of sets, each shared by a dozen tags, so every set count
# (up to 2**17) sees conflicts and long same-set windows.
_references = st.lists(
    st.tuples(st.integers(0, 11), st.integers(0, 3)), max_size=300
)


def _lines(references, n_sets: int) -> np.ndarray:
    return np.array(
        [tag * n_sets + (s * 40503) % n_sets for tag, s in references],
        dtype=np.uint64,
    )


@pytest.mark.parametrize("n_sets", SET_COUNTS)
@given(references=_references)
@settings(max_examples=60, deadline=None)
def test_masks_match_exact_distances(n_sets, references):
    _check_all_bounds(_lines(references, n_sets), n_sets)


@given(references=_references)
@settings(max_examples=40, deadline=None)
def test_small_scan_steps_match_exact_distances(references):
    # A tiny step budget forces the scan to queue references, top up
    # its active set and widen its window as references leave.
    saved = vectorized._SCAN_CELLS
    vectorized._SCAN_CELLS = 256
    try:
        for n_sets in (1, 64):
            _check_all_bounds(_lines(references, n_sets), n_sets)
    finally:
        vectorized._SCAN_CELLS = saved


class TestEdgeStreams:
    def test_empty_stream(self):
        clear_order_caches()
        lines = np.zeros(0, dtype=np.uint64)
        masks = line_order_cache(lines).miss_masks(
            [(1, 0), (64, 0), (2, 2), (1 << 17, 4)]
        )
        assert all(mask.shape == (0,) for mask in masks.values())

    @pytest.mark.parametrize("n_sets", SET_COUNTS)
    def test_single_line(self, n_sets):
        once = np.array([7], dtype=np.uint64)
        _check_all_bounds(once, n_sets)
        repeated = np.array([7, 7, 7], dtype=np.uint64)
        _check_all_bounds(repeated, n_sets)
        clear_order_caches()
        mask = line_order_cache(repeated).miss_mask(*_shape(n_sets, 1))
        assert mask.tolist() == [True, False, False]

    @pytest.mark.parametrize("n_sets", [1, 2, 64])
    def test_few_distinct_long_window(self, n_sets):
        # A (B C)x500 A: the last A's window is 1000 positions long but
        # holds two distinct lines, so the scan walks all of it.
        a, b, c = (tag * n_sets for tag in (1, 2, 3))
        lines = np.array([a] + [b, c] * 500 + [a], dtype=np.uint64)
        _check_all_bounds(lines, n_sets)
        clear_order_caches()
        cache = line_order_cache(lines)
        assert cache.miss_mask(*_shape(n_sets, 2))[-1]
        assert not cache.miss_mask(*_shape(n_sets, 3))[-1]

    def test_window_at_the_bound(self):
        # A, 64 distinct lines, A: distance 64 misses at 64 and hits
        # at 65; the same window with one line fewer hits at 64.
        for distinct, misses_at_64 in ((64, True), (63, False)):
            clear_order_caches()
            lines = np.array(
                [0] + list(range(1, distinct + 1)) + [0], dtype=np.uint64
            )
            cache = line_order_cache(lines)
            assert cache.miss_mask(64, 0)[-1] == misses_at_64
            assert not cache.miss_mask(65, 0)[-1]

    def test_long_windows_interleaved(self):
        # Many long-gap references at once, some reaching the bound in
        # their first step and some walking a loop to its start.
        rng = np.random.default_rng(0)
        loop = np.tile(np.arange(100, 103, dtype=np.uint64), 400)
        fresh = rng.integers(1000, 5000, 1500).astype(np.uint64)
        lines = np.concatenate(
            [np.arange(50, dtype=np.uint64), loop, fresh,
             np.arange(50, dtype=np.uint64), loop]
        )
        for n_sets in (1, 2, 64):
            _check_all_bounds(lines, n_sets)


def test_miss_masks_equal_per_shape_masks():
    # Direct-mapped, set-associative and fully-associative shapes mixed,
    # some sharing a grouping; batching must not change any mask.
    shapes = [(64, 1), (64, 2), (64, 4), (32, 1), (16, 8), (256, 0),
              (1, 4), (8, 0), (1 << 16, 2)]
    rng = np.random.default_rng(11)
    lines = rng.integers(0, 600, 4000).astype(np.uint64)
    clear_order_caches()
    batched = line_order_cache(lines).miss_masks(shapes)
    assert set(batched) == set(shapes)
    for shape in shapes:
        clear_order_caches()
        single = line_order_cache(lines).miss_mask(*shape)
        assert np.array_equal(batched[shape], single), shape


def test_masks_are_memoized_read_only_without_distances():
    clear_order_caches()
    lines = np.random.default_rng(2).integers(0, 300, 2000).astype(np.uint64)
    cache = line_order_cache(lines)
    masks = cache.miss_masks([(64, 2), (64, 4), (128, 0)])
    for shape, mask in masks.items():
        assert cache._memo[("miss-mask",) + shape] is mask
        with pytest.raises(ValueError):
            mask[0] = False
    assert not any(key[0] == "stack-distances" for key in cache._memo)
