"""Unit tests for run-length encoding of line streams."""

import numpy as np
import pytest

from repro.trace.rle import LineRuns, to_line_runs


class TestToLineRuns:
    def test_sequential_stream_collapses(self):
        # 16 sequential instructions at 4-byte stride = 2 runs of 8 in
        # 32-byte lines.
        addresses = np.arange(0, 64, 4, dtype=np.uint64)
        runs = to_line_runs(addresses, 32)
        assert list(runs.lines) == [0, 1]
        assert list(runs.counts) == [8, 8]
        assert runs.total_references == 16

    def test_alternating_lines_do_not_collapse(self):
        addresses = np.array([0, 32, 0, 32], dtype=np.uint64)
        runs = to_line_runs(addresses, 32)
        assert list(runs.lines) == [0, 1, 0, 1]
        assert list(runs.counts) == [1, 1, 1, 1]

    def test_first_offsets(self):
        addresses = np.array([0x14, 0x18, 0x44], dtype=np.uint64)
        runs = to_line_runs(addresses, 32)
        assert list(runs.first_offsets) == [0x14, 0x44 % 32]

    def test_empty(self):
        runs = to_line_runs(np.zeros(0, dtype=np.uint64), 32)
        assert len(runs) == 0
        assert runs.total_references == 0

    def test_single_reference(self):
        runs = to_line_runs(np.array([100], dtype=np.uint64), 16)
        assert list(runs.lines) == [100 >> 4]
        assert list(runs.counts) == [1]

    def test_rejects_bad_line_size(self):
        with pytest.raises(ValueError):
            to_line_runs(np.array([0], dtype=np.uint64), 33)

    def test_preserves_total_references(self):
        rng = np.random.default_rng(5)
        addresses = rng.integers(0, 1 << 20, 5000).astype(np.uint64) * 4
        runs = to_line_runs(addresses, 32)
        assert runs.total_references == 5000

    def test_miss_equivalence_with_unencoded_stream(self):
        # RLE must not change miss counts: repeats within a line always hit.
        from repro.caches.vectorized import miss_mask_direct_mapped

        rng = np.random.default_rng(9)
        base = rng.integers(0, 512, 300).astype(np.uint64) * 32
        # expand each to a small sequential run
        addresses = np.concatenate(
            [np.arange(a, a + 32, 4, dtype=np.uint64) for a in base]
        )
        full_lines = addresses >> np.uint64(5)
        runs = to_line_runs(addresses, 32)
        assert (
            miss_mask_direct_mapped(full_lines, 128).sum()
            == miss_mask_direct_mapped(runs.lines, 128).sum()
        )


class TestLineRunsValidation:
    def test_misaligned_columns_rejected(self):
        with pytest.raises(ValueError):
            LineRuns(
                lines=np.zeros(2, np.uint64),
                counts=np.zeros(1, np.int64),
                first_offsets=np.zeros(2, np.int64),
                line_size=32,
            )


class TestNarrowColumns:
    def test_columns_are_stored_narrow(self):
        # A 32-bit address space's lines fit uint32; runs of 8 fit uint8.
        addresses = np.arange(0, 4096, 4, dtype=np.uint64)
        runs = to_line_runs(addresses, 32)
        assert runs.lines.dtype == np.uint32
        assert runs.counts.dtype == np.uint8
        assert runs.first_offsets.dtype == np.uint8

    def test_lines_past_32_bits_stay_wide(self):
        addresses = np.array([0, 2**40, 2**40 + 4, 2**63], np.uint64)
        runs = to_line_runs(addresses, 4)
        assert runs.lines.dtype == np.uint64
        assert runs.lines.tolist() == [0, 2**38, 2**38 + 1, 2**61]

    @pytest.mark.parametrize(
        "longest, dtype",
        [(1, np.uint8), (255, np.uint8), (256, np.uint16),
         (65535, np.uint16), (65536, np.uint32), (2**31 - 1, np.uint32)],
    )
    def test_count_width_follows_the_longest_run(self, longest, dtype):
        runs = LineRuns(
            lines=np.arange(2, dtype=np.uint64),
            counts=np.array([1, longest], np.int64),
            first_offsets=np.zeros(2, np.int64),
            line_size=32,
        )
        assert runs.counts.dtype == dtype
        assert runs.counts.tolist() == [1, longest]

    @pytest.mark.parametrize(
        "line_size, dtype",
        [(4, np.uint8), (256, np.uint8), (512, np.uint16), (65536, np.uint16)],
    )
    def test_offset_width_follows_line_size(self, line_size, dtype):
        runs = LineRuns(
            lines=np.zeros(1, np.uint64),
            counts=np.ones(1, np.int64),
            first_offsets=np.array([line_size - 1], np.int64),
            line_size=line_size,
        )
        assert runs.first_offsets.dtype == dtype
        assert int(runs.first_offsets[0]) == line_size - 1

    def test_every_constructor_narrows(self):
        # Wide columns from any caller (older npz files, hand-made
        # synthetic streams) arrive narrow; columns already at their
        # narrowest width keep identity.
        wide = LineRuns(
            lines=np.array([3, 4], np.uint64),
            counts=np.array([5, 7], np.int64),
            first_offsets=np.array([4, 8], np.int64),
            line_size=32,
        )
        assert wide.lines.dtype == np.uint32
        assert wide.counts.dtype == np.uint8
        assert wide.first_offsets.dtype == np.uint8
        assert wide.lines.tolist() == [3, 4]
        assert wide.counts.tolist() == [5, 7]
        assert wide.first_offsets.tolist() == [4, 8]
        narrow = LineRuns(
            wide.lines, wide.counts, wide.first_offsets, wide.line_size
        )
        assert narrow.lines is wide.lines
        assert narrow.counts is wide.counts
        assert narrow.first_offsets is wide.first_offsets

    def test_empty_stream_is_narrow(self):
        runs = to_line_runs(np.zeros(0, dtype=np.uint64), 32)
        assert runs.lines.dtype == np.uint32
        assert runs.counts.dtype == np.uint8
        assert runs.first_offsets.dtype == np.uint8

    @pytest.mark.parametrize(
        "counts, offsets",
        [
            ([2**31], [0]),  # a run of 2**31 references
            ([-1], [0]),
            ([1], [32]),  # an offset past the 32 B line
            ([1], [-1]),
        ],
    )
    def test_values_that_would_wrap_are_rejected(self, counts, offsets):
        with pytest.raises(ValueError, match="outside"):
            LineRuns(
                lines=np.zeros(1, np.uint64),
                counts=np.array(counts, np.int64),
                first_offsets=np.array(offsets, np.int64),
                line_size=32,
            )

    def test_negative_line_numbers_are_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            LineRuns(np.array([3, -1]), [1, 1], [0, 0], 32)

    def test_total_past_int32_is_exact(self):
        big = 2**31 - 1
        runs = LineRuns(
            lines=np.arange(3, dtype=np.uint64),
            counts=np.array([big, big, 5], np.int64),
            first_offsets=np.zeros(3, np.int64),
            line_size=32,
        )
        assert runs.total_references == 2 * big + 5
