"""Unit tests for trace persistence."""

import json

import numpy as np
import pytest

from repro.trace.io import (
    load_trace,
    load_trace_columns,
    save_trace,
    save_trace_columns,
)
from repro.trace.trace import Trace


class TestRoundTrip:
    def test_save_load_identical(self, handmade_trace, tmp_path):
        path = tmp_path / "t.npz"
        save_trace(handmade_trace, path)
        loaded = load_trace(path)
        assert loaded.label == handmade_trace.label
        assert np.array_equal(loaded.addresses, handmade_trace.addresses)
        assert np.array_equal(loaded.kinds, handmade_trace.kinds)
        assert np.array_equal(loaded.components, handmade_trace.components)

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.npz"
        save_trace(Trace.empty("e"), path)
        loaded = load_trace(path)
        assert len(loaded) == 0
        assert loaded.label == "e"

    def test_unicode_label(self, handmade_trace, tmp_path):
        path = tmp_path / "u.npz"
        save_trace(handmade_trace.relabel("groff@mach3 µkernel"), path)
        assert load_trace(path).label == "groff@mach3 µkernel"


class TestErrors:
    def test_not_a_trace_archive(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, foo=np.zeros(3))
        with pytest.raises(ValueError, match="not a repro trace"):
            load_trace(path)

    def test_synthesized_round_trip(self, small_trace, tmp_path):
        path = tmp_path / "synth.npz"
        save_trace(small_trace, path)
        loaded = load_trace(path)
        assert loaded.instruction_count == small_trace.instruction_count


class TestColumnDirectory:
    """The runner cache's mmap-able per-column layout (satellite tests)."""

    def test_roundtrip_preserves_dtypes(self, handmade_trace, tmp_path):
        save_trace_columns(handmade_trace, tmp_path / "entry")
        loaded = load_trace_columns(tmp_path / "entry", mmap=False)
        assert loaded.label == handmade_trace.label
        for name in ("addresses", "kinds", "components"):
            original = getattr(handmade_trace, name)
            column = getattr(loaded, name)
            assert column.dtype == original.dtype
            assert np.array_equal(column, original)

    @staticmethod
    def _file_backed(column) -> bool:
        """Whether a column (or a base it views) is an np.memmap."""
        base = column
        while base is not None:
            if isinstance(base, np.memmap):
                return True
            base = getattr(base, "base", None)
        return False

    def test_mmap_mode_memory_maps(self, handmade_trace, tmp_path):
        save_trace_columns(handmade_trace, tmp_path / "entry")
        loaded = load_trace_columns(tmp_path / "entry", mmap=True)
        assert self._file_backed(loaded.addresses)
        assert np.array_equal(loaded.addresses, handmade_trace.addresses)
        eager = load_trace_columns(tmp_path / "entry", mmap=False)
        assert not self._file_backed(eager.addresses)

    def test_synthesized_roundtrip(self, small_trace, tmp_path):
        save_trace_columns(small_trace, tmp_path / "entry")
        loaded = load_trace_columns(tmp_path / "entry")
        assert loaded.instruction_count == small_trace.instruction_count

    @pytest.mark.parametrize("mmap", [True, False])
    def test_truncated_column_raises(self, handmade_trace, tmp_path, mmap):
        save_trace_columns(handmade_trace, tmp_path / "entry")
        path = tmp_path / "entry" / "addresses.npy"
        with open(path, "r+b") as handle:
            handle.truncate(path.stat().st_size - 8)
        with pytest.raises(ValueError, match="truncated or corrupt"):
            load_trace_columns(tmp_path / "entry", mmap=mmap)

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(ValueError, match="not a trace-column"):
            load_trace_columns(tmp_path / "nope")

    def test_missing_column_raises(self, handmade_trace, tmp_path):
        save_trace_columns(handmade_trace, tmp_path / "entry")
        (tmp_path / "entry" / "kinds.npy").unlink()
        with pytest.raises(ValueError, match="not a trace-column"):
            load_trace_columns(tmp_path / "entry")

    def test_version_mismatch_raises(self, handmade_trace, tmp_path):
        save_trace_columns(handmade_trace, tmp_path / "entry")
        meta_path = tmp_path / "entry" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["version"] = 999
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="unsupported trace format"):
            load_trace_columns(tmp_path / "entry")
