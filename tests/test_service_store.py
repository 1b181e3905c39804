"""Unit tests for the content-addressed result store."""

import json
import os

import pytest

from repro.service.store import ResultStore, result_store_for_cache

KEY_A = "a" * 64
KEY_B = "b" * 64
KEY_C = "c" * 64

PAYLOAD = {"kind": "experiment", "name": "table5", "metrics": {"cpi": 1.5}}


class TestMemoryOnly:
    def test_roundtrip(self):
        store = ResultStore(None)
        assert store.get(KEY_A) is None
        store.put(KEY_A, PAYLOAD, "rendered table")
        assert store.get(KEY_A) == PAYLOAD
        assert store.get_rendering(KEY_A) == "rendered table"
        assert KEY_A in store
        assert len(store) == 1
        assert not store.persistent

    def test_clear(self):
        store = ResultStore(None)
        store.put(KEY_A, PAYLOAD)
        store.put(KEY_B, PAYLOAD)
        assert store.clear() == 2
        assert store.get(KEY_A) is None
        assert store.current_bytes == 0


class TestPersistence:
    def test_survives_restart(self, tmp_path):
        root = tmp_path / "results"
        first = ResultStore(root)
        first.put(KEY_A, PAYLOAD, "rendered")
        second = ResultStore(root)
        assert second.get(KEY_A) == PAYLOAD
        assert second.get_rendering(KEY_A) == "rendered"
        assert second.current_bytes == first.current_bytes > 0

    def test_no_rendering_is_none(self, tmp_path):
        store = ResultStore(tmp_path / "results")
        store.put(KEY_A, PAYLOAD)
        assert ResultStore(tmp_path / "results").get_rendering(KEY_A) is None

    def test_put_idempotent(self, tmp_path):
        store = ResultStore(tmp_path / "results")
        store.put(KEY_A, PAYLOAD)
        size = store.current_bytes
        store.put(KEY_A, PAYLOAD)
        assert store.current_bytes == size
        assert len(store) == 1

    def test_corrupt_entry_dropped(self, tmp_path):
        root = tmp_path / "results"
        store = ResultStore(root)
        store.put(KEY_A, PAYLOAD)
        (root / KEY_A / "meta.json").write_text("{ not json")
        fresh = ResultStore(root)
        assert fresh.get(KEY_A) is None
        assert KEY_A not in fresh

    def test_foreign_dirs_ignored(self, tmp_path):
        root = tmp_path / "results"
        os.makedirs(root / "random-dir")
        store = ResultStore(root)
        assert len(store) == 0

    def test_clear_removes_directories(self, tmp_path):
        root = tmp_path / "results"
        store = ResultStore(root)
        store.put(KEY_A, PAYLOAD)
        assert store.clear() == 1
        assert not (root / KEY_A).exists()


class TestEviction:
    def _sized_payload(self, n: int) -> dict:
        return {"kind": "experiment", "name": "x", "blob": "y" * n}

    def _two_entry_store(self, tmp_path) -> ResultStore:
        """A store whose budget holds two of these entries, not three
        (an entry's bytes include its digest file)."""
        probe = ResultStore(tmp_path / "probe")
        probe.put(KEY_A, self._sized_payload(300))
        budget = 5 * probe.current_bytes // 2
        return ResultStore(tmp_path / "results", max_bytes=budget)

    def test_lru_eviction_by_byte_budget(self, tmp_path):
        store = self._two_entry_store(tmp_path)
        store.put(KEY_A, self._sized_payload(300))
        store.put(KEY_B, self._sized_payload(300))
        store.put(KEY_C, self._sized_payload(300))
        # A was least recently used, so it pays for C's admission.
        assert KEY_A not in store
        assert KEY_B in store and KEY_C in store
        assert store.current_bytes <= store.max_bytes

    def test_get_refreshes_recency(self, tmp_path):
        store = self._two_entry_store(tmp_path)
        store.put(KEY_A, self._sized_payload(300))
        store.put(KEY_B, self._sized_payload(300))
        assert store.get(KEY_A) is not None  # A becomes most recent
        store.put(KEY_C, self._sized_payload(300))
        assert KEY_B not in store
        assert KEY_A in store and KEY_C in store

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError, match="max_bytes"):
            ResultStore(None, max_bytes=0)


class TestInventory:
    def test_entries_and_describe(self, tmp_path):
        store = ResultStore(tmp_path / "results")
        store.put(KEY_A, PAYLOAD, "rendering")
        infos = store.entries()
        assert len(infos) == 1
        assert infos[0].key == KEY_A
        assert infos[0].kind == "experiment"
        assert infos[0].name == "table5"
        assert infos[0].bytes > 0
        record = store.describe()
        assert record["persistent"] is True
        assert record["entry_count"] == 1
        assert record["entries"][0]["key"] == KEY_A
        json.dumps(record)  # must be JSON-serializable

    def test_env_budget(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_STORE_BYTES", "12345")
        assert ResultStore(tmp_path / "r").max_bytes == 12345
        monkeypatch.setenv("REPRO_RESULT_STORE_BYTES", "junk")
        with pytest.raises(ValueError, match="REPRO_RESULT_STORE_BYTES"):
            ResultStore(tmp_path / "r")


class TestStoreBoundSetting:
    """``REPRO_RESULT_STORE_BYTES`` is a positive integer or an error,
    by the rule the trace-cache bounds follow."""

    @pytest.mark.parametrize("raw", ["0", "-1", "lots", "256MB"])
    def test_bad_bound_names_the_variable(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_RESULT_STORE_BYTES", raw)
        with pytest.raises(ValueError) as caught:
            ResultStore(None)
        assert "REPRO_RESULT_STORE_BYTES" in str(caught.value)
        assert repr(raw) in str(caught.value)

    def test_good_and_unset_bounds(self, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_STORE_BYTES", " 4096 ")
        assert ResultStore(None).max_bytes == 4096
        monkeypatch.delenv("REPRO_RESULT_STORE_BYTES")
        assert ResultStore(None).max_bytes == 256 * 1024**2

    def test_explicit_budget_ignores_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_STORE_BYTES", "lots")
        assert ResultStore(None, max_bytes=100).max_bytes == 100


class TestCacheColocation:
    def test_result_store_for_cache(self, tmp_path):
        from repro.runner.cache import TraceDiskCache

        backend = TraceDiskCache(tmp_path / "cache")
        store = result_store_for_cache(backend)
        assert store.root == os.path.join(backend.root, "results")
        assert result_store_for_cache(None).root is None
