"""Fault injection for the verified entry store under every cache.

Traces, their line runs and served results are all entries of
:mod:`repro.runner.entrystore`.  Whatever goes wrong with an entry on
disk — a flipped byte behind an intact ``.npy`` header, a truncated
column, an altered result that still parses, a missing digest — the
entry must be a counted miss that is recomputed, so the rendering after
the fault is byte-identical to an unfaulted run.
"""

import asyncio
import json
import os

import pytest

from repro.cli import main
from repro.experiments.common import ExperimentSettings
from repro.runner import cachedir
from repro.runner.entrystore import DIGEST, EntryStore
from repro.service.metrics import ServiceMetrics
from repro.service.scheduler import JobScheduler
from repro.service.store import ResultStore
from repro.workloads import registry

N = 20_000
EXPERIMENT = "table5"


@pytest.fixture(autouse=True)
def _isolated_backend(monkeypatch):
    """Each test starts with no disk backend and a cold in-memory cache."""
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.setattr(cachedir, "_selected", cachedir._selected)
    saved = registry._disk_cache
    registry.clear_trace_cache()
    yield
    registry._disk_cache = saved
    registry.clear_trace_cache()


def _render(cache_dir, capsys) -> str:
    """One cold-process run of the experiment over ``cache_dir``."""
    registry.clear_trace_cache()
    argv = ["--instructions", str(N), "--cache-dir", str(cache_dir)]
    assert main(argv + ["experiment", EXPERIMENT]) == 0
    return capsys.readouterr().out


def _flip_byte(path, offset) -> None:
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0x01]))


def _flip_column_byte(entry):
    # Past the 128-byte .npy header, so numpy still loads the column.
    path = os.path.join(entry, "addresses.npy")
    _flip_byte(path, os.path.getsize(path) - 5)


def _truncate_column(entry):
    path = os.path.join(entry, "kinds.npy")
    with open(path, "r+b") as handle:
        handle.truncate(os.path.getsize(path) // 2)


def _remove_digest(entry):
    os.unlink(os.path.join(entry, DIGEST))


def _flip_line_runs_byte(entry):
    path = os.path.join(entry, "runs.npz")
    _flip_byte(path, os.path.getsize(path) // 2)


TRACE_FAULTS = [
    pytest.param("traces", _flip_column_byte, id="flipped-column-byte"),
    pytest.param("traces", _truncate_column, id="truncated-column"),
    pytest.param("traces", _remove_digest, id="no-digest"),
    pytest.param("lineruns", _flip_line_runs_byte, id="flipped-runs-byte"),
]


class TestTraceCacheFaults:
    @pytest.mark.parametrize("namespace, fault", TRACE_FAULTS)
    def test_fault_is_a_counted_miss_and_recomputed(
        self, tmp_path, capsys, namespace, fault
    ):
        cache_dir = tmp_path / "cache"
        unfaulted = _render(cache_dir, capsys)
        store = EntryStore(cache_dir / namespace)
        victim = store.names()[0]
        fault(store.path(victim))
        events = []
        registry.add_trace_cache_observer(events.append)
        try:
            assert _render(cache_dir, capsys) == unfaulted
        finally:
            registry.remove_trace_cache_observer(events.append)
        backend = registry.trace_cache_backend()
        namespaces = {"traces": backend.traces, "lineruns": backend.line_runs}
        assert namespaces[namespace].dropped == 1
        if namespace == "traces":
            assert events.count(registry.TRACE_CACHE_SYNTHESIZED) == 1
        # The recomputed entry was published again, whole.
        assert store.open(victim) is not None
        assert store.dropped == 0


def _run_experiment_job(store: ResultStore):
    scheduler = JobScheduler(store, ServiceMetrics())

    async def body():
        job = await scheduler.submit_experiment(
            "table2", ExperimentSettings(n_instructions=N, seed=0)
        )
        await asyncio.wait_for(job.wait(), 120)
        return job

    try:
        return asyncio.run(body())
    finally:
        scheduler.close()


class TestResultStoreFaults:
    def test_altered_result_that_parses_is_a_counted_miss(self, tmp_path):
        root = tmp_path / "results"
        executed = _run_experiment_job(ResultStore(root))
        meta = root / executed.key / "meta.json"
        text = meta.read_text()
        # Change one digit: still valid JSON, but not what was stored.
        digit = next(i for i, ch in enumerate(text) if ch.isdigit())
        other = str((int(text[digit]) + 1) % 10)
        altered = text[:digit] + other + text[digit + 1:]
        meta.write_text(altered)
        json.loads(altered)

        store = ResultStore(root)
        replayed = _run_experiment_job(store)
        assert replayed.source == "executed"
        assert replayed.rendering == executed.rendering
        assert store.dropped == 1
        # The recomputed result replaced the altered one.
        assert ResultStore(root).get(executed.key) == replayed.result


class TestEntryStore:
    def _publish(self, store, name, files, meta=None):
        def write(staging):
            for file, data in files.items():
                with open(os.path.join(staging, file), "wb") as handle:
                    handle.write(data)

        return store.publish(name, write, meta)

    def test_round_trip(self, tmp_path):
        store = EntryStore(tmp_path)
        files = {"a": b"alpha", "b": b"beta"}
        assert self._publish(store, "e", files, {"k": 1})
        assert store.open("e", read=("a",)) == {"a": b"alpha"}
        (info,) = store.entries()
        assert info.name == "e"
        assert info.meta == {"k": 1}
        assert info.bytes == sum(
            os.path.getsize(os.path.join(info.path, file))
            for file in ("a", "b", DIGEST)
        )

    def test_missing_entry_is_an_uncounted_miss(self, tmp_path):
        store = EntryStore(tmp_path)
        assert store.open("absent") is None
        assert store.dropped == 0

    @pytest.mark.parametrize("fault", ["unlisted", "missing", "resized"])
    def test_file_set_and_size_are_checked(self, tmp_path, fault):
        store = EntryStore(tmp_path)
        self._publish(store, "e", {"a": b"alpha", "b": b"beta"})
        entry = store.path("e")
        if fault == "unlisted":
            with open(os.path.join(entry, "extra"), "wb") as handle:
                handle.write(b"x")
        elif fault == "missing":
            os.unlink(os.path.join(entry, "b"))
        else:
            with open(os.path.join(entry, "a"), "ab") as handle:
                handle.write(b"!")
        assert store.open("e") is None
        assert store.dropped == 1
        assert not os.path.exists(entry)

    def test_race_loser_keeps_the_winner(self, tmp_path):
        store = EntryStore(tmp_path)
        assert self._publish(store, "e", {"a": b"first"})
        assert not self._publish(store, "e", {"a": b"second"})
        assert store.open("e", read=("a",)) == {"a": b"first"}
        assert [c for c in os.listdir(tmp_path) if c.startswith(".")] == []

    def test_corrupt_occupant_is_replaced(self, tmp_path):
        store = EntryStore(tmp_path)
        os.makedirs(store.path("e"))  # an entry with no digest
        with open(os.path.join(store.path("e"), "a"), "wb") as handle:
            handle.write(b"stale")
        assert self._publish(store, "e", {"a": b"fresh"})
        assert store.open("e", read=("a",)) == {"a": b"fresh"}
        assert store.dropped == 1

    def test_clear_leaves_lock_and_staging(self, tmp_path):
        store = EntryStore(tmp_path)
        self._publish(store, "e1", {"a": b"1"})
        os.makedirs(store.path("legacy"))  # no digest: listed, cleared
        (tmp_path / ".lock").write_text("")
        (tmp_path / ".staging-live").mkdir()
        assert store.names() == ["e1", "legacy"]
        assert store.clear() == 2
        assert sorted(os.listdir(tmp_path)) == [".lock", ".staging-live"]
