"""Concurrent-writer hardening tests for the result store.

The serving story puts several processes over one store root: a warm
tier filling it, a live server reading it, maybe a second server
sharing it.  These tests check the cross-process contract: no torn
entries (every published ``meta.json`` parses), no lost entries (every
written key is readable from a fresh store and from sibling instances),
and eviction under a byte budget never corrupts a reader — and, end to
end, that two ``repro serve`` processes over one cache directory
receiving the same evaluate key over real HTTP publish exactly one
store entry.
"""

import asyncio
import json
import multiprocessing
import os
import pathlib
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.service.store import ResultStore

pytestmark = pytest.mark.skipif(
    sys.platform == "win32", reason="fork + flock are POSIX-only"
)

N_WORKERS = 4
N_KEYS = 24

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")


def _payload(i: int) -> dict:
    # Content-addressed contract: every writer of a key writes the
    # identical payload, exactly as coinciding warm/serve computes do.
    return {"kind": "evaluate", "name": f"cell-{i:04d}", "value": i}


def _stress_writer(root, barrier, n_keys):
    store = ResultStore(root)
    barrier.wait()  # maximize publish-race contention
    for i in range(n_keys):
        key = f"key-{i:04d}"
        store.put(key, _payload(i), rendering=f"row {i}\n" * 8)
        got = store.get(key)
        assert got is not None, f"lost entry {key}"
        assert got["value"] == i, f"torn entry {key}: {got}"


class TestMultiProcessStress:
    def test_concurrent_writers_lose_nothing(self, tmp_path):
        root = str(tmp_path / "results")
        context = multiprocessing.get_context("fork")
        barrier = context.Barrier(N_WORKERS)
        workers = [
            context.Process(
                target=_stress_writer, args=(root, barrier, N_KEYS)
            )
            for _ in range(N_WORKERS)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
            assert worker.exitcode == 0
        # A fresh store over the same root sees every key, none torn.
        store = ResultStore(root)
        assert len(store) == N_KEYS
        for i in range(N_KEYS):
            key = f"key-{i:04d}"
            assert store.get(key) == _payload(i)
            assert store.get_rendering(key) == f"row {i}\n" * 8
        # Losing writers cleaned up their staging dirs; every on-disk
        # child is either internal (dotted) or a parseable entry.
        for child in os.listdir(root):
            if child.startswith("."):
                continue
            with open(os.path.join(root, child, "meta.json")) as handle:
                json.load(handle)
        assert not [
            child for child in os.listdir(root)
            if child.startswith(".staging-")
        ]

    def test_accounting_consistent_after_stress(self, tmp_path):
        root = str(tmp_path / "results")
        context = multiprocessing.get_context("fork")
        barrier = context.Barrier(2)
        workers = [
            context.Process(
                target=_stress_writer, args=(root, barrier, N_KEYS)
            )
            for _ in range(2)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
            assert worker.exitcode == 0
        store = ResultStore(root)
        disk_bytes = 0
        for child in os.listdir(root):
            entry = os.path.join(root, child)
            if child.startswith(".") or not os.path.isdir(entry):
                continue
            for name in os.listdir(entry):
                disk_bytes += os.path.getsize(os.path.join(entry, name))
        assert store.current_bytes == disk_bytes
        assert store.current_bytes > 0


class TestCrossInstanceVisibility:
    def test_sibling_instance_adopts_published_entry(self, tmp_path):
        root = str(tmp_path / "results")
        reader = ResultStore(root)  # opened before the write lands
        writer = ResultStore(root)
        writer.put("abc123", _payload(1), rendering="hello")
        # The reader never saw the put; __contains__/get adopt it.
        assert "abc123" in reader
        assert reader.get("abc123") == _payload(1)
        assert reader.get_rendering("abc123") == "hello"
        assert reader.current_bytes == writer.current_bytes

    def test_put_over_foreign_entry_is_idempotent(self, tmp_path):
        root = str(tmp_path / "results")
        writer = ResultStore(root)
        writer.put("abc123", _payload(1))
        late = ResultStore.__new__(ResultStore)  # skip _scan on purpose
        ResultStore.__init__(late, None)
        late.root = os.path.abspath(root)
        late.put("abc123", _payload(1))
        assert len(late) == 1
        assert late.get("abc123") == _payload(1)

    def test_adopt_rejects_hostile_keys(self, tmp_path):
        store = ResultStore(str(tmp_path / "results"))
        store.put("good", _payload(0))
        for bad in ("", ".lock", ".staging-x", "../escape", "a/b"):
            assert bad not in store

    def test_evicted_by_sibling_reads_as_missing(self, tmp_path):
        root = str(tmp_path / "results")
        holder = ResultStore(root, max_bytes=1 << 20)
        holder.put("victim", _payload(0), rendering="x" * 256)
        # A sibling with a tiny budget evicts everything but the MRU.
        evictor = ResultStore(root, max_bytes=1)
        for i in range(3):
            evictor.put(f"filler-{i}", _payload(i))
        # The holder's stale accounting degrades to a clean miss.
        assert holder.get("victim") is None
        assert "victim" not in ResultStore(root)

    def test_scan_ignores_staging_and_lock_artifacts(self, tmp_path):
        root = tmp_path / "results"
        store = ResultStore(str(root))
        store.put("real", _payload(0))
        torn = root / ".staging-torn"
        torn.mkdir()
        (torn / "meta.json").write_text('{"kind": "evaluate"}')
        fresh = ResultStore(str(root))
        assert len(fresh) == 1
        assert "real" in fresh


def _start_server(cache_dir, log_path) -> tuple[subprocess.Popen, int]:
    """One ``repro serve --port 0`` subprocess and the port it bound."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    with open(log_path, "w") as log:
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro",
                "--cache-dir", str(cache_dir),
                "serve", "--port", "0",
            ],
            env=env,
            stdout=log,
            stderr=subprocess.STDOUT,
        )
    deadline = time.time() + 30
    while time.time() < deadline:
        match = re.search(r"http://[\d.]+:(\d+)", log_path.read_text())
        if match:
            return proc, int(match.group(1))
        if proc.poll() is not None:
            break
        time.sleep(0.05)
    proc.kill()
    proc.wait()
    raise AssertionError(
        f"repro serve never listened:\n{log_path.read_text()}"
    )


def _stop_server(proc: subprocess.Popen) -> int:
    proc.send_signal(signal.SIGTERM)
    try:
        return proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise


class TestTwoWorkerSingleFlight:
    """Store-level single-flight across two real server processes.

    Two independent ``repro serve`` processes over one ``--cache-dir``
    each receive the *same* evaluate key over real HTTP.  Both compute
    concurrently; the cross-process flock publish and adopt-on-miss
    must collapse the results into exactly one store entry, and both
    responses must be served from it.
    """

    def test_same_key_on_both_workers_one_store_entry(self, tmp_path):
        cache_dir = tmp_path / "cache"
        servers = []
        try:
            for i in range(2):
                servers.append(
                    _start_server(cache_dir, tmp_path / f"serve-{i}.log")
                )
            body = json.dumps({
                "workload": "gcc",
                "instructions": 20_000,
                "wait": True,
            }).encode()

            async def post(port: int) -> dict:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                try:
                    writer.write(
                        (
                            "POST /v1/evaluate HTTP/1.1\r\nHost: t\r\n"
                            "Connection: close\r\n"
                            f"Content-Length: {len(body)}\r\n\r\n"
                        ).encode() + body
                    )
                    await writer.drain()
                    raw = await asyncio.wait_for(reader.read(-1), 120)
                finally:
                    writer.close()
                head, _, raw_body = raw.partition(b"\r\n\r\n")
                assert head.split()[1] == b"200", head
                return json.loads(raw_body)

            async def race():
                return await asyncio.gather(
                    *(post(port) for _, port in servers)
                )

            first, second = asyncio.run(race())
            # Both servers answered the same key with identical results.
            assert first["key"] == second["key"]
            assert first["status"] == second["status"] == "done"
            assert first["result"] == second["result"]
            assert first["result"]["metrics"]["cpi_instr"] > 1.0
            # Exactly one published entry backs both responses.
            results_root = cache_dir / "results"
            entries = [
                child for child in os.listdir(results_root)
                if not child.startswith(".")
            ]
            assert len(entries) == 1
            store = ResultStore(str(results_root))
            assert first["key"] in store
            stopping, servers = servers, []
            assert [_stop_server(proc) for proc, _ in stopping] == [0, 0]
        finally:
            for proc, _ in servers:
                proc.kill()
                proc.wait()
