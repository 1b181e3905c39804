"""Content-addressed persistent store of experiment/evaluation results.

The serving layer's second cache tier: where the trace cache
(:mod:`repro.runner.cache`) persists the *inputs* of an experiment, this
store persists the *outputs* — the structured result record and its
rendered table — keyed by the canonical content hash of everything that
determines them (:func:`repro.experiments.settings.canonical_job_key`:
job kind, target, settings, request knobs, workload parameterization,
generator version).  A restarted server therefore answers a repeated
request from disk without re-running anything, and a stale key is
simply never matched again.

Layout mirrors the trace cache: one directory per entry under the
store root (conventionally ``<cache-dir>/results``), holding
``meta.json`` (the JSON payload) plus an optional ``rendering.txt``
(the rendered table, kept as raw bytes so large renderings stay out of
the JSON).  Writes stage into a temp directory (files fsynced before
publish) and atomically rename into place, so concurrent writers and
interrupted stores never publish a partial entry — a torn write leaves
only a ``.staging-*`` directory the scanner ignores.

The store is safe under concurrent *processes* sharing one root (the
warm tier and a live server, or several servers):

* a key published by another process is adopted on first lookup
  instead of being reported missing (and a loser in a publish race
  adopts the winner's entry — the content under one key is identical
  by construction);
* eviction and publish hold a cross-process ``flock`` on
  ``<root>/.lock``, so two processes never tear the same victim, and
  an entry cannot be evicted mid-publish.

Capacity is a byte budget (``REPRO_RESULT_STORE_BYTES``, default
256 MB) enforced LRU: recency order rides on a
:class:`repro._util.lru.LruSet` in memory and is persisted via entry
mtimes, so a restart resumes with the same eviction order.

With ``root=None`` the store is memory-only — same interface, no
persistence — which is what ``repro serve`` falls back to when no cache
directory is configured.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass

try:  # POSIX-only; the store degrades to in-process locking without it.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None

from repro._util.lru import LruSet

#: Environment variable bounding the store's on-disk footprint.
RESULT_STORE_BYTES_ENV = "REPRO_RESULT_STORE_BYTES"

_DEFAULT_MAX_BYTES = 256 * 1024**2

#: Entry files.
_META = "meta.json"
_RENDERING = "rendering.txt"

#: Cross-process eviction/publish lock file under the store root.
_LOCK = ".lock"


@dataclass(frozen=True)
class StoredResult:
    """One stored result, its payload and rendering read together.

    ``payload_json`` is the payload's text exactly as stored, which
    :meth:`ResultStore.put` writes as ``json.dumps(payload,
    sort_keys=True)``; the server splices it into a hit's response
    verbatim instead of encoding the payload again.
    """

    payload_json: str
    rendering: str | None

    @property
    def payload(self) -> dict:
        """The payload, decoded afresh on every access."""
        return json.loads(self.payload_json)


@dataclass(frozen=True)
class ResultEntryInfo:
    """Inventory record of one stored result (``repro results info``)."""

    key: str
    kind: str
    name: str
    bytes: int
    stored_at: float
    path: str | None

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "kind": self.kind,
            "name": self.name,
            "bytes": self.bytes,
            "stored_at": self.stored_at,
            "path": self.path,
        }


class ResultStore:
    """An LRU-bounded, content-addressed result cache (disk or memory)."""

    def __init__(self, root: str | os.PathLike | None, max_bytes: int | None = None):
        self.root = os.path.abspath(os.fspath(root)) if root else None
        if max_bytes is None:
            raw = os.environ.get(RESULT_STORE_BYTES_ENV, "").strip()
            try:
                max_bytes = int(raw) if raw else _DEFAULT_MAX_BYTES
            except ValueError:
                max_bytes = _DEFAULT_MAX_BYTES
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.max_bytes = max_bytes
        self._lock = threading.RLock()
        self._flock_fd: int | None = None
        self._flock_depth = 0
        # LruSet tracks recency order only; the byte budget drives
        # eviction, so the set's own capacity is effectively unbounded.
        self._lru = LruSet(capacity=1 << 40)
        self._bytes: dict[str, int] = {}
        self._memory: dict[str, StoredResult] = {}
        self.current_bytes = 0
        if self.root:
            self._scan()

    @property
    def persistent(self) -> bool:
        """Whether entries survive process restarts."""
        return self.root is not None

    # -- bookkeeping ---------------------------------------------------

    @contextlib.contextmanager
    def _exclusive(self):
        """Cross-process lock held around publish and eviction.

        Reentrant within the process (callers already hold
        ``self._lock``, so the depth counter is race-free).  Memory-only
        stores and platforms without ``fcntl`` fall back to the
        in-process lock alone.
        """
        if not self.root or fcntl is None:
            yield
            return
        if self._flock_depth == 0:
            if self._flock_fd is None:
                os.makedirs(self.root, exist_ok=True)
                self._flock_fd = os.open(
                    os.path.join(self.root, _LOCK),
                    os.O_CREAT | os.O_RDWR,
                    0o644,
                )
            fcntl.flock(self._flock_fd, fcntl.LOCK_EX)
        self._flock_depth += 1
        try:
            yield
        finally:
            self._flock_depth -= 1
            if self._flock_depth == 0:
                fcntl.flock(self._flock_fd, fcntl.LOCK_UN)

    def _entry_dir(self, key: str) -> str:
        assert self.root is not None
        return os.path.join(self.root, key)

    def _entry_bytes(self, entry: str) -> int:
        total = 0
        try:
            for name in os.listdir(entry):
                total += os.path.getsize(os.path.join(entry, name))
        except OSError:
            pass
        return total

    def _scan(self) -> None:
        """Rebuild accounting from disk, oldest-touched first."""
        if not os.path.isdir(self.root):
            return
        aged = []
        for child in os.listdir(self.root):
            if child.startswith("."):
                # Torn staging dirs and the lock file are not entries.
                continue
            entry = os.path.join(self.root, child)
            meta = os.path.join(entry, _META)
            if not os.path.isfile(meta):
                continue
            try:
                aged.append((os.path.getmtime(entry), child))
            except OSError:
                continue
        for _, key in sorted(aged):
            size = self._entry_bytes(self._entry_dir(key))
            self._lru.touch(key)
            self._bytes[key] = size
            self.current_bytes += size

    def _touch(self, key: str) -> None:
        self._lru.touch(key)
        if self.root:
            try:
                os.utime(self._entry_dir(key))
            except OSError:
                pass

    def _adopt(self, key: str) -> bool:
        """Account an entry another process published under this root.

        Caller holds ``self._lock``.  Returns whether ``key`` is now
        tracked.  Keys are content hashes; anything that could escape
        the root or collide with internal files is rejected outright.
        """
        if key in self._lru:
            return True
        if not self.root or not key or key.startswith(".") or os.sep in key:
            return False
        if not os.path.isfile(os.path.join(self._entry_dir(key), _META)):
            return False
        size = self._entry_bytes(self._entry_dir(key))
        self._lru.touch(key)
        self._bytes[key] = size
        self.current_bytes += size
        return True

    def _evict(self) -> None:
        with self._exclusive():
            while self.current_bytes > self.max_bytes and len(self._lru) > 1:
                victim = self._lru.peek_lru()
                if victim is None:
                    break
                self._drop(victim)

    def _drop(self, key: str) -> None:
        self._lru.discard(key)
        self.current_bytes -= self._bytes.pop(key, 0)
        self._memory.pop(key, None)
        if self.root:
            with self._exclusive():
                shutil.rmtree(self._entry_dir(key), ignore_errors=True)

    # -- the content-addressed interface -------------------------------

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._lru or self._adopt(key)

    def __len__(self) -> int:
        with self._lock:
            return len(self._lru)

    def get(self, key: str) -> dict | None:
        """The stored payload for ``key``, refreshing its recency."""
        record = self._load(key)
        return record.payload if record else None

    def get_rendering(self, key: str) -> str | None:
        """The stored rendering for ``key`` (may be ``None``)."""
        record = self._load(key)
        return record.rendering if record else None

    def lookup(self, key: str) -> StoredResult | None:
        """Payload and rendering of ``key`` from one read, refreshing its
        recency.

        Use this rather than :meth:`get` then :meth:`get_rendering`: an
        entry another process evicts between those two reads would
        yield a payload without its rendering.
        """
        return self._load(key)

    def _load(self, key: str) -> StoredResult | None:
        with self._lock:
            if key not in self._lru and not self._adopt(key):
                return None
            if not self.root:
                self._touch(key)
                return self._memory.get(key)
            entry = self._entry_dir(key)
            try:
                with open(os.path.join(entry, _META), "rb") as handle:
                    payload_json = handle.read().decode("utf-8")
                json.loads(payload_json)  # a torn or foreign entry raises
                rendering = None
                rendering_path = os.path.join(entry, _RENDERING)
                if os.path.exists(rendering_path):
                    with open(rendering_path, "rb") as handle:
                        rendering = handle.read().decode("utf-8")
            except (OSError, json.JSONDecodeError, UnicodeDecodeError):
                # Interrupted or foreign entry: forget it.
                self._drop(key)
                return None
            self._touch(key)
            return StoredResult(payload_json, rendering)

    @staticmethod
    def _write_durable(path: str, data: bytes) -> None:
        """Write one staged file and fsync it before publish."""
        with open(path, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())

    def put(self, key: str, payload: dict, rendering: str | None = None) -> str:
        """Store one result (idempotent: an existing key is refreshed).

        Returns the payload's text as the store encodes it,
        ``json.dumps(payload, sort_keys=True)``.
        """
        payload_json = json.dumps(payload, sort_keys=True)
        with self._lock:
            if key in self._lru or self._adopt(key):
                self._touch(key)
                return payload_json
            if not self.root:
                size = len(payload_json) + len(rendering or "")
                self._memory[key] = StoredResult(payload_json, rendering)
            else:
                os.makedirs(self.root, exist_ok=True)
                staging = tempfile.mkdtemp(prefix=".staging-", dir=self.root)
                try:
                    self._write_durable(
                        os.path.join(staging, _META),
                        payload_json.encode("utf-8"),
                    )
                    if rendering is not None:
                        self._write_durable(
                            os.path.join(staging, _RENDERING),
                            rendering.encode("utf-8"),
                        )
                    size = self._entry_bytes(staging)
                    with self._exclusive():
                        try:
                            os.rename(staging, self._entry_dir(key))
                        except OSError:
                            # A concurrent writer won the publish race;
                            # the content under one key is identical, so
                            # adopt the winner's entry.  (If the rename
                            # failed for any other reason nothing was
                            # published — account nothing.)
                            shutil.rmtree(staging, ignore_errors=True)
                            if self._adopt(key):
                                self._evict()
                            return payload_json
                except BaseException:
                    shutil.rmtree(staging, ignore_errors=True)
                    raise
            self._lru.touch(key)
            self._bytes[key] = size
            self.current_bytes += size
            self._evict()
            return payload_json

    # -- inventory -----------------------------------------------------

    def entries(self) -> list[ResultEntryInfo]:
        """Inventory in LRU order (least recently used first)."""
        with self._lock:
            infos = []
            for key in self._lru:
                payload = None
                stored_at = 0.0
                path = None
                if self.root:
                    path = self._entry_dir(key)
                    try:
                        with open(os.path.join(path, _META)) as handle:
                            payload = json.load(handle)
                        stored_at = os.path.getmtime(path)
                    except (OSError, json.JSONDecodeError):
                        payload = None
                else:
                    record = self._memory.get(key)
                    payload = record.payload if record else None
                    stored_at = time.time()
                payload = payload or {}
                infos.append(
                    ResultEntryInfo(
                        key=key,
                        kind=str(payload.get("kind", "?")),
                        name=str(payload.get("name", "?")),
                        bytes=self._bytes.get(key, 0),
                        stored_at=stored_at,
                        path=path,
                    )
                )
            return infos

    def describe(self) -> dict:
        """Machine-readable inventory (``repro results info --json``)."""
        entries = self.entries()
        return {
            "root": self.root,
            "persistent": self.persistent,
            "max_bytes": self.max_bytes,
            "entry_count": len(entries),
            "total_bytes": self.current_bytes,
            "entries": [info.to_dict() for info in entries],
        }

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        with self._lock:
            removed = len(self._lru)
            for key in list(self._lru):
                self._drop(key)
            return removed


def result_store_for_cache(cache, max_bytes: int | None = None) -> ResultStore:
    """The result store co-located with a trace cache.

    ``cache`` is the cache directory (see
    :func:`repro.runner.cachedir.selected_cache_dir`) or anything with
    a ``root``, such as a :class:`repro.runner.cache.TraceDiskCache`;
    results live under ``<root>/results``.  With ``cache=None`` the
    store is memory-only.
    """
    root = getattr(cache, "root", cache)
    return ResultStore(
        os.path.join(os.fspath(root), "results") if root else None,
        max_bytes=max_bytes,
    )
