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

Each result is one verified entry (:mod:`repro.runner.entrystore`) of
the ``results`` namespace, conventionally ``<cache-dir>/results``,
holding ``meta.json`` (the JSON payload) plus an optional
``rendering.txt`` (the rendered table, kept as raw bytes so large
renderings stay out of the JSON).  Entries are published whole and
verified on every read, so a torn, truncated or altered entry is a miss
that is recomputed.

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
import threading
import time
from dataclasses import asdict, dataclass

try:  # POSIX-only; the store degrades to in-process locking without it.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None

from repro._util.lru import LruSet
from repro.runner.entrystore import RESULTS, EntryStore

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
    """Inventory record of one stored result (``GET /v1/results``)."""

    key: str
    kind: str
    name: str
    bytes: int
    stored_at: float
    path: str | None


class ResultStore:
    """An LRU-bounded, content-addressed result cache (disk or memory)."""

    def __init__(self, root: str | os.PathLike | None, max_bytes: int | None = None):
        self._entries = EntryStore(root) if root else None
        self.root = self._entries.root if self._entries else None
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
        # Oldest-touched first; a directory without a digest is not a
        # published entry.
        infos = self._entries.entries() if self._entries else []
        for info in sorted(infos, key=lambda info: info.mtime):
            if info.meta is not None:
                self._account(info.name, info.bytes)

    @property
    def persistent(self) -> bool:
        """Whether entries survive process restarts."""
        return self.root is not None

    @property
    def dropped(self) -> int:
        """Entries dropped on read because they failed verification."""
        return self._entries.dropped if self._entries else 0

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

    def _account(self, key: str, size: int) -> None:
        self._lru.touch(key)
        self._bytes[key] = size
        self.current_bytes += size

    def _touch(self, key: str) -> None:
        self._lru.touch(key)
        if self._entries:
            with contextlib.suppress(OSError):
                os.utime(self._entries.path(key))

    def _adopt(self, key: str) -> bool:
        """Account an entry another process published under this root.

        Caller holds ``self._lock``.  Returns whether ``key`` is now
        tracked.  Keys are content hashes; anything that could escape
        the root or collide with internal files is rejected outright.
        """
        if key in self._lru:
            return True
        hostile = not key or key.startswith(".") or os.sep in key
        if not self._entries or hostile:
            return False
        info = self._entries.info(key)
        if info is None or info.meta is None:
            return False
        self._account(key, info.bytes)
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
        if self._entries:
            with self._exclusive():
                self._entries.drop(key)

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
            if not self._entries:
                self._touch(key)
                return self._memory.get(key)
            files = self._entries.open(key, read=(_META, _RENDERING))
            if files is None or _META not in files:
                # Evicted by another process, corrupt (the entry store
                # dropped it) or foreign: forget it.
                self._drop(key)
                return None
            self._touch(key)
            rendering = files.get(_RENDERING)
            return StoredResult(
                files[_META].decode("utf-8"),
                None if rendering is None else rendering.decode("utf-8"),
            )

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
            if not self._entries:
                self._memory[key] = StoredResult(payload_json, rendering)
                self._account(key, len(payload_json) + len(rendering or ""))
            else:
                def write(staging: str) -> None:
                    for name, text in (
                        (_META, payload_json), (_RENDERING, rendering)
                    ):
                        if text is not None:
                            path = os.path.join(staging, name)
                            with open(path, "wb") as handle:
                                handle.write(text.encode("utf-8"))

                meta = {k: str(payload.get(k, "?")) for k in ("kind", "name")}
                with self._exclusive():
                    # Published here or by a concurrent writer, the
                    # entry under one key is the same: account it.
                    self._entries.publish(key, write, meta)
                    if not self._adopt(key):
                        return payload_json
            self._evict()
            return payload_json

    # -- inventory -----------------------------------------------------

    def entries(self) -> list[ResultEntryInfo]:
        """Inventory in LRU order (least recently used first)."""
        with self._lock:
            infos = []
            for key in self._lru:
                info = self._entries.info(key) if self._entries else None
                record = self._memory.get(key)
                meta = (info and info.meta) or (record and record.payload)
                infos.append(ResultEntryInfo(
                    key=key,
                    kind=str((meta or {}).get("kind", "?")),
                    name=str((meta or {}).get("name", "?")),
                    bytes=self._bytes.get(key, 0),
                    stored_at=info.mtime if info else time.time(),
                    path=info.path if info else None,
                ))
            return infos

    def describe(self) -> dict:
        """Machine-readable inventory (``GET /v1/results``)."""
        entries = self.entries()
        return {
            "root": self.root,
            "persistent": self.persistent,
            "max_bytes": self.max_bytes,
            "entry_count": len(entries),
            "total_bytes": self.current_bytes,
            "entries": [asdict(info) for info in entries],
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
    results live in its ``results`` namespace.  With ``cache=None`` the
    store is memory-only.
    """
    root = getattr(cache, "root", cache)
    return ResultStore(
        os.path.join(os.fspath(root), RESULTS) if root else None,
        max_bytes=max_bytes,
    )
