"""Verified on-disk entries: the one way the caches publish and read.

Everything under a cache directory (``--cache-dir`` /
``$REPRO_CACHE_DIR``) is an entry of one of three namespaces, each an
:class:`EntryStore` over its own subdirectory: ``traces/`` and
``lineruns/`` (:class:`repro.runner.cache.TraceDiskCache`) and
``results/`` (:class:`repro.service.store.ResultStore`).

An entry is a directory of files.  :meth:`EntryStore.publish` stages
the files, fsyncs each one, writes ``digest.json`` (every file's sha256
and size, plus the namespace's metadata) and renames the directory into
place, so a reader sees a whole entry or none.  :meth:`EntryStore.open`
hashes every listed file again, with streamed reads rather than through
a memory map so that verifying adds nothing to the reader's resident
set.  A missing digest, a missing or unlisted file, or a size or hash
mismatch makes the entry a miss: it is dropped, counted in
:attr:`EntryStore.dropped` and logged, and the caller recomputes.

Names that start with a dot are not entries: ``.lock`` (the result
store's flock file) and ``.staging-*`` (publishes in progress, and
entries being dropped) are never listed or cleared.

The module imports no numpy, so the store-hit server can use it.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import shutil
import tempfile
from collections.abc import Callable, Iterable
from dataclasses import dataclass

from repro.obs.logs import log_event

#: Namespace directories under a cache directory, in listing order.
TRACES = "traces"
LINE_RUNS = "lineruns"
RESULTS = "results"
NAMESPACES = (TRACES, LINE_RUNS, RESULTS)

#: The file naming every other file of an entry with its sha256 and size.
DIGEST = "digest.json"

#: Read size when hashing.  Chunks of 1 MiB raised a verifying
#: process's peak RSS by about 1.4 MB (the allocator keeps them
#: resident); 64 KiB chunks hash as fast at a third of that.
_CHUNK = 1 << 16


@dataclass(frozen=True)
class EntryInfo:
    """Inventory record of one entry; ``meta`` is what its publisher
    recorded in the digest, ``None`` without a readable digest."""

    name: str
    path: str
    bytes: int
    mtime: float
    meta: dict | None


def _hash_file(handle) -> list:
    """``[sha256 hex, size]`` of an open binary file, read in chunks."""
    digest = hashlib.sha256()
    size = 0
    while chunk := handle.read(_CHUNK):
        digest.update(chunk)
        size += len(chunk)
    return [digest.hexdigest(), size]


class EntryStore:
    """One namespace of verified entries under ``root``."""

    def __init__(self, root: str | os.PathLike):
        self.root = os.path.abspath(os.fspath(root))
        #: Entries this instance dropped because they failed verification.
        self.dropped = 0

    def path(self, name: str) -> str:
        """Directory of entry ``name`` (which may not exist)."""
        return os.path.join(self.root, name)

    def publish(
        self,
        name: str,
        write: Callable[[str], None],
        meta: dict | None = None,
    ) -> bool:
        """Publish the files ``write(directory)`` creates as entry ``name``.

        Returns whether this call published the entry.  When a
        concurrent writer published ``name`` first, its entry is kept
        and this copy discarded: the content under one name is
        identical by construction.  An occupant that fails verification
        is dropped and replaced instead.
        """
        os.makedirs(self.root, exist_ok=True)
        staging = tempfile.mkdtemp(prefix=".staging-", dir=self.root)
        try:
            write(staging)
            files = {}
            for file in sorted(os.listdir(staging)):
                with open(os.path.join(staging, file), "rb") as handle:
                    files[file] = _hash_file(handle)
                    os.fsync(handle.fileno())
            with open(os.path.join(staging, DIGEST), "w") as handle:
                json.dump({"files": files, "meta": meta or {}}, handle)
                handle.flush()
                os.fsync(handle.fileno())
            for _ in range(2):
                try:
                    os.rename(staging, self.path(name))
                    return True
                except OSError as exc:
                    if exc.errno not in (errno.EEXIST, errno.ENOTEMPTY):
                        raise
                if self.open(name) is not None:
                    break
            shutil.rmtree(staging, ignore_errors=True)
            return False
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise

    def open(
        self, name: str, read: Iterable[str] = ()
    ) -> dict[str, bytes] | None:
        """Verify entry ``name``; ``None`` on a miss.

        Returns the verified bytes of the entry's files named in
        ``read`` (the others are only hashed).  An entry that fails
        verification is dropped and counted.
        """
        entry = self.path(name)
        if not os.path.isdir(entry):
            return None
        contents = {}
        try:
            with open(os.path.join(entry, DIGEST), "rb") as handle:
                digest = json.load(handle)
            listed = digest.get("files") if isinstance(digest, dict) else None
            if not isinstance(listed, dict) or (
                set(os.listdir(entry)) != {DIGEST, *listed}
            ):
                raise ValueError("malformed digest, or unlisted files")
            for file, expected in listed.items():
                with open(os.path.join(entry, file), "rb") as handle:
                    if file in read:
                        data = contents[file] = handle.read()
                        actual = [hashlib.sha256(data).hexdigest(), len(data)]
                    else:
                        actual = _hash_file(handle)
                if actual != expected:
                    raise ValueError(f"{file} does not match its digest")
        except (OSError, ValueError) as exc:
            # An entry that vanished meanwhile was dropped by someone
            # else: a plain miss.
            if self.drop(name):
                self.dropped += 1
                log_event("cache_entry_dropped", path=entry, reason=str(exc))
            return None
        return contents

    def drop(self, name: str) -> bool:
        """Remove entry ``name``; returns whether it was there.

        The entry is first renamed out of the namespace, so it vanishes
        whole: a concurrent reader never sees it half deleted.
        """
        if not os.path.isdir(self.path(name)):
            return False
        grave = tempfile.mkdtemp(prefix=".staging-", dir=self.root)
        try:
            os.rename(self.path(name), os.path.join(grave, name))
        except FileNotFoundError:
            return False
        finally:
            shutil.rmtree(grave, ignore_errors=True)
        return True

    def names(self) -> list[str]:
        """Every entry name, sorted."""
        try:
            with os.scandir(self.root) as children:
                return sorted(
                    child.name for child in children
                    if child.is_dir() and not child.name.startswith(".")
                )
        except FileNotFoundError:
            return []

    def info(self, name: str) -> EntryInfo | None:
        """Size, age and metadata of entry ``name``; ``None`` if gone."""
        entry = self.path(name)
        try:
            size = sum(
                os.path.getsize(os.path.join(entry, file))
                for file in os.listdir(entry)
            )
            mtime = os.path.getmtime(entry)
        except OSError:
            return None
        try:
            with open(os.path.join(entry, DIGEST)) as handle:
                meta = json.load(handle)["meta"]
        except (OSError, ValueError, LookupError, TypeError):
            meta = None
        return EntryInfo(name, entry, size, mtime, meta)

    def entries(self) -> list[EntryInfo]:
        """Inventory of every entry, sorted by name."""
        infos = (self.info(name) for name in self.names())
        return [info for info in infos if info is not None]

    def clear(self) -> int:
        """Drop every entry; returns the number removed."""
        return sum(self.drop(name) for name in self.names())
