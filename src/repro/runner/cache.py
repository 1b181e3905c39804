"""Persistent on-disk cache of synthesized traces and derived artifacts.

Synthesizing a multi-million-reference trace costs seconds; every fresh
``repro report`` run used to pay that cost again for every workload.
This cache keeps each synthesized :class:`~repro.trace.trace.Trace` on
disk as plain per-column ``.npy`` files so later runs — and concurrent
worker processes of the parallel sweep runner — load it with
``np.load(mmap_mode="r")`` and share the physical pages.

Entries are keyed by everything that determines the trace bytes:
``(name, os, n_instructions, seed)`` plus a fingerprint of the full
:class:`~repro.workloads.params.WorkloadParams` record and the
synthesizer version (:data:`~repro.workloads.params.GENERATOR_VERSION`).
Recalibrating a workload or changing the generator therefore changes the
key; stale entries are simply never matched again (``repro cache clear``
reclaims the space).

Derived artifacts ride along: the per-line-size run-length-encoded
instruction streams (:func:`repro.trace.rle.to_line_runs`) that every
sweep needs are memoized as ``lineruns-<bytes>.npz`` inside the owning
trace's entry directory.

The cache directory comes from the ``REPRO_CACHE_DIR`` environment
variable or the CLI's ``--cache-dir`` flag (see
:mod:`repro.runner.cachedir`); with neither set, caching is disabled
and behaviour is identical to the pre-cache library.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from dataclasses import dataclass

import numpy as np

from repro.trace.io import load_trace_columns, save_trace_columns
from repro.trace.rle import LineRuns
from repro.trace.trace import Trace
# params_fingerprint lives with the params records, numpy-free, so the
# serving layer can derive job keys without loading this module.
from repro.workloads import params as workload_params
from repro.workloads.params import WorkloadParams, params_fingerprint

#: Length of the fingerprint prefix used in entry directory names (the
#: full digest is kept in the entry's ``entry.json`` for verification).
_FP_PREFIX = 12


@dataclass(frozen=True)
class CacheEntryInfo:
    """Inventory record of one cached trace (for ``repro cache info``)."""

    name: str
    os_name: str
    n_instructions: int
    seed: int
    path: str
    bytes: int
    artifacts: int
    generator_version: int

    def to_dict(self) -> dict:
        """JSON-ready record (for ``repro cache info --json``)."""
        return {
            "name": self.name,
            "os": self.os_name,
            "n_instructions": self.n_instructions,
            "seed": self.seed,
            "path": self.path,
            "bytes": self.bytes,
            "artifacts": self.artifacts,
            "generator_version": self.generator_version,
        }


class TraceDiskCache:
    """A directory of memory-mappable trace and line-run artifacts."""

    def __init__(self, root: str | os.PathLike):
        self.root = os.path.abspath(os.fspath(root))

    # -- keys ----------------------------------------------------------

    def entry_dir(
        self, params: WorkloadParams, n_instructions: int, seed: int
    ) -> str:
        """Directory holding the entry for one fully-specified trace."""
        fingerprint = params_fingerprint(params)[:_FP_PREFIX]
        name = (
            f"{params.name}-{params.os_name}-{n_instructions}-{seed}"
            f"-{fingerprint}"
        )
        return os.path.join(self.root, name)

    # -- traces --------------------------------------------------------

    def load(
        self, params: WorkloadParams, n_instructions: int, seed: int
    ) -> Trace | None:
        """The cached trace, memory-mapped, or ``None`` on a miss."""
        entry = self.entry_dir(params, n_instructions, seed)
        if not os.path.isdir(entry):
            return None
        try:
            return load_trace_columns(entry, mmap=True)
        except ValueError:
            # Interrupted store or foreign directory: treat as a miss.
            return None

    def store(
        self,
        trace: Trace,
        params: WorkloadParams,
        n_instructions: int,
        seed: int,
    ) -> str:
        """Persist ``trace``; returns the entry directory.

        Atomic against concurrent writers: the entry is assembled in a
        temporary directory and renamed into place; whoever renames
        first wins and the loser's bytes are discarded (both wrote
        identical content — the key covers everything that determines
        it).
        """
        entry = self.entry_dir(params, n_instructions, seed)
        if os.path.isdir(entry):
            return entry
        os.makedirs(self.root, exist_ok=True)
        staging = tempfile.mkdtemp(prefix=".staging-", dir=self.root)
        try:
            save_trace_columns(trace, staging)
            with open(os.path.join(staging, "entry.json"), "w") as handle:
                json.dump(
                    {
                        "name": params.name,
                        "os_name": params.os_name,
                        "n_instructions": n_instructions,
                        "seed": seed,
                        "fingerprint": params_fingerprint(params),
                        # Read at call time, as params_fingerprint
                        # does, so the entry records the version its
                        # key was derived under.
                        "generator_version": (
                            workload_params.GENERATOR_VERSION
                        ),
                    },
                    handle,
                )
            try:
                os.rename(staging, entry)
            except OSError:
                # A concurrent worker beat us to it.
                shutil.rmtree(staging, ignore_errors=True)
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        return entry

    # -- derived artifacts ---------------------------------------------

    def load_line_runs(
        self,
        params: WorkloadParams,
        n_instructions: int,
        seed: int,
        line_size: int,
    ) -> LineRuns | None:
        """The cached RLE instruction stream at one line size, if any."""
        path = os.path.join(
            self.entry_dir(params, n_instructions, seed),
            f"lineruns-{line_size}.npz",
        )
        if not os.path.exists(path):
            return None
        try:
            with np.load(path) as archive:
                return LineRuns(
                    lines=archive["lines"],
                    counts=archive["counts"],
                    first_offsets=archive["first_offsets"],
                    line_size=line_size,
                )
        except (OSError, KeyError, ValueError):
            return None

    def store_line_runs(
        self,
        runs: LineRuns,
        params: WorkloadParams,
        n_instructions: int,
        seed: int,
    ) -> str | None:
        """Persist an RLE stream under its trace's entry.

        Requires the trace entry to exist already (the stream is derived
        from it); returns ``None`` when it does not.
        """
        entry = self.entry_dir(params, n_instructions, seed)
        if not os.path.isdir(entry):
            return None
        path = os.path.join(entry, f"lineruns-{runs.line_size}.npz")
        if os.path.exists(path):
            return path
        fd, staging = tempfile.mkstemp(suffix=".npz.tmp", dir=entry)
        os.close(fd)
        try:
            with open(staging, "wb") as handle:
                np.savez(
                    handle,
                    lines=runs.lines,
                    counts=runs.counts,
                    first_offsets=runs.first_offsets,
                )
            os.replace(staging, path)
        except BaseException:
            if os.path.exists(staging):
                os.unlink(staging)
            raise
        return path

    # -- inventory -----------------------------------------------------

    def entries(self) -> list[CacheEntryInfo]:
        """Inventory of every complete entry, sorted by name."""
        if not os.path.isdir(self.root):
            return []
        infos = []
        for child in sorted(os.listdir(self.root)):
            entry = os.path.join(self.root, child)
            meta_path = os.path.join(entry, "entry.json")
            if not os.path.isfile(meta_path):
                continue
            try:
                with open(meta_path) as handle:
                    meta = json.load(handle)
            except (OSError, json.JSONDecodeError):
                continue
            total = 0
            artifacts = 0
            for name in os.listdir(entry):
                total += os.path.getsize(os.path.join(entry, name))
                if name.startswith("lineruns-"):
                    artifacts += 1
            infos.append(
                CacheEntryInfo(
                    name=str(meta.get("name", child)),
                    os_name=str(meta.get("os_name", "?")),
                    n_instructions=int(meta.get("n_instructions", 0)),
                    seed=int(meta.get("seed", 0)),
                    path=entry,
                    bytes=total,
                    artifacts=artifacts,
                    # Entries written before the field existed are all
                    # from generator v1.
                    generator_version=int(meta.get("generator_version", 1)),
                )
            )
        return infos

    def total_bytes(self) -> int:
        """Bytes held by all complete entries."""
        return sum(info.bytes for info in self.entries())

    def describe(self) -> dict:
        """Machine-readable inventory of the whole cache.

        The structured twin of ``repro cache info``'s text rendering, so
        tooling and the HTTP service consume cache state without
        scraping.
        """
        entries = self.entries()
        return {
            "root": self.root,
            "entry_count": len(entries),
            "total_bytes": sum(info.bytes for info in entries),
            "entries": [info.to_dict() for info in entries],
        }

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        if not os.path.isdir(self.root):
            return removed
        for child in os.listdir(self.root):
            entry = os.path.join(self.root, child)
            if os.path.isdir(entry):
                shutil.rmtree(entry, ignore_errors=True)
                removed += 1
        return removed
