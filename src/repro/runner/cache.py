"""Persistent on-disk cache of synthesized traces and their line runs.

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

The per-line-size run-length-encoded instruction streams
(:func:`repro.trace.rle.to_line_runs`) that every sweep needs are
entries of their own, named after their trace and line size.  A stream
is stored as it is held, each column at the narrowest width
:class:`~repro.trace.rle.LineRuns` gave it (a 4-byte fetch stream's
lines as ``uint32`` and counts as ``uint8``: 6 bytes a run), and it
loads at that width; an entry written at other widths loads at these,
value for value.  Both namespaces publish and verify through
:mod:`repro.runner.entrystore`, so a corrupt or torn entry is a miss
that is recomputed, never a wrong trace.

The cache directory comes from the ``REPRO_CACHE_DIR`` environment
variable or the CLI's ``--cache-dir`` flag (see
:mod:`repro.runner.cachedir`); with neither set, caching is disabled
and behaviour is identical to the pre-cache library.
"""

from __future__ import annotations

import os

import numpy as np

from repro.runner.entrystore import LINE_RUNS, TRACES, EntryStore
from repro.trace.io import load_trace_columns, save_trace_columns
from repro.trace.rle import LineRuns
from repro.trace.trace import Trace
# params_fingerprint lives with the params records, numpy-free, so the
# serving layer can derive job keys without loading this module.
from repro.workloads import params as workload_params
from repro.workloads.params import WorkloadParams, params_fingerprint

#: Length of the fingerprint prefix used in entry names (the full digest
#: is kept in the entry's metadata).
_FP_PREFIX = 12

#: The one file of a line-run entry.
_RUNS = "runs.npz"


class TraceDiskCache:
    """Traces and their line runs, as two namespaces of verified entries."""

    def __init__(self, root: str | os.PathLike):
        self.root = os.path.abspath(os.fspath(root))
        self.traces = EntryStore(os.path.join(self.root, TRACES))
        self.line_runs = EntryStore(os.path.join(self.root, LINE_RUNS))

    # -- keys ----------------------------------------------------------

    @staticmethod
    def _name(params: WorkloadParams, n_instructions: int, seed: int) -> str:
        fingerprint = params_fingerprint(params)[:_FP_PREFIX]
        return (
            f"{params.name}-{params.os_name}-{n_instructions}-{seed}"
            f"-{fingerprint}"
        )

    # -- traces --------------------------------------------------------

    def load(
        self, params: WorkloadParams, n_instructions: int, seed: int
    ) -> Trace | None:
        """The cached trace, memory-mapped, or ``None`` on a miss."""
        name = self._name(params, n_instructions, seed)
        if self.traces.open(name) is None:
            return None
        try:
            return load_trace_columns(self.traces.path(name), mmap=True)
        except ValueError:
            # Verified, but not this format version (or dropped since).
            return None

    def store(
        self,
        trace: Trace,
        params: WorkloadParams,
        n_instructions: int,
        seed: int,
    ) -> str:
        """Persist ``trace``; returns the entry directory.

        A concurrent writer that published the same key first keeps its
        entry (the key covers everything that determines the bytes).
        """
        name = self._name(params, n_instructions, seed)
        self.traces.publish(
            name,
            lambda staging: save_trace_columns(trace, staging),
            meta={
                "name": params.name,
                "os": params.os_name,
                "n_instructions": n_instructions,
                "seed": seed,
                "fingerprint": params_fingerprint(params),
                # Read at call time, as params_fingerprint does, so the
                # entry records the version its key was derived under.
                "generator_version": workload_params.GENERATOR_VERSION,
            },
        )
        return self.traces.path(name)

    # -- line runs -----------------------------------------------------

    def load_line_runs(
        self,
        params: WorkloadParams,
        n_instructions: int,
        seed: int,
        line_size: int,
    ) -> LineRuns | None:
        """The cached RLE instruction stream at one line size, if any."""
        name = f"{self._name(params, n_instructions, seed)}-{line_size}"
        if self.line_runs.open(name) is None:
            return None
        path = os.path.join(self.line_runs.path(name), _RUNS)
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
        """Persist an RLE stream as its own entry.

        Requires its trace's entry to exist already (the stream is
        derived from it); returns ``None`` when it does not.
        """
        trace = self._name(params, n_instructions, seed)
        if not os.path.isdir(self.traces.path(trace)):
            return None
        name = f"{trace}-{runs.line_size}"
        self.line_runs.publish(
            name,
            lambda staging: np.savez(
                os.path.join(staging, _RUNS),
                lines=runs.lines,
                counts=runs.counts,
                first_offsets=runs.first_offsets,
            ),
            meta={"trace": trace, "line_size": runs.line_size},
        )
        return self.line_runs.path(name)
