"""Per-phase wall-time accounting for the experiment runner.

The sweep engine wants to know *where* an experiment's wall-clock time
goes — synthesizing traces, run-length encoding them, or simulating
caches — so perf work on the runner has a measured baseline instead of
guesses.  The hot paths mark themselves with the :func:`phase` context
manager; the pool runner snapshots the per-thread accumulator around
every experiment cell and merges the results into a
:class:`TimingReport` written as JSON next to the experiment output.
Every phase exit also annotates the active span through
:func:`repro.obs.tracing.on_phase`, which is how traced runs and the
serving tier's ``/metrics`` see phase time.

Nesting attributes time to the *innermost* phase only: a ``simulate``
block that internally re-encodes a stream under a ``line-runs`` phase
reports the encoding time as ``line-runs``, not twice.  The overhead is
two ``perf_counter`` calls per phase entry, far below the milliseconds
the instrumented phases take.

This module imports only :mod:`repro.obs.tracing` (which imports
nothing from the library) so the low-level modules (registry, RLE
encoder, metrics) can use it without import cycles.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.obs import tracing

#: Phase names used by the instrumented library code.
PHASE_SYNTHESIZE = "synthesize"
PHASE_TRACE_LOAD = "trace-load"
PHASE_LINE_RUNS = "line-runs"
PHASE_SIMULATE = "simulate"

_state = threading.local()


def _frames() -> list[list]:
    frames = getattr(_state, "frames", None)
    if frames is None:
        frames = _state.frames = []
    return frames


def _phases() -> dict[str, float]:
    phases = getattr(_state, "phases", None)
    if phases is None:
        phases = _state.phases = {}
    return phases


@contextmanager
def phase(name: str) -> Iterator[None]:
    """Attribute the wall time of the enclosed block to ``name``.

    Re-entrant: time spent in a nested phase is charged to the inner
    phase and subtracted from the outer one.
    """
    frames = _frames()
    # frame = [name, start, time consumed by nested phases]
    frame = [name, time.perf_counter(), 0.0]
    frames.append(frame)
    try:
        yield
    finally:
        elapsed = time.perf_counter() - frame[1]
        frames.pop()
        net = max(elapsed - frame[2], 0.0)
        phases = _phases()
        phases[name] = phases.get(name, 0.0) + net
        if frames:
            frames[-1][2] += elapsed
        tracing.on_phase(name, net)


def snapshot(reset: bool = False) -> dict[str, float]:
    """The accumulated seconds per phase on this thread (a copy)."""
    phases = dict(_phases())
    if reset:
        _phases().clear()
    return phases


def reset() -> None:
    """Zero this thread's phase accumulator."""
    _phases().clear()
    del _frames()[:]


def _flatten_dispatch(
    nested: Mapping[str, Mapping[str, int]]
) -> dict[tuple[str, str], int]:
    """Inverse of :func:`~repro.obs.tracing.nest_dispatch`."""
    counts: dict[tuple[str, str], int] = {}
    for engine, mechanisms in nested.items():
        for mechanism, count in mechanisms.items():
            counts[(mechanism, engine)] = count
    return counts


@dataclass(frozen=True)
class CellTiming:
    """Wall-clock accounting of one experiment cell.

    Attributes:
        key: the cell's identity (experiment-specific tuple).
        wall_seconds: total wall time of the cell.
        phases: seconds per instrumented phase inside the cell; the
            remainder (``wall - sum(phases)``) is uninstrumented glue.
        dispatch: fetch-engine dispatch decisions made inside the cell
            as ``(mechanism, engine) -> count`` (see
            :mod:`repro.fetch.dispatch`) — how often the vectorized
            kernels ran versus the reference fallback.
    """

    key: tuple
    wall_seconds: float
    phases: dict[str, float] = field(default_factory=dict)
    dispatch: dict[tuple[str, str], int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "key": list(self.key),
            "wall_seconds": self.wall_seconds,
            "phases": dict(self.phases),
            "engine_dispatch": tracing.nest_dispatch(self.dispatch),
        }


@dataclass(frozen=True)
class TimingReport:
    """Aggregated timing of one runner invocation.

    Attributes:
        label: what was run (experiment or report name).
        jobs: worker processes used (1 = in-process serial).
        wall_seconds: end-to-end wall time including scheduling.
        cells: per-cell accounting in deterministic merge order.
        plan: sweep-plan dedup stats when the run went through the
            plan executor (``cells_total``, ``cells_unique``,
            ``inputs_total``, ``inputs_shared``, ``inputs_primed``,
            plus priming wall/phase accounting); ``None`` for raw
            pool runs.
    """

    label: str
    jobs: int
    wall_seconds: float
    cells: tuple[CellTiming, ...]
    plan: dict | None = None

    @property
    def phase_totals(self) -> dict[str, float]:
        """Seconds per phase summed over all cells (plus plan priming).

        A plan-executed run does part of the work — trace synthesis,
        line-run encoding, batched mask passes — once up front in the
        parent; those seconds live in the plan stats' ``prime_phases``
        and are folded in here so the totals still account for all
        work performed.
        """
        totals: dict[str, float] = {}
        for cell in self.cells:
            for name, seconds in cell.phases.items():
                totals[name] = totals.get(name, 0.0) + seconds
        if self.plan:
            for name, seconds in self.plan.get("prime_phases", {}).items():
                totals[name] = totals.get(name, 0.0) + seconds
        return totals

    @property
    def dispatch_totals(self) -> dict[tuple[str, str], int]:
        """Engine-dispatch counts summed over all cells.

        A nonzero reference count for a mechanism the vectorized
        kernels claim to cover is a coverage regression — visible here
        without waiting for the wall-clock to say so.
        """
        totals: dict[tuple[str, str], int] = {}
        for cell in self.cells:
            for key, count in cell.dispatch.items():
                totals[key] = totals.get(key, 0) + count
        return totals

    def to_dict(self) -> dict:
        record = {
            "label": self.label,
            "jobs": self.jobs,
            "wall_seconds": self.wall_seconds,
            "phase_totals": self.phase_totals,
            "engine_dispatch": tracing.nest_dispatch(self.dispatch_totals),
            "cells": [cell.to_dict() for cell in self.cells],
        }
        if self.plan is not None:
            record["plan"] = dict(self.plan)
        return record

    def write(self, path: str | os.PathLike) -> None:
        """Write the report as JSON to ``path``."""
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    @classmethod
    def from_dict(cls, data: Mapping) -> "TimingReport":
        """Rebuild a report from its :meth:`to_dict` shape.

        Cell keys round-trip as tuples (JSON stores them as lists) and
        dispatch counts as ``(mechanism, engine)`` keys, so
        ``phase_totals``/``dispatch_totals`` of the reloaded report
        equal the original's.
        """
        cells = tuple(
            CellTiming(
                key=tuple(cell["key"]),
                wall_seconds=cell["wall_seconds"],
                phases=dict(cell.get("phases", {})),
                dispatch=_flatten_dispatch(cell.get("engine_dispatch", {})),
            )
            for cell in data.get("cells", [])
        )
        return cls(
            label=data["label"],
            jobs=data["jobs"],
            wall_seconds=data["wall_seconds"],
            cells=cells,
            plan=data.get("plan"),
        )

    @classmethod
    def read(cls, path: str | os.PathLike) -> "TimingReport":
        """Load a report written by :meth:`write`."""
        with open(path) as handle:
            return cls.from_dict(json.load(handle))
