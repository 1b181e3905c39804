"""Per-phase wall-time accounting for the experiment runner.

The sweep engine wants to know *where* an experiment's wall-clock time
goes — synthesizing traces, run-length encoding them, or simulating
caches — so perf work on the runner has a measured baseline instead of
guesses.  The hot paths mark themselves with the :func:`phase` context
manager, whose exit charges the phase's net seconds to the active span
through :func:`repro.obs.tracing.on_phase`.  Every experiment cell runs
inside a span capture (:func:`repro.obs.tracing.capture`), so the pool
runner's per-cell timing is the cell span's rollup
(:func:`repro.obs.export.span_rollup`), which ``--timing-out`` writes
as JSON; traced runs and the serving tier's ``/metrics`` read the same
spans.

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

import threading
import time
from contextlib import contextmanager
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
        if frames:
            frames[-1][2] += elapsed
        tracing.on_phase(name, net)
