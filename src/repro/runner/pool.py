"""Process-pool execution of independent cells in a deterministic order.

The paper's results are sweeps — hundreds of (workload x configuration)
cells — and every cell is independent: synthesize/load a trace, encode
it, simulate, reduce.  :func:`run_cells` fans cells across a
``ProcessPoolExecutor`` and returns the results *in cell order*, so a
``--jobs 8`` run produces bit-identical tables to a serial one: each
cell's arithmetic is unchanged and the merge order is fixed by the
cell list, not by completion order.

A cell is any object with ``key``, ``fn`` and ``args`` attributes; the
sweep-plan executor (:mod:`repro.plan.executor`) hands its plan cells
straight to :func:`run_cells`.  This module knows nothing of plans or
experiments.  Worker processes re-apply the parent's trace-cache
configuration, so all workers share one on-disk cache and memory-map
the same trace files instead of each synthesizing private copies.
"""

from __future__ import annotations

import os
import time
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor

import multiprocessing

from repro.fetch import dispatch
from repro.obs import tracing
from repro.runner import timing
from repro.runner.timing import CellTiming


class CellExecutionError(RuntimeError):
    """A cell failure carrying the identity of the failing cell.

    A bare exception escaping a pool worker tells the caller *nothing*
    about which (workload, configuration) cell died — with eight workers
    in flight, that makes parallel failures undebuggable.  Every worker
    failure is therefore re-raised as this type, whose message names the
    cell key and the original error.  ``__reduce__`` keeps it picklable
    across the process boundary (chained ``__cause__`` is not, reliably).

    Attributes:
        key: the failing cell's identity tuple.
        message: ``"TypeName: str(original)"`` of the underlying error.
    """

    def __init__(self, key: tuple, message: str):
        super().__init__(f"experiment cell {key!r} failed: {message}")
        self.key = key
        self.message = message

    def __reduce__(self):
        return (type(self), (self.key, self.message))


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``--jobs`` value (``None``/``0`` = all cores)."""
    if jobs is None or jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def _cell_attrs(args: tuple) -> dict:
    """Span attributes derivable from a cell's arguments.

    Duck-typed detection of an :class:`ExperimentSettings`-shaped
    argument (this module cannot import the experiments layer), so
    every cell span carries the run parameters the manifest promises.
    """
    for arg in args:
        if hasattr(arg, "n_instructions") and hasattr(arg, "engine"):
            return {
                "n_instructions": arg.n_instructions,
                "seed": arg.seed,
                "engine": arg.engine,
            }
    return {}


def _execute_cell(key: tuple, fn: Callable, args: tuple):
    """Run one cell under fresh phase/dispatch accumulators (worker side)."""
    timing.reset()
    dispatch.reset()
    start = time.perf_counter()
    with tracing.cell_capture(key, _cell_attrs(args)) as captured:
        try:
            result = fn(*args)
        except CellExecutionError:
            raise
        except Exception as exc:
            raise CellExecutionError(
                key, f"{type(exc).__name__}: {exc}"
            ) from exc
    wall = time.perf_counter() - start
    cell_timing = CellTiming(
        key=key,
        wall_seconds=wall,
        phases=timing.snapshot(reset=True),
        dispatch=dispatch.snapshot(reset=True),
    )
    return result, cell_timing, captured.records


def _registry_snapshot() -> dict:
    """The parent's trace-cache configuration, for worker re-application."""
    from repro.workloads import registry

    backend = registry.trace_cache_backend()
    stats = registry.trace_cache_stats()
    return {
        "cache_dir": getattr(backend, "root", None),
        "max_entries": stats["max_entries"],
        "max_bytes": stats["max_bytes"],
        "obs_capture": tracing.active_recorder() is not None,
    }


def _worker_init(config: dict) -> None:
    """Apply the parent's cache configuration in a worker process."""
    from repro.runner.cache import TraceDiskCache
    from repro.workloads import registry

    cache_dir = config.get("cache_dir")
    registry.set_trace_cache_backend(
        TraceDiskCache(cache_dir) if cache_dir else None
    )
    registry.configure_trace_cache(
        config.get("max_entries"), config.get("max_bytes")
    )
    # When the coordinating run is traced, cells capture spans locally
    # and ship them back for re-parenting under the run's trace id.
    tracing.enable_worker_capture(config.get("obs_capture", False))


def _pool_context():
    """Prefer ``fork`` (cheap, inherits warm state) where available."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else methods[0]
    )


def run_cells(
    cells: Sequence, jobs: int = 1
) -> tuple[list, list[CellTiming]]:
    """Execute ``cells`` and return (results, timings) in cell order.

    Each cell computes ``cell.fn(*cell.args)``; ``cell.key`` names it in
    its timing and in any :class:`CellExecutionError`.

    ``jobs <= 1`` runs in-process; anything larger fans out over a
    process pool.  Either way the returned lists align with ``cells``,
    which is what makes parallel merges deterministic.
    """
    jobs = min(resolve_jobs(jobs), max(len(cells), 1))
    if jobs <= 1 or len(cells) <= 1:
        outcomes = [_execute_cell(c.key, c.fn, c.args) for c in cells]
    else:
        config = _registry_snapshot()
        with ProcessPoolExecutor(
            max_workers=jobs,
            mp_context=_pool_context(),
            initializer=_worker_init,
            initargs=(config,),
        ) as pool:
            futures = [
                pool.submit(_execute_cell, c.key, c.fn, c.args) for c in cells
            ]
            outcomes = [future.result() for future in futures]
        # Workers count dispatches in their own processes; fold them
        # into this process's totals so those match a serial run.  The
        # worker spans adopted below carry phases, dispatch and
        # trace-cache events to any traced run.
        for _, cell_timing, _ in outcomes:
            dispatch.notify(cell_timing.dispatch)
        recorder = tracing.active_recorder()
        if recorder is not None:
            parent = tracing.current_span()
            parent_id = parent.span_id if parent is not None else None
            for _, _, spans in outcomes:
                recorder.adopt(spans, parent_id)
    results = [result for result, _, _ in outcomes]
    timings = [cell_timing for _, cell_timing, _ in outcomes]
    return results, timings
