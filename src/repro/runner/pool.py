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
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor

import multiprocessing

from repro.fetch import dispatch
from repro.obs import tracing
from repro.obs.export import span_rollup
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
    """Run one cell under a span capture; its timing is the rollup."""
    with tracing.capture("cell", key=key, **_cell_attrs(args)) as records:
        try:
            result = fn(*args)
        except CellExecutionError:
            raise
        except Exception as exc:
            raise CellExecutionError(
                key, f"{type(exc).__name__}: {exc}"
            ) from exc
    rollup = span_rollup(records, records[-1])
    return result, CellTiming.from_dict(dict(rollup, key=key)), records


def _registry_snapshot() -> dict:
    """The parent's trace-cache configuration, for worker re-application."""
    from repro.workloads import registry

    backend = registry.trace_cache_backend()
    stats = registry.trace_cache_stats()
    return {
        "cache_dir": getattr(backend, "root", None),
        "max_entries": stats["max_entries"],
        "max_bytes": stats["max_bytes"],
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
        # In-process cells adopt their own spans into a traced run.
        pairs = [_execute_cell(c.key, c.fn, c.args)[:2] for c in cells]
        return [result for result, _ in pairs], [timing for _, timing in pairs]
    recorder = tracing.active_recorder()
    parent = tracing.current_span()
    parent_id = parent.span_id if parent is not None else None
    results, timings = [], []
    with ProcessPoolExecutor(
        max_workers=jobs,
        mp_context=_pool_context(),
        initializer=_worker_init,
        initargs=(_registry_snapshot(),),
    ) as pool:
        futures = [
            pool.submit(_execute_cell, c.key, c.fn, c.args) for c in cells
        ]
        for future in futures:
            result, cell_timing, records = future.result()
            # Workers count dispatches in their own processes; fold them
            # into this process's totals so those match a serial run.
            dispatch.notify(cell_timing.dispatch)
            if recorder is not None:
                recorder.adopt(records, parent_id)
            results.append(result)
            timings.append(cell_timing)
    return results, timings
