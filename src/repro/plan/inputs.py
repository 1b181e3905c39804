"""Shared-input derivation and priming.

:func:`mask_shape_plan` and :func:`prime_miss_masks` are the plan IR's
substrate: every compiled experiment derives its mask-family
annotations through them, and the executor primes with them.

This module deliberately avoids importing the experiments layer (which
imports it): sweep points are duck-typed — anything with ``config``
(a :class:`~repro.core.config.MemorySystemConfig`) and ``mechanism``
attributes qualifies, which both
:class:`~repro.experiments.common.FetchPoint` and the service
scheduler's ``(config, mechanism)`` pairs satisfy.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Iterable, Sequence

from repro._util.bitops import ilog2
from repro.caches.vectorized import line_order_cache
from repro.fetch import vectorized
from repro.plan.ir import MaskFamily, PlanCell, TraceKey
from repro.runner import timing
from repro.trace.rle import LineRuns
from repro.workloads.registry import suite_workloads

__all__ = [
    "DEMAND_MASK_MECHANISMS",
    "mask_families",
    "mask_shape_plan",
    "point_streams",
    "prime_miss_masks",
    "run_cell",
    "workload_trace_keys",
]

#: Mechanisms whose vectorized kernels consult the plain demand miss
#: mask, so their L1 shapes can join the batched multi-geometry pass.
DEMAND_MASK_MECHANISMS = frozenset({"demand", "stream-buffer"})

#: Each sequential-prefetch mechanism's default ``n_prefetch`` (as
#: :func:`~repro.fetch.vectorized.run_vectorized` reads it).  At depth 0
#: nothing is installed, so the kernel reads the demand mask.
_PREFETCH_DEFAULT_DEPTH = {"prefetch": 1, "prefetch+bypass": 0}


def _reads_demand_mask(point) -> bool:
    if point.mechanism in DEMAND_MASK_MECHANISMS:
        return True
    default = _PREFETCH_DEFAULT_DEPTH.get(point.mechanism)
    if default is None:
        return False
    options = dict(getattr(point, "options", ()))
    return options.get("n_prefetch", default) == 0


def mask_shape_plan(
    points: Sequence, engine: str
) -> dict[tuple[int, int], set[tuple[int, int]]]:
    """The miss-mask shapes a sweep will consult, per stream.

    Keyed by ``(encode_line_size, mask_line_size)``: the stream is the
    workload's RLE lines at the first size, coarsened to the second —
    exactly what :func:`~repro.core.study.evaluate_streams`'s L1 and L2
    legs look up.  L1 shapes join only for points whose kernels read
    the demand mask (demand, stream buffers, and sequential prefetch at
    depth 0), and only when the vectorized engine can run
    (``engine="reference"`` never consults masks).  L2 shapes always
    join: :func:`~repro.core.metrics.measure_mpi` is mask-based under
    every engine.
    """
    plan: dict[tuple[int, int], set[tuple[int, int]]] = {}
    for point in points:
        l1 = point.config.l1
        if engine != "reference" and _reads_demand_mask(point):
            plan.setdefault((l1.line_size, l1.line_size), set()).add(
                vectorized._mask_shape(l1)
            )
        l2 = point.config.l2
        if l2 is not None:
            base = min(l2.line_size, l1.line_size)
            plan.setdefault((base, l2.line_size), set()).add(
                (l2.n_sets, l2.associativity)
            )
    return plan


def prime_miss_masks(
    line_runs: Callable[[int], LineRuns],
    plan: dict[tuple[int, int], set[tuple[int, int]]],
) -> None:
    """Batch-compute one workload's miss masks ahead of point evaluation.

    ``line_runs(line_size)`` is the workload's RLE instruction stream
    at one line size (the registry's
    :func:`~repro.workloads.registry.get_line_runs` for it).  Feeds
    every geometry of the sweep into
    :meth:`~repro.caches.vectorized.LineOrderCache.miss_masks` so
    shapes sharing a set count are priced from one shared
    occurrence pass; the per-point evaluations then hit the memo.
    Purely a warm-up: evaluation order and arithmetic are unchanged, so
    results stay bit-identical with or without it.
    """
    for (encode_size, mask_size), shapes in plan.items():
        runs = line_runs(encode_size)
        cache = line_order_cache(runs.lines)
        lines = cache.coarsened(ilog2(mask_size) - ilog2(encode_size))
        with timing.phase(timing.PHASE_SIMULATE):
            line_order_cache(lines).miss_masks(sorted(shapes))


def mask_families(points: Sequence, engine: str) -> tuple[MaskFamily, ...]:
    """Mask-family annotations for a sweep's points (one per stream)."""
    plan = mask_shape_plan(points, engine)
    return tuple(
        MaskFamily(
            encode_line_size=encode_size,
            mask_line_size=mask_size,
            shapes=tuple(sorted(shapes)),
        )
        for (encode_size, mask_size), shapes in sorted(plan.items())
    )


def point_streams(points: Sequence) -> tuple[int, ...]:
    """Every encode line size a sweep's points will read.

    The L1 leg reads the stream at the L1 line size; the L2 leg reads
    the stream at ``min(l2.line_size, l1.line_size)`` and coarsens.
    """
    sizes: set[int] = set()
    for point in points:
        l1 = point.config.l1
        sizes.add(l1.line_size)
        if point.config.l2 is not None:
            sizes.add(min(point.config.l2.line_size, l1.line_size))
    return tuple(sorted(sizes))


def workload_trace_keys(
    pairs: Iterable[tuple[str, str]], settings
) -> tuple[TraceKey, ...]:
    """Trace annotations for explicit ``(name, os)`` pairs.

    Memoized, so every cell that reads the same traces holds the same
    tuple of keys.
    """
    return _trace_keys(
        tuple(pairs), settings.n_instructions, settings.seed
    )


@functools.lru_cache(maxsize=1024)
def _trace_keys(
    pairs: tuple[tuple[str, str], ...], n_instructions: int, seed: int
) -> tuple[TraceKey, ...]:
    return tuple(
        TraceKey(
            workload=name,
            os_name=os_name,
            n_instructions=n_instructions,
            seed=seed,
        )
        for name, os_name in pairs
    )


def run_cell(
    fn,
    settings,
    *,
    suites: Iterable[str] = (),
    workloads: Iterable[tuple[str, str]] = (),
    points: Sequence = (),
    streams: Iterable[int] = (),
    masks: Iterable[MaskFamily] = (),
) -> list[PlanCell]:
    """A single-cell plan for a whole-experiment ``run`` function.

    For experiments computed as one unit: ``fn(settings)`` runs inside
    one cell (keyed by the experiment name alone once compiled), and
    its shared inputs are declared — ``suites``/``workloads`` name the
    traces (whose columns the cell may read), ``points`` derive mask
    families and stream sizes, and
    explicit ``streams``/``masks`` cover reads no point describes.
    """
    pairs = [
        pair for suite in suites for pair in suite_workloads(suite)
    ] + list(workloads)
    families = tuple(masks)
    stream_sizes = tuple(streams)
    if points:
        families = families + mask_families(points, settings.engine)
        stream_sizes = stream_sizes + point_streams(points)
    return [
        PlanCell(
            key=(),
            fn=fn,
            args=(settings,),
            traces=workload_trace_keys(pairs, settings),
            streams=tuple(sorted(set(stream_sizes))),
            masks=families,
            columns=True,
        )
    ]
