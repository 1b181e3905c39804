"""The sweep-plan IR: cells, shared-input annotations, and plans.

A plan is data, not control flow.  Each :class:`PlanCell` names a
picklable function plus arguments (what
:func:`~repro.runner.pool.run_cells` executes) and *declares* the
shared inputs it will consume:

* ``traces`` — the synthesized workload traces it reads from (which
  also groups cells into phases);
* ``columns`` — whether it reads those traces' columns (the raw
  records), or only streams and masks derived from them;
* ``streams`` — the RLE line-run encodings (per trace, per line size);
* ``masks`` — the miss-mask geometry families (per trace, per
  encode/mask line-size pair) its simulations look up.

Annotations are a promise about *reads*, not a change to semantics:
the executor groups cells by trace into phases and, within a phase,
gives every input its own lifetime.  Each input is primed once, before
its first reader runs, and released after its last reader: a trace's
columns after its last column reader, a stream (with its line-order
memo and masks) after its last stream reader.  The cells' own lazy
computations therefore hit warm memos.  An over-approximate annotation
wastes a little priming work or memory; an absent one only forfeits
dedup (a cell that reads columns it does not declare finds them gone
and loads the trace itself).  Results are bit-identical either way.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

__all__ = [
    "CompiledExperiment",
    "MaskFamily",
    "PlanCell",
    "PlanInputs",
    "SweepPlan",
    "TraceKey",
]


@dataclass(frozen=True)
class TraceKey:
    """Identity of one synthesized trace (the registry's cache key)."""

    workload: str
    os_name: str
    n_instructions: int
    seed: int


@dataclass(frozen=True)
class MaskFamily:
    """One miss-mask family over a coarsened line stream.

    Attributes:
        encode_line_size: line size of the underlying RLE stream.
        mask_line_size: line size the masks are computed at (the stream
            is coarsened from ``encode_line_size``); equal to
            ``encode_line_size`` for plain L1 masks.
        shapes: the ``(n_sets, associativity)`` geometries consulted.

    A family applies to every trace its cell declares: the executor
    feeds the union of shapes demanded by all cells of the plan into
    one :meth:`~repro.caches.vectorized.LineOrderCache.miss_masks`
    call per (trace, family stream), so geometries sharing a set count
    are priced from one shared occurrence pass.
    """

    encode_line_size: int
    mask_line_size: int
    shapes: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class PlanCell:
    """One schedulable unit of a compiled experiment.

    ``key`` labels the cell (merge, timing and error reports), and
    :func:`~repro.runner.pool.run_cells` computes it as
    ``fn(*args)``; the remaining fields are the shared-input
    annotations described in the module docstring.
    """

    key: tuple
    fn: Callable
    args: tuple = ()
    traces: tuple[TraceKey, ...] = ()
    streams: tuple[int, ...] = ()
    masks: tuple[MaskFamily, ...] = ()
    columns: bool = False

    def identity(self) -> tuple | None:
        """The dedup key: cells computing the same value share it.

        Two cells are interchangeable exactly when they run the same
        function with the same arguments — the cell ``key`` is a
        caller-side label and deliberately not part of the identity.
        Unhashable arguments return ``None`` (never deduplicated).
        """
        candidate = (self.fn.__module__, self.fn.__qualname__, self.args)
        try:
            hash(candidate)
        except TypeError:
            return None
        return candidate

    @property
    def stream_sizes(self) -> tuple[int, ...]:
        """Every encode line size the cell reads (explicit + mask-implied)."""
        sizes = set(self.streams)
        sizes.update(family.encode_line_size for family in self.masks)
        return tuple(sorted(sizes))


@dataclass(frozen=True)
class CompiledExperiment:
    """One experiment lowered to plan cells plus its merge.

    Each cell key is the experiment name followed by the key the
    module's ``plan_cells`` emitted.  ``merge(settings, keyed)``
    reassembles ``{emitted key: result}``, in plan order, into the
    experiment's result object; ``None`` means the experiment is a
    single cell whose result passes through unchanged.
    """

    name: str
    cells: tuple[PlanCell, ...]
    merge: Callable | None
    settings: object

    def assemble(self, results: list):
        """Merge per-cell results, aligned with :attr:`cells`."""
        if self.merge is None:
            return results[0]
        keyed = {
            cell.key[1:]: result for cell, result in zip(self.cells, results)
        }
        return self.merge(self.settings, keyed)


@dataclass
class PlanInputs:
    """The shared-input union of a plan, with per-input demand counts.

    ``traces`` maps each :class:`TraceKey` to the number of cells that
    read it; ``streams`` does the same per ``(trace, line size)``; and
    ``masks`` maps ``(trace, encode size, mask size)`` to the union of
    demanded shapes plus its demand count.  ``total`` is the number of
    distinct shared inputs (what the executor primes), ``shared`` the
    number demanded by more than one cell (what dedup saves).
    """

    traces: dict[TraceKey, int] = field(default_factory=dict)
    streams: dict[tuple[TraceKey, int], int] = field(default_factory=dict)
    masks: dict[tuple[TraceKey, int, int], tuple[set, int]] = field(
        default_factory=dict
    )

    @property
    def total(self) -> int:
        return len(self.traces) + len(self.streams) + len(self.masks)

    @property
    def shared(self) -> int:
        return (
            sum(1 for count in self.traces.values() if count > 1)
            + sum(1 for count in self.streams.values() if count > 1)
            + sum(1 for _, count in self.masks.values() if count > 1)
        )


def collect_inputs(cells: Sequence[PlanCell]) -> PlanInputs:
    """Union the shared-input annotations of many cells.

    Insertion order follows cell order, which makes the executor's
    priming order deterministic.
    """
    inputs = PlanInputs()
    for cell in cells:
        for trace_key in cell.traces:
            inputs.traces[trace_key] = inputs.traces.get(trace_key, 0) + 1
            for size in cell.stream_sizes:
                stream = (trace_key, size)
                inputs.streams[stream] = inputs.streams.get(stream, 0) + 1
            for family in cell.masks:
                key = (
                    trace_key,
                    family.encode_line_size,
                    family.mask_line_size,
                )
                shapes, count = inputs.masks.get(key, (set(), 0))
                shapes.update(family.shapes)
                inputs.masks[key] = (shapes, count + 1)
    return inputs


@dataclass(frozen=True)
class SweepPlan:
    """An ordered collection of compiled experiments executed as one.

    Grid-wide dedup happens at this level: identical cells appearing
    in several experiments run once, and shared inputs are primed
    across the union of every experiment's annotations.
    """

    experiments: tuple[CompiledExperiment, ...]

    @property
    def cells(self) -> list[PlanCell]:
        return [
            cell
            for experiment in self.experiments
            for cell in experiment.cells
        ]

    @property
    def cells_total(self) -> int:
        return sum(len(e.cells) for e in self.experiments)


def dedup_cells(
    cells: Sequence[PlanCell],
) -> tuple[list[PlanCell], list[int]]:
    """Drop cells whose :meth:`PlanCell.identity` already appeared.

    Returns the surviving cells plus, for every input cell, the index
    of the unique cell that computes its result — the executor runs
    the unique list and fans results back through the map.
    """
    unique: list[PlanCell] = []
    index_map: list[int] = []
    seen: dict[tuple, int] = {}
    for cell in cells:
        identity = cell.identity()
        if identity is not None and identity in seen:
            index_map.append(seen[identity])
            continue
        position = len(unique)
        unique.append(cell)
        index_map.append(position)
        if identity is not None:
            seen[identity] = position
    return unique, index_map


def plan_phases(cells: Sequence[PlanCell]) -> list[list[int]]:
    """Split cells into trace groups that share no trace with one another.

    A group is a connected component of the graph "these cells read a
    common trace", in order of first appearance; a cell that reads no
    trace is a group of its own.  When every cell reads at most one
    trace, each group is one trace and its cells.  Returns each group's
    cell indices in cell order.
    """
    parent: dict[TraceKey, TraceKey] = {}

    def root(key: TraceKey) -> TraceKey:
        while parent[key] != key:
            parent[key] = parent[parent[key]]
            key = parent[key]
        return key

    for cell in cells:
        for key in cell.traces:
            parent.setdefault(key, key)
            parent[root(key)] = root(cell.traces[0])
    groups: dict[object, list[int]] = {}
    for index, cell in enumerate(cells):
        anchor = root(cell.traces[0]) if cell.traces else index
        groups.setdefault(anchor, []).append(index)
    return list(groups.values())
