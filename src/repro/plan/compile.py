"""Compiling experiment modules into the sweep-plan IR.

Every experiment module says what it computes in one place:

* ``plan_cells(settings, **axes)`` emits annotated
  :class:`~repro.plan.ir.PlanCell`\\ s, one per independent unit of
  the sweep, with keys unique within the experiment; ``axes`` are the
  sweep axes a caller may narrow (a sub-grid of the default sweep);
* ``merge(settings, keyed)`` rebuilds the result object from
  ``{key: result}`` in plan order.  Single-cell experiments have no
  ``merge``: their one result is the experiment's result.

Compilation prefixes every cell key with the experiment name, so a
report plan's timing cells and errors stay unambiguous when two
experiments use similar keys.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import replace

from repro.plan.ir import CompiledExperiment, SweepPlan

__all__ = ["compile_module", "compile_report"]


def compile_module(
    module, settings, name: str | None = None, **axes
) -> CompiledExperiment:
    """Lower one experiment module to a :class:`CompiledExperiment`."""
    if name is None:
        name = module.__name__.rsplit(".", 1)[-1]
    cells = tuple(
        replace(cell, key=(name, *cell.key))
        for cell in module.plan_cells(settings, **axes)
    )
    return CompiledExperiment(
        name=name,
        cells=cells,
        merge=getattr(module, "merge", None),
        settings=settings,
    )


def compile_report(modules: Mapping[str, object], settings) -> SweepPlan:
    """Compile many experiments into one grid-wide plan."""
    return SweepPlan(
        experiments=tuple(
            compile_module(module, settings, name=name)
            for name, module in modules.items()
        )
    )
