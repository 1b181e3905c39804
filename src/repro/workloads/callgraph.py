"""Synthetic call graphs over code images.

The synthesizer discovers *new* procedures by walking call edges from
recently-executed ones, so the static call-graph structure shapes the
dynamic footprint-growth order: module-local calls dominate (code that
ships together calls together), with a minority of cross-module edges
(library calls) — the modular structure the paper's Figure 2 depicts.

A graph is a :data:`CallGraph`: one tuple of callee indices per
procedure, in first-insertion order, with no self-calls and no
duplicates.  ``graph[proc]`` is ``proc``'s successor list, which is all
the walkers need; :func:`call_graph_stats` gives the summary figures
used for workload characterization.
"""

from __future__ import annotations

import numpy as np

from repro._util.rng import make_rng, spawn
from repro.workloads.codeimage import CodeImage

#: Per-procedure successor tuples, indexed by procedure index.
CallGraph = tuple[tuple[int, ...], ...]


def build_call_graph(
    image: CodeImage,
    seed: int,
    mean_out_degree: float = 3.0,
    cross_module_fraction: float = 0.25,
) -> CallGraph:
    """Generate a call graph for ``image``.

    Each procedure gets ``~Poisson(mean_out_degree)`` callees (at least
    one, so the graph stays explorable): module-local callees are drawn
    uniformly from the same module, cross-module callees from the whole
    image with a bias toward low-index modules (core libraries are
    called from everywhere).  Repeated callees collapse to one edge.

    The draws are spelled out rather than left to ``rng.choice`` so the
    stream is explicit: a module-local pick is one ``integers`` draw,
    a cross-module pick one ``random`` draw inverted through the weight
    CDF — exactly the values ``rng.choice`` would consume and return.
    """
    rng = spawn(make_rng(seed), f"callgraph:{image.component.name}")
    n = len(image.procedures)
    if n == 1:
        return ((),)

    module_members = {
        module.index: module.procedure_indices for module in image.modules
    }
    # Low-index bias for cross-module targets: weights ~ 1/(1+index).
    weights = 1.0 / (1.0 + np.arange(n, dtype=np.float64))
    weights /= weights.sum()
    cdf = weights.cumsum()
    cdf /= cdf[-1]

    graph: list[tuple[int, ...]] = []
    for proc in image.procedures:
        out_degree = max(1, int(rng.poisson(mean_out_degree)))
        members = module_members[proc.module]
        callees: dict[int, None] = {}
        for _ in range(out_degree):
            if len(members) > 1 and rng.random() >= cross_module_fraction:
                callee = members[rng.integers(0, len(members))]
            else:
                callee = int(cdf.searchsorted(rng.random(), side="right"))
            if callee != proc.index:
                callees[callee] = None
        graph.append(tuple(callees))
    return tuple(graph)


def call_graph_stats(graph: CallGraph) -> dict[str, float]:
    """Summary statistics used by the workload-characterization example."""
    n = len(graph)
    if n == 0:
        return {"nodes": 0, "edges": 0, "mean_out_degree": 0.0, "reachable_from_0": 0}
    edges = sum(len(callees) for callees in graph)
    reachable = {0}
    stack = [0]
    while stack:
        for callee in graph[stack.pop()]:
            if callee not in reachable:
                reachable.add(callee)
                stack.append(callee)
    return {
        "nodes": float(n),
        "edges": float(edges),
        "mean_out_degree": edges / n,
        "reachable_from_0": float(len(reachable)),
    }
