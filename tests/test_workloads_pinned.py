"""Pinned call graphs and traces of every registered workload.

``CALL_GRAPH_GOLDEN`` holds the sha256 of the successor lists of every
registered workload's component call graphs; ``TRACE_GOLDEN`` the
sha256 of every registered workload's trace columns at 5,000
instructions.  Any change to how call graphs are built or walked —
including the order of RNG draws — shows up here as a digest mismatch.
A deliberate change to synthesized traces bumps ``GENERATOR_VERSION``
and updates these digests in the same commit.
"""

import hashlib

import pytest

from repro.workloads import registry
from repro.workloads.callgraph import build_call_graph
from repro.workloads.generator import (
    GENERATOR_VERSION,
    TraceSynthesizer,
    synthesize_trace,
)

CALL_GRAPH_GOLDEN = {
    0: "de76ec0a4095bd85e0c6fc3b1ebb9347bd5edfd1fb0fa1047e69364fa9d9c5eb",
    3: "5e655d22e895cf3cf48c1a389a46000b2748dcd8d146dc04f1779db547af5bf4",
}

TRACE_GOLDEN = {
    0: "217c741422fb02f17c74b0534d1b323c9bb6fac779f8e9f558cfce38d88da3f6",
    3: "22de989a3bc1102cf9a60ce15aaa901667193a8610ec3c980d3b2b80fe9da29d",
}


def _call_graph_digest(seed: int) -> tuple[int, str]:
    digest = hashlib.sha256()
    n_graphs = 0
    for name, os_name in registry.list_workloads():
        synth = TraceSynthesizer(registry.get_workload(name, os_name), seed)
        for component, image in synth.code_images().items():
            graph = build_call_graph(image, synth.component_seed(component))
            n_graphs += 1
            digest.update(f"{name}/{os_name}/{component.name}\n".encode())
            for callees in graph:
                digest.update(f"{','.join(map(str, callees))}\n".encode())
    return n_graphs, digest.hexdigest()


def _trace_digest(seed: int) -> str:
    digest = hashlib.sha256()
    for name, os_name in registry.list_workloads():
        trace = synthesize_trace(
            registry.get_workload(name, os_name), 5_000, seed=seed
        )
        digest.update(f"{trace.label}\n".encode())
        for column in (trace.addresses, trace.kinds, trace.components):
            digest.update(column.tobytes())
    return digest.hexdigest()


def test_generator_version():
    assert GENERATOR_VERSION == 2


@pytest.mark.parametrize("seed", sorted(CALL_GRAPH_GOLDEN))
def test_call_graphs_pinned(seed):
    n_graphs, digest = _call_graph_digest(seed)
    assert n_graphs == 92
    assert digest == CALL_GRAPH_GOLDEN[seed]


@pytest.mark.parametrize("seed", sorted(TRACE_GOLDEN))
def test_traces_pinned(seed):
    assert _trace_digest(seed) == TRACE_GOLDEN[seed]
