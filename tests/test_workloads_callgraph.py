"""Unit tests for synthetic call graphs."""

from repro.trace.record import Component
from repro.workloads.callgraph import build_call_graph, call_graph_stats
from repro.workloads.codeimage import build_code_image


def _graph(n=120, seed=1, **kwargs):
    image = build_code_image(Component.USER, n, 256.0, seed=seed)
    return build_call_graph(image, seed=seed, **kwargs), image


def _edges(graph):
    return [(u, v) for u, callees in enumerate(graph) for v in callees]


class TestBuildCallGraph:
    def test_every_procedure_is_a_node(self):
        graph, image = _graph()
        assert len(graph) == len(image.procedures)

    def test_no_self_calls(self):
        graph, _ = _graph()
        assert all(u != v for u, v in _edges(graph))

    def test_no_duplicate_edges(self):
        graph, _ = _graph()
        assert all(len(set(callees)) == len(callees) for callees in graph)

    def test_successors_are_plain_ints(self):
        graph, _ = _graph()
        assert all(type(v) is int for _, v in _edges(graph))

    def test_out_degree_near_target(self):
        graph, _ = _graph(n=400, mean_out_degree=3.0)
        mean = len(_edges(graph)) / len(graph)
        # Duplicate edges collapse, so the realized mean sits below the
        # Poisson target but well above 1.
        assert 1.0 < mean <= 3.5

    def test_module_locality(self):
        graph, image = _graph(n=240, cross_module_fraction=0.2)
        edges = _edges(graph)
        local = 0
        for u, v in edges:
            if image.procedures[u].module == image.procedures[v].module:
                local += 1
        assert local / len(edges) > 0.5

    def test_mostly_reachable(self):
        graph, _ = _graph(n=200)
        stats = call_graph_stats(graph)
        # The low-index bias makes early procedures call hubs; most of
        # the image should be reachable from the entry point.
        assert stats["reachable_from_0"] > 101

    def test_deterministic(self):
        g1, _ = _graph(seed=4)
        g2, _ = _graph(seed=4)
        assert g1 == g2

    def test_single_procedure(self):
        image = build_code_image(Component.USER, 1, 256.0, seed=0)
        graph = build_call_graph(image, seed=0)
        assert graph == ((),)


class TestCallGraphStats:
    def test_keys(self):
        graph, _ = _graph()
        stats = call_graph_stats(graph)
        assert set(stats) == {
            "nodes", "edges", "mean_out_degree", "reachable_from_0",
        }

    def test_counts(self):
        graph = ((1, 2), (2,), (), (0,))
        stats = call_graph_stats(graph)
        assert stats["nodes"] == 4
        assert stats["edges"] == 4
        assert stats["mean_out_degree"] == 1.0
        # Procedure 3 calls 0 but nothing reaches 3.
        assert stats["reachable_from_0"] == 3

    def test_empty_graph(self):
        stats = call_graph_stats(())
        assert stats["nodes"] == 0
