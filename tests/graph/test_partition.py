"""Static partitioning (the paper's multi-GPU future-work hook)."""

import numpy as np
import pytest

from repro.dist import Partition, edge_balance, partition_static
from repro.graph import generators as gen


@pytest.fixture
def graph():
    return gen.rmat(9, 8, seed=13)


class TestPartitionStatic:
    def test_covers_all_vertices(self, graph):
        parts = partition_static(graph, 4)
        assert parts[0].vertex_lo == 0
        assert parts[-1].vertex_hi == graph.n_vertices
        for a, b in zip(parts, parts[1:]):
            assert a.vertex_hi == b.vertex_lo

    def test_covers_all_edges_exactly_once(self, graph):
        parts = partition_static(graph, 4)
        assert sum(p.local.n_edges for p in parts) == graph.n_edges

    def test_edges_owned_by_source(self, graph):
        for p in partition_static(graph, 4):
            src = p.local.src.astype(np.int64)
            assert ((src >= p.vertex_lo) & (src < p.vertex_hi)).all()

    def test_ghosts_are_remote_destinations(self, graph):
        for p in partition_static(graph, 3):
            assert not p.owns(p.ghost_vertices).any()

    def test_single_partition(self, graph):
        parts = partition_static(graph, 1)
        assert len(parts) == 1
        assert parts[0].ghost_vertices.size == 0

    def test_balance_reasonable_on_skewed_graph(self, graph):
        parts = partition_static(graph, 4)
        assert edge_balance(parts) < 2.5

    def test_balance_better_than_naive_split(self, graph):
        """Edge-mass cuts beat equal-vertex cuts on skewed graphs."""
        parts = partition_static(graph, 4)
        n = graph.n_vertices
        naive_bounds = [0, n // 4, n // 2, 3 * n // 4, n]
        src = graph.src.astype(np.int64)
        naive_counts = [
            int(((src >= naive_bounds[i]) & (src < naive_bounds[i + 1])).sum()) for i in range(4)
        ]
        naive_balance = max(naive_counts) / (sum(naive_counts) / 4)
        assert edge_balance(parts) <= naive_balance + 1e-9

    def test_invalid_parts(self, graph):
        with pytest.raises(ValueError):
            partition_static(graph, 0)

    def test_owns_mask(self):
        p = Partition(0, 10, 20, gen.path_graph(30), np.array([5]))
        assert list(p.owns(np.array([9, 10, 19, 20]))) == [False, True, True, False]
        assert p.n_owned == 10
