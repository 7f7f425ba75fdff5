"""Multi-GPU BSP BFS preview (the conclusion's future-work sketch)."""

import numpy as np
import pytest

from tests.validation import reference_bfs
from repro.dist import distributed_bfs
from repro.graph import generators as gen
from repro.sycl.device import get_device


@pytest.fixture(scope="module")
def graph_coo():
    return gen.rmat(10, 8, seed=41)


class TestCorrectness:
    @pytest.mark.parametrize("n_devices", [1, 2, 4])
    def test_matches_single_device_bfs(self, graph_coo, n_devices):
        r = distributed_bfs(graph_coo, n_devices, source=1)
        ref = reference_bfs(graph_coo.n_vertices, graph_coo.src, graph_coo.dst, 1)
        assert np.array_equal(r.distances, ref)

    def test_road_graph(self):
        coo = gen.road_network(30, 30, seed=42)
        r = distributed_bfs(coo, 3, source=0)
        ref = reference_bfs(coo.n_vertices, coo.src, coo.dst, 0)
        assert np.array_equal(r.distances, ref)

    def test_source_in_late_partition(self, graph_coo):
        source = graph_coo.n_vertices - 1
        r = distributed_bfs(graph_coo, 4, source=source)
        ref = reference_bfs(graph_coo.n_vertices, graph_coo.src, graph_coo.dst, source)
        assert np.array_equal(r.distances, ref)

    def test_invalid_source(self, graph_coo):
        with pytest.raises(ValueError):
            distributed_bfs(graph_coo, 2, source=-1)


class TestAccounting:
    def test_per_device_times(self, graph_coo):
        r = distributed_bfs(graph_coo, 4, source=1)
        assert len(r.device_times_ns) == 4
        assert all(t >= 0 for t in r.device_times_ns)
        assert r.makespan_ns >= max(r.device_times_ns)

    def test_ghost_traffic_counted(self, graph_coo):
        r = distributed_bfs(graph_coo, 4, source=1)
        assert r.ghost_messages > 0  # cross-partition edges exist in R-MAT
        assert r.exchange_ns > 0

    def test_single_device_cheapest_exchange(self, graph_coo):
        one = distributed_bfs(graph_coo, 1, source=1)
        four = distributed_bfs(graph_coo, 4, source=1)
        assert one.ghost_messages == 0
        assert four.ghost_messages > 0

    def test_heterogeneous_devices(self, graph_coo):
        devices = [get_device("v100s"), get_device("mi100")]
        r = distributed_bfs(graph_coo, 2, source=1, devices=devices)
        ref = reference_bfs(graph_coo.n_vertices, graph_coo.src, graph_coo.dst, 1)
        assert np.array_equal(r.distances, ref)
