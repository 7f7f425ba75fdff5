"""Distributed BFS/SSSP/CC bit-identity with the single-device algorithms."""

import numpy as np
import pytest

from repro.algorithms import bfs, cc, sssp
from repro.checking import graphgen, oracle
from repro.dist import distributed_bfs, distributed_cc, distributed_sssp
from repro.graph.builder import GraphBuilder
from repro.sycl.device import get_device
from repro.sycl.queue import Queue


@pytest.fixture(scope="module")
def cases():
    suite = graphgen.adversarial_suite(seed=0)
    keep = ("chain", "power-law", "disconnected", "isolated-ghosts", "power-law-weighted")
    return [c for c in suite if c.name in keep]


def single_device(algorithm, coo, source):
    q = Queue(get_device("v100s"), capacity_limit=0)
    b = GraphBuilder(q)
    if algorithm == "bfs":
        return bfs(b.to_csr(coo), source).distances
    if algorithm == "sssp":
        return sssp(b.to_csr(coo), source).distances
    return cc(b.to_csr(coo.symmetrized())).labels


class TestBitIdentity:
    @pytest.mark.parametrize("n_devices", [1, 2, 4])
    @pytest.mark.parametrize("algorithm", ["bfs", "sssp", "cc"])
    def test_matches_single_device(self, cases, algorithm, n_devices):
        for case in cases:
            if algorithm == "bfs":
                got = distributed_bfs(case.coo, n_devices, case.source).distances
            elif algorithm == "sssp":
                got = distributed_sssp(case.coo, n_devices, case.source).distances
            else:
                got = distributed_cc(case.coo, n_devices).labels
            want = single_device(algorithm, case.coo, case.source)
            assert np.array_equal(got, want), f"{case.name} @ {n_devices}dev"

    @pytest.mark.parametrize("layout", ["2lb", "bitmap", "vector", "boolmap"])
    def test_layouts_interchangeable(self, cases, layout):
        case = next(c for c in cases if c.name == "power-law")
        want = oracle.oracle_bfs(case.coo.n_vertices, case.coo.src, case.coo.dst, case.source)
        got = distributed_bfs(case.coo, 4, case.source, layout=layout).distances
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("bits", [None, 32, 64])
    def test_word_widths_interchangeable(self, cases, bits):
        case = next(c for c in cases if c.name == "isolated-ghosts")
        want = single_device("sssp", case.coo, case.source)
        got = distributed_sssp(case.coo, 4, case.source, bits=bits).distances
        assert np.array_equal(got, want)


class TestAdversarialTopologies:
    def test_non_owner_source(self, cases):
        """The seeded case: source owned by the last partition."""
        case = next(c for c in cases if c.name == "isolated-ghosts")
        from repro.dist import owner_of, partition_static

        parts = partition_static(case.coo, 4)
        owner = int(owner_of(parts, np.array([case.source]))[0])
        assert owner == len(parts) - 1  # the topology the case promises
        got = distributed_bfs(case.coo, 4, case.source).distances
        want = oracle.oracle_bfs(case.coo.n_vertices, case.coo.src, case.coo.dst, case.source)
        assert np.array_equal(got, want)

    def test_isolated_vertices_stay_unreached(self, cases):
        case = next(c for c in cases if c.name == "isolated-ghosts")
        got = distributed_bfs(case.coo, 2, case.source).distances
        assert np.all(got[:8] == -1)  # the isolated prefix

    def test_cc_labels_isolated_vertices_as_singletons(self, cases):
        case = next(c for c in cases if c.name == "isolated-ghosts")
        res = distributed_cc(case.coo, 4)
        assert np.array_equal(res.labels[:8], np.arange(8))
        assert res.n_components == 8 + 1

    def test_weighted_sssp_exact_float_sums(self, cases):
        case = next(c for c in cases if c.name == "power-law-weighted")
        got = distributed_sssp(case.coo, 4, case.source).distances
        want = single_device("sssp", case.coo, case.source)
        assert np.array_equal(got, want)  # bitwise, not isclose

    def test_empty_graph(self):
        case = next(c for c in graphgen.adversarial_suite(seed=0) if c.name == "empty")
        res = distributed_bfs(case.coo, 4, 0)
        want = np.full(case.coo.n_vertices, -1)
        want[0] = 0
        assert np.array_equal(res.distances, want)
        assert res.iterations <= 1

    def test_heterogeneous_devices(self, cases):
        case = next(c for c in cases if c.name == "power-law")
        devices = [get_device("v100s"), get_device("mi100"), get_device("max1100")]
        got = distributed_bfs(case.coo, 3, case.source, devices=devices).distances
        want = single_device("bfs", case.coo, case.source)
        assert np.array_equal(got, want)


class TestValidation:
    def test_invalid_source(self):
        coo = graphgen.chain(8)
        with pytest.raises(ValueError):
            distributed_bfs(coo, 2, 99)
        with pytest.raises(ValueError):
            distributed_sssp(coo, 2, -1)
