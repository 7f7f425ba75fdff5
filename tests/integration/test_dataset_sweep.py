"""Correctness sweep: every algorithm on every (tiny) dataset vs references.

This is the integration net under the Figure 8 matrix — the benchmark
measures cost, this sweep proves every cell computes the right answer.
"""

import numpy as np
import pytest

from repro.algorithms import bfs, cc, sssp
from tests.validation import reference_bfs, reference_cc, reference_sssp
from repro.bench.harness import pick_sources
from repro.graph.builder import GraphBuilder
from repro.graph.datasets import dataset_names, load_dataset
from repro.sycl import Queue


@pytest.fixture(scope="module", params=dataset_names())
def dataset(request):
    name = request.param
    coo = load_dataset(name, "tiny", weighted=True)
    q = Queue(capacity_limit=0)
    b = GraphBuilder(q)
    degs = np.bincount(coo.src.astype(np.int64), minlength=coo.n_vertices)
    source = pick_sources(coo.n_vertices, 1, seed=5, out_degrees=degs)[0]
    return name, coo, b.to_csr(coo), source


class TestEveryDataset:
    def test_bfs_matches_reference(self, dataset):
        name, coo, g, source = dataset
        r = bfs(g, source)
        ref = reference_bfs(coo.n_vertices, coo.src, coo.dst, source)
        assert np.array_equal(r.distances, ref), name

    def test_sssp_matches_reference(self, dataset):
        name, coo, g, source = dataset
        r = sssp(g, source)
        ref = reference_sssp(coo.n_vertices, coo.src, coo.dst, coo.weights, source)
        assert np.allclose(r.distances, ref, rtol=1e-4), name

    def test_cc_matches_reference(self, dataset):
        name, coo, g, source = dataset
        sym = coo.symmetrized()
        q = Queue(capacity_limit=0)
        gs = GraphBuilder(q).to_csr(sym)
        r = cc(gs)
        n_ref, _ = reference_cc(sym.n_vertices, sym.src, sym.dst)
        assert r.n_components == n_ref, name

    def test_sssp_with_unit_weights_equals_bfs(self, dataset):
        name, coo, _, source = dataset
        q = Queue(capacity_limit=0)
        g_unweighted = GraphBuilder(q).to_csr(load_dataset(name, "tiny", weighted=False))
        b = bfs(g_unweighted, source)
        s = sssp(g_unweighted, source)
        reached = b.distances >= 0
        assert np.allclose(s.distances[reached], b.distances[reached]), name
        assert np.isinf(s.distances[~reached]).all(), name
