"""Shared fixtures: queues, small graphs, reference data."""

import numpy as np
import pytest
from hypothesis import settings

from repro.graph import generators as gen
from repro.graph.builder import GraphBuilder, from_edges
from repro.sycl import Queue, get_device

#: the frontier machine (tests/frontier/test_frontier_machine.py) at full
#: size: ``--hypothesis-profile frontier-full`` selects it (CI's nightly
#: job); tier-1 runs the machine smaller
settings.register_profile("frontier-full", max_examples=1500, stateful_step_count=40)


@pytest.fixture
def queue():
    """A V100S-profile queue with OOM checking disabled."""
    return Queue(get_device("v100s"), capacity_limit=0)


@pytest.fixture
def builder(queue):
    return GraphBuilder(queue)


@pytest.fixture
def diamond(queue):
    """0->1, 0->2, 1->3, 2->3, 3->4 — tiny DAG with a reconvergence."""
    return from_edges(queue, [0, 0, 1, 2, 3], [1, 2, 3, 3, 4])


@pytest.fixture
def weighted_random(queue, builder):
    """Random weighted digraph (300 vertices) + its COO form."""
    coo = gen.erdos_renyi(300, 5.0, seed=3, weighted=True)
    return builder.to_csr(coo), coo


@pytest.fixture
def undirected_random(queue, builder):
    """Symmetrized random graph + COO, for CC/triangles."""
    coo = gen.erdos_renyi(200, 3.0, seed=11).symmetrized().without_self_loops()
    return builder.to_csr(coo), coo
