"""Shared fixtures for the serving-layer suite: tiny catalogs and traces."""

import pytest

from repro.service.request import Request
from repro.service.workload import GraphSpec, WorkloadConfig, default_catalog, generate_workload


@pytest.fixture(scope="module")
def tiny_catalog():
    """The seeded tiny catalog (rmat / road / web, all weighted)."""
    return default_catalog(seed=0, scale="tiny")


@pytest.fixture
def contended_trace(tiny_catalog):
    """120 mixed requests arriving fast enough to queue on any pool."""
    return generate_workload(
        tiny_catalog,
        WorkloadConfig(n_requests=120, mean_interarrival_ns=2_000.0),
        seed=7,
    )


def build_graph_caches(scheduler):
    """Build every representation of every catalog graph on every worker
    with fault injection detached, so injected faults land in requests."""
    for worker in scheduler.workers:
        injector = worker.queue.fault_injector
        worker.queue.disable_fault_injection()
        for spec in scheduler.catalog.values():
            bundle = worker.bundle_for(spec)
            for representation in ("csr", "csr_undirected", "csc"):
                bundle.get(representation)
        if injector is not None:
            worker.queue.enable_fault_injection(injector)


def burst(n, graph="rmat", algorithm="bfs", priority=1, arrival_ns=0.0, **kw):
    """n identical requests arriving at the same instant (id-ordered)."""
    return [
        Request(
            req_id=i,
            algorithm=algorithm,
            graph=graph,
            source=0,
            priority=priority,
            arrival_ns=arrival_ns,
            **kw,
        )
        for i in range(n)
    ]
