"""Workload generator: seeded determinism and distribution shape."""

import numpy as np
import pytest

from repro.service.request import PRIORITIES
from repro.service.workload import (
    GraphSpec,
    WorkloadConfig,
    default_catalog,
    generate_workload,
)


def _trace_fields(trace):
    return [
        (r.req_id, r.algorithm, r.graph, r.source, r.layout, r.priority,
         r.arrival_ns)
        for r in trace
    ]


class TestDeterminism:
    def test_same_seed_identical(self, tiny_catalog):
        a = generate_workload(tiny_catalog, WorkloadConfig(n_requests=200), seed=11)
        b = generate_workload(tiny_catalog, WorkloadConfig(n_requests=200), seed=11)
        assert _trace_fields(a) == _trace_fields(b)

    def test_different_seed_differs(self, tiny_catalog):
        a = generate_workload(tiny_catalog, WorkloadConfig(n_requests=200), seed=11)
        b = generate_workload(tiny_catalog, WorkloadConfig(n_requests=200), seed=12)
        assert _trace_fields(a) != _trace_fields(b)

    def test_catalog_determinism(self):
        a, b = default_catalog(seed=5, scale="tiny"), default_catalog(seed=5, scale="tiny")
        for sa, sb in zip(a, b):
            assert sa.name == sb.name
            assert np.array_equal(sa.coo.src, sb.coo.src)
            assert np.array_equal(sa.coo.dst, sb.coo.dst)


class TestShape:
    def test_arrivals_sorted_and_poisson_mean(self, tiny_catalog):
        cfg = WorkloadConfig(n_requests=2000, mean_interarrival_ns=10_000.0)
        trace = generate_workload(tiny_catalog, cfg, seed=3)
        arrivals = np.array([r.arrival_ns for r in trace])
        assert (np.diff(arrivals) >= 0).all()
        gaps = np.diff(np.concatenate(([0.0], arrivals)))
        assert gaps.mean() == pytest.approx(10_000.0, rel=0.15)

    def test_zipf_popularity_is_rank_ordered(self, tiny_catalog):
        trace = generate_workload(
            tiny_catalog, WorkloadConfig(n_requests=3000, zipf_s=1.2), seed=4
        )
        counts = {s.name: 0 for s in tiny_catalog}
        for r in trace:
            counts[r.graph] += 1
        ordered = [counts[s.name] for s in tiny_catalog]
        assert ordered[0] > ordered[1] > ordered[2]

    def test_priority_and_algorithm_mix_covered(self, tiny_catalog):
        trace = generate_workload(tiny_catalog, WorkloadConfig(n_requests=1000), seed=5)
        assert {r.priority for r in trace} == set(range(len(PRIORITIES)))
        assert {r.algorithm for r in trace} == {
            "bfs", "dobfs", "sssp", "delta_stepping", "cc", "bc", "pagerank"
        }

    def test_sources_in_range(self, tiny_catalog):
        trace = generate_workload(tiny_catalog, WorkloadConfig(n_requests=500), seed=6)
        sizes = {s.name: s.n_vertices for s in tiny_catalog}
        assert all(0 <= r.source < sizes[r.graph] for r in trace)

    def test_seven_draws_per_request(self, tiny_catalog):
        """Each request consumes one 7-draw block (the seventh draw is
        unused), so a seed's trace stays the same across versions."""
        cfg = WorkloadConfig(n_requests=50)
        trace = generate_workload(tiny_catalog, cfg, seed=7)
        u = np.random.default_rng(7).random((50, 7))
        arrivals = np.cumsum(-cfg.mean_interarrival_ns * np.log(1.0 - u[:, 0]))
        assert [r.arrival_ns for r in trace] == pytest.approx(arrivals, rel=1e-12)


class TestValidation:
    def test_empty_catalog_rejected(self):
        with pytest.raises(ValueError, match="catalog"):
            generate_workload([], WorkloadConfig(), seed=0)

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError, match="scale"):
            default_catalog(scale="huge")

    def test_negative_mix_rejected(self, tiny_catalog):
        cfg = WorkloadConfig(priority_mix=(1.0, -0.5, 0.5))
        with pytest.raises(ValueError, match="non-negative"):
            generate_workload(tiny_catalog, cfg, seed=0)

    def test_zero_mix_rejected(self, tiny_catalog):
        cfg = WorkloadConfig(algorithm_mix={"bfs": 0.0})
        with pytest.raises(ValueError, match="positive"):
            generate_workload(tiny_catalog, cfg, seed=0)
