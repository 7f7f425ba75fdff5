"""Measurement harness behaviour."""

import numpy as np
import pytest

from repro.bench.harness import MeasureResult, measure, pick_sources, run_sources
from repro.bench.reporting import format_table, geomean
from repro.baselines import make_runner
from repro.graph.datasets import load_dataset


class TestPickSources:
    def test_deterministic(self):
        assert pick_sources(100, 5) == pick_sources(100, 5)

    def test_in_range(self):
        assert all(0 <= s < 100 for s in pick_sources(100, 20))

    def test_degree_filter_avoids_isolated(self):
        degs = np.zeros(100, dtype=np.int64)
        degs[[3, 7]] = 5
        assert set(pick_sources(100, 10, out_degrees=degs)) <= {3, 7}

    def test_degree_filter_all_isolated_returns_empty(self):
        # every vertex excluded -> no eligible source; falling back to
        # uniform sampling would hand back exactly the vertices the
        # caller asked to exclude
        assert pick_sources(100, 4, out_degrees=np.zeros(100)) == []


class TestRunSources:
    def test_bfs_times_per_source(self):
        runner = make_runner("sygraph", load_dataset("kron", "tiny"))
        times = run_sources(runner, "bfs", [1, 2, 3])
        assert len(times) == 3
        assert all(t > 0 for t in times)

    def test_unknown_algorithm(self):
        runner = make_runner("sygraph", load_dataset("kron", "tiny"))
        with pytest.raises(ValueError):
            run_sources(runner, "kcore", [1])


class TestMeasure:
    def test_basic_shape(self):
        m = measure("sygraph", "kron", "bfs", n_sources=2, scale="tiny")
        assert len(m.times_ns) == 2
        assert m.median_ns > 0
        assert m.peak_bytes > 0
        assert 0 < m.peak_l1_hit_rate <= 1

    def test_unsupported_algorithm_empty(self):
        m = measure("sep", "kron", "cc", n_sources=2, scale="tiny")
        assert m.times_ns == []
        assert m.median_ns == 0.0

    def test_median_with_prep(self):
        m = measure("tigr", "kron", "bfs", n_sources=1, scale="tiny")
        assert m.median_with_prep_ns > m.median_ns

    def test_untraced_has_no_breakdown(self):
        m = measure("sygraph", "kron", "bfs", n_sources=1, scale="tiny")
        assert m.iteration_breakdown is None

    def test_traced_measure_carries_breakdown(self):
        plain = measure("sygraph", "kron", "bfs", n_sources=2, scale="tiny")
        traced = measure("sygraph", "kron", "bfs", n_sources=2, scale="tiny", trace=True)
        assert traced.iteration_breakdown, "trace=True must attach rows"
        assert all(r["kernels"] > 0 for r in traced.iteration_breakdown)
        # tracing is observational: identical modeled times per source
        assert traced.times_ns == plain.times_ns
        # every framework runs on the plan executor: one row per iteration
        for framework in ("sygraph", "gunrock", "tigr", "sep"):
            for algorithm in ("bfs", "sssp", "cc"):
                case = f"{framework}/{algorithm}"
                plain = measure(framework, "kron", algorithm, n_sources=2, scale="tiny")
                traced = measure(framework, "kron", algorithm, n_sources=2, scale="tiny", trace=True)
                assert traced.times_ns == plain.times_ns, case
                coo = load_dataset("kron", "tiny", weighted=(algorithm == "sssp"))
                runner = make_runner(framework, coo)
                if not runner.supports(algorithm):
                    assert traced.iteration_breakdown is None, case
                    continue
                rows = traced.iteration_breakdown
                assert all(r["kernels"] > 0 for r in rows), case
                degrees = np.bincount(coo.src.astype(np.int64), minlength=coo.n_vertices)
                runs = [
                    runner.cc() if algorithm == "cc" else getattr(runner, algorithm)(s)
                    for s in pick_sources(coo.n_vertices, 2, out_degrees=degrees)
                ]
                assert len(rows) == sum(r.iterations for r in runs), case


class TestReporting:
    def test_geomean(self):
        assert geomean([1, 4]) == pytest.approx(2.0)
        assert geomean([]) == 0.0
        assert geomean([0, -1]) == 0.0

    def test_format_table(self):
        out = format_table(["a", "b"], [[1, 2.5], ["x", 3]], title="T")
        assert "T" in out and "2.50" in out and "x" in out


class TestMeasureResult:
    def test_stats(self):
        m = MeasureResult("f", "d", "a", [1.0, 3.0, 2.0], 10.0, 0, 0, 0)
        assert m.median_ns == 2.0
        assert m.std_ns == pytest.approx(np.std([1, 2, 3]))
        assert m.median_with_prep_ns == 12.0
