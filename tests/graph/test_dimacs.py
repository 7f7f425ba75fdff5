"""DIMACS .gr format (the road-USA distribution format)."""

import io

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph.coo import COOGraph
from repro.graph.io import read_dimacs, write_dimacs


class TestReadDimacs:
    def test_basic(self):
        text = "c comment\np sp 4 2\na 1 2 5\na 2 4 1.5\n"
        coo = read_dimacs(io.StringIO(text))
        assert coo.n_vertices == 4
        assert list(coo.src) == [0, 1]
        assert list(coo.dst) == [1, 3]
        assert np.allclose(coo.weights, [5.0, 1.5])

    def test_comments_anywhere(self):
        text = "c a\np sp 2 1\nc b\na 1 2 1\n"
        assert read_dimacs(io.StringIO(text)).n_edges == 1

    def test_missing_problem_line(self):
        with pytest.raises(GraphFormatError):
            read_dimacs(io.StringIO("a 1 2 1\n"))

    def test_no_problem_line_at_all(self):
        with pytest.raises(GraphFormatError):
            read_dimacs(io.StringIO("c only comments\n"))

    def test_bad_record(self):
        with pytest.raises(GraphFormatError):
            read_dimacs(io.StringIO("p sp 2 1\nx 1 2\n"))

    def test_short_arc_line(self):
        with pytest.raises(GraphFormatError):
            read_dimacs(io.StringIO("p sp 2 1\na 1 2\n"))

    def test_wrong_problem_kind(self):
        with pytest.raises(GraphFormatError):
            read_dimacs(io.StringIO("p max 2 1\na 1 2 1\n"))

    def test_arc_beyond_declared_vertices_rejected_with_line(self):
        # regression: arcs past the declared n used to surface from
        # COOGraph (no line context) instead of the parser
        text = "p sp 3 2\na 1 2 1\na 2 9 1\n"
        with pytest.raises(GraphFormatError, match="line 3.*id 9 out of declared range"):
            read_dimacs(io.StringIO(text))

    def test_zero_vertex_id_rejected(self):
        # ids are 1-based; 0 would silently wrap to -1
        with pytest.raises(GraphFormatError, match="line 2.*out of declared range"):
            read_dimacs(io.StringIO("p sp 2 1\na 0 2 1\n"))


class TestRoundtrip:
    def test_file_roundtrip(self, tmp_path):
        orig = COOGraph(5, [0, 2, 4], [1, 3, 0], weights=[1.0, 2.5, 3.0])
        p = tmp_path / "g.gr"
        write_dimacs(orig, p)
        back = read_dimacs(p)
        assert back.n_vertices == 5
        assert np.array_equal(back.src, orig.src)
        assert np.array_equal(back.dst, orig.dst)
        assert np.allclose(back.weights, orig.weights)

    def test_unweighted_writes_unit_weights(self):
        orig = COOGraph(3, [0], [1])
        buf = io.StringIO()
        write_dimacs(orig, buf)
        buf.seek(0)
        back = read_dimacs(buf)
        assert list(back.weights) == [1.0]

    def test_sssp_on_dimacs_graph(self, tmp_path):
        """End to end: DIMACS road file -> SSSP (the road-USA workflow)."""
        from repro.algorithms import sssp
        from tests.validation import reference_sssp
        from repro.graph import generators as gen
        from repro.graph.builder import GraphBuilder
        from repro.sycl import Queue

        coo = gen.road_network(12, 12, seed=85, weighted=True)
        p = tmp_path / "road.gr"
        write_dimacs(coo, p)
        loaded = read_dimacs(p)
        q = Queue(capacity_limit=0)
        g = GraphBuilder(q).to_csr(loaded)
        r = sssp(g, 0)
        ref = reference_sssp(coo.n_vertices, coo.src, coo.dst, coo.weights, 0)
        assert np.allclose(r.distances, ref, rtol=1e-4)
