"""The fusion pass: workload algebra, executor buffering, modeled savings."""

import numpy as np
import pytest

from repro.algorithms.bfs import bfs
from repro.algorithms.cc import cc
from repro.algorithms.pagerank import pagerank
from repro.exec import fuse_workloads
from repro.exec.fusion import is_null
from repro.graph.builder import GraphBuilder, from_edges
from repro.graph.generators import rmat
from repro.obs.span import SpanTracer, iteration_breakdown
from repro.perfmodel.cost import KernelWorkload, null_workload
from repro.sycl import Queue
from repro.sycl.ndrange import Range


def _wl(name, lanes, ipl, addrs, region="userdata", write=False, atomics=0, targets=0):
    geom = Range(max(1, lanes)).resolve(256, 32)
    wl = KernelWorkload(
        name=name, geometry=geom, active_lanes=lanes, instructions_per_lane=ipl,
        atomics=atomics, atomic_targets=targets,
    )
    wl.add_stream(np.asarray(addrs, dtype=np.int64), 8, region, is_write=write, label=name)
    return wl


class TestFuseWorkloads:
    def test_epilogue_order_and_accounting(self):
        adv = _wl("advance.frontier", 100, 9.0, np.arange(100), atomics=10, targets=4)
        cmp_ = _wl("compute.execute", 40, 6.0, np.arange(40), write=True, atomics=2, targets=2)
        fused = fuse_workloads(adv, cmp_, prologue=False)
        assert fused.name == "advance.frontier+compute.execute"
        assert fused.geometry is adv.geometry
        assert fused.active_lanes == 100 and fused.instructions_per_lane == 9.0
        assert [s.label for s in fused.streams] == ["advance.frontier", "compute.execute"]
        assert fused.serial_ops == adv.serial_ops + cmp_.serial_ops + 40 * 6.0
        assert fused.atomics == 12 and fused.atomic_targets == 6

    def test_prologue_order(self):
        adv = _wl("advance.frontier", 10, 9.0, np.arange(10))
        jump = _wl("compute.execute_all", 5, 4.0, np.arange(5))
        fused = fuse_workloads(adv, jump, prologue=True)
        assert fused.name == "compute.execute_all+advance.frontier"
        assert [s.label for s in fused.streams] == ["compute.execute_all", "advance.frontier"]

    def test_null_propagates(self):
        adv = _wl("a", 10, 9.0, np.arange(10))
        assert is_null(fuse_workloads(adv, null_workload("b")))
        assert is_null(fuse_workloads(null_workload("a"), adv))


def _graph(queue, scale=8):
    coo = rmat(scale, 8, seed=11)
    return GraphBuilder(queue).to_csr(coo), coo


def _kernel_names(tracer):
    out = []

    def walk(span):
        out.extend(k.name for k in span.kernels)
        for c in span.children:
            walk(c)

    walk(tracer.root)
    return out


class TestExecutorFusion:
    def test_bfs_submits_fused_kernels(self):
        q = Queue()
        g, _ = _graph(q)
        tr = SpanTracer()
        q.tracer = tr
        bfs(g, 0, fuse=True)
        q.tracer = None
        names = _kernel_names(tr)
        assert any(n == "advance.frontier+compute.execute" for n in names)
        # no standalone depth-stamp kernels survive in the hot loop
        assert not any(n == "compute.execute" for n in names)

    def test_cc_shortcut_jump_becomes_prologue(self):
        q = Queue()
        coo = rmat(8, 8, seed=11)
        g = GraphBuilder(q).to_csr(coo.symmetrized())
        tr = SpanTracer()
        q.tracer = tr
        cc(g, fuse=True)
        q.tracer = None
        names = _kernel_names(tr)
        assert any(n == "compute.execute_all+advance.frontier" for n in names)

    def test_span_step_submits_its_kernel(self):
        """A kernel held inside a SpanStep is submitted before the span
        closes: fused CC's init advance is its iteration-0 row's kernel,
        and every iteration has a row with kernels."""
        q = Queue()
        g = GraphBuilder(q).to_csr(rmat(8, 8, seed=11).symmetrized())
        tr = q.enable_tracing()
        result = cc(g, fuse=True)
        rows = iteration_breakdown(tr)
        assert len(rows) == result.iterations
        assert all(row["kernels"] > 0 for row in rows)

    def test_modeled_time_reduction_bfs_cc_pagerank(self):
        coo = rmat(9, 8, seed=11)
        for fn, sym, kw in [
            (bfs, False, dict(source=0)),
            (cc, True, dict()),
            (pagerank, False, dict(max_iterations=15)),
        ]:
            times = {}
            for fuse in (False, True):
                q = Queue()
                g = GraphBuilder(q).to_csr(coo.symmetrized() if sym else coo)
                q.reset_profile()
                fn(g, fuse=fuse, **kw)
                times[fuse] = q.elapsed_ns
            assert times[True] < times[False], fn.__name__

    def test_fusion_results_bit_identical(self):
        coo = rmat(9, 8, seed=11)
        q0, q1 = Queue(), Queue()
        g0 = GraphBuilder(q0).to_csr(coo)
        g1 = GraphBuilder(q1).to_csr(coo)
        r0, r1 = bfs(g0, 0), bfs(g1, 0, fuse=True)
        assert np.array_equal(r0.distances, r1.distances)
        assert (r0.iterations, r0.visited) == (r1.iterations, r1.visited)

    def test_unpaired_compute_flushes_standalone(self):
        # a lone compute with no adjacent advance must still submit
        # under fuse=True (held as a prospective prologue, then flushed)
        from repro.exec import ComputeStep, ExecContext, PlanExecutor
        from repro.frontier import FrontierView, make_frontier

        q = Queue()
        g = from_edges(q, [0, 1], [1, 2], n_vertices=3)
        f = make_frontier(q, 3, FrontierView.VERTEX, layout="2lb")
        f.insert([0, 1])
        ctx = ExecContext(q, graphs={"csr": g}, frontiers={"in": f})
        hit = []
        tr = SpanTracer()
        q.tracer = tr
        PlanExecutor(q, fuse=True).run_steps(
            [ComputeStep(lambda c: hit.append, frontier="in")], ctx
        )
        q.tracer = None
        assert list(hit[0]) == [0, 1]  # effect ran
        assert "compute.execute" in _kernel_names(tr)  # kernel submitted

    def test_default_is_unfused(self):
        q = Queue()
        g, _ = _graph(q)
        tr = SpanTracer()
        q.tracer = tr
        bfs(g, 0)
        q.tracer = None
        names = _kernel_names(tr)
        assert not any("+" in n for n in names)
        assert any(n == "compute.execute" for n in names)
