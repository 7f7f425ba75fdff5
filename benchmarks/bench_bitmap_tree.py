"""Bitmap-tree depth ablation (paper §4.4).

"More than two layers add substantial overhead because of increased
computation for nonzero integer offsets and extra synchronization during
advance operations. ... In our tests, two layers were used to optimize
workload balance and overhead effectively."

This bench runs BFS with 1/2/3/4-layer bitmap-trees on both an Intel
profile (native specialization constants: the dynamic layer loop folds to
immediates) and the CUDA profile (no native spec constants: extra per-word
instructions), and checks the paper's conclusion — two layers win.
"""

import numpy as np

from repro.bench.reporting import format_table
from repro.checking.oracle import oracle_bfs
from repro.frontier import make_frontier, swap
from repro.graph.builder import GraphBuilder
from repro.graph.datasets import load_dataset
from repro.operators import advance, compute
from repro.sycl import Queue, get_device


def _tree_bfs(queue, graph, source, n_layers):
    n = graph.get_vertex_count()
    fin = make_frontier(queue, n, layout="tree", n_layers=n_layers)
    fout = make_frontier(queue, n, layout="tree", n_layers=n_layers)
    dist = np.full(n, -1, np.int64)
    dist[source] = 0
    fin.insert(source)
    it = 0
    while not fin.empty():
        advance.frontier(graph, fin, fout, lambda s, d, e, w: dist[d] == -1).wait()
        depth = it + 1
        compute.execute(graph, fout, lambda ids: dist.__setitem__(ids, depth)).wait()
        swap(fin, fout)
        fout.clear()
        it += 1
    return dist


def _sweep(device_name, coo, ref):
    times = {}
    for n_layers in (1, 2, 3, 4):
        queue = Queue(get_device(device_name), capacity_limit=0)
        graph = GraphBuilder(queue).to_csr(coo)
        queue.reset_profile()
        dist = _tree_bfs(queue, graph, 1, n_layers)
        assert np.array_equal(dist, ref)
        times[n_layers] = queue.elapsed_ns
    return times


def test_bitmap_tree_depth(benchmark):
    coo = load_dataset("indochina", "small")
    ref = oracle_bfs(coo.n_vertices, coo.src, coo.dst, 1)

    def run():
        return {dev: _sweep(dev, coo, ref) for dev in ("v100s", "max1100")}

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for dev, times in out.items():
        best = min(times, key=times.get)
        for nl, t in sorted(times.items()):
            rows.append([dev, nl, round(t / 1e3, 2), "<-- best" if nl == best else ""])
    print("\n" + format_table(["device", "layers", "BFS time (us)", ""], rows,
                              title="bitmap-tree depth ablation (paper §4.4)") + "\n")

    for dev, times in out.items():
        # the paper's conclusion: two layers beat deeper trees
        assert times[2] < times[3] < times[4], f"deeper trees must cost more on {dev}"

    # report the spec-constants effect (the per-layer instruction penalty
    # on backends that cannot fold the dynamic layer loop)
    for dev in out:
        penalty = out[dev][3] / out[dev][2]
        print(f"  3-layer penalty on {dev}: {penalty:.2f}x")
