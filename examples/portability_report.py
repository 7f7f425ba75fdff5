#!/usr/bin/env python
"""Portability report: one workload, every SYCL backend (Figure 10 style).

Writes a graph to a MatrixMarket file, reloads it through the IO API
(like a user with on-disk data), and reports per-device medians for all
four evaluated algorithms plus the multi-GPU partitioning preview from
the paper's conclusion.

Run:  python examples/portability_report.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.algorithms import bc, bfs, cc, sssp
from repro.bench.reporting import format_table
from repro.dist import edge_balance, partition_static
from repro.graph import generators as gen
from repro.graph.builder import GraphBuilder
from repro.graph.io import read_matrix_market, write_matrix_market
from repro.sycl import Queue, get_device, list_devices


def main() -> None:
    # a user's on-disk dataset: write + reload through the IO API
    coo = gen.web_graph(60, 80, intra_degree=16, seed=42, weighted=True)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "crawl.mtx"
        write_matrix_market(coo, path)
        coo = read_matrix_market(path)
    print(f"crawl graph: {coo.n_vertices:,} pages, {coo.n_edges:,} links")

    rows = []
    for dev_name in list_devices():
        queue = Queue(get_device(dev_name))
        graph = GraphBuilder(queue).to_csr(coo)
        graph_sym = GraphBuilder(queue).to_csr(coo.symmetrized())
        cell = [dev_name]
        for algo_name, run in (
            ("bfs", lambda: bfs(graph, 1)),
            ("sssp", lambda: sssp(graph, 1)),
            ("cc", lambda: cc(graph_sym)),
            ("bc", lambda: bc(graph, sources=[1, 2, 3])),
        ):
            queue.reset_profile()
            run()
            cell.append(round(queue.elapsed_ns / 1e6, 3))
        rows.append(cell)
    print(format_table(["device", "bfs (ms)", "sssp (ms)", "cc (ms)", "bc (ms)"], rows,
                       title="simulated medians per device profile"))

    # the conclusion's multi-GPU sketch: static partitioning preview
    parts = partition_static(coo, 4)
    print(f"\nstatic 4-way partition (paper's future-work hook):")
    for p in parts:
        print(
            f"  gpu{p.index}: vertices [{p.vertex_lo:>6}, {p.vertex_hi:>6})  "
            f"edges {p.local.n_edges:>8,}  ghosts {p.ghost_vertices.size:>6,}"
        )
    print(f"  edge balance (max/mean): {edge_balance(parts):.2f}")


if __name__ == "__main__":
    main()
