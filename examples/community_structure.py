#!/usr/bin/env python
"""Community structure toolkit: k-core peeling, coloring, MIS, and the
multi-GPU preview.

Shows the extension algorithms built purely from the framework's filter /
compute / advance primitives, and closes with the paper-conclusion
multi-GPU BSP BFS over static partitions.

Run:  python examples/community_structure.py
"""

import numpy as np

from repro.algorithms import jones_plassmann, k_core, luby_mis
from repro.dist import distributed_bfs
from repro.graph import generators as gen
from repro.graph.builder import GraphBuilder
from repro.sycl import Queue, get_device


def main() -> None:
    queue = Queue(get_device("v100s"))
    coo = gen.preferential_attachment(3_000, 6, seed=77).symmetrized().without_self_loops()
    graph = GraphBuilder(queue).to_csr(coo)
    n = graph.get_vertex_count()
    print(f"network: {n:,} members, {graph.n_edges:,} ties")

    # --- k-core peeling: onion layers of the community ------------------ #
    cores = k_core(graph)
    print(f"k-core: degeneracy {cores.degeneracy} after {cores.iterations} peels")
    for k in range(1, cores.degeneracy + 1):
        print(f"  {k}-core: {cores.core(k).size:5d} members")

    # --- coloring: conflict-free scheduling groups ----------------------- #
    coloring = jones_plassmann(graph, seed=3)
    assert coloring.is_proper(graph)
    sizes = np.bincount(coloring.colors)
    print(
        f"coloring: {coloring.n_colors} classes in {coloring.iterations} rounds "
        f"(largest class {sizes.max()}, smallest {sizes.min()})"
    )

    # --- maximal independent set: a spread-out sample -------------------- #
    mis = luby_mis(graph, seed=3)
    print(f"MIS: {mis.size:,} mutually unconnected members in {mis.iterations} rounds")

    # --- multi-GPU preview (paper conclusion) ---------------------------- #
    print("\nmulti-GPU BSP BFS over static partitions:")
    for n_devices in (1, 2, 4):
        r = distributed_bfs(coo, n_devices, source=0)
        times = ", ".join(f"{t / 1e3:.1f}" for t in r.device_times_ns)
        print(
            f"  {n_devices} device(s): makespan {r.makespan_ns / 1e3:7.1f} us "
            f"(per-device us: {times}; ghost msgs {r.ghost_messages:,})"
        )


if __name__ == "__main__":
    main()
