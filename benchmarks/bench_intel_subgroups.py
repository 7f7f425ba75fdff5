"""Intel subgroup-size flexibility (paper §4.2-4.3).

"Whereas NVIDIA and AMD GPUs have fixed subgroup sizes, Intel GPUs allow
flexibility with sizes of 16 or 32 threads in SIMD on Intel MAX 1100...
For Intel GPUs, set the bitmap integer to 32 and select a subgroup size
of 32 threads."

Runs BFS on the MAX 1100 profile at SIMD16 and SIMD32 and checks that the
paper's chosen configuration (SIMD32 matching the 32-bit bitmap word)
wins: at SIMD16 every 32-bit word needs two subgroup passes.
"""

import numpy as np

from repro.algorithms import bfs
from repro.bench.reporting import format_table
from repro.checking.oracle import oracle_bfs
from repro.graph.builder import GraphBuilder
from repro.graph.datasets import load_dataset
from repro.operators.advance import AdvanceConfig
from repro.sycl import Queue, get_device


def test_intel_subgroup_choice(benchmark):
    coo = load_dataset("indochina", "small")
    ref = oracle_bfs(coo.n_vertices, coo.src, coo.dst, 1)

    def run():
        out = {}
        for sg in (16, 32):
            q = Queue(get_device("max1100"), capacity_limit=0)
            g = GraphBuilder(q).to_csr(coo)
            params = q.inspect(subgroup_size=sg)
            q.reset_profile()
            r = bfs(g, 1, config=AdvanceConfig(params=params))
            assert np.array_equal(r.distances, ref)
            out[sg] = q.elapsed_ns
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [[f"SIMD{sg}", round(t / 1e3, 2)] for sg, t in sorted(out.items())]
    print("\n" + format_table(
        ["subgroup size", "BFS time (us)"],
        rows,
        title="Intel MAX 1100 subgroup-size choice (paper §4.3)",
    ) + "\n")
    assert out[32] <= out[16], "SIMD32 (matching 32-bit words) must win"
