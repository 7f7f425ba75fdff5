"""Figure 7 — bitmap optimization ablation (Base/MSI/CF/2LB/All) on
Indochina BFS, V100S profile.

Expected shape: All is the fastest configuration; MSI and CF each beat
Base.  (The isolated 2LB bar is compressed at our dataset scale — see
EXPERIMENTS.md.)
"""

from repro.bench.experiments import fig7_ablation


def test_fig7_ablation(benchmark):
    out = benchmark.pedantic(fig7_ablation, rounds=1, iterations=1)
    print("\n" + out["text"] + "\n")
    times = out["times"]
    assert times["All"] <= min(times["Base"], times["MSI"], times["CF"]) * 1.05


def test_fig7_all_configs_correct():
    """Every ablation config must still compute correct BFS distances."""
    import numpy as np

    from repro.algorithms import bfs
    from repro.bench.experiments import ABLATION_CONFIGS
    from repro.checking.oracle import oracle_bfs
    from repro.graph.builder import GraphBuilder
    from repro.graph.datasets import load_dataset
    from repro.operators.advance import AdvanceConfig
    from repro.sycl import Queue, get_device

    coo = load_dataset("indochina", "tiny")
    ref = oracle_bfs(coo.n_vertices, coo.src, coo.dst, 1)
    for name, (layout, inspect_kwargs) in ABLATION_CONFIGS.items():
        q = Queue(get_device("v100s"), capacity_limit=0)
        g = GraphBuilder(q).to_csr(coo)
        r = bfs(g, 1, layout=layout, config=AdvanceConfig(params=q.inspect(**inspect_kwargs)))
        assert np.array_equal(r.distances, ref), f"config {name} broke BFS"
