"""Figure 9 — device-memory consumption during BFS on roadNet-CA,
Hollywood-2009 and Indochina-2004.

Expected shape: SYgraph's footprint is flat and among the smallest;
Gunrock grows with the frontier; Tigr's resident UDT structures dwarf
everyone; SEP-Graph spikes mid-run when it switches to pull.
"""

from repro.baselines import make_runner
from repro.bench.experiments import fig9_memory
from repro.bench.harness import env_scale
from repro.bench.reporting import bar_series
from repro.graph.datasets import load_dataset


def test_fig9_memory(benchmark):
    out = benchmark.pedantic(fig9_memory, rounds=1, iterations=1)
    print("\n" + out["text"] + "\n")
    for ds, totals in out["totals"].items():
        names = list(totals)
        print(bar_series(f"peak memory on {ds} (MB)", [totals[n] / 1e6 for n in names], names, "MB"))
        # Tigr is the heavyweight on every dataset
        assert max(totals, key=totals.get) == "tigr"
        # SYgraph is at or near the minimum
        assert totals["sygraph"] <= 1.3 * min(totals.values())


def test_fig9_sep_pull_spike():
    """SEP-Graph's trace shows a transient allocation (the pull staging
    buffer) that each pull releases: the paper's mid-run CA spike.  The
    ``sep.pull.spike`` tick reads the total with the stage live; the
    ``sep.pull.release`` tick after it must read less: the total from
    before the stage was allocated."""
    runner = make_runner("sep", load_dataset("hollywood", env_scale()))
    memory = runner.queue.memory
    memory.reset_timeline()
    runner.bfs(1)
    pulls = []
    for event in memory.timeline:
        if event.label == "alloc:sep.pull.stage":
            pulls.append({"before": event.total_bytes - event.delta})
        elif event.label in ("sep.pull.spike", "sep.pull.release"):
            pulls[-1][event.label.rsplit(".", 1)[1]] = event.total_bytes
    assert pulls, "the BFS never pulled"
    for pull in pulls:
        assert pull["release"] < pull["spike"]
        assert pull["release"] == pull["before"]
