"""Golden modeled outputs of the flat bitmap and the 2LB.

The BENCH ledger runs these layouts on the V100S at its default 32-bit
words only.  This test pins them on every device profile at both word
widths: per case, BFS (the push advance, the 2LB offsets kernel and the
summary writes), CC, direction-optimizing BFS (the pull probe) and one
``frontier_union`` into the layout, all on one queue over kron (tiny).
Each case records the modeled clock, the kernel-name sequence, the DRAM
bytes, the memory peak, the number of allocations and a digest of the
results.  A change to how either layout is stored, scanned or priced
must leave every record unchanged.

Regenerate ``golden_bitmap_layouts.json`` (only when a modeled change
is intended) with::

    PYTHONPATH=src python -m tests.frontier.test_bitmap_golden
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms.bfs import bfs, direction_optimizing_bfs
from repro.algorithms.catalog import GraphBundle
from repro.algorithms.cc import cc
from repro.frontier import frontier_union, make_frontier
from repro.graph.datasets import load_dataset
from repro.sycl import Queue, get_device

GOLDEN = Path(__file__).with_name("golden_bitmap_layouts.json")

CASES = [
    (layout, device, bits)
    for layout in ("bitmap", "2lb")
    for device in ("v100s", "mi100", "max1100")
    for bits in (32, 64)
]


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part).tobytes() if isinstance(part, np.ndarray) else part.encode())
    return h.hexdigest()[:16]


def run_case(layout: str, device: str, bits: int) -> dict:
    queue = Queue(get_device(device), capacity_limit=0)
    graphs = GraphBundle("kron", load_dataset("kron", "tiny"), queue)
    csr = graphs.get("csr")
    n = csr.get_vertex_count()
    levels = bfs(csr, 0, layout=layout, bits=bits).distances
    labels = cc(graphs.get("csr_undirected"), layout=layout, bits=bits).labels
    pulled = direction_optimizing_bfs(csr, graphs.get("csc"), 0, layout=layout, bits=bits).distances
    a, b, out = (make_frontier(queue, n, layout=layout, bits=bits) for _ in range(3))
    a.insert(np.arange(0, n, 3))
    b.insert(np.arange(0, n, 7))
    frontier_union(a, b, out)
    names = [cost.name for cost in queue.profile.costs]
    return {
        "elapsed_ns": int(queue.elapsed_ns),
        "kernels": len(names),
        "kernel_sequence": _digest("\n".join(names)),
        "dram_bytes": int(queue.profile.total_dram_bytes),
        "peak_bytes": int(queue.memory.peak_bytes),
        "allocations": sum(1 for e in queue.memory.timeline if e.label.startswith("alloc:")),
        "result": _digest(levels, labels, pulled, out.active_elements()),
    }


def case_name(layout: str, device: str, bits: int) -> str:
    return f"{layout}/{device}/{bits}"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(case_name(*case) for case in CASES)


@pytest.mark.parametrize("case", CASES, ids=lambda case: case_name(*case))
def test_case_matches_golden(case, golden):
    assert run_case(*case) == golden[case_name(*case)]


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({case_name(*case): run_case(*case) for case in CASES}, indent=2, sort_keys=True)
        + "\n"
    )
