"""Golden modeled outputs of k-core, Jones-Plassmann coloring and Luby MIS.

This test pins each case: algorithm (``k_core``; ``jones_plassmann`` and
``luby_mis`` at seeds 0 and 1) x dataset (kron and ca at ``tiny``,
symmetrized with self-loops dropped) x layout (2lb, bitmap, vector,
boolmap) x device (V100S, MI100).  Each case records the modeled clock
of the run, its kernel count, a digest of its kernel-name sequence, its
DRAM bytes, the iteration count and the result's ``result_digest``;
k-core cases also record the queue's peak bytes.  A change to how these
algorithms drive their operators must leave every record unchanged.

Regenerate ``golden_extensions.json`` (only when a modeled change is
intended) with::

    PYTHONPATH=src python -m tests.algorithms.test_extension_golden
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.algorithms.catalog import result_digest
from repro.algorithms.coloring import jones_plassmann, luby_mis
from repro.algorithms.kcore import k_core
from repro.graph.builder import GraphBuilder
from repro.graph.datasets import load_dataset
from repro.sycl import Queue, get_device

GOLDEN = Path(__file__).with_name("golden_extensions.json")

#: name -> (entry, result field, seeds)
ALGORITHMS = {
    "k_core": (lambda g, layout, seed: k_core(g, layout=layout), "core_numbers", (None,)),
    "jones_plassmann": (
        lambda g, layout, seed: jones_plassmann(g, layout=layout, seed=seed), "colors", (0, 1)
    ),
    "luby_mis": (lambda g, layout, seed: luby_mis(g, layout=layout, seed=seed), "in_set", (0, 1)),
}
DATASETS = ("kron", "ca")
LAYOUTS = ("2lb", "bitmap", "vector", "boolmap")
DEVICES = ("v100s", "mi100")

CASES = [
    (algorithm, seed, dataset, layout, device)
    for algorithm, (_, _, seeds) in ALGORITHMS.items()
    for seed in seeds
    for dataset in DATASETS
    for layout in LAYOUTS
    for device in DEVICES
]


def case_name(algorithm, seed, dataset, layout, device) -> str:
    run = algorithm if seed is None else f"{algorithm}({seed})"
    return f"{run}/{dataset}/{layout}/{device}"


def run_case(algorithm, seed, dataset, layout, device) -> dict:
    entry, field, _ = ALGORITHMS[algorithm]
    queue = Queue(get_device(device))
    coo = load_dataset(dataset, "tiny")
    graph = GraphBuilder(queue).to_csr(coo.symmetrized().without_self_loops())
    queue.reset_profile()
    result = entry(graph, layout, seed)
    profile = queue.profile
    names = "\n".join(cost.name for cost in profile.costs)
    record = {
        "elapsed_ns": int(queue.elapsed_ns),
        "kernels": len(profile.costs),
        "kernel_sequence": hashlib.sha256(names.encode()).hexdigest()[:16],
        "dram_bytes": int(profile.total_dram_bytes),
        "iterations": int(result.iterations),
        "result": result_digest(getattr(result, field)),
    }
    if algorithm == "k_core":
        record["peak_bytes"] = int(queue.memory.peak_bytes)
    return record


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
