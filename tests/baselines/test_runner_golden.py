"""Golden modeled outputs of the Gunrock, Tigr and SEP-Graph runners.

Fig. 8, Fig. 9 and Tables 5-6 read these runners' modeled clocks,
kernels and memory timelines.  This test pins them per case: framework
x algorithm (``bfs(1)``, ``sssp(1)``, ``cc()``, ``bc([1, 2])``) x
dataset (kron and ca at ``tiny``, weighted) x device (V100S, MI100).
Each case records the modeled clock of the run, a digest of its
kernel-name sequence, its DRAM bytes, the runner's peak bytes, a digest
of the memory timeline taken the way ``fig9_memory`` takes it, the
preprocessing time, the iteration count, Table 5's peak L1 hit rate and
peak occupancy at the harness's advance prefix, and a digest of the
result.  A change to how a runner drives its traversal must leave every
record unchanged.

Regenerate ``golden_runners.json`` (only when a modeled change is
intended) with::

    PYTHONPATH=src python -m tests.baselines.test_runner_golden
"""

import hashlib
import json
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import make_runner
from repro.bench.harness import _ADVANCE_PREFIX
from repro.graph.datasets import load_dataset
from repro.sycl import get_device

GOLDEN = Path(__file__).with_name("golden_runners.json")

FRAMEWORKS = ("gunrock", "tigr", "sep")
ALGORITHMS = ("bfs", "sssp", "cc", "bc")
DATASETS = ("kron", "ca")
DEVICES = ("v100s", "mi100")

CASES = [
    (framework, algorithm, dataset, device)
    for framework in FRAMEWORKS
    for algorithm in ALGORITHMS
    for dataset in DATASETS
    for device in DEVICES
]


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part).tobytes() if isinstance(part, np.ndarray) else part.encode())
    return h.hexdigest()[:16]


def _run(runner, algorithm: str):
    """Run one algorithm; returns (result array, iterations)."""
    if algorithm == "bfs":
        result = runner.bfs(1)
        return result.distances, result.iterations
    if algorithm == "sssp":
        result = runner.sssp(1)
        return result.distances, result.iterations
    if algorithm == "cc":
        result = runner.cc()
        return result.labels, result.iterations
    result = runner.bc([1, 2])
    return result.scores, result.total_iterations


@lru_cache(maxsize=None)
def _execute(framework: str, algorithm: str, dataset: str, device: str):
    """Run one case; returns (record, kernel names)."""
    runner = make_runner(framework, load_dataset(dataset, "tiny", weighted=True), get_device(device))
    if not runner.supports(algorithm):
        return {"supported": False}, ()
    runner.reset_timers()
    memory = runner.queue.memory
    memory.reset_timeline()
    memory.tick("start")
    values, iterations = _run(runner, algorithm)
    steps, totals = memory.usage_trace()
    profile = runner.queue.profile
    names = tuple(cost.name for cost in profile.costs)
    prefix = _ADVANCE_PREFIX[framework]
    record = {
        "elapsed_ns": int(runner.elapsed_ns),
        "kernels": len(names),
        "kernel_sequence": _digest("\n".join(names)),
        "dram_bytes": int(profile.total_dram_bytes),
        "peak_bytes": int(runner.peak_bytes),
        "memory_trace": _digest(steps, totals),
        "preprocessing_ns": float(runner.preprocessing_ns),
        "iterations": int(iterations),
        "peak_l1_hit_rate": float(profile.peak_l1_hit_rate(prefix)),
        "peak_occupancy": float(profile.peak_occupancy(prefix)),
        "result": _digest(np.asarray(values)),
    }
    return record, names


def run_case(framework: str, algorithm: str, dataset: str, device: str) -> dict:
    return _execute(framework, algorithm, dataset, device)[0]


def case_name(framework: str, algorithm: str, dataset: str, device: str) -> str:
    return f"{framework}/{algorithm}/{dataset}/{device}"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(case_name(*case) for case in CASES)


@pytest.mark.parametrize("case", CASES, ids=lambda case: case_name(*case))
def test_case_matches_golden(case, golden):
    assert run_case(*case) == golden[case_name(*case)]


@pytest.mark.parametrize("device", DEVICES)
class TestCoveredPaths:
    """The cases exercise every mechanism the runners charge for."""

    def test_sep_bfs_pulls_and_pushes_on_kron(self, device):
        _, names = _execute("sep", "bfs", "kron", device)
        assert names.count("sep.pull") == 2
        assert names.count("advance.frontier") == 3  # the push levels
        assert names.count("sep.selector") == 5

    def test_sep_has_no_cc(self, device):
        assert run_case("sep", "cc", "kron", device) == {"supported": False}

    @pytest.mark.parametrize("dataset", DATASETS)
    def test_gunrock_cc_pointer_jumps(self, device, dataset):
        _, names = _execute("gunrock", "cc", dataset, device)
        assert "gunrock.cc.jump" in names
        assert "gunrock.filter.compact" in names

    @pytest.mark.parametrize("algorithm", ("bfs", "sssp", "cc"))
    def test_tigr_translates(self, device, algorithm):
        _, names = _execute("tigr", algorithm, "ca", device)
        assert names[-1] == "tigr.post.translate"
        assert "tigr.step" in names


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({case_name(*case): run_case(*case) for case in CASES}, indent=2, sort_keys=True)
        + "\n"
    )
