"""Framework runners: correctness parity and mechanism checks.  The BENCH
ledger's ``runner/...`` family pins their modeled outputs."""

from functools import lru_cache

import numpy as np
import pytest

from tests.validation import reference_bfs, reference_cc, reference_sssp
from repro.baselines import make_runner, runner_names
from repro.bench import ledger
from repro.graph import generators as gen
from repro.graph.datasets import load_dataset
from repro.sycl.device import get_device

RUNNERS = ["sygraph", "gunrock", "tigr", "sep"]
DATASETS = ledger.DATASETS
DEVICES = ledger.DEVICES


@pytest.fixture(scope="module")
def kron_tiny():
    return load_dataset("kron", "tiny", weighted=True)


@pytest.fixture(scope="module")
def references(kron_tiny):
    coo = kron_tiny
    sym = coo.symmetrized()
    return {
        "bfs": reference_bfs(coo.n_vertices, coo.src, coo.dst, 1),
        "sssp": reference_sssp(coo.n_vertices, coo.src, coo.dst, coo.weights, 1),
        "cc": reference_cc(sym.n_vertices, sym.src, sym.dst)[0],
    }


class TestRegistry:
    def test_all_four_registered(self):
        assert set(runner_names()) == {"sygraph", "gunrock", "tigr", "sep"}

    def test_unknown_runner(self, kron_tiny):
        with pytest.raises(KeyError):
            make_runner("ligra", kron_tiny)


@pytest.mark.parametrize("name", RUNNERS)
class TestCorrectnessParity:
    """All frameworks must produce identical *results* — the comparison is
    about cost, never about answers."""

    def test_bfs(self, name, kron_tiny, references):
        r = make_runner(name, kron_tiny)
        assert np.array_equal(r.bfs(1).distances, references["bfs"])

    def test_sssp(self, name, kron_tiny, references):
        r = make_runner(name, kron_tiny)
        assert np.allclose(r.sssp(1).distances, references["sssp"], rtol=1e-5)

    def test_sssp_relaxations_agree_with_sygraph(self, name, kron_tiny):
        """Every runner counts the edges whose relaxation improved a
        distance, as ``SSSPResult.relaxations`` documents."""
        ours = make_runner("sygraph", kron_tiny).sssp(1)
        assert make_runner(name, kron_tiny).sssp(1).relaxations == ours.relaxations

    def test_cc(self, name, kron_tiny, references):
        r = make_runner(name, kron_tiny)
        if not r.supports("cc"):
            pytest.skip("SEP-Graph ships no CC (paper §5.2)")
        assert r.cc().n_components == references["cc"]

    def test_bc_agrees_with_sygraph(self, name, kron_tiny, references):
        ours = make_runner("sygraph", kron_tiny).bc([1, 2])
        theirs = make_runner(name, kron_tiny).bc([1, 2])
        assert np.allclose(theirs.scores, ours.scores, atol=1e-6)


class TestMechanisms:
    def test_sygraph_no_preprocessing(self, kron_tiny):
        assert make_runner("sygraph", kron_tiny).preprocessing_ns == 0.0

    def test_gunrock_no_preprocessing(self, kron_tiny):
        assert make_runner("gunrock", kron_tiny).preprocessing_ns == 0.0

    def test_tigr_heaviest_preprocessing(self, kron_tiny):
        """Tigr's UDT transform dwarfs SEP's partitioning (paper §5.2)."""
        tigr = make_runner("tigr", kron_tiny)
        sep = make_runner("sep", kron_tiny)
        assert tigr.preprocessing_ns > 10 * sep.preprocessing_ns > 0

    def test_gunrock_runs_dedup_kernels(self, kron_tiny):
        r = make_runner("gunrock", kron_tiny)
        r.bfs(1)
        names = {c.name for c in r.queue.profile.costs}
        assert {"gunrock.filter.mark", "gunrock.filter.scan", "gunrock.filter.compact"} <= names

    def test_sygraph_never_runs_dedup(self, kron_tiny):
        r = make_runner("sygraph", kron_tiny)
        r.bfs(1)
        names = {c.name for c in r.queue.profile.costs}
        assert not any("dedup" in n or "filter" in n for n in names)

    def test_sep_runs_selector_each_iteration(self, kron_tiny):
        r = make_runner("sep", kron_tiny)
        result = r.bfs(1)
        selectors = [c for c in r.queue.profile.costs if c.name == "sep.selector"]
        assert len(selectors) == result.iterations

    def test_sep_cc_unsupported(self, kron_tiny):
        r = make_runner("sep", kron_tiny)
        assert not r.supports("cc")
        with pytest.raises(NotImplementedError):
            r.cc()

    def test_tigr_single_kernel_per_iteration(self, kron_tiny):
        r = make_runner("tigr", kron_tiny)
        result = r.bfs(1)
        steps = [c for c in r.queue.profile.costs if c.name == "tigr.step"]
        assert len(steps) == result.iterations

    def test_tigr_memory_footprint_largest(self, kron_tiny):
        peaks = {n: make_runner(n, kron_tiny).peak_bytes for n in RUNNERS}
        assert max(peaks, key=peaks.get) == "tigr"

    def test_device_override(self, kron_tiny):
        r = make_runner("sygraph", kron_tiny, get_device("mi100"))
        assert r.queue.device.spec.name == "MI100"

    def test_projected_paper_bytes_scales(self, kron_tiny):
        r = make_runner("gunrock", kron_tiny)
        r.bfs(1)
        projected = r.projected_paper_bytes(91e6, 2.1e6)
        assert projected > r.peak_bytes


class TestShapes:
    """The headline performance relationships (EXPERIMENTS.md §shape)."""

    def test_sygraph_beats_gunrock_bfs_kron(self):
        coo = load_dataset("kron", "tiny")
        t = {}
        for name in ("sygraph", "gunrock"):
            r = make_runner(name, coo)
            r.reset_timers()
            r.bfs(1)
            t[name] = r.elapsed_ns
        assert t["gunrock"] > t["sygraph"]

    def test_sygraph_beats_tigr_on_road_wop(self):
        # needs the realistic scale: at "tiny", per-iteration work vanishes
        coo = load_dataset("ca", "small")
        t = {}
        for name in ("sygraph", "tigr"):
            r = make_runner(name, coo)
            r.reset_timers()
            r.bfs(1)
            t[name] = r.elapsed_ns
        assert t["tigr"] > t["sygraph"]

    def test_tigr_wpp_dominated_by_preprocessing(self):
        coo = load_dataset("kron", "tiny")
        r = make_runner("tigr", coo)
        r.reset_timers()
        r.bfs(1)
        assert r.preprocessing_ns > 10 * r.elapsed_ns


@lru_cache(maxsize=None)
def _execute(framework: str, algorithm: str, dataset: str, device: str):
    """Run one ``runner/...`` ledger case; returns (record, kernel names)."""
    runner = make_runner(framework, load_dataset(dataset, "tiny", weighted=True), get_device(device))
    if not runner.supports(algorithm):
        return {"supported": False}, ()
    return ledger.runner_record(runner, algorithm), tuple(c.name for c in runner.queue.profile.costs)


def run_case(framework: str, algorithm: str, dataset: str, device: str) -> dict:
    return _execute(framework, algorithm, dataset, device)[0]


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
