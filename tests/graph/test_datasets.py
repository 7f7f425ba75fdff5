"""Scaled dataset registry: shapes must match the paper's regimes."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.graph.builder import GraphBuilder
from repro.graph.datasets import (
    DATASET_ORDER,
    FIGURE8_DATASETS,
    PAPER_TABLE3,
    dataset_names,
    load_dataset,
    paper_stats,
)
from repro.graph.properties import compute_properties
from repro.sycl import Queue

REPO_ROOT = Path(__file__).resolve().parents[2]


def _props(name, scale="tiny", diameter=False):
    q = Queue(capacity_limit=0)
    csr = GraphBuilder(q).to_csr(load_dataset(name, scale))
    return compute_properties(csr, estimate_diameter=diameter)


class TestRegistry:
    def test_all_seven_datasets(self):
        assert len(dataset_names()) == 7
        assert set(FIGURE8_DATASETS) < set(DATASET_ORDER) | {"journal"}

    def test_paper_stats(self):
        assert paper_stats("twitter").edges == 530e6
        assert PAPER_TABLE3["ca"].family == "road"

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            load_dataset("facebook")

    def test_unknown_scale(self):
        with pytest.raises(KeyError):
            load_dataset("ca", scale="huge")

    def test_memoized(self):
        assert load_dataset("ca", "tiny") is load_dataset("ca", "tiny")

    def test_weighted_variant(self):
        coo = load_dataset("ca", "tiny", weighted=True)
        assert coo.weights is not None

    def test_scales_ordered_by_size(self):
        tiny = load_dataset("kron", "tiny")
        small = load_dataset("kron", "small")
        assert small.n_vertices > tiny.n_vertices


class TestRegimes:
    @pytest.mark.parametrize("name", ["ca", "usa"])
    def test_road_graphs_uniform_low_degree(self, name):
        p = _props(name)
        assert p.max_degree <= 10
        assert not p.is_scale_free_like

    @pytest.mark.parametrize("name", ["hollywood", "journal", "twitter", "kron"])
    def test_scale_free_graphs_skewed(self, name):
        """Skew is much higher than road graphs' at the same scale (at tiny
        scale the absolute skew is modest — it grows with |V|)."""
        road_skew = max(_props("ca").degree_skew, _props("usa").degree_skew)
        assert _props(name).degree_skew > 2.5 * road_skew

    def test_road_diameter_exceeds_social(self):
        road = _props("ca", diameter=True).approx_diameter
        social = _props("journal", diameter=True).approx_diameter
        assert road > 4 * social

    def test_hollywood_densest(self):
        """Hollywood has by far the highest average degree (paper: 103)."""
        avg = {n: _props(n).avg_degree for n in dataset_names()}
        assert max(avg, key=avg.get) == "hollywood"

    def test_relative_vertex_ordering_preserved(self):
        """twitter and usa are the biggest graphs, as in the paper."""
        sizes = {n: load_dataset(n, "small").n_vertices for n in dataset_names()}
        assert sizes["usa"] == max(sizes.values()) or sizes["twitter"] == max(sizes.values())


_WEIGHT_DIGEST = """
import hashlib
from repro.graph.datasets import load_dataset
print(hashlib.sha256(load_dataset("ca", "tiny", weighted=True).weights.tobytes()).hexdigest())
"""


def test_weights_repeat_across_interpreters():
    """Weighted datasets seed from a digest of their key, not ``hash()``:
    two interpreters with different string-hash seeds draw the same
    weights (every SSSP row of Fig. 8, Fig. 10 and Table 6 reads them)."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"), PYTHONHASHSEED="random")
    digests = {
        subprocess.run(
            [sys.executable, "-c", _WEIGHT_DIGEST],
            capture_output=True, text=True, env=env, cwd=REPO_ROOT, check=True,
        ).stdout
        for _ in range(2)
    }
    assert len(digests) == 1
