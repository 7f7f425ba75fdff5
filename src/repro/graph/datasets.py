"""Scaled stand-ins for the paper's Table 3 datasets.

The originals (Network Repository / WebGraph, up to 21M vertices and 530M
edges) are unavailable offline, so each named dataset here is a synthetic
graph matching the original's *regime* — degree distribution shape,
average degree, diameter class — at roughly 1/100 scale (DESIGN.md
substitution #3).  What the evaluation actually depends on is preserved:

* road graphs (``ca``, ``usa``): large diameter, uniform degree <= ~8,
  long thin frontiers -> many iterations, small advances;
* social graphs (``hollywood``, ``journal``, ``twitter``): scale-free,
  diameter < ~10 at this scale, explosive frontiers with massive
  duplicate discovery -> where bitmap dedup wins;
* web graph (``indochina``): hierarchical with extreme hub degrees;
* synthetic (``kron``): R-MAT, the most skewed of all — where the paper
  reports Gunrock's worst duplicate blow-ups.

``load_dataset(name, scale=...)`` returns a host COO graph; three scale
profiles trade realism for runtime (``tiny`` for unit tests, ``small``
default for benchmarks, ``medium`` for longer runs).

``PAPER_TABLE3`` records the original datasets' published statistics so
benchmarks can print paper-vs-ours comparisons.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.graph import generators as gen
from repro.graph.coo import COOGraph


@dataclass(frozen=True)
class PaperDataset:
    """Published statistics of one Table 3 row."""

    name: str
    short: str
    vertices: float
    edges: float
    avg_degree: float
    max_degree: float
    family: str  # "road" | "social" | "web" | "synthetic"


PAPER_TABLE3: Dict[str, PaperDataset] = {
    "ca": PaperDataset("roadNet-CA", "CA", 2.0e6, 2.8e6, 2.8, 12, "road"),
    "usa": PaperDataset("road-USA", "USA", 23.9e6, 28.9e6, 2.4, 9, "road"),
    "hollywood": PaperDataset("Hollywood-2009", "hollyw", 1.1e6, 56.9e6, 103.4, 11e3, "social"),
    "indochina": PaperDataset("Indochina-2004", "indo", 7.4e6, 194.1e6, 52.4, 256e3, "web"),
    "journal": PaperDataset("LiveJournal", "journal", 4.8e6, 69e6, 28.7, 2e3, "social"),
    "kron": PaperDataset("kron-g500-logn21", "kron", 2.1e6, 91e6, 86.6, 213e3, "synthetic"),
    "twitter": PaperDataset("soc-twitter-2010", "twitter", 21.3e6, 530e6, 24.8, 698e3, "social"),
}

#: evaluation-order dataset keys as they appear along the paper's x-axes.
DATASET_ORDER: List[str] = ["ca", "usa", "hollywood", "indochina", "journal", "kron", "twitter"]

#: the six datasets of Figure 8 / Tables 5-6 (journal appears only in Fig 10).
FIGURE8_DATASETS: List[str] = ["ca", "usa", "hollywood", "indochina", "kron", "twitter"]

# ----------------------------------------------------------------------- #
# generator recipes per scale profile                                      #
# ----------------------------------------------------------------------- #
_SCALES = ("tiny", "small", "medium")

# (width, height) for road; (n, m) for social; (hosts, pages) for web;
# (scale, edge_factor) for kron.
_RECIPES: Dict[str, Dict[str, Callable[[], COOGraph]]] = {
    "ca": {
        "tiny": lambda: gen.road_network(30, 25, seed=11),
        "small": lambda: gen.road_network(140, 100, seed=11),
        "medium": lambda: gen.road_network(320, 220, seed=11),
    },
    "usa": {
        "tiny": lambda: gen.road_network(45, 35, seed=13),
        "small": lambda: gen.road_network(260, 170, seed=13),
        "medium": lambda: gen.road_network(550, 400, seed=13),
    },
    "hollywood": {
        "tiny": lambda: gen.preferential_attachment(700, 24, seed=17),
        "small": lambda: gen.preferential_attachment(7_000, 48, seed=17),
        "medium": lambda: gen.preferential_attachment(22_000, 52, seed=17),
    },
    "indochina": {
        "tiny": lambda: gen.web_graph(25, 40, intra_degree=10, seed=19),
        "small": lambda: gen.web_graph(220, 110, intra_degree=24, seed=19),
        "medium": lambda: gen.web_graph(500, 150, intra_degree=26, seed=19),
    },
    "journal": {
        "tiny": lambda: gen.preferential_attachment(800, 8, seed=23),
        "small": lambda: gen.preferential_attachment(16_000, 14, seed=23),
        "medium": lambda: gen.preferential_attachment(48_000, 14, seed=23),
    },
    "kron": {
        "tiny": lambda: gen.rmat(9, 12, seed=29),
        "small": lambda: gen.rmat(13, 22, seed=29),
        "medium": lambda: gen.rmat(15, 24, seed=29),
    },
    "twitter": {
        "tiny": lambda: gen.preferential_attachment(1_000, 10, seed=31),
        "small": lambda: gen.preferential_attachment(40_000, 12, seed=31),
        "medium": lambda: gen.preferential_attachment(100_000, 12, seed=31),
    },
}

_CACHE: Dict[Tuple[str, str, bool], COOGraph] = {}


def dataset_names() -> List[str]:
    """All dataset keys, in the paper's presentation order."""
    return list(DATASET_ORDER)


def load_dataset(name: str, scale: str = "small", weighted: bool = False) -> COOGraph:
    """Build (and memoize) the named scaled dataset.

    ``weighted=True`` attaches uniform(1,10) edge weights for SSSP runs,
    as is conventional when benchmarking SSSP on unweighted inputs.
    """
    key = name.lower()
    if key not in _RECIPES:
        raise KeyError(f"unknown dataset {name!r}; known: {dataset_names()}")
    if scale not in _SCALES:
        raise KeyError(f"unknown scale {scale!r}; known: {_SCALES}")
    cache_key = (key, scale, weighted)
    if cache_key not in _CACHE:
        coo = _RECIPES[key][scale]()
        if weighted:
            import numpy as np

            from repro.types import weight_t

            # a digest of the key, not hash(): string hashes change from
            # process to process, and the weights must not
            rng = np.random.default_rng(zlib.crc32(repr(cache_key).encode()))
            coo.weights = rng.uniform(1.0, 10.0, size=coo.n_edges).astype(weight_t)
        _CACHE[cache_key] = coo
    return _CACHE[cache_key]


def paper_stats(name: str) -> PaperDataset:
    """Published Table 3 statistics for the named dataset."""
    return PAPER_TABLE3[name.lower()]
