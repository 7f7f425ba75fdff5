"""Seeded workload generation: who asks what, when.

Models the traffic mix a shared analytics service sees:

* **Poisson arrivals** — exponential inter-arrival times at a configured
  mean rate (drawn by inverse CDF over ``rng.random()`` so the stream
  depends only on the PCG64 uniform stream, the most version-stable part
  of NumPy's generator API);
* **Zipf graph popularity** — a few hot graphs take most of the traffic
  (rank ``r`` drawn with probability ∝ ``1/r^s``);
* **mixed algorithm distribution** — traversal-heavy by default (BFS
  and friends dominate, like interactive path queries), with analytics
  (pagerank/bc) as the long-running tail;
* **priority mix** over high/normal/low.

Everything is driven by one seed: the same seed yields a bit-identical
request trace, which is what makes the whole serving simulation
replayable (pinned by ``tests/service/test_determinism.py``).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from math import log
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph import generators as gen
from repro.graph.coo import COOGraph
from repro.service.request import Request, make_trace_id

#: default algorithm mix (weights, not probabilities; normalized below)
DEFAULT_ALGORITHM_MIX: Dict[str, float] = {
    "bfs": 0.30,
    "dobfs": 0.10,
    "sssp": 0.15,
    "delta_stepping": 0.10,
    "cc": 0.15,
    "bc": 0.10,
    "pagerank": 0.10,
}

#: default priority mix over (high, normal, low)
DEFAULT_PRIORITY_MIX: Tuple[float, float, float] = (0.2, 0.5, 0.3)

#: default frontier-layout mix (2lb dominates, as the paper's default)
DEFAULT_LAYOUT_MIX: Dict[str, float] = {"2lb": 0.7, "bitmap": 0.1, "vector": 0.1, "boolmap": 0.1}


@dataclass
class GraphSpec:
    """One catalog entry: a named, host-resident COO graph."""

    name: str
    coo: COOGraph

    @property
    def n_vertices(self) -> int:
        return self.coo.n_vertices


def default_catalog(seed: int = 0, scale: str = "small") -> List[GraphSpec]:
    """Seeded synthetic graph catalog spanning the paper's three families.

    ``scale``: ``tiny`` keeps every graph under ~300 vertices (unit
    tests), ``small`` is the CLI default, ``medium`` stresses queueing.
    All graphs are weighted so the SSSP family is servable.
    """
    scales = {"tiny": 0, "small": 1, "medium": 2}
    if scale not in scales:
        raise ValueError(f"unknown scale {scale!r}; known: {sorted(scales)}")
    k = scales[scale]
    rmat_scale = (7, 9, 11)[k]
    road = ((8, 8), (16, 16), (32, 32))[k]
    web = ((4, 12), (8, 24), (16, 48))[k]
    return [
        GraphSpec("rmat", gen.rmat(rmat_scale, 8, seed=seed, weighted=True)),
        GraphSpec("road", gen.road_network(road[0], road[1], seed=seed + 1, weighted=True)),
        GraphSpec("web", gen.web_graph(web[0], web[1], seed=seed + 2, weighted=True)),
    ]


@dataclass
class WorkloadConfig:
    """Shape of the simulated traffic (all times in modeled ns)."""

    n_requests: int = 100
    #: mean inter-arrival time; the arrival process is Poisson
    mean_interarrival_ns: float = 50_000.0
    #: Zipf popularity exponent over the catalog (0 = uniform)
    zipf_s: float = 1.1
    algorithm_mix: Dict[str, float] = field(default_factory=lambda: dict(DEFAULT_ALGORITHM_MIX))
    priority_mix: Tuple[float, ...] = DEFAULT_PRIORITY_MIX
    layout_mix: Dict[str, float] = field(default_factory=lambda: dict(DEFAULT_LAYOUT_MIX))
    #: per-priority deadline relative to arrival (None = no deadline)
    timeout_ns: Optional[float] = None


def _cdf(weights: Sequence[float]) -> List[float]:
    total = float(sum(weights))
    if total <= 0:
        raise ValueError("mix weights must sum to a positive value")
    acc, out = 0.0, []
    for w in weights:
        if w < 0:
            raise ValueError("mix weights must be non-negative")
        acc += w / total
        out.append(acc)
    out[-1] = 1.0  # guard against float drift at the top
    return out


def _pick(cdf: List[float], u: float) -> int:
    return bisect_right(cdf, u)


def generate_workload(
    catalog: Sequence[GraphSpec],
    config: Optional[WorkloadConfig] = None,
    seed: int = 0,
) -> List[Request]:
    """Materialize one request trace (sorted by arrival, ids in order).

    Only ``rng.random()`` draws are consumed — one fixed-size block per
    request — so the trace is a pure function of ``(catalog names,
    config, seed)``.  The block's seventh draw is unused but still
    drawn, so a seed's trace stays the same across versions.
    """
    config = config or WorkloadConfig()
    if not catalog:
        raise ValueError("catalog must contain at least one graph")
    rng = np.random.default_rng(seed)

    algo_names = sorted(config.algorithm_mix)
    algo_cdf = _cdf([config.algorithm_mix[a] for a in algo_names])
    layout_names = sorted(config.layout_mix)
    layout_cdf = _cdf([config.layout_mix[layout] for layout in layout_names])
    prio_cdf = _cdf(list(config.priority_mix))
    # Zipf over popularity rank; catalog order is the popularity order
    zipf_cdf = _cdf([1.0 / (rank + 1) ** config.zipf_s for rank in range(len(catalog))])

    requests: List[Request] = []
    clock = 0.0
    for req_id in range(config.n_requests):
        u = rng.random(7)
        # inverse-CDF exponential; 1-u avoids log(0)
        clock += -config.mean_interarrival_ns * log(1.0 - u[0])
        spec = catalog[_pick(zipf_cdf, u[1])]
        algorithm = algo_names[_pick(algo_cdf, u[2])]
        layout = layout_names[_pick(layout_cdf, u[3])]
        priority = _pick(prio_cdf, u[4])
        source = int(u[5] * spec.n_vertices) if spec.n_vertices else 0
        requests.append(
            Request(
                req_id=req_id,
                algorithm=algorithm,
                graph=spec.name,
                source=min(source, max(spec.n_vertices - 1, 0)),
                layout=layout,
                priority=priority,
                arrival_ns=clock,
                timeout_ns=config.timeout_ns,
                # hashed, not drawn: trace context must not perturb the
                # RNG stream (the 7-draw block per request is pinned)
                trace_id=make_trace_id(seed, req_id),
            )
        )
    return requests
