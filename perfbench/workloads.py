"""The benchmark's workloads: a graph catalog, device pool and request
trace per ``--seed``.

Every workload is served through the path a user of the service takes —
:class:`repro.service.scheduler.QueryScheduler` over per-device queues
with the cost model on — so one harness measures both clocks: modeled
device time from the request records, host time from the wall clock
around ``QueryScheduler.run``.

The graphs are fixed, as a deployment's catalog is; the seed draws the
queries: their sources and, on ``serve``, arrival times and order.
Drawing the graphs from the seed too moved serve's modeled median by 13%
and wide's host time by 7% from seed to seed.

* **deep** — high-diameter road lattice, one device, one client that
  sends its next query only after the previous one finished (arrivals
  are spaced far beyond any service time, so nothing queues).  Hundreds
  of iterations with frontiers a few vertices wide: per-iteration and
  per-kernel host overheads (plan executor, frontier scans, one cost
  model charge per tiny kernel) dominate.
* **wide** — scale-free R-MAT graph, same one-client loop, sources on
  hub vertices.  A dozen iterations whose frontiers cover most of the
  graph: per-kernel overheads are amortized, and the NumPy work inside
  operators and the address streams the cost model prices dominate.
* **serve** — serve-sim's traffic shape at half its rate: open-loop
  Poisson arrivals (independent users, one every 4 modeled µs on
  average, about two thirds of the pool's capacity) over its
  three-family catalog, seven algorithms, three frontier layouts and
  three priorities, on a three-device pool with same-graph batching.
  Requests queue and batch, so the scheduler's dispatch loop and
  queueing delay show.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import log
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.graph import generators as gen
from repro.service.request import Request
from repro.service.workload import (
    DEFAULT_ALGORITHM_MIX,
    DEFAULT_PRIORITY_MIX,
    GraphSpec,
    default_catalog,
)

#: the seven servable algorithms, in the order a one-client trace sends them
ALGORITHMS = ("bfs", "dobfs", "sssp", "delta_stepping", "cc", "bc", "pagerank")

#: modeled gap between one-client arrivals: far longer than any query's
#: modeled service time, so every query finds the device idle
CLIENT_GAP_NS = 1e9

#: seed of every workload's graphs
GRAPH_SEED = 0
#: deep lattice shape: DEEP_WIDTH vertices across, DEEP_HEIGHT rows deep
DEEP_WIDTH, DEEP_HEIGHT = 8, 160
#: wide R-MAT shape: 2**WIDE_SCALE vertices, WIDE_EDGE_FACTOR draws each
WIDE_SCALE, WIDE_EDGE_FACTOR = 14, 16
#: sources per one-client trace (each runs all seven algorithms).  With 3
#: or 4, wide's modeled p90 is a PageRank request's, which ignores the
#: source and so reads the same for every seed.
SOURCES_PER_TRACE = 2

SERVE_POOL = ("v100s", "v100s", "mi100")
#: six times serve-sim's 200: at SERVE_INTERARRIVAL_NS the modeled
#: median latency spreads (quartile distance over median) 0.11 from seed
#: to seed over 200 requests (seeds 21-28), 0.06 over 600 and 0.02 over
#: 1200 (seeds 41-60)
SERVE_REQUESTS = 1200
#: mean Poisson inter-arrival time, modeled ns: a load at which modeled
#: latency stays steady from seed to seed.  serve-sim's default of 2 µs
#: offers the pool 1.2-1.4 times the service time it has, so the queue
#: sits at saturation and the median and p90 latency spread 0.42 and 0.71
#: (600 requests, seeds 21-28); at 3 µs (offered load 0.86) 0.16 and
#: 0.09; at 4 µs (0.62) 0.04 and 0.06.
SERVE_INTERARRIVAL_NS = 4_000.0
#: catalog popularity (serve-sim's Zipf s=1.1 over rmat, road, web)
SERVE_GRAPH_MIX = tuple(1.0 / (rank + 1) ** 1.1 for rank in range(3))
#: serve-sim's default layout mix without the vector layout.  A vector
#: frontier keeps duplicate inserts, so on a lattice its BFS/SSSP frontier
#: grows with the number of shortest paths: one such request takes from
#: milliseconds to a minute of host time depending on its source, which
#: would make the spread between seeds larger than any bound.
SERVE_LAYOUT_MIX = {"2lb": 0.7, "bitmap": 0.15, "boolmap": 0.15}


@dataclass
class Workload:
    """Inputs for one benchmark run; ``trace`` is copied for every pass."""

    name: str
    catalog: List[GraphSpec]
    pool: Tuple[str, ...]
    trace: List[Request]

    def fresh_trace(self) -> List[Request]:
        """Unserved copies of the trace (the scheduler mutates requests)."""
        return [replace(r, attempts=0) for r in self.trace]


def _one_client_trace(graph: str, sources: np.ndarray) -> List[Request]:
    trace = []
    for source in sources:
        for algorithm in ALGORITHMS:
            i = len(trace)
            trace.append(
                Request(
                    req_id=i,
                    algorithm=algorithm,
                    graph=graph,
                    source=int(source),
                    arrival_ns=i * CLIENT_GAP_NS,
                )
            )
    return trace


def deep(seed: int) -> Workload:
    coo = gen.road_network(DEEP_WIDTH, DEEP_HEIGHT, seed=GRAPH_SEED, weighted=True)
    # sources on the first or last row, so every traversal crosses the
    # whole depth (from each of them it reaches every vertex)
    edge_rows = np.r_[0:DEEP_WIDTH, (DEEP_HEIGHT - 1) * DEEP_WIDTH : DEEP_HEIGHT * DEEP_WIDTH]
    rng = np.random.default_rng(seed)
    sources = rng.choice(edge_rows, size=SOURCES_PER_TRACE, replace=False)
    return Workload("deep", [GraphSpec("road", coo)], ("v100s",), _one_client_trace("road", sources))


def wide(seed: int) -> Workload:
    coo = gen.rmat(WIDE_SCALE, WIDE_EDGE_FACTOR, seed=GRAPH_SEED, weighted=True)
    # sources among the top out-degree hubs, so every traversal reaches
    # the giant component within a few iterations
    hubs = np.argsort(-np.bincount(coo.src, minlength=coo.n_vertices), kind="stable")[:16]
    rng = np.random.default_rng(seed)
    sources = rng.choice(hubs, size=SOURCES_PER_TRACE, replace=False)
    return Workload("wide", [GraphSpec("rmat", coo)], ("v100s",), _one_client_trace("rmat", sources))


def _stratified(rng: np.random.Generator, weights, n: int) -> np.ndarray:
    """``n`` category indices in exact proportion to ``weights``
    (largest remainders), in seeded random order.  Drawing each request's
    category independently instead would let the mix, and with it every
    metric, wander from seed to seed."""
    share = np.asarray(weights, dtype=np.float64) / float(sum(weights)) * n
    counts = np.floor(share).astype(np.int64)
    counts[np.argsort(counts - share, kind="stable")[: n - counts.sum()]] += 1
    return rng.permutation(np.repeat(np.arange(len(counts)), counts))


def serve(seed: int) -> Workload:
    catalog = default_catalog(seed=GRAPH_SEED, scale="small")
    rng = np.random.default_rng(seed)
    algorithms = sorted(DEFAULT_ALGORITHM_MIX)
    layouts = sorted(SERVE_LAYOUT_MIX)
    # one draw over (algorithm, graph) pairs: a request's cost depends on
    # the pair, so stratifying each mix on its own still let the pairs,
    # and host time with them, wander from seed to seed
    pair_mix = [DEFAULT_ALGORITHM_MIX[a] * g for a in algorithms for g in SERVE_GRAPH_MIX]
    algo_idx, graph_idx = np.divmod(_stratified(rng, pair_mix, SERVE_REQUESTS), len(SERVE_GRAPH_MIX))
    layout_idx = _stratified(rng, [SERVE_LAYOUT_MIX[x] for x in layouts], SERVE_REQUESTS)
    prio_idx = _stratified(rng, DEFAULT_PRIORITY_MIX, SERVE_REQUESTS)
    # sources among vertices with out-edges: an isolated source ends a
    # traversal after one kernel and would split each cell's cost in two
    live = [np.flatnonzero(np.bincount(s.coo.src, minlength=s.n_vertices)) for s in catalog]
    trace, clock = [], 0.0
    for i in range(SERVE_REQUESTS):
        clock += -SERVE_INTERARRIVAL_NS * log(1.0 - rng.random())
        g = int(graph_idx[i])
        trace.append(
            Request(
                req_id=i,
                algorithm=algorithms[algo_idx[i]],
                graph=catalog[g].name,
                source=int(rng.choice(live[g])),
                layout=layouts[layout_idx[i]],
                priority=int(prio_idx[i]),
                arrival_ns=clock,
            )
        )
    return Workload("serve", catalog, SERVE_POOL, trace)


WORKLOADS: Dict[str, Callable[[int], Workload]] = {"deep": deep, "wide": wide, "serve": serve}
