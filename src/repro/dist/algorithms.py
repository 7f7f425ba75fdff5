"""Distributed BFS / SSSP / CC over the BSP superstep engine.

Each algorithm is a :class:`~repro.dist.bsp.BSPAlgorithm` plugin: the
engine owns partitioning, superstep barriers, ghost routing and
accounting, the plugin owns semantics.  All three are **bit-identical**
to their single-device counterparts (enforced by the differential
matrix's distributed mode):

* **BFS** — level-synchronous: a vertex's depth is the superstep it was
  first discovered in, whoever discovered it;
* **SSSP (Bellman-Ford)** — every update is a monotone float min over
  candidates ``dist[src] + w``; the fixpoint contains exactly the same
  float sums along shortest paths as the single-device run;
* **CC (min-label propagation)** — the fixpoint labels every vertex with
  the smallest id in its component, the same labels (after
  canonicalization) the single-device propagation converges to.  Runs on
  the symmetrized graph, like the single-device ``cc``.

Ghost state is a stale cache on non-owners: only a vertex's owner holds
its authoritative value, every remote proposal is min-merged at the
owner, and the final result is stitched from owned ranges.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Optional, Sequence

import numpy as np

from repro.algorithms.bfs import level_steps
from repro.algorithms.cc import propagate_steps
from repro.algorithms.sssp import relax_steps
from repro.dist.bsp import BSPAlgorithm, DistributedResult, run_bsp
from repro.dist.partition import owner_of
from repro.graph.coo import COOGraph
from repro.sycl.device import Device

#: BFS depth sentinel (matches repro.algorithms.bfs.UNSEEN)
UNSEEN = -1


class DistributedBFSResult(DistributedResult):
    """BFS depths (-1 = unreachable) with BSP accounting."""

    @property
    def distances(self) -> np.ndarray:
        return self.values


class DistributedSSSPResult(DistributedResult):
    """SSSP distances (inf = unreachable) with BSP accounting."""

    @property
    def distances(self) -> np.ndarray:
        return self.values


class DistributedCCResult(DistributedResult):
    """CC labels (smallest member id per component) with BSP accounting."""

    @property
    def labels(self) -> np.ndarray:
        return self.values

    @property
    def n_components(self) -> int:
        return int(np.unique(self.values).size)


def _as(result: DistributedResult, cls):
    return cls(**{f.name: getattr(result, f.name) for f in fields(DistributedResult)})


def _check_source(n: int, source: int) -> None:
    if not (0 <= source < n):
        raise ValueError(f"source {source} out of range [0, {n})")


# --------------------------------------------------------------------- #
# shared halves: source seeding (BFS, SSSP), min-merge (SSSP, CC)       #
# --------------------------------------------------------------------- #
class _FromSource(BSPAlgorithm):
    """A traversal from one source at value 0, activated on its owner."""

    def seed(self, parts, frontiers, states, source):
        for state in states:
            state[source] = 0
        owner = int(owner_of(parts, np.array([source]))[0])
        frontiers[owner].insert(source)

    def superstep_limit(self, n: int) -> int:
        # a BFS level or a negative-free Bellman-Ford round per hop:
        # <= n-1 of them, plus the drain superstep that proves the
        # frontier empty: n supersteps, never n+1
        return max(1, n)


class _MinMerge(BSPAlgorithm):
    """Ghosts carry their value; the owner keeps the minimum."""

    def message_values(self, state, vertices):
        return state[vertices]

    def apply(self, state, vertices, values, depth):
        u, inv = np.unique(vertices, return_inverse=True)
        best = state[u]  # a copy (fancy index), so the compare below sees the old state
        np.minimum.at(best, inv, values)
        mask = best < state[u]
        state[u[mask]] = best[mask]
        return u[mask]


# --------------------------------------------------------------------- #
# BFS                                                                   #
# --------------------------------------------------------------------- #
class _BFSPlugin(_FromSource):
    name = "bfs"

    def make_state(self, n: int) -> np.ndarray:
        return np.full(n, UNSEEN, dtype=np.int64)

    def device_steps(self, state):
        # the single-device level kernel pair, verbatim: advance over
        # unseen destinations, then stamp locally-discovered vertices
        # (owned AND ghost: a stamped ghost is never re-proposed by this
        # device) with depth = superstep + 1
        return level_steps(state)

    def apply(self, state, vertices, values, depth):
        u = np.unique(vertices)
        fresh = u[state[u] == UNSEEN]
        state[fresh] = depth
        return fresh


def distributed_bfs(
    coo: COOGraph,
    n_devices: int,
    source: int,
    devices: Optional[Sequence[Device]] = None,
    layout: str = "2lb",
    bits: Optional[int] = None,
    metrics=None,
    injector=None,
) -> DistributedBFSResult:
    """BSP BFS over ``n_devices`` statically partitioned (simulated) GPUs."""
    _check_source(coo.n_vertices, source)
    result = run_bsp(
        coo, n_devices, _BFSPlugin(), source=source,
        devices=devices, layout=layout, bits=bits, metrics=metrics,
        injector=injector,
    )
    return _as(result, DistributedBFSResult)


# --------------------------------------------------------------------- #
# SSSP (Bellman-Ford)                                                   #
# --------------------------------------------------------------------- #
class _SSSPPlugin(_FromSource, _MinMerge):
    name = "sssp"

    def make_state(self, n: int) -> np.ndarray:
        return np.full(n, np.inf, dtype=np.float64)

    def device_steps(self, state):
        # the single-device Bellman-Ford relaxation advance, verbatim
        # (stats=None: the engine's accounting replaces the counter)
        return relax_steps(state)


def distributed_sssp(
    coo: COOGraph,
    n_devices: int,
    source: int,
    devices: Optional[Sequence[Device]] = None,
    layout: str = "2lb",
    bits: Optional[int] = None,
    metrics=None,
    injector=None,
) -> DistributedSSSPResult:
    """BSP Bellman-Ford SSSP (unit weights when the graph is unweighted)."""
    _check_source(coo.n_vertices, source)
    result = run_bsp(
        coo, n_devices, _SSSPPlugin(), source=source,
        devices=devices, layout=layout, bits=bits, metrics=metrics,
        injector=injector,
    )
    return _as(result, DistributedSSSPResult)


# --------------------------------------------------------------------- #
# CC (min-label propagation)                                            #
# --------------------------------------------------------------------- #
class _CCPlugin(_MinMerge):
    name = "cc"

    def make_state(self, n: int) -> np.ndarray:
        return np.arange(n, dtype=np.int64)

    def seed(self, parts, frontiers, states, source):
        # every vertex starts active, distributing its own label — the
        # distributed form of the single-device init advance
        for part, frontier in zip(parts, frontiers):
            if part.n_owned:
                frontier.insert(np.arange(part.vertex_lo, part.vertex_hi, dtype=np.int64))

    def device_steps(self, state):
        # the single-device min-label propagation advance, verbatim
        return propagate_steps(state)

    def superstep_limit(self, n: int) -> int:
        # the min id travels one hop per superstep: <= n-1 hops + drain,
        # counted from the all-active init superstep
        return n + 1


def distributed_cc(
    coo: COOGraph,
    n_devices: int,
    devices: Optional[Sequence[Device]] = None,
    layout: str = "2lb",
    bits: Optional[int] = None,
    metrics=None,
    injector=None,
) -> DistributedCCResult:
    """BSP min-label connected components (on the symmetrized graph)."""
    result = run_bsp(
        coo.symmetrized(), n_devices, _CCPlugin(), source=None,
        devices=devices, layout=layout, bits=bits, metrics=metrics,
        injector=injector,
    )
    return _as(result, DistributedCCResult)
