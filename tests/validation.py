"""Independent reference implementations for correctness validation.

These deliberately avoid the framework (no frontiers, no operators):
plain NumPy / SciPy / NetworkX algorithms the test suite compares
against.  Anything the device-side algorithms compute must match these.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph


def _to_scipy(n: int, src: np.ndarray, dst: np.ndarray, weights=None) -> sp.csr_matrix:
    data = np.ones(len(src)) if weights is None else np.asarray(weights, dtype=np.float64)
    return sp.csr_matrix((data, (src, dst)), shape=(n, n))


def reference_bfs(n: int, src: np.ndarray, dst: np.ndarray, source: int) -> np.ndarray:
    """BFS depths via plain queue-free level expansion (-1 unreachable)."""
    adj = _to_scipy(n, src, dst)
    dist = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source])
    depth = 0
    while frontier.size:
        nxt = np.unique(adj[frontier].indices)
        nxt = nxt[dist[nxt] < 0]
        depth += 1
        dist[nxt] = depth
        frontier = nxt
    return dist


def reference_sssp(
    n: int, src: np.ndarray, dst: np.ndarray, weights: np.ndarray, source: int
) -> np.ndarray:
    """Dijkstra distances via scipy.sparse.csgraph (inf unreachable)."""
    adj = _to_scipy(n, src, dst, weights)
    return csgraph.dijkstra(adj, directed=True, indices=source)


def reference_cc(n: int, src: np.ndarray, dst: np.ndarray) -> Tuple[int, np.ndarray]:
    """(component count, labels) for the undirected graph via scipy."""
    adj = _to_scipy(n, src, dst)
    n_comp, labels = csgraph.connected_components(adj, directed=False)
    return int(n_comp), labels


def reference_bc(n: int, src: np.ndarray, dst: np.ndarray, sources=None) -> np.ndarray:
    """Brandes BC via networkx (exact when sources is None)."""
    import networkx as nx

    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    g.add_edges_from(zip(map(int, src), map(int, dst)))
    if sources is None:
        scores = nx.betweenness_centrality(g, normalized=False)
    else:
        # accumulate single-source dependencies like our bc(sources=...)
        scores = dict.fromkeys(range(n), 0.0)
        for s in sources:
            partial = _nx_single_source_dependency(g, int(s))
            for v, val in partial.items():
                scores[v] += val
    return np.array([scores[i] for i in range(n)], dtype=np.float64)


def _nx_single_source_dependency(g, s: int):
    """Single-source Brandes dependency (networkx's inner loop)."""
    import networkx.algorithms.centrality.betweenness as nxb

    betweenness = dict.fromkeys(g, 0.0)
    S, P, sigma, _ = nxb._single_source_shortest_path_basic(g, s)
    betweenness, _ = nxb._accumulate_basic(betweenness, S, P, sigma, s)
    return betweenness


def reference_pagerank(
    n: int, src: np.ndarray, dst: np.ndarray, damping: float = 0.85
) -> np.ndarray:
    """PageRank via networkx power iteration."""
    import networkx as nx

    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    g.add_edges_from(zip(map(int, src), map(int, dst)))
    pr = nx.pagerank(g, alpha=damping, tol=1e-10, max_iter=200)
    return np.array([pr[i] for i in range(n)], dtype=np.float64)


def reference_triangles(n: int, src: np.ndarray, dst: np.ndarray) -> int:
    """Triangle count via trace(A^3)/6 on the symmetrized 0/1 matrix."""
    adj = _to_scipy(n, src, dst)
    adj = ((adj + adj.T) > 0).astype(np.int64)
    adj.setdiag(0)
    adj.eliminate_zeros()
    return int((adj @ adj).multiply(adj).sum() // 6)


def _neighbor_sets(n: int, src: np.ndarray, dst: np.ndarray) -> list:
    """Undirected adjacency sets, self-loops dropped."""
    neighbors = [set() for _ in range(n)]
    for a, b in zip(map(int, src), map(int, dst)):
        if a != b:
            neighbors[a].add(b)
            neighbors[b].add(a)
    return neighbors


def reference_kcore(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Core numbers by sequential peeling: repeatedly remove a vertex of
    least remaining degree; its core number is the largest such degree
    seen so far."""
    neighbors = _neighbor_sets(n, src, dst)
    degree = np.array([len(s) for s in neighbors], dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    core = np.zeros(n, dtype=np.int64)
    k = 0
    for _ in range(n):
        remaining = np.flatnonzero(alive)
        v = int(remaining[np.argmin(degree[remaining])])
        k = max(k, int(degree[v]))
        core[v] = k
        alive[v] = False
        for u in neighbors[v]:
            degree[u] -= 1
    return core


def reference_coloring(
    n: int, src: np.ndarray, dst: np.ndarray, priorities: np.ndarray
) -> np.ndarray:
    """Greedy coloring in decreasing priority order: each vertex takes the
    smallest color none of its already-colored neighbors has."""
    neighbors = _neighbor_sets(n, src, dst)
    colors = np.full(n, -1, dtype=np.int64)
    for v in np.argsort(-np.asarray(priorities), kind="stable"):
        taken = {int(colors[u]) for u in neighbors[v]}
        c = 0
        while c in taken:
            c += 1
        colors[v] = c
    return colors


def reference_mis(
    n: int, src: np.ndarray, dst: np.ndarray, priorities: np.ndarray
) -> np.ndarray:
    """Greedy maximal independent set in decreasing priority order (the
    lexicographically first MIS): a vertex joins unless a neighbor did."""
    neighbors = _neighbor_sets(n, src, dst)
    in_set = np.zeros(n, dtype=bool)
    for v in np.argsort(-np.asarray(priorities), kind="stable"):
        if not any(in_set[u] for u in neighbors[v]):
            in_set[v] = True
    return in_set
