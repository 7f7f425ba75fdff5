"""Greedy parallel graph coloring (Jones-Plassmann) and maximal
independent set (Luby) — advance-driven extension algorithms.

Both run one priority round as a plan: per superstep, vertices compare a
random priority against their undecided neighbors; local maxima act,
everyone else waits.  Expects undirected (symmetrized) CSR graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.exec import AdvanceStep, ExecContext, HostStep, Plan, PlanExecutor
from repro.frontier import FrontierView, layout_bits_kwargs, make_frontier
from repro.operators.advance import AdvanceConfig


@dataclass
class ColoringResult:
    """Per-vertex colors (0-based) and round count."""

    colors: np.ndarray
    iterations: int

    @property
    def n_colors(self) -> int:
        return int(self.colors.max()) + 1 if self.colors.size else 0

    def is_proper(self, graph) -> bool:
        """No edge connects two same-colored vertices."""
        coo = graph.to_coo()
        src, dst = coo.src.astype(np.int64), coo.dst.astype(np.int64)
        mask = src != dst
        return bool((self.colors[src[mask]] != self.colors[dst[mask]]).all())


@dataclass
class MISResult:
    """Independent-set membership mask and round count."""

    in_set: np.ndarray
    iterations: int

    @property
    def size(self) -> int:
        return int(self.in_set.sum())


def _priorities(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.permutation(n).astype(np.int64)  # distinct priorities


def _priority_rounds(graph, name, decided, edge, settle, layout, seed, config) -> int:
    """Run priority rounds until every vertex is decided; returns the count.

    An advance over the undecided frontier marks the vertices an undecided
    neighbor outranks; the others win and join ``decided``.  An advance
    from the winners frontier applies ``edge``, ``settle(winners)`` runs,
    and every decided vertex leaves the undecided frontier.  Priorities are
    distinct, so the top undecided vertex always wins.
    """
    queue = graph.queue
    n = graph.get_vertex_count()
    prio = _priorities(n, seed)
    blocked = np.zeros(n, dtype=bool)
    kwargs = layout_bits_kwargs(layout, None, config and config.params)
    undecided = make_frontier(queue, n, FrontierView.VERTEX, layout=layout, **kwargs)
    undecided.insert(np.arange(n, dtype=np.int64))
    winners = make_frontier(queue, n, FrontierView.VERTEX, layout=layout, **kwargs)

    def mark_blocked(src, dst, eid, w):
        contested = ~decided[dst] & ~decided[src] & (prio[dst] > prio[src])
        blocked[src[contested]] = True
        return np.zeros(src.size, dtype=bool)

    def pick_winners(ctx):
        ids = undecided.active_elements()
        won = ids[~blocked[ids]]
        blocked[ids] = False
        decided[won] = True
        winners.clear()
        winners.insert(won)

    def retire(ctx):
        settle(winners.active_elements())
        ids = undecided.active_elements()
        undecided.remove(ids[decided[ids]])

    plan = Plan(
        name=name,
        iter_span=f"{name}.iter",
        until_empty="undecided",
        limit=n + 1,
        steps=[
            AdvanceStep(lambda ctx: mark_blocked, input="undecided", output=None),
            HostStep(pick_winners),
            AdvanceStep(lambda ctx: edge, input="winners", output=None),
            HostStep(retire),
        ],
        tick=lambda ctx: f"{name}.round{ctx.iteration}",
    )
    frontiers = {"undecided": undecided, "winners": winners}
    ctx = ExecContext(queue, {"csr": graph}, frontiers, config)
    return PlanExecutor(queue).run(plan, ctx).iteration


def jones_plassmann(
    graph,
    layout: str = "2lb",
    seed: int = 0,
    config: Optional[AdvanceConfig] = None,
) -> ColoringResult:
    """Jones-Plassmann coloring: local priority maxima pick their smallest
    feasible color each round."""
    queue = graph.queue
    n = graph.get_vertex_count()
    colors = queue.malloc_shared((n,), np.int64, label="color.colors", fill=-1)
    colors_np = np.asarray(colors)
    forbidden = {}

    def collect(src, dst, eid, w):
        used = colors_np[dst] >= 0
        for s, c in zip(src[used], colors_np[dst[used]]):
            forbidden.setdefault(int(s), set()).add(int(c))
        return np.zeros(src.size, dtype=bool)

    def settle(winners):
        # each winner takes the smallest color absent from its neighborhood
        for v in winners:
            taken = forbidden.pop(int(v), set())
            c = 0
            while c in taken:
                c += 1
            colors_np[v] = c

    decided = np.zeros(n, dtype=bool)
    iterations = _priority_rounds(graph, "color", decided, collect, settle, layout, seed, config)
    result = colors_np.copy()
    queue.free(colors)
    return ColoringResult(colors=result, iterations=iterations)


def luby_mis(
    graph,
    layout: str = "2lb",
    seed: int = 0,
    config: Optional[AdvanceConfig] = None,
) -> MISResult:
    """Luby's maximal independent set: priority local maxima join the set,
    their neighbors drop out, repeat."""
    n = graph.get_vertex_count()
    in_set = np.zeros(n, dtype=bool)
    decided = np.zeros(n, dtype=bool)

    def knock_out(src, dst, eid, w):
        # winners' neighbors leave the race
        decided[dst] = True
        return np.zeros(src.size, dtype=bool)

    def settle(winners):
        in_set[winners] = True

    iterations = _priority_rounds(graph, "mis", decided, knock_out, settle, layout, seed, config)
    return MISResult(in_set=in_set, iterations=iterations)
