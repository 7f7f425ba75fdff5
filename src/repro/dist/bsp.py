"""The multi-GPU BSP superstep engine.

One engine, pluggable algorithms: :func:`run_bsp` drives a
bulk-synchronous traversal over the static partitions of
:mod:`repro.dist.partition`.  Each (simulated) GPU owns a contiguous
vertex range and the out-edges of its vertices, advances its local
frontier each superstep, and ships discovered *ghost* vertices to their
owners between supersteps in the 2LB-compressed wire format of
:mod:`repro.dist.wire`.  An algorithm plugs in as a
:class:`BSPAlgorithm`: its per-device superstep steps, its per-vertex
state, its message payload, and the owner-side ``apply`` that merges
incoming ghosts.

Accounting is per superstep, because that is what BSP makespan *is*:
every superstep ends at a barrier, so its cost is the **maximum**
per-device compute time plus the exchange, and the makespan is the sum
of those per-superstep terms — not ``max(total per-device time)``, which
ignores that a device fast in one superstep still waits for the slowest
device in every other superstep.  Exchange time comes from the modeled
interconnect (:mod:`repro.perfmodel.interconnect`) of the device pool's
bottleneck link, charged only for supersteps that actually execute.

Results are bit-identical to the single-device algorithms: owners are
authoritative for their range (every update to an owned vertex is a
monotone min applied at the owner), and the final state is stitched from
the owned ranges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.dist.partition import Partition, partition_bounds, partition_static
from repro.errors import ExchangeFault
from repro.dist.wire import GhostMessage, decode_ghost_message, encode_ghost_message
from repro.exec import ExecContext, PlanExecutor, Step
from repro.frontier import FrontierView, layout_bits_kwargs, make_frontier
from repro.graph.builder import GraphBuilder
from repro.graph.coo import COOGraph
from repro.perfmodel.interconnect import profile_for_devices
from repro.sycl.device import Device
from repro.sycl.queue import Queue


class BSPAlgorithm:
    """Plugin interface one distributed algorithm implements.

    The engine owns the superstep loop, the ghost routing, and the
    accounting; the plugin owns the algorithm semantics.  Per-vertex
    state is **replicated per device** (ghost entries are stale caches);
    only a vertex's owner holds its authoritative value.
    """

    name: str = "bsp"

    def make_state(self, n: int) -> np.ndarray:
        raise NotImplementedError

    def seed(
        self,
        parts: Sequence[Partition],
        frontiers: Sequence,
        states: Sequence[np.ndarray],
        source: Optional[int],
    ) -> None:
        raise NotImplementedError

    def device_steps(self, state: np.ndarray) -> List[Step]:
        """The per-device superstep body as execution-plan IR.

        The engine runs these steps through the shared
        :class:`~repro.exec.PlanExecutor` with ``ctx.iteration`` set to
        the superstep index, so plugins reuse the *same* step builders
        as their single-device counterparts (``bfs.level_steps`` /
        ``sssp.relax_steps`` / ``cc.propagate_steps``).
        """
        raise NotImplementedError

    def message_values(self, state: np.ndarray, vertices: np.ndarray) -> Optional[np.ndarray]:
        """Payload shipped with ghost ``vertices`` (None = ids only)."""
        return None

    def apply(
        self,
        state: np.ndarray,
        vertices: np.ndarray,
        values: Optional[np.ndarray],
        depth: int,
    ) -> np.ndarray:
        """Owner-side merge of incoming ghosts; returns newly-activated ids."""
        raise NotImplementedError

    def superstep_limit(self, n: int) -> int:
        """Hard bound on executed supersteps (engine raises past it)."""
        raise NotImplementedError


@dataclass(frozen=True)
class SuperstepStats:
    """Accounting for one executed superstep.

    When the superstep had to re-execute after injected exchange faults,
    the entry describes the final (successful) attempt and ``retries``
    counts the rolled-back ones — their compute and exchange time is in
    the makespan and the run totals, but not in this entry's fields.
    """

    index: int
    device_ns: Tuple[float, ...]
    exchange_ns: float
    messages: int
    ghost_vertices: int
    wire_bytes: int
    idlist_bytes: int
    bitmap_bytes: int
    retries: int = 0

    @property
    def barrier_ns(self) -> float:
        """Compute time of the superstep: the slowest device gates it."""
        return max(self.device_ns) if self.device_ns else 0.0


@dataclass
class DistributedResult:
    """Stitched global result plus per-superstep BSP accounting.

    ``makespan_ns`` is the corrected BSP makespan
    ``sum_s (max_d compute(s, d) + exchange(s))``; the old (wrong)
    ``max(total per-device) + total exchange`` formula survives as
    :attr:`makespan_naive_ns` for comparison — it is always <= the
    correct value and strictly below it whenever the slowest device
    changes across supersteps.
    """

    values: np.ndarray
    iterations: int
    device_times_ns: List[float]
    exchange_ns: float
    ghost_messages: int
    ghost_vertices: int
    wire_bytes: int
    idlist_bytes: int
    bitmap_bytes: int
    makespan_ns: float
    supersteps: List[SuperstepStats] = field(default_factory=list)
    #: supersteps that rolled back to their checkpoint and re-executed
    #: after an injected ghost-exchange fault (0 without injection)
    recovered_supersteps: int = 0

    @property
    def makespan_naive_ns(self) -> float:
        """The pre-fix formula (kept for the regression comparison)."""
        top = max(self.device_times_ns) if self.device_times_ns else 0.0
        return top + self.exchange_ns

    @property
    def n_devices(self) -> int:
        return len(self.device_times_ns)


def run_bsp(
    coo: COOGraph,
    n_devices: int,
    algorithm: BSPAlgorithm,
    source: Optional[int] = None,
    devices: Optional[Sequence[Device]] = None,
    layout: str = "2lb",
    bits: Optional[int] = None,
    metrics=None,
    injector=None,
    max_superstep_retries: int = 3,
) -> DistributedResult:
    """Run one BSP traversal of ``algorithm`` over ``n_devices`` partitions.

    ``bits`` fixes both the frontier word width (bitmap-family layouts)
    and the ghost-exchange wire word width; ``None`` defers to the first
    device's inspector, like the single-device algorithms.  ``metrics``
    (a :class:`repro.obs.metrics.MetricsRegistry`) receives the
    ``dist.exchange.*`` counters, timestamped on the BSP makespan clock.

    ``injector`` (a :class:`repro.faults.FaultInjector`) arms the fault
    plane: the ``exchange`` site is rolled per ghost message, and a fired
    fault (drop or corrupt — both are detected, as by checksum + ack)
    rolls the superstep back to its entry checkpoint and re-executes it,
    up to ``max_superstep_retries`` times before raising
    :class:`~repro.errors.ExchangeFault`.  Failed attempts still pay
    their compute and wire time into the makespan.  The partition queues
    are armed too, so ``kernel_launch``/``alloc`` rules hit gang work
    exactly like single-device work (those propagate to the caller's
    retry policy; only the exchange site recovers in-engine).  Because
    recovery replays from the checkpoint, results under any recoverable
    schedule are bit-identical to the fault-free run.
    """
    n = coo.n_vertices
    parts = partition_static(coo, n_devices)
    d = len(parts)
    queues = [
        Queue(devices[i] if devices else None, capacity_limit=0) for i in range(d)
    ]
    if injector is not None:
        for q in queues:
            q.enable_fault_injection(injector)
    # each device holds the subgraph of its owned vertices' out-edges, in
    # the global id space (ghost dst ids resolve locally)
    graphs = [GraphBuilder(q).to_csr(p.local) for q, p in zip(queues, parts)]
    for q in queues:
        q.reset_profile()  # device times cover the traversal, not the build
    wire_bits = bits if bits is not None else queues[0].inspect().bitmap_bits
    link = profile_for_devices([q.device for q in queues])
    bounds = partition_bounds(parts)

    kwargs = layout_bits_kwargs(layout, bits)
    fins = [make_frontier(q, n, FrontierView.VERTEX, layout=layout, **kwargs) for q in queues]
    fouts = [make_frontier(q, n, FrontierView.VERTEX, layout=layout, **kwargs) for q in queues]
    states = [algorithm.make_state(n) for _ in range(d)]
    algorithm.seed(parts, fins, states, source)
    executors = [PlanExecutor(q) for q in queues]

    iteration = 0
    makespan = 0.0
    exchange_total = 0.0
    messages_total = ghosts_total = 0
    wire_total = idlist_total = bitmap_total = 0
    supersteps: List[SuperstepStats] = []
    limit = algorithm.superstep_limit(n)

    recovered = 0

    while any(not f.empty() for f in fins) and iteration < limit:
        depth = iteration + 1
        # per-superstep checkpoint: the state arrays at superstep entry.
        # fins are only mutated by the commit (merge) phase below, so the
        # states ARE the checkpoint; taken only while the exchange site
        # can still fire, keeping the injection-off path zero-cost.
        checkpoint = None
        if injector is not None and injector.armed("exchange"):
            checkpoint = [s.copy() for s in states]

        retries = 0
        while True:
            dev_ns: List[float] = []
            found: List[np.ndarray] = []
            for i, (g, q, fin, fout) in enumerate(zip(graphs, queues, fins, fouts)):
                t0 = q.elapsed_ns
                if fin.empty():
                    found.append(np.empty(0, dtype=np.int64))
                else:
                    with q.span(
                        "dist.superstep", iteration,
                        attrs={"part": i, "algorithm": algorithm.name},
                    ):
                        ctx = ExecContext(
                            q,
                            graphs={"csr": g},
                            frontiers={"in": fin, "out": fout},
                            iteration=iteration,
                        )
                        executors[i].run_steps(algorithm.device_steps(states[i]), ctx)
                    found.append(np.asarray(fout.active_elements(), dtype=np.int64).copy())
                dev_ns.append(q.elapsed_ns - t0)
            barrier = max(dev_ns) if dev_ns else 0.0

            # BSP exchange: ghosts go to their owners, 2LB-compressed
            step_msgs: List[GhostMessage] = []
            inbox_verts: List[List[np.ndarray]] = [[] for _ in range(d)]
            inbox_vals: List[List[Optional[np.ndarray]]] = [[] for _ in range(d)]
            dropped = 0
            for i, part in enumerate(parts):
                mine = found[i]
                if mine.size == 0:
                    continue
                ghosts = mine[~part.owns(mine)]
                if ghosts.size == 0:
                    continue
                owners = np.searchsorted(bounds, ghosts, side="right") - 1
                for o in np.unique(owners):
                    vs = ghosts[owners == o]
                    msg = encode_ghost_message(
                        i, int(o), parts[o].vertex_lo, parts[o].vertex_hi,
                        vs, wire_bits, algorithm.message_values(states[i], vs),
                    )
                    step_msgs.append(msg)
                    if injector is not None:
                        fault = injector.check(
                            "exchange", makespan + barrier,
                            algorithm=algorithm.name, superstep=iteration,
                            src_part=i, dst_part=int(o), vertices=int(vs.size),
                        )
                        if fault is not None:
                            # dropped or corrupted in flight: the bytes
                            # crossed the link but the owner never gets an
                            # intact message (corruption is detected and
                            # discarded, same recovery either way)
                            dropped += 1
                            continue
                    rverts, rvals = decode_ghost_message(msg)
                    inbox_verts[o].append(rverts)
                    inbox_vals[o].append(rvals)

            step_wire = sum(m.wire_bytes for m in step_msgs)
            step_idlist = sum(m.idlist_bytes for m in step_msgs)
            step_bitmap = sum(m.bitmap_bytes for m in step_msgs)
            step_ghosts = sum(m.n_vertices for m in step_msgs)
            step_exchange = link.all_to_all_ns(step_wire, d)

            if dropped == 0:
                break

            # failed attempt: its compute + exchange time and wire bytes
            # are real and stay charged, but nothing is committed
            makespan += barrier + step_exchange
            exchange_total += step_exchange
            messages_total += len(step_msgs)
            ghosts_total += step_ghosts
            wire_total += step_wire
            idlist_total += step_idlist
            bitmap_total += step_bitmap
            if metrics is not None:
                metrics.inc("dist.exchange.bytes", float(step_wire), makespan)
                metrics.inc("dist.exchange.messages", float(len(step_msgs)), makespan)
                metrics.inc("dist.exchange.ghost_vertices", float(step_ghosts), makespan)
                metrics.inc("dist.exchange.dropped", float(dropped), makespan)
            if retries >= max_superstep_retries:
                raise ExchangeFault(
                    f"BSP {algorithm.name}: ghost exchange kept failing at "
                    f"superstep {iteration} after {retries} checkpoint "
                    f"rollbacks ({dropped} message(s) lost in the last attempt)"
                )
            retries += 1
            # roll back to the checkpoint and re-execute the superstep
            for state, snap in zip(states, checkpoint):
                state[...] = snap
            for fout in fouts:
                fout.clear()

        if retries:
            recovered += 1
            if metrics is not None:
                metrics.inc("faults.recovered.exchange", 1.0, makespan)
            if injector is not None and injector.flight is not None:
                injector.flight.record(
                    "exchange_recovery", makespan, algorithm=algorithm.name,
                    superstep=iteration, retries=retries,
                )

        # owners merge inboxes and seed the next superstep's frontiers
        for i, part in enumerate(parts):
            fins[i].clear()
            nxt = [found[i][part.owns(found[i])]]
            if inbox_verts[i]:
                verts = np.concatenate(inbox_verts[i])
                vals = (
                    None
                    if inbox_vals[i][0] is None
                    else np.concatenate([v for v in inbox_vals[i] if v is not None])
                )
                nxt.append(algorithm.apply(states[i], verts, vals, depth))
            ids = np.unique(np.concatenate(nxt)) if any(a.size for a in nxt) else None
            if ids is not None and ids.size:
                fins[i].insert(ids)
            fouts[i].clear()

        makespan += barrier + step_exchange
        exchange_total += step_exchange
        messages_total += len(step_msgs)
        ghosts_total += step_ghosts
        wire_total += step_wire
        idlist_total += step_idlist
        bitmap_total += step_bitmap
        supersteps.append(
            SuperstepStats(
                index=iteration,
                device_ns=tuple(dev_ns),
                exchange_ns=step_exchange,
                messages=len(step_msgs),
                ghost_vertices=step_ghosts,
                wire_bytes=step_wire,
                idlist_bytes=step_idlist,
                bitmap_bytes=step_bitmap,
                retries=retries,
            )
        )
        if metrics is not None:
            metrics.inc("dist.exchange.bytes", float(step_wire), makespan)
            metrics.inc("dist.exchange.messages", float(len(step_msgs)), makespan)
            metrics.inc("dist.exchange.ghost_vertices", float(step_ghosts), makespan)
        iteration += 1

    if any(not f.empty() for f in fins):
        raise RuntimeError(
            f"BSP {algorithm.name}: frontier not empty after the superstep "
            f"bound ({limit}) — the engine's termination invariant is broken"
        )

    # stitch the authoritative owner ranges into the global result
    values = np.empty(n, dtype=states[0].dtype) if d else states[0]
    for part, state in zip(parts, states):
        values[part.vertex_lo:part.vertex_hi] = state[part.vertex_lo:part.vertex_hi]

    return DistributedResult(
        values=values,
        iterations=iteration,
        device_times_ns=[q.elapsed_ns for q in queues],
        exchange_ns=exchange_total,
        ghost_messages=messages_total,
        ghost_vertices=ghosts_total,
        wire_bytes=wire_total,
        idlist_bytes=idlist_total,
        bitmap_bytes=bitmap_total,
        makespan_ns=makespan,
        supersteps=supersteps,
        recovered_supersteps=recovered,
    )
