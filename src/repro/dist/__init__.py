"""Multi-GPU distributed execution (``repro.dist``).

The paper's conclusion names static graph partitioning — each GPU owning
a local subgraph — as SYgraph's multi-GPU path.  This package is that
path, grown from an earlier single-file preview into a real subsystem:

* :mod:`repro.dist.partition` — static 1-D edge-balanced partitioner
  (degenerate inputs collapse to fewer, non-empty partitions);
* :mod:`repro.dist.bsp` — the BSP superstep engine: pluggable
  algorithms, per-superstep makespan accounting, modeled-interconnect
  exchange costs (:mod:`repro.perfmodel.interconnect`);
* :mod:`repro.dist.wire` — the 2LB-compressed ghost-exchange wire
  format (owned-range bitmap words instead of 8-byte vertex ids);
* :mod:`repro.dist.algorithms` — distributed BFS, SSSP (Bellman-Ford)
  and CC (min-label propagation), bit-identical to the single-device
  algorithms.
"""

from repro.dist.algorithms import (
    DistributedBFSResult,
    DistributedCCResult,
    DistributedSSSPResult,
    distributed_bfs,
    distributed_cc,
    distributed_sssp,
)
from repro.dist.bsp import BSPAlgorithm, DistributedResult, SuperstepStats, run_bsp
from repro.dist.partition import (
    Partition,
    edge_balance,
    owner_of,
    partition_bounds,
    partition_static,
)
from repro.dist.wire import (
    GhostMessage,
    decode_ghost_message,
    encode_ghost_message,
)

__all__ = [
    "BSPAlgorithm",
    "DistributedResult",
    "SuperstepStats",
    "run_bsp",
    "DistributedBFSResult",
    "DistributedSSSPResult",
    "DistributedCCResult",
    "distributed_bfs",
    "distributed_sssp",
    "distributed_cc",
    "Partition",
    "partition_static",
    "partition_bounds",
    "owner_of",
    "edge_balance",
    "GhostMessage",
    "encode_ghost_message",
    "decode_ghost_message",
]
