"""Graph representations, IO, generators, and datasets.

SYgraph "primarily offers CSR and CSC graph representations", and lets
users plug custom representations implementing an iterator interface
(paper Section 3.1).  Here:

* :class:`~repro.graph.coo.COOGraph` — edge-list form, the builder's input;
* :class:`~repro.graph.csr.CSRGraph` — compressed sparse row, the push
  traversal format;
* :class:`~repro.graph.csc.CSCGraph` — compressed sparse column, the pull
  traversal format (direction-optimized BFS, SEP-Graph's pull mode);
* :mod:`~repro.graph.generators` — synthetic graph families (R-MAT, road
  lattices, preferential attachment, hierarchical web);
* :mod:`~repro.graph.datasets` — scaled stand-ins for the paper's Table 3
  datasets (DESIGN.md substitution #3);
* :mod:`~repro.graph.io` — edge-list / MatrixMarket / NPZ readers and
  writers (the SYgraph IO API).

The static partitioner lives in :mod:`repro.dist.partition`, part of the
multi-GPU subsystem grown from the paper's future-work sketch.
"""

from repro.graph.builder import GraphBuilder, from_edges
from repro.graph.coo import COOGraph
from repro.graph.csc import CSCGraph
from repro.graph.csr import CSRGraph
from repro.graph.properties import GraphProperties, compute_properties

__all__ = [
    "COOGraph",
    "CSRGraph",
    "CSCGraph",
    "GraphBuilder",
    "from_edges",
    "GraphProperties",
    "compute_properties",
]
