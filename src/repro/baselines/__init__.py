"""Mini-reimplementations of the comparison frameworks.

The paper evaluates SYgraph against Gunrock, Tigr and SEP-Graph — CUDA
binaries we cannot run.  Per DESIGN.md substitution #5, each baseline here
reimplements the *mechanisms the paper attributes the performance
differences to*, on the same simulated runtime and cost model:

* :class:`~repro.baselines.gunrock.GunrockRunner` — dynamic vector
  frontier with staged appends, per-iteration duplicate-removal post-pass,
  geometric reallocation;
* :class:`~repro.baselines.tigr.TigrRunner` — UDT preprocessing (splits
  high-degree vertices into uniform virtual nodes), topology-driven
  traversal over the transformed graph, heavyweight resident structures;
* :class:`~repro.baselines.sepgraph.SepGraphRunner` — adaptive push/pull
  with per-iteration path selection overhead and vector<->bitmap frontier
  conversions;
* :class:`~repro.baselines.sygraph.SYgraphRunner` — the paper's system
  (this library) behind the same harness interface.

All runners share :class:`~repro.baselines.common.FrameworkRunner`,
which drives the three baselines' ``bfs``/``sssp``/``cc``/``bc`` once,
as plans on the plan executor; each framework module keeps only its
level method, its backward sweep and its kernels.
"""

from repro.baselines.common import FrameworkRunner, make_runner, runner_names
from repro.baselines.gunrock import GunrockRunner
from repro.baselines.sepgraph import SepGraphRunner
from repro.baselines.sygraph import SYgraphRunner
from repro.baselines.tigr import TigrRunner

__all__ = [
    "FrameworkRunner",
    "make_runner",
    "runner_names",
    "GunrockRunner",
    "TigrRunner",
    "SepGraphRunner",
    "SYgraphRunner",
]
