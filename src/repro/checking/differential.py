"""Differential runner: algorithms × frontier layouts × backends × widths.

The paper claims all frontier layouts are *semantically interchangeable*
(§4: the layout changes cost, never results).  This runner makes that an
executable property: every algorithm runs over the full configuration
matrix, every result is diffed against the pure-Python oracle **and**
against the first configuration's result, and the first divergence is
reported with its case, configuration pair, vertex, and — for BFS — the
first superstep at which the two layouts' frontiers disagree.

One command runs everything::

    python -m repro check --quick

Programmatic use::

    report = run_differential()
    assert report.ok, report.summary()
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms.bfs import UNSEEN, level_steps
from repro.algorithms.catalog import CATALOG, AlgorithmSpec, GraphBundle
from repro.checking import graphgen
from repro.checking.invariants import strict_mode
from repro.exec import ExecContext, HostStep, Plan, PlanExecutor, SwapClearStep
from repro.frontier import BITMAP_LAYOUTS, FrontierView, layout_bits_kwargs, make_frontier
from repro.sycl import Queue, get_device

#: backend name -> simulated device short name (repro.sycl.device registry).
#: "hip" is the ROCm/HIP stack of the AMD machine (paper Table 4 machine C).
BACKEND_DEVICES = {"cuda": "v100s", "level_zero": "max1100", "hip": "mi100"}

#: the four frontier data layouts of paper §4
LAYOUTS = ("2lb", "bitmap", "vector", "boolmap")

@dataclass(frozen=True)
class RunConfig:
    """One cell of the differential matrix."""

    algorithm: str
    layout: str
    backend: str
    bits: Optional[int] = None  # None = device inspector's choice
    fused: bool = False  # run through the executor's fusion pass

    def describe(self) -> str:
        width = f"/{self.bits}b" if self.bits else ""
        tail = "+fused" if self.fused else ""
        return f"{self.algorithm}[{self.layout}{width}@{self.backend}{tail}]"


@dataclass
class Divergence:
    """A result mismatch between one run and the oracle or another run."""

    case: str
    config: RunConfig
    against: str  # "oracle" or the other RunConfig's describe()
    vertex: int
    expected: object
    actual: object
    #: for BFS layout pairs: first superstep whose frontiers differ
    iteration: Optional[int] = None

    def __str__(self) -> str:
        it = f" (first divergent iteration: {self.iteration})" if self.iteration else ""
        return (
            f"{self.case}: {self.config.describe()} vs {self.against} "
            f"@ vertex {self.vertex}: expected {self.expected!r}, "
            f"got {self.actual!r}{it}"
        )


@dataclass
class RunError:
    """A configuration that crashed instead of producing a result."""

    case: str
    config: RunConfig
    error: str

    def __str__(self) -> str:
        return f"{self.case}: {self.config.describe()} raised {self.error}"


@dataclass
class DifferentialReport:
    """Outcome of one differential sweep."""

    n_runs: int = 0
    n_comparisons: int = 0
    divergences: List[Divergence] = field(default_factory=list)
    errors: List[RunError] = field(default_factory=list)
    algorithms: List[str] = field(default_factory=list)
    layouts: List[str] = field(default_factory=list)
    backends: List[str] = field(default_factory=list)
    cases: List[str] = field(default_factory=list)
    strict: bool = False
    #: device counts swept by the distributed (repro.dist) mode, if any
    distributed: List[int] = field(default_factory=list)
    #: whether the fusion on/off axis was swept
    fused: bool = False

    @property
    def ok(self) -> bool:
        return not self.divergences and not self.errors

    def summary(self, max_findings: int = 10) -> str:
        lines = [
            f"differential check: {self.n_runs} runs, {self.n_comparisons} comparisons"
            + (" [strict mode]" if self.strict else "")
            + (" [fusion axis]" if self.fused else ""),
            f"  algorithms: {' '.join(self.algorithms)}",
            f"  layouts:    {' '.join(self.layouts)}",
            f"  backends:   {' '.join(self.backends)}",
            f"  cases:      {' '.join(self.cases)}",
        ]
        if self.distributed:
            lines.append(
                "  distributed: " + " ".join(f"{d}dev" for d in self.distributed)
            )
        if self.ok:
            lines.append("PASS: all configurations agree with the oracle and each other")
        else:
            lines.append(
                f"FAIL: {len(self.divergences)} divergence(s), {len(self.errors)} error(s)"
            )
            for d in self.divergences[:max_findings]:
                lines.append(f"  DIVERGE  {d}")
            for e in self.errors[:max_findings]:
                lines.append(f"  ERROR    {e}")
            hidden = len(self.divergences) + len(self.errors) - 2 * max_findings
            if hidden > 0:
                lines.append(f"  ... and more ({hidden} not shown)")
        return "\n".join(lines)


# --------------------------------------------------------------------- #
# BFS frontier tracing — first-divergence at superstep granularity      #
# --------------------------------------------------------------------- #
def bfs_frontier_trace(
    graph, source: int, layout: str, bits: Optional[int] = None
) -> List[np.ndarray]:
    """Run Listing-1 BFS recording each superstep's discovered frontier.

    Returns the list of sorted active-element arrays, one per iteration
    (the out-frontier *after* each advance) — the ground truth two layouts
    must agree on superstep by superstep.
    """
    queue = graph.queue
    n = graph.get_vertex_count()
    kwargs = layout_bits_kwargs(layout, bits)
    fin = make_frontier(queue, n, FrontierView.VERTEX, layout=layout, **kwargs)
    fout = make_frontier(queue, n, FrontierView.VERTEX, layout=layout, **kwargs)
    dist = queue.malloc_shared((n,), np.int64, label="trace.dist", fill=UNSEEN)
    dist[source] = 0
    fin.insert(source)

    trace: List[np.ndarray] = []
    record = HostStep(
        lambda ctx: trace.append(np.asarray(fout.active_elements(), dtype=np.int64).copy())
    )
    plan = Plan(name=None, steps=level_steps(dist) + [record, SwapClearStep()], limit=n + 1)
    ctx = ExecContext(queue, graphs={"csr": graph}, frontiers={"in": fin, "out": fout})
    PlanExecutor(queue).run(plan, ctx)
    queue.free(dist)
    return trace


def first_divergent_iteration(
    graph, source: int, layout_a: str, layout_b: str, bits: Optional[int] = None
) -> Optional[Tuple[int, int]]:
    """(iteration, vertex) where two layouts' BFS frontiers first differ.

    Iterations are 1-based supersteps.  Returns None when the traces are
    identical.
    """
    ta = bfs_frontier_trace(graph, source, layout_a, bits)
    tb = bfs_frontier_trace(graph, source, layout_b, bits)
    for i in range(max(len(ta), len(tb))):
        fa = ta[i] if i < len(ta) else np.empty(0, dtype=np.int64)
        fb = tb[i] if i < len(tb) else np.empty(0, dtype=np.int64)
        if not np.array_equal(fa, fb):
            odd = np.setxor1d(fa, fb)
            return (i + 1, int(odd[0]) if odd.size else -1)
    return None


# --------------------------------------------------------------------- #
# the sweep                                                             #
# --------------------------------------------------------------------- #
def _widths_for(layout: str, widths: Sequence[Optional[int]]) -> Sequence[Optional[int]]:
    """Word widths applicable to a layout (non-bitmap layouts have none)."""
    if layout in BITMAP_LAYOUTS:
        return tuple(dict.fromkeys(widths)) or (None,)
    return (None,)


def run_differential(
    cases: Optional[Sequence[graphgen.GraphCase]] = None,
    algorithms: Sequence[str] = tuple(CATALOG),
    layouts: Sequence[str] = LAYOUTS,
    backends: Sequence[str] = tuple(BACKEND_DEVICES),
    widths: Sequence[Optional[int]] = (None,),
    strict: bool = False,
    seed: int = 0,
    scale: str = "quick",
    distributed: Sequence[int] = (),
    fused: bool = False,
    progress: Optional[Callable[[str], None]] = None,
) -> DifferentialReport:
    """Sweep the full matrix and diff everything against everything.

    ``algorithms`` name rows of the algorithm catalog
    (:data:`repro.algorithms.catalog.CATALOG`), which supplies each
    one's entry point, oracle and comparator.  Per (case, algorithm):
    the oracle result is computed once; each (layout, backend, width)
    run is compared to the oracle and to the matrix's first run of that
    case/algorithm (the cross-configuration diff).  BFS layout-pair
    mismatches additionally get a frontier trace to locate the first
    divergent superstep.

    ``distributed`` lists device counts to sweep through the
    :mod:`repro.dist` BSP engine: for each count, every row with a
    ``dist`` entry point (bfs, sssp, cc) runs over layouts × widths and
    must match the oracle and the case's single-device baseline.

    ``strict=True`` wraps every run in
    :func:`repro.checking.invariants.strict_mode`, so frontier invariants
    and memory guards are validated after every kernel of every run.

    ``fused=True`` doubles the matrix along the executor's fusion axis:
    every (layout, backend, width) cell runs once with ``fuse=False``
    and once with ``fuse=True``, and both must match the oracle and the
    case's first (unfused) run bit-for-bit — the executable form of the
    fusion pass's "same results, different kernel stream" contract.
    """
    if cases is None:
        cases = graphgen.adversarial_suite(seed=seed, scale=scale)
    report = DifferentialReport(
        algorithms=list(algorithms),
        layouts=list(layouts),
        backends=list(backends),
        cases=[c.name for c in cases],
        strict=strict,
        distributed=list(distributed),
        fused=fused,
    )
    specs = [CATALOG[name] for name in algorithms]
    fuse_axis = (False, True) if fused else (False,)

    for case in cases:
        wants = {spec.name: spec.oracle(case.coo, case.source) for spec in specs}
        #: algorithm -> (config, result) of the case's first run
        baselines: Dict[str, Tuple[RunConfig, np.ndarray]] = {}
        for backend in backends:
            queue = Queue(
                get_device(BACKEND_DEVICES[backend]),
                enable_profiling=False,
                capacity_limit=0,
            )
            bundle = GraphBundle(case.name, case.coo, queue)
            # build before the first run, so strict mode guards only the
            # runs' own allocations
            for spec in specs:
                spec.inputs(bundle)
            for spec in specs:
                for layout in layouts:
                    for bits, fuse_flag in (
                        (b, f) for b in _widths_for(layout, widths) for f in fuse_axis
                    ):
                        cfg = RunConfig(spec.name, layout, backend, bits, fused=fuse_flag)
                        if progress:
                            progress(f"{case.name}: {cfg.describe()}")
                        try:
                            with strict_mode(queue, guard=4) if strict else nullcontext():
                                res = spec.run(
                                    bundle, case.source, layout=layout, bits=bits, fuse=fuse_flag
                                )
                        except Exception as exc:  # noqa: BLE001 — report, don't abort the sweep
                            report.errors.append(
                                RunError(case.name, cfg, f"{type(exc).__name__}: {exc}")
                            )
                            continue
                        got = spec.values(res)
                        base = baselines.get(spec.name)
                        if base is None:
                            baselines[spec.name] = (cfg, got)
                        _diff(report, case, cfg, spec, got, wants[spec.name], base, bundle)

        # distributed mode: repro.dist BSP runs, bit-equal to the oracle
        # and to this case's single-device baseline
        for n_devices in distributed:
            for spec in (s for s in specs if s.dist):
                for layout in layouts:
                    for bits in _widths_for(layout, widths):
                        cfg = RunConfig(f"dist_{spec.name}", layout, f"{n_devices}dev", bits)
                        if progress:
                            progress(f"{case.name}: {cfg.describe()}")
                        try:
                            res = spec.dist(case.coo, n_devices, case.source, layout=layout, bits=bits)
                        except Exception as exc:  # noqa: BLE001 — report, don't abort the sweep
                            report.errors.append(
                                RunError(case.name, cfg, f"{type(exc).__name__}: {exc}")
                            )
                            continue
                        _diff(report, case, cfg, spec, spec.values(res), wants[spec.name],
                              baselines.get(spec.name))
    return report


def _diff(
    report: DifferentialReport,
    case: graphgen.GraphCase,
    cfg: RunConfig,
    spec: AlgorithmSpec,
    got: np.ndarray,
    want: np.ndarray,
    base: Optional[Tuple[RunConfig, np.ndarray]],
    bundle: Optional[GraphBundle] = None,
) -> None:
    """Count one run and record where it diverges from the oracle's
    ``want`` and from ``base``, the (config, result) of the case's first
    run.  With the single-device ``bundle``, a row with
    ``trace_frontiers`` locates a layout-pair divergence to its first
    divergent superstep."""
    report.n_runs += 1
    report.n_comparisons += 1
    miss = spec.mismatch(got, want)
    if miss is not None:
        report.divergences.append(Divergence(case.name, cfg, "oracle", *miss))
    if base is None:
        return
    base_cfg, base_got = base
    report.n_comparisons += 1
    miss = spec.mismatch(got, base_got)
    if miss is None:
        return
    iteration = None
    if spec.trace_frontiers and bundle is not None:
        div = first_divergent_iteration(
            bundle.get("csr"), case.source, base_cfg.layout, cfg.layout, cfg.bits
        )
        iteration = div[0] if div else None
    report.divergences.append(
        Divergence(case.name, cfg, base_cfg.describe(), *miss, iteration=iteration)
    )


# --------------------------------------------------------------------- #
# deliberate breakage — proving the harness has teeth                   #
# --------------------------------------------------------------------- #
@contextmanager
def inject_frontier_bug(layout_cls=None, drop_modulus: int = 5, drop_residue: int = 3):
    """Deliberately break a frontier layout: ``insert`` silently drops
    every element id with ``id % drop_modulus == drop_residue``.

    Used by the mutation-smoke test and ``python -m repro check
    --self-test`` to demonstrate the differential matrix *catches* a
    frontier bug (a harness that can't fail is no oracle).
    """
    if layout_cls is None:
        from repro.frontier.bitmap import BitmapFrontier

        layout_cls = BitmapFrontier
    original = layout_cls.insert

    def broken_insert(self, elements):
        ids = np.atleast_1d(np.asarray(elements, dtype=np.int64))
        original(self, ids[ids % drop_modulus != drop_residue])

    layout_cls.insert = broken_insert
    try:
        yield
    finally:
        layout_cls.insert = original


def self_test(seed: int = 0) -> Tuple[bool, str]:
    """Verify the harness catches an injected frontier bug.

    Runs a small BFS matrix with a sabotaged bitmap insert; returns
    ``(caught, summary)`` where ``caught`` means the sweep reported the
    divergence it must report.
    """
    cases = [c for c in graphgen.adversarial_suite(seed=seed) if c.name in ("chain", "star")]
    with inject_frontier_bug():
        report = run_differential(
            cases=cases,
            algorithms=("bfs",),
            layouts=("2lb", "vector"),
            backends=("cuda",),
        )
    caught = bool(report.divergences)
    verdict = "harness caught the injected frontier bug" if caught else (
        "SELF-TEST FAILURE: injected frontier bug was NOT detected"
    )
    return caught, f"{verdict}\n{report.summary(max_findings=3)}"
