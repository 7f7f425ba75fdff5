"""``python -m repro trace`` — run one algorithm traced, export the trace.

Runs a single algorithm/layout pair over a seeded generated graph with
the hierarchical span tracer attached, writes the Perfetto-loadable
JSON (:func:`repro.obs.export.export_trace`), and prints the
per-iteration breakdown table.  CI runs ``python -m repro trace bfs
2lb`` and uploads the JSON as an artifact.
"""

from __future__ import annotations

#: supported frontier layouts
TRACE_LAYOUTS = ("2lb", "bitmap", "vector", "boolmap")

#: rmat scale per dataset-scale profile
_SCALES = {"tiny": 7, "small": 9, "medium": 11}

#: extra entry-point keywords per algorithm: PageRank stops after 20
#: iterations, which keeps its trace small
_ENTRY_KEYWORDS = {"pagerank": {"max_iterations": 20}}


def add_trace_arguments(parser) -> None:
    """Attach the ``trace`` subcommand's flags to the main parser."""
    from repro.algorithms.catalog import CATALOG

    group = parser.add_argument_group("trace options (experiment = 'trace')")
    group.add_argument(
        "trace_args",
        nargs="*",
        metavar="ALGO LAYOUT",
        help=f"algorithm ({' | '.join(CATALOG)}) and frontier layout "
        f"({' | '.join(TRACE_LAYOUTS)}); layout defaults to 2lb",
    )
    group.add_argument(
        "--output", default=None,
        help="trace JSON path (default: <algo>_<layout>_trace.json)",
    )


def run_trace(args) -> int:
    """Run one traced algorithm and export its span tree; 0 on success."""
    from repro.algorithms.catalog import CATALOG, GraphBundle
    from repro.bench.reporting import format_iteration_breakdown
    from repro.graph.generators import rmat
    from repro.obs import export_trace, iteration_breakdown
    from repro.sycl import Queue

    if not args.trace_args:
        print("error: trace needs an algorithm, e.g. 'python -m repro trace bfs 2lb'")
        return 2
    if len(args.trace_args) > 2:
        print(f"error: trace takes ALGO [LAYOUT]; unexpected {' '.join(args.trace_args[2:])!r}")
        return 2
    algo = args.trace_args[0]
    layout = args.trace_args[1] if len(args.trace_args) > 1 else "2lb"
    spec = CATALOG.get(algo)
    if spec is None:
        print(f"error: unknown algorithm {algo!r}; known: {', '.join(CATALOG)}")
        return 2
    if layout not in TRACE_LAYOUTS:
        print(f"error: unknown layout {layout!r}; known: {', '.join(TRACE_LAYOUTS)}")
        return 2
    scale = args.scale or "tiny"
    if scale not in _SCALES:
        print(f"error: unknown scale {scale!r}; known: {', '.join(_SCALES)}")
        return 2

    seed = getattr(args, "seed", 0)
    coo = rmat(_SCALES[scale], 8, seed=seed, weighted=True)
    queue = Queue(capacity_limit=0)
    tracer = queue.enable_tracing()
    spec.run(
        GraphBundle("rmat", coo, queue), 0,
        layout=layout, **_ENTRY_KEYWORDS.get(algo, {}),
    )

    out = args.output or f"{algo}_{layout}_trace.json"
    path = export_trace(tracer, out, queue=queue)
    rows = iteration_breakdown(tracer)
    print(format_iteration_breakdown(rows, title=f"{algo} / {layout} ({coo.n_vertices} vertices, {coo.n_edges} edges)"))
    spans = sum(1 for _ in tracer.root.walk()) - 1
    print(
        f"\n{spans} spans, {len(rows)} iterations, "
        f"{queue.elapsed_ns / 1e6:.3f} ms modeled -> {path}"
    )
    # sanity: a traced run must attribute every profiled kernel to the tree
    attributed = tracer.root.kernel_count()
    profiled = len(queue.profile.costs)
    if attributed != profiled:
        print(f"warning: {profiled - attributed} kernels missing from the span tree")
        return 1
    return 0
