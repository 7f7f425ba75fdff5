"""One function per paper table/figure (the experiment index of DESIGN.md).

Every function returns a dict with structured ``rows`` plus a rendered
``text`` table, so tests can assert on the numbers and humans can read
the output.  Functions take ``scale`` / ``n_sources`` overrides but
default to the ``REPRO_SCALE`` / ``REPRO_SOURCES`` environment knobs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.algorithms import bfs as _bfs
from repro.bench.harness import MeasureResult, env_scale, measure
from repro.bench.reporting import format_table, geomean, grouped_bars, ns_to_ms
from repro.baselines import make_runner
from repro.graph.builder import GraphBuilder
from repro.graph.datasets import FIGURE8_DATASETS, PAPER_TABLE3, dataset_names, load_dataset
from repro.graph.properties import compute_properties
from repro.operators.advance import AdvanceConfig
from repro.sycl.device import MAX1100_SPEC, MI100_SPEC, V100S_SPEC, get_device
from repro.sycl.queue import Queue

ALGORITHMS = ["bc", "bfs", "cc", "sssp"]
FRAMEWORKS = ["sygraph", "gunrock", "tigr", "sep"]


# --------------------------------------------------------------------- #
# Table 1 — qualitative framework comparison                             #
# --------------------------------------------------------------------- #
def table1_qualitative() -> Dict:
    """The paper's Table 1, generated from the implemented runners.

    Qualitative rows (targeted architectures, pre/post-processing, data
    layout, execution model, load balancing) are read off the baseline
    implementations rather than hard-coded where possible: preprocessing
    comes from each runner's measured ``preprocessing_ns`` and
    post-processing from the kernels it launches during a probe BFS.
    """
    from repro.baselines import make_runner

    probe = load_dataset("kron", "tiny")
    rows = []
    meta = {
        "sygraph": ("Heterogeneous", "Two-Layer Bitmap", "Sync", "Bitmap-tailored"),
        "gunrock": ("CUDA", "Vector", "Sync", "Dynamic task redistribution"),
        "tigr": ("CUDA", "Adj. List", "Sync", "Node reorganization"),
        "sep": ("CUDA", "Vector/Bitmap", "Sync/Async", "Algorithmic"),
    }
    for fw, (arch, layout, execution, balancing) in meta.items():
        runner = make_runner(fw, probe)
        runner.bfs(1)
        pre = "Yes" if runner.preprocessing_ns > 0 else "No"
        kernels = {c.name for c in runner.queue.profile.costs}
        post = "Yes" if any(
            "filter" in k or "dedup" in k or "vec" in k or ".post." in k for k in kernels
        ) else "No"
        rows.append([fw, arch, pre, post, layout, execution, balancing])
    text = format_table(
        ["Framework", "Targeted Arch.", "Pre-Proc.", "Post-Proc.", "Data-Layout", "Exec. Model", "Load Balancing"],
        rows,
        title="Table 1 — comparison against the state of the art",
    )
    return {"rows": rows, "text": text}


# --------------------------------------------------------------------- #
# Table 3 — datasets                                                    #
# --------------------------------------------------------------------- #
def table3_datasets(scale: Optional[str] = None) -> Dict:
    """Dataset statistics: our scaled graphs next to the paper's originals."""
    scale = scale or env_scale()
    rows = []
    for name in dataset_names():
        coo = load_dataset(name, scale)
        q = Queue()
        g = GraphBuilder(q).to_csr(coo)
        props = compute_properties(g)
        paper = PAPER_TABLE3[name]
        rows.append(
            [
                paper.name,
                props.n_vertices,
                props.n_edges,
                round(props.avg_degree, 1),
                props.max_degree,
                f"{paper.vertices:,.0f}",
                f"{paper.edges:,.0f}",
                paper.avg_degree,
                f"{paper.max_degree:,.0f}",
            ]
        )
    text = format_table(
        ["Graph", "|V|", "|E|", "AvgDeg", "MaxDeg", "paper |V|", "paper |E|", "paper avg", "paper max"],
        rows,
        title=f"Table 3 — datasets (scale={scale})",
    )
    return {"rows": rows, "text": text}


# --------------------------------------------------------------------- #
# Table 4 — hardware                                                    #
# --------------------------------------------------------------------- #
def table4_hardware() -> Dict:
    """The three simulated device profiles."""
    rows = []
    for spec, backends in (
        (V100S_SPEC, "CUDA"),
        (MAX1100_SPEC, "LevelZero, OpenCL"),
        (MI100_SPEC, "ROCm"),
    ):
        rows.append(
            [
                spec.vendor,
                spec.name,
                f"{spec.vram_bytes // 1024**3}GB",
                backends,
                f"{spec.l2_bytes // 1024**2}MB",
                spec.compute_units,
                spec.preferred_subgroup_size,
            ]
        )
    text = format_table(
        ["Vendor", "GPU", "VRAM", "SYCL Back-End", "L2", "CUs", "SG"],
        rows,
        title="Table 4 — simulated hardware profiles",
    )
    return {"rows": rows, "text": text}


# --------------------------------------------------------------------- #
# Figure 7 — bitmap optimization ablation                               #
# --------------------------------------------------------------------- #
ABLATION_CONFIGS = {
    "Base": ("bitmap", dict(match_subgroup_to_word=False, coarsen=False)),
    "MSI": ("bitmap", dict(match_subgroup_to_word=True, coarsen=False)),
    "CF": ("bitmap", dict(match_subgroup_to_word=False, coarsen=True)),
    "2LB": ("2lb", dict(match_subgroup_to_word=False, coarsen=False)),
    "All": ("2lb", dict(match_subgroup_to_word=True, coarsen=True)),
}

#: the paper's Figure 7 speedups, for side-by-side reporting.
FIG7_PAPER = {"Base": 1.0, "MSI": 1.2, "CF": 1.9, "2LB": 2.5, "All": 4.43}


def fig7_ablation(dataset: str = "indochina", scale: Optional[str] = None, source: int = 1) -> Dict:
    """BFS ablation on Indochina: Base vs MSI vs CF vs 2LB vs All."""
    scale = scale or env_scale()
    coo = load_dataset(dataset, scale)
    times = {}
    for name, (layout, inspect_kwargs) in ABLATION_CONFIGS.items():
        q = Queue(get_device("v100s"))
        g = GraphBuilder(q).to_csr(coo)
        params = q.inspect(**inspect_kwargs)
        q.reset_profile()
        _bfs(g, source, layout=layout, config=AdvanceConfig(params=params))
        times[name] = q.elapsed_ns
    base = times["Base"]
    rows = [
        [name, f"{ns_to_ms(t):.4f}", round(base / t, 2), FIG7_PAPER[name]]
        for name, t in times.items()
    ]
    text = format_table(
        ["Config", "time (ms)", "speedup", "paper speedup"],
        rows,
        title=f"Figure 7 — bitmap optimizations, BFS on {dataset} (V100S)",
    )
    return {"rows": rows, "times": times, "text": text}


# --------------------------------------------------------------------- #
# Table 5 — hardware metrics during BFS                                 #
# --------------------------------------------------------------------- #
def table5_hw_metrics(
    datasets: Optional[Sequence[str]] = None,
    scale: Optional[str] = None,
    n_sources: int = 1,
) -> Dict:
    """Peak L1 hit rate and occupancy during BFS advances, per framework."""
    datasets = list(datasets or FIGURE8_DATASETS)
    results: Dict[str, Dict[str, MeasureResult]] = {}
    for fw in FRAMEWORKS:
        results[fw] = {}
        for ds in datasets:
            results[fw][ds] = measure(fw, ds, "bfs", n_sources=n_sources, scale=scale)
    rows = []
    for fw in FRAMEWORKS:
        row: List[object] = [fw]
        for ds in datasets:
            m = results[fw][ds]
            row.append(f"{m.peak_l1_hit_rate * 100:.0f}%")
            row.append(f"{m.peak_occupancy * 100:.0f}%")
        rows.append(row)
    headers = ["Framework"]
    for ds in datasets:
        headers += [f"{ds}:L1H", f"{ds}:Occ"]
    text = format_table(headers, rows, title="Table 5 — peak L1 hit-rate / occupancy during BFS (V100S)")
    return {"rows": rows, "results": results, "text": text}


# --------------------------------------------------------------------- #
# Figure 8 — framework comparison on the V100S                          #
# --------------------------------------------------------------------- #
def fig8_comparison(
    algorithms: Optional[Sequence[str]] = None,
    datasets: Optional[Sequence[str]] = None,
    scale: Optional[str] = None,
    n_sources: Optional[int] = None,
) -> Dict:
    """Median +/- std runtimes for every (algorithm, dataset, framework)."""
    algorithms = list(algorithms or ALGORITHMS)
    datasets = list(datasets or FIGURE8_DATASETS)
    results: List[MeasureResult] = []
    for algo in algorithms:
        for ds in datasets:
            for fw in FRAMEWORKS:
                results.append(measure(fw, ds, algo, n_sources=n_sources, scale=scale))
    rows = []
    for m in results:
        rows.append(
            [
                m.algorithm,
                m.dataset,
                m.framework,
                round(ns_to_ms(m.median_ns), 4) if m.times_ns else "-",
                round(ns_to_ms(m.std_ns), 4) if m.times_ns else "-",
                round(ns_to_ms(m.preprocessing_ns), 3),
            ]
        )
    text = format_table(
        ["Algo", "Dataset", "Framework", "median (ms)", "std (ms)", "prep (ms)"],
        rows,
        title="Figure 8 — framework comparison on V100S (algorithm + preprocessing)",
    )
    # paper-style grouped bars, one block per (algorithm, dataset)
    values: Dict[str, Dict[str, float]] = {}
    for m in results:
        if m.times_ns:
            values.setdefault(f"{m.algorithm}/{m.dataset}", {})[m.framework] = ns_to_ms(m.median_ns)
    bars = grouped_bars(sorted(values), FRAMEWORKS, values)
    text += "\n\n" + bars
    return {"rows": rows, "results": results, "text": text, "bars": bars}


# --------------------------------------------------------------------- #
# Figure 9 — memory consumption during BFS                              #
# --------------------------------------------------------------------- #
def fig9_memory(
    datasets: Sequence[str] = ("ca", "hollywood", "indochina"),
    scale: Optional[str] = None,
    source: int = 1,
) -> Dict:
    """Device-memory traces (KB over time) during one BFS per framework."""
    scale = scale or env_scale()
    traces: Dict[str, Dict[str, np.ndarray]] = {}
    totals: Dict[str, Dict[str, int]] = {}
    for ds in datasets:
        coo = load_dataset(ds, scale)
        traces[ds] = {}
        totals[ds] = {}
        for fw in FRAMEWORKS:
            runner = make_runner(fw, coo)
            runner.queue.memory.reset_timeline()
            runner.queue.memory.tick("start")
            runner.bfs(source)
            _, series = runner.queue.memory.usage_trace()
            traces[ds][fw] = series
            totals[ds][fw] = runner.peak_bytes
    rows = []
    for ds in datasets:
        for fw in FRAMEWORKS:
            series = traces[ds][fw]
            rows.append(
                [
                    ds,
                    fw,
                    round(totals[ds][fw] / 1e6, 2),
                    round(float(series.max()) / 1e6, 2) if series.size else 0.0,
                    int(series.size),
                ]
            )
    text = format_table(
        ["Dataset", "Framework", "peak total (MB)", "trace max (MB)", "samples"],
        rows,
        title="Figure 9 — memory consumption during BFS (V100S)",
    )
    return {"rows": rows, "traces": traces, "totals": totals, "text": text}


# --------------------------------------------------------------------- #
# Table 6 — speedups with/without preprocessing                         #
# --------------------------------------------------------------------- #
def table6_speedups(
    fig8: Optional[Dict] = None,
    scale: Optional[str] = None,
    n_sources: Optional[int] = None,
) -> Dict:
    """SYgraph speedups vs each framework, WPP and WOP, plus projected OOM.

    OOM cells are *projections*: a framework's measured peak footprint is
    extrapolated to the original dataset size (DESIGN.md §2) and flagged
    when it exceeds the V100S's 32 GB.
    """
    fig8 = fig8 or fig8_comparison(scale=scale, n_sources=n_sources)
    results: List[MeasureResult] = fig8["results"]
    index: Dict = {(m.framework, m.dataset, m.algorithm): m for m in results}
    datasets = sorted({m.dataset for m in results}, key=lambda d: FIGURE8_DATASETS.index(d))
    algorithms = sorted({m.algorithm for m in results}, key=lambda a: ALGORITHMS.index(a))

    vram = V100S_SPEC.vram_bytes
    rows = []
    wpp_all: Dict[str, List[float]] = {}
    wop_all: Dict[str, List[float]] = {}
    for fw in ("gunrock", "sep", "tigr"):
        for algo in algorithms:
            row: List[object] = [fw, algo]
            for ds in datasets:
                ours = index.get(("sygraph", ds, algo))
                theirs = index.get((fw, ds, algo))
                if ours is None or theirs is None or not theirs.times_ns:
                    row += ["-", "-"]
                    continue
                paper = PAPER_TABLE3[ds]
                # OOM projection from recorded peak bytes
                scale_factor = 0.8 * paper.edges / max(1, _dataset_edges(ds, scale)) + 0.2 * paper.vertices / max(
                    1, _dataset_vertices(ds, scale)
                )
                if theirs.peak_bytes * scale_factor > vram:
                    row += ["OOM", "OOM"]
                    continue
                wpp = theirs.median_with_prep_ns / max(1.0, ours.median_ns)
                wop = theirs.median_ns / max(1.0, ours.median_ns)
                wpp_disp = ">99" if wpp > 99 else round(wpp, 2)
                row += [wpp_disp, round(wop, 2)]
                wpp_all.setdefault(fw, []).append(min(wpp, 99.0))
                wop_all.setdefault(fw, []).append(wop)
            rows.append(row)

    headers = ["Framework", "Algo"]
    for ds in datasets:
        headers += [f"{ds}:WPP", f"{ds}:WOP"]
    text = format_table(headers, rows, title="Table 6 — SYgraph speedup vs other frameworks")
    geo = {fw: (round(geomean(wpp_all.get(fw, [])), 2), round(geomean(wop_all.get(fw, [])), 2)) for fw in ("gunrock", "sep", "tigr")}
    text += "\n\nGeomean speedups (WPP, WOP): " + str(geo)
    text += "\nPaper geomeans (WPP & WOP pooled): Gunrock 3.49x, Tigr 7.51x, SEP-Graph 2.29x"
    return {"rows": rows, "geomeans": geo, "text": text}


def _dataset_edges(ds: str, scale: Optional[str]) -> int:
    return load_dataset(ds, scale or env_scale()).n_edges


def _dataset_vertices(ds: str, scale: Optional[str]) -> int:
    return load_dataset(ds, scale or env_scale()).n_vertices


# --------------------------------------------------------------------- #
# Figure 10 — portability across GPUs                                   #
# --------------------------------------------------------------------- #
FIG10_DEVICES = ["v100s", "max1100", "max1100-opencl", "mi100"]


def fig10_portability(
    algorithms: Optional[Sequence[str]] = None,
    datasets: Optional[Sequence[str]] = None,
    devices: Optional[Sequence[str]] = None,
    scale: Optional[str] = None,
    n_sources: Optional[int] = None,
) -> Dict:
    """SYgraph medians across the three hardware profiles (four backends)."""
    algorithms = list(algorithms or ALGORITHMS)
    datasets = list(datasets or dataset_names())
    devices = list(devices or FIG10_DEVICES)
    rows = []
    medians: Dict = {}
    for algo in algorithms:
        for ds in datasets:
            row: List[object] = [algo, ds]
            for dev in devices:
                m = measure("sygraph", ds, algo, device=get_device(dev), n_sources=n_sources, scale=scale)
                med = ns_to_ms(m.median_ns)
                medians[(algo, ds, dev)] = med
                row.append(round(med, 4))
            rows.append(row)
    text = format_table(
        ["Algo", "Dataset"] + list(devices),
        rows,
        title="Figure 10 — SYgraph across GPU architectures and backends (median ms)",
    )
    values: Dict[str, Dict[str, float]] = {}
    for (algo, ds, dev), med in medians.items():
        values.setdefault(f"{algo}/{ds}", {})[dev] = med
    bars = grouped_bars(sorted(values), list(devices), values)
    text += "\n\n" + bars
    return {"rows": rows, "medians": medians, "text": text, "bars": bars}
