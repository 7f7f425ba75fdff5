"""The differential matrix: it passes on a correct build, it FAILS on a
sabotaged one (mutation smoke), and the CLI exposes both as exit codes."""

from collections import Counter

import numpy as np
import pytest

from repro.__main__ import main
from repro.checking.differential import (
    BACKEND_DEVICES,
    first_divergent_iteration,
    inject_frontier_bug,
    run_differential,
    self_test,
)
from repro.checking.graphgen import adversarial_suite
from repro.frontier.boolmap import BoolmapFrontier
from repro.frontier.vector import VectorFrontier
from repro.graph.builder import from_edges
from repro.perfmodel.cost import CostModel
from repro.sycl import Queue, get_device


def _cases(*names):
    return [c for c in adversarial_suite() if c.name in names]


class TestMatrixPasses:
    def test_every_algorithm_layout_backend_cell(self, graph_case):
        """The full 7 x 4 x 3 matrix agrees on every adversarial case."""
        report = run_differential(cases=[graph_case])
        assert report.ok, report.summary()
        assert report.n_runs == 7 * 4 * 3
        # oracle diff per run + cross-config diff for all but the first
        assert report.n_comparisons == report.n_runs * 2 - 7

    def test_both_word_widths(self):
        report = run_differential(
            cases=_cases("chain", "duplicate-edges"),
            algorithms=("bfs", "cc"),
            layouts=("2lb", "bitmap"),
            backends=("cuda",),
            widths=(32, 64),
        )
        assert report.ok, report.summary()
        assert report.n_runs == 2 * 2 * 2 * 2

    def test_strict_mode_sweep(self):
        report = run_differential(
            cases=_cases("star"), backends=("cuda",), strict=True
        )
        assert report.ok, report.summary()
        assert report.strict and "[strict mode]" in report.summary()

    def test_backend_devices_cover_three_vendors(self):
        vendors = {get_device(name).backend for name in BACKEND_DEVICES.values()}
        assert len(vendors) == 3


class TestMutationSmoke:
    def test_injected_frontier_bug_is_caught(self):
        """Sabotage 2LB insert: the matrix must report divergences."""
        with inject_frontier_bug():
            report = run_differential(
                cases=_cases("chain", "star"),
                algorithms=("bfs",),
                layouts=("2lb", "vector"),
                backends=("cuda",),
            )
        assert not report.ok
        assert any(d.config.layout == "2lb" for d in report.divergences)

    def test_divergence_reports_layout_pair_and_iteration(self):
        with inject_frontier_bug():
            report = run_differential(
                cases=_cases("chain"),
                algorithms=("bfs",),
                layouts=("vector", "2lb"),  # healthy baseline first
                backends=("cuda",),
            )
        cross = [d for d in report.divergences if d.against != "oracle"]
        assert cross, report.summary()
        d = cross[0]
        assert d.config.layout == "2lb" and "vector" in d.against
        assert d.iteration is not None and d.iteration >= 1
        assert d.vertex >= 0
        assert str(d.iteration) in str(d)

    def test_harness_recovers_after_injection(self):
        with inject_frontier_bug():
            pass
        report = run_differential(
            cases=_cases("chain"), algorithms=("bfs",), layouts=("2lb",), backends=("cuda",)
        )
        assert report.ok

    def test_self_test(self):
        caught, msg = self_test()
        assert caught and "caught" in msg


def _raise(*args, **kwargs):
    raise RuntimeError("mutant")


class TestMatrixReachesAccounting:
    """Every run of the matrix is priced, like a served request: a fault
    in a frontier's address map or in launch pricing is a run error."""

    # errors per layout over 7 algorithms x 2 cases: pagerank's kernels
    # stream no frontier storage, so only launch pricing fails all 14
    @pytest.mark.parametrize(
        "owner, method, errors",
        [
            (VectorFrontier, "storage", {"vector": 12}),
            (BoolmapFrontier, "storage", {"boolmap": 12}),
            (CostModel, "_price_launches", {"vector": 14, "boolmap": 14}),
        ],
    )
    def test_raising_accounting_is_a_run_error(self, monkeypatch, owner, method, errors):
        monkeypatch.setattr(owner, method, _raise)
        report = run_differential(
            cases=_cases("chain", "star"), layouts=("vector", "boolmap"), backends=("cuda",)
        )
        assert not report.divergences
        assert Counter(e.config.layout for e in report.errors) == errors
        assert {e.error for e in report.errors} == {"RuntimeError: mutant"}


class TestFirstDivergentIteration:
    @pytest.fixture
    def chain_graph(self):
        queue = Queue(get_device("v100s"), capacity_limit=0)
        v = np.arange(9)
        return from_edges(queue, v, v + 1)

    def test_identical_layouts_have_no_divergence(self, chain_graph):
        assert first_divergent_iteration(chain_graph, 0, "2lb", "vector") is None

    def test_injected_bug_locates_iteration_and_vertex(self, chain_graph):
        # inject_frontier_bug drops ids with id % 5 == 3: on the chain
        # 0->1->...->9 the 2LB trace first loses vertex 3 at superstep 3.
        with inject_frontier_bug():
            div = first_divergent_iteration(chain_graph, 0, "vector", "2lb")
        assert div == (3, 3)


class TestReportShape:
    def test_errors_are_collected_not_raised(self):
        report = run_differential(
            cases=_cases("chain"), algorithms=("bfs",), layouts=("no-such-layout",),
            backends=("cuda",),
        )
        assert report.n_runs == 0
        assert len(report.errors) == 1
        assert "no-such-layout" in str(report.errors[0])
        assert not report.ok

    def test_summary_lists_coverage(self):
        report = run_differential(
            cases=_cases("star"), algorithms=("bfs",), layouts=("2lb",), backends=("cuda",)
        )
        s = report.summary()
        assert "bfs" in s and "2lb" in s and "cuda" in s and "star" in s and "PASS" in s


class TestCLI:
    def test_check_quick_exits_zero(self, capsys):
        code = main(["check", "--algorithms", "bfs,cc", "--layouts", "2lb,vector",
                     "--backends", "cuda", "--widths", "device"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_check_self_test_exits_zero(self, capsys):
        assert main(["check", "--self-test"]) == 0
        assert "caught" in capsys.readouterr().out

    def test_check_rejects_unknown_layout(self, capsys):
        assert main(["check", "--layouts", "quantum"]) == 2
        assert "unknown layout" in capsys.readouterr().out

    def test_check_fails_on_divergence(self, capsys):
        with inject_frontier_bug():
            code = main(["check", "--algorithms", "bfs", "--layouts", "2lb,vector",
                         "--backends", "cuda", "--widths", "device"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out
