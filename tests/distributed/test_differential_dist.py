"""The differential matrix's distributed mode and its CLI plumbing."""

import numpy as np
import pytest

from repro.algorithms.catalog import CATALOG
from repro.checking import differential, graphgen


@pytest.fixture(scope="module")
def dist_report():
    cases = [c for c in graphgen.adversarial_suite(seed=0)
             if c.name in ("chain", "isolated-ghosts")]
    return differential.run_differential(
        cases=cases,
        algorithms=("bfs", "sssp", "cc"),
        layouts=("2lb", "vector"),
        backends=("cuda",),
        widths=(None, 32),
        distributed=(1, 2, 4),
    )


class TestDistributedMode:
    def test_sweep_passes(self, dist_report):
        assert dist_report.ok, dist_report.summary()

    def test_distributed_runs_counted(self, dist_report):
        # 2 cases x 3 algorithms x (2lb x {None,32} + vector x {None}) x 3 counts
        assert dist_report.n_runs >= 2 * 3 * 3 * 3

    def test_report_records_device_counts(self, dist_report):
        assert dist_report.distributed == [1, 2, 4]
        assert "distributed" in dist_report.summary()

    def test_divergence_detected_in_dist_mode(self, monkeypatch):
        """The mode has teeth: a corrupted distributed result is reported."""
        from repro.dist import algorithms as dalg

        real = dalg.distributed_bfs

        def corrupt(coo, n_devices, source, **kw):
            res = real(coo, n_devices, source, **kw)
            if n_devices == 2 and res.values.size > 3:
                res.values[3] += 1
            return res

        monkeypatch.setattr("repro.dist.distributed_bfs", corrupt)
        cases = [c for c in graphgen.adversarial_suite(seed=0) if c.name == "chain"]
        report = differential.run_differential(
            cases=cases,
            algorithms=("bfs",),
            layouts=("2lb",),
            backends=("cuda",),
            distributed=(2,),
        )
        assert not report.ok
        assert any(d.config.backend == "2dev" for d in report.divergences)

    @pytest.mark.parametrize(
        "algorithm", [name for name, spec in CATALOG.items() if spec.dist is None]
    )
    def test_helper_rejects_unknown_algorithm(self, algorithm):
        """A 2-device gang of a row without a repro.dist entry point is
        rejected with the registry's DispatchError."""
        from repro.service.dispatch import DispatchError, DispatchRegistry, GangBundle
        from repro.service.request import Request
        from repro.sycl import get_device

        gang = GangBundle(graphgen.chain(8), [get_device("v100s")] * 2)
        req = Request(req_id=0, algorithm=algorithm, graph="chain", source=0, devices=2)
        with pytest.raises(DispatchError) as err:
            DispatchRegistry().run(gang, req)
        assert str(err.value) == (
            f"algorithm {algorithm!r} has no gang (multi-device) implementation; "
            "gang-capable: bfs, sssp, cc"
        )


class TestGraphgenCase:
    def test_isolated_ghosts_in_suite(self):
        suite = graphgen.adversarial_suite(seed=0)
        case = next(c for c in suite if c.name == "isolated-ghosts")
        deg = np.bincount(case.coo.src.astype(np.int64), minlength=case.coo.n_vertices)
        indeg = np.bincount(case.coo.dst.astype(np.int64), minlength=case.coo.n_vertices)
        assert np.all(deg[:8] == 0) and np.all(indeg[:8] == 0)
        assert case.source == case.coo.n_vertices - 3

    def test_case_is_deterministic(self):
        a = graphgen.isolated_ghosts(33, seed=5)
        b = graphgen.isolated_ghosts(33, seed=5)
        assert np.array_equal(a.src, b.src) and np.array_equal(a.dst, b.dst)

    def test_too_small_raises(self):
        with pytest.raises(ValueError):
            graphgen.isolated_ghosts(4)


class TestCLI:
    def _parse(self, argv):
        import argparse

        from repro.checking.cli import add_check_arguments

        parser = argparse.ArgumentParser()
        add_check_arguments(parser)
        return parser.parse_args(argv)

    def test_bare_flag_defaults_to_124(self):
        args = self._parse(["--distributed"])
        assert args.distributed == "1,2,4"

    def test_run_check_with_distributed(self, capsys):
        from repro.checking.cli import run_check

        args = self._parse(
            ["--quick", "--algorithms", "bfs", "--layouts", "2lb",
             "--backends", "cuda", "--widths", "device", "--distributed", "2"]
        )
        assert run_check(args) == 0
        out = capsys.readouterr().out
        assert "2dev" in out and "PASS" in out

    def test_bad_distributed_spec_exits_2(self, capsys):
        from repro.checking.cli import run_check

        args = self._parse(["--distributed", "two"])
        assert run_check(args) == 2
        args = self._parse(["--distributed", "0,2"])
        assert run_check(args) == 2
