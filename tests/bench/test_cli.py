"""The `python -m repro` command-line entry point."""

import pytest

from repro.__main__ import EXPERIMENTS, main


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig7", "fig8", "table5", "table6"):
            assert name in out

    def test_every_experiment_registered(self):
        assert set(EXPERIMENTS) == {
            "table1", "table3", "table4", "table5", "table6", "fig7", "fig8", "fig9", "fig10",
        }

    def test_run_table4(self, capsys):
        assert main(["table4"]) == 0
        out = capsys.readouterr().out
        assert "Tesla V100S" in out and "[table4:" in out

    def test_run_with_scale_flag(self, capsys):
        assert main(["table3", "--scale", "tiny"]) == 0
        assert "scale=tiny" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_docstring_usage_covers_every_subcommand(self):
        import repro.__main__ as m

        usage = m.__doc__
        for sub in m.SUBCOMMANDS:
            assert f"python -m repro {sub}" in usage, f"{sub} missing from usage block"

    def test_help_epilog_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        import repro.__main__ as m

        for sub in m.SUBCOMMANDS:
            assert sub in out


class TestTraceCLI:
    def test_trace_bfs_writes_json(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["trace", "bfs", "2lb", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "bfs / 2lb" in out
        assert "bfs.iter#0" in out
        trace = tmp_path / "bfs_2lb_trace.json"
        assert trace.exists()
        import json

        events = json.loads(trace.read_text())["traceEvents"]
        assert any(e["ph"] == "B" and e["name"].startswith("bfs.iter#") for e in events)
        assert any(e["ph"] == "C" and e["name"] == "frontier.size" for e in events)

    def test_trace_output_flag(self, tmp_path):
        out = tmp_path / "t.json"
        assert main(["trace", "cc", "vector", "--output", str(out)]) == 0
        assert out.exists()

    def test_trace_requires_algorithm(self, capsys):
        assert main(["trace"]) == 2
        assert "error" in capsys.readouterr().out

    def test_trace_unknown_algorithm(self, capsys):
        assert main(["trace", "nope"]) == 2
        assert "unknown algorithm" in capsys.readouterr().out

    def test_trace_unknown_layout(self, capsys):
        assert main(["trace", "bfs", "hexmap"]) == 2
        assert "unknown layout" in capsys.readouterr().out

    def test_trace_unknown_scale(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["trace", "bfs", "2lb", "--scale", "huge"]) == 2
        assert "unknown scale 'huge'" in capsys.readouterr().out
        assert not list(tmp_path.iterdir())

    def test_trace_extra_words(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["trace", "bfs", "2lb", "extra", "junk"]) == 2
        assert "unexpected 'extra junk'" in capsys.readouterr().out
        assert not list(tmp_path.iterdir())


class TestTable1:
    def test_matches_paper(self):
        from repro.bench.experiments import table1_qualitative

        out = table1_qualitative()
        cells = {row[0]: row for row in out["rows"]}
        assert cells["sygraph"][1] == "Heterogeneous"
        assert cells["sygraph"][2:4] == ["No", "No"]
        assert cells["tigr"][2:4] == ["Yes", "Yes"]
