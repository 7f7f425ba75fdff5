"""SLO gate: pure threshold evaluation and the `repro slo` CLI."""

import argparse
import json

import pytest

from repro.__main__ import main
from repro.bench import ledger
from repro.obs.slo import SLOThresholds, evaluate_slo, run_slo


# --------------------------------------------------------------------- #
# evaluate_slo is a pure function                                       #
# --------------------------------------------------------------------- #
def test_clean_summary_passes():
    summary = {
        "p99_ms": 1.0,
        "shed_rate": 0.0,
        "spot_check_failures": 0,
        "failed": 0,
        "modeled_drift_pct": 0.0,
    }
    assert evaluate_slo(summary, SLOThresholds()) == []


def test_each_threshold_triggers_independently():
    t = SLOThresholds(
        max_p99_ms=1.0,
        max_shed_rate=0.1,
        max_spot_check_failures=0,
        max_failed=0,
        max_modeled_drift_pct=0.0,
    )
    cases = [
        ({"p99_ms": 2.0}, "p99"),
        ({"shed_rate": 0.5}, "shed"),
        ({"spot_check_failures": 1}, "spot-check"),
        ({"failed": 3}, "FAILED"),
        ({"modeled_drift_pct": 0.01}, "drifted"),
        ({"modeled_drift_pct": -0.01}, "drifted"),  # drift is two-sided
        ({"digest_changes": ["bfs/2lb/chain/1dev/unfused"]}, "digest"),
    ]
    for summary, needle in cases:
        violations = evaluate_slo(summary, t)
        assert len(violations) == 1, summary
        assert needle in violations[0]


def test_missing_keys_are_not_checked():
    assert evaluate_slo({}, SLOThresholds(max_p99_ms=0.0)) == []


def test_violations_accumulate():
    t = SLOThresholds(max_p99_ms=0.0, max_failed=0)
    violations = evaluate_slo({"p99_ms": 1.0, "failed": 1}, t)
    assert len(violations) == 2


# --------------------------------------------------------------------- #
# end-to-end gate                                                       #
# --------------------------------------------------------------------- #
def _args(**kw):
    ns = argparse.Namespace(
        baseline="BENCH_ledger.json",
        slo_report=None,
        slo_output=None,
        seed=7,
        skip_drift=True,
        max_p99_ms=None,
        max_shed_rate=None,
        max_spot_check_failures=None,
        max_failed=None,
        max_drift_pct=None,
    )
    for k, v in kw.items():
        setattr(ns, k, v)
    return ns


def test_run_slo_smoke_passes_and_writes_bench(tmp_path, capsys):
    out = tmp_path / "slo_gate.json"
    rc = run_slo(_args(slo_output=str(out)))
    assert rc == 0
    result = json.loads(out.read_text())
    assert result["benchmark"] == "slo-gate"
    assert result["pass"] is True
    assert result["violations"] == []
    assert result["summary"]["completed"] > 0
    assert result["summary"]["p99_trace_id"]  # exemplar resolves to a trace
    assert "PASS" in capsys.readouterr().out


def test_run_slo_tightened_threshold_fails_but_still_writes(tmp_path, capsys):
    out = tmp_path / "slo_gate.json"
    rc = run_slo(_args(slo_output=str(out), max_p99_ms=1e-9))
    assert rc == 1
    result = json.loads(out.read_text())  # artifact exists despite the failure
    assert result["pass"] is False
    assert any("p99" in v for v in result["violations"])
    assert "SLO VIOLATION" in capsys.readouterr().err


def test_run_slo_writes_nothing_without_output(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_slo(_args()) == 0
    assert list(tmp_path.iterdir()) == []


def test_slo_seed_zero_gates_seed_zero(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["slo", "--skip-drift", "--seed", "0"]) == 0
    assert "slo gate over smoke run (seed 0):" in capsys.readouterr().out


def test_run_slo_drift_check_against_stale_baseline(tmp_path):
    key = "bfs/2lb/power_law/1dev/unfused"
    records, _ = ledger.measure([key], 7)
    record = records[key]
    bpath = tmp_path / "ledger.json"
    out = tmp_path / "slo_gate.json"

    # a one-case ledger whose modeled ns disagree with today's model
    ledger.write(bpath, 7, {key: dict(record, modeled_ns=record["modeled_ns"] * 2)})
    rc = run_slo(_args(baseline=str(bpath), slo_output=str(out), skip_drift=False))
    assert rc == 1
    result = json.loads(out.read_text())
    assert result["summary"]["ledger_cases"] == 1
    assert result["summary"]["modeled_drift_pct"] == pytest.approx(-50.0)
    assert result["summary"]["drift_field"] == f"{key} modeled_ns"
    assert result["summary"]["digest_changes"] == []
    assert [v for v in result["violations"] if "drifted" in v]

    # same numbers, one changed string field (a digest): a violation
    # that no drift budget covers
    for name in ("digest", "kernel_sequence"):
        ledger.write(bpath, 7, {key: dict(record, **{name: "0"})})
        rc = run_slo(
            _args(baseline=str(bpath), slo_output=str(out), skip_drift=False, max_drift_pct=1e9)
        )
        assert rc == 1
        result = json.loads(out.read_text())
        assert result["summary"]["modeled_drift_pct"] == 0.0
        assert result["summary"]["digest_changes"] == [f"{key} {name}"]
        assert result["violations"] == [f"1 ledger digest(s) changed: {key} {name}"]


def test_run_slo_evaluates_existing_report(tmp_path):
    report = {
        "counters": {
            "service.admitted": 10.0,
            "service.completed": 8.0,
            "service.shed": 2.0,
            "service.failed": 0.0,
        },
        "histograms": {
            "service.latency": {
                "p99_ns": 4_000_000.0,
                "p99_exemplar": {"value": 4e6, "ts_ns": 1.0, "trace_id": "tid99"},
            }
        },
    }
    rpath = tmp_path / "report.json"
    rpath.write_text(json.dumps(report))
    out = tmp_path / "slo_gate.json"
    rc = run_slo(
        _args(slo_report=str(rpath), slo_output=str(out), max_shed_rate=0.5)
    )
    assert rc == 0
    result = json.loads(out.read_text())
    assert result["summary"]["p99_ms"] == 4.0
    assert result["summary"]["shed_rate"] == 0.2
    assert result["summary"]["p99_trace_id"] == "tid99"
