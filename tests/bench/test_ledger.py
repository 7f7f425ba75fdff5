"""The checked-in BENCH ledger: its case set, its contracts, its numbers.

The chain cases take most of a full recomputation, so they are left to
the SLO gate (``python -m repro slo``) and to CI, which rewrites the
whole file and compares it byte for byte; every other case is
recomputed here, one test each, and must match the file field for field.
"""

import copy
import json
from collections import Counter
from pathlib import Path

import pytest

from repro.bench import ledger

LEDGER_PATH = Path(__file__).resolve().parents[2] / "BENCH_ledger.json"
LEDGER = json.loads(LEDGER_PATH.read_text())
CASES = LEDGER["cases"]
RECOMPUTED = [key for key in sorted(CASES) if "/chain/" not in key]


def test_file_lists_every_case():
    assert sorted(CASES) == sorted(ledger.case_keys())
    families = {"runner": 60, "extension": 80, "bitmap": 12}
    assert Counter(map(ledger.family, CASES)) == {"core": 114, **families}
    assert Counter(map(ledger.family, RECOMPUTED)) == {"core": 76, **families}
    assert (LEDGER["seed"], LEDGER["device"]) == (ledger.SEED, ledger.DEVICE)


def test_write_reproduces_the_file(tmp_path):
    out = tmp_path / "ledger.json"
    ledger.write(out, LEDGER["seed"], CASES)
    assert out.read_bytes() == LEDGER_PATH.read_bytes()


def test_checked_in_ledger_meets_contracts():
    assert ledger.check_contracts(CASES) == []


@pytest.fixture(scope="module")
def coos():
    return ledger.graphs(LEDGER["seed"])


@pytest.mark.parametrize("key", RECOMPUTED)
def test_case_recomputes_exactly(key, coos):
    record, _ = ledger.run_case(key, coos)
    assert ledger.moved({key: CASES[key]}, {key: record}) == []
    assert sorted(record) == sorted(CASES[key])


def test_comparator_reports_exactly_the_changed_fields():
    int_key, float_key, str_key = (
        "bfs/bitmap/power_law/1dev/unfused",
        "runner/tigr/sssp/ca/tiny/mi100",
        "bitmap/2lb/32bit/kron/tiny/v100s",
    )
    new = copy.deepcopy(CASES)
    new[int_key]["dram_bytes"] *= 2
    new[float_key]["peak_l1_hit_rate"] /= 2
    new[str_key]["kernel_sequence"] = "0" * 16
    assert ledger.moved(CASES, new) == [
        (int_key, "dram_bytes", pytest.approx(100.0)),
        (str_key, "kernel_sequence", None),
        (float_key, "peak_l1_hit_rate", pytest.approx(-50.0)),
    ]
    table = [line.split() for line in ledger.moved_table(CASES, new)]
    assert ["runner", "peak_l1_hit_rate", "1/60", float_key] in table
    assert all(line.split()[2].startswith("0/") for line in ledger.moved_table(CASES, CASES))


# --------------------------------------------------------------------- #
# each contract catches its own mutation                                #
# --------------------------------------------------------------------- #
def _mutated(key, **fields):
    records = copy.deepcopy(CASES)
    records[key].update(fields)
    return records


@pytest.mark.parametrize(
    "key, group",
    [
        ("sssp/vector/power_law/1dev/fused", "sssp/power_law"),
        ("runner/sygraph/bc/ca/tiny/mi100", "runner/bc/ca/tiny"),
        ("extension/luby_mis(1)/kron/vector/tiny/v100s", "extension/luby_mis(1)/kron/tiny"),
        ("bitmap/2lb/64bit/kron/tiny/max1100", "bitmap/kron/tiny"),
    ],
)
def test_contract_one_digest_per_algorithm_and_graph(key, group):
    records = _mutated(key, digest="float64:(1500,):0")
    assert ledger.check_contracts(records) == [f"{group}: 2 different result digests"]


def test_contract_fused_iterations_match_unfused():
    key = "pagerank/bitmap/disconnected/1dev/fused"
    problems = ledger.check_contracts(_mutated(key, iterations=CASES[key]["iterations"] + 1))
    assert len(problems) == 1 and problems[0].startswith(f"{key}: ")
    assert "iterations" in problems[0]


def test_contract_wire_bytes_within_idlist_bytes():
    key = "cc/2lb/power_law/4dev/unfused"
    problems = ledger.check_contracts(_mutated(key, wire_bytes=CASES[key]["idlist_bytes"] + 1))
    assert len(problems) == 1 and problems[0].startswith(f"{key}: wire bytes")


def test_contract_makespan_at_least_naive_bound():
    key = "bfs/2lb/power_law/2dev/unfused"
    makespan = CASES[key]["modeled_ns"]
    assert ledger.check_contracts(CASES, {key: makespan}) == []
    problems = ledger.check_contracts(CASES, {key: makespan + 0.001})
    assert len(problems) == 1 and problems[0].startswith(f"{key}: makespan")


@pytest.mark.parametrize("algorithm, graph", ledger.FUSION_WINS)
def test_contract_fusion_saves_on_hot_cases(algorithm, graph):
    unfused = CASES[ledger.case_key(algorithm, "2lb", graph)]
    fused_key = ledger.case_key(algorithm, "2lb", graph, fused=True)
    problems = ledger.check_contracts(_mutated(fused_key, modeled_ns=unfused["modeled_ns"]))
    assert len(problems) == 1 and problems[0].startswith(f"{fused_key}: fusion saves no")
