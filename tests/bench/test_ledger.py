"""The checked-in BENCH ledger: its case set, its contracts, its numbers.

The chain cases take most of a full recomputation, so they are left to
the SLO gate (``python -m repro slo``); every other case is recomputed
here and must match the file exactly.
"""

import copy
import json
from pathlib import Path

import pytest

from repro.bench import ledger

LEDGER_PATH = Path(__file__).resolve().parents[2] / "BENCH_ledger.json"
LEDGER = json.loads(LEDGER_PATH.read_text())
CASES = LEDGER["cases"]


def test_file_lists_every_case():
    assert sorted(CASES) == sorted(ledger.case_keys())
    assert len(CASES) == 114
    assert (LEDGER["seed"], LEDGER["device"]) == (ledger.SEED, ledger.DEVICE)


def test_write_reproduces_the_file(tmp_path):
    out = tmp_path / "ledger.json"
    ledger.write(out, LEDGER["seed"], CASES)
    assert out.read_bytes() == LEDGER_PATH.read_bytes()


def test_checked_in_ledger_meets_contracts():
    assert ledger.check_contracts(CASES) == []


def test_small_graph_cases_recompute_exactly():
    keys = [key for key in CASES if "/chain/" not in key]
    assert len(keys) == 76
    records, _ = ledger.measure(keys, LEDGER["seed"])
    assert records == {key: CASES[key] for key in keys}


# --------------------------------------------------------------------- #
# each contract catches its own mutation                                #
# --------------------------------------------------------------------- #
def _mutated(key, **fields):
    records = copy.deepcopy(CASES)
    records[key].update(fields)
    return records


def test_contract_one_digest_per_algorithm_and_graph():
    records = _mutated("sssp/vector/power_law/1dev/fused", digest="float64:(1500,):0")
    assert ledger.check_contracts(records) == ["sssp/power_law: 2 different result digests"]


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
