#!/usr/bin/env python
"""Write the BENCH ledger: every pinned whole-run result, one record per case.

Runs every case of :mod:`repro.bench.ledger`, family by family, and
writes ``BENCH_ledger.json`` at the repo root (override with
``--output``)::

    python benchmarks/trajectory.py [--seed 7] [--output PATH]

Before writing, it compares the new records with the checked-in
``BENCH_ledger.json`` and prints, per family and field, how many records
moved, of how many, and the first moved keys.  Every value is
deterministic, so a rerun reproduces the file byte for byte and
``python -m repro slo`` can recompute all of it.  The file is written
either way; the run exits non-zero when a ledger contract
(:func:`repro.bench.ledger.check_contracts`) fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.bench import ledger


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, default=ledger.SEED, help="graph generator seed (default 7)")
    parser.add_argument(
        "--output", default=str(ROOT / "BENCH_ledger.json"),
        help="output JSON path (default: BENCH_ledger.json at the repo root)",
    )
    args = parser.parse_args(argv)

    records, naive_ns = ledger.measure(ledger.case_keys(), args.seed)
    for key, rec in records.items():
        print(f"{key:54s} modeled={rec['modeled_ns']:>14}ns iters={rec['iterations']}")
    checked_in = ROOT / "BENCH_ledger.json"
    if checked_in.exists():
        print(f"moved against {checked_in.name} (family, field, moved/total, first moved keys):")
        for line in ledger.moved_table(json.loads(checked_in.read_text())["cases"], records):
            print(f"  {line}")
    ledger.write(args.output, args.seed, records)
    print(f"wrote {args.output} ({len(records)} cases)")

    problems = ledger.check_contracts(records, naive_ns)
    for problem in problems:
        print(f"ERROR: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
