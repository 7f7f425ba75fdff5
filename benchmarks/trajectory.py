#!/usr/bin/env python
"""Write the BENCH ledger: every modeled result, one record per case.

Runs every case of :mod:`repro.bench.ledger` — algorithm × layout ×
graph × {unfused, fused} on one device, plus the BSP gangs at 2 and 4
devices — and writes ``BENCH_ledger.json`` at the repo root (override
with ``--output``)::

    python benchmarks/trajectory.py [--seed 7] [--output PATH]

Every value is deterministic, so a rerun reproduces the file byte for
byte and ``python -m repro slo`` can recompute all of it.  The file is
written either way; the run exits non-zero when a ledger contract
(:func:`repro.bench.ledger.check_contracts`) fails.
"""

from __future__ import annotations

import argparse
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
        print(f"{key:36s} modeled={rec['modeled_ns']:>14}ns iters={rec['iterations']}")
    ledger.write(args.output, args.seed, records)
    print(f"wrote {args.output} ({len(records)} cases)")

    problems = ledger.check_contracts(records, naive_ns)
    for problem in problems:
        print(f"ERROR: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
