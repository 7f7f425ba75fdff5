"""One harness for the two opaque-digest goldens.

``tests/exec/golden_kernels.json`` and ``tests/service/golden_timelines.json``
each map a case key to a digest; their test modules declare them as a
:class:`Golden`.  Rewrite both (only when a modeled change is intended)
with ``PYTHONPATH=src python -m tests.golden``, which prints per case
family (a key's first segment) how many digests moved and the first
moved keys.  Whole-run records live in the BENCH ledger instead
(``benchmarks/trajectory.py``).
"""

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Dict, Sequence

from repro.bench.ledger import moved_table


@dataclass(frozen=True)
class Golden:
    """One golden file: the keys it holds, the cases whose runs
    (case -> {key: digest}) produce them, and its JSON indent."""

    path: Path
    keys: Sequence[str]
    cases: Sequence[str]
    run: Callable[[str], Dict[str, str]]
    indent: int

    @cached_property
    def digests(self) -> Dict[str, str]:
        return json.loads(self.path.read_text())

    def assert_covers(self) -> None:
        assert sorted(self.digests) == sorted(self.keys)

    def rewrite(self) -> None:
        new: Dict[str, str] = {}
        for case in self.cases:
            new.update(self.run(case))
        old, now = ({key: {"digest": d} for key, d in ds.items()} for ds in (self.digests, new))
        print(f"{self.path.name} (family, moved/total, first moved keys):")
        for line in moved_table(old, now, family_of=lambda key: key.split("/", 1)[0]):
            print(f"  {line}")
        self.path.write_text(json.dumps(new, indent=self.indent, sort_keys=True) + "\n")


if __name__ == "__main__":
    from tests.exec.test_kernel_golden import GOLDEN as KERNELS
    from tests.service.test_timeline_golden import GOLDEN as TIMELINES

    for golden in (KERNELS, TIMELINES):
        golden.rewrite()
