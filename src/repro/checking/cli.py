"""``python -m repro check`` — the differential-testing entry point.

Exit status is the contract: 0 when every configuration of the matrix
agrees with the oracle (and, under ``--self-test``, when the harness
proves it can catch an injected frontier bug); 1 otherwise.  CI runs
``python -m repro check --quick`` as a tier-1 gate.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple


def add_check_arguments(parser) -> None:
    """Attach the ``check`` subcommand's flags to the main parser."""
    group = parser.add_argument_group("check options (experiment = 'check')")
    group.add_argument(
        "--quick", action="store_true",
        help="small adversarial graphs (default; seconds, used by CI)",
    )
    group.add_argument(
        "--full", action="store_true",
        help="10x larger adversarial graphs (minutes)",
    )
    group.add_argument(
        "--strict", action="store_true",
        help="validate frontier invariants + memory guards after every kernel",
    )
    group.add_argument(
        "--self-test", action="store_true", dest="self_test",
        help="inject a frontier bug and verify the matrix catches it",
    )
    group.add_argument(
        "--seed", type=int, default=0, help="graph-generator seed (default 0)"
    )
    group.add_argument(
        "--widths", default="device,32,64",
        help="bitmap word widths to sweep, comma-separated; 'device' = inspector default",
    )
    group.add_argument(
        "--algorithms", default=None, help="comma-separated subset (default: all seven)"
    )
    group.add_argument(
        "--layouts", default=None, help="comma-separated subset (default: all four)"
    )
    group.add_argument(
        "--backends", default=None, help="comma-separated subset (default: all three)"
    )
    group.add_argument(
        "--distributed", nargs="?", const="1,2,4", default=None, metavar="DEVICES",
        help="also sweep repro.dist BFS/SSSP/CC at these device counts, "
             "comma-separated (bare flag = 1,2,4)",
    )
    group.add_argument(
        "--fused", action="store_true",
        help="double the matrix along the executor's kernel-fusion axis "
             "(every cell runs fuse=off and fuse=on; results must be bit-equal)",
    )
    group.add_argument(
        "--verbose", action="store_true", help="print each configuration as it runs"
    )


def _parse_widths(spec: str) -> Tuple[Optional[int], ...]:
    out = []
    for tok in spec.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if tok == "device":
            out.append(None)
        elif tok.isdigit():
            out.append(int(tok))
        else:
            raise ValueError(f"invalid width {tok!r} (expected an integer or 'device')")
    return tuple(out) or (None,)


def _parse_list(spec: Optional[str], default: Sequence[str]) -> Tuple[str, ...]:
    if spec is None:
        return tuple(default)
    return tuple(tok.strip() for tok in spec.split(",") if tok.strip())


def run_check(args) -> int:
    """Execute the differential sweep described by parsed CLI args."""
    from repro.algorithms.catalog import CATALOG
    from repro.checking import differential

    if args.self_test:
        caught, msg = differential.self_test(seed=args.seed)
        print(msg)
        return 0 if caught else 1

    unknown = [
        (kind, bad)
        for kind, spec, valid in (
            ("algorithm", args.algorithms, tuple(CATALOG)),
            ("layout", args.layouts, differential.LAYOUTS),
            ("backend", args.backends, differential.BACKEND_DEVICES),
        )
        for bad in _parse_list(spec, valid)
        if bad not in valid
    ]
    if unknown:
        for kind, bad in unknown:
            print(f"error: unknown {kind} {bad!r}")
        return 2
    try:
        widths = _parse_widths(args.widths)
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    distributed: Tuple[int, ...] = ()
    if args.distributed is not None:
        try:
            distributed = tuple(
                int(tok) for tok in args.distributed.split(",") if tok.strip()
            )
        except ValueError:
            print(f"error: invalid --distributed {args.distributed!r} "
                  "(expected comma-separated device counts)")
            return 2
        if any(d < 1 for d in distributed):
            print("error: --distributed device counts must be >= 1")
            return 2

    report = differential.run_differential(
        algorithms=_parse_list(args.algorithms, tuple(CATALOG)),
        layouts=_parse_list(args.layouts, differential.LAYOUTS),
        backends=_parse_list(args.backends, tuple(differential.BACKEND_DEVICES)),
        widths=widths,
        strict=args.strict,
        seed=args.seed,
        scale="full" if args.full else "quick",
        distributed=distributed,
        fused=args.fused,
        progress=print if args.verbose else None,
    )
    print(report.summary())
    return 0 if report.ok else 1
