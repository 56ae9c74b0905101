"""Command-line front end.

Four subcommands:

* ``synth``: build a multi-controlled NOT with a chosen scheme, lower it
  to a gate basis, print the cost report, and optionally write the
  circuit to a file (verifying it first).
* ``verify``: check a circuit file against a brute-force oracle.
* ``table``: print the cost comparison table.
* ``convert``: translate a circuit file between the text and json
  formats.

Exit codes: 0 success (and, for verify, exact equivalence), 2 bad
parameters or unreadable input, 3 a circuit that fails verification.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Callable, Optional

from . import qasmio
from .costs import (
    SCHEMES,
    build_scheme,
    cost_report_for,
    make_table,
    render_table_csv,
    render_table_text,
    report_text,
)
from .decomp import GateBasis, lower_circuit
from .ir import NAMED_UNITARIES, QubitRole
from .verify import (
    EquivalenceClass,
    Oracle,
    check_equivalence,
    oracle_cnu,
    oracle_cnx,
    resolve_max_width,
)

def cmd_synth(args: argparse.Namespace) -> int:
    circuit = build_scheme(args.scheme, args.n, args.c)
    lowered = lower_circuit(circuit, GateBasis(args.basis))
    print(report_text(cost_report_for(circuit, lowered)))

    if args.out is None:
        return 0

    if args.no_verify:
        print("verify  skipped (--no-verify)")
    elif lowered.width > (cap := resolve_max_width()):
        # checked here, not left to check_equivalence: the classical
        # engine applies no width cap
        print(f"verify  skipped (width {lowered.width} > {cap})")
    else:
        verdict = check_equivalence(lowered, oracle_cnx(circuit.meta.n))
        print(f"verify  {verdict.klass.value} (max deviation {verdict.max_deviation:.3g})")
        if verdict.klass is not EquivalenceClass.EXACT:
            print("error: refusing to write a circuit that does not verify",
                  file=sys.stderr)
            return 3

    fmt = args.format or qasmio.format_for_path(args.out)
    qasmio.save(lowered, args.out, fmt)
    print(f"wrote   {args.out} ({len(lowered.gates)} gates, {fmt})")
    return 0


def _parse_oracle(spec: str) -> tuple[Oracle, int]:
    """Oracle spec: ``cnx:N`` or ``cnu:N:NAME``; returns it with its
    control count, which is spelled as the circuit files spell an
    integer."""
    kind, *fields = spec.split(":")
    if (kind, len(fields)) not in (("cnx", 1), ("cnu", 2)):
        raise ValueError(f"bad oracle spec {spec!r} (want cnx:N or cnu:N:NAME)")
    n = qasmio.decimal(fields[0])
    if n is None:
        raise ValueError(f"bad oracle control count {fields[0]!r}")
    if n < 1:
        raise ValueError(f"oracle control count must be positive, got {n}")
    if kind == "cnx":
        return oracle_cnx(n), n
    if fields[1] not in NAMED_UNITARIES:
        known = ", ".join(sorted(NAMED_UNITARIES))
        raise ValueError(f"unknown unitary {fields[1]!r} (known: {known})")
    return oracle_cnu(n, NAMED_UNITARIES[fields[1]]), n


def cmd_verify(args: argparse.Namespace) -> int:
    circuit = qasmio.load(args.circuit)
    oracle, n = _parse_oracle(args.oracle)

    controls = circuit.indices_with_role(QubitRole.CONTROL)
    targets = circuit.indices_with_role(QubitRole.TARGET)
    if len(controls) != n or len(targets) != 1:
        raise ValueError(
            f"circuit has {len(controls)} controls and {len(targets)} targets; "
            f"the oracle wants {n} controls and 1 target"
        )

    verdict = check_equivalence(circuit, oracle)
    print(f"verdict {verdict.klass.value}")
    print(f"max deviation {verdict.max_deviation:.6g}")
    if verdict.witness is not None:
        bits = "".join(str(b) for b in verdict.witness.input_bits)
        print(f"witness input |{bits}> ({verdict.witness.detail})")
    return 0 if verdict.klass is EquivalenceClass.EXACT else 3


def cmd_table(args: argparse.Namespace) -> int:
    rows = make_table(3, args.max)
    if args.format == "csv":
        print(render_table_csv(rows))
    else:
        print(render_table_text(rows))
    return 0


def cmd_convert(args: argparse.Namespace) -> int:
    circuit = qasmio.load(args.infile)
    fmt = args.format or qasmio.format_for_path(args.out)
    qasmio.save(circuit, args.out, fmt)
    print(f"wrote   {args.out} ({len(circuit.gates)} gates, {fmt})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mct",
        description="synthesize, lower, and verify multi-controlled NOT circuits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="build a circuit and report its costs")
    p.add_argument("--scheme", required=True, choices=SCHEMES)
    p.add_argument("--n", type=int, help="number of controls")
    p.add_argument("--c", type=int, help="cycle count (cycle scheme only)")
    p.add_argument("--basis", choices=sorted(b.value for b in GateBasis), default="toffoli")
    p.add_argument("--out", help="write the lowered circuit to this path")
    p.add_argument("--format", choices=("text", "json"),
                   help="file format (default: by extension)")
    p.add_argument("--no-verify", action="store_true",
                   help="skip the pre-write equivalence check")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("verify", help="check a circuit file against an oracle")
    p.add_argument("--circuit", required=True, help="circuit file to check")
    p.add_argument("--oracle", required=True, help="cnx:N or cnu:N:NAME")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table", help="print the cost comparison table")
    p.add_argument("--max", type=int, default=15, help="largest n (3..64)")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("convert", help="translate a circuit file between formats")
    p.add_argument("--infile", required=True, help="input circuit file")
    p.add_argument("--out", required=True, help="output circuit file")
    p.add_argument("--format", choices=("text", "json"),
                   help="output format (default: by extension)")
    p.set_defaults(func=cmd_convert)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first call, not at import, and reused: parsing makes
    # a fresh namespace each time, so no argument carries over
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    func: Callable[[argparse.Namespace], int] = args.func
    try:
        return func(args)
    except (ValueError, OSError) as exc:
        # a CircuitFileError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
