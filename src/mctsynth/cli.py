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
import gc
import sys
from typing import Callable, Optional, Sequence

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
    WidthLimitError,
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
        # every input enumerated: each build runs on bit planes, read
        # as a miter against the C^nX table, so an exact one prints
        # deviation 0 in every basis
        try:
            verdict = check_equivalence(lowered, oracle_cnx(circuit.meta.n))
        except WidthLimitError as exc:
            # a cap raised past what the engines' 63-bit keys hold
            print(f"verify  skipped ({exc})")
        else:
            print(f"verify  {verdict.klass.value} (max deviation {verdict.max_deviation:.3g})")
            if verdict.klass is not EquivalenceClass.EXACT:
                print("error: refusing to write a circuit that does not verify",
                      file=sys.stderr)
                return 3

    fmt = qasmio.save(lowered, args.out, args.format)
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
    fmt = qasmio.save(circuit, args.out, args.format)
    print(f"wrote   {args.out} ({len(circuit.gates)} gates, {fmt})")
    return 0


# each subcommand's handler, help and options, every option as the
# keywords add_argument takes: build_parser gives them to argparse, and
# _match reads well-formed argv against them directly
_COMMANDS: dict[str, tuple[Callable[[argparse.Namespace], int], str, dict[str, dict]]] = {
    "synth": (cmd_synth, "build a circuit and report its costs", {
        "--scheme": dict(dest="scheme", required=True, choices=SCHEMES),
        "--n": dict(dest="n", type=int, help="number of controls"),
        "--c": dict(dest="c", type=int, help="cycle count (cycle scheme only)"),
        "--basis": dict(dest="basis", choices=sorted(b.value for b in GateBasis),
                        default="toffoli"),
        "--out": dict(dest="out", help="write the lowered circuit to this path"),
        "--format": dict(dest="format", choices=("text", "json"),
                         help="file format (default: by extension)"),
        "--no-verify": dict(dest="no_verify", action="store_true", default=False,
                            help="skip the pre-write equivalence check"),
    }),
    "verify": (cmd_verify, "check a circuit file against an oracle", {
        "--circuit": dict(dest="circuit", required=True, help="circuit file to check"),
        "--oracle": dict(dest="oracle", required=True, help="cnx:N or cnu:N:NAME"),
    }),
    "table": (cmd_table, "print the cost comparison table", {
        "--max": dict(dest="max", type=int, default=15, help="largest n (3..64)"),
        "--format": dict(dest="format", choices=("text", "csv"), default="text"),
    }),
    "convert": (cmd_convert, "translate a circuit file between formats", {
        "--infile": dict(dest="infile", required=True, help="input circuit file"),
        "--out": dict(dest="out", required=True, help="output circuit file"),
        "--format": dict(dest="format", choices=("text", "json"),
                         help="output format (default: by extension)"),
    }),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mct",
        description="synthesize, lower, and verify multi-controlled NOT circuits",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, summary, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for option, keywords in options.items():
            p.add_argument(option, **keywords)
        p.set_defaults(func=func)
    return parser


# fast path: verify-toffoli jobs_per_s is 65% lower without it (CHANGES.md, fast paths priced)
def _match(argv: Sequence[str]) -> Optional[argparse.Namespace]:
    """The namespace ``build_parser().parse_args(argv)`` returns, for
    argv of the form ``<command>`` then ``--flag`` and ``--option
    value`` items: each option spelled in full and given at most once,
    no value starting with ``-``, each value passing its option's type
    and choices, every required option present.  None for any other
    argv, which is left to argparse: help, usage errors, abbreviations
    and ``--option=value``."""
    entry = _COMMANDS.get(argv[0]) if argv else None
    if entry is None:
        return None
    func, _, options = entry
    values = {}
    items = iter(argv[1:])
    for token in items:
        option = options.get(token)
        if option is None or option["dest"] in values:
            return None
        if option.get("action") == "store_true":
            values[option["dest"]] = True
            continue
        text = next(items, None)
        if text is None or text.startswith("-"):
            return None
        convert = option.get("type")
        try:
            value = text if convert is None else convert(text)
        except (TypeError, ValueError):
            return None
        choices = option.get("choices")
        if choices is not None and value not in choices:
            return None
        values[option["dest"]] = value
    args = argparse.Namespace(command=argv[0])
    for option in options.values():
        dest = option["dest"]
        if dest in values:
            setattr(args, dest, values[dest])
        elif option.get("required"):
            return None
        else:
            setattr(args, dest, option.get("default"))
    args.func = func
    return args


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command and return its exit code.

    The command runs with the cyclic garbage collector paused, and the
    caller's collector state is put back on every way out.  The library
    builds no reference cycles, so reference counting frees everything
    a command drops; the pause only saves the collector's scans of the
    many small objects a large build and its lowering make.  Argument
    parsing, argparse's included, runs before the pause.
    """
    args = _match(sys.argv[1:] if argv is None else argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            code = exc.code
            return code if isinstance(code, int) else 2
    func: Callable[[argparse.Namespace], int] = args.func
    enabled = gc.isenabled()
    # fast path: synth-large job_tail_s is 7.8% higher without it (CHANGES.md, collector paused for each command)
    gc.disable()
    try:
        return func(args)
    except (ValueError, OSError, OverflowError, MemoryError) as exc:
        # a CircuitFileError is a ValueError; an over-large --n ends in
        # an OverflowError or a MemoryError, the latter often unworded
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
