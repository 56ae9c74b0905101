"""Cost accounting: closed-form predictions, built counts, and the
comparison table.

Two kinds of numbers appear here and they are kept strictly apart.

Closed forms are analytic predictions for the constructions: Toffoli
count, ancilla count, and lowered two-qubit operation count as
functions of n (controls) and c (cycles).  Built counts are what the
builders actually produce: cost reports count the gates, and the table
reads the cycle plan's exact counts.  Where the two differ, both
numbers are reported and the gap is flagged rather than papered over.
One such case is the cycle Toffoli form, a floored average that never
under-counts the build and over-counts it by 0 to 3 (n=4, c=2: form 6,
built 5; n=7, c=2: form 15, built 13).

The module also carries fixed reference values for small n: the
per-n operation and ancilla counts the cycle scheme is expected to hit
at the best cycle count, and the corresponding counts of an established
alternative construction used for comparison.  The alternative's own
closed form disagrees with its fixed values by a known per-n offset;
accessors surface both numbers, and the table prefers the fixed values
where they exist.

All count arithmetic is exact integer arithmetic.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Optional

from .cycle import (
    best_cycle_count,
    build_cycle_cnx,
    build_cycle_cnx_auto,
    build_two_cycle_cnx,
    plan_cycles,
    plan_two_cycle,
)
from .decomp import GateBasis, lower_circuit, peres_pairing
from .ir import Circuit, GateKind, QubitRole, count_gates
from .ladder import (
    CyclePlan,
    build_cnx,
    build_workspace_c3x,
    build_workspace_toffoli,
    plan_ladder,
)


# ---------------------------------------------------------------------------
# closed forms for the ladder

def ladder_toffoli_form(n: int) -> int:
    return 2 * n - 3


def ladder_ancilla_form(n: int) -> int:
    return n - 2


def ladder_ops_form(n: int, basis: GateBasis) -> int:
    """Lowered operation count of the n-control ladder.

    One Toffoli stays exact (15 gates in CNOT_LOCAL, 5 in the CV basis)
    and the 2n-4 mirrored ones take the cheap members (7 and 4)."""
    if basis is GateBasis.CNOT_LOCAL:
        return 14 * n - 13
    if basis is GateBasis.CV_BASIS:
        return 8 * n - 11
    return ladder_toffoli_form(n)


# ---------------------------------------------------------------------------
# closed forms for the cycle scheme

def toffoli_count_form(n: int, c: int) -> int:
    """Predicted cycle-scheme Toffoli total: 2c-1 cycle runs at the
    average cycle cost, floored.

    This is an upper bound on build_cycle_cnx(n, c), not its count: the
    form never under-counts and over-counts by 0 to 3 (checked for n up
    to 79 and every c).  Parity is only part of the cause; the builds
    are always odd, but n=7, c=2 gives an odd form of 15 against a
    build of 13.  The builder runs the cheaper blocks twice, gives the
    first block no running product, and hands the first control to the
    final block, whereas the form charges every run the average cost.
    CyclePlan.toffoli_total is the exact count; cost reports note the
    gap.
    """
    _require_c(n, c)
    return (2 * n * (2 * c - 1) - c * (3 + 2 * c) + 2) // c


def ancilla_split_form(n: int, c: int) -> int:
    """Process pool plus cycle ancillas, counted separately."""
    _require_c(n, c)
    return math.ceil((n - 1) / c) + c - 2


def ancilla_min_form(n: int, c: int) -> int:
    """Ancilla total used by the scheme summaries: one more than the
    split form (the firing block's extra slot)."""
    _require_c(n, c)
    return math.ceil((n - 1) / c) + c - 1


def best_ancilla_form(n: int) -> int:
    return ancilla_min_form(n, best_cycle_count(n))


def cv_ops_form(n: int, c: Optional[int] = None) -> int:
    """Predicted two-qubit operation count of the cycle scheme in the
    CV basis: paired Toffolis at 4 operations, the 2c-1 cycle-closing
    ones at 5."""
    if n < 3:
        raise ValueError("cv op form needs n >= 3")
    if c is None:
        c = best_cycle_count(n)
    _require_c(n, c)
    return 4 * (4 * n - (2 * (n - 1)) // c - 2 * c - 3) + 2 * c - 1


def two_cycle_toffoli_form(n: int) -> int:
    """Toffoli total of the two-block split: 3(n-2) for odd n, 3n-7
    for even n (the even case is one short of 3(n-2) because the halves
    tie)."""
    if n < 3:
        raise ValueError("two-cycle split needs n >= 3")
    f = (n + 1) // 2
    return 2 * n + 2 * f - 7


def _require_c(n: int, c: int) -> None:
    if not 1 <= c <= n - 1:
        raise ValueError(f"cycle count must be in 1..{n - 1}, got {c}")


# ---------------------------------------------------------------------------
# comparison construction

def baseline_cv_ops_form(n: int) -> int:
    """Closed form for the comparison construction's two-qubit count.

    Known to undershoot the fixed reference values below; see
    baseline_cv_ops for the reconciled accessor and
    REFERENCE_BASELINE_CV_OPS for the numbers themselves.
    """
    if n < 3:
        raise ValueError("baseline form needs n >= 3")
    s = best_cycle_count(n)
    return 24 * n - 64 - 12 * math.ceil((n - 1) / s) - 12 * s


# Fixed reference values for small n.  REFERENCE_CV_OPS and
# REFERENCE_ANCILLA are what the cycle scheme should report at the best
# cycle count; REFERENCE_BASELINE_CV_OPS is the comparison construction.
REFERENCE_CV_OPS: dict[int, int] = {
    3: 13, 4: 21, 5: 39, 6: 51, 7: 63, 8: 75, 9: 87,
    10: 105, 11: 121, 12: 133, 13: 145, 14: 161, 15: 173,
}

REFERENCE_ANCILLA: dict[int, int] = {
    3: 2, 4: 3, 5: 3, 6: 4, 7: 4, 8: 5, 9: 5,
    10: 5, 11: 6, 12: 6, 13: 6, 14: 7, 15: 7,
}

REFERENCE_BASELINE_CV_OPS: dict[int, int] = {
    3: 14, 4: 26, 5: 38, 6: 50, 7: 64, 8: 76, 9: 96,
    10: 116, 11: 128, 12: 152, 13: 176, 14: 188, 15: 212,
}


def baseline_cv_ops(n: int) -> int:
    """Reference value where one exists, closed form otherwise."""
    if n in REFERENCE_BASELINE_CV_OPS:
        return REFERENCE_BASELINE_CV_OPS[n]
    return baseline_cv_ops_form(n)


# ---------------------------------------------------------------------------
# the schemes

def _ladder_forms(n: int, c: Optional[int], basis: GateBasis) -> dict:
    if n < 2:
        return {}
    return dict(toffoli_form=ladder_toffoli_form(n), ancilla_form=ladder_ancilla_form(n),
                ops_form=ladder_ops_form(n, basis))


def _cycle_forms(n: int, c: int, basis: GateBasis) -> dict:
    forms = dict(c=c, toffoli_form=toffoli_count_form(n, c), ancilla_form=ancilla_min_form(n, c),
                 ancilla_split=ancilla_split_form(n, c))
    if basis is GateBasis.CV_BASIS and n >= 3:
        forms["ops_form"] = cv_ops_form(n, c)
        if c == best_cycle_count(n):
            forms["baseline_ops"] = baseline_cv_ops(n)
    return forms


@dataclass(frozen=True)
class Scheme:
    """One scheme: ``build(n, c)``; ``forms(n, c, basis)``, its closed
    forms and reported c as CostReport fields; ``plan(n, c)``, the
    CyclePlan of an AND-block scheme; ``fixed_n``, the one n of a fixed
    network; and ``no_c``, why a cycle count is refused, if it is."""

    build: Callable[[Optional[int], Optional[int]], Circuit]
    forms: Callable[[int, Optional[int], GateBasis], dict] = lambda n, c, basis: {}
    plan: Optional[Callable[[int, Optional[int]], CyclePlan]] = None
    fixed_n: Optional[int] = None
    no_c: Optional[str] = "takes no cycle count"


# The one table of schemes; the --scheme choices are its keys, in order.
# Builders are called through this module's globals, not held, so that
# a wrapper put on one of those names sees every build.
SCHEMES: dict[str, Scheme] = {
    "ladder": Scheme(lambda n, c: build_cnx(n), _ladder_forms, lambda n, c: plan_ladder(n)),
    "cycle": Scheme(lambda n, c: build_cycle_cnx_auto(n) if c is None else build_cycle_cnx(n, c),
                    _cycle_forms, lambda n, c: plan_cycles(n, c), no_c=None),
    "two-cycle": Scheme(lambda n, c: build_two_cycle_cnx(n),
                        lambda n, c, basis: dict(c=2, toffoli_form=two_cycle_toffoli_form(n)),
                        lambda n, c: plan_two_cycle(n), no_c="has a fixed cycle count"),
    "workspace-ccx": Scheme(lambda n, c: build_workspace_toffoli(), fixed_n=2),
    "workspace-c3x": Scheme(lambda n, c: build_workspace_c3x(), fixed_n=3),
}


def _scheme(name: str) -> Scheme:
    if name not in SCHEMES:
        raise ValueError(f"unknown scheme {name!r}")
    return SCHEMES[name]


def build_scheme(scheme: str, n: Optional[int], c: Optional[int] = None) -> Circuit:
    """Build a scheme by name, after its refusals of the parameters.
    The control count and cycle count used are in the circuit's
    metadata."""
    entry = _scheme(scheme)
    if entry.fixed_n is None and n is None:
        raise ValueError(f"scheme {scheme!r} needs --n")
    if c is not None and entry.no_c:
        raise ValueError(f"the {scheme} scheme {entry.no_c}")
    if entry.fixed_n is not None and n not in (None, entry.fixed_n):
        raise ValueError(f"{scheme} is fixed at n={entry.fixed_n}")
    return entry.build(n, c)


# ---------------------------------------------------------------------------
# built-vs-form report

@dataclass(frozen=True)
class CostReport:
    """Closed forms next to measured counts for one built circuit.

    Any disagreement between a form and its built counterpart is spelled
    out in ``discrepancies``; an empty tuple means full agreement.
    """

    scheme: str
    n: int
    basis: str
    toffoli_built: int
    ancilla_built: int
    ops_built: int
    c: Optional[int] = None
    toffoli_form: Optional[int] = None
    ancilla_form: Optional[int] = None
    ancilla_split: Optional[int] = None
    ops_form: Optional[int] = None
    baseline_ops: Optional[int] = None
    discrepancies: tuple[str, ...] = ()


def report_json(report: CostReport) -> str:
    return json.dumps(dataclasses.asdict(report), indent=2, sort_keys=True)


def report_text(report: CostReport) -> str:
    def fmt(v: Optional[int]) -> str:
        return "-" if v is None else str(v)

    lines = [
        f"scheme   {report.scheme}  n={report.n}"
        + (f"  c={report.c}" if report.c is not None else ""),
        f"basis    {report.basis}",
        f"toffoli  form {fmt(report.toffoli_form)}  built {report.toffoli_built}",
        f"ancilla  form {fmt(report.ancilla_form)}  built {report.ancilla_built}"
        + (
            f"  (split form {report.ancilla_split})"
            if report.ancilla_split is not None
            else ""
        ),
        f"ops      form {fmt(report.ops_form)}  built {report.ops_built}",
    ]
    if report.baseline_ops is not None:
        lines.append(f"baseline ops {report.baseline_ops}")
    for note in report.discrepancies:
        lines.append(f"note     {note}")
    return "\n".join(lines)


def _ancilla_count(circuit: Circuit) -> int:
    return sum(map(circuit.roles.count,
                   (QubitRole.CYCLE_ANCILLA, QubitRole.PROCESS_ANCILLA, QubitRole.WORKSPACE)))


def cost_report(
    scheme: str,
    n: int,
    c: Optional[int] = None,
    basis: GateBasis = GateBasis.CV_BASIS,
) -> CostReport:
    """Build the requested circuit, lower it, and report built counts
    next to the closed forms."""
    circuit = build_scheme(scheme, n, c)
    return cost_report_for(circuit, lower_circuit(circuit, basis))


def cost_report_for(circuit: Circuit, lowered: Circuit) -> CostReport:
    """Built counts of ``circuit``, as made by build_scheme, and of
    ``lowered``, its lowering, next to the closed forms of its scheme.
    The scheme, n and c are read from the circuit's metadata and the
    basis from the lowered circuit's.  The paired Toffolis in the
    cnot-basis note are the scheme's plan count, or, for a fixed
    network or a circuit holding a CU payload, peres_pairing's."""
    scheme, n, c = circuit.meta.scheme, circuit.meta.n, circuit.meta.c
    entry = _scheme(scheme)
    basis = GateBasis(lowered.meta.basis)
    forms = entry.forms(n, c, basis)
    toffoli_built = count_gates(circuit, GateKind.TOFFOLI)
    ancilla_built = _ancilla_count(circuit)
    ops_built = len(lowered.gates)

    notes: list[str] = []
    for what, built in (("toffoli", toffoli_built), ("ancilla", ancilla_built),
                        ("ops", ops_built)):
        form = forms.get(f"{what}_form")
        if form is not None and form != built:
            notes.append(f"{what} form {form} != built {built}")
    if basis is GateBasis.CNOT_LOCAL:
        # the 7-gate mirrored member has a widely quoted 11-gate variant
        # (3 CNOTs + 8 locals); surface what the count would be under
        # that reading so the two are never conflated; a C^nU ladder's
        # payload block is not in the scheme's C^nX plan
        members = (entry.plan(n, c).paired
                   if entry.plan and not count_gates(circuit, GateKind.CU)
                   else 2 * len(peres_pairing(circuit).pairs))
        if members:
            notes.append(f"paired members counted at 7 gates; the 11-gate reading "
                         f"would give {ops_built + 4 * members} ops")
    return CostReport(scheme=scheme, n=n, basis=basis.value, toffoli_built=toffoli_built,
                      ancilla_built=ancilla_built, ops_built=ops_built,
                      discrepancies=tuple(notes), **forms)


# ---------------------------------------------------------------------------
# the comparison table

@dataclass(frozen=True)
class TableRow:
    n: int
    cycles: int
    ancilla: int
    ours: int
    baseline: int
    ours_built: int
    baseline_form: int
    baseline_delta: int


def make_table(lo: int = 3, hi: int = 64) -> list[TableRow]:
    """Per-n comparison rows: predicted and built counts for the cycle
    scheme at the best cycle count, next to the comparison
    construction's reference value and closed form.  The built count is
    the plan's exact cv-basis op count; nothing is built or lowered."""
    if not (3 <= lo <= hi <= 64):
        raise ValueError(f"table range must be lo..hi within 3..64, got {lo}..{hi}")
    rows = []
    for n in range(lo, hi + 1):
        s = best_cycle_count(n)
        baseline = baseline_cv_ops(n)
        form = baseline_cv_ops_form(n)
        rows.append(
            TableRow(
                n=n,
                cycles=s,
                ancilla=ancilla_min_form(n, s),
                ours=cv_ops_form(n, s),
                baseline=baseline,
                ours_built=plan_cycles(n, s).ops(GateBasis.CV_BASIS),
                baseline_form=form,
                baseline_delta=baseline - form,
            )
        )
    return rows


# the table's columns: the ``TableRow`` field, which the CSV header
# names, and the text header and width
_COLUMNS = (
    ("n", "n", 4),
    ("ancilla", "ancilla", 7),
    ("ours", "ours", 6),
    ("baseline", "baseline", 8),
    ("ours_built", "ours_built", 10),
    ("baseline_form", "baseline_form", 13),
    ("baseline_delta", "delta", 6),
)
_FIELDS, _HEADS, _WIDTHS = zip(*_COLUMNS)
# a row's cells in column order, and each format's line
_cells = attrgetter(*_FIELDS)
_TEXT_LINE = " ".join(f"{{:>{width}}}" for width in _WIDTHS)
_CSV_LINE = ",".join("{}" for _ in _FIELDS)


def render_table_text(rows: list[TableRow]) -> str:
    return "\n".join(_TEXT_LINE.format(*cells) for cells in [_HEADS, *map(_cells, rows)])


def render_table_csv(rows: list[TableRow]) -> str:
    return "\n".join(_CSV_LINE.format(*cells) for cells in [_FIELDS, *map(_cells, rows)])
