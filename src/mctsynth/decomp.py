"""Lowering circuits into two-qubit gate bases.

Three target bases are supported:

* NATIVE_TOFFOLI keeps Toffolis as primitives (and CNOT, X, locals,
  controlled locals).
* CNOT_LOCAL allows only CNOT plus arbitrary single-qubit gates.
* CV_BASIS allows CNOT, the controlled square root of X and its
  inverse, plus single-qubit gates.

``BASES`` is the one table of bases, as ``costs.SCHEMES`` is of
schemes: each entry holds the kinds the basis keeps and its lone,
member and mirror Toffoli rules, and both ``lower_circuit`` and the
plans' op counts read it.  One loop lowers every basis, a gate at a
time: a kind the basis keeps is kept, and any other gate is rewritten
from what it applies to its target, ``Gate.action`` in ``ir``, the one
map from gate kind to 2x2.  The Toffoli rules are data (kind, operand
slots, matrix per gate), and one lowering builds each distinct output
gate once, shares it with every repeat, and hands its table of them to
the lowered circuit, so the writers format each distinct gate once.

The interesting part is what happens to Toffolis.  A lone Toffoli costs
6 CNOTs (with locals, 15 gates total) or 5 two-qubit gates in the CV
basis.  But a compute/uncompute pair of Toffolis, two on the same
operands, can be replaced by two cheaper gates that are individually
wrong in compensating ways:

* a 7-gate RY/CNOT network equal to Toffoli times a diagonal D
  (-1 on exactly one basis state of its three qubits), used for both
  members: the sandwich M S M equals T S T whenever D commutes with
  everything in between, which the validity check guarantees;
* a 4-gate CV network equal to CNOT(y,x) composed with the Toffoli,
  used with its inverse as the mirror member: the stray CNOT must
  commute past everything in between, which again the validity check
  guarantees.

A pair is accepted only when both replacements are sound, so one
pairing plan serves every basis and every circuit, mirror-symmetric or
not.  The conditions are conservative, gate-structural, and checked
per pair: between the members, the pair's three qubits may be touched
only as controls, and one of the two controls (x) must not be touched
at all.  The CV member's CNOT then runs y -> x from the other control
y, and commutes with everything in between because x is untouched and
y is only ever read.  x is the first control when it is untouched,
else the second.  Pair spans nest, so each pair's argument holds with
the pairs inside it already replaced.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from operator import attrgetter, itemgetter
from typing import Callable, Optional

from .ir import (
    Circuit,
    Gate,
    GateKind,
    Matrix2,
    as_array,
    as_matrix2,
    local,
    matrix_bits,
    ry_matrix,
    rz_matrix,
    phase_matrix,
    MAT_H,
    MAT_T,
    MAT_TDG,
    _prechecked_circuit,
    _prechecked_gates,
    _slotted,
)


class GateBasis(Enum):
    NATIVE_TOFFOLI = "toffoli"
    CNOT_LOCAL = "cnot"
    CV_BASIS = "cv"


class ToffoliRule(Enum):
    SIX_CNOT = "six-cnot"          # 15 gates, exact
    RELATIVE_PHASE = "relative-phase"  # 7 gates, exact up to a diagonal
    FIVE_CV = "five-cv"            # 5 gates, exact
    FOUR_CV = "four-cv"            # 4 gates, Toffoli then CNOT between controls


class LoweringError(Exception):
    pass


# ---------------------------------------------------------------------------
# rules as data, and the gates they make

# One gate of a rule: its kind, a getter that picks its qubits out of
# the rule's operands, its matrix, and the matrix's bits.
_RuleGate = tuple[GateKind, Callable[[tuple[int, ...]], tuple[int, ...]],
                  Optional[Matrix2], Optional[bytes]]


def _rule(*gates: tuple) -> tuple[_RuleGate, ...]:
    """A rule from (kind, operand slots[, matrix]) per gate, the slots
    indexing the operands the rule is instantiated on.  Each gate is
    built once through ``Gate`` on its slots, so its arity, its
    distinct operands and its matrix are checked here, and hold on any
    distinct operands the rule is instantiated on."""
    out = []
    for kind, slots, *matrix in gates:
        m = Gate(kind, slots, matrix[0] if matrix else None).matrix
        # a one-slot slice keeps a lone qubit in a tuple
        first = slots[0]
        pick = itemgetter(*slots) if len(slots) > 1 else itemgetter(slice(first, first + 1))
        out.append((kind, pick, m, None if m is None else matrix_bits(m)))
    return tuple(out)


# A table of the gates of one lowering gives each distinct (kind,
# qubits, matrix bits) its position in ``fields``, three lists of the
# kinds, qubits and matrices, in the order the table met them; the gates
# are made from ``fields`` once the lowering is done.  Matrices are
# keyed by their bits, since 0.0 == -0.0 would merge matrices that
# print differently.
_GateTable = dict[tuple[GateKind, tuple[int, ...], Optional[bytes]], int]
_Fields = tuple[list[GateKind], list[tuple[int, ...]], list[Optional[Matrix2]]]


def _instantiate(rule: tuple[_RuleGate, ...], operands: tuple[int, ...], table: _GateTable,
                 fields: _Fields) -> tuple[int, ...]:
    """The positions of the rule's gates on ``operands``, from
    ``table``, each new one added to it and to ``fields``."""
    kinds, qubits_of, matrices = fields
    out = []
    for kind, pick, matrix, bits in rule:
        qubits = pick(operands)
        key = (kind, qubits, bits)
        pos = table.get(key)
        if pos is None:
            pos = table[key] = len(kinds)
            kinds.append(kind)
            qubits_of.append(qubits)
            matrices.append(matrix)
        out.append(pos)
    return tuple(out)


def _rule_gates(rule: tuple[_RuleGate, ...], operands: tuple[int, ...]) -> tuple[Gate, ...]:
    """The rule's gates on ``operands``, each made through ``Gate``."""
    return tuple(Gate(kind, pick(operands), m) for kind, pick, m, _ in rule)


def _share(gate: Gate, table: _GateTable, fields: _Fields) -> int:
    """The position in ``table`` of the gate equal to ``gate`` in bits,
    added to it and to ``fields`` when it is the first."""
    bits = None if gate.matrix is None else matrix_bits(gate.matrix)
    return _instantiate(((gate.kind, tuple, gate.matrix, bits),), gate.qubits, table, fields)[0]


# ---------------------------------------------------------------------------
# single-Toffoli rules

_L, _CX, _CV, _CVDG = GateKind.LOCAL, GateKind.CNOT, GateKind.CV, GateKind.CVDG
_RY_NEG = ry_matrix(-math.pi / 4)
_RY_POS = ry_matrix(math.pi / 4)

# Operand slots 0, 1, 2 are the Toffoli's (c1, c2, t), except in the
# FOUR_CV member and its mirror, where they are (x, y, t): the member is
# the Toffoli followed by CNOT(y, x).
_RULES: dict[ToffoliRule, tuple[_RuleGate, ...]] = {
    ToffoliRule.SIX_CNOT: _rule(
        (_L, (2,), MAT_H), (_CX, (1, 2)), (_L, (2,), MAT_TDG), (_CX, (0, 2)),
        (_L, (2,), MAT_T), (_CX, (1, 2)), (_L, (2,), MAT_TDG), (_CX, (0, 2)),
        (_L, (1,), MAT_T), (_L, (2,), MAT_T), (_L, (2,), MAT_H), (_CX, (0, 1)),
        (_L, (0,), MAT_T), (_L, (1,), MAT_TDG), (_CX, (0, 1)),
    ),
    # Toffoli times diag with -1 at |c1=0, c2=1, t=0>
    ToffoliRule.RELATIVE_PHASE: _rule(
        (_L, (2,), _RY_NEG), (_CX, (0, 2)), (_L, (2,), _RY_NEG), (_CX, (1, 2)),
        (_L, (2,), _RY_POS), (_CX, (0, 2)), (_L, (2,), _RY_POS),
    ),
    ToffoliRule.FIVE_CV: _rule(
        (_CV, (1, 2)), (_CX, (0, 1)), (_CVDG, (1, 2)), (_CX, (0, 1)), (_CV, (0, 2)),
    ),
    ToffoliRule.FOUR_CV: _rule(
        (_CV, (0, 2)), (_CX, (1, 0)), (_CVDG, (0, 2)), (_CV, (1, 2)),
    ),
}
# the FOUR_CV member's inverse list, for the mirror member of a pair
_FOUR_CV_MIRROR = _rule(
    (_CVDG, (1, 2)), (_CV, (0, 2)), (_CX, (1, 0)), (_CVDG, (0, 2)),
)


@dataclass(frozen=True)
class Basis:
    """What one gate basis keeps, and how it lowers a Toffoli.

    ``allowed`` are the kinds the basis keeps.  Where it does not keep
    Toffolis, ``lone`` is the exact rule for a Toffoli outside every
    pair, and ``member`` and ``mirror`` lower a pair's compute
    and uncompute members: on (x, y, t) when ``on_xyt``, else on the
    Toffoli's own qubits.
    """

    allowed: frozenset[GateKind]
    lone: Optional[tuple[_RuleGate, ...]] = None
    member: Optional[tuple[_RuleGate, ...]] = None
    mirror: Optional[tuple[_RuleGate, ...]] = None
    on_xyt: bool = False

    @cached_property
    def lengths(self) -> tuple[int, int, int]:
        """Gates that one pair member, one other Toffoli and one
        controlled unitary lower to."""
        member, lone = (len(self.member), len(self.lone)) if self.lone else (1, 1)
        return member, lone, 1 if GateKind.CU in self.allowed else _CU_LENGTH


# The one table of bases.  In cv a pair takes the FOUR_CV member and its
# inverse list, and in cnot both members take the relative-phase list.
BASES: dict[GateBasis, Basis] = {
    GateBasis.NATIVE_TOFFOLI: Basis(frozenset(
        {GateKind.TOFFOLI, GateKind.CNOT, GateKind.X, GateKind.LOCAL, GateKind.CU})),
    GateBasis.CNOT_LOCAL: Basis(
        frozenset({GateKind.CNOT, GateKind.LOCAL}), lone=_RULES[ToffoliRule.SIX_CNOT],
        member=_RULES[ToffoliRule.RELATIVE_PHASE], mirror=_RULES[ToffoliRule.RELATIVE_PHASE]),
    GateBasis.CV_BASIS: Basis(
        frozenset({GateKind.CNOT, GateKind.CV, GateKind.CVDG, GateKind.LOCAL}),
        lone=_RULES[ToffoliRule.FIVE_CV], member=_RULES[ToffoliRule.FOUR_CV],
        mirror=_FOUR_CV_MIRROR, on_xyt=True),
}


def lower_toffoli(c1: int, c2: int, t: int, rule: ToffoliRule) -> tuple[Gate, ...]:
    """Replacement gate list for a Toffoli on (c1, c2, t).

    FOUR_CV does not implement the Toffoli alone: it appends a CNOT
    c2 -> c1.  It is meant for compute/uncompute pairs, where the
    second member is the inverse list and the stray CNOTs cancel
    through the middle.
    RELATIVE_PHASE implements the Toffoli times a diagonal; standalone
    it is only correct up to that diagonal.
    """
    gates = _RULES.get(rule)
    if gates is None:
        raise LoweringError(f"unknown rule {rule}")
    return _rule_gates(gates, (c1, c2, t))


# ---------------------------------------------------------------------------
# controlled single-qubit unitaries

def zyz_angles(matrix: Matrix2) -> tuple[float, float, float, float]:
    """(alpha, beta, gamma, delta) with
    U = e^{i alpha} Rz(beta) Ry(gamma) Rz(delta)."""
    a = as_array(matrix)
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    alpha = cmath.phase(det) / 2
    su = a * cmath.exp(-1j * alpha)
    gamma = 2 * math.atan2(abs(su[1, 0]), abs(su[0, 0]))
    plus = cmath.phase(su[1, 1]) if abs(su[1, 1]) > 1e-12 else 0.0
    minus = cmath.phase(su[1, 0]) if abs(su[1, 0]) > 1e-12 else 0.0
    beta = plus + minus
    delta = plus - minus
    return alpha, beta, gamma, delta


def expand_controlled_unitary(
    ctrl: int, tgt: int, matrix: Matrix2
) -> tuple[Gate, ...]:
    """Controlled-U as two CNOTs, three locals on the target, and a
    phase shift on the control.  The matrix is checked first, through
    ``Gate`` on a slot as ``_rule`` checks a rule's."""
    matrix = Gate(_L, (0,), matrix).matrix
    return _rule_gates(_controlled_rule(matrix), (ctrl, tgt))


def _controlled_rule(matrix: Matrix2) -> tuple[_RuleGate, ...]:
    """expand_controlled_unitary as a rule on (ctrl, tgt).

    With U = e^{i a} Rz(b) Ry(g) Rz(d), the locals are C, B, A with
    A B C = I and A X B X C = e^{-i a} U; the shift on the control
    restores the phase exactly on the controlled branch.
    """
    alpha, beta, gamma, delta = zyz_angles(matrix)
    mat_a = _mat_mul(rz_matrix(beta), ry_matrix(gamma / 2))
    mat_b = _mat_mul(ry_matrix(-gamma / 2), rz_matrix(-(delta + beta) / 2))
    mat_c = rz_matrix((delta - beta) / 2)
    return _rule(
        (_L, (1,), mat_c), (_CX, (0, 1)), (_L, (1,), mat_b), (_CX, (0, 1)),
        (_L, (1,), mat_a), (_L, (0,), phase_matrix(alpha)),
    )


def _mat_mul(m1: Matrix2, m2: Matrix2) -> Matrix2:
    return as_matrix2(as_array(m1) @ as_array(m2))


# gates one controlled unitary (CU) expands to, for any matrix
_CU_LENGTH = len(_controlled_rule(MAT_H))


# ---------------------------------------------------------------------------
# pairing

@dataclass(frozen=True, slots=True)
class ToffoliPair:
    """One compute/uncompute pair of ``peres_pairing``'s plan.

    A slotted record, with no ``__dict__`` and no weakref slot, so that
    ``peres_pairing`` can make a plan's pairs in one pass with
    ``ir._slotted``, as lowering makes its gates.
    """

    compute: int        # gate position of the earlier member
    uncompute: int      # gate position of the mirror member
    cnot_control: int   # y: stays a control between the members
    cnot_target: int    # x: absorbs the member CNOT


@dataclass(frozen=True)
class PairingPlan:
    pairs: tuple[ToffoliPair, ...]
    unpaired: tuple[int, ...]


def _pair_valid(
    operands: tuple[int, ...], cand: int, last_target: list[int], last_touch: list[int]
) -> Optional[tuple[int, int]]:
    """CNOT orientation (y, x) for pairing the Toffoli at ``cand`` with a
    later one on the same ``operands``, or None when they cannot pair.
    ``last_target`` and ``last_touch`` hold, per qubit, the position of
    the last gate before the later member to target it, and of the last
    to touch it at all.

    Between the members, u, v and w may be touched only as controls,
    which is the diagonal condition; and one control x must be untouched
    there, so the CV member's CNOT y -> x commutes with everything in
    between.  x is u when u is untouched, else v when v is.
    """
    u, v, w = operands
    if last_target[u] > cand or last_target[v] > cand or last_target[w] > cand:
        return None
    if last_touch[u] <= cand:
        return (v, u)
    if last_touch[v] <= cand:
        return (u, v)
    return None


def peres_pairing(circuit: Circuit) -> PairingPlan:
    """Match compute/uncompute Toffoli pairs greedily, in one pass over
    the gates of any circuit.

    Each new Toffoli pairs with the nearest earlier unmatched one that has
    the same operand triple and whose in-between gates pass the
    validity conditions.  Only the previous Toffoli on that triple can
    pass: any earlier one has it in between, writing their target.
    Crossing an already-formed pair is not allowed, since replacement
    members inside the span would break the commutation argument; so
    when a pair forms, every unmatched Toffoli inside its span is
    retired, as no later Toffoli could pair with it.  ``unpaired`` lists
    the unmatched and the retired Toffolis in gate order.

    The scan records each pair's four fields in four lists, and the
    ``ToffoliPair`` records are made from them at the end in one pass,
    without a call of their ``__init__`` per pair.
    """
    gates = circuit.gates
    toffoli = GateKind.TOFFOLI
    # per qubit, the position of the last gate so far that targets it,
    # and of the last that touches it at all
    last_target = [-1] * circuit.width
    last_touch = [-1] * circuit.width
    # each pair's compute and uncompute positions, y and x
    computes: list[int] = []
    uncomputes: list[int] = []
    ys: list[int] = []
    xs: list[int] = []
    retired: list[int] = []
    # unmatched Toffolis outside every pair span, in gate order; and per
    # operand triple, the latest Toffoli on it while it is one of them
    unmatched: list[int] = []
    candidate: dict[tuple[int, ...], int] = {}
    for pos, g in enumerate(gates):
        operands = g.qubits
        if g.kind is toffoli:
            cand = candidate.pop(operands, None)
            orientation = None if cand is None \
                else _pair_valid(operands, cand, last_target, last_touch)
            if orientation is None:
                unmatched.append(pos)
                candidate[operands] = pos
            else:
                y, x = orientation
                computes.append(cand)
                uncomputes.append(pos)
                ys.append(y)
                xs.append(x)
                k = bisect_left(unmatched, cand)
                for inside in unmatched[k + 1 :]:
                    candidate.pop(gates[inside].qubits, None)
                    retired.append(inside)
                del unmatched[k:]
        last_target[operands[-1]] = pos
        for q in operands:
            last_touch[q] = pos
    # fast path: synth-large job_tail_s is 4.4-5.8% higher without it (CHANGES.md, pairs made in bulk)
    pairs = _slotted(ToffoliPair, computes, uncomputes, ys, xs)
    return PairingPlan(pairs=tuple(pairs), unpaired=tuple(sorted(unmatched + retired)))


# ---------------------------------------------------------------------------
# whole-circuit lowering

def lower_circuit(circuit: Circuit, basis: GateBasis) -> Circuit:
    """Rewrite a circuit into the given basis.

    The Toffoli pairs of ``peres_pairing`` take the cheap replacements;
    everything else takes the exact single-gate rules, so the lowered
    circuit equals the original as a unitary.  The toffoli basis keeps
    every Toffoli, so it is not paired.

    A circuit whose every gate the basis allows comes back with its own
    gate objects and its ``_gate_view``.  Otherwise the lowered circuit
    holds one ``Gate`` object per distinct (kind, qubits, matrix bits),
    shared by all its repeats, and lowering hands its table of them to
    the circuit as its ``_gate_view``, so the writers format each
    distinct gate once.  Each distinct pair's members are lowered once,
    by their operands; every other gate is lowered where it stands, and
    finds the gates it makes in the table.  The table lists the gates in
    the order it made them, which is not the order they first appear
    in; the one written output that could depend on it is the kind a
    text writer's refusal names, and a lowered circuit holds one kind
    without a text mnemonic at most (cu: lowering refuses mcx).

    MCX gates are not accepted: synthesize them into Toffolis first.
    """
    gates = circuit.gates
    kinds = set(map(attrgetter("kind"), gates))
    if GateKind.MCX in kinds:
        raise LoweringError(
            "mcx has no direct lowering; synthesize it into toffolis first"
        )
    entry = BASES[basis]
    meta = replace(circuit.meta, basis=basis.value)
    # ``circuit`` checked every operand, so no lowered circuit is
    # range-checked again
    # fast path: synth-large jobs_per_s is 2.2% and 1.3% lower without it (7 of 10 pairs in each of two sets, unresolved alone); it saves 0.8-1.3 of 1.1-1.8 ms of a cold toffoli-basis lowering at n=540 (CHANGES.md, circuit the basis keeps whole)
    if kinds <= entry.allowed:
        return _prechecked_circuit(circuit.roles, *circuit._gate_view, meta)

    # Each distinct output gate has one position in ``table``, shared
    # by every lowering that makes it.  ``memo`` lowers each distinct
    # pair's members once, by their operands, to their positions.
    # Every operand a rule is instantiated on is a distinct operand of
    # a checked input gate, and every other gate of ``fields`` passed
    # ``Gate``, so the gates are made with ``_prechecked_gates``.
    table: _GateTable = {}
    fields: _Fields = ([], [], [])
    memo: dict[tuple[int, ...], tuple[tuple[int, ...], tuple[int, ...]]] = {}

    # A paired Toffoli's gate positions, by gate position.  A built
    # circuit repeats its pairs, so most members are found in ``memo``.
    at: dict[int, tuple[int, ...]] = {}
    if entry.lone is not None:
        for p in peres_pairing(circuit).pairs:
            g = gates[p.compute]
            operands = (p.cnot_target, p.cnot_control, g.target) if entry.on_xyt else g.qubits
            members = memo.get(operands)
            if members is None:
                member = _instantiate(entry.member, operands, table, fields)
                # where both members take one rule, they share its list
                mirror = member if entry.mirror is entry.member \
                    else _instantiate(entry.mirror, operands, table, fields)
                members = memo[operands] = (member, mirror)
            at[p.compute], at[p.uncompute] = members

    index: list[int] = []
    for i, g in enumerate(gates):
        index.extend(at.get(i) or _lower_gate(g, entry, table, fields))
    return _prechecked_circuit(circuit.roles, _prechecked_gates(*fields), index, meta)


def _lower_gate(g: Gate, entry: Basis, table: _GateTable, fields: _Fields) -> tuple[int, ...]:
    """The positions in ``table`` of one checked gate alone, in the
    basis of ``entry``: a kind the basis keeps is the table's copy of
    it, a Toffoli takes the lone rule, X is a local, and otherwise (CU,
    CV, CVDG) the controlled ``Gate.action`` is a CU where the basis
    keeps one and expanded by its rule where it does not."""
    if g.kind in entry.allowed:
        return (_share(g, table, fields),)
    if g.kind is GateKind.TOFFOLI:
        return _instantiate(entry.lone, g.qubits, table, fields)
    action = g.action
    if g.kind is GateKind.X:
        return (_share(local(g.target, action), table, fields),)
    if GateKind.CU in entry.allowed:
        return (_share(Gate(GateKind.CU, g.qubits, matrix=action), table, fields),)
    return _instantiate(_controlled_rule(action), g.qubits, table, fields)
