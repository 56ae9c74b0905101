"""Lowering circuits into two-qubit gate bases.

Three target bases are supported:

* NATIVE_TOFFOLI keeps Toffolis as primitives (and CNOT, X, locals,
  controlled locals).
* CNOT_LOCAL allows only CNOT plus arbitrary single-qubit gates.
* CV_BASIS allows CNOT, the controlled square root of X and its
  inverse, plus single-qubit gates.

One loop lowers every basis, a gate at a time: a kind the basis allows
is kept, and any other gate is rewritten from what it applies to its
target, ``Gate.action`` in ``ir``, the one map from gate kind to 2x2.

The interesting part is what happens to Toffolis.  A lone Toffoli costs
6 CNOTs (with locals, 15 gates total) or 5 two-qubit gates in the CV
basis.  But the circuits built here are compute/uncompute mirrors, and
a mirrored pair of Toffolis can be replaced by two cheaper gates that
are individually wrong in compensating ways:

* a 7-gate RY/CNOT network equal to Toffoli times a diagonal D
  (-1 on exactly one basis state of its three qubits), used for both
  members: the sandwich M S M equals T S T whenever D commutes with
  everything in between, which the validity check guarantees;
* a 4-gate CV network equal to CNOT(y,x) composed with the Toffoli,
  used with its inverse as the mirror member: the stray CNOT must
  commute past everything in between, which again the validity check
  guarantees.

A pair is accepted only when both replacements are sound, so one
pairing plan serves every basis.  The conditions are conservative,
gate-structural, and checked per pair: between the members, the pair's
three qubits may be touched only as controls, and one of the two
controls (x) must not be touched at all.  The CV member's CNOT then
runs y -> x from the other control y, and commutes with everything in
between because x is untouched and y is only ever read.  x is the
first control when it is untouched, else the second.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

from .ir import (
    Circuit,
    Gate,
    GateKind,
    Matrix2,
    as_array,
    as_matrix2,
    cnot,
    cv,
    cvdg,
    local,
    ry_matrix,
    rz_matrix,
    phase_matrix,
    MAT_H,
    MAT_T,
    MAT_TDG,
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


# gates one Toffoli lowers to in each basis: as a mirror-pair member,
# and alone
TOFFOLI_LENGTHS: dict[GateBasis, tuple[int, int]] = {
    GateBasis.NATIVE_TOFFOLI: (1, 1),
    GateBasis.CNOT_LOCAL: (7, 15),
    GateBasis.CV_BASIS: (4, 5),
}


ALLOWED_KINDS: dict[GateBasis, frozenset[GateKind]] = {
    GateBasis.NATIVE_TOFFOLI: frozenset(
        {GateKind.TOFFOLI, GateKind.CNOT, GateKind.X, GateKind.LOCAL, GateKind.CU}
    ),
    GateBasis.CNOT_LOCAL: frozenset({GateKind.CNOT, GateKind.LOCAL}),
    GateBasis.CV_BASIS: frozenset(
        {GateKind.CNOT, GateKind.CV, GateKind.CVDG, GateKind.LOCAL}
    ),
}


class LoweringError(Exception):
    pass


class NoMirrorStructureError(LoweringError):
    """The Toffoli operand sequence is not a palindrome, so the
    mirrored-pair analysis does not apply."""


# ---------------------------------------------------------------------------
# single-Toffoli rules

def lower_toffoli(c1: int, c2: int, t: int, rule: ToffoliRule) -> tuple[Gate, ...]:
    """Replacement gate list for a Toffoli on (c1, c2, t).

    FOUR_CV does not implement the Toffoli alone: it appends a CNOT
    c2 -> c1.  It is meant for mirrored pairs, where the second member
    is the inverse list and the stray CNOTs cancel through the middle.
    RELATIVE_PHASE implements the Toffoli times a diagonal; standalone
    it is only correct up to that diagonal.
    """
    if rule is ToffoliRule.SIX_CNOT:
        return (
            local(t, MAT_H),
            cnot(c2, t),
            local(t, MAT_TDG),
            cnot(c1, t),
            local(t, MAT_T),
            cnot(c2, t),
            local(t, MAT_TDG),
            cnot(c1, t),
            local(c2, MAT_T),
            local(t, MAT_T),
            local(t, MAT_H),
            cnot(c1, c2),
            local(c1, MAT_T),
            local(c2, MAT_TDG),
            cnot(c1, c2),
        )
    if rule is ToffoliRule.RELATIVE_PHASE:
        return _relative_phase_member(c1, c2, t)
    if rule is ToffoliRule.FIVE_CV:
        return (
            cv(c2, t),
            cnot(c1, c2),
            cvdg(c2, t),
            cnot(c1, c2),
            cv(c1, t),
        )
    if rule is ToffoliRule.FOUR_CV:
        return _four_cv_member(c1, c2, t, cnot_control=c2, cnot_target=c1)
    raise LoweringError(f"unknown rule {rule}")


_RY_NEG = ry_matrix(-math.pi / 4)
_RY_POS = ry_matrix(math.pi / 4)


def _relative_phase_member(u: int, v: int, t: int) -> tuple[Gate, ...]:
    # equals Toffoli(u,v,t) times diag with -1 at |u=0, v=1, t=0>
    return (
        local(t, _RY_NEG),
        cnot(u, t),
        local(t, _RY_NEG),
        cnot(v, t),
        local(t, _RY_POS),
        cnot(u, t),
        local(t, _RY_POS),
    )


def _four_cv_member(
    u: int, v: int, t: int, cnot_control: int, cnot_target: int
) -> tuple[Gate, ...]:
    # equals Toffoli(u,v,t) followed by CNOT(cnot_control, cnot_target)
    y, x = cnot_control, cnot_target
    assert {y, x} == {u, v}
    return (
        cv(x, t),
        cnot(y, x),
        cvdg(x, t),
        cv(y, t),
    )


def _inverse_list(gates: tuple[Gate, ...]) -> tuple[Gate, ...]:
    return tuple(g.inverse() for g in reversed(gates))


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
    phase shift on the control.

    With U = e^{i a} Rz(b) Ry(g) Rz(d), the locals are C, B, A with
    A B C = I and A X B X C = e^{-i a} U; the shift on the control
    restores the phase exactly on the controlled branch.
    """
    alpha, beta, gamma, delta = zyz_angles(matrix)
    mat_a = _mat_mul(rz_matrix(beta), ry_matrix(gamma / 2))
    mat_b = _mat_mul(ry_matrix(-gamma / 2), rz_matrix(-(delta + beta) / 2))
    mat_c = rz_matrix((delta - beta) / 2)
    return (
        local(tgt, mat_c),
        cnot(ctrl, tgt),
        local(tgt, mat_b),
        cnot(ctrl, tgt),
        local(tgt, mat_a),
        local(ctrl, phase_matrix(alpha)),
    )


def _mat_mul(m1: Matrix2, m2: Matrix2) -> Matrix2:
    return as_matrix2(as_array(m1) @ as_array(m2))


# ---------------------------------------------------------------------------
# pairing

@dataclass(frozen=True)
class ToffoliPair:
    compute: int        # gate position of the earlier member
    uncompute: int      # gate position of the mirror member
    cnot_control: int   # y: stays a control between the members
    cnot_target: int    # x: absorbs the member CNOT


@dataclass(frozen=True)
class PairingPlan:
    pairs: tuple[ToffoliPair, ...]
    unpaired: tuple[int, ...]


class _TouchIndex:
    """Per qubit, the sorted gate positions where it is the target and
    where it is touched at all, so that a question about the gates
    strictly between two positions is answered by bisection."""

    def __init__(self, circuit: Circuit):
        self.targeted: list[list[int]] = [[] for _ in range(circuit.width)]
        self.touched: list[list[int]] = [[] for _ in range(circuit.width)]
        for pos, g in enumerate(circuit.gates):
            self.targeted[g.target].append(pos)
            for q in g.qubits:
                self.touched[q].append(pos)

    @staticmethod
    def _any_between(positions: list[int], i: int, j: int) -> bool:
        return bisect_right(positions, i) < bisect_left(positions, j)

    def only_controls_between(self, q: int, i: int, j: int) -> bool:
        return not self._any_between(self.targeted[q], i, j)

    def untouched_between(self, q: int, i: int, j: int) -> bool:
        return not self._any_between(self.touched[q], i, j)


def _pair_valid(
    gates: tuple[Gate, ...], index: _TouchIndex, i: int, j: int
) -> Optional[tuple[int, int]]:
    """CNOT orientation (y, x) for pairing the Toffolis at i and j, or
    None when they cannot pair.

    Between the members, u, v and w may be touched only as controls,
    which is the diagonal condition; and one control x must be untouched
    there, so the CV member's CNOT y -> x commutes with everything in
    between.  x is u when u is untouched, else v when v is.
    """
    u, v, w = gates[i].qubits
    if not all(index.only_controls_between(q, i, j) for q in (u, v, w)):
        return None
    if index.untouched_between(u, i, j):
        return (v, u)
    if index.untouched_between(v, i, j):
        return (u, v)
    return None


def peres_pairing(circuit: Circuit) -> PairingPlan:
    """Match mirrored Toffoli pairs greedily.

    Requires the Toffoli operand sequence to read the same forwards and
    backwards; the compute/uncompute builders all guarantee that.  Each
    new Toffoli pairs with the nearest earlier unmatched one that has
    the same operand triple and whose in-between gates pass the
    validity conditions.  Only the previous Toffoli on that triple can
    pass: any earlier one has it in between, writing their target.
    Crossing an already-formed pair is not allowed, since replacement
    members inside the span would break the commutation argument; so
    when a pair forms, every unmatched Toffoli inside its span is
    retired, as no later Toffoli could pair with it.  ``unpaired`` lists
    the unmatched and the retired Toffolis in gate order.
    """
    gates = circuit.gates
    positions = [i for i, g in enumerate(gates) if g.kind is GateKind.TOFFOLI]
    operand_seq = [gates[i].qubits for i in positions]
    if operand_seq != operand_seq[::-1]:
        raise NoMirrorStructureError(
            "toffoli operand sequence is not mirror-symmetric"
        )
    index = _TouchIndex(circuit)
    pairs: list[ToffoliPair] = []
    retired: list[int] = []
    # unmatched Toffolis outside every pair span, in gate order; and per
    # operand triple, the latest Toffoli on it while it is one of them
    unmatched: list[int] = []
    candidate: dict[tuple[int, ...], int] = {}
    for pos in positions:
        operands = gates[pos].qubits
        cand = candidate.pop(operands, None)
        orientation = None if cand is None else _pair_valid(gates, index, cand, pos)
        if orientation is None:
            unmatched.append(pos)
            candidate[operands] = pos
            continue
        y, x = orientation
        pairs.append(
            ToffoliPair(compute=cand, uncompute=pos, cnot_control=y, cnot_target=x)
        )
        k = bisect_left(unmatched, cand)
        for inside in unmatched[k + 1 :]:
            candidate.pop(gates[inside].qubits, None)
            retired.append(inside)
        del unmatched[k:]
    return PairingPlan(pairs=tuple(pairs), unpaired=tuple(sorted(unmatched + retired)))


# ---------------------------------------------------------------------------
# whole-circuit lowering

def lower_circuit(circuit: Circuit, basis: GateBasis) -> Circuit:
    """Rewrite a circuit into the given basis.

    Mirrored Toffoli pairs take the cheap replacements; everything else
    takes the exact single-gate rules, so the lowered circuit equals
    the original as a unitary.  Circuits without mirror structure are
    lowered with every Toffoli standalone.  The toffoli basis keeps
    every Toffoli, so it is not paired.

    MCX gates are not accepted: synthesize them into Toffolis first.
    """
    for g in circuit.gates:
        if g.kind is GateKind.MCX:
            raise LoweringError(
                "mcx has no direct lowering; synthesize it into toffolis first"
            )

    pairs: tuple[ToffoliPair, ...] = ()
    if basis is not GateBasis.NATIVE_TOFFOLI:
        try:
            pairs = peres_pairing(circuit).pairs
        except NoMirrorStructureError:
            pass
    compute_of: dict[int, ToffoliPair] = {p.compute: p for p in pairs}
    uncompute_of: dict[int, ToffoliPair] = {p.uncompute: p for p in pairs}

    # A mirror circuit repeats its Toffolis, so each distinct lowering is
    # made once and its gates shared.  The key holds exactly what
    # _lower_gate reads: a Toffoli's qubits and, when paired, its cv
    # member's CNOT orientation and side (both cnot-basis members take
    # the same list); any other gate is lowered once per object.
    cv_basis = basis is GateBasis.CV_BASIS
    memo: dict[object, tuple[Gate, ...]] = {}
    out_gates: list[Gate] = []
    for i, g in enumerate(circuit.gates):
        if g.kind is GateKind.TOFFOLI:
            pair = compute_of.get(i) or uncompute_of.get(i)
            if pair is None:
                key: object = g.qubits
            elif cv_basis:
                key = (g.qubits, pair.cnot_control, pair.cnot_target, i == pair.uncompute)
            else:
                key = (g.qubits, True)
        else:
            key = id(g)
        lowered = memo.get(key)
        if lowered is None:
            lowered = memo[key] = _lower_gate(g, i, basis, compute_of, uncompute_of)
        out_gates.extend(lowered)
    return _with_basis(circuit, out_gates, basis)


def _lower_gate(
    g: Gate,
    position: int,
    basis: GateBasis,
    compute_of: dict[int, ToffoliPair],
    uncompute_of: dict[int, ToffoliPair],
) -> tuple[Gate, ...]:
    """One gate in ``basis``: itself when the basis allows its kind, a
    Toffoli rule for a Toffoli, a local for X, and otherwise (CU, CV,
    CVDG) the controlled ``Gate.action``, as a CU where the basis has
    one and expanded where it does not."""
    allowed = ALLOWED_KINDS[basis]
    if g.kind in allowed:
        return (g,)
    if g.kind is GateKind.TOFFOLI:
        u, v, t = g.qubits
        pair = compute_of.get(position) or uncompute_of.get(position)
        if pair is None:
            if basis is GateBasis.CV_BASIS:
                return lower_toffoli(u, v, t, ToffoliRule.FIVE_CV)
            return lower_toffoli(u, v, t, ToffoliRule.SIX_CNOT)
        if basis is GateBasis.CV_BASIS:
            member = _four_cv_member(
                u, v, t,
                cnot_control=pair.cnot_control,
                cnot_target=pair.cnot_target,
            )
            if position == pair.uncompute:
                member = _inverse_list(member)
            return member
        # same relative-phase list for both members
        return _relative_phase_member(u, v, t)
    if g.kind is GateKind.X:
        return (local(g.target, g.action),)
    if GateKind.CU in allowed:
        return (Gate(GateKind.CU, g.qubits, matrix=g.action),)
    return expand_controlled_unitary(*g.qubits, g.action)


def paired_toffolis(circuit: Circuit, lowered: Circuit) -> int:
    """How many Toffolis of ``circuit`` took a paired (relative-phase)
    member in ``lowered``, its CNOT_LOCAL lowering.

    A Toffoli lowers to 15 gates alone and to 7 as a paired member; a
    controlled unitary to 6 gates and any other gate to 1.  So the count
    follows from the two gate counts, without pairing the circuit again.
    """
    if lowered.meta.basis != GateBasis.CNOT_LOCAL.value:
        raise ValueError(f"not a {GateBasis.CNOT_LOCAL.value}-basis lowering")
    paired_length, alone_length = TOFFOLI_LENGTHS[GateBasis.CNOT_LOCAL]
    unpaired_length = 0
    for g in circuit.gates:
        if g.kind is GateKind.TOFFOLI:
            unpaired_length += alone_length
        elif g.kind in (GateKind.CU, GateKind.CV, GateKind.CVDG):
            unpaired_length += 6
        else:
            unpaired_length += 1
    return (unpaired_length - len(lowered.gates)) // (alone_length - paired_length)


def _with_basis(circuit: Circuit, gates: list[Gate], basis: GateBasis) -> Circuit:
    meta = replace(circuit.meta, basis=basis.value)
    return replace(circuit, gates=tuple(gates), meta=meta)
