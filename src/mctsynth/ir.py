"""Circuit intermediate representation.

Circuits are flat, immutable gate lists over an integer-indexed qubit
register.  Every qubit carries a role tag so downstream passes (cost
accounting, verification, serialization) can tell controls from the
target from scratch space without re-deriving structure from the gate
stream.

Single-qubit unitaries are stored as explicit 2x2 matrices in tuple
form.  Tuples keep Gate hashable; anything that needs numerics converts
on the way in via ``as_array``.
"""

from __future__ import annotations

import cmath
import functools
import math
import struct
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import chain
from operator import attrgetter
from typing import Iterable, Optional

import numpy as np

# Absolute tolerance when deciding whether a supplied 2x2 is unitary.
TOL_UNITARY = 1e-10

Matrix2 = tuple[tuple[complex, complex], tuple[complex, complex]]


class QubitRole(Enum):
    """What a wire is for.  The letter is the serialized form."""

    CONTROL = "c"
    TARGET = "t"
    CYCLE_ANCILLA = "y"
    PROCESS_ANCILLA = "p"
    WORKSPACE = "w"


ROLE_BY_LETTER = {r.value: r for r in QubitRole}


@dataclass(frozen=True)
class QubitId:
    index: int
    role: QubitRole

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"qubit index must be non-negative, got {self.index}")


def is_int(value: object) -> bool:
    """An integer that a circuit file can hold: an ``int`` that is not
    a ``bool``.  Gate operands and the readers' integers follow it."""
    return isinstance(value, int) and not isinstance(value, bool)


_INT_TYPES = {int}


class GateKind(Enum):
    """Gate vocabulary.

    X / CNOT / TOFFOLI / MCX are the classical-reversible family, with
    0, 1, 2, and >=3 controls.  CV and CVDG are the controlled square
    root of X and its inverse.  LOCAL is an arbitrary single-qubit
    unitary (matrix attached), CU its singly-controlled version.
    """

    X = "x"
    CNOT = "cx"
    CV = "cv"
    CVDG = "cvdg"
    TOFFOLI = "ccx"
    MCX = "mcx"
    LOCAL = "u"
    CU = "cu"

    # Members are singletons compared by identity, so hashing by
    # identity agrees with equality and skips Enum's pure-Python
    # __hash__ on every set and dict lookup of a kind.
    __hash__ = object.__hash__


# How many qubits each kind takes; None means "2 or more" (MCX).
_ARITY: dict[GateKind, Optional[int]] = {
    GateKind.X: 1,
    GateKind.CNOT: 2,
    GateKind.CV: 2,
    GateKind.CVDG: 2,
    GateKind.TOFFOLI: 3,
    GateKind.MCX: None,
    GateKind.LOCAL: 1,
    GateKind.CU: 2,
}

_MATRIX_KINDS = {GateKind.LOCAL, GateKind.CU}

# Kinds whose action on their last operand is a plain bit flip when the
# controls are satisfied.  Used by Gate.action and verify.is_classical.
X_LIKE_KINDS = {GateKind.X, GateKind.CNOT, GateKind.TOFFOLI, GateKind.MCX}


@dataclass(frozen=True)
class Gate:
    """One gate application.

    ``qubits`` lists controls first, acted-on qubit last.  ``matrix``
    is present exactly for LOCAL and CU.
    """

    kind: GateKind
    qubits: tuple[int, ...]
    matrix: Optional[Matrix2] = None

    def __post_init__(self) -> None:
        arity = _ARITY[self.kind]
        if arity is None:
            if len(self.qubits) < 4:
                raise ValueError(
                    f"mcx needs at least 3 controls, got {len(self.qubits) - 1}"
                )
        elif len(self.qubits) != arity:
            raise ValueError(
                f"{self.kind.value} takes {arity} qubit(s), got {len(self.qubits)}"
            )
        if set(map(type, self.qubits)) != _INT_TYPES and not all(map(is_int, self.qubits)):
            bad = next(q for q in self.qubits if not is_int(q))
            raise ValueError(
                f"operand {bad!r} of {self.kind.value}{self.qubits} is not an integer"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"duplicate operand in {self.kind.value}{self.qubits}")
        if self.kind in _MATRIX_KINDS:
            if self.matrix is None:
                raise ValueError(f"{self.kind.value} requires a matrix")
            if not _is_unitary(self.matrix):
                raise ValueError("matrix is not unitary")
        elif self.matrix is not None:
            raise ValueError(f"{self.kind.value} does not carry a matrix")

    @property
    def target(self) -> int:
        return self.qubits[-1]

    @property
    def controls(self) -> tuple[int, ...]:
        return self.qubits[:-1]

    @property
    def action(self) -> Matrix2:
        """The 2x2 applied to the target when every control is 1."""
        return kind_action(self.kind, self.matrix)

    def inverse(self) -> "Gate":
        if self.kind is GateKind.CV:
            return Gate(GateKind.CVDG, self.qubits)
        if self.kind is GateKind.CVDG:
            return Gate(GateKind.CV, self.qubits)
        if self.kind in _MATRIX_KINDS:
            return Gate(self.kind, self.qubits, dagger(self.matrix))
        # the classical-reversible kinds are involutions
        return self


def kind_action(kind: GateKind, matrix: Optional[Matrix2]) -> Matrix2:
    """The 2x2 a gate of this kind and matrix applies to its target when
    every control is 1.  This is the one place that says what each kind
    does."""
    if kind in X_LIKE_KINDS:
        return MAT_X
    if kind is GateKind.CV:
        return MAT_V
    if kind is GateKind.CVDG:
        return MAT_VDG
    return matrix


# Lowering and loading produce a handful of distinct matrices many times
# over, so the check is memoised on the matrix tuple.  Equal tuples have
# equal products, and a non-unitary one is rejected on every construction
# since its cached answer is False.
@functools.lru_cache(maxsize=4096)
def _is_unitary(m: Matrix2) -> bool:
    a = as_array(m)
    return bool(np.allclose(a @ a.conj().T, np.eye(2), atol=TOL_UNITARY))


def matrix_bits(m: Matrix2) -> bytes:
    """The matrix's float bits: equal bits give equal text, where tuple
    equality would mistake 0.0 for -0.0."""
    (a, b), (c, d) = m
    return struct.pack(
        "8d", a.real, a.imag, b.real, b.imag, c.real, c.imag, d.real, d.imag
    )


def as_array(m: Matrix2) -> np.ndarray:
    return np.array(m, dtype=complex)


def as_matrix2(a: np.ndarray) -> Matrix2:
    return (
        (complex(a[0, 0]), complex(a[0, 1])),
        (complex(a[1, 0]), complex(a[1, 1])),
    )


def dagger(m: Matrix2) -> Matrix2:
    return as_matrix2(as_array(m).conj().T)


@dataclass(frozen=True)
class CircuitMeta:
    """Provenance of a circuit within this library: which builder made
    it and with what parameters.  ``basis`` names the gate set it was
    lowered into, if any (stored as a string to keep this module free of
    the lowering vocabulary)."""

    scheme: Optional[str] = None
    n: Optional[int] = None
    c: Optional[int] = None
    basis: Optional[str] = None


@dataclass(frozen=True)
class Circuit:
    qubits: tuple[QubitId, ...]
    gates: tuple[Gate, ...] = ()
    meta: CircuitMeta = field(default_factory=CircuitMeta)

    def __post_init__(self) -> None:
        indices = [q.index for q in self.qubits]
        if indices != list(range(len(indices))):
            raise ValueError("qubit indices must be 0..width-1 in order")
        width = len(indices)
        # each distinct operand tuple is range-checked once, at C level
        # (Gate admits only int operands, so tuples that are equal hold
        # the same indices); the loop only names the first bad gate
        flat = list(chain.from_iterable(set(map(attrgetter("qubits"), self.gates))))
        if flat and (min(flat) < 0 or max(flat) >= width):
            for g in self.gates:
                for q in g.qubits:
                    if not 0 <= q < width:
                        raise ValueError(
                            f"gate {g.kind.value}{g.qubits} references qubit {q} "
                            f"outside width {width}"
                        )

    @property
    def width(self) -> int:
        return len(self.qubits)

    def role_of(self, index: int) -> QubitRole:
        return self.qubits[index].role

    def indices_with_role(self, role: QubitRole) -> tuple[int, ...]:
        return tuple(q.index for q in self.qubits if q.role is role)


def new_circuit(roles: Iterable[QubitRole], meta: CircuitMeta = CircuitMeta()) -> Circuit:
    qubits = tuple(QubitId(i, r) for i, r in enumerate(roles))
    return Circuit(qubits=qubits, meta=meta)


def append(circuit: Circuit, *gates: Gate) -> Circuit:
    return replace(circuit, gates=circuit.gates + gates)


def concat(first: Circuit, second: Circuit) -> Circuit:
    if first.qubits != second.qubits:
        raise ValueError("cannot concat circuits over different registers")
    return replace(first, gates=first.gates + second.gates)


def inverse(circuit: Circuit) -> Circuit:
    return replace(circuit, gates=tuple(g.inverse() for g in reversed(circuit.gates)))


def count_gates(circuit: Circuit, kind: GateKind) -> int:
    return sum(1 for g in circuit.gates if g.kind is kind)


def gate_histogram(circuit: Circuit) -> dict[GateKind, int]:
    out: dict[GateKind, int] = {}
    for g in circuit.gates:
        out[g.kind] = out.get(g.kind, 0) + 1
    return out


# ---------------------------------------------------------------------------
# matrix constants

MAT_X: Matrix2 = ((0 + 0j, 1 + 0j), (1 + 0j, 0 + 0j))
MAT_Z: Matrix2 = ((1 + 0j, 0 + 0j), (0 + 0j, -1 + 0j))
MAT_H: Matrix2 = (
    (1 / math.sqrt(2) + 0j, 1 / math.sqrt(2) + 0j),
    (1 / math.sqrt(2) + 0j, -1 / math.sqrt(2) + 0j),
)
MAT_S: Matrix2 = ((1 + 0j, 0j), (0j, 1j))
MAT_SDG: Matrix2 = ((1 + 0j, 0j), (0j, -1j))
MAT_T: Matrix2 = ((1 + 0j, 0j), (0j, cmath.exp(1j * math.pi / 4)))
MAT_TDG: Matrix2 = ((1 + 0j, 0j), (0j, cmath.exp(-1j * math.pi / 4)))

# V is the square root of X: V @ V == X exactly.
MAT_V: Matrix2 = (
    ((1 + 1j) / 2, (1 - 1j) / 2),
    ((1 - 1j) / 2, (1 + 1j) / 2),
)
MAT_VDG: Matrix2 = dagger(MAT_V)


def ry_matrix(theta: float) -> Matrix2:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return ((c + 0j, -s + 0j), (s + 0j, c + 0j))


def rz_matrix(theta: float) -> Matrix2:
    return (
        (cmath.exp(-1j * theta / 2), 0j),
        (0j, cmath.exp(1j * theta / 2)),
    )


def phase_matrix(alpha: float) -> Matrix2:
    return ((1 + 0j, 0j), (0j, cmath.exp(1j * alpha)))


NAMED_UNITARIES: dict[str, Matrix2] = {
    "x": MAT_X,
    "z": MAT_Z,
    "h": MAT_H,
    "s": MAT_S,
    "sdg": MAT_SDG,
    "t": MAT_T,
    "tdg": MAT_TDG,
    "v": MAT_V,
    "vdg": MAT_VDG,
}


# ---------------------------------------------------------------------------
# gate constructors, saves call sites from spelling out GateKind

def x(q: int) -> Gate:
    return Gate(GateKind.X, (q,))


def cnot(ctrl: int, tgt: int) -> Gate:
    return Gate(GateKind.CNOT, (ctrl, tgt))


def cv(ctrl: int, tgt: int) -> Gate:
    return Gate(GateKind.CV, (ctrl, tgt))


def cvdg(ctrl: int, tgt: int) -> Gate:
    return Gate(GateKind.CVDG, (ctrl, tgt))


def toffoli(c1: int, c2: int, tgt: int) -> Gate:
    return Gate(GateKind.TOFFOLI, (c1, c2, tgt))


def mcx(controls: Iterable[int], tgt: int) -> Gate:
    return Gate(GateKind.MCX, tuple(controls) + (tgt,))


def local(q: int, matrix: Matrix2) -> Gate:
    return Gate(GateKind.LOCAL, (q,), matrix=matrix)


def cu(ctrl: int, tgt: int, matrix: Matrix2) -> Gate:
    return Gate(GateKind.CU, (ctrl, tgt), matrix=matrix)
