"""Circuit intermediate representation.

Circuits are flat, immutable gate lists over an integer-indexed qubit
register.  The register is ``Circuit.roles``: qubit i's role is
``roles[i]`` and the width is ``len(roles)``, so downstream passes (cost
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
from numbers import Number
from operator import attrgetter
from typing import Iterable, Optional, Sequence

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

    # identity hashing, as for GateKind below
    __hash__ = object.__hash__


ROLE_BY_LETTER = {r.value: r for r in QubitRole}
LETTER_BY_ROLE = {r: r.value for r in QubitRole}


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


# How many qubits each kind takes; None means 4 or more (MCX).
ARITY: dict[GateKind, Optional[int]] = {
    GateKind.X: 1,
    GateKind.CNOT: 2,
    GateKind.CV: 2,
    GateKind.CVDG: 2,
    GateKind.TOFFOLI: 3,
    GateKind.MCX: None,
    GateKind.LOCAL: 1,
    GateKind.CU: 2,
}

# the kinds that carry a matrix
MATRIX_KINDS = {GateKind.LOCAL, GateKind.CU}

# The arity of each kind of fixed arity, for the kinds without a matrix
# and for those with one: the shapes ``Gate`` checks in one pass.
_PLAIN_ARITY = {k: a for k, a in ARITY.items() if a is not None and k not in MATRIX_KINDS}
_MATRIX_ARITY = {k: ARITY[k] for k in MATRIX_KINDS}

# Kinds whose action on their last operand is a plain bit flip when the
# controls are satisfied.  Used by Gate.action and verify.is_classical.
X_LIKE_KINDS = {GateKind.X, GateKind.CNOT, GateKind.TOFFOLI, GateKind.MCX}


@dataclass(frozen=True, slots=True, init=False)
class Gate:
    """One gate application.

    ``qubits`` lists controls first, acted-on qubit last.  ``matrix``
    is present exactly for LOCAL and CU.

    ``__init__`` checks the shapes the library builds and reads in one
    pass: a kind of fixed arity (1 to 3) on a tuple of that many
    distinct ``int`` operands, with a unitary matrix exactly where the
    kind carries one.  Anything else takes the full checks, in their
    order, so the same inputs are accepted and each refused one gets
    the message of the first rule it breaks.  Each field is stored
    once, from the checked values: operands given in another sequence
    are kept as a tuple, and a matrix given in another 2x2 form (an
    array, nested lists) as a tuple of two 2-tuples of complex
    numbers, so every gate is hashable.

    Only two callers make a gate past these checks, with
    ``_prechecked_gate``, because each has established them already:
    ``decomp`` lowering, which instantiates a rule whose gates passed
    ``Gate`` on their operand slots on distinct operands of a checked
    input gate, and the text reader of ``qasmio``, for a line whose
    operands are distinct and as many as its kind takes and whose
    ``u(...)`` matrix passed ``Gate`` on an earlier line of the same
    call.
    """

    kind: GateKind
    qubits: tuple[int, ...]
    matrix: Optional[Matrix2] = None

    def __init__(
        self, kind: GateKind, qubits: tuple[int, ...], matrix: Optional[Matrix2] = None
    ) -> None:
        arity = (_PLAIN_ARITY if matrix is None else _MATRIX_ARITY).get(kind)
        ok = False
        if arity is not None and type(qubits) is tuple and len(qubits) == arity:
            if arity == 1:
                ok = type(qubits[0]) is int
            elif arity == 2:
                a, b = qubits
                ok = type(a) is int and type(b) is int and a != b
            else:
                a, b, c = qubits
                ok = (type(a) is int and type(b) is int and type(c) is int
                      and a != b and a != c and b != c)
        # where the operands pass, a matrix rule is the first one broken
        if not (ok and (matrix is None or _is_unitary(matrix := _matrix2(matrix)))):
            qubits, matrix = _checked(kind, qubits, matrix)
        _set_kind(self, kind)
        _set_qubits(self, qubits)
        _set_matrix(self, matrix)

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
        if self.kind in MATRIX_KINDS:
            return Gate(self.kind, self.qubits, dagger(self.matrix))
        # the classical-reversible kinds are involutions
        return self


# Gate's slots, written once each by its __init__ past the frozen
# __setattr__
_set_kind, _set_qubits, _set_matrix = (
    Gate.__dict__[name].__set__ for name in ("kind", "qubits", "matrix")
)


def _prechecked_gate(
    kind: GateKind, qubits: tuple[int, ...], matrix: Optional[Matrix2] = None
) -> Gate:
    """A ``Gate`` of these fields without ``__init__``'s checks, for a
    caller that has established them already: ``qubits`` a tuple of as
    many distinct ``int`` operands as ``kind`` takes, and ``matrix`` a
    unitary in tuple form exactly where the kind carries one.  Private
    to the two callers the ``Gate`` docstring names."""
    gate = object.__new__(Gate)
    _set_kind(gate, kind)
    _set_qubits(gate, qubits)
    _set_matrix(gate, matrix)
    return gate


def _checked(
    kind: GateKind, qubits: Sequence[int], matrix: object
) -> tuple[tuple[int, ...], Optional[Matrix2]]:
    """Gate's full checks, in order, naming the operands as given; the
    operands as a tuple and the matrix in tuple form if they pass."""
    arity = ARITY[kind]
    if arity is None:
        if len(qubits) < 4:
            raise ValueError(f"mcx needs at least 3 controls, got {len(qubits) - 1}")
    elif len(qubits) != arity:
        raise ValueError(f"{kind.value} takes {arity} qubit(s), got {len(qubits)}")
    if set(map(type, qubits)) != _INT_TYPES and not all(map(is_int, qubits)):
        bad = next(q for q in qubits if not is_int(q))
        raise ValueError(f"operand {bad!r} of {kind.value}{qubits} is not an integer")
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"duplicate operand in {kind.value}{qubits}")
    if kind in MATRIX_KINDS:
        if matrix is None:
            raise ValueError(f"{kind.value} requires a matrix")
        matrix = _matrix2(matrix)
        if not _is_unitary(matrix):
            raise ValueError("matrix is not unitary")
    elif matrix is not None:
        raise ValueError(f"{kind.value} does not carry a matrix")
    return tuple(qubits), matrix


def _matrix2(m: object) -> Matrix2:
    """A 2x2 of numbers as a tuple of two 2-tuples: ``m`` itself if it
    is one, else its entries as complex numbers.  ValueError for
    anything that is not a 2x2 of numbers."""
    try:
        (a, b), (c, d) = m
    except (TypeError, ValueError):
        raise ValueError("matrix is not a 2x2 of numbers") from None
    # complex entries, which every built matrix has, skip the ABC check
    if not (type(a) is complex and type(b) is complex and type(c) is complex
            and type(d) is complex) and not all(isinstance(z, Number) for z in (a, b, c, d)):
        raise ValueError("matrix is not a 2x2 of numbers")
    if type(m) is tuple and type(m[0]) is tuple and type(m[1]) is tuple:
        return m
    return ((complex(a), complex(b)), (complex(c), complex(d)))


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
# since its cached answer is False.  A non-finite entry is not unitary,
# and neither is one whose product overflows: numpy's warnings are
# silenced, so a bad matrix reads only as "not unitary".
@functools.lru_cache(maxsize=4096)
def _is_unitary(m: Matrix2) -> bool:
    a = as_array(m)
    with np.errstate(all="ignore"):
        return bool(np.isfinite(a).all()
                    and np.allclose(a @ a.conj().T, np.eye(2), atol=TOL_UNITARY))


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
    """A gate list over the register ``roles``.

    Invariant: every operand of every gate is a qubit of the register,
    from 0 to ``width - 1``.  ``Circuit(...)`` checks it over the gates
    it is given, and so do ``append``, ``concat`` and ``inverse``, which
    build through it.  Only three callers build a circuit past that
    check, with ``_prechecked_circuit``, because each has already
    checked every operand it holds: ``decomp`` lowering, whose operands
    are all operands of its checked input, and the text and JSON
    readers of ``qasmio``, which refuse each operand token or entry
    where they read it.
    """

    roles: tuple[QubitRole, ...]
    gates: tuple[Gate, ...] = ()
    meta: CircuitMeta = field(default_factory=CircuitMeta)

    def __post_init__(self) -> None:
        width = len(self.roles)
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
        return len(self.roles)

    def indices_with_role(self, role: QubitRole) -> tuple[int, ...]:
        return tuple(i for i, r in enumerate(self.roles) if r is role)


def _prechecked_circuit(
    roles: tuple[QubitRole, ...], gates: tuple[Gate, ...], meta: CircuitMeta
) -> Circuit:
    """A ``Circuit`` of these fields without ``__post_init__``'s range
    check, for a caller that has checked every operand against
    ``len(roles)`` already.  Private to the three callers the
    ``Circuit`` docstring names."""
    circuit = object.__new__(Circuit)
    vars(circuit).update(roles=roles, gates=gates, meta=meta)
    return circuit


def new_circuit(roles: Iterable[QubitRole], meta: CircuitMeta = CircuitMeta()) -> Circuit:
    return Circuit(tuple(roles), meta=meta)


def append(circuit: Circuit, *gates: Gate) -> Circuit:
    return replace(circuit, gates=circuit.gates + gates)


def concat(first: Circuit, second: Circuit) -> Circuit:
    if first.roles != second.roles:
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
