"""Brute-force functional verification, and a symbolic proof for C^nX.

A circuit is checked against an oracle: a function from an input
assignment of the computational qubits to the exact output superposition
over those qubits.  Every computational basis input is enumerated with
all ancillas at |0>, the circuit is simulated, ancilla restoration is
checked, and the output is compared amplitude by amplitude.

Verdicts distinguish exact agreement, agreement up to one global phase,
agreement up to a per-basis-state (diagonal) phase, and mismatch.

Simulation convention is big-endian: qubit 0 is the most significant
bit of the basis index.  Every engine reads what a gate applies to its
target from ``Gate.action`` in ``ir``, the one map from gate kind to
2x2 matrix.

All inputs are simulated together, as arrays, by one of two batched
engines, one per kind of state, and the circuit alone picks which.  Bit
planes carry basis states, and run the step language of ``anf``.
Sparse entries are flat (input, basis index, amplitude) arrays.

A circuit of X-like gates runs on bit planes, a step per gate.  Any
other circuit is planned as steps, most of them windows: runs of
consecutive gates on at most three qubits whose product is monomial,
one nonzero entry per column.  Every decomposed Toffoli is such a
product (Barenco et al. 1995; the relative-phase form is a Toffoli
times a diagonal, Maslov 2016), so a window moves each entry with one
XOR and rescales it by one phase, both looked up by the entry's bits on
the window's qubits, and never grows the support.  Each window is the
longest monomial prefix of its run, not the whole run, so it ends where
a decomposed Toffoli ends; a run's product is worked out once per shape
and process, and kept in a bounded cache with its XOR table as
bit-plane steps, the algebraic normal form of each bit it flips, and
the normal form of "its phase rounds to -1" as a step into a sign wire.
A plan whose lone gates are X-like and whose windows' drifts from +-1
sum to at most the tolerance (every C^nX build lowered to cv, and to
cnot at any tolerance above float dust) runs on bit planes, each
window's steps put on the qubits it carries.  Any other plan runs on
sparse entries, one step at a time.  There a gate that starts no window
is applied alone: an X-like one, an MCX (any gate on at most three
qubits that does not mix starts a window), moves entries in place, and
any other splits them and merges the duplicates.  One input's support
holds at most 2**width entries, which is what the width cap bounds.

The expected outputs are arrays too.  The built-in C^nX and C^nU oracles
(``ControlledOracle``) are tabulated from n and the 2x2 alone; any other
oracle is called once per input, in input order, and its dicts are
flattened into the same layout.  Both engines' outputs are compared with
that table by the same array operations, with one shortcut that gives
the same verdict, bit for bit: the miter.

Against a C^nX or C^nZ table (a ``ControlledOracle`` whose matrix is X
or Z), the verdict off the bit planes is read as a miter: one more step
applies the table's inverse, the table itself (C^nX flips the target,
C^nZ XORs the AND of every computational wire into the sign).  An
ancilla left set fails with deviation 1.  Otherwise the lowest input
left changed is the witness, and one call of the oracle gives the
output it should have had.  With every wire restored, the sign decides:
0 on every input is exact, 1 on every input a global phase, and a mix
a diagonal phase, each with deviation 0.  Off a miter, each bit-plane
output has amplitude -1 where the sign ends as 1, and 1 elsewhere.

``check_symbolic`` enumerates no input: it runs the same steps, chosen
by the same rule, and the miter's last one, over ``anf``'s GF(2)
polynomials.  It answers EXACT or nothing.  No command calls it: within
the cap ``mct synth`` enumerates, which costs about what the proof does
at the widths it checks.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from enum import Enum
from itertools import chain, islice, product
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from . import anf
from .ir import (
    Circuit,
    Gate,
    GateKind,
    Matrix2,
    QubitRole,
    X_LIKE_KINDS,
    as_array,
    as_matrix2,
    kind_action,
    MAT_X,
    MAT_Z,
)

DEFAULT_MAX_WIDTH = 24
DEFAULT_TOL = 1e-9

# dict from output bit tuple to amplitude
Superposition = dict[tuple[int, ...], complex]
Oracle = Callable[[tuple[int, ...]], Superposition]
# an oracle's outputs over every input, flattened: entry count per
# input, int64 keys (input << k) | output, and amplitudes
Table = tuple[np.ndarray, np.ndarray, np.ndarray]


class WidthLimitError(ValueError):
    """Raised when a simulation would exceed the allowed qubit count."""


def resolve_max_width() -> int:
    """The simulation cap: ``MCT_MAX_WIDTH``, else the default; a cap
    below 1 is refused."""
    env = os.environ.get("MCT_MAX_WIDTH")
    if not env:
        return DEFAULT_MAX_WIDTH
    try:
        cap = int(env)
    except ValueError:
        cap = None
    # only as str() writes an integer: not '5_0', '+9', ' 9' or '٩'
    if cap is None or str(cap) != env:
        raise ValueError(f"MCT_MAX_WIDTH must be an integer, got {env!r}")
    if cap < 1:
        raise ValueError(f"MCT_MAX_WIDTH must be at least 1, got {cap}")
    return cap


# ---------------------------------------------------------------------------
# statevector reference: no check runs it; the tests compare with it

def apply(circuit: Circuit, state: np.ndarray) -> np.ndarray:
    """Apply the whole circuit to a statevector of length 2**width: the
    one column ``_evolve_dense`` runs, as ``full_unitary`` runs all."""
    width = circuit.width
    if state.shape != (2**width,):
        raise ValueError(f"state length {state.shape} does not match width {width}")
    return _evolve_dense(circuit, state.astype(complex).reshape((2,) * width + (1,))).reshape(-1)


def basis_state(width: int, bits: Sequence[int]) -> np.ndarray:
    if len(bits) != width:
        raise ValueError("bit count does not match width")
    state = np.zeros(2**width, dtype=complex)
    state[_bits_to_index(bits)] = 1.0
    return state


def _bits_to_index(bits: Sequence[int]) -> int:
    idx = 0
    for b in bits:
        idx = (idx << 1) | (b & 1)
    return idx


def full_unitary(circuit: Circuit, max_width: int = 10) -> np.ndarray:
    """Dense unitary of the circuit: ``_evolve_dense`` of the identity,
    so column j is ``apply`` of basis state j.  Only sensible for small
    widths; the cap is deliberate."""
    width = circuit.width
    if width > max_width:
        raise WidthLimitError(f"width {width} exceeds unitary cap {max_width}")
    dim = 2**width
    u = np.eye(dim, dtype=complex).reshape((2,) * width + (dim,))
    return _evolve_dense(circuit, u).reshape(dim, dim)


def _evolve_dense(circuit: Circuit, u: np.ndarray) -> np.ndarray:
    """Run the circuit's gates in place on columns of statevectors, ``u``
    of shape (2,) * width + (columns,), one axis per qubit and a last
    one for the column, and return it."""
    width = circuit.width
    for gate in circuit.gates:
        index: list = [slice(None)] * width
        for c in gate.controls:
            index[c] = 1
        index[gate.target] = 0
        zero = tuple(index)
        index[gate.target] = 1
        one = tuple(index)
        a, b = u[zero], u[one].copy()
        (m00, m01), (m10, m11) = gate.action
        u[one] = m10 * a + m11 * b
        u[zero] = m00 * a + m01 * b
    return u


# ---------------------------------------------------------------------------
# batched engines
#
# Input number m (0 <= m < 2**k) sets computational qubit comp[i] to bit
# k-1-i of m, so inputs run in the order the oracle sees them.  Both
# engines return (failure, got): failure is None or (lowest input with
# an ancilla left set, deviation reported for it); got is the output
# with all ancillas at |0>, as int64 keys (m << k) | output index, where
# the output index packs the computational bits the same way, and their
# complex amplitudes.

# inputs, or sparse entries, simulated at once; a work item whose
# entries outgrow this is split in two by input
_ENTRY_BUDGET = 1 << 16


def _spread(masks: np.ndarray, comp: Sequence[int], width: int) -> np.ndarray:
    """Basis index over all ``width`` qubits of each input, ancillas 0."""
    k = len(comp)
    idx = np.zeros_like(masks)
    for i, q in enumerate(comp):
        idx |= ((masks >> (k - 1 - i)) & 1) << (width - 1 - q)
    return idx


def _gather(idx: np.ndarray, comp: Sequence[int], width: int) -> np.ndarray:
    """Output index over the computational qubits of each basis index."""
    out = np.zeros_like(idx)
    for q in comp:
        out = (out << 1) | ((idx >> (width - 1 - q)) & 1)
    return out


def is_classical(circuit: Circuit) -> bool:
    return all(g.kind in X_LIKE_KINDS for g in circuit.gates)


def _run_classical(
    steps: Sequence[tuple[int, tuple[tuple[int, ...], ...]]],
    width: int,
    comp: Sequence[int],
    ancillas: Sequence[int],
    miter: bool = False,
) -> tuple:
    """``anf``'s steps on bit planes, a block of inputs at a time: each
    wire is one Python int, bit b holding its value under input lo + b.
    The sign wire is read once per block.

    Returns (failure, got) as the sparse engine does, each output's
    amplitude -1 where the sign wire ends as 1 and 1 elsewhere.  With
    ``miter``, the steps end with the inverse of the table checked
    against, and got is instead (the lowest input whose computational
    wires did not end as they began, or None; the signs seen, bit 0 set
    when some input ends with sign 0 and bit 1 when some ends with 1)."""
    k = len(comp)
    n_inputs = 1 << k
    # a block is the budget rounded down to a power of two, so input
    # bits below size_log are the block's patterns, and above it all
    # ones or all zeros by the block's number
    size_log = min(k, _ENTRY_BUDGET.bit_length() - 1)
    block = 1 << size_log
    valid = (1 << block) - 1
    low = anf.patterns(size_log)
    # a miter keeps no outputs, so its check allocates no array, and the
    # signs are an array only once some input ends with sign 1
    out = None if miter else np.zeros(n_inputs, dtype=np.int64)
    minus = None
    mismatch, signs = None, 0
    for lo in range(0, n_inputs, block):
        # comp[k-1-j] carries input bit j
        pattern = [low[j] if j < size_log else valid * (lo >> j & 1)
                   for j in range(k - 1, -1, -1)]
        wires = anf.register(width, comp, pattern, 0, valid)
        anf.run(steps, wires)
        dirty = 0
        for q in ancillas:
            dirty |= wires[q]
        if dirty:
            return (lo + anf.lowest(dirty), 1.0), None
        sign = wires[anf.SIGN]
        if not miter:
            outputs = out[lo:lo + block]
            for q in comp:
                outputs <<= 1
                outputs |= _unpack(wires[q], block)
            if sign:
                if minus is None:
                    minus = np.zeros(n_inputs, dtype=bool)
                minus[lo:lo + block] = _unpack(sign, block)
            continue
        signs |= (sign != valid) | (sign != 0) << 1
        if mismatch is None:
            diff = 0
            for q, bits in zip(comp, pattern):
                diff |= wires[q] ^ bits
            if diff:
                mismatch = lo + anf.lowest(diff)
    if miter:
        return None, (mismatch, signs)
    masks = np.arange(n_inputs, dtype=np.int64)
    amps = np.ones(n_inputs, dtype=complex)
    if minus is not None:
        amps[minus] = -1
    return None, ((masks << k) | out, amps)


def _unpack(bits: int, block: int) -> np.ndarray:
    """A wire's value under each input of a block, as 0/1 bytes."""
    as_bytes = np.frombuffer(bits.to_bytes(max(block >> 3, 1), "little"), dtype=np.uint8)
    return np.unpackbits(as_bytes, bitorder="little")[:block]


# amplitudes this small are float dust from cancellations; dropping
# them keeps the support tight and perturbs the state far below any
# verification tolerance
_SPARSE_PRUNE = 1e-14


def _sparse_step(
    gate: Gate, width: int, keys: np.ndarray, amps: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Apply one lone gate to sparse entries.  An X-like gate moves the
    entries it acts on; any other splits each of them into both target
    values and merges the children that land on the same basis state,
    which may grow the support."""
    cmask = sum(1 << (width - 1 - c) for c in gate.controls)
    tbit = 1 << (width - 1 - gate.target)
    on = (keys & cmask) == cmask
    if gate.kind in X_LIKE_KINDS:
        return keys ^ (on * tbit), amps
    if not on.any():
        return keys, amps
    (a00, a01), (a10, a11) = gate.action
    src, src_amps = keys[on], amps[on]
    src_one = (src & tbit) != 0
    kids = np.concatenate((src & ~tbit, src | tbit))
    kid_amps = np.concatenate((src_amps * np.where(src_one, a01, a00),
                               src_amps * np.where(src_one, a11, a10)))
    # a basis state has at most two parents, so the sum is order-free
    order = np.argsort(kids)
    kids = kids[order]
    first = np.flatnonzero(np.r_[True, kids[1:] != kids[:-1]])
    kid_amps = np.add.reduceat(kid_amps[order], first)
    keep = _abs(kid_amps) > _SPARSE_PRUNE
    return (np.concatenate((keys[~on], kids[first][keep])),
            np.concatenate((amps[~on], kid_amps[keep])))


# a window is a run of consecutive gates on at most this many qubits,
# read at most this many gates ahead of its first gate, so that planning
# stays linear in the gate count
_WINDOW_QUBITS = 3
_WINDOW_SCAN = 32


class _Window(NamedTuple):
    """Gates fused into a generalized permutation of ``qubits``.  The
    local index of an entry packs its bits on those qubits, the first
    most significant; at that index ``bits`` holds which of them flip
    and ``phases`` what the amplitude is multiplied by (None when a
    table does nothing); ``xor`` is the flips as ``anf.xor_steps``.
    ``sign`` is the algebraic normal form, as products of local
    positions, of the phase rounding to -1 rather than +1, and ``drift``
    the largest distance of any phase from the one of them it rounds to.
    The tables are ``_fused``'s, shared and read only."""

    qubits: tuple[int, ...]
    bits: Optional[np.ndarray]
    phases: Optional[np.ndarray]
    xor: tuple
    sign: tuple
    drift: float


def _window_step(
    w: _Window, width: int, keys: np.ndarray, amps: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Apply a window to sparse entries: every entry goes to exactly
    one place, so the support neither grows nor needs merging.  Keys
    hold ``width`` bits, at most 63, so each XOR mask fits an int64."""
    shifts = [width - 1 - q for q in w.qubits]
    loc = (keys >> shifts[0]) & 1
    for s in shifts[1:]:
        loc = (loc << 1) | ((keys >> s) & 1)
    if w.bits is not None:
        keys = keys ^ (w.bits @ np.array([1 << s for s in shifts], dtype=np.int64))[loc]
    if w.phases is not None:
        amps = amps * w.phases[loc]
    return keys, amps


def _monomial(u: np.ndarray) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Row and entry of each column's one entry above the pruning
    threshold, or None when some column has more or fewer."""
    big = np.abs(u) > _SPARSE_PRUNE
    if (np.count_nonzero(big) != len(u) or not big.any(axis=0).all()
            or not big.any(axis=1).all()):
        return None
    rows = big.argmax(axis=0)
    return rows, u[rows, np.arange(len(rows))]


# distinct run shapes whose fused product is kept for the whole process;
# the lowered C^nX builds up to n=16 have 13 between them
_FUSED_SHAPES = 256

# the identity on d local qubits, for every window size d
_IDENTITY = tuple(np.eye(1 << d, dtype=complex) for d in range(_WINDOW_QUBITS + 1))


@functools.lru_cache(maxsize=_FUSED_SHAPES)
def _fused(shape: tuple) -> Optional[tuple]:
    """The longest prefix of a run of this shape (kinds, matrices, and
    operands numbered by first appearance) whose product is monomial, as
    its gate count, the number of qubits it touches (the first ones in
    order of appearance), its local XOR bits and phases, both read only,
    its XOR bits as bit-plane steps, and the sign and drift of its
    phases as a ``_Window`` holds them; None when no prefix is.  It
    depends on the shape alone, so it is worked out once per process."""
    d = 1 + max(max(pos) for _, _, pos in shape)
    product = _IDENTITY[d]
    best, used = None, 0
    for count, (kind, matrix, pos) in enumerate(shape, 1):
        # the gate as a 2**d x 2**d matrix, its operands at local
        # positions pos (position 0 is the most significant bit)
        mat = kind_action(kind, matrix)
        cmask = sum(1 << (d - 1 - p) for p in pos[:-1])
        tbit = 1 << (d - 1 - pos[-1])
        u = _IDENTITY[d].copy()
        for j in range(1 << d):
            if j & cmask == cmask:
                t = int(j & tbit != 0)
                u[j & ~tbit, j] = mat[0][t]
                u[j | tbit, j] = mat[1][t]
        product = u @ product
        used = max(used, max(pos) + 1)
        mono = _monomial(product)
        if mono is not None:
            best = count, used, mono
    if best is None:
        return None
    count, used, (rows, phases) = best
    # the qubits past the prefix's own are the low local bits, on which
    # it acts as the identity
    drop = d - used
    rows, phases = rows[::1 << drop] >> drop, phases[::1 << drop]
    diff = rows ^ np.arange(len(rows))
    bits = (diff[:, None] >> np.arange(used - 1, -1, -1)) & 1 if diff.any() else None
    sign, drift = (), 0.0
    if (phases == 1).all():
        phases = None
    else:
        negative = phases.real < 0
        sign = anf.normal_form(negative.tolist(), used)
        drift = float(np.abs(phases - np.where(negative, -1, 1)).max())
    for table in (bits, phases):
        if table is not None:
            # shared by every later plan in the process
            table.setflags(write=False)
    return count, used, bits, phases, anf.xor_steps(diff.tolist(), used), sign, drift


def _signed_steps(circuit: Circuit, tol: float) -> tuple[Optional[list], Optional[list]]:
    """The circuit's plan, None for a Toffoli-level circuit, and the
    steps the bit planes run for it, or None.  A Toffoli-level circuit
    runs a step per gate.  A plan whose windows' drifts sum to at most
    ``tol`` runs its steps, each window's sign step included, so that
    every phase reads as the +-1 it rounds to, when ``anf.steps`` writes
    its lone gates, X-like ones; any other plan runs on no bit planes."""
    if is_classical(circuit):
        return None, anf.steps(circuit.gates)
    plan = _plan(circuit.gates)
    if sum(s.drift for s in plan if isinstance(s, _Window)) > tol:
        return plan, None
    return plan, anf.steps(plan)


def _miter_step(oracle: Oracle, comp: Sequence[int]) -> Optional[tuple]:
    """The step that applies the inverse of a C^nX or C^nZ table on
    ``comp``, which is the table again: C^nX flips the target under the
    controls, C^nZ XORs the AND of every wire into the sign.  None for
    any other oracle."""
    if not (isinstance(oracle, ControlledOracle) and oracle.n + 1 == len(comp)):
        return None
    # a matrix given as an array compares as rows of numbers
    rows = tuple(map(tuple, oracle.matrix))
    if rows == MAT_X:
        return comp[-1], (tuple(comp[:-1]) or (-1,),)
    if rows == MAT_Z:
        return anf.SIGN, (tuple(comp),)
    return None


def _plan(gates: Sequence[Gate]) -> list[Union[_Window, Gate]]:
    """Split the gates into steps: each step is a ``_Window`` or a lone
    ``Gate``.  A window is the longest prefix, of the run of gates that
    fits on ``_WINDOW_QUBITS`` qubits, whose product is monomial; a gate
    that starts no such prefix goes alone.  Cutting at the longest
    monomial prefix, not at the end of the run, keeps a window from
    taking the first gates of the next decomposed Toffoli.  Each run's
    product is looked up by its shape in ``_fused``."""
    steps: list[Union[_Window, Gate]] = []
    i = 0
    while i < len(gates):
        # each qubit's local position, by first appearance
        place: dict[int, int] = {}
        shape = []
        for g in gates[i:i + _WINDOW_SCAN]:
            pos = []
            for q in g.qubits:
                if q not in place:
                    place[q] = len(place)
                pos.append(place[q])
            if len(place) > _WINDOW_QUBITS:
                break
            shape.append((g.kind, g.matrix, tuple(pos)))
        plan = _fused(tuple(shape)) if shape else None
        if plan is None:
            steps.append(gates[i])
            i += 1
            continue
        count, used, *tables = plan
        steps.append(_Window(tuple(islice(place, used)), *tables))
        i += count
    return steps


def _evolve_sparse(
    steps: Sequence[Union[_Window, Gate]], width: int, comp: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Final sparse entries of every input after the planned steps,
    keyed (m << width) | basis index.  Work items are done in input
    order, so the entries come grouped by input in that order; no
    verdict depends on it: ``_classify`` sorts the keys it merges.  One
    input holds at most 2**width entries, which the width cap bounds."""
    n_inputs = 1 << len(comp)
    # work items: first input, end input, next step, entries; the last
    # is taken first, and a split pushes its upper half first
    todo = []
    for lo in reversed(range(0, n_inputs, _ENTRY_BUDGET)):
        masks = np.arange(lo, min(lo + _ENTRY_BUDGET, n_inputs), dtype=np.int64)
        todo.append((lo, lo + len(masks), 0,
                     (masks << width) | _spread(masks, comp, width),
                     np.ones(len(masks), dtype=complex)))
    done_keys, done_amps = [], []
    while todo:
        lo, hi, start, keys, amps = todo.pop()
        for pos in range(start, len(steps)):
            step = steps[pos]
            if isinstance(step, _Window):
                keys, amps = _window_step(step, width, keys, amps)
                continue
            keys, amps = _sparse_step(step, width, keys, amps)
            if len(keys) > _ENTRY_BUDGET and hi - lo > 1:
                mid = (lo + hi) // 2
                low = (keys >> width) < mid
                todo.append((mid, hi, pos + 1, keys[~low], amps[~low]))
                todo.append((lo, mid, pos + 1, keys[low], amps[low]))
                break
        else:
            done_keys.append(keys)
            done_amps.append(amps)
    return np.concatenate(done_keys), np.concatenate(done_amps)


def _run_sparse(
    steps: Sequence[Union[_Window, Gate]],
    width: int,
    comp: Sequence[int],
    ancillas: Sequence[int],
    tol: float,
) -> tuple:
    """The planned steps on sparse entries, every input at once.
    Returns (failure, got) as ``_run_classical`` does, after dropping
    every amplitude of magnitude at most ``tol``."""
    keys, amps = _evolve_sparse(steps, width, comp)
    keep = _abs(amps) > tol
    keys, amps = keys[keep], amps[keep]
    inputs, idx = keys >> width, keys & ((1 << width) - 1)
    dirty = (idx & sum(1 << (width - 1 - a) for a in ancillas)) != 0
    if dirty.any():
        m = inputs[dirty].min()
        return (int(m), float(_abs(amps[dirty & (inputs == m)]).max())), None
    return None, ((inputs << len(comp)) | _gather(idx, comp, width), amps)


# ---------------------------------------------------------------------------
# oracles

@dataclass(frozen=True)
class ControlledOracle:
    """n controls and a target: apply ``matrix`` to the target iff all
    controls are 1.

    Called on a bit tuple it is an ``Oracle``.  ``table`` gives every
    input's output at once, which is how ``check_equivalence`` reads it.
    """

    n: int
    matrix: Matrix2

    def __post_init__(self) -> None:
        # refused as a gate's matrix is, since a matrix with a zero
        # column would give an input no output; kept as given, array or
        # tuples, as ``_miter_step`` reads either
        Gate(GateKind.LOCAL, (0,), self.matrix)

    def __call__(self, bits: tuple[int, ...]) -> Superposition:
        if len(bits) != self.n + 1:
            raise ValueError(f"expected {self.n + 1} bits, got {len(bits)}")
        controls, t = bits[:-1], bits[-1]
        if not all(controls):
            return {bits: 1.0 + 0j}
        out: Superposition = {}
        for row in (0, 1):
            amp = self.matrix[row][t]
            if amp != 0:
                out[controls + (row,)] = amp
        return out

    def table(self) -> Table:
        """The calls on every input, flattened, with each call's entries
        in its own order.  Every input maps to itself but the last two,
        whose controls are all set."""
        k = self.n + 1
        last = (1 << k) - 2
        tail = [self((1,) * self.n + (t,)) for t in (0, 1)]
        tail_keys = [((last + t) << k) | last | bits[-1] for t in (0, 1) for bits in tail[t]]
        tail_amps = [amp for out in tail for amp in out.values()]
        m = np.arange(last, dtype=np.int64)
        counts = np.ones(last + 2, dtype=np.int64)
        counts[last:] = [len(out) for out in tail]
        keys = np.concatenate(((m << k) | m, np.array(tail_keys, dtype=np.int64)))
        amps = np.concatenate((np.ones(last, dtype=complex), np.array(tail_amps, dtype=complex)))
        return counts, keys, amps


def oracle_cnx(n: int) -> ControlledOracle:
    """n controls and a target: flip the target iff all controls are 1."""
    return ControlledOracle(n, MAT_X)


def oracle_cnu(n: int, matrix: Matrix2) -> ControlledOracle:
    """n controls and a target: apply the given 2x2 iff all controls
    are 1."""
    return ControlledOracle(n, as_matrix2(as_array(matrix)))


# ---------------------------------------------------------------------------
# equivalence checking

class EquivalenceClass(Enum):
    EXACT = "exact"
    GLOBAL_PHASE = "global_phase"
    DIAGONAL_PHASE = "diagonal_phase"
    MISMATCH = "mismatch"


@dataclass(frozen=True)
class Mismatch:
    input_bits: tuple[int, ...]
    detail: str


@dataclass(frozen=True)
class EquivalenceVerdict:
    klass: EquivalenceClass
    max_deviation: float
    witness: Optional[Mismatch] = None

    @property
    def equivalent(self) -> bool:
        return self.klass is not EquivalenceClass.MISMATCH


def default_computational_qubits(circuit: Circuit) -> tuple[int, ...]:
    """Controls in index order, then the target.  Requires role tags."""
    controls = circuit.indices_with_role(QubitRole.CONTROL)
    targets = circuit.indices_with_role(QubitRole.TARGET)
    if len(targets) != 1:
        raise ValueError(f"expected exactly one target qubit, found {len(targets)}")
    return controls + targets


def check_equivalence(
    circuit: Circuit,
    oracle: Oracle,
    computational_qubits: Optional[Sequence[int]] = None,
    tol: float = DEFAULT_TOL,
) -> EquivalenceVerdict:
    """Compare the circuit against the oracle on every computational
    basis input, ancillas held at |0> and required to return to |0>.

    The bit order handed to the oracle is the order of
    ``computational_qubits``, which must be distinct indices into the
    register (``ValueError`` before any simulation otherwise).  An
    ancilla left set on any input is reported ahead of every other
    mismatch.  A ``ControlledOracle`` of the right arity (what
    ``oracle_cnx`` and ``oracle_cnu`` return) is read as one table and
    never called per input.  Any other oracle is called once per input,
    in input order, and not past an input that leaves an ancilla set.
    ``tol`` must be at least 0 and below 1 (``ValueError`` otherwise).
    """
    _check_tol(tol)
    width = circuit.width
    limit = resolve_max_width()
    comp = tuple(
        computational_qubits
        if computational_qubits is not None
        else default_computational_qubits(circuit)
    )
    for i, q in enumerate(comp):
        if not 0 <= q < width:
            raise ValueError(f"computational qubit {q} outside width {width}")
        if q in comp[:i]:
            raise ValueError(f"computational qubit {q} listed twice")
    k = len(comp)
    ancillas = tuple(q for q in range(width) if q not in comp)
    tabulated = isinstance(oracle, ControlledOracle) and oracle.n + 1 == k
    if is_classical(circuit):
        if 2 * k > 63:
            raise WidthLimitError(f"{k} computational qubits exceed the classical "
                                  f"engine's 63-bit keys")
    else:
        if width > limit:
            raise WidthLimitError(f"width {width} exceeds simulation cap {limit}")
        if width + len(comp) > 63:
            raise WidthLimitError(f"width {width} with {len(comp)} inputs "
                                  f"exceeds the sparse engine's 63-bit keys")
    plan, steps = _signed_steps(circuit, tol)
    # bit planes against a C^nX or C^nZ table are read as a miter
    # fast path: verify-toffoli jobs_per_s is 91.7% lower with `_classify` (CHANGES.md, shortcuts priced)
    inverse = None if steps is None else _miter_step(oracle, comp)
    miter = inverse is not None
    if steps is None:
        failure, got = _run_sparse(plan, width, comp, ancillas, tol)
    else:
        if miter:
            steps.append(inverse)
        failure, got = _run_classical(steps, width, comp, ancillas, miter)

    if failure is not None:
        first, deviation = failure
        if not tabulated:
            # the oracle still sees every input up to the failing one
            for bits in islice(product((0, 1), repeat=k), first + 1):
                oracle(bits)
        return EquivalenceVerdict(
            EquivalenceClass.MISMATCH,
            deviation,
            Mismatch(_bits(first, k), "ancilla not restored to |0>"),
        )
    if miter:
        # what _classify finds for a table and outputs of one basis
        # state each, of amplitude +-1: either every output is the
        # table's, and the signs give the class, or the first input that
        # differs has no amplitude where the table puts its +-1
        mismatch, signs = got
        if mismatch is None:
            return EquivalenceVerdict(_BY_SIGNS[signs], 0.0)
        bits = _bits(mismatch, k)
        (want,) = oracle(bits)
        return EquivalenceVerdict(
            EquivalenceClass.MISMATCH,
            1.0,
            Mismatch(bits, f"no amplitude on expected output {want}"),
        )
    assert got is not None
    expected = oracle.table() if tabulated else _call_each(oracle, k)
    return _classify(k, expected, got, tol)


# a miter's class by the signs its inputs end with: only 0, only 1, both
_BY_SIGNS = {1: EquivalenceClass.EXACT, 2: EquivalenceClass.GLOBAL_PHASE,
             3: EquivalenceClass.DIAGONAL_PHASE}


def _check_tol(tol: float) -> None:
    if not 0 <= tol < 1:
        raise ValueError(f"tol must be at least 0 and below 1, got {tol}")


def check_symbolic(
    circuit: Circuit, oracle: Oracle, tol: float = DEFAULT_TOL
) -> Optional[EquivalenceVerdict]:
    """Prove the circuit exact against a C^nX or C^nZ table without
    enumerating its inputs, or return None.

    The steps ``check_equivalence`` runs on bit planes (``_signed_steps``),
    with a sign step per window with phases, are run by ``anf.run`` over
    GF(2) polynomials in the k inputs (in the order of
    ``default_computational_qubits``), ending with the table's inverse
    as the miter does.  The algebraic normal form is canonical, so the
    circuit sends every input where the table does, ancillas restored,
    exactly when every computational wire ends as its input and every
    ancilla as 0.  Each window's phases are read as the +-1 they round
    to, whose product is -1 where the sign wire ends as 1, and the
    drifts of all windows sum to a bound on how far each amplitude is
    from that product.

    Returns ``EquivalenceVerdict(EXACT, 0.0)`` when, besides, the sign
    wire ends as 0 and the drifts sum to at most ``tol``.  Returns None
    for any other circuit, for a plan with a lone gate that is not
    X-like, for an oracle that is not a C^nX or C^nZ
    ``ControlledOracle`` of the circuit's arity, and once a product
    outgrows ``anf.MONOMIAL_BUDGET``.  A circuit
    without one target role, and ``tol``, are refused as
    ``check_equivalence`` refuses them.
    """
    _check_tol(tol)
    comp = default_computational_qubits(circuit)
    inverse = _miter_step(oracle, comp)
    steps = None if inverse is None else _signed_steps(circuit, tol)[1]
    if steps is None:
        return None
    steps.append(inverse)
    # computational wire comp[i] starts as input i
    inputs = [frozenset((1 << i,)) for i in range(len(comp))]
    wires = anf.register(circuit.width, comp, inputs, frozenset(), frozenset((0,)))
    start = list(wires)
    try:
        anf.run(steps, wires, anf.times)
    except anf.OverBudget:
        return None
    return EquivalenceVerdict(EquivalenceClass.EXACT, 0.0) if wires == start else None


def _bits(m: int, k: int) -> tuple[int, ...]:
    """The low k bits of m, most significant first."""
    return tuple((m >> (k - 1 - i)) & 1 for i in range(k))


def _call_each(oracle: Oracle, k: int) -> Table:
    """Call the oracle on every input in order, and flatten its dicts
    the way ``ControlledOracle.table`` lays them out."""
    n = 1 << k
    expected = list(map(oracle, product((0, 1), repeat=k)))
    counts = np.fromiter(map(len, expected), dtype=np.int64, count=n)
    out_keys = list(chain.from_iterable(expected))
    bits = np.frombuffer(b"".join(map(bytes, out_keys)), dtype=np.uint8)
    if not counts.all() or set(map(len, out_keys)) != {k} or (bits > 1).any():
        raise ValueError(f"oracle outputs must be non-empty dicts keyed by {k}-bit tuples")
    weights = np.int64(1) << np.arange(k - 1, -1, -1, dtype=np.int64)
    keys = (np.repeat(np.arange(n, dtype=np.int64) << k, counts)
            | bits.reshape(len(out_keys), k).astype(np.int64) @ weights)
    amps = np.fromiter(chain.from_iterable(map(dict.values, expected)),
                       dtype=complex, count=len(out_keys))
    return counts, keys, amps


def _classify(
    k: int,
    expected: Table,
    got: tuple[np.ndarray, np.ndarray],
    tol: float,
) -> EquivalenceVerdict:
    """Fit one phase per input, then classify by how the phases behave.

    Every check that ends neither at an ancilla left set nor at a miter
    is read here: sparse outputs, and bit-plane outputs against any
    oracle but a C^nX or C^nZ table.  The circuit's and the oracle's
    keys are merged into one sorted union, so each input's outputs are
    grouped whatever their order.

    For each input in order: the anchor is the oracle's largest
    amplitude (the first such key in the oracle's order); the input
    fails if the circuit puts no amplitude on it, if the fitted phase is
    not of unit magnitude, or if the output differs from the phased
    oracle.  The floating-point operations are those of Python complex
    arithmetic, in the same order, so deviations come out the same as
    comparing dicts one input at a time.
    """
    counts, exp_keys, exp_amps = expected
    n = len(counts)
    got_keys, got_amps = got
    size = _abs(exp_amps)
    starts = np.cumsum(counts) - counts
    top = np.maximum.reduceat(size, starts)
    at = np.where(size == np.repeat(top, counts), np.arange(len(size)), len(size))
    anchor = np.minimum.reduceat(at, starts)
    # union of the circuit's and the oracle's outputs, grouped by input
    union, where = np.unique(np.concatenate((got_keys, exp_keys)), return_inverse=True)
    g = np.zeros(len(union), dtype=complex)
    g[where[:len(got_keys)]] = got_amps
    e = np.zeros(len(union), dtype=complex)
    e[where[len(got_keys):]] = exp_amps
    owner = union >> k
    groups = np.searchsorted(owner, np.arange(n))
    want_keys, want = exp_keys[anchor], exp_amps[anchor]
    seen = g[np.searchsorted(union, want_keys)]
    if not top.all():
        raise ValueError("oracle output has no nonzero amplitude")

    def deviation(phase) -> np.ndarray:
        return _abs(g - _mul(phase, e))

    with np.errstate(divide="ignore", invalid="ignore"):
        phase = _div(seen, want)
        scale = _abs(phase)
        off = np.abs(scale - 1.0)
        phase = _div(phase, _complex(scale, np.zeros_like(scale)))
        dev = np.maximum.reduceat(deviation(phase[owner]), groups)
    # the engines drop every amplitude of magnitude at most tol
    missing = _abs(seen) <= tol
    failed = missing | (off > tol) | (dev > tol)
    if failed.any():
        m = int(np.argmax(failed))
        if missing[m]:
            key = _bits(int(want_keys[m]), k)
            deviation_m, detail = float(_abs(want[m])), f"no amplitude on expected output {key}"
        elif off[m] > tol:
            deviation_m, detail = float(off[m]), "amplitude magnitude differs from oracle"
        else:
            deviation_m, detail = float(dev[m]), "output superposition differs from oracle"
        return EquivalenceVerdict(
            EquivalenceClass.MISMATCH, deviation_m, Mismatch(_bits(m, k), detail)
        )

    exact_dev = float(deviation(np.complex128(1.0)).max())
    if exact_dev <= tol:
        return EquivalenceVerdict(EquivalenceClass.EXACT, exact_dev)
    global_dev = float(deviation(phase[0]).max())
    if global_dev <= tol:
        return EquivalenceVerdict(EquivalenceClass.GLOBAL_PHASE, global_dev)
    return EquivalenceVerdict(EquivalenceClass.DIAGONAL_PHASE, float(dev.max()))


# Complex arithmetic on arrays written out over real and imaginary parts,
# step for step as CPython does it for complex numbers (``abs`` is
# hypot; ``/`` is Smith's method), so results match to the last bit.

def _abs(z: np.ndarray) -> np.ndarray:
    return np.hypot(z.real, z.imag)


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    z = np.empty(np.shape(re), dtype=complex)
    z.real = re
    z.imag = im
    return z


def _mul(a, b: np.ndarray) -> np.ndarray:
    return _complex(a.real * b.real - a.imag * b.imag,
                    a.real * b.imag + a.imag * b.real)


def _div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    by_real = np.abs(b.real) >= np.abs(b.imag)
    ratio = np.where(by_real, b.imag / b.real, b.real / b.imag)
    re_num = np.where(by_real, a.real + a.imag * ratio, a.real * ratio + a.imag)
    im_num = np.where(by_real, a.imag - a.real * ratio, a.imag * ratio - a.real)
    denom = np.where(by_real, b.real + b.imag * ratio, b.real * ratio + b.imag)
    return _complex(re_num / denom, im_num / denom)
