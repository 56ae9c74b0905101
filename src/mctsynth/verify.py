"""Brute-force functional verification.

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
engines.  Circuits built purely from X-like gates map basis states to
basis states, so they are bit-sliced: each wire is a row of uint64
words, each word holding the wire's value under 64 inputs, and each
gate is one AND/XOR over rows.  The inputs are laid out a word at a
time: each of the low six input bits is one constant word, and each
higher bit makes a word of all ones or all zeros.  Anything
containing CV, CU, or local rotations is evolved as flat (input, basis
index, amplitude) entries, one step at a time.  Most steps are windows:
runs of consecutive gates on at most three qubits whose product is
monomial, one nonzero entry per column.  Every decomposed Toffoli is
such a product (Barenco et al. 1995; the relative-phase form is a
Toffoli times a diagonal, Maslov 2016), so a window moves each entry
with one XOR and rescales it by one phase, both looked up by the
entry's bits on the window's qubits, and never grows the support.  Each
window is the longest monomial prefix of its run, not the whole run,
so it ends where a decomposed Toffoli ends; a run's product is worked
out once per shape and call.  A gate that starts no window is applied
alone: permutation and diagonal gates move or rescale entries in place,
and mixing gates split entries and merge the duplicates.  An input
whose support outgrows a cap is simulated again on a dense statevector,
which is where the width cap matters.

The expected outputs are arrays too.  The built-in C^nX and C^nU oracles
(``ControlledOracle``) are tabulated from n and the 2x2 alone; any other
oracle is called once per input, in input order, and its dicts are
flattened into the same layout.  Both engines' outputs are compared with
that table by the same array operations.  The one exception is a
classical circuit checked against a ``ControlledOracle`` whose table
is one-to-one with amplitude 1 (C^nX, or C^nU with U = X) at a
tolerance between 0 and 1: its verdict is read off the words.  Each
computational wire is XORed with its input pattern, corrected at the
two inputs the table moves, and the lowest input left with a
difference is the witness.  That is the verdict the table comparison
gives, as an integer computation.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum
from itertools import chain, islice, product
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .ir import (
    Circuit,
    Gate,
    Matrix2,
    QubitRole,
    X_LIKE_KINDS,
    as_array,
    as_matrix2,
    MAT_X,
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


def resolve_max_width(requested: Optional[int] = None) -> int:
    """The simulation cap: ``requested``, else ``MCT_MAX_WIDTH``, else
    the default; a cap below 1 is refused."""
    if requested is not None:
        cap, source = requested, "max_width"
    else:
        env = os.environ.get("MCT_MAX_WIDTH")
        if not env:
            return DEFAULT_MAX_WIDTH
        try:
            cap, source = int(env), "MCT_MAX_WIDTH"
        except ValueError:
            raise ValueError(f"MCT_MAX_WIDTH must be an integer, got {env!r}") from None
    if cap < 1:
        raise ValueError(f"{source} must be at least 1, got {cap}")
    return cap


# ---------------------------------------------------------------------------
# statevector engine

def apply(circuit: Circuit, state: np.ndarray) -> np.ndarray:
    """Apply the whole circuit to a statevector of length 2**width."""
    width = circuit.width
    if state.shape != (2**width,):
        raise ValueError(f"state length {state.shape} does not match width {width}")
    psi = state.astype(complex).reshape((2,) * width)
    for gate in circuit.gates:
        controls, target = gate.controls, gate.target
        sel: list = [slice(None)] * width
        for c in controls:
            sel[c] = 1
        sub = psi[tuple(sel)]
        # position of the target axis after the control axes are fixed
        tpos = target - sum(1 for c in controls if c < target)
        view = np.moveaxis(sub, tpos, 0)
        updated = np.tensordot(as_array(gate.action), view, axes=([1], [0]))
        view[...] = updated
    return psi.reshape(-1)


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
    """Dense unitary of the circuit, column by column.  Only sensible
    for small widths; the cap is deliberate."""
    width = circuit.width
    if width > max_width:
        raise WidthLimitError(f"width {width} exceeds unitary cap {max_width}")
    dim = 2**width
    out = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        e = np.zeros(dim, dtype=complex)
        e[col] = 1.0
        out[:, col] = apply(circuit, e)
    return out


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


# word j has bit b set iff bit j of b is: input bit j over the 64
# inputs of any word, for the low six bits of the input number
_LOW_WORDS = np.array(
    [sum(1 << b for b in range(64) if b >> j & 1) for j in range(6)], dtype=np.uint64
)
_ONES = np.uint64((1 << 64) - 1)


def _run_classical(
    circuit: Circuit,
    comp: Sequence[int],
    ancillas: Sequence[int],
    moved: Optional[dict[int, int]] = None,
) -> tuple:
    """Bit-sliced propagation, a block of inputs at a time.  Each wire
    is a row of uint64 words, bit b of word w holding its value under
    input lo + 64w + b, and each gate is one AND/XOR over rows.

    Returns (failure, got) as the sparse engine does.  With ``moved``,
    the inputs a permutation table does not map to themselves and the
    outputs it maps them to, got is instead the lowest input whose
    output differs from the table's, or None."""
    k = len(comp)
    n_inputs = 1 << k
    steps = [(g.controls, g.target) for g in circuit.gates]
    rows, spare = list(comp), list(ancillas)
    per_block = max(_ENTRY_BUDGET >> 6, 1) << 6
    out = np.zeros(n_inputs if moved is None else 0, dtype=np.int64)
    mismatch = None
    for lo in range(0, n_inputs, per_block):
        count = min(per_block, n_inputs - lo)
        n_words = -(-count // 64)
        # comp[k-1-j] carries input bit j: a constant word below bit 6,
        # and above it all ones or all zeros by the word's number
        word_no = np.arange(lo >> 6, (lo >> 6) + n_words, dtype=np.uint64)
        pattern = np.empty((k, n_words), dtype=np.uint64)
        for j in range(k):
            pattern[k - 1 - j] = _LOW_WORDS[j] if j < 6 else (word_no >> (j - 6) & 1) * _ONES
        valid = np.full(n_words, _ONES)
        if count % 64:
            valid[-1] = (1 << count % 64) - 1
        wires = np.zeros((circuit.width, n_words), dtype=np.uint64)
        wires[rows] = pattern
        for controls, target in steps:
            if not controls:
                wires[target] ^= _ONES
                continue
            flip = wires[controls[0]]
            for c in controls[1:]:
                flip = flip & wires[c]
            wires[target] ^= flip
        dirty = _lowest(np.bitwise_or.reduce(wires[spare], axis=0) & valid)
        if dirty is not None:
            return (lo + dirty, 1.0), None
        if moved is None:
            block = out[lo:lo + count]
            for q in comp:
                as_bytes = wires[q].astype("<u8", copy=False).view(np.uint8)
                block <<= 1
                block |= np.unpackbits(as_bytes, bitorder="little")[:count]
        elif mismatch is None:
            for m, want in moved.items():
                if lo <= m < lo + count:
                    w, b = divmod(m - lo, 64)
                    for i, bit in enumerate(_bits(want, k)):
                        word = int(pattern[i, w])
                        pattern[i, w] = word | 1 << b if bit else word & ~(1 << b)
            diff = _lowest(np.bitwise_or.reduce(wires[rows] ^ pattern, axis=0) & valid)
            if diff is not None:
                mismatch = lo + diff
    if moved is not None:
        return None, mismatch
    masks = np.arange(n_inputs, dtype=np.int64)
    return None, ((masks << k) | out, np.ones(n_inputs, dtype=complex))


def _lowest(words: np.ndarray) -> Optional[int]:
    """Number of the lowest set bit over the words, or None."""
    nonzero = np.flatnonzero(words)
    if not len(nonzero):
        return None
    w = int(words[nonzero[0]])
    return 64 * int(nonzero[0]) + (w & -w).bit_length() - 1


# give up on an input's sparse entries once this many basis states
# carry amplitude; the dense engine takes over for that input
_SPARSE_SUPPORT_CAP = 4096

# amplitudes this small are float dust from cancellations; dropping
# them keeps the support tight and perturbs the state far below any
# verification tolerance
_SPARSE_PRUNE = 1e-14


def _sparse_step(
    gate: Gate, width: int, keys: np.ndarray, amps: np.ndarray
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Apply one gate to sparse entries; the flag says whether it mixed
    basis states (and so may have grown the support)."""
    cmask = sum(1 << (width - 1 - c) for c in gate.controls)
    tbit = 1 << (width - 1 - gate.target)
    (a00, a01), (a10, a11) = gate.action
    on = (keys & cmask) == cmask
    diagonal = a01 == 0 and a10 == 0
    if diagonal or (a00 == 0 and a11 == 0):
        # every entry goes to exactly one place: rescale, then move
        from0, from1 = (a00, a11) if diagonal else (a10, a01)
        if from0 != 1 or from1 != 1:
            one = (keys & tbit) != 0
            amps[on & ~one] *= from0
            amps[on & one] *= from1
        if not diagonal:
            keys = keys ^ (on * tbit)
        return keys, amps, False
    if not on.any():
        return keys, amps, False
    # split every entry the gate acts on into both target values, then
    # merge the children that land on the same basis state
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
            np.concatenate((amps[~on], kid_amps[keep])), True)


# a window is a run of consecutive gates on at most this many qubits,
# read at most this many gates ahead of its first gate, so that planning
# stays linear in the gate count
_WINDOW_QUBITS = 3
_WINDOW_SCAN = 32


class _Window(NamedTuple):
    """Gates fused into a generalized permutation of their qubits.  The
    local index of an entry packs its bits at ``shifts``, most
    significant first; its key is XORed with ``flips`` at that index and
    its amplitude times ``phases`` there (None when a table does
    nothing)."""

    shifts: tuple[int, ...]
    flips: Optional[np.ndarray]
    phases: Optional[np.ndarray]


def _window_step(
    w: _Window, keys: np.ndarray, amps: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Apply a window to sparse entries: every entry goes to exactly
    one place, so the support neither grows nor needs merging."""
    loc = (keys >> w.shifts[0]) & 1
    for s in w.shifts[1:]:
        loc = (loc << 1) | ((keys >> s) & 1)
    if w.flips is not None:
        keys = keys ^ w.flips[loc]
    if w.phases is not None:
        amps = amps * w.phases[loc]
    return keys, amps


def _embed(gate: Gate, pos: Sequence[int], d: int) -> np.ndarray:
    """The gate as a 2**d x 2**d matrix, its operands at local positions
    ``pos`` (position 0 is the most significant bit)."""
    mat = gate.action
    cmask = sum(1 << (d - 1 - p) for p in pos[:-1])
    tbit = 1 << (d - 1 - pos[-1])
    u = np.eye(1 << d, dtype=complex)
    for j in range(1 << d):
        if j & cmask == cmask:
            t = int(j & tbit != 0)
            u[j & ~tbit, j] = mat[0][t]
            u[j | tbit, j] = mat[1][t]
    return u


def _monomial(u: np.ndarray) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Row and entry of each column's one entry above the pruning
    threshold, or None when some column has more or fewer."""
    big = np.abs(u) > _SPARSE_PRUNE
    if (np.count_nonzero(big) != len(u) or not big.any(axis=0).all()
            or not big.any(axis=1).all()):
        return None
    rows = big.argmax(axis=0)
    return rows, u[rows, np.arange(len(rows))]


def _fuse(run: Sequence[Gate], shape: Sequence[tuple], embedded: dict) -> Optional[tuple]:
    """The longest prefix of the run whose product is monomial, as its
    gate count, the number of qubits it touches (the first ones in
    order of appearance), and its local XOR bits and phases; None when
    no prefix is.  ``embedded`` memoises each gate's matrix by shape."""
    d = 1 + max(max(pos) for _, _, pos in shape)
    product = np.eye(1 << d, dtype=complex)
    best, used = None, 0
    for count, (gate, part) in enumerate(zip(run, shape), 1):
        if (part, d) not in embedded:
            embedded[part, d] = _embed(gate, part[2], d)
        product = embedded[part, d] @ product
        used = max(used, max(part[2]) + 1)
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
    bits = (diff[:, None] >> np.arange(used - 1, -1, -1)) & 1
    return (count, used, bits if diff.any() else None,
            None if (phases == 1).all() else phases)


def _plan(gates: Sequence[Gate], width: int) -> list[Union[_Window, Gate]]:
    """Split the gates into steps: each step is a ``_Window`` or a lone
    ``Gate``.  A window is the longest prefix, of the run of gates that
    fits on ``_WINDOW_QUBITS`` qubits, whose product is monomial; a gate
    that starts no such prefix goes alone.  Cutting at the longest
    monomial prefix, not at the end of the run, keeps a window from
    taking the first gates of the next decomposed Toffoli.  Runs of the
    same shape (kinds, matrices, and operands numbered by first
    appearance) are fused once."""
    fused: dict[tuple, Optional[tuple]] = {}
    embedded: dict[tuple, np.ndarray] = {}
    steps: list[Union[_Window, Gate]] = []
    i = 0
    while i < len(gates):
        # each qubit's local position, by first appearance
        place: dict[int, int] = {}
        shape = []
        for g in islice(gates, i, i + _WINDOW_SCAN):
            pos = tuple(place.setdefault(q, len(place)) for q in g.qubits)
            if len(place) > _WINDOW_QUBITS:
                break
            shape.append((g.kind, g.matrix, pos))
        key = tuple(shape)
        if key not in fused:
            fused[key] = _fuse(gates[i:i + len(shape)], shape, embedded) if shape else None
        plan = fused[key]
        if plan is None:
            steps.append(gates[i])
            i += 1
            continue
        count, used, bits, phases = plan
        shifts = tuple(width - 1 - q for q in islice(place, used))
        weights = np.int64(1) << np.array(shifts, dtype=np.int64)
        steps.append(_Window(shifts, None if bits is None else bits @ weights, phases))
        i += count
    return steps


def _evolve_sparse(
    circuit: Circuit, comp: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Final sparse entries of every input, keyed (m << width) | basis
    index, and the inputs whose support outgrew the cap (their entries
    are dropped)."""
    width = circuit.width
    steps = _plan(circuit.gates, width)
    n_inputs = 1 << len(comp)
    # work items: first input, end input, next step, entries
    todo = []
    for lo in range(0, n_inputs, _ENTRY_BUDGET):
        masks = np.arange(lo, min(lo + _ENTRY_BUDGET, n_inputs), dtype=np.int64)
        todo.append((lo, lo + len(masks), 0,
                     (masks << width) | _spread(masks, comp, width),
                     np.ones(len(masks), dtype=complex)))
    done_keys, done_amps, overflow = [], [], []
    while todo:
        lo, hi, start, keys, amps = todo.pop()
        for pos in range(start, len(steps)):
            step = steps[pos]
            if isinstance(step, _Window):
                keys, amps = _window_step(step, keys, amps)
                continue
            keys, amps, mixed = _sparse_step(step, width, keys, amps)
            if not mixed:
                continue
            owner = (keys >> width) - lo
            over = np.bincount(owner, minlength=hi - lo) > _SPARSE_SUPPORT_CAP
            if over.any():
                overflow.extend((lo + np.flatnonzero(over)).tolist())
                keys, amps = keys[~over[owner]], amps[~over[owner]]
            if len(keys) > _ENTRY_BUDGET and hi - lo > 1:
                mid = (lo + hi) // 2
                low = (keys >> width) < mid
                todo.append((mid, hi, pos + 1, keys[~low], amps[~low]))
                todo.append((lo, mid, pos + 1, keys[low], amps[low]))
                break
        else:
            done_keys.append(keys)
            done_amps.append(amps)
    return np.concatenate(done_keys), np.concatenate(done_amps), overflow


def _run_sparse(
    circuit: Circuit, comp: Sequence[int], ancillas: Sequence[int], tol: float
) -> tuple:
    """Batched sparse evolution, with the dense statevector for inputs
    whose support outgrew the cap.  Amplitudes of magnitude at most
    ``tol`` are dropped."""
    width = circuit.width
    keys, amps, overflow = _evolve_sparse(circuit, comp)
    all_keys, all_amps = [keys], [amps]
    for m in overflow:
        state = np.zeros(2**width, dtype=complex)
        state[_spread(np.array([m]), comp, width)[0]] = 1.0
        out = apply(circuit, state)
        nz = np.flatnonzero(out)
        all_keys.append((m << width) | nz)
        all_amps.append(out[nz])
    keys, amps = np.concatenate(all_keys), np.concatenate(all_amps)
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
    max_width: Optional[int] = None,
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
    """
    width = circuit.width
    limit = resolve_max_width(max_width)
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
    moved = None
    if is_classical(circuit):
        if 2 * k > 63:
            raise WidthLimitError(f"{k} computational qubits exceed the classical "
                                  f"engine's 63-bit keys")
        if tabulated and 0 < tol < 1:
            moved = _moves(oracle)
        failure, got = _run_classical(circuit, comp, ancillas, moved)
    else:
        if width > limit:
            raise WidthLimitError(f"width {width} exceeds simulation cap {limit}")
        if width + len(comp) > 63:
            raise WidthLimitError(f"width {width} with {len(comp)} inputs "
                                  f"exceeds the sparse engine's 63-bit keys")
        failure, got = _run_sparse(circuit, comp, ancillas, tol)

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
    if moved is not None:
        # what _classify finds for a one-to-one table of amplitude 1:
        # either every output is the table's, or the first input that
        # differs has no amplitude where the table puts its 1
        if got is None:
            return EquivalenceVerdict(EquivalenceClass.EXACT, 0.0)
        want = _bits(moved.get(got, got), k)
        return EquivalenceVerdict(
            EquivalenceClass.MISMATCH,
            1.0,
            Mismatch(_bits(got, k), f"no amplitude on expected output {want}"),
        )
    assert got is not None
    expected = oracle.table() if tabulated else _call_each(oracle, k)
    return _classify(k, expected, got, tol)


def _moves(oracle: ControlledOracle) -> Optional[dict[int, int]]:
    """The two inputs with every control set, each with its output,
    when both outputs are one basis state of amplitude exactly 1; the
    table then maps every other input to itself.  None otherwise."""
    last = (1 << (oracle.n + 1)) - 2
    moved = {}
    for t in (0, 1):
        out = oracle((1,) * oracle.n + (t,))
        if list(out.values()) != [1]:
            return None
        moved[last + t] = last | next(iter(out))[-1]
    return moved


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
    starts = np.cumsum(counts) - counts
    size = _abs(exp_amps)
    top = np.maximum.reduceat(size, starts)
    if not top.all():
        raise ValueError("oracle output has no nonzero amplitude")
    at = np.where(size == np.repeat(top, counts), np.arange(len(size)), len(size))
    anchor = np.minimum.reduceat(at, starts)

    # union of the circuit's and the oracle's outputs, grouped by input;
    # when both hold the same strictly increasing keys, as an exact
    # classical check does, that array is the union and needs no sort
    if np.array_equal(got_keys, exp_keys) and (exp_keys[1:] > exp_keys[:-1]).all():
        union, where = exp_keys, np.tile(np.arange(len(exp_keys)), 2)
    else:
        union, where = np.unique(np.concatenate((got_keys, exp_keys)), return_inverse=True)
    g = np.zeros(len(union), dtype=complex)
    g[where[:len(got_keys)]] = got_amps
    e = np.zeros(len(union), dtype=complex)
    e[where[len(got_keys):]] = exp_amps
    owner = union >> k
    groups = np.searchsorted(owner, np.arange(n))

    def deviation(phase) -> np.ndarray:
        return _abs(g - _mul(phase, e))

    want = exp_amps[anchor]
    seen = g[np.searchsorted(union, exp_keys[anchor])]
    with np.errstate(divide="ignore", invalid="ignore"):
        phase = _div(seen, want)
        scale = _abs(phase)
        off = np.abs(scale - 1.0)
        phase = _div(phase, _complex(scale, np.zeros_like(scale)))
        dev = np.maximum.reduceat(deviation(phase[owner]), groups)
    missing = _abs(seen) < tol
    failed = missing | (off > tol) | (dev > tol)
    if failed.any():
        m = int(np.argmax(failed))
        if missing[m]:
            key = _bits(int(exp_keys[anchor[m]]), k)
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
