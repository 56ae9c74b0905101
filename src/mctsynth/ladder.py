"""Ladder-style multi-controlled gate construction, and the AND-block
plans that every C^nX builder executes.

The ladder computes the AND of the controls into a chain of process
ancillas with Toffolis, applies the payload, and uncomputes the chain
in mirror order.  Every ancilla starts and ends at |0>.

An AND block is such a ladder that XORs the AND of its inputs onto one
output, or, given a 2x2 payload, applies the payload to the output
controlled on that AND.  Each scheme is a ``CyclePlan``, a list of AND
blocks over one shared process pool, and ``build_plan`` runs it as the
standard Barenco et al. construction does: every block but the last
into its own cycle ancilla, the last into the target, then the others
again in reverse.  The ladder is the one-block plan, with or without a
payload; ``cycle`` has the others.  Register layout: controls 0..n-1,
target n, the cycle ancilla of block j at n+1+j, then the process pool,
sized by the widest block.

Also included here are two fixed small networks that realize a Toffoli
and a triply-controlled NOT with a single workspace qubit, by routing
the computation through joint states of the workspace and the last
control.  They are structural set pieces: the workspace temporarily
"parks" population conditioned on a control, the inner Toffolis act on
the combined pair, and the dressing is mirrored so the workspace comes
back clean.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Optional, Sequence

from .decomp import BASES, GateBasis
from .ir import (
    Circuit,
    CircuitMeta,
    Gate,
    Matrix2,
    QubitRole,
    append,
    cnot,
    cu,
    new_circuit,
    toffoli,
    x,
)


def and_block(
    inputs: Sequence[int], out: int, pool: Iterable[int], payload: Optional[Matrix2] = None
) -> list[Gate]:
    """XOR the AND of ``inputs`` onto ``out``, or apply ``payload`` to
    ``out`` controlled on it: Toffolis chain the inputs into the pool,
    one pool qubit per input after the first, one gate writes ``out``
    from the wire left holding the chain's AND, and the chain in mirror
    order restores the pool.  A flip takes the last input on the gate
    that writes ``out``, so its chain stops one short; a single input
    is a copy."""
    flip = payload is None and len(inputs) > 1
    chained = inputs[:-1] if flip else inputs
    gates, wire = [], chained[0]
    for q, p in zip(chained[1:], pool):
        gates.append(toffoli(wire, q, p))
        wire = p
    if flip:
        fire = toffoli(wire, inputs[-1], out)
    else:
        fire = cnot(wire, out) if payload is None else cu(wire, out, payload)
    return gates + [fire] + gates[::-1]


@dataclass(frozen=True)
class CyclePlan:
    """Layout and exact costs of a C^nX build, before any gate is
    emitted; build_plan executes it.

    ``blocks`` holds each AND block's inputs as qubit indices.  The last
    block writes the target, with ``payload`` if there is one; the
    others are the repeated cycles, run once before it and once after,
    each writing its cycle ancilla.  ``block_widths`` are the blocks'
    input counts, and the process pool is sized by the widest block.
    ``meta`` is the built circuit's.

    The counts are those of the built circuit, not a floored average:
    ``toffoli_total`` Toffolis, of which ``paired`` are members of the
    mirror pairs that peres_pairing finds and ``unpaired`` are not, and
    ``copies`` CNOTs from single-input blocks.  ``ops(basis)`` is the
    exact gate count of the build lowered to ``basis``, payload included.
    """

    meta: CircuitMeta
    blocks: tuple[tuple[int, ...], ...]
    block_widths: tuple[int, ...]
    cycle_ancillas: int
    process_ancillas: int
    toffoli_total: int
    paired: int
    unpaired: int
    copies: int
    payload: Optional[Matrix2] = None

    def ops(self, basis: GateBasis) -> int:
        """Gate count of the build lowered to ``basis``."""
        return lowered_ops(basis, self.paired, self.unpaired, self.copies,
                           self.payload is not None)


def block_counts(widths: Sequence[int], payload: bool = False) -> tuple[int, int, int]:
    """(paired, unpaired, copies) of the build that runs AND blocks of
    these input counts, the last one firing, with a payload if
    ``payload``: its Toffolis that are members of the mirror pairs
    peres_pairing finds, its other Toffolis, and the CNOTs of its
    single-input blocks.

    A block over m >= 2 inputs is a ladder whose m-2 chain Toffolis
    pair with their mirrors around the one Toffoli that writes its
    output; a repeated block runs twice, and a lone Toffoli (m = 2)
    then pairs with its rerun.  A single input is a copy.  A payload
    chain runs over all m inputs, so its m-1 Toffolis pair around the
    payload."""
    *repeated, final = widths
    paired = unpaired = copies = 0
    for m in repeated:
        if m == 1:
            copies += 2
        elif m == 2:
            paired += 2
        else:
            paired += 4 * (m - 2)
            unpaired += 2
    if payload:
        paired += 2 * (final - 1)
    elif final == 1:
        copies += 1
    else:
        paired += 2 * (final - 2)
        unpaired += 1
    return paired, unpaired, copies


def lowered_ops(basis: GateBasis, paired: int, unpaired: int, copies: int,
                payload: bool = False) -> int:
    """Gate count, lowered to ``basis``, of a build with these counts
    from ``block_counts``, and a controlled payload if ``payload``."""
    member, lone, cu = BASES[basis].lengths
    return member * paired + lone * unpaired + copies + (cu if payload else 0)


def plan_blocks(
    meta: CircuitMeta, blocks: Sequence[tuple[int, ...]], payload: Optional[Matrix2] = None
) -> CyclePlan:
    """The plan that runs ``blocks`` (the last one firing, with
    ``payload`` if given), with the exact counts of its build."""
    widths = tuple(len(block) for block in blocks)
    final = widths[-1]
    # a payload chain takes one more pool qubit than a flip's
    pool = max(max(widths) - 2, final - 1 if payload is not None else 0, 0)
    paired, unpaired, copies = block_counts(widths, payload is not None)
    return CyclePlan(
        meta=meta,
        blocks=tuple(blocks),
        block_widths=widths,
        cycle_ancillas=len(widths) - 1,
        process_ancillas=pool,
        toffoli_total=paired + unpaired,
        paired=paired,
        unpaired=unpaired,
        copies=copies,
        payload=payload,
    )


def build_plan(plan: CyclePlan) -> Circuit:
    """Execute ``plan``: the repeated blocks, each into its cycle
    ancilla, the last block into the target, then the repeated blocks
    in reverse, which clears the cycle ancillas."""
    n, k = plan.meta.n, plan.cycle_ancillas
    roles = ([QubitRole.CONTROL] * n + [QubitRole.TARGET] + [QubitRole.CYCLE_ANCILLA] * k
             + [QubitRole.PROCESS_ANCILLA] * plan.process_ancillas)
    pool = range(n + 1 + k, len(roles))
    *cycles, final = plan.blocks
    repeated = [and_block(b, out, pool) for b, out in zip(cycles, range(n + 1, n + 1 + k))]
    fire = and_block(final, n, pool, plan.payload)
    gates = chain.from_iterable(repeated + [fire] + repeated[::-1])
    return append(new_circuit(roles, plan.meta), *gates)


def plan_ladder(n: int, payload: Optional[Matrix2] = None) -> CyclePlan:
    """Plan build_cnx(n), or build_cnu(n, payload) when given one: one
    block over all n controls."""
    if n < 1:
        raise ValueError("need at least one control")
    return plan_blocks(CircuitMeta(scheme="ladder", n=n), [tuple(range(n))], payload)


def build_cnx(n: int) -> Circuit:
    """n-controlled NOT via the Toffoli ladder.

    Uses n-2 process ancillas and 2n-3 Toffolis for n >= 2: the chain
    joins controls pairwise until one Toffoli short of the full AND,
    then the last Toffoli fires the target off the deepest ancilla and
    the remaining control, and the chain unwinds.  n=1 is a CNOT.
    """
    return build_plan(plan_ladder(n))


def build_cnu(n: int, matrix: Matrix2) -> Circuit:
    """n-controlled single-qubit unitary via the ladder.

    The chain here runs all the way: the AND of all n controls lands in
    the last process ancilla, the payload is applied to the target
    controlled on that ancilla, and the chain unwinds.  Costs one more
    Toffoli and one more ancilla than the NOT ladder (2n-2 and n-1),
    because the payload is not self-inverse and cannot ride on the
    final chain link the way a plain flip can.
    """
    return build_plan(plan_ladder(n, matrix))


def build_workspace_toffoli() -> Circuit:
    """Toffoli on (c1, c2, t) = qubits (0, 1, 2) with workspace qubit 3.

    The workspace and c2 act as one four-state carrier.  The opening
    block moves the carrier out of the way when c2 is 0; the dressed
    inner Toffolis then single out the one case where both controls
    were 1 and flip the target; everything else mirrors back.
    """
    roles = [
        QubitRole.CONTROL,
        QubitRole.CONTROL,
        QubitRole.TARGET,
        QubitRole.WORKSPACE,
    ]
    circ = new_circuit(roles, CircuitMeta(scheme="workspace-ccx", n=2))
    gates = [
        x(1), cnot(1, 3), x(1),       # workspace <- NOT c2
        x(0), x(3),                    # dress: test for c1=0 / workspace=0
        toffoli(0, 3, 1),
        toffoli(3, 1, 2),              # fire
        toffoli(0, 3, 1),
        x(3), x(0),                    # undress
        x(1), cnot(1, 3), x(1),        # restore workspace
    ]
    return append(circ, *gates)


def build_workspace_c3x() -> Circuit:
    """Triply-controlled NOT on (c1, c2, c3, t) = qubits (0..3) with
    workspace qubit 4.

    Same parking idea one size up: workspace and c3 form the carrier,
    the opening block parks the carrier when c3 is 0, and five dressed
    Toffolis (each acting on both carrier qubits) route the single
    all-controls-on case to the target.
    """
    roles = [
        QubitRole.CONTROL,
        QubitRole.CONTROL,
        QubitRole.CONTROL,
        QubitRole.TARGET,
        QubitRole.WORKSPACE,
    ]
    circ = new_circuit(roles, CircuitMeta(scheme="workspace-c3x", n=3))
    gates = [
        x(2), cnot(2, 4), x(2),        # park: workspace <- NOT c3
        x(0), x(1), x(4),              # dress
        toffoli(0, 4, 2),
        toffoli(1, 2, 4),
        toffoli(4, 2, 3),              # fire
        toffoli(1, 2, 4),
        toffoli(0, 4, 2),
        x(4), x(1), x(0),              # undress
        x(2), cnot(2, 4), x(2),        # unpark
    ]
    return append(circ, *gates)
