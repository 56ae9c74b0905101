"""Cycle-based construction of multi-controlled NOTs.

The ladder spends one process ancilla per joined control.  The cycle
scheme trades Toffolis for ancillas: the controls beyond the first are
split into groups, each group (plus the running partial product) is
ANDed into a fresh cycle ancilla by a short ladder over a shared
process pool, and only the final group fires the target.  Re-running
the group blocks in reverse order clears the cycle ancillas, since each
block XORs its AND onto its output.

Register layout for n controls and c groups: controls 0..n-1, target n,
cycle ancillas next (c-1 of them), then the shared process pool sized
by the widest block.

All ancillas are clean: they start at |0> and are restored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .decomp import TOFFOLI_LENGTHS, GateBasis
from .ir import (
    Circuit,
    CircuitMeta,
    Gate,
    QubitRole,
    append,
    cnot,
    new_circuit,
    toffoli,
)


def group_sizes(n: int, c: int) -> list[int]:
    """Sizes of the c control groups, ascending, as even as possible.

    The n-1 controls beyond the first are divided; remainders go to the
    later groups so the final (firing) group is never the small one.
    """
    if not 1 <= c <= n - 1:
        raise ValueError(f"group count must be in 1..{n - 1}, got {c}")
    q, r = divmod(n - 1, c)
    return [q] * (c - r) + [q + 1] * r


@dataclass(frozen=True)
class CyclePlan:
    """Layout and exact costs of a cycle-scheme build, before any gate
    is emitted; build_cycle_cnx executes it.

    ``group_sizes`` is ascending; ``repeated_cycles`` are the indices of
    the blocks run twice (compute and uncompute), which are exactly the
    non-final ones and, the sizes being ascending, the cheapest ones
    with ties broken toward the lowest index.  ``block_widths`` are the
    AND blocks' input counts: a group plus the running product (all but
    the first block), and for the final block also the first control.
    The process pool is sized by the widest block.

    The counts are those of the built circuit, not a floored average:
    ``toffoli_total`` Toffolis, of which ``paired`` are members of the
    mirror pairs that peres_pairing finds and ``unpaired`` are not, and
    ``copies`` CNOTs from single-input blocks.  ``ops(basis)`` is the
    exact gate count of the build lowered to ``basis``.
    """

    n: int
    c: int
    group_sizes: tuple[int, ...]
    repeated_cycles: tuple[int, ...]
    block_widths: tuple[int, ...]
    cycle_ancillas: int
    process_ancillas: int
    ancilla_budget: int
    toffoli_total: int
    paired: int
    unpaired: int
    copies: int

    def ops(self, basis: GateBasis) -> int:
        """Gate count of the build lowered to ``basis``."""
        paired_length, unpaired_length = TOFFOLI_LENGTHS[basis]
        return (paired_length * self.paired + unpaired_length * self.unpaired
                + self.copies)


def plan_cycles(n: int, c: int) -> CyclePlan:
    """Plan build_cycle_cnx(n, c): its layout and its exact counts."""
    if n < 2:
        raise ValueError("need at least two controls")
    sizes = group_sizes(n, c)
    widths = [size + (k > 0) for k, size in enumerate(sizes)]
    widths[-1] += 1
    pool = max(widths) - 2
    # a block over m >= 3 inputs is a ladder whose m-2 chain Toffolis
    # pair with their mirrors around the one Toffoli that writes its
    # output; a repeated block runs twice, and a lone Toffoli (m = 2)
    # then pairs with its rerun
    paired = unpaired = copies = 0
    for m in widths[:-1]:
        if m == 1:
            copies += 2
        elif m == 2:
            paired += 2
        else:
            paired += 4 * (m - 2)
            unpaired += 2
    paired += 2 * (widths[-1] - 2)
    unpaired += 1
    return CyclePlan(
        n=n,
        c=c,
        group_sizes=tuple(sizes),
        repeated_cycles=tuple(range(c - 1)),
        block_widths=tuple(widths),
        cycle_ancillas=c - 1,
        process_ancillas=pool,
        ancilla_budget=c - 1 + pool,
        toffoli_total=paired + unpaired,
        paired=paired,
        unpaired=unpaired,
        copies=copies,
    )


def build_cycle_cnx_auto(n: int) -> Circuit:
    """Cycle build at the ancilla-minimizing cycle count, the integer
    square root of n-1."""
    if n < 3:
        raise ValueError("automatic cycle choice needs n >= 3")
    return build_cycle_cnx(n, max(math.isqrt(n - 1), 1))


def _and_block(inputs: list[int], out: int, pool: list[int]) -> list[Gate]:
    """XOR the AND of ``inputs`` onto ``out``.

    Ladder over the process pool; the pool is used and fully restored
    within the block.  A single input degenerates to a copy.
    """
    m = len(inputs)
    if m == 1:
        return [cnot(inputs[0], out)]
    if m == 2:
        return [toffoli(inputs[0], inputs[1], out)]
    chain = [toffoli(inputs[0], inputs[1], pool[0])]
    for j in range(1, m - 2):
        chain.append(toffoli(pool[j - 1], inputs[j + 1], pool[j]))
    out_gate = toffoli(pool[m - 3], inputs[m - 1], out)
    return chain + [out_gate] + chain[::-1]


def build_cycle_cnx(n: int, c: int) -> Circuit:
    """n-controlled NOT with c cycles.

    c=1 degenerates to a single ladder over all controls.  Larger c
    shrinks the process pool (the widest block shortens) at the price
    of extra Toffolis for the repeated blocks.
    """
    plan = plan_cycles(n, c)
    target = n
    cycle_anc = [n + 1 + k for k in range(c - 1)]
    pool_size = plan.process_ancillas
    pool = [n + c + j for j in range(pool_size)]

    # block k ANDs its share of the controls with what it carries: the
    # running product (all but the first block) and, for the final
    # block, the first control, which rides the firing Toffoli.
    block_inputs: list[list[int]] = []
    next_control = 1
    for k, width in enumerate(plan.block_widths):
        carried = [cycle_anc[k - 1]] if k > 0 else []
        if k == c - 1:
            carried.append(0)
        take = width - len(carried)
        block_inputs.append(list(range(next_control, next_control + take)) + carried)
        next_control += take
    final_inputs = block_inputs.pop()

    roles = (
        [QubitRole.CONTROL] * n
        + [QubitRole.TARGET]
        + [QubitRole.CYCLE_ANCILLA] * (c - 1)
        + [QubitRole.PROCESS_ANCILLA] * pool_size
    )
    circ = new_circuit(roles, CircuitMeta(scheme="cycle", n=n, c=c))

    forward: list[Gate] = []
    for k in range(c - 1):
        forward.extend(_and_block(block_inputs[k], cycle_anc[k], pool))
    fire = _and_block(final_inputs, target, pool)
    backward: list[Gate] = []
    for k in range(c - 2, -1, -1):
        backward.extend(_and_block(block_inputs[k], cycle_anc[k], pool))
    return append(circ, *forward, *fire, *backward)


def build_two_cycle_cnx(n: int) -> Circuit:
    """n-controlled NOT from two half-size blocks and one joining
    ancilla.

    The first half of the controls is ANDed into the joining ancilla,
    the second half plus the ancilla fires the target, and the first
    block repeats to clean up.  The half split keeps both blocks as
    short as possible.
    """
    if n < 3:
        raise ValueError("the two-cycle split needs at least three controls")
    f = (n + 1) // 2
    m = n - f
    target = n
    join = n + 1
    pool_size = max(f - 2, m - 1, 0)
    pool = [n + 2 + j for j in range(pool_size)]

    roles = (
        [QubitRole.CONTROL] * n
        + [QubitRole.TARGET]
        + [QubitRole.CYCLE_ANCILLA]
        + [QubitRole.PROCESS_ANCILLA] * pool_size
    )
    circ = new_circuit(roles, CircuitMeta(scheme="two-cycle", n=n))

    first = _and_block(list(range(f)), join, pool)
    second = _and_block(list(range(f, n)) + [join], target, pool)
    return append(circ, *first, *second, *first)
