"""Cycle-based construction of multi-controlled NOTs.

The ladder spends one process ancilla per joined control.  The cycle
scheme trades Toffolis for ancillas: the controls beyond the first are
split into groups, each group (plus the running partial product) is
ANDed into a fresh cycle ancilla by a short ladder over a shared
process pool, and only the final group fires the target.  Re-running
the group blocks in reverse order clears the cycle ancillas, since each
block XORs its AND onto its output.  The two-cycle split is the same
shape with two half-size blocks.  Both are AND-block plans, executed by
``ladder.build_plan``; the ``ladder`` docstring gives their register
layout.  All ancillas are clean: they start at |0> and are restored.
"""

from __future__ import annotations

import math

from .decomp import GateBasis
from .ir import Circuit, CircuitMeta
from .ladder import CyclePlan, block_counts, build_plan, lowered_ops, plan_blocks


def group_sizes(n: int, c: int) -> list[int]:
    """Sizes of the c control groups, ascending, as even as possible.

    The n-1 controls beyond the first are divided; remainders go to the
    later groups so the final (firing) group is never the small one.
    """
    if not 1 <= c <= n - 1:
        raise ValueError(f"group count must be in 1..{n - 1}, got {c}")
    q, r = divmod(n - 1, c)
    return [q] * (c - r) + [q + 1] * r


def best_cycle_count(n: int) -> int:
    """Cycle count minimizing the ancilla total: floor of sqrt(n-1),
    computed with the exact integer square root."""
    if n < 2:
        raise ValueError("need at least two controls")
    return max(math.isqrt(n - 1), 1)


def plan_cycles(n: int, c: int) -> CyclePlan:
    """Plan build_cycle_cnx(n, c).

    Block k ANDs its group with what it carries: the running product in
    the cycle ancilla of block k-1 (all but the first block) and, for
    the final block, the first control, which rides the firing Toffoli.
    The groups being ascending, the repeated blocks are the cheapest
    ones, with ties broken toward the lowest index.
    """
    if n < 2:
        raise ValueError("need at least two controls")
    blocks, start = [], 1
    for k, size in enumerate(group_sizes(n, c)):
        carried = (n + k,) if k > 0 else ()
        blocks.append((*range(start, start + size), *carried))
        start += size
    blocks[-1] += (0,)
    return plan_blocks(CircuitMeta(scheme="cycle", n=n, c=c), blocks)


def cycle_ops(n: int, c: int, basis: GateBasis) -> int:
    """``plan_cycles(n, c).ops(basis)`` from the block widths alone,
    with no plan: each block is its group, plus the running product for
    all but the first block and the first control for the final one."""
    widths = [size + (k > 0) for k, size in enumerate(group_sizes(n, c))]
    widths[-1] += 1
    return lowered_ops(basis, *block_counts(widths))


def plan_two_cycle(n: int) -> CyclePlan:
    """Plan build_two_cycle_cnx(n): the first f = ceil(n/2) controls
    into the joining ancilla, then the other m = n-f with it into the
    target, so the block widths are (f, m+1)."""
    if n < 3:
        raise ValueError("the two-cycle split needs at least three controls")
    f = (n + 1) // 2
    blocks = [tuple(range(f)), (*range(f, n), n + 1)]
    return plan_blocks(CircuitMeta(scheme="two-cycle", n=n), blocks)


def build_cycle_cnx(n: int, c: int) -> Circuit:
    """n-controlled NOT with c cycles.

    c=1 degenerates to a single ladder over all controls.  Larger c
    shrinks the process pool (the widest block shortens) at the price
    of extra Toffolis for the repeated blocks.
    """
    return build_plan(plan_cycles(n, c))


def build_cycle_cnx_auto(n: int) -> Circuit:
    """Cycle build at the ancilla-minimizing cycle count."""
    if n < 3:
        raise ValueError("automatic cycle choice needs n >= 3")
    return build_cycle_cnx(n, best_cycle_count(n))


def build_two_cycle_cnx(n: int) -> Circuit:
    """n-controlled NOT from two half-size blocks and one joining
    ancilla.

    The first half of the controls is ANDed into the joining ancilla,
    the second half plus the ancilla fires the target, and the first
    block repeats to clean up.  The half split keeps both blocks as
    short as possible.
    """
    return build_plan(plan_two_cycle(n))
