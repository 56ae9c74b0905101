"""The step language that both the bit planes and the symbolic proof run.

A step ``(target, products)`` XORs into wire ``target`` the sum of its
products, each the AND of the wires it lists.  Wires 0..width-1 are the
register's qubits; past them, named from the end, come the sign (-5,
``SIGN``), three scratch wires (-2..-4), cleared by the steps that use
them, and the constant 1 (-1).  ``steps`` writes X-like gates and
windows in this language and ``run`` is its one interpreter: what a
wire holds, and how two of them multiply, is the caller's.

Bit planes carry basis states: inputs go in blocks of up to 2**16, each
wire is one Python int whose bit b is its value under the block's input
b, and AND and XOR are the int operators.  An input bit below the block
size is one fixed pattern (``patterns``), built once per process; a
higher bit is all ones or all zeros over the block.

GF(2) polynomials enumerate no input: each wire is the algebraic normal
form of its value in the inputs, a frozenset of monomials, each an int
bitmask of the inputs it multiplies, so XOR is symmetric difference and
AND the product ``times``.  The normal form is canonical, so two wires
agree on every input exactly when their sets are equal.

A window's XOR table and the sign of its phases enter the language
through the same normal form, worked out by the Moebius transform
(``normal_form``) once per fused shape.  This module imports no numpy.
"""

from __future__ import annotations

import functools
import operator
from typing import Callable, Optional, Sequence

from .ir import Gate, X_LIKE_KINDS

# the wire a window's sign step XORs into, below the scratch wires
SIGN = -5

# monomials a product may hold before the symbolic proof gives up; the
# lowered cycle builds at n=16..1024 multiply single monomials only
MONOMIAL_BUDGET = 256


class OverBudget(Exception):
    """Raised by ``times`` past ``MONOMIAL_BUDGET``."""


def register(width: int, comp: Sequence[int], inputs: Sequence, zero, one) -> list:
    """The wires of a register of ``width`` qubits and the five past
    them: computational wire comp[i] starts as inputs[i], the constant
    as ``one``, and every other wire as ``zero``."""
    wires = [zero] * (width + 4) + [one]
    for q, value in zip(comp, inputs):
        wires[q] = value
    return wires


@functools.lru_cache(maxsize=None)
def patterns(size_log: int) -> tuple[int, ...]:
    """Input bit j over the 2**size_log inputs of a block, for every j
    below size_log: bit i of pattern j is bit j of i.  Built once per
    process and block size, by repeating bytes."""
    n_bytes = max(1 << size_log >> 3, 1)
    mask = (1 << (1 << size_log)) - 1
    out = []
    for j in range(size_log):
        if j < 3:
            unit = bytes([sum(1 << b for b in range(8) if b >> j & 1)])
        else:
            half = 1 << (j - 3)
            unit = b"\x00" * half + b"\xff" * half
        out.append(int.from_bytes(unit * (n_bytes // len(unit)), "little") & mask)
    return tuple(out)


def lowest(bits: int) -> int:
    """Number of the lowest set bit of a nonzero int."""
    return (bits & -bits).bit_length() - 1


def normal_form(values: Sequence[int], used: int) -> tuple:
    """The algebraic normal form of a 0/1 function of ``used`` local
    bits, given by its value at each local index (position 0 the most
    significant bit), by the Moebius transform: the products of local
    positions whose XOR it is, (-1,) for the constant 1."""
    anf = list(values)
    for i in range(used):
        bit = 1 << i
        for j in range(len(anf)):
            if j & bit:
                anf[j] ^= anf[j ^ bit]
    return tuple(tuple(q for q in range(used) if j >> (used - 1 - q) & 1) or (-1,)
                 for j, v in enumerate(anf) if v)


def xor_steps(flips: Sequence[int], used: int) -> tuple:
    """A window's XOR table as steps on its local positions, given at
    each local index as the mask of the positions it flips: each
    flipping position XORs in its flip's normal form in the old bits,
    through scratch wires, cleared last, when more than one flips, as
    each reads the others."""
    sums = [(p, products) for p in range(used)
            if (products := normal_form([f >> (used - 1 - p) & 1 for f in flips], used))]
    if len(sums) > 1:
        scratch = range(-2, -2 - len(sums), -1)
        sums = ([(s, products) for s, (_, products) in zip(scratch, sums)]
                + [(p, ((s,),)) for s, (p, _) in zip(scratch, sums)]
                + [(s, ((s,),)) for s in scratch])
    return tuple(sums)


def steps(items) -> Optional[list]:
    """Gates and windows as steps, or None when some gate is not X-like.
    An X-like gate XORs the AND of its controls into its target.  A
    window is any item that is no ``Gate``: it has ``qubits``, and
    ``xor`` and ``sign`` on its local positions, as ``xor_steps`` and
    ``normal_form`` give them.  Each window's steps are put on the
    qubits it carries anew, its sign step, when it has one, before its
    XOR steps, as the sign reads the old bits."""
    out = []
    for s in items:
        if isinstance(s, Gate):
            if s.kind not in X_LIKE_KINDS:
                return None
            out.append((s.target, (s.controls or (-1,),)))
            continue
        # local positions -1..-4 name the wires of those numbers
        at = s.qubits + (-4, -3, -2, -1)
        if s.sign:
            out.append((SIGN, tuple([tuple([at[q] for q in p]) for p in s.sign])))
        for t, ps in s.xor:
            out.append((at[t], tuple([tuple([at[q] for q in p]) for p in ps])))
    return out


def run(steps: Sequence[tuple], wires: list, times: Callable = operator.and_) -> None:
    """Run the steps on ``wires`` in place, each product's wires ANDed
    by ``times``: ints as bit planes by default, and frozensets with
    ``times`` below as GF(2) polynomials."""
    for target, products in steps:
        flip = None
        for product in products:
            term = wires[product[0]]
            for q in product[1:]:
                term = times(term, wires[q])
            flip = term if flip is None else flip ^ term
        wires[target] ^= flip


def times(a: frozenset, b: frozenset) -> set:
    """The product of two GF(2) polynomials held as sets of monomials:
    each pair of monomials multiplies to their union, and pairs that
    meet on the same monomial cancel.  Raises ``OverBudget`` when the
    product holds more than ``MONOMIAL_BUDGET``."""
    out = set()
    for x in a:
        for y in b:
            m = x | y
            if m in out:
                out.remove(m)
            else:
                out.add(m)
    if len(out) > MONOMIAL_BUDGET:
        raise OverBudget
    return out
