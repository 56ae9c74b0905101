"""Cycle-scheme builders and their plans."""

import math
from itertools import chain

import pytest

from mctsynth.costs import ladder_ops_form, two_cycle_toffoli_form
from mctsynth.cycle import (
    build_cycle_cnx,
    build_cycle_cnx_auto,
    build_two_cycle_cnx,
    group_sizes,
    plan_cycles,
    plan_two_cycle,
)
from mctsynth.decomp import GateBasis, lower_circuit, peres_pairing
from mctsynth.ir import MAT_V, NAMED_UNITARIES, GateKind, QubitRole, count_gates
from mctsynth.ladder import build_cnu, build_cnx, plan_ladder
from mctsynth.verify import EquivalenceClass, check_equivalence, oracle_cnx


def _plan_grid():
    """Every c for n=3..40; the ends and the best count's neighbours
    for n=41..79."""
    for n in range(3, 41):
        for c in range(1, n):
            yield n, c
    for n in range(41, 80):
        best = math.isqrt(n - 1)
        for c in sorted({1, 2, best - 1, best, best + 1, n - 1}):
            yield n, c


def _ladder_and_two_cycle_plans():
    """Ladder plans for n=1..79, C^nU ladder plans for n=1..12 and every
    named unitary, and two-cycle plans for n=3..79, each with its
    build."""
    for n in range(1, 80):
        yield plan_ladder(n), build_cnx(n)
    for n in range(1, 13):
        for matrix in NAMED_UNITARIES.values():
            yield plan_ladder(n, matrix), build_cnu(n, matrix)
    for n in range(3, 80):
        yield plan_two_cycle(n), build_two_cycle_cnx(n)


def _ancilla_count(circ):
    return sum(
        1
        for r in circ.roles
        if r in (QubitRole.CYCLE_ANCILLA, QubitRole.PROCESS_ANCILLA)
    )


class TestGroupSizes:
    def test_examples(self):
        assert group_sizes(11, 3) == [3, 3, 4]
        assert group_sizes(9, 2) == [4, 4]
        assert group_sizes(10, 3) == [3, 3, 3]
        assert group_sizes(5, 4) == [1, 1, 1, 1]
        assert group_sizes(8, 3) == [2, 2, 3]

    def test_ascending_and_complete(self):
        for n in range(3, 20):
            for c in range(1, n):
                sizes = group_sizes(n, c)
                assert sizes == sorted(sizes)
                assert sum(sizes) == n - 1
                assert len(sizes) == c
                assert max(sizes) - min(sizes) <= 1

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            group_sizes(5, 0)
        with pytest.raises(ValueError):
            group_sizes(5, 5)


# Toffoli totals the builders actually produce; every total is odd
# because each block costs an odd number (or none)
FROZEN_TOFFOLIS = {
    (3, 1): 3,
    (5, 2): 7,
    (9, 2): 19,
    (9, 3): 19,
    (11, 3): 25,
    (17, 4): 47,
    (26, 5): 79,
    (37, 6): 119,
    (50, 7): 167,
}


class TestBuildCycle:
    def test_frozen_toffoli_counts(self):
        for (n, c), want in FROZEN_TOFFOLIS.items():
            circ = build_cycle_cnx(n, c)
            assert count_gates(circ, GateKind.TOFFOLI) == want, (n, c)

    def test_counts_always_odd(self):
        for n in range(3, 16):
            for c in range(1, n):
                total = count_gates(build_cycle_cnx(n, c), GateKind.TOFFOLI)
                assert total % 2 == 1, (n, c)

    def test_roles_and_ancillas(self):
        circ = build_cycle_cnx(11, 3)
        assert circ.indices_with_role(QubitRole.CONTROL) == tuple(range(11))
        assert circ.indices_with_role(QubitRole.TARGET) == (11,)
        assert len(circ.indices_with_role(QubitRole.CYCLE_ANCILLA)) == 2
        assert len(circ.indices_with_role(QubitRole.PROCESS_ANCILLA)) == 4
        assert _ancilla_count(circ) == 6

    def test_single_cycle_matches_ladder_shape(self):
        circ = build_cycle_cnx(6, 1)
        assert count_gates(circ, GateKind.TOFFOLI) == 2 * 6 - 3
        assert _ancilla_count(circ) == 4

    def test_operand_palindrome(self):
        for n, c in [(7, 2), (9, 3), (11, 3), (8, 3)]:
            ops = [g.qubits for g in build_cycle_cnx(n, c).gates]
            assert ops == ops[::-1], (n, c)

    def test_size_one_groups_use_cnot_copies(self):
        circ = build_cycle_cnx(5, 4)
        assert count_gates(circ, GateKind.CNOT) > 0

    @pytest.mark.parametrize(
        "n,c", [(3, 1), (3, 2), (4, 2), (5, 2), (6, 3), (7, 2), (8, 3), (9, 3)]
    )
    def test_equivalence(self, n, c):
        v = check_equivalence(build_cycle_cnx(n, c), oracle_cnx(n))
        assert v.klass is EquivalenceClass.EXACT

    def test_rejects_one_control(self):
        with pytest.raises(ValueError):
            build_cycle_cnx(1, 1)

    def test_meta(self):
        m = build_cycle_cnx(9, 3).meta
        assert (m.scheme, m.n, m.c) == ("cycle", 9, 3)


def _group_sizes(plan):
    """Controls each block takes, not counting the first control."""
    n = plan.meta.n
    return [sum(0 < q < n for q in block) for block in plan.blocks]


class TestPlanCycles:
    def test_plan_matches_build(self):
        cycles = [(plan_cycles(n, c), build_cycle_cnx(n, c))
                  for n in range(3, 13) for c in range(1, n)]
        for plan, circ in cycles + list(_ladder_and_two_cycle_plans()):
            assert circ.meta == plan.meta
            assert plan.toffoli_total == count_gates(circ, GateKind.TOFFOLI), plan.meta
            assert plan.cycle_ancillas == len(
                circ.indices_with_role(QubitRole.CYCLE_ANCILLA)
            )
            assert plan.process_ancillas == len(
                circ.indices_with_role(QubitRole.PROCESS_ANCILLA)
            )
            assert plan.cycle_ancillas + plan.process_ancillas == _ancilla_count(circ)
            if plan.meta.scheme == "cycle":
                assert _group_sizes(plan) == group_sizes(plan.meta.n, plan.meta.c)

    def test_counts_by_hand(self):
        # widths (2, 4): the repeated lone Toffoli pairs with its rerun,
        # the final ladder pairs 2 of its 3 Toffolis twice over
        plan = plan_cycles(5, 2)
        assert plan.block_widths == (2, 4)
        assert (plan.paired, plan.unpaired, plan.copies) == (6, 1, 0)
        assert plan.ops(GateBasis.NATIVE_TOFFOLI) == plan.toffoli_total == 7
        assert plan.ops(GateBasis.CV_BASIS) == 4 * 6 + 5 == 29
        assert plan.ops(GateBasis.CNOT_LOCAL) == 7 * 6 + 15 == 57
        # widths (1, 2, 3): a single-input block is a copy, run twice
        plan = plan_cycles(4, 3)
        assert plan.block_widths == (1, 2, 3)
        assert (plan.paired, plan.unpaired, plan.copies) == (4, 1, 2)
        assert plan.ops(GateBasis.CV_BASIS) == 4 * 4 + 5 + 2
        # a one-input ladder is a lone copy
        plan = plan_ladder(1)
        assert plan.block_widths == (1,)
        assert (plan.paired, plan.unpaired, plan.copies) == (0, 0, 1)
        # a payload ladder chains all 4 inputs, so its 3 chain Toffolis
        # pair around the payload, which lowers like any CU
        plan = plan_ladder(4, MAT_V)
        assert (plan.paired, plan.unpaired, plan.copies) == (6, 0, 0)
        assert plan.process_ancillas == 3
        assert plan.ops(GateBasis.NATIVE_TOFFOLI) == 6 + 1
        assert plan.ops(GateBasis.CV_BASIS) == 4 * 6 + 6
        assert plan.ops(GateBasis.CNOT_LOCAL) == 7 * 6 + 6
        # with one input the payload is the whole build
        plan = plan_ladder(1, MAT_V)
        assert (plan.paired, plan.unpaired, plan.copies, plan.process_ancillas) == (0, 0, 0, 0)
        assert plan.ops(GateBasis.CV_BASIS) == 6

    def test_counts_match_pairing_and_lowering(self):
        cycles = ((plan_cycles(n, c), build_cycle_cnx(n, c)) for n, c in _plan_grid())
        for plan, circ in chain(cycles, _ladder_and_two_cycle_plans()):
            pairing = peres_pairing(circ)
            assert (plan.paired, plan.unpaired) == (
                2 * len(pairing.pairs), len(pairing.unpaired)
            ), plan.meta
            assert plan.toffoli_total == plan.paired + plan.unpaired
            assert plan.copies == count_gates(circ, GateKind.CNOT), plan.meta
            for basis in GateBasis:
                assert plan.ops(basis) == len(lower_circuit(circ, basis).gates), (
                    plan.meta, basis)
        for n in range(2, 80):
            for basis in GateBasis:
                assert plan_ladder(n).ops(basis) == ladder_ops_form(n, basis), (n, basis)
        for n in range(3, 80):
            assert plan_two_cycle(n).toffoli_total == two_cycle_toffoli_form(n), n

    def test_repeated_cycles_are_the_cheap_ones(self):
        plan = plan_cycles(11, 3)
        # every block but the last is repeated, each into its own cycle
        # ancilla
        assert len(plan.blocks) - 1 == plan.cycle_ancillas == 2
        # ascending sizes put the cheapest blocks first
        assert _group_sizes(plan) == group_sizes(11, 3) == [3, 3, 4]
        assert plan_cycles(9, 1).blocks[:-1] == ()

    def test_ancilla_non_increasing_up_to_best(self):
        # more cycles shrink the pool faster than they add join bits,
        # up to the square-root optimum
        for n in range(4, 26):
            best = max(math.isqrt(n - 1), 1)
            plans = [plan_cycles(n, c) for c in range(1, best + 1)]
            budgets = [p.cycle_ancillas + p.process_ancillas for p in plans]
            assert budgets == sorted(budgets, reverse=True), n

    def test_toffolis_non_decreasing_up_to_best(self):
        # past the optimum the trade-off direction is not stable:
        # size-one groups cost no Toffolis at all, so very large c can
        # get cheaper again.  The invariant holds up to the optimum.
        for n in range(4, 26):
            best = max(math.isqrt(n - 1), 1)
            totals = [plan_cycles(n, c).toffoli_total for c in range(1, best + 1)]
            assert totals == sorted(totals), n


class TestAutoBuild:
    def test_uses_isqrt_cycle_count(self):
        for n in (3, 5, 10, 11, 17, 26):
            auto = build_cycle_cnx_auto(n)
            want = build_cycle_cnx(n, max(math.isqrt(n - 1), 1))
            assert auto.gates == want.gates
            assert auto.meta == want.meta

    def test_needs_three_controls(self):
        with pytest.raises(ValueError):
            build_cycle_cnx_auto(2)


# honest two-block totals: 3(n-2) when the halves are uneven (odd n),
# one less when they tie (even n)
FROZEN_TWO_CYCLE = {3: 3, 4: 5, 5: 9, 6: 11, 7: 15, 8: 17, 9: 21, 10: 23, 11: 27, 12: 29}


class TestTwoCycle:
    def test_frozen_counts(self):
        for n, want in FROZEN_TWO_CYCLE.items():
            assert count_gates(build_two_cycle_cnx(n), GateKind.TOFFOLI) == want, n

    def test_odd_n_hits_three_n_minus_two(self):
        for n in (3, 5, 7, 9, 11):
            assert count_gates(build_two_cycle_cnx(n), GateKind.TOFFOLI) == 3 * (n - 2)

    def test_single_joining_ancilla(self):
        circ = build_two_cycle_cnx(9)
        assert len(circ.indices_with_role(QubitRole.CYCLE_ANCILLA)) == 1

    @pytest.mark.parametrize("n", range(3, 9))
    def test_equivalence(self, n):
        v = check_equivalence(build_two_cycle_cnx(n), oracle_cnx(n))
        assert v.klass is EquivalenceClass.EXACT

    def test_needs_three_controls(self):
        with pytest.raises(ValueError):
            build_two_cycle_cnx(2)
