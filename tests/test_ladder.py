"""Ladder constructions and the workspace-qubit circuits."""

import pytest

from mctsynth.decomp import GateBasis, lower_circuit
from mctsynth.ir import (
    GateKind,
    MAT_T,
    MAT_V,
    MAT_X,
    MAT_Z,
    QubitRole,
    count_gates,
    gate_histogram,
)
from mctsynth.ladder import (
    build_cnu,
    build_cnx,
    build_workspace_c3x,
    build_workspace_toffoli,
)
from mctsynth.verify import EquivalenceClass, check_equivalence, oracle_cnu, oracle_cnx


def _ancillas(circ):
    return [
        i
        for i, r in enumerate(circ.roles)
        if r in (QubitRole.PROCESS_ANCILLA, QubitRole.WORKSPACE)
    ]


class TestBuildCnx:
    def test_degenerate_sizes(self):
        c1 = build_cnx(1)
        assert [g.kind for g in c1.gates] == [GateKind.CNOT]
        c2 = build_cnx(2)
        assert [g.kind for g in c2.gates] == [GateKind.TOFFOLI]
        assert c2.width == 3

    def test_counts(self):
        for n in range(2, 13):
            circ = build_cnx(n)
            assert count_gates(circ, GateKind.TOFFOLI) == 2 * n - 3
            assert len(circ.gates) == 2 * n - 3
            assert len(_ancillas(circ)) == n - 2
            assert circ.width == 2 * n - 1

    def test_roles(self):
        circ = build_cnx(5)
        assert circ.indices_with_role(QubitRole.CONTROL) == (0, 1, 2, 3, 4)
        assert circ.indices_with_role(QubitRole.TARGET) == (5,)
        assert circ.indices_with_role(QubitRole.PROCESS_ANCILLA) == (6, 7, 8)

    def test_operand_palindrome(self):
        for n in range(3, 10):
            ops = [g.qubits for g in build_cnx(n).gates]
            assert ops == ops[::-1]

    def test_meta(self):
        m = build_cnx(4).meta
        assert m.scheme == "ladder" and m.n == 4 and m.c is None

    @pytest.mark.parametrize("n", range(2, 9))
    def test_equivalence(self, n):
        v = check_equivalence(build_cnx(n), oracle_cnx(n))
        assert v.klass is EquivalenceClass.EXACT

    def test_rejects_zero_controls(self):
        with pytest.raises(ValueError):
            build_cnx(0)


class TestBuildCnu:
    def test_counts(self):
        for n in range(2, 8):
            circ = build_cnu(n, MAT_V)
            assert count_gates(circ, GateKind.TOFFOLI) == 2 * n - 2
            assert count_gates(circ, GateKind.CU) == 1
            assert count_gates(circ, GateKind.CNOT) == 0
            assert len(_ancillas(circ)) == n - 1

    def test_single_control_is_plain_cu(self):
        circ = build_cnu(1, MAT_V)
        assert [g.kind for g in circ.gates] == [GateKind.CU]

    @pytest.mark.parametrize("n", range(2, 6))
    @pytest.mark.parametrize("name,matrix", [("x", MAT_X), ("z", MAT_Z), ("v", MAT_V)])
    def test_equivalence(self, n, name, matrix):
        v = check_equivalence(build_cnu(n, matrix), oracle_cnu(n, matrix))
        assert v.klass is EquivalenceClass.EXACT, (n, name)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_cnu_of_x_is_cnx(self, n):
        v = check_equivalence(build_cnu(n, MAT_X), oracle_cnx(n))
        assert v.klass is EquivalenceClass.EXACT

    @pytest.mark.parametrize("basis", [GateBasis.CNOT_LOCAL, GateBasis.CV_BASIS])
    def test_lowered_equivalence(self, basis):
        for matrix in (MAT_Z, MAT_T):
            lowered = lower_circuit(build_cnu(3, matrix), basis)
            assert count_gates(lowered, GateKind.TOFFOLI) == 0
            v = check_equivalence(lowered, oracle_cnu(3, matrix))
            assert v.klass is EquivalenceClass.EXACT


class TestWorkspaceToffoli:
    def test_shape(self):
        circ = build_workspace_toffoli()
        assert circ.width == 4
        assert circ.indices_with_role(QubitRole.WORKSPACE) == (3,)
        assert gate_histogram(circ) == {
            GateKind.TOFFOLI: 3,
            GateKind.CNOT: 2,
            GateKind.X: 8,
        }
        assert len(circ.gates) == 13

    def test_equivalence(self):
        v = check_equivalence(build_workspace_toffoli(), oracle_cnx(2))
        assert v.klass is EquivalenceClass.EXACT

    def test_workspace_must_start_clean(self):
        # the workspace emulates a parked carrier level; starting it
        # at |1> breaks the construction, so it is a clean ancilla
        circ = build_workspace_toffoli()

        def cnx_and_identity(bits):
            c1, c2, t, w = bits
            return {(c1, c2, t ^ (c1 & c2), w): 1.0 + 0j}

        v = check_equivalence(
            circ, cnx_and_identity, computational_qubits=(0, 1, 2, 3)
        )
        assert v.klass is EquivalenceClass.MISMATCH

    def test_lowered_counts_and_equivalence(self):
        circ = build_workspace_toffoli()
        cl = lower_circuit(circ, GateBasis.CNOT_LOCAL)
        cvb = lower_circuit(circ, GateBasis.CV_BASIS)
        assert len(cl.gates) == 39
        assert len(cvb.gates) == 23
        for lowered in (cl, cvb):
            v = check_equivalence(lowered, oracle_cnx(2))
            assert v.klass is EquivalenceClass.EXACT


class TestWorkspaceC3x:
    def test_shape(self):
        circ = build_workspace_c3x()
        assert circ.width == 5
        assert circ.indices_with_role(QubitRole.WORKSPACE) == (4,)
        assert gate_histogram(circ) == {
            GateKind.TOFFOLI: 5,
            GateKind.CNOT: 2,
            GateKind.X: 10,
        }
        assert len(circ.gates) == 17

    def test_equivalence(self):
        v = check_equivalence(build_workspace_c3x(), oracle_cnx(3))
        assert v.klass is EquivalenceClass.EXACT

    def test_lowered_counts_and_equivalence(self):
        circ = build_workspace_c3x()
        cl = lower_circuit(circ, GateBasis.CNOT_LOCAL)
        cvb = lower_circuit(circ, GateBasis.CV_BASIS)
        assert len(cl.gates) == 71
        assert len(cvb.gates) == 35
        for lowered in (cl, cvb):
            v = check_equivalence(lowered, oracle_cnx(3))
            assert v.klass is EquivalenceClass.EXACT
