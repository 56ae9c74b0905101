"""Gate and circuit representation invariants."""

import cmath
import math

import numpy as np
import pytest

from mctsynth.ir import (
    Circuit,
    CircuitMeta,
    Gate,
    GateKind,
    MAT_H,
    MAT_S,
    MAT_T,
    MAT_V,
    MAT_VDG,
    MAT_X,
    MAT_Z,
    NAMED_UNITARIES,
    QubitRole,
    ROLE_BY_LETTER,
    X_LIKE_KINDS,
    append,
    as_array,
    cnot,
    concat,
    count_gates,
    cu,
    cv,
    cvdg,
    dagger,
    gate_histogram,
    inverse,
    local,
    mcx,
    new_circuit,
    phase_matrix,
    ry_matrix,
    rz_matrix,
    toffoli,
    x,
)


def _ct_roles(n_controls: int, extra=()):
    return [QubitRole.CONTROL] * n_controls + [QubitRole.TARGET] + list(extra)


class TestGateValidation:
    def test_arity_enforced(self):
        with pytest.raises(ValueError):
            Gate(GateKind.CNOT, (0,))
        with pytest.raises(ValueError):
            Gate(GateKind.TOFFOLI, (0, 1))
        with pytest.raises(ValueError):
            Gate(GateKind.X, (0, 1))

    def test_duplicate_qubits_rejected(self):
        with pytest.raises(ValueError):
            cnot(1, 1)
        with pytest.raises(ValueError):
            toffoli(0, 1, 1)

    def test_local_needs_matrix(self):
        with pytest.raises(ValueError):
            Gate(GateKind.LOCAL, (0,))
        with pytest.raises(ValueError):
            Gate(GateKind.CU, (0, 1))

    def test_matrix_only_on_matrix_kinds(self):
        with pytest.raises(ValueError):
            Gate(GateKind.X, (0,), MAT_X)

    def test_non_unitary_matrix_rejected(self):
        # the unitarity check is memoised; a second construction of the
        # same matrix must still raise
        for _ in range(2):
            with pytest.raises(ValueError, match="not unitary"):
                local(0, ((1 + 0j, 0j), (0j, 2 + 0j)))
            with pytest.raises(ValueError, match="not unitary"):
                cu(0, 1, ((1 + 0j, 0j), (0j, 2 + 0j)))

    def test_mcx_needs_three_controls(self):
        # two controls is spelled TOFFOLI, one is CNOT
        with pytest.raises(ValueError):
            mcx([0], 1)
        with pytest.raises(ValueError):
            mcx([0, 1], 2)
        g = mcx([0, 1, 2], 3)
        assert g.controls == (0, 1, 2) and g.target == 3


class TestGateAccessors:
    def test_controls_and_target(self):
        g = toffoli(4, 2, 7)
        assert g.controls == (4, 2)
        assert g.target == 7
        assert cnot(3, 1).controls == (3,)
        assert x(5).controls == ()
        assert x(5).target == 5

    def test_x_like_kinds(self):
        assert {g.kind for g in [x(0), cnot(0, 1), toffoli(0, 1, 2), mcx([0, 1, 2], 3)]} == X_LIKE_KINDS
        assert cv(0, 1).kind not in X_LIKE_KINDS


class TestInverse:
    def test_self_inverse_kinds(self):
        for g in [x(0), cnot(0, 1), toffoli(0, 1, 2), mcx([0, 1, 2], 3)]:
            assert g.inverse() == g

    def test_cv_inverse_is_cvdg(self):
        assert cv(0, 1).inverse() == cvdg(0, 1)
        assert cvdg(0, 1).inverse() == cv(0, 1)

    def test_matrix_gate_inverse_daggers(self):
        g = local(0, MAT_S)
        inv = g.inverse()
        assert np.allclose(as_array(inv.matrix), as_array(MAT_S).conj().T)
        g = cu(0, 1, MAT_T)
        assert np.allclose(as_array(g.inverse().matrix), as_array(MAT_T).conj().T)


class TestCircuit:
    def test_gate_indices_validated(self):
        base = new_circuit(_ct_roles(1))
        with pytest.raises(ValueError):
            Circuit(base.qubits, (cnot(0, 5),), base.meta)

    def test_repeated_bad_gate_names_first_bad_gate(self):
        # an out-of-range gate twice as one object and once as an equal
        # copy: the range check sees its operands once, and the error
        # still names the first bad gate in gate order
        base = new_circuit(_ct_roles(4))
        bad = cnot(3, 6)
        for gates, named in [
            ((x(0), bad, bad, cnot(3, 6), toffoli(0, 1, 8)), "cx(3, 6) references qubit 6"),
            ((toffoli(0, 1, 8), bad, x(0), bad, cnot(3, 6)), "ccx(0, 1, 8) references qubit 8"),
            ((cnot(3, 6), x(1), bad, bad), "cx(3, 6) references qubit 6"),
        ]:
            with pytest.raises(ValueError) as info:
                Circuit(base.qubits, gates, base.meta)
            assert str(info.value) == f"gate {named} outside width 5"

    def test_roles_and_lookup(self):
        c = new_circuit(_ct_roles(2, [QubitRole.PROCESS_ANCILLA]))
        assert c.width == 4
        assert c.role_of(0) is QubitRole.CONTROL
        assert c.indices_with_role(QubitRole.CONTROL) == (0, 1)
        assert c.indices_with_role(QubitRole.TARGET) == (2,)
        assert c.indices_with_role(QubitRole.PROCESS_ANCILLA) == (3,)

    def test_role_letters_bijective(self):
        assert set(ROLE_BY_LETTER) == {"c", "t", "y", "p", "w"}
        for letter, role in ROLE_BY_LETTER.items():
            assert role.value == letter

    def test_append_and_counts(self):
        c = new_circuit(_ct_roles(2))
        c = append(c, toffoli(0, 1, 2), x(0), x(0))
        assert count_gates(c, GateKind.TOFFOLI) == 1
        assert count_gates(c, GateKind.X) == 2
        assert gate_histogram(c) == {GateKind.TOFFOLI: 1, GateKind.X: 2}

    def test_concat_requires_same_qubits(self):
        a = append(new_circuit(_ct_roles(1)), cnot(0, 1))
        b = append(new_circuit(_ct_roles(1)), x(0))
        merged = concat(a, b)
        assert [g.kind for g in merged.gates] == [GateKind.CNOT, GateKind.X]
        wider = new_circuit(_ct_roles(2))
        with pytest.raises(ValueError):
            concat(a, wider)

    def test_inverse_reverses_and_inverts(self):
        c = append(new_circuit(_ct_roles(1)), cv(0, 1), cnot(0, 1))
        inv = inverse(c)
        assert [g.kind for g in inv.gates] == [GateKind.CNOT, GateKind.CVDG]

    def test_meta_carried(self):
        meta = CircuitMeta(scheme="ladder", n=3)
        c = new_circuit(_ct_roles(3, [QubitRole.PROCESS_ANCILLA]), meta)
        assert c.meta.scheme == "ladder"
        assert append(c, x(0)).meta == meta


class TestMatrices:
    def test_named_matrices_unitary(self):
        for name, m in NAMED_UNITARIES.items():
            a = as_array(m)
            assert np.allclose(a @ a.conj().T, np.eye(2), atol=1e-12), name

    def test_v_squares_to_x(self):
        v = as_array(MAT_V)
        assert np.allclose(v @ v, as_array(MAT_X), atol=1e-12)
        assert np.allclose(as_array(MAT_VDG), v.conj().T)

    def test_hadamard_and_z(self):
        h = as_array(MAT_H)
        assert np.allclose(h @ as_array(MAT_X) @ h, as_array(MAT_Z), atol=1e-12)

    def test_phase_matrix_is_conditional(self):
        m = as_array(phase_matrix(math.pi / 3))
        assert m[0, 0] == 1
        assert abs(m[1, 1] - cmath.exp(1j * math.pi / 3)) < 1e-12
        assert m[0, 1] == 0 and m[1, 0] == 0

    def test_rotations(self):
        assert np.allclose(as_array(ry_matrix(0)), np.eye(2))
        assert np.allclose(as_array(rz_matrix(0)), np.eye(2))
        ry = as_array(ry_matrix(math.pi))
        assert np.allclose(ry, np.array([[0, -1], [1, 0]]), atol=1e-12)

    def test_dagger(self):
        m = dagger(MAT_S)
        assert np.allclose(as_array(m), as_array(MAT_S).conj().T)
