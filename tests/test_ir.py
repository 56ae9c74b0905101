"""Gate and circuit representation invariants."""

import cmath
import copy
import dataclasses
import math
import pickle
import warnings

import numpy as np
import pytest

from mctsynth.decomp import ToffoliPair
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

    @pytest.mark.parametrize("entry", [math.inf, -math.inf, math.nan, 1e308])
    def test_non_finite_or_overflowing_matrix_rejected_quietly(self, entry):
        # not unitary, and no numpy warning on the way: an infinite or
        # nan entry is refused as it is, and 1e308 overflows the product
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for z in (complex(entry, 0), complex(0, entry)):
                with pytest.raises(ValueError, match="not unitary"):
                    local(0, ((z, 0j), (0j, 1 + 0j)))
                with pytest.raises(ValueError, match="not unitary"):
                    cu(0, 1, ((1 + 0j, z), (0j, 1 + 0j)))

    def test_mcx_needs_three_controls(self):
        # two controls is spelled TOFFOLI, one is CNOT
        with pytest.raises(ValueError):
            mcx([0], 1)
        with pytest.raises(ValueError):
            mcx([0, 1], 2)
        g = mcx([0, 1, 2], 3)
        assert g.controls == (0, 1, 2) and g.target == 3

    def test_operands_kept_as_a_tuple(self):
        # a list of operands passes the checks, and the gate keeps a
        # tuple, so it hashes and goes into a circuit
        for g, want in [(Gate(GateKind.CNOT, [0, 1]), cnot(0, 1)),
                        (Gate(GateKind.TOFFOLI, range(3)), toffoli(0, 1, 2)),
                        (mcx([0, 1, 2], 3), Gate(GateKind.MCX, [0, 1, 2, 3])),
                        (Gate(GateKind.LOCAL, [0], MAT_H), local(0, MAT_H))]:
            assert type(g.qubits) is tuple
            assert g == want and hash(g) == hash(want)
            assert Circuit(tuple(_ct_roles(3)), (g,)).gates == (want,)
        # a refused list is still named as the caller spelled it
        with pytest.raises(ValueError, match=r"^duplicate operand in cx\[1, 1\]$"):
            Gate(GateKind.CNOT, [1, 1])

    def test_matrix_kept_as_tuples(self):
        # an array or nested lists are kept as a tuple of two 2-tuples
        # of complex numbers, the form the constants take
        for given, want in [(np.eye(2), ((1 + 0j, 0j), (0j, 1 + 0j))),
                            ([[0, 1], [1, 0]], MAT_X),
                            (np.array(MAT_H), MAT_H),
                            ([(1, 0), [0, 1j]], MAT_S)]:
            for g in (local(0, given), cu(0, 1, given)):
                assert g.matrix == want
                assert all(type(row) is tuple for row in g.matrix)
                assert all(type(z) is complex for row in g.matrix for z in row)
                assert hash(g) == hash(Gate(g.kind, g.qubits, want))
        # the constants themselves are kept as they are given
        assert local(0, MAT_H).matrix is MAT_H
        with pytest.raises(ValueError, match="not unitary"):
            local(0, np.array([[1, 0], [0, 2]]))

    def test_matrix_not_2x2_numbers_refused(self):
        for bad in (np.eye(3), np.ones((2, 3)), [[1, 0]], [1, 0, 0, 1], "ab",
                    [[1, "0"], [0, 1]], ((1, 0), (0, None)), 1 + 0j):
            for make in (lambda m: local(0, m), lambda m: cu(0, 1, m)):
                with pytest.raises(ValueError, match="^matrix is not a 2x2 of numbers$"):
                    make(bad)
        # the operand rules still come first
        with pytest.raises(ValueError, match="duplicate operand"):
            cu(1, 1, np.eye(3))
        # and a kind without a matrix refuses any
        with pytest.raises(ValueError, match="x does not carry a matrix"):
            Gate(GateKind.X, (0,), np.eye(2))


class _Int(int):
    """An int subclass: an integer operand whose type is not int."""


# Gate's checks as they were before the one-pass check of the common
# shapes: the reference that Gate must agree with on every input.
_REF_ARITY = {GateKind.X: 1, GateKind.CNOT: 2, GateKind.CV: 2, GateKind.CVDG: 2,
              GateKind.TOFFOLI: 3, GateKind.MCX: None, GateKind.LOCAL: 1, GateKind.CU: 2}


def _reference_check(kind, qubits, matrix):
    def is_int(value):
        return isinstance(value, int) and not isinstance(value, bool)

    arity = _REF_ARITY[kind]
    if arity is None:
        if len(qubits) < 4:
            raise ValueError(f"mcx needs at least 3 controls, got {len(qubits) - 1}")
    elif len(qubits) != arity:
        raise ValueError(f"{kind.value} takes {arity} qubit(s), got {len(qubits)}")
    if set(map(type, qubits)) != {int} and not all(map(is_int, qubits)):
        bad = next(q for q in qubits if not is_int(q))
        raise ValueError(f"operand {bad!r} of {kind.value}{qubits} is not an integer")
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"duplicate operand in {kind.value}{qubits}")
    if kind in (GateKind.LOCAL, GateKind.CU):
        if matrix is None:
            raise ValueError(f"{kind.value} requires a matrix")
        a = np.array(matrix, dtype=complex)
        if not np.allclose(a @ a.conj().T, np.eye(2), atol=1e-10):
            raise ValueError("matrix is not unitary")
    elif matrix is not None:
        raise ValueError(f"{kind.value} does not carry a matrix")


def _outcome(check, *args):
    try:
        check(*args)
    except ValueError as exc:
        return str(exc)
    return None


def test_gate_checks_match_the_reference():
    """Every kind on 0-5 operands of each type, with and without a
    duplicate, as a tuple and as a list, with each kind of matrix:
    Gate accepts what the reference accepts and refuses the rest with
    the reference's message."""
    matrices = [
        None,
        MAT_H,
        ((1 + 0j, 1 + 0j), (0j, 1 + 0j)),  # not unitary
        ((1 + 0j, complex(-0.0, 0.0)), (complex(0.0, -0.0), 1 + 0j)),
    ]
    odd_types = [bool, float, _Int, np.int64]
    cases = 0
    for kind in GateKind:
        for n in range(6):
            for duplicate in (False, True):
                base = list(range(n))
                if duplicate and n >= 2:
                    base[-1] = base[0]
                operand_lists = [base]
                for t in odd_types:
                    if n:
                        operand_lists.append(base[:-1] + [t(base[-1])])
                        operand_lists.append([t(q) for q in base])
                for operands in operand_lists:
                    for qubits in (tuple(operands), list(operands)):
                        for matrix in matrices:
                            want = _outcome(_reference_check, kind, qubits, matrix)
                            got = _outcome(Gate, kind, qubits, matrix)
                            assert got == want, (kind, qubits, matrix)
                            cases += 1
    assert cases > 3000


def test_dataclass_contract():
    """Gate and ToffoliPair are frozen dataclasses, with their fields,
    whose replace runs the checks again, and whose pickle and deep copy
    give back an equal object with an equal hash.  An MCX takes the
    full checks and the others the one-pass check."""
    objects = [
        (toffoli(0, 1, 2), {"qubits": (0, 1, 0)}, "duplicate operand in ccx(0, 1, 0)"),
        (local(3, MAT_T), {"kind": GateKind.CU, "qubits": (2, 2)},
         "duplicate operand in cu(2, 2)"),
        (mcx([0, 1, 2], 3), {"qubits": (0, 1, 2, 1)}, "duplicate operand in mcx(0, 1, 2, 1)"),
        (ToffoliPair(2, 9, 0, 1), None, None),
    ]
    names = {Gate: ["kind", "qubits", "matrix"],
             ToffoliPair: ["compute", "uncompute", "cnot_control", "cnot_target"]}
    for obj, bad, message in objects:
        fields = [f.name for f in dataclasses.fields(obj)]
        assert fields == names[type(obj)]
        for name in fields:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, 1)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(obj, name)
        for other in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj),
                      dataclasses.replace(obj)):
            assert other == obj and hash(other) == hash(obj)
            assert [getattr(other, n) for n in fields] == [getattr(obj, n) for n in fields]
        if bad is not None:
            with pytest.raises(ValueError) as exc:
                dataclasses.replace(obj, **bad)
            assert str(exc.value) == message


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
            Circuit(base.roles, (cnot(0, 5),), base.meta)
        # the helpers build through Circuit, so they check too
        with pytest.raises(ValueError, match="^gate cx\\(0, 2\\) references qubit 2 outside width 2$"):
            append(base, cnot(0, 2))

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
            # one gate past the width, by one
            ((toffoli(0, 1, 5),), "ccx(0, 1, 5) references qubit 5"),
        ]:
            with pytest.raises(ValueError) as info:
                Circuit(base.roles, gates, base.meta)
            assert str(info.value) == f"gate {named} outside width 5"

    def test_roles_and_lookup(self):
        c = new_circuit(_ct_roles(2, [QubitRole.PROCESS_ANCILLA]))
        assert c.width == 4
        assert c.roles[0] is QubitRole.CONTROL
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
