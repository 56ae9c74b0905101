"""Statevector engine and equivalence oracle."""

import ast
import cmath
import math
import sys
from collections import Counter
from itertools import chain
from pathlib import Path

import numpy as np
import pytest

from mctsynth import anf, qasmio, verify
from mctsynth.cli import main
from mctsynth.costs import build_scheme
from mctsynth.decomp import GateBasis, ToffoliRule, lower_circuit, lower_toffoli
from mctsynth.ir import (
    Circuit,
    Gate,
    GateKind,
    MAT_H,
    MAT_S,
    MAT_SDG,
    MAT_T,
    MAT_V,
    MAT_X,
    MAT_Z,
    NAMED_UNITARIES,
    QubitRole,
    X_LIKE_KINDS,
    append,
    as_array,
    cnot,
    cu,
    cv,
    inverse,
    local,
    mcx,
    new_circuit,
    ry_matrix,
    toffoli,
    x,
)
from mctsynth.ladder import build_cnu, build_cnx, build_workspace_c3x, build_workspace_toffoli
from mctsynth.cycle import best_cycle_count, build_cycle_cnx, build_two_cycle_cnx
from mctsynth.verify import (
    DEFAULT_MAX_WIDTH,
    ControlledOracle,
    EquivalenceClass,
    Mismatch,
    WidthLimitError,
    apply,
    basis_state,
    check_equivalence,
    check_symbolic,
    default_computational_qubits,
    full_unitary,
    is_classical,
    oracle_cnu,
    oracle_cnx,
    resolve_max_width,
)

C, T, P = QubitRole.CONTROL, QubitRole.TARGET, QubitRole.PROCESS_ANCILLA


def _circ(roles, gates):
    base = new_circuit(roles)
    return Circuit(base.roles, tuple(gates), base.meta)


class TestApply:
    def test_big_endian_bit_order(self):
        # qubit 0 is the most significant bit of the state index
        state = basis_state(2, (0, 0))
        out = apply(_circ([C, T], [x(0)]), state)
        assert abs(out[0b10] - 1) < 1e-12
        with pytest.raises(ValueError, match="^bit count does not match width$"):
            basis_state(2, (0,))

    def test_cnot_action(self):
        out = apply(_circ([C, T], [cnot(0, 1)]), basis_state(2, (1, 0)))
        assert abs(out[0b11] - 1) < 1e-12
        out = apply(_circ([C, T], [cnot(0, 1)]), basis_state(2, (0, 1)))
        assert abs(out[0b01] - 1) < 1e-12

    def test_hadamard_superposition(self):
        out = apply(_circ([T], [local(0, MAT_H)]), basis_state(1, (0,)))
        assert np.allclose(out, [1 / math.sqrt(2), 1 / math.sqrt(2)])

    def test_toffoli_linearity_on_superposition(self):
        circ = _circ([C, C, T], [toffoli(0, 1, 2)])
        s = (basis_state(3, (1, 1, 0)) + basis_state(3, (1, 0, 0))) / math.sqrt(2)
        out = apply(circ, s)
        want = (basis_state(3, (1, 1, 1)) + basis_state(3, (1, 0, 0))) / math.sqrt(2)
        assert np.allclose(out, want)

    def test_norm_preserved_over_many_gates(self):
        # ten thousand unitary applications must not drift the norm
        rng = np.random.default_rng(7)
        roles = [C, C, T, P]
        gates = []
        mats = [MAT_H, MAT_T, MAT_V, MAT_Z]
        for _ in range(10_000):
            kind = rng.integers(0, 3)
            if kind == 0:
                gates.append(local(int(rng.integers(0, 4)), mats[rng.integers(0, 4)]))
            elif kind == 1:
                a, b = rng.choice(4, size=2, replace=False)
                gates.append(cnot(int(a), int(b)))
            else:
                a, b, c = rng.choice(4, size=3, replace=False)
                gates.append(toffoli(int(a), int(b), int(c)))
        state = rng.normal(size=16) + 1j * rng.normal(size=16)
        state /= np.linalg.norm(state)
        out = apply(_circ(roles, gates), state)
        assert abs(np.linalg.norm(out) - 1) <= 1e-9

    def test_wrong_state_size_rejected(self):
        with pytest.raises(ValueError):
            apply(_circ([T], [x(0)]), np.zeros(4, complex))


class TestFullUnitary:
    def test_single_gates(self):
        assert np.allclose(full_unitary(_circ([T], [x(0)])), as_array(MAT_X))
        h = full_unitary(_circ([T], [local(0, MAT_H)]))
        assert np.allclose(h, as_array(MAT_H))

    def test_cv_squares_to_cnot(self):
        twice = full_unitary(_circ([C, T], [cv(0, 1), cv(0, 1)]))
        once = full_unitary(_circ([C, T], [cnot(0, 1)]))
        assert np.allclose(twice, once, atol=1e-12)

    def test_inverse_is_dagger(self):
        rng = np.random.default_rng(11)
        gates = []
        for _ in range(30):
            kind = rng.integers(0, 3)
            if kind == 0:
                gates.append(local(int(rng.integers(0, 3)), MAT_T))
            elif kind == 1:
                a, b = rng.choice(3, size=2, replace=False)
                gates.append(cv(int(a), int(b)))
            else:
                a, b = rng.choice(3, size=2, replace=False)
                gates.append(cnot(int(a), int(b)))
        circ = _circ([C, C, T], gates)
        u = full_unitary(circ)
        u_inv = full_unitary(inverse(circ))
        assert np.abs(u_inv - u.conj().T).max() < 1e-10

    def test_width_cap(self):
        wide = new_circuit([C] * 11 + [T])
        with pytest.raises(WidthLimitError):
            full_unitary(wide)

    def test_matches_apply_column_by_column(self):
        # the circuits above and the reference cases; column j is the
        # statevector run of basis state j
        circuits = [
            _circ([T], [x(0)]),
            _circ([T], [local(0, MAT_H)]),
            _circ([C, T], [cv(0, 1), cv(0, 1)]),
            _circ([C, T], [cnot(0, 1)]),
            *_random_cases(),
        ]
        for circ in circuits:
            dim = 2 ** circ.width
            want = np.stack([apply(circ, np.eye(dim, dtype=complex)[j]) for j in range(dim)], 1)
            assert np.abs(full_unitary(circ) - want).max() <= 1e-12, circ.gates


class TestOracles:
    def test_cnx_flips_only_on_all_ones(self):
        o = oracle_cnx(3)
        assert o((1, 1, 1, 0)) == {(1, 1, 1, 1): 1.0 + 0j}
        assert o((1, 0, 1, 0)) == {(1, 0, 1, 0): 1.0 + 0j}
        assert o((1, 1, 1, 1)) == {(1, 1, 1, 0): 1.0 + 0j}

    def test_cnx_arity_checked(self):
        with pytest.raises(ValueError):
            oracle_cnx(2)((1, 1))

    def test_cnu_applies_matrix_column(self):
        o = oracle_cnu(1, MAT_V)
        out = o((1, 0))
        v = as_array(MAT_V)
        assert abs(out[(1, 0)] - v[0, 0]) < 1e-12
        assert abs(out[(1, 1)] - v[1, 0]) < 1e-12
        assert o((0, 1)) == {(0, 1): 1.0 + 0j}


class TestCheckEquivalence:
    def test_ladder_exact(self):
        v = check_equivalence(build_cnx(4), oracle_cnx(4))
        assert v.klass is EquivalenceClass.EXACT
        assert v.equivalent
        assert v.max_deviation <= 1e-12

    def test_oracle_called_once_per_input(self):
        calls = []
        base = oracle_cnx(3)

        def counting(bits):
            calls.append(bits)
            return base(bits)

        check_equivalence(build_cnx(3), counting)
        assert len(calls) == 2 ** 4
        assert len(set(calls)) == 2 ** 4

    def test_broken_ladder_mismatch_with_witness(self):
        good = build_cnx(3)
        bad = Circuit(good.roles, good.gates[:-1], good.meta)
        v = check_equivalence(bad, oracle_cnx(3))
        assert v.klass is EquivalenceClass.MISMATCH
        assert not v.equivalent
        assert v.witness is not None
        assert len(v.witness.input_bits) == 4

    def test_unrestored_ancilla_is_mismatch(self):
        good = build_cnx(3)
        bad = Circuit(good.roles, good.gates + (x(3),), good.meta)
        v = check_equivalence(bad, oracle_cnx(3))
        assert v.klass is EquivalenceClass.MISMATCH

    def test_global_phase_classified(self):
        ix = ((0j, 1j), (1j, 0j))  # i * X
        circ = _circ([T], [local(0, ix)])
        v = check_equivalence(circ, oracle_cnx(0))
        assert v.klass is EquivalenceClass.GLOBAL_PHASE

    def test_diagonal_phase_classified(self):
        member = lower_toffoli(0, 1, 2, ToffoliRule.RELATIVE_PHASE)
        circ = _circ([C, C, T], member)
        v = check_equivalence(circ, oracle_cnx(2))
        assert v.klass is EquivalenceClass.DIAGONAL_PHASE

    def test_compute_uncompute_insertion_invariance(self):
        # splicing a gate and its inverse into the gate list never
        # changes the verdict
        rng = np.random.default_rng(23)
        base = build_cnx(3)
        probes = [cv(0, 4), local(2, MAT_H), toffoli(0, 2, 4), cnot(1, 3)]
        for probe in probes:
            pos = int(rng.integers(0, len(base.gates) + 1))
            gates = base.gates[:pos] + (probe, probe.inverse()) + base.gates[pos:]
            v = check_equivalence(Circuit(base.roles, gates, base.meta), oracle_cnx(3))
            assert v.klass is EquivalenceClass.EXACT, (probe, pos)

    def test_classical_path_ignores_width_cap(self, monkeypatch):
        # the cap guards dense statevectors; bit propagation has no
        # such limit, so a cap far below the width must not trip
        monkeypatch.setenv("MCT_MAX_WIDTH", "4")
        circ = build_cycle_cnx(7, 2)
        assert is_classical(circ)
        v = check_equivalence(circ, oracle_cnx(7))
        assert v.klass is EquivalenceClass.EXACT

    def test_dense_path_respects_width_cap(self, monkeypatch):
        monkeypatch.setenv("MCT_MAX_WIDTH", "4")
        lowered = lower_circuit(build_cnx(4), GateBasis.CV_BASIS)
        assert not is_classical(lowered)
        with pytest.raises(WidthLimitError):
            check_equivalence(lowered, oracle_cnx(4))

    @pytest.mark.parametrize("output", [{}, {(1, 0): 1.0}, {(1, 2, 0): 1.0}, {(0, 0, 0): 0j}])
    def test_malformed_oracle_output_rejected(self, output):
        with pytest.raises(ValueError, match="oracle"):
            check_equivalence(build_cnx(2), lambda bits: output)

    def test_lowered_ladder_exact(self):
        lowered = lower_circuit(build_cnx(3), GateBasis.CNOT_LOCAL)
        v = check_equivalence(lowered, oracle_cnx(3))
        assert v.klass is EquivalenceClass.EXACT

    @pytest.mark.parametrize("basis", [GateBasis.NATIVE_TOFFOLI, GateBasis.CV_BASIS])
    @pytest.mark.parametrize("comp, message, tail", [
        ((0, 1, 2, 9), "computational qubit 9 outside width 5", (T, P)),
        ((0, 1, 2, 5), "computational qubit 5 outside width 5", (T, P)),
        ((0, 1, 2, -1), "computational qubit -1 outside width 5", (T, P)),
        ((0, 0, 1, 3), "computational qubit 0 listed twice", (T, P)),
        (None, "expected exactly one target qubit, found 0", (P, P)),
        (None, "expected exactly one target qubit, found 2", (T, T)),
    ])
    def test_bad_computational_qubits_refused(self, monkeypatch, basis, comp, message, tail):
        # the toffoli build is Toffoli-level and the cv one is not; on
        # neither may an engine start on a bad register.  ``tail`` is the
        # roles of qubits 3 and 4, for the register found from the roles
        lowered = lower_circuit(build_cnx(3), basis)
        lowered = Circuit(lowered.roles[:3] + tail, lowered.gates, lowered.meta)
        assert lowered.width == 5 and is_classical(lowered) == (basis is GateBasis.NATIVE_TOFFOLI)
        for engine in ("_run_classical", "_run_sparse"):
            monkeypatch.setattr(verify, engine, lambda *args: pytest.fail("simulated"))
        with pytest.raises(ValueError, match=f"^{message}$"):
            check_equivalence(lowered, oracle_cnx(3), computational_qubits=comp)


class TestMaxWidthResolution:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("MCT_MAX_WIDTH", raising=False)
        assert resolve_max_width() == DEFAULT_MAX_WIDTH

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("MCT_MAX_WIDTH", "12")
        assert resolve_max_width() == 12

    # only the spelling str() writes: int() would also read the others
    @pytest.mark.parametrize("cap", ["many", "5_0", "+9", " 9", "9 ", "\u0669", "09", "-0", "1e3"])
    def test_bad_env_rejected(self, monkeypatch, cap):
        monkeypatch.setenv("MCT_MAX_WIDTH", cap)
        with pytest.raises(ValueError) as err:
            resolve_max_width()
        assert str(err.value) == f"MCT_MAX_WIDTH must be an integer, got {cap!r}"

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_env_below_one_rejected(self, monkeypatch, cap):
        monkeypatch.setenv("MCT_MAX_WIDTH", cap)
        with pytest.raises(ValueError, match=f"MCT_MAX_WIDTH must be at least 1, got {cap}$"):
            resolve_max_width()
        with pytest.raises(ValueError, match="at least 1"):
            check_equivalence(build_cnx(2), oracle_cnx(2))

    def test_cap_of_one_accepted(self, monkeypatch):
        monkeypatch.setenv("MCT_MAX_WIDTH", "1")
        assert resolve_max_width() == 1


# ---------------------------------------------------------------------------
# batched checker against per-input references


def _input_tuple(mask, k):
    return tuple((mask >> (k - 1 - i)) & 1 for i in range(k))


def _column(width, comp, bits):
    col = 0
    for q, b in zip(comp, bits):
        col |= b << (width - 1 - q)
    return col


def _reference(circuit, oracle, unitary=True, tol=1e-9):
    """One input at a time from the dense unitary (or from one dense
    run per input), with the phase fit written out over dicts:
    (class, witness bits, detail, deviation)."""
    width = circuit.width
    comp = default_computational_qubits(circuit)
    ancillas = [q for q in range(width) if q not in comp]
    u = full_unitary(circuit, max_width=width) if unitary else None
    k = len(comp)
    observed = []
    for mask in range(2 ** k):
        bits = _input_tuple(mask, k)
        expected = oracle(bits)
        col = _column(width, comp, bits)
        column = u[:, col] if unitary else apply(circuit, basis_state(width, _input_tuple(col, width)))
        got, bad = {}, 0.0
        for idx in np.flatnonzero(np.abs(column) > tol):
            amp = complex(column[idx])
            out = _input_tuple(int(idx), width)
            if any(out[a] for a in ancillas):
                bad = max(bad, abs(amp))
            else:
                got[tuple(out[q] for q in comp)] = amp
        if bad > tol:
            return EquivalenceClass.MISMATCH, bits, "ancilla not restored to |0>", bad
        observed.append((bits, expected, got))

    def deviation(got, expected, phase):
        return max(abs(got.get(key, 0j) - phase * expected.get(key, 0j))
                   for key in set(got) | set(expected))

    phases, residual = [], 0.0
    for bits, expected, got in observed:
        anchor = max(expected, key=lambda key: abs(expected[key]))
        phase = got.get(anchor, 0j) / expected[anchor]
        if abs(got.get(anchor, 0j)) <= tol:
            return (EquivalenceClass.MISMATCH, bits,
                    f"no amplitude on expected output {anchor}", abs(expected[anchor]))
        if abs(abs(phase) - 1.0) > tol:
            return (EquivalenceClass.MISMATCH, bits,
                    "amplitude magnitude differs from oracle", abs(abs(phase) - 1.0))
        phase /= abs(phase)
        dev = deviation(got, expected, phase)
        if dev > tol:
            return (EquivalenceClass.MISMATCH, bits,
                    "output superposition differs from oracle", dev)
        phases.append(phase)
        residual = max(residual, dev)
    exact = max(deviation(got, expected, 1.0 + 0j) for _, expected, got in observed)
    if exact <= tol:
        return EquivalenceClass.EXACT, None, None, exact
    glob = max(deviation(got, expected, phases[0]) for _, expected, got in observed)
    if glob <= tol:
        return EquivalenceClass.GLOBAL_PHASE, None, None, glob
    return EquivalenceClass.DIAGONAL_PHASE, None, None, residual


def _assert_matches_reference(circuit, oracle, unitary=True):
    v = check_equivalence(circuit, oracle)
    klass, bits, detail, dev = _reference(circuit, oracle, unitary)
    assert v.klass is klass
    assert (v.witness.input_bits, v.witness.detail) == (bits, detail) if v.witness else bits is None
    assert abs(v.max_deviation - dev) <= 1e-12
    return v


def _random_unitary(rng):
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return tuple(tuple(complex(z) for z in row) for row in q * (np.diag(r) / abs(np.diag(r))))


def _random_gate(rng, width, mixing):
    qs = [int(q) for q in rng.permutation(width)]
    pick = int(rng.integers(0, 9 if mixing else 3))
    if pick == 0:
        return x(qs[0])
    if pick == 1:
        return cnot(qs[0], qs[1])
    if pick == 2:
        return toffoli(qs[0], qs[1], qs[2])
    if pick == 3:
        return cv(qs[0], qs[1])
    if pick == 4:
        return cv(qs[0], qs[1]).inverse()
    if pick == 5:
        return cu(qs[0], qs[1], _random_unitary(rng))
    if pick == 6:
        return local(qs[0], _random_unitary(rng))
    return local(qs[0], [MAT_H, MAT_T, MAT_Z, MAT_V, MAT_S][int(rng.integers(0, 5))])


def _diagonal(rng, global_only):
    a = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
    b = a if global_only else cmath.exp(1j * rng.uniform(0, 2 * math.pi))
    return ((a, 0j), (0j, b))


def _random_cases():
    """Small circuits over 2 controls, a target and 0-2 ancillas:
    random mixed-gate circuits, correct Toffoli networks followed by
    diagonal or global phases or with inverse pairs spliced in, and
    doubly-controlled payloads, so that every verdict occurs."""
    rng = np.random.default_rng(2024)
    payloads = [MAT_H, MAT_V, MAT_T, ry_matrix(-math.pi / 2), ry_matrix(math.pi / 2)]
    for trial in range(75):
        family = trial % 5
        ancillas = max(trial % 3, family == 4)
        width = 3 + ancillas
        roles = [C, C, T] + [P] * ancillas
        if family == 0:
            gates = [_random_gate(rng, width, True) for _ in range(int(rng.integers(1, 12)))]
        else:
            body = [_random_gate(rng, width, False) for _ in range(int(rng.integers(0, 6)))]
            if family == 4:
                payload = payloads[int(rng.integers(0, len(payloads)))]
                core = [toffoli(0, 1, 3), cu(3, 2, payload), toffoli(0, 1, 3)]
            else:
                core = [toffoli(0, 1, 2)]
            gates = body + core + [g.inverse() for g in reversed(body)]
            for _ in range(int(rng.integers(1, 3))):
                if family == 1:
                    gates.append(local(int(rng.integers(0, 3)), _diagonal(rng, False)))
                elif family == 2:
                    gates.append(local(int(rng.integers(0, width)), _diagonal(rng, True)))
                elif family == 3:
                    probe = _random_gate(rng, width, True)
                    gates[1:1] = [probe, probe.inverse()]
        yield _circ(roles, gates)


class TestAgainstReference:
    ORACLES = [oracle_cnx(2), oracle_cnu(2, MAT_H), oracle_cnu(2, MAT_V), oracle_cnu(2, MAT_T)]

    def test_random_circuits(self):
        seen = set()
        for circ in _random_cases():
            for oracle in self.ORACLES:
                v = _assert_matches_reference(circ, oracle)
                seen.add((v.klass, v.witness.detail[:12] if v.witness else None))
        # the cases reach every verdict and every kind of witness
        assert {klass for klass, _ in seen} == set(EquivalenceClass)
        assert {detail for _, detail in seen if detail} == {
            "ancilla not ", "no amplitude", "amplitude ma", "output super"}

    def test_small_entry_budget_changes_nothing(self, monkeypatch):
        # blocks of a few inputs, and sparse work items split in two
        # whenever they hold more entries than that
        cases = [lower_circuit(build_cnx(4), GateBasis.CV_BASIS),
                 lower_circuit(build_cycle_cnx(5, 2), GateBasis.CNOT_LOCAL),
                 build_cycle_cnx(6, 2)]
        cases += [Circuit(c.roles, c.gates[:7] + c.gates[8:], c.meta) for c in cases]
        oracles = [oracle_cnx(4), oracle_cnx(5), oracle_cnx(6)] * 2
        before = [check_equivalence(c, o) for c, o in zip(cases, oracles)]
        monkeypatch.setattr(verify, "_ENTRY_BUDGET", 4)
        after = [check_equivalence(c, o) for c, o in zip(cases, oracles)]
        assert [(v.klass, v.witness) for v in after] == [(v.klass, v.witness) for v in before]
        assert [v.max_deviation for v in after] == pytest.approx(
            [v.max_deviation for v in before], abs=1e-12)
        assert {v.klass for v in before} >= {EquivalenceClass.EXACT, EquivalenceClass.MISMATCH}

    @pytest.mark.parametrize("name", ["cnx", "h"])
    def test_wide_gates_applied_alone(self, name, monkeypatch):
        """A gate on more than three qubits starts no window: an MCX in
        a circuit that is not Toffoli-level is a lone step that moves
        entries in place, between windows and mixing gates."""
        lone = Counter()
        real = verify._sparse_step

        def counting(gate, *args):
            out = real(gate, *args)
            if gate.kind is GateKind.MCX:
                lone["mixed" if out[2] else "in place"] += 1
            return out

        monkeypatch.setattr(verify, "_sparse_step", counting)
        oracle = oracle_cnx(3) if name == "cnx" else oracle_cnu(3, MAT_H)
        c3x, c3x_anc = mcx((0, 1, 2), 3), mcx((0, 1, 2), 4)
        h3, h4 = local(3, MAT_H), local(4, MAT_H)
        payload = [c3x_anc, cu(4, 3, MAT_H), c3x_anc]
        cases = [
            [h3, h3, c3x],
            [h3, c3x, h3],
            payload,
            payload + [local(0, MAT_T)],
            [c3x, local(3, _diagonal(np.random.default_rng(9), True))],
            [c3x_anc, h3, h3],
            [h4, mcx((0, 1, 4), 3), h4],
        ]
        seen = set()
        for gates in cases:
            circ = _circ([C, C, C, T, P], gates)
            assert not is_classical(circ)
            seen.add(_assert_matches_reference(circ, oracle).klass)
        # [h3, h3, c3x] and [c3x_anc, h3, h3] plan as an identity window
        # and an X-like lone gate, which run on bit planes
        assert lone == {"in place": 7}
        assert {EquivalenceClass.EXACT, EquivalenceClass.MISMATCH} <= seen


def _witness_is_wrong(circuit, oracle, bits, tol=1e-9):
    """Whether one dense run on the witness input disagrees with the
    oracle beyond a unit phase, or leaves an ancilla set."""
    width = circuit.width
    comp = default_computational_qubits(circuit)
    out = apply(circuit, basis_state(width, _input_tuple(_column(width, comp, bits), width)))
    got = {}
    for idx in np.flatnonzero(np.abs(out) > tol):
        full = _input_tuple(int(idx), width)
        if any(full[q] for q in range(width) if q not in comp):
            return True
        got[tuple(full[q] for q in comp)] = complex(out[idx])
    expected = oracle(bits)
    if set(got) != set(expected):
        return True
    anchor = next(iter(expected))
    phase = got[anchor] / expected[anchor]
    return any(abs(got[key] - phase * expected[key]) > tol for key in expected) \
        or abs(abs(phase) - 1) > tol


def _builder_outputs():
    yield build_workspace_toffoli(), oracle_cnx(2)
    yield build_workspace_c3x(), oracle_cnx(3)
    for n in range(3, 7):
        yield build_cnx(n), oracle_cnx(n)
        yield build_two_cycle_cnx(n), oracle_cnx(n)
        for c in range(1, n):
            yield build_cycle_cnx(n, c), oracle_cnx(n)
        yield build_cnu(n, MAT_V), oracle_cnu(n, MAT_V)


class TestOneGateDeleted:
    def test_every_builder_output(self):
        for circ, oracle in _builder_outputs():
            for pos in range(len(circ.gates)):
                mutant = Circuit(circ.roles, circ.gates[:pos] + circ.gates[pos + 1:], circ.meta)
                v = check_equivalence(mutant, oracle)
                assert v.klass is EquivalenceClass.MISMATCH, (circ.meta, pos)
                assert _witness_is_wrong(mutant, oracle, v.witness.input_bits), (circ.meta, pos)

    @pytest.mark.parametrize("basis", [GateBasis.CV_BASIS, GateBasis.CNOT_LOCAL])
    def test_lowered_outputs_match_reference(self, basis):
        for circ in (build_cnx(3), build_cycle_cnx(4, 2), build_two_cycle_cnx(4)):
            lowered = lower_circuit(circ, basis)
            n = len(default_computational_qubits(circ)) - 1
            for pos in range(len(lowered.gates)):
                gates = lowered.gates[:pos] + lowered.gates[pos + 1:]
                mutant = Circuit(lowered.roles, gates, lowered.meta)
                v = _assert_matches_reference(mutant, oracle_cnx(n), unitary=False)
                if v.klass is EquivalenceClass.MISMATCH:
                    assert _witness_is_wrong(mutant, oracle_cnx(n), v.witness.input_bits)


_SWAPPED_KIND = {GateKind.CV: GateKind.CVDG, GateKind.CVDG: GateKind.CV}


def _alterations(g):
    """One-gate changes: a control swapped with the target of a Toffoli
    or a CNOT (the cnot basis has nothing else to alter), or cv
    swapped with cvdg."""
    if g.kind is GateKind.TOFFOLI:
        a, b, t = g.qubits
        yield Gate(g.kind, (t, b, a))
        yield Gate(g.kind, (a, t, b))
    elif g.kind is GateKind.CNOT:
        yield Gate(g.kind, g.qubits[::-1])
    elif g.kind in _SWAPPED_KIND:
        yield Gate(_SWAPPED_KIND[g.kind], g.qubits)


class TestOneGateAltered:
    @pytest.mark.parametrize("basis", list(GateBasis))
    def test_every_builder_output(self, basis):
        mismatches = 0
        for circ, oracle in _builder_outputs():
            lowered = lower_circuit(circ, basis)
            for pos, g in enumerate(lowered.gates):
                for altered in _alterations(g):
                    gates = lowered.gates[:pos] + (altered,) + lowered.gates[pos + 1:]
                    mutant = Circuit(lowered.roles, gates, lowered.meta)
                    v = check_equivalence(mutant, oracle)
                    proved = check_symbolic(mutant, oracle)
                    assert proved is None or (proved == _PROVED
                                              and v.klass is EquivalenceClass.EXACT)
                    if v.klass is not EquivalenceClass.MISMATCH:
                        # skipped as a change that keeps the function, which
                        # one dense run per input must confirm
                        assert v.klass is EquivalenceClass.EXACT, (circ.meta, pos)
                        _assert_matches_reference(mutant, oracle, unitary=False)
                        continue
                    mismatches += 1
                    assert _witness_is_wrong(mutant, oracle, v.witness.input_bits), (circ.meta, pos)
        assert mismatches > 300


# ---------------------------------------------------------------------------
# the windowed sparse engine against the gate-by-gate loop it replaced


def _evolve_per_gate(circuit, comp):
    """The sparse engine one gate at a time, as it ran before gates were
    fused into windows: the reference the windowed engine must match."""
    width = circuit.width
    gates = circuit.gates
    n_inputs = 1 << len(comp)
    budget = verify._ENTRY_BUDGET
    todo = []
    for lo in range(0, n_inputs, budget):
        masks = np.arange(lo, min(lo + budget, n_inputs), dtype=np.int64)
        todo.append((lo, lo + len(masks), 0,
                     (masks << width) | verify._spread(masks, comp, width),
                     np.ones(len(masks), dtype=complex)))
    done_keys, done_amps, overflow = [], [], []
    while todo:
        lo, hi, start, keys, amps = todo.pop()
        for pos in range(start, len(gates)):
            keys, amps, mixed = verify._sparse_step(gates[pos], width, keys, amps)
            if not mixed:
                continue
            owner = (keys >> width) - lo
            over = np.bincount(owner, minlength=hi - lo) > verify._SPARSE_SUPPORT_CAP
            if over.any():
                overflow.extend((lo + np.flatnonzero(over)).tolist())
                keys, amps = keys[~over[owner]], amps[~over[owner]]
            if len(keys) > budget and hi - lo > 1:
                mid = (lo + hi) // 2
                low = (keys >> width) < mid
                todo.append((mid, hi, pos + 1, keys[~low], amps[~low]))
                todo.append((lo, mid, pos + 1, keys[low], amps[low]))
                break
        else:
            done_keys.append(keys)
            done_amps.append(amps)
    return np.concatenate(done_keys), np.concatenate(done_amps), overflow


def _entries(keys, amps):
    out = dict(zip(keys.tolist(), amps.tolist()))
    assert len(out) == len(keys)
    return out


def _evolve_windowed(circuit, comp):
    """The windowed engine's final entries, planned afresh."""
    return verify._evolve_sparse(verify._plan(circuit.gates), circuit.width, comp)


def _per_gate_reference(m, circuit):
    """Patch, in the monkeypatch context m, what check_equivalence
    simulates: every gate is planned as a lone step, so no verdict is
    read off windows, and the sparse entries are the per-gate loop's,
    handed over in reverse, so that _classify groups them by sorting
    rather than reading one entry per input.  Returns those entries."""
    want = _evolve_per_gate(circuit, default_computational_qubits(circuit))
    m.setattr(verify, "_plan", lambda gates: list(gates))
    m.setattr(verify, "_evolve_sparse",
              lambda steps, width, comp: (want[0][::-1], want[1][::-1], want[2]))
    return want


def _assert_windows_match_per_gate(circuit, oracle, monkeypatch):
    """Final entries within 1e-12 of the per-gate loop's, and the same
    verdict as the per-gate entries give by the general path: class,
    witness and detail equal, deviation within 1e-12."""
    fast = check_equivalence(circuit, oracle)
    with monkeypatch.context() as m:
        want = _per_gate_reference(m, circuit)
        slow = check_equivalence(circuit, oracle)
    got = _evolve_windowed(circuit, default_computational_qubits(circuit))
    assert got[2] == want[2]
    a, b = _entries(*got[:2]), _entries(*want[:2])
    assert max((abs(a.get(k, 0) - b.get(k, 0)) for k in a.keys() | b.keys()), default=0) <= 1e-12
    assert (fast.klass, fast.witness) == (slow.klass, slow.witness)
    assert abs(fast.max_deviation - slow.max_deviation) <= 1e-12
    return fast


def _window_gate(rng, qubits):
    """One gate of the kinds lowered circuits use, on the given qubits
    in random order."""
    qs = [int(q) for q in rng.permutation(qubits)]
    pick = int(rng.integers(0, 9))
    if pick == 0:
        return x(qs[0])
    if pick == 1:
        return cnot(qs[0], qs[1])
    if pick == 2:
        return toffoli(qs[0], qs[1], qs[2])
    if pick == 3:
        return cv(qs[0], qs[1])
    if pick == 4:
        return cv(qs[0], qs[1]).inverse()
    if pick == 5:
        return local(qs[0], MAT_H)
    if pick == 6:
        return local(qs[0], MAT_T)
    if pick == 7:
        # quarter turns, as the cnot basis uses, or any angle
        steps = int(rng.integers(-4, 5))
        angle = steps * math.pi / 4 if rng.random() < 0.5 else rng.uniform(-math.pi, math.pi)
        return local(qs[0], ry_matrix(angle))
    return cu(qs[0], qs[1], _random_unitary(rng))


def _random_window_circuits(count):
    """Circuits on 3 to 7 qubits (two controls, a target, ancillas) made
    of pieces on a few qubits at a time: single gates, decomposed
    Toffolis, a gate list followed by its inverse, and the Toffoli the
    oracle wants, so windows form, break, and straddle pieces, and
    every verdict occurs."""
    rng = np.random.default_rng(4242)
    for trial in range(count):
        width = 3 + trial % 5
        gates = []
        for _ in range(int(rng.integers(1, 7))):
            focus = rng.choice(width, size=3, replace=False) if rng.random() < 0.9 \
                else np.arange(width)
            piece = int(rng.integers(0, 4))
            if piece == 0:
                gates.append(_window_gate(rng, focus))
            elif piece == 1:
                a, b, t = (int(q) for q in rng.permutation(focus)[:3])
                gates += lower_toffoli(a, b, t, list(ToffoliRule)[int(rng.integers(0, 4))])
            elif piece == 2:
                body = [_window_gate(rng, focus) for _ in range(int(rng.integers(1, 5)))]
                gates += body + [g.inverse() for g in reversed(body)]
            else:
                rule = list(ToffoliRule)[int(rng.integers(0, 4))]
                gates += [toffoli(0, 1, 2)] if rng.random() < 0.5 else lower_toffoli(0, 1, 2, rule)
        if trial % 7 == 0:
            gates.append(local(int(rng.integers(0, 3)), _diagonal(rng, trial % 2 == 0)))
        yield _circ([C, C, T] + [P] * (width - 3), gates)


def _assert_same_plan(a, b):
    """The same steps: windows on the same qubits, with equal XOR bits,
    phase tables and bit-plane steps, and the very same lone gates."""
    assert len(a) == len(b)
    for s, t in zip(a, b):
        if isinstance(s, verify._Window):
            assert isinstance(t, verify._Window) and (s.qubits, s.xor) == (t.qubits, t.xor)
            for u, v in ((s.bits, t.bits), (s.phases, t.phases)):
                assert (u is None) == (v is None)
                if u is not None:
                    assert u.dtype == v.dtype and u.tobytes() == v.tobytes()
        else:
            assert s is t


def _shape(gates):
    """The key ``_plan`` looks a run of these gates up by."""
    place = {}
    return tuple((g.kind, g.matrix, tuple(place.setdefault(q, len(place)) for q in g.qubits))
                 for g in gates)


class TestWindowedEngine:
    def test_parity_sweep(self, monkeypatch):
        checked = 0
        for c, oracle in _parity_sweep():
            _assert_windows_match_per_gate(c, oracle, monkeypatch)
            # planned from the cache as the sweep left it, and afresh
            warm = verify._plan(c.gates)
            verify._fused.cache_clear()
            _assert_same_plan(warm, verify._plan(c.gates))
            checked += 1
        assert checked > 1000

    @pytest.mark.parametrize("basis", list(GateBasis))
    def test_every_named_unitary(self, basis, monkeypatch, tmp_path, capsys):
        for name, matrix in sorted(NAMED_UNITARIES.items()):
            for n in range(1, 7):
                circ = lower_circuit(build_cnu(n, matrix), basis)
                v = _assert_windows_match_per_gate(circ, oracle_cnu(n, matrix), monkeypatch)
                assert v.klass is EquivalenceClass.EXACT
                if n in (1, 4):
                    # the CLI's verdict and exit code, per-gate and windowed
                    path = tmp_path / "c.json"
                    qasmio.save(circ, path)
                    argv = ["verify", "--circuit", str(path), "--oracle", f"cnu:{n}:{name}"]
                    fast = main(argv), capsys.readouterr().out.splitlines()
                    with monkeypatch.context() as m:
                        _per_gate_reference(m, circ)
                        slow = main(argv), capsys.readouterr().out.splitlines()
                    assert fast[0] == slow[0] == 0
                    assert fast[1][0] == slow[1][0] == "verdict exact"

    def test_random_circuits(self, monkeypatch):
        seen = set()
        for trial, circ in enumerate(_random_window_circuits(600)):
            oracle = oracle_cnx(2) if trial % 3 else oracle_cnu(2, MAT_H)
            with monkeypatch.context() as m:
                if trial % 4 == 0:
                    # work items split in two, and resumed at a step
                    m.setattr(verify, "_ENTRY_BUDGET", 4)
                seen.add(_assert_windows_match_per_gate(circ, oracle, monkeypatch).klass)
        assert seen == set(EquivalenceClass)


def _run_local(xor, used):
    """A window's bit-plane steps on all 2**used local inputs at once:
    bit j of position p's plane is p's bit in j (position 0 the most
    significant), wire -1 is all ones and wires -2..-4 start at 0.  The
    XOR each local input sees, as rows of bits by position; scratch
    must end cleared."""
    size = 1 << used
    wires = {p: sum(1 << j for j in range(size) if j >> (used - 1 - p) & 1)
             for p in range(used)}
    start = dict(wires)
    wires.update({-1: (1 << size) - 1, -2: 0, -3: 0, -4: 0})
    for target, products in xor:
        flip = 0
        for product in products:
            term = wires[-1]
            for q in product:
                term &= wires[q]
            flip ^= term
        wires[target] ^= flip
    assert wires[-1] == (1 << size) - 1 and wires[-2] == wires[-3] == wires[-4] == 0
    return [[(wires[p] ^ start[p]) >> j & 1 for p in range(used)] for j in range(size)]


def _local_sum(products, used, j):
    """The sum of products of local positions at local input j, as
    0 or 1; (-1,) is the constant 1."""
    bit = [j >> (used - 1 - p) & 1 for p in range(used)] + [1]
    return sum(all(bit[q] for q in p) for p in products) % 2


class TestFusion:
    def test_builds_never_mix(self, monkeypatch):
        """Every lowered ladder, cycle and two-cycle build runs as
        monomial windows alone: no step mixes basis states, and no input
        ever holds more than one entry."""
        steps = {"mixed": 0, "lone": 0, "window": 0}
        real_step, real_window = verify._sparse_step, verify._window_step

        def one_entry_each(keys, width):
            owners = keys >> width
            assert len(np.unique(owners)) == len(owners)

        def lone(gate, width, keys, amps):
            one_entry_each(keys, width)
            out = real_step(gate, width, keys, amps)
            steps["lone"] += 1
            steps["mixed"] += out[2]
            return out

        def window(w, width, keys, amps):
            steps["window"] += 1
            return real_window(w, width, keys, amps)

        monkeypatch.setattr(verify, "_sparse_step", lone)
        monkeypatch.setattr(verify, "_window_step", window)
        for n in range(3, 13):
            builds = [build_cnx(n), build_two_cycle_cnx(n)]
            builds += [build_cycle_cnx(n, c) for c in range(1, n)]
            for circ in builds:
                for basis in (GateBasis.CV_BASIS, GateBasis.CNOT_LOCAL):
                    lowered = lower_circuit(circ, basis)
                    comp = default_computational_qubits(lowered)
                    keys, _, overflow = _evolve_windowed(lowered, comp)
                    one_entry_each(keys, lowered.width)
                    assert len(keys) == 1 << len(comp) and not overflow
                    assert steps["mixed"] == 0, (circ.meta, basis)
        assert steps["window"] > 1000

    def test_cache_stays_bounded(self, monkeypatch):
        """More distinct run shapes than the cache holds: it stays at its
        size, every verdict matches the per-gate loop, and a shape fused
        again after it was evicted gives the same verdict."""
        rng = np.random.default_rng(5150)
        verify._fused.cache_clear()
        size = verify._fused.cache_info().maxsize
        circuits = []
        for trial in range(size + 20):
            # a random diagonal on one of the 3 qubits makes each shape new
            gates = [toffoli(0, 1, 2), local(int(rng.integers(0, 3)), _diagonal(rng, trial % 2 == 0))]
            circuits.append(_circ([C, C, T], gates))
        verdicts = [_assert_windows_match_per_gate(c, oracle_cnx(2), monkeypatch)
                    for c in circuits]
        info = verify._fused.cache_info()
        assert info.misses == size + 20 and info.currsize == size
        assert {v.klass for v in verdicts} == {EquivalenceClass.GLOBAL_PHASE,
                                               EquivalenceClass.DIAGONAL_PHASE}
        assert _same_verdict(check_equivalence(circuits[0], oracle_cnx(2)), verdicts[0])

    def test_cached_tables_are_read_only(self):
        gates = lower_toffoli(1, 2, 0, ToffoliRule.RELATIVE_PHASE)
        (step,) = verify._plan(gates)
        _, _, bits, phases, xor, sign, drift = verify._fused(_shape(gates))
        assert step.bits is bits and step.phases is phases and step.xor is xor
        assert step.sign is sign and step.drift == drift
        for table in (bits, phases):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = table[1]
        # the bit-plane steps and the sign are tuples all the way down
        assert isinstance(xor, tuple) and all(
            isinstance(t, int) and all(isinstance(p, tuple) for p in products)
            for t, products in xor)
        assert sign and isinstance(sign, tuple) and all(isinstance(p, tuple) for p in sign)

    def test_xor_steps_reproduce_the_bits(self, monkeypatch):
        """Every entry the sweep's plans fuse: its steps, run on bit
        planes of every local input, flip exactly its XOR bits, and its
        sign is 1 exactly where its phase rounds to -1, at most its
        drift away."""
        shapes = set()
        real = verify._fused

        def recording(shape):
            shapes.add(shape)
            return real(shape)

        monkeypatch.setattr(verify, "_fused", recording)
        for c, _ in _parity_sweep():
            if not is_classical(c):
                verify._plan(c.gates)
        monkeypatch.undo()
        flipping = signed = 0
        for entry in filter(None, map(verify._fused, shapes)):
            _, used, bits, phases, xor, sign, drift = entry
            rounded = np.ones(1 << used) if phases is None else np.where(phases.real < 0, -1.0, 1.0)
            assert rounded.tolist() == [(-1) ** _local_sum(sign, used, j) for j in range(1 << used)]
            assert drift == (0 if phases is None else np.abs(phases - rounded).max())
            signed += bool(sign)
            if bits is None:
                assert xor == ()
                continue
            assert _run_local(xor, used) == bits.tolist()
            flipping += 1
        assert flipping > 20 and signed > 5, (flipping, signed)

    @pytest.mark.parametrize("gates, flips", [
        # an unconditional flip gives the constant term
        ([x(0)], {0: ((-1,),)}),
        ([cnot(0, 1), x(1)], {1: ((-1,), (0,))}),
        ([toffoli(0, 1, 2), x(2)], {2: ((-1,), (0, 1))}),
        # a SWAP: each position's flip reads the other's old bit
        ([cnot(0, 1), cnot(1, 0), cnot(0, 1)], {0: ((1,), (0,)), 1: ((1,), (0,))}),
    ])
    def test_hand_made_windows(self, gates, flips):
        _, used, bits, _, xor, *_ = verify._fused(_shape(gates))
        assert _run_local(xor, used) == bits.tolist()
        if len(flips) == 1:
            assert dict(xor) == flips
        else:
            # through scratch wires, then into the positions, then cleared
            sums = {t: products for t, products in xor if t < -1 and products[0] != (t,)}
            assert sorted(sums.values()) == sorted(flips.values())
            assert {t for t, _ in xor} == set(flips) | set(sums)

    def test_window_step_at_width_63(self):
        # the target's XOR mask is 1 << 62 at width 63, the highest bit
        # an int64 key holds below its sign
        gates = lower_toffoli(61, 62, 0, ToffoliRule.FIVE_CV)
        (step,) = verify._plan(gates)
        assert sorted(step.qubits) == [0, 61, 62] and step.phases is None
        bit = {q: 1 << (62 - q) for q in (0, 61, 62)}
        keys = np.array([sum(b for i, b in enumerate(bit.values()) if j >> i & 1)
                         for j in range(8)], dtype=np.int64)
        amps = np.ones(len(keys), dtype=complex)
        out, out_amps = verify._window_step(step, 63, keys, amps)
        fires = (keys & bit[61] != 0) & (keys & bit[62] != 0)
        assert out.tolist() == (keys ^ np.where(fires, 1 << 62, 0)).tolist()
        assert (out >= 0).all() and out_amps is amps

    def test_sparse_keys_past_63_bits_refused(self, monkeypatch):
        # width 61 with 32 inputs: keys (m << 61) | index overflow int64;
        # this refusal alone keeps the window masks within 63 bits
        monkeypatch.setenv("MCT_MAX_WIDTH", "64")
        lowered = lower_circuit(build_cnx(31), GateBasis.CV_BASIS)
        assert lowered.width == 61 and not is_classical(lowered)
        for step in ("_plan", "_run_classical", "_run_sparse"):
            monkeypatch.setattr(verify, step, lambda *args: pytest.fail("planned or simulated"))
        with pytest.raises(WidthLimitError, match="^width 61 with 32 inputs exceeds "
                                                  "the sparse engine's 63-bit keys$"):
            check_equivalence(lowered, oracle_cnx(31))


class TestDenseFallback:
    def _count_dense(self, monkeypatch):
        calls = []
        real = verify.apply

        def counting(circuit, state):
            calls.append(1)
            return real(circuit, state)

        monkeypatch.setattr(verify, "apply", counting)
        return calls

    def _wide(self, tail):
        # H on all 13 wires spreads each input over 8192 basis states,
        # past the sparse cap; the second layer undoes it
        roles = [C, T] + [P] * 11
        layer = [local(q, MAT_H) for q in range(13)]
        return _circ(roles, layer + layer + tail)

    def test_support_past_cap_reaches_exact(self, monkeypatch):
        calls = self._count_dense(monkeypatch)
        v = check_equivalence(self._wide([cnot(0, 1)]), oracle_cnx(1))
        assert v.klass is EquivalenceClass.EXACT
        assert len(calls) == 4

    def test_support_past_cap_reaches_mismatch(self, monkeypatch):
        calls = self._count_dense(monkeypatch)
        v = check_equivalence(self._wide([]), oracle_cnx(1))
        assert v.klass is EquivalenceClass.MISMATCH
        assert v.witness == Mismatch((1, 0), "no amplitude on expected output (1, 1)")
        assert len(calls) == 4

    def test_ancilla_left_set_past_cap(self, monkeypatch):
        calls = self._count_dense(monkeypatch)
        v = check_equivalence(self._wide([cnot(0, 1), x(5)]), oracle_cnx(1))
        assert v.klass is EquivalenceClass.MISMATCH
        assert v.witness == Mismatch((0, 0), "ancilla not restored to |0>")
        assert abs(v.max_deviation - 1) < 1e-12
        assert calls


class TestOracleCallsOnAncillaFailure:
    @pytest.mark.parametrize("lowered", [False, True])
    def test_oracle_called_up_to_witness_only(self, lowered):
        # the ancilla is left set only when control 1 is on, so the
        # first such input is |0100>, input 4 of 16
        good = build_cnx(3)
        bad = Circuit(good.roles, good.gates + (cnot(1, 4),), good.meta)
        if lowered:
            bad = lower_circuit(bad, GateBasis.CV_BASIS)
        calls = []
        base = oracle_cnx(3)

        def counting(bits):
            calls.append(bits)
            return base(bits)

        v = check_equivalence(bad, counting)
        assert v.witness == Mismatch((0, 1, 0, 0), "ancilla not restored to |0>")
        assert calls == [_input_tuple(m, 4) for m in range(5)]

    def test_ancilla_failure_beats_earlier_mismatch(self):
        # input 0 already disagrees with the oracle (the target is
        # flipped), but the ancilla failure at input 4 is what is shown
        good = build_cnx(3)
        bad = Circuit(good.roles, good.gates + (x(3), cnot(1, 4)), good.meta)
        v = check_equivalence(bad, oracle_cnx(3))
        assert v.witness == Mismatch((0, 1, 0, 0), "ancilla not restored to |0>")


# ---------------------------------------------------------------------------
# the built-in oracles' table against their own per-input calls


def _flatten_calls(oracle, k):
    """The oracle called on every input in order, flattened by hand."""
    counts, keys, amps = [], [], []
    for m in range(2 ** k):
        out = oracle(_input_tuple(m, k))
        counts.append(len(out))
        for bits, amp in out.items():
            keys.append((m << k) | int("".join(map(str, bits)), 2))
            amps.append(amp)
    return counts, keys, amps


def _parity_builds():
    """Every build at n=2..8, with whether its mutants are checked."""
    for n in range(2, 9):
        builds = [build_cnx(n)] + [build_cycle_cnx(n, c) for c in range(1, n)]
        if n >= 3:
            builds.append(build_two_cycle_cnx(n))
        for circ in builds:
            yield circ, oracle_cnx(n), n <= 5


def _parity_sweep():
    """Each of _parity_builds lowered to every basis, followed by its
    one-gate-deleted mutants where those are checked."""
    for circ, oracle, mutate in _parity_builds():
        for basis in GateBasis:
            lowered = lower_circuit(circ, basis)
            yield lowered, oracle
            if mutate:
                for p in range(len(lowered.gates)):
                    gates = lowered.gates[:p] + lowered.gates[p + 1:]
                    yield Circuit(lowered.roles, gates, lowered.meta), oracle


def _same_verdict(a, b):
    return (a.klass, a.witness, a.max_deviation.hex()) == (b.klass, b.witness, b.max_deviation.hex())


# what an exact check and a symbolic proof both return
_PROVED = verify.EquivalenceVerdict(EquivalenceClass.EXACT, 0.0)


def _general_verdict(circuit, oracle, tol, monkeypatch):
    """The verdict by the general path: the oracle called per input, so
    that nothing is read off the keys alone; a circuit that is not
    Toffoli-level run on sparse entries, also where its plan runs on bit
    planes, so that those stay checked against sparse entries; and the
    sparse entries handed to _classify in reverse, so that it groups them
    by sorting rather than reading one entry per input."""
    real = verify._evolve_sparse

    def reversed_entries(*args):
        keys, amps, overflow = real(*args)
        return keys[::-1], amps[::-1], overflow

    def sparse(steps, width, comp, ancillas, miter=False):
        assert not miter
        return verify._run_sparse(circuit, verify._plan(circuit.gates), comp, ancillas, tol)

    with monkeypatch.context() as m:
        m.setattr(verify, "_evolve_sparse", reversed_entries)
        if not is_classical(circuit):
            m.setattr(verify, "_run_classical", sparse)
        return check_equivalence(circuit, lambda bits: oracle(bits), tol=tol)


def _signed_drift(circuit, tol):
    """The summed drift of the windows the bit planes run for the circuit
    at tol, 0 for a Toffoli-level circuit, or None when it runs on
    sparse entries."""
    plan, steps = verify._signed_steps(circuit, tol)
    if steps is None:
        return None
    return 0.0 if plan is None else sum(s.drift for s in plan if isinstance(s, verify._Window))


def _assert_general_verdict(fast, circuit, oracle, tol, monkeypatch):
    """The verdict has the class and witness of the general path, which
    runs sparse entries.  Where the circuit runs on sparse entries its
    deviation is the general path's too, to the bit.  Where the bit
    planes decide, it is exactly 0.0 for an equivalent circuit and 1.0
    for a failure (an ancilla left set, or the table's amplitude 1 where
    the circuit puts none), and the general path's is within the plan's
    summed drift of it."""
    general = _general_verdict(circuit, oracle, tol, monkeypatch)
    where = (circuit.meta, len(circuit.gates), tol)
    assert (fast.klass, fast.witness) == (general.klass, general.witness), where
    drift = _signed_drift(circuit, tol)
    if drift is None:
        assert fast.max_deviation.hex() == general.max_deviation.hex(), where
    else:
        want = 0.0 if fast.equivalent else 1.0
        assert fast.max_deviation == want, where
        assert abs(general.max_deviation - want) <= drift, (where, general, drift)


def _count_paths(monkeypatch):
    """Count how checks reach their verdicts: the bit planes, which the
    circuits counted here (none classical) reach as plans of windows
    alone within tol, and _classify's one-entry or general branch, which
    follows them unless they are read as a miter."""
    paths = Counter()
    real_planes, real_one = verify._run_classical, verify._one_entry_each

    def bit_planes(*args):
        paths["bit planes"] += 1
        return real_planes(*args)

    def one_entry(*args):
        taken = real_one(*args)
        paths["one entry" if taken else "general"] += 1
        return taken

    monkeypatch.setattr(verify, "_run_classical", bit_planes)
    monkeypatch.setattr(verify, "_one_entry_each", one_entry)
    return paths


class TestTabulatedOracle:
    @pytest.mark.parametrize("name", sorted(NAMED_UNITARIES) + ["cnx"])
    def test_table_equals_per_input_calls(self, name):
        for n in range(0, 9):
            oracle = oracle_cnx(n) if name == "cnx" else oracle_cnu(n, NAMED_UNITARIES[name])
            assert isinstance(oracle, ControlledOracle)
            counts, keys, amps = oracle.table()
            want_counts, want_keys, want_amps = _flatten_calls(oracle, n + 1)
            assert counts.dtype == keys.dtype == np.int64
            assert counts.tolist() == want_counts
            assert keys.tolist() == want_keys
            assert amps.dtype == complex
            assert amps.tobytes() == np.array(want_amps, dtype=complex).tobytes()

    def test_entries_in_row_order(self):
        # the anchor is the first largest entry, so the order is observable
        oracle = oracle_cnu(2, MAT_H)
        assert list(oracle((1, 1, 1))) == [(1, 1, 0), (1, 1, 1)]
        assert oracle.table()[1][-2:].tolist() == [(7 << 3) | 6, (7 << 3) | 7]

    @staticmethod
    def _assert_same_verdicts(tol, monkeypatch):
        """Every sweep case gives the same verdict, bit for bit, against
        the table and by per-input calls, and the general path's verdict
        as _assert_general_verdict reads it."""
        checked = 0
        for c, oracle in _parity_sweep():
            fast = check_equivalence(c, oracle, tol=tol)
            slow = check_equivalence(c, lambda bits: oracle(bits), tol=tol)
            assert _same_verdict(fast, slow), (c.meta, len(c.gates))
            _assert_general_verdict(fast, c, oracle, tol, monkeypatch)
            checked += 1
        assert checked > 1000

    def test_same_verdict_as_per_input_calls(self, monkeypatch):
        self._assert_same_verdicts(verify.DEFAULT_TOL, monkeypatch)

    # a C^nX verdict off the bit planes is a miter at every tol, and a
    # missing output reads as missing at tol 0 too
    @pytest.mark.parametrize("tol", [0.0, 1e-15, 0.5])
    def test_same_verdict_at_other_tolerances(self, tol, monkeypatch):
        self._assert_same_verdicts(tol, monkeypatch)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-9, 1.0, 2.0])
    def test_tolerance_outside_zero_to_one_refused(self, tol, monkeypatch):
        # nan passed a wrong circuit, a negative tol failed a right one,
        # and at 1 or more the verdict hung on the engine
        for engine in ("_run_classical", "_run_sparse", "_plan"):
            monkeypatch.setattr(verify, engine, lambda *args: pytest.fail("simulated"))
        for basis in (GateBasis.NATIVE_TOFFOLI, GateBasis.CV_BASIS):
            lowered = lower_circuit(build_cnx(3), basis)
            for oracle in (oracle_cnx(3), lambda bits: oracle_cnx(3)(bits)):
                for check in (check_equivalence, check_symbolic):
                    with pytest.raises(ValueError, match=f"^tol must be at least 0 and below 1, "
                                                         f"got {tol}$"):
                        check(lowered, oracle, tol=tol)

    def test_identity_payload_goes_through_classify(self, monkeypatch):
        """A table that moves nothing is not C^nX, so no miter reads it:
        every sweep case gets the verdict of the per-input calls and of
        the general path, through _classify unless an ancilla fails."""
        identity = ((1, 0), (0, 1))
        real = verify._classify
        classified = []
        monkeypatch.setattr(verify, "_classify",
                            lambda *args: classified.append(1) or real(*args))
        seen = Counter()
        for c, cnx in _parity_sweep():
            oracle = ControlledOracle(cnx.n, identity)
            classified.clear()
            fast = check_equivalence(c, oracle)
            assert len(classified) == (fast.witness is None
                                       or not fast.witness.detail.startswith("ancilla"))
            slow = check_equivalence(c, lambda bits: oracle(bits))
            assert _same_verdict(fast, slow), (c.meta, len(c.gates))
            _assert_general_verdict(fast, c, oracle, verify.DEFAULT_TOL, monkeypatch)
            seen[fast.klass] += 1
        # the builds are C^nX, and a mutant without its firing gate is
        # the identity
        assert seen[EquivalenceClass.MISMATCH] > 1000 and seen[EquivalenceClass.EXACT] > 0, seen

    def test_merge_ignores_entry_order(self, monkeypatch):
        # the circuit's entries give the same verdict reversed and with
        # one more, of amplitude 0, at a key the circuit does not reach,
        # whether or not their keys are the oracle's; a C^nX table read
        # as a miter reaches no _classify, so the sweep also goes
        # through per-input calls, which do
        real = verify._classify
        same_keys = []

        def both(k, expected, got, tol):
            keys, amps = got
            same_keys.append(np.array_equal(keys, expected[1]))
            fresh = min(set(range(1 << k)) - set(keys.tolist()))
            merged = real(k, expected, (np.append(keys[::-1], fresh),
                                        np.append(amps[::-1], 0j)), tol)
            verdict = real(k, expected, got, tol)
            assert _same_verdict(verdict, merged)
            return verdict

        monkeypatch.setattr(verify, "_classify", both)
        for c, oracle in _parity_sweep():
            check_equivalence(c, oracle)
            check_equivalence(c, lambda bits: oracle(bits))
        assert sum(same_keys) > 100
        assert len(same_keys) - sum(same_keys) > 100

    def test_not_called_per_input(self, monkeypatch):
        calls = []
        real = ControlledOracle.__call__

        def counting(self, bits):
            calls.append(bits)
            return real(self, bits)

        monkeypatch.setattr(ControlledOracle, "__call__", counting)
        for basis in (GateBasis.NATIVE_TOFFOLI, GateBasis.CV_BASIS):
            good = lower_circuit(build_cycle_cnx(10, 3), basis)
            comp = default_computational_qubits(good)
            spare = next(q for q in range(good.width) if q not in comp)
            calls.clear()
            # an exact C^nX check asks the oracle nothing, nor does an
            # ancilla left set
            assert check_equivalence(good, oracle_cnx(10)).klass is EquivalenceClass.EXACT
            left = Circuit(good.roles, good.gates + (x(spare),), good.meta)
            assert check_equivalence(left, oracle_cnx(10)).witness.detail.startswith("ancilla")
            assert calls == []
            # a wrong output asks it once, for what the witness should give
            wrong = Circuit(good.roles, good.gates + (x(comp[-1]),), good.meta)
            v = check_equivalence(wrong, oracle_cnx(10))
            assert v.witness == Mismatch((0,) * 11, "no amplitude on expected output "
                                                    f"{(0,) * 11}")
            assert calls == [(0,) * 11]

    @pytest.mark.parametrize("tail", [(), (x(3),)])
    def test_wrong_arity_still_raises(self, tail):
        # also when an ancilla is left set, as the oracle is still asked
        # about the inputs up to the witness
        good = build_cnx(3)
        circ = Circuit(good.roles, good.gates + tail, good.meta)
        with pytest.raises(ValueError, match="expected 3 bits, got 4"):
            check_equivalence(circ, oracle_cnx(2))


class TestOneEntryVerdict:
    """A lowered build keeps one basis state per input, so its verdict is
    read off bit planes as a miter (windows within tol, against a C^nX
    table) or fitted entry by entry; either way it is the verdict of the
    general path, as _assert_general_verdict reads it."""

    @pytest.mark.parametrize("basis", [GateBasis.CV_BASIS, GateBasis.CNOT_LOCAL])
    def test_lowered_builds_never_take_the_general_path(self, basis, monkeypatch):
        # against the table a miter; called per input, the bit planes'
        # outputs fitted entry by entry
        paths = _count_paths(monkeypatch)
        builds = []
        for n in range(2, 10):
            builds += [build_cnx(n)] + [build_cycle_cnx(n, c) for c in range(1, n)]
            if n >= 3:
                builds.append(build_two_cycle_cnx(n))
        # width 24, the cap, as mct synth checks it: two blocks of inputs
        builds.append(build_scheme("cycle", 16))
        for circ in builds:
            lowered, oracle = lower_circuit(circ, basis), oracle_cnx(circ.meta.n)
            paths.clear()
            assert check_equivalence(lowered, oracle) == _PROVED
            assert paths == {"bit planes": 1}, (circ.meta, paths)
            paths.clear()
            assert check_equivalence(lowered, lambda bits: oracle(bits)) == _PROVED
            assert paths == {"bit planes": 1, "one entry": 1}, (circ.meta, paths)
        assert len(builds) > 50

    @pytest.mark.parametrize("name", ["x", "z", "s", "sdg", "t", "tdg"])
    def test_monomial_payloads_never_take_the_general_path(self, name, monkeypatch):
        paths = _count_paths(monkeypatch)
        matrix = NAMED_UNITARIES[name]
        for n in range(1, 7):
            for basis in GateBasis:
                paths.clear()
                v = check_equivalence(lower_circuit(build_cnu(n, matrix), basis),
                                      oracle_cnu(n, matrix))
                assert v.klass is EquivalenceClass.EXACT
                assert paths["general"] == 0 and sum(paths.values()) == 1, (n, basis, paths)

    def test_blocks_of_four_inputs(self, monkeypatch):
        """Inputs split over blocks of four: both fast paths are still
        taken, against the table and by per-input calls, and the witness
        is the lowest failing input over all blocks, as the general path
        finds it."""
        paths = _count_paths(monkeypatch)
        monkeypatch.setattr(verify, "_ENTRY_BUDGET", 4)
        taken, witnesses = Counter(), set()
        for c, oracle in _parity_sweep():
            if c.meta.n > 4 or is_classical(c):
                continue
            paths.clear()
            fast = check_equivalence(c, oracle)
            assert _same_verdict(fast, check_equivalence(c, lambda bits: oracle(bits))), \
                (c.meta, len(c.gates))
            taken.update(paths)
            _assert_general_verdict(fast, c, oracle, verify.DEFAULT_TOL, monkeypatch)
            if fast.witness is not None:
                witnesses.add((fast.witness.detail.split()[0], fast.witness.input_bits[0]))
        # a deleted gate of a decomposed Toffoli may leave a step that
        # mixes, and such a mutant takes the general path
        assert taken["bit planes"] > 20 and taken["one entry"] > 50, taken
        # ancillas and outputs both found wrong in the upper half of the
        # inputs too, past the first blocks
        assert {("ancilla", 1), ("no", 1), ("ancilla", 0), ("no", 0)} <= witnesses

    @pytest.mark.parametrize("basis", [GateBasis.CV_BASIS, GateBasis.CNOT_LOCAL])
    def test_later_block_ancilla_beats_earlier_block_mismatch(self, basis, monkeypatch):
        # every input's output is wrong, but the ancilla is left set only
        # once control 0, the top input bit, is 1: in the third block
        paths = _count_paths(monkeypatch)
        monkeypatch.setattr(verify, "_ENTRY_BUDGET", 4)
        good = lower_circuit(build_cnx(3), basis)
        comp = default_computational_qubits(good)
        ancilla = next(q for q in range(good.width) if q not in comp)
        bad = Circuit(good.roles, good.gates + (x(comp[-1]), cnot(comp[0], ancilla)), good.meta)
        v = check_equivalence(bad, oracle_cnx(3))
        assert v.witness == Mismatch((1, 0, 0, 0), "ancilla not restored to |0>")
        assert paths == {"bit planes": 1}
        _assert_general_verdict(v, bad, oracle_cnx(3), verify.DEFAULT_TOL, monkeypatch)

    def test_zero_amplitude_oracle_refused_on_the_one_entry_branch(self, monkeypatch):
        # cv and cnot both run on bit planes, whose outputs are one
        # entry per input
        paths = _count_paths(monkeypatch)
        for basis in (GateBasis.CV_BASIS, GateBasis.CNOT_LOCAL):
            lowered = lower_circuit(build_cycle_cnx(4, 2), basis)
            with pytest.raises(ValueError, match="^oracle output has no nonzero amplitude$"):
                check_equivalence(lowered, lambda bits: {bits: 0})
        assert paths == {"bit planes": 2, "one entry": 2}


def _cnx_moves(k):
    """The inputs a C^nX table on k bits does not map to themselves,
    each with the output it maps it to: the two with every control set."""
    last = (1 << k) - 2
    return {last: last + 1, last + 1: last}


def _classical_reference(circuit, comp, moved):
    """What _run_classical must return, worked out from the per-gate
    sparse loop's final entries: the lowest input with an ancilla left
    set, else the outputs keyed (m << k) | output with their amplitudes,
    or with ``moved`` the lowest input whose output differs from the
    table's and the signs the amplitudes round to.  Both answers,
    without and with ``moved``, from one run of the loop, in blocks of
    the default budget."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(verify, "_ENTRY_BUDGET", _DEFAULT_BUDGET)
        evolved = _evolve_per_gate(circuit, comp)
    return [_classical_answer(circuit, comp, evolved, want) for want in (None, moved)]


def _classical_answer(circuit, comp, evolved, moved):
    width, k = circuit.width, len(comp)
    keys, amps, overflow = evolved
    assert not overflow and len(keys) == 1 << k
    order = np.argsort(keys)
    keys, amps = keys[order], amps[order]
    inputs, idx = keys >> width, keys & ((1 << width) - 1)
    assert inputs.tolist() == list(range(1 << k))
    spare = sum(1 << (width - 1 - q) for q in range(width) if q not in comp)
    dirty = np.flatnonzero(idx & spare)
    if len(dirty):
        return (int(inputs[dirty[0]]), 1.0), None
    outputs = verify._gather(idx, comp, width)
    if moved is None:
        return None, ((inputs << k) | outputs, amps)
    want = np.arange(1 << k)
    for m, out in moved.items():
        want[m] = out
    differ = np.flatnonzero(outputs != want)
    signs = int((amps.real > 0).any()) | int((amps.real < 0).any()) << 1
    return None, (int(differ[0]) if len(differ) else None, signs)


def _bit_plane_steps(circuit, oracle, monkeypatch, tol=verify.DEFAULT_TOL):
    """The steps check_equivalence hands the bit planes, or None when it
    runs sparse entries; neither engine runs."""
    handed = []

    def stop(*args):
        return (0, 0.0), None

    with monkeypatch.context() as m:
        m.setattr(verify, "_run_classical", lambda steps, *args: handed.append(steps) or stop())
        m.setattr(verify, "_run_sparse", stop)
        check_equivalence(circuit, oracle, tol=tol)
    return handed[0] if handed else None


def _appended_x():
    """Each build of _parity_builds lowered to cv, with an x appended on
    the target, and on its first ancilla: a window that flips a bit
    unconditionally."""
    for circ, oracle, _ in _parity_builds():
        lowered = lower_circuit(circ, GateBasis.CV_BASIS)
        comp = default_computational_qubits(lowered)
        spare = [q for q in range(lowered.width) if q not in comp]
        for q in [comp[-1]] + spare[:1]:
            yield Circuit(lowered.roles, lowered.gates + (x(q),), lowered.meta), oracle


_DEFAULT_BUDGET = verify._ENTRY_BUDGET


class TestWordEngine:
    """The bit-plane engine holds each wire as one int, a bit per input
    of a block, and reads the verdict against a C^nX table off those
    bits as a miter: after the table's inverse every wire must end as it
    began."""

    @pytest.mark.parametrize("budget", [4, verify._ENTRY_BUDGET])
    def test_matches_the_per_gate_engine(self, budget, monkeypatch):
        """Toffoli-level sweep cases, the sweep's window plans within
        tol, and cv builds with an x appended, each run on bit planes
        against the per-gate loop's answers: the handed steps without
        their last, the table's inverse, give the outputs and their
        signs, and with it the miter's witness and the signs seen."""
        monkeypatch.setattr(verify, "_ENTRY_BUDGET", budget)
        checked, failures, witnesses, minus = Counter(), Counter(), Counter(), Counter()
        cases = chain((("sweep", c, oracle) for c, oracle in _parity_sweep()),
                      (("appended x", c, oracle) for c, oracle in _appended_x()))
        for source, c, oracle in cases:
            steps = _bit_plane_steps(c, oracle, monkeypatch)
            if steps is None:
                continue
            kind = "toffoli" if is_classical(c) else source
            comp = default_computational_qubits(c)
            spare = tuple(q for q in range(c.width) if q not in comp)
            assert steps[-1] == (comp[-1], (comp[:-1] or (-1,),))
            failure, got = verify._run_classical(steps[:-1], c.width, comp, spare)
            (want_failure, want_got), want = _classical_reference(c, comp, _cnx_moves(len(comp)))
            assert failure == want_failure, (c.meta, len(c.gates))
            if failure is None:
                assert got[0].tolist() == want_got[0].tolist()
                if kind == "toffoli":
                    assert got[1].tobytes() == want_got[1].tobytes()
                else:
                    # each output is -1 where the sign wire is set and 1
                    # elsewhere, which the per-gate loop reaches up to
                    # rounding
                    assert set(got[1].tolist()) <= {1, -1}
                    assert np.abs(want_got[1] - got[1]).max() < 1e-12
                    minus[kind] += bool((got[1] == -1).any())
            else:
                assert got is None
                failures[kind] += 1
            assert verify._run_classical(steps, c.width, comp, spare, True) == want, \
                (c.meta, len(c.gates))
            witnesses[kind] += want[1] is not None and want[1][0] is not None
            checked[kind] += 1
        # builds and their mutants: ancillas left set, and outputs wrong
        assert checked["toffoli"] > 120 and failures["toffoli"] > 50 \
            and witnesses["toffoli"] > 10, (checked, failures, witnesses)
        assert checked["sweep"] >= 70 and failures["sweep"] + witnesses["sweep"] > 0, \
            (checked, failures, witnesses)
        # cnot plans whose signs do not all cancel: a mutant of a
        # relative-phase Toffoli
        assert minus["sweep"] > 10, minus
        # every appended x fails: on the target at input 0, on an
        # ancilla as an ancilla left set
        assert failures["appended x"] + witnesses["appended x"] == checked["appended x"] > 60, \
            (checked, failures, witnesses)

    def test_engine_follows_the_plan(self, monkeypatch):
        """Every sweep plan of windows alone whose drifts sum to at most
        tol is handed to the bit planes, whatever the oracle: the same
        steps against a C^nH table, an identity payload and a per-input
        callable; against a C^nX table those and the table's inverse,
        and against a C^nZ table those and one sign step, the AND of
        every computational wire.  No plan with a lone gate or more
        drift is, which at tol 0 is every plan with a phase that is +-1
        only up to rounding."""
        identity = ((1, 0), (0, 1))
        plans = Counter()
        for c, cnx in _parity_sweep():
            if is_classical(c):
                continue
            plan = verify._plan(c.gates)
            windows = all(isinstance(s, verify._Window) for s in plan)
            drift = sum(s.drift for s in plan if isinstance(s, verify._Window))
            comp = default_computational_qubits(c)
            others = (oracle_cnu(cnx.n, MAT_H), ControlledOracle(cnx.n, identity),
                      lambda bits: cnx(bits))
            for tol in (0.0, verify.DEFAULT_TOL):
                decided = windows and drift <= tol
                plans[tol, decided] += 1
                miter = _bit_plane_steps(c, cnx, monkeypatch, tol)
                assert (miter is not None) == decided, (c.meta, len(c.gates))
                cnz = _bit_plane_steps(c, oracle_cnu(cnx.n, MAT_Z), monkeypatch, tol)
                if decided:
                    assert miter[-1] == (comp[-1], (comp[:-1] or (-1,),))
                    assert cnz == miter[:-1] + [(anf.SIGN, (comp,))]
                else:
                    assert cnz is None
                for oracle in others:
                    steps = _bit_plane_steps(c, oracle, monkeypatch, tol)
                    assert steps == (miter and miter[:-1]), (c.meta, len(c.gates))
        # cv plans at both tolerances, and cnot plans at 1e-9 only
        assert plans[0.0, True] > 50 and plans[0.0, False] > 500, plans
        assert plans[verify.DEFAULT_TOL, True] > plans[0.0, True] + 50, plans

    def test_no_controls(self):
        # n = 0: the table's inverse is a bare X, the one step that
        # reads wire -1
        oracle = ControlledOracle(0, MAT_X)
        assert check_equivalence(_circ([T], [x(0)]), oracle) == \
            verify.EquivalenceVerdict(EquivalenceClass.EXACT, 0.0)
        v = check_equivalence(_circ([T], []), oracle)
        assert (v.klass, v.max_deviation) == (EquivalenceClass.MISMATCH, 1.0)
        assert v.witness == Mismatch((0,), "no amplitude on expected output (1,)")

    def test_matrix_as_an_array(self, monkeypatch):
        # X given as a numpy array is still a C^nX table, read as a miter
        paths = _count_paths(monkeypatch)
        good = lower_circuit(build_cnx(3), GateBasis.CV_BASIS)
        wrong = Circuit(good.roles, good.gates + (x(3),), good.meta)
        for circ in (good, wrong):
            paths.clear()
            v = check_equivalence(circ, ControlledOracle(3, np.array(MAT_X)))
            assert paths == {"bit planes": 1} and v.equivalent == (circ is good)
            assert _same_verdict(v, check_equivalence(circ, oracle_cnx(3)))

    @pytest.mark.parametrize("size_log", [0, 1, 2, 3, 4, 7, 16])
    def test_block_patterns(self, size_log):
        patterns = anf.patterns(size_log)
        assert len(patterns) == size_log
        for j, pattern in enumerate(patterns):
            assert pattern.bit_length() <= 1 << size_log
            bits = [pattern >> i & 1 for i in range(1 << size_log)]
            assert bits == [i >> j & 1 for i in range(1 << size_log)]

    @staticmethod
    def _both(circ, oracle, tol=verify.DEFAULT_TOL):
        """The verdict read off the words, after checking it against
        the per-input calls, which go through _classify."""
        fast = check_equivalence(circ, oracle, tol=tol)
        slow = check_equivalence(circ, lambda bits: oracle(bits), tol=tol)
        assert _same_verdict(fast, slow)
        return fast

    def test_permutation_oracles_skip_classify(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("_classify reached")

        monkeypatch.setattr(verify, "_classify", refuse)
        circ = build_cycle_cnx(9, 3)
        broken = Circuit(circ.roles, circ.gates[1:], circ.meta)
        for oracle in (oracle_cnx(9), oracle_cnu(9, NAMED_UNITARIES["x"])):
            for tol in (0.0, verify.DEFAULT_TOL, 0.5):
                assert check_equivalence(circ, oracle, tol=tol) == \
                    verify.EquivalenceVerdict(EquivalenceClass.EXACT, 0.0)
                assert check_equivalence(broken, oracle, tol=tol).klass is \
                    EquivalenceClass.MISMATCH

    def test_later_block_ancilla_beats_earlier_block_mismatch(self):
        # 17 inputs, two blocks; control 0 is the top input bit, so it
        # is 0 throughout the first block and 1 throughout the second
        good = build_cnx(16)
        comp = default_computational_qubits(good)
        ancilla = next(q for q in range(good.width) if q not in comp)
        assert len(comp) == 17 and 1 << 17 > verify._ENTRY_BUDGET
        bad = Circuit(good.roles, good.gates + (x(comp[-1]), cnot(comp[0], ancilla)),
                      good.meta)
        v = self._both(bad, oracle_cnx(16))
        assert v.witness == Mismatch((1,) + (0,) * 16, "ancilla not restored to |0>")

    def test_mismatch_only_in_a_later_block_gives_the_lowest_witness(self):
        good = build_cnx(16)
        comp = default_computational_qubits(good)
        tails = {1 << 16: (cnot(comp[0], comp[-1]),),
                 3 << 15: (x(comp[-1]), toffoli(comp[0], comp[1], comp[-1]), x(comp[-1]))}
        for m, tail in tails.items():
            bad = Circuit(good.roles, good.gates + tail, good.meta)
            v = self._both(bad, oracle_cnx(16))
            want = _input_tuple(m, 17)
            assert v.witness == Mismatch(
                want, f"no amplitude on expected output {want}")
            assert (v.klass, v.max_deviation) == (EquivalenceClass.MISMATCH, 1.0)

    @pytest.mark.parametrize("n", range(0, 5))
    def test_fewer_inputs_than_a_word(self, n):
        # bare x gates flip every input's bit of a block, and a block
        # holds no more than the 2**(n+1) inputs; none may read as a
        # failure
        good = build_cnx(n) if n else _circ([T], [x(0)])
        comp = default_computational_qubits(good)
        spare = tuple(q for q in range(good.width) if q not in comp)
        flips = tuple(chain.from_iterable((x(q), x(q)) for q in spare))
        t = x(comp[-1])
        oracle = oracle_cnx(n)
        for tol in (verify.DEFAULT_TOL, 0.5):
            exact = Circuit(good.roles, flips + (t,) + good.gates + (t,), good.meta)
            assert self._both(exact, oracle, tol).klass is EquivalenceClass.EXACT
            # the build twice is the identity, so the first input the
            # table moves is the first to fail
            twice = Circuit(good.roles, good.gates * 2, good.meta)
            last = (1 << (n + 1)) - 2
            assert self._both(twice, oracle, tol).witness.input_bits == _input_tuple(last, n + 1)
        if spare:
            left = Circuit(good.roles, good.gates + (x(spare[0]),), good.meta)
            assert self._both(left, oracle).witness == Mismatch(
                (0,) * (n + 1), "ancilla not restored to |0>")


class TestSignedPlanes:
    """A plan of windows whose phases are +-1 within tol runs on bit
    planes, each window's sign step included; a miter's class is read
    off the sign wire, where the sparse engine fits each phase."""

    @staticmethod
    def _cnot_build(*tail):
        good = lower_circuit(build_cycle_cnx(5, 2), GateBasis.CNOT_LOCAL)
        return Circuit(good.roles, good.gates + tail, good.meta), oracle_cnx(5)

    def test_phase_classes_off_the_sign_wire(self, monkeypatch):
        # the sweep reaches no global phase: x z x z is -I on the
        # target, and a z on a control is -1 on half the inputs
        comp = default_computational_qubits(self._cnot_build()[0])
        z = [local(q, MAT_Z) for q in comp]
        minus_one = (x(comp[-1]), z[-1], x(comp[-1]), z[-1])
        for tail, klass in ((minus_one, EquivalenceClass.GLOBAL_PHASE),
                            ((z[0],), EquivalenceClass.DIAGONAL_PHASE)):
            circ, oracle = self._cnot_build(*tail)
            assert _bit_plane_steps(circ, oracle, monkeypatch) is not None
            v = check_equivalence(circ, oracle)
            assert v == verify.EquivalenceVerdict(klass, 0.0)
            assert _same_verdict(v, check_equivalence(circ, lambda bits: oracle(bits)))
            _assert_general_verdict(v, circ, oracle, verify.DEFAULT_TOL, monkeypatch)

    def test_phase_off_the_signs_stays_on_sparse_entries(self, monkeypatch):
        # a t on the target has a phase sqrt(2 - sqrt(2)) from +1
        target = default_computational_qubits(self._cnot_build()[0])[-1]
        circ, oracle = self._cnot_build(local(target, MAT_T))
        assert _bit_plane_steps(circ, oracle, monkeypatch) is None
        v = check_equivalence(circ, oracle)
        assert v.klass is EquivalenceClass.DIAGONAL_PHASE and v.max_deviation > 0
        _assert_general_verdict(v, circ, oracle, verify.DEFAULT_TOL, monkeypatch)

    def test_cnz_tables_end_with_one_sign_step(self, monkeypatch):
        """build_cnu(n, Z) at n <= 6 in every basis, and its
        one-gate-deleted mutants at n <= 4: against a C^nZ table the bit
        planes end with the table's inverse, the AND of every
        computational wire into the sign, and the verdict has the sparse
        engine's class and witness."""
        taken, classes = Counter(), Counter()
        for n in range(1, 7):
            oracle = oracle_cnu(n, MAT_Z)
            for basis in GateBasis:
                lowered = lower_circuit(build_cnu(n, MAT_Z), basis)
                assert check_symbolic(lowered, oracle) == _PROVED
                cases = [lowered]
                if n <= 4:
                    cases += [Circuit(lowered.roles, lowered.gates[:p] + lowered.gates[p + 1:],
                                      lowered.meta) for p in range(len(lowered.gates))]
                comp = default_computational_qubits(lowered)
                for c in cases:
                    steps = _bit_plane_steps(c, oracle, monkeypatch)
                    taken[steps is not None] += 1
                    if steps is not None:
                        assert steps[-1] == (anf.SIGN, (comp,))
                    v = check_equivalence(c, oracle)
                    _assert_general_verdict(v, c, oracle, verify.DEFAULT_TOL, monkeypatch)
                    classes[v.klass] += 1
        assert taken[True] > 50 and taken[False] > 100, taken
        assert classes[EquivalenceClass.EXACT] >= 18 and classes[EquivalenceClass.MISMATCH] > 100 \
            and classes[EquivalenceClass.DIAGONAL_PHASE] > 0, classes


class TestSymbolic:
    """check_symbolic proves a circuit exact against a C^nX table from
    its steps alone, or gives no answer."""

    @pytest.mark.parametrize("tol", [0.0, 1e-15, verify.DEFAULT_TOL, 0.5])
    def test_exact_only_where_every_input_is(self, tol):
        # the sweep's builds and their one-gate-deleted mutants
        proved = 0
        for c, oracle in _parity_sweep():
            symbolic = check_symbolic(c, oracle, tol)
            if symbolic is not None:
                assert symbolic == _PROVED, (c.meta, len(c.gates))
                assert check_equivalence(c, oracle, tol=tol).klass is EquivalenceClass.EXACT, \
                    (c.meta, len(c.gates))
                proved += 1
        assert proved >= 80, proved

    @pytest.mark.parametrize("basis", list(GateBasis))
    def test_proves_every_build(self, basis, monkeypatch):
        def refuse(*args):
            raise AssertionError("inputs enumerated")

        monkeypatch.setattr(verify, "_run_classical", refuse)
        monkeypatch.setattr(verify, "_run_sparse", refuse)
        builds = [(circ, oracle) for circ, oracle, _ in _parity_builds()]
        # width 24 in cnot, the widest build mct synth checks by default
        builds.append((build_cycle_cnx(16, best_cycle_count(16)), oracle_cnx(16)))
        for circ, oracle in builds:
            assert check_symbolic(lower_circuit(circ, basis), oracle) == _PROVED, circ.meta
        assert len(builds) > 40

    def test_lone_mixing_gate_gives_none(self, monkeypatch):
        # an H whose run reaches a fourth qubit before it is monomial
        # starts no window, though the circuit is C^2X
        h = local(2, MAT_H)
        circ = _circ([C, C, T, P], [h, toffoli(0, 1, 3), toffoli(0, 1, 3), h, toffoli(0, 1, 2)])
        assert any(isinstance(s, Gate) for s in verify._plan(circ.gates))
        assert check_equivalence(circ, oracle_cnx(2)).klass is EquivalenceClass.EXACT
        assert check_symbolic(circ, oracle_cnx(2)) is None
        # an MCX starts no window either, but it is X-like, so it is a
        # step among the windows' steps: proved, and exact with no float
        # dust on the bit planes, where sparse entries find 3.1e-16
        c3x = mcx((0, 1, 2), 4)
        circ = _circ([C, C, C, T, P], [c3x, *lower_toffoli(4, 0, 3, ToffoliRule.SIX_CNOT), c3x])
        assert any(isinstance(s, Gate) for s in verify._plan(circ.gates))
        assert check_symbolic(circ, oracle_cnx(3)) == _PROVED
        v = check_equivalence(circ, oracle_cnx(3))
        assert v == _PROVED
        _assert_general_verdict(v, circ, oracle_cnx(3), verify.DEFAULT_TOL, monkeypatch)

    def test_phase_i_window_gives_none(self):
        # S and S-dagger in windows of their own: each has a phase i or
        # -i, sqrt(2) from the +-1 it rounds to, though they cancel
        gates = [local(2, MAT_S), toffoli(0, 1, 3), toffoli(0, 1, 3), local(2, MAT_SDG),
                 toffoli(0, 1, 2)]
        circ = _circ([C, C, T, P], gates)
        drifts = [s.drift for s in verify._plan(circ.gates)]
        assert max(drifts) == pytest.approx(math.sqrt(2))
        assert check_equivalence(circ, oracle_cnx(2), tol=0.5).klass is EquivalenceClass.EXACT
        for tol in (verify.DEFAULT_TOL, 0.5):
            assert check_symbolic(circ, oracle_cnx(2), tol) is None

    def test_drift_past_tol_gives_none(self):
        # a phase 1e-6 off +1: a proof within a tol above it, no answer
        # below it, where the exhaustive check finds a phase
        u = ((1, 0), (0, cmath.exp(1e-6j)))
        circ = _circ([C, C, T], [toffoli(0, 1, 2), local(2, u)])
        assert check_symbolic(circ, oracle_cnx(2)) is None
        assert check_equivalence(circ, oracle_cnx(2)).klass is not EquivalenceClass.EXACT
        assert check_symbolic(circ, oracle_cnx(2), 1e-5) == _PROVED
        assert check_equivalence(circ, oracle_cnx(2), tol=1e-5).klass is EquivalenceClass.EXACT

    def test_wire_past_the_budget_gives_none(self, monkeypatch):
        # C^34X with a detour: the target picks up (x0+..+x16)(x17+..+x33),
        # 289 monomials, then drops them again
        m = 17
        a, b, t = 2 * m + 1, 2 * m + 2, 2 * m
        folds = [cnot(i, a) for i in range(m)] + [cnot(m + i, b) for i in range(m)]
        gates = folds + [toffoli(a, b, t)] * 2 + folds + [mcx(range(2 * m), t)]
        circ = _circ([C] * (2 * m) + [T, P, P], gates)
        assert m * m > anf.MONOMIAL_BUDGET
        assert check_symbolic(circ, oracle_cnx(2 * m)) is None
        monkeypatch.setattr(anf, "MONOMIAL_BUDGET", m * m + 1)
        assert check_symbolic(circ, oracle_cnx(2 * m)) == _PROVED

    def test_other_oracles_give_none(self):
        circ = lower_circuit(build_cnx(3), GateBasis.CV_BASIS)
        assert check_symbolic(circ, oracle_cnx(3)) == _PROVED
        for oracle in (oracle_cnu(3, MAT_Z), oracle_cnx(2), lambda bits: oracle_cnx(3)(bits)):
            assert check_symbolic(circ, oracle) is None
        # X given as a numpy array is still a C^nX table
        assert check_symbolic(circ, ControlledOracle(3, np.array(MAT_X))) == _PROVED


def _unmemoised_steps(items):
    """anf.steps with every window put on its qubits anew."""
    steps = []
    for s in items:
        if isinstance(s, verify._Window):
            at = s.qubits + (-4, -3, -2, -1)
            if s.sign:
                steps.append((anf.SIGN, tuple(tuple(at[q] for q in p) for p in s.sign)))
            for t, ps in s.xor:
                steps.append((at[t], tuple(tuple(at[q] for q in p) for p in ps)))
        elif s.kind in X_LIKE_KINDS:
            steps.append((s.target, (s.controls or (-1,),)))
        else:
            return None
    return steps


def test_steps_match_the_unmemoised_reference():
    plans = [c.gates if is_classical(c) else verify._plan(c.gates) for c, _ in _parity_sweep()]
    # two windows on one qubit that flip nothing and differ in sign only
    plans.append(verify._plan([local(0, MAT_Z), toffoli(1, 2, 3),
                               local(0, ((-1, 0), (0, 1))), toffoli(1, 2, 3)]))
    windows = placed = 0
    for items in plans:
        assert anf.steps(items) == _unmemoised_steps(items)
        shown = [s for s in items if isinstance(s, verify._Window)]
        windows += len(shown)
        placed += len({(id(s.xor), id(s.sign), s.qubits) for s in shown})
    # some windows repeat one already placed
    assert windows > placed > 0


class TestClassicalKeyWidth:
    def test_too_many_inputs_refused_at_once(self):
        # 32 computational qubits: keys (m << 32) | out overflow int64
        circ = build_cnx(31)
        assert is_classical(circ)
        with pytest.raises(WidthLimitError, match="63-bit keys"):
            check_equivalence(circ, oracle_cnx(31))
        with pytest.raises(WidthLimitError, match="63-bit keys"):
            check_equivalence(circ, lambda bits: {bits: 1.0})


def test_union_matches_np_unique():
    # _classify's keys are two sorted runs, the circuit's and the
    # table's; any other order and any repeats must give np.unique's
    # union and inverse as well, to the bit
    rng = np.random.default_rng(22)
    for trial in range(300):
        size = int(rng.integers(1, 200))
        top = int(rng.choice([4, 1 << 12, 1 << 62]))
        runs = [np.sort(rng.integers(0, top, int(rng.integers(0, size)) + 1))
                for _ in range(2)]
        if trial % 3 == 0:
            runs = [rng.integers(0, top, size)]
        keys = np.concatenate(runs).astype(np.int64)
        union, where = verify._union(keys)
        want_union, want_where = np.unique(keys, return_inverse=True)
        assert union.dtype == want_union.dtype and where.dtype == want_where.dtype
        assert union.tobytes() == want_union.tobytes()
        assert where.tobytes() == want_where.tobytes()


def test_bit_planes_and_polynomials_agree():
    """The steps of every sweep case on at most 6 inputs, the miter's
    last one included, run once on bit planes of all inputs and once on
    GF(2) polynomials: each wire's polynomial, evaluated at every input,
    is its bit plane.  The sweep's products never cancel a monomial, so
    one more circuit squares x0 + x1, whose two x0 x1 cancel."""
    square = _circ([C, C, T, P, P], [cnot(0, 3), cnot(1, 3), cnot(0, 4), cnot(1, 4),
                                     toffoli(3, 4, 2)])
    checked = 0
    for c, oracle in chain(_parity_sweep(), [(square, oracle_cnx(2))]):
        k = oracle.n + 1
        steps = verify._signed_steps(c, verify.DEFAULT_TOL)[1]
        if k > 6 or steps is None:
            continue
        comp = default_computational_qubits(c)
        steps.append(verify._miter_step(oracle, comp))
        # variable i is comp[i], bit k-1-i of the input number
        inputs = range(1 << k)
        ones = (1 << len(inputs)) - 1
        variables = [sum(1 << m for m in inputs if m >> (k - 1 - i) & 1) for i in range(k)]
        planes = anf.register(c.width, comp, variables, 0, ones)
        monomials = [frozenset((1 << i,)) for i in range(k)]
        polys = anf.register(c.width, comp, monomials, frozenset(), frozenset((0,)))
        anf.run(steps, planes)
        anf.run(steps, polys, anf.times)
        for plane, poly in zip(planes, polys):
            value = 0
            for monomial in poly:
                term = ones
                for i in range(k):
                    if monomial >> i & 1:
                        term &= variables[i]
                value ^= term
            assert value == plane, (c.meta, len(c.gates))
        checked += 1
    assert checked > 250, checked


def test_anf_imports_only_the_standard_library_and_ir():
    tree = ast.parse(Path(anf.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            assert (node.level, node.module) == (1, "ir"), ast.dump(node)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module]
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, name
