"""Statevector engine and equivalence oracle."""

import cmath
import math
from itertools import chain

import numpy as np
import pytest

from mctsynth import qasmio, verify
from mctsynth.cli import main
from mctsynth.decomp import GateBasis, ToffoliRule, lower_circuit, lower_toffoli
from mctsynth.ir import (
    Circuit,
    Gate,
    GateKind,
    MAT_H,
    MAT_S,
    MAT_T,
    MAT_V,
    MAT_X,
    MAT_Z,
    NAMED_UNITARIES,
    QubitRole,
    append,
    as_array,
    cnot,
    cu,
    cv,
    inverse,
    local,
    new_circuit,
    ry_matrix,
    toffoli,
    x,
)
from mctsynth.ladder import build_cnu, build_cnx, build_workspace_c3x, build_workspace_toffoli
from mctsynth.cycle import build_cycle_cnx, build_two_cycle_cnx
from mctsynth.verify import (
    DEFAULT_MAX_WIDTH,
    ControlledOracle,
    EquivalenceClass,
    Mismatch,
    WidthLimitError,
    apply,
    basis_state,
    check_equivalence,
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
    return Circuit(base.qubits, tuple(gates), base.meta)


class TestApply:
    def test_big_endian_bit_order(self):
        # qubit 0 is the most significant bit of the state index
        state = basis_state(2, (0, 0))
        out = apply(_circ([C, T], [x(0)]), state)
        assert abs(out[0b10] - 1) < 1e-12

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
        bad = Circuit(good.qubits, good.gates[:-1], good.meta)
        v = check_equivalence(bad, oracle_cnx(3))
        assert v.klass is EquivalenceClass.MISMATCH
        assert not v.equivalent
        assert v.witness is not None
        assert len(v.witness.input_bits) == 4

    def test_unrestored_ancilla_is_mismatch(self):
        good = build_cnx(3)
        bad = Circuit(good.qubits, good.gates + (x(3),), good.meta)
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
            v = check_equivalence(Circuit(base.qubits, gates, base.meta), oracle_cnx(3))
            assert v.klass is EquivalenceClass.EXACT, (probe, pos)

    def test_classical_path_ignores_width_cap(self):
        # the cap guards dense statevectors; bit propagation has no
        # such limit, so a cap far below the width must not trip
        circ = build_cycle_cnx(7, 2)
        assert is_classical(circ)
        v = check_equivalence(circ, oracle_cnx(7), max_width=4)
        assert v.klass is EquivalenceClass.EXACT

    def test_dense_path_respects_width_cap(self):
        lowered = lower_circuit(build_cnx(4), GateBasis.CV_BASIS)
        assert not is_classical(lowered)
        with pytest.raises(WidthLimitError):
            check_equivalence(lowered, oracle_cnx(4), max_width=4)

    @pytest.mark.parametrize("output", [{}, {(1, 0): 1.0}, {(1, 2, 0): 1.0}, {(0, 0, 0): 0j}])
    def test_malformed_oracle_output_rejected(self, output):
        with pytest.raises(ValueError, match="oracle"):
            check_equivalence(build_cnx(2), lambda bits: output)

    def test_lowered_ladder_exact(self):
        lowered = lower_circuit(build_cnx(3), GateBasis.CNOT_LOCAL)
        v = check_equivalence(lowered, oracle_cnx(3))
        assert v.klass is EquivalenceClass.EXACT

    @pytest.mark.parametrize("basis", [GateBasis.NATIVE_TOFFOLI, GateBasis.CV_BASIS])
    @pytest.mark.parametrize("comp, message", [
        ((0, 1, 2, 9), "computational qubit 9 outside width 5"),
        ((0, 1, 2, 5), "computational qubit 5 outside width 5"),
        ((0, 1, 2, -1), "computational qubit -1 outside width 5"),
        ((0, 0, 1, 3), "computational qubit 0 listed twice"),
    ])
    def test_bad_computational_qubits_refused(self, monkeypatch, basis, comp, message):
        # the toffoli basis runs the classical engine, cv the sparse one;
        # neither may start on a bad register
        lowered = lower_circuit(build_cnx(3), basis)
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

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("MCT_MAX_WIDTH", "12")
        assert resolve_max_width(20) == 20

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv("MCT_MAX_WIDTH", "many")
        with pytest.raises(ValueError, match="MCT_MAX_WIDTH"):
            resolve_max_width()

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_env_below_one_rejected(self, monkeypatch, cap):
        monkeypatch.setenv("MCT_MAX_WIDTH", cap)
        with pytest.raises(ValueError, match=f"MCT_MAX_WIDTH must be at least 1, got {cap}$"):
            resolve_max_width()

    @pytest.mark.parametrize("cap", [0, -3])
    def test_explicit_below_one_rejected(self, monkeypatch, cap):
        monkeypatch.delenv("MCT_MAX_WIDTH", raising=False)
        with pytest.raises(ValueError, match=f"max_width must be at least 1, got {cap}$"):
            resolve_max_width(cap)
        with pytest.raises(ValueError, match="at least 1"):
            check_equivalence(build_cnx(2), oracle_cnx(2), max_width=cap)

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
        if abs(got.get(anchor, 0j)) < tol:
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
        cases += [Circuit(c.qubits, c.gates[:7] + c.gates[8:], c.meta) for c in cases]
        oracles = [oracle_cnx(4), oracle_cnx(5), oracle_cnx(6)] * 2
        before = [check_equivalence(c, o) for c, o in zip(cases, oracles)]
        monkeypatch.setattr(verify, "_ENTRY_BUDGET", 4)
        after = [check_equivalence(c, o) for c, o in zip(cases, oracles)]
        assert [(v.klass, v.witness) for v in after] == [(v.klass, v.witness) for v in before]
        assert [v.max_deviation for v in after] == pytest.approx(
            [v.max_deviation for v in before], abs=1e-12)
        assert {v.klass for v in before} >= {EquivalenceClass.EXACT, EquivalenceClass.MISMATCH}


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
                mutant = Circuit(circ.qubits, circ.gates[:pos] + circ.gates[pos + 1:], circ.meta)
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
                mutant = Circuit(lowered.qubits, gates, lowered.meta)
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
                    mutant = Circuit(lowered.qubits, gates, lowered.meta)
                    v = check_equivalence(mutant, oracle)
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


def _assert_windows_match_per_gate(circuit, oracle, monkeypatch):
    """Final entries within 1e-12 of the per-gate loop's, and the same
    verdict: class, witness and detail equal, deviation within 1e-12."""
    comp = default_computational_qubits(circuit)
    got = verify._evolve_sparse(circuit, comp)
    want = _evolve_per_gate(circuit, comp)
    assert got[2] == want[2]
    a, b = _entries(*got[:2]), _entries(*want[:2])
    assert max((abs(a.get(k, 0) - b.get(k, 0)) for k in a.keys() | b.keys()), default=0) <= 1e-12
    fast = check_equivalence(circuit, oracle)
    with monkeypatch.context() as m:
        m.setattr(verify, "_evolve_sparse", lambda c, q: want)
        slow = check_equivalence(circuit, oracle)
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


class TestWindowedEngine:
    def test_parity_sweep(self, monkeypatch):
        checked = 0
        for c, oracle in _parity_sweep():
            _assert_windows_match_per_gate(c, oracle, monkeypatch)
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
                        m.setattr(verify, "_evolve_sparse", _evolve_per_gate)
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

        def window(w, keys, amps):
            steps["window"] += 1
            return real_window(w, keys, amps)

        monkeypatch.setattr(verify, "_sparse_step", lone)
        monkeypatch.setattr(verify, "_window_step", window)
        for n in range(3, 13):
            builds = [build_cnx(n), build_two_cycle_cnx(n)]
            builds += [build_cycle_cnx(n, c) for c in range(1, n)]
            for circ in builds:
                for basis in (GateBasis.CV_BASIS, GateBasis.CNOT_LOCAL):
                    lowered = lower_circuit(circ, basis)
                    comp = default_computational_qubits(lowered)
                    keys, _, overflow = verify._evolve_sparse(lowered, comp)
                    one_entry_each(keys, lowered.width)
                    assert len(keys) == 1 << len(comp) and not overflow
                    assert steps["mixed"] == 0, (circ.meta, basis)
        assert steps["window"] > 1000


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
        bad = Circuit(good.qubits, good.gates + (cnot(1, 4),), good.meta)
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
        bad = Circuit(good.qubits, good.gates + (x(3), cnot(1, 4)), good.meta)
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
                    yield Circuit(lowered.qubits, gates, lowered.meta), oracle


def _same_verdict(a, b):
    return (a.klass, a.witness, a.max_deviation.hex()) == (b.klass, b.witness, b.max_deviation.hex())


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
    def _assert_same_verdicts(tol):
        checked = 0
        for c, oracle in _parity_sweep():
            fast = check_equivalence(c, oracle, tol=tol)
            slow = check_equivalence(c, lambda bits: oracle(bits), tol=tol)
            assert _same_verdict(fast, slow), (c.meta, len(c.gates))
            checked += 1
        assert checked > 1000

    def test_same_verdict_as_per_input_calls(self):
        self._assert_same_verdicts(verify.DEFAULT_TOL)

    # the words give the verdict only for 0 < tol < 1; every other tol
    # goes through _classify, so both sides of each bound are covered
    @pytest.mark.parametrize("tol", [0.0, 0.5, 1.0, 2.0])
    def test_same_verdict_at_other_tolerances(self, tol):
        self._assert_same_verdicts(tol)

    def test_merge_without_sort_gives_the_same_verdict(self, monkeypatch):
        # when the circuit's keys are the oracle's, _classify takes them
        # as the union unsorted; the same entries reversed, plus one of
        # amplitude 0 at a key the circuit does not reach, must be merged
        # by sorting
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
        assert sum(same_keys) > 100
        assert len(same_keys) - sum(same_keys) > 100

    def test_not_called_per_input(self, monkeypatch):
        calls = []
        real = ControlledOracle.__call__

        def counting(self, bits):
            calls.append(bits)
            return real(self, bits)

        monkeypatch.setattr(ControlledOracle, "__call__", counting)
        v = check_equivalence(build_cycle_cnx(10, 3), oracle_cnx(10))
        assert v.klass is EquivalenceClass.EXACT
        # only the two inputs with every control set are worked out by a call
        assert calls == [(1,) * 10 + (0,), (1,) * 10 + (1,)]

    @pytest.mark.parametrize("tail", [(), (x(3),)])
    def test_wrong_arity_still_raises(self, tail):
        # also when an ancilla is left set, as the oracle is still asked
        # about the inputs up to the witness
        good = build_cnx(3)
        circ = Circuit(good.qubits, good.gates + tail, good.meta)
        with pytest.raises(ValueError, match="expected 3 bits, got 4"):
            check_equivalence(circ, oracle_cnx(2))


class TestWordEngine:
    """The classical engine holds 64 inputs to a word and reads the
    verdict of a one-to-one table of amplitude 1 off the words."""

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
        broken = Circuit(circ.qubits, circ.gates[1:], circ.meta)
        for oracle in (oracle_cnx(9), oracle_cnu(9, NAMED_UNITARIES["x"])):
            for tol in (verify.DEFAULT_TOL, 0.5):
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
        bad = Circuit(good.qubits, good.gates + (x(comp[-1]), cnot(comp[0], ancilla)),
                      good.meta)
        v = self._both(bad, oracle_cnx(16))
        assert v.witness == Mismatch((1,) + (0,) * 16, "ancilla not restored to |0>")

    def test_mismatch_only_in_a_later_block_gives_the_lowest_witness(self):
        good = build_cnx(16)
        comp = default_computational_qubits(good)
        tails = {1 << 16: (cnot(comp[0], comp[-1]),),
                 3 << 15: (x(comp[-1]), toffoli(comp[0], comp[1], comp[-1]), x(comp[-1]))}
        for m, tail in tails.items():
            bad = Circuit(good.qubits, good.gates + tail, good.meta)
            v = self._both(bad, oracle_cnx(16))
            want = _input_tuple(m, 17)
            assert v.witness == Mismatch(
                want, f"no amplitude on expected output {want}")
            assert (v.klass, v.max_deviation) == (EquivalenceClass.MISMATCH, 1.0)

    @pytest.mark.parametrize("n", range(0, 5))
    def test_fewer_inputs_than_a_word(self, n):
        # bare x gates flip every bit of a word, past the 2**(n+1)
        # inputs too; those bits must never read as a failure
        good = build_cnx(n) if n else _circ([T], [x(0)])
        comp = default_computational_qubits(good)
        spare = tuple(q for q in range(good.width) if q not in comp)
        flips = tuple(chain.from_iterable((x(q), x(q)) for q in spare))
        t = x(comp[-1])
        oracle = oracle_cnx(n)
        for tol in (verify.DEFAULT_TOL, 0.5):
            exact = Circuit(good.qubits, flips + (t,) + good.gates + (t,), good.meta)
            assert self._both(exact, oracle, tol).klass is EquivalenceClass.EXACT
            # the build twice is the identity, so the first input the
            # table moves is the first to fail
            twice = Circuit(good.qubits, good.gates * 2, good.meta)
            last = (1 << (n + 1)) - 2
            assert self._both(twice, oracle, tol).witness.input_bits == _input_tuple(last, n + 1)
        if spare:
            left = Circuit(good.qubits, good.gates + (x(spare[0]),), good.meta)
            assert self._both(left, oracle).witness == Mismatch(
                (0,) * (n + 1), "ancilla not restored to |0>")


class TestClassicalKeyWidth:
    def test_too_many_inputs_refused_at_once(self):
        # 32 computational qubits: keys (m << 32) | out overflow int64
        circ = build_cnx(31)
        assert is_classical(circ)
        with pytest.raises(WidthLimitError, match="63-bit keys"):
            check_equivalence(circ, oracle_cnx(31))
        with pytest.raises(WidthLimitError, match="63-bit keys"):
            check_equivalence(circ, lambda bits: {bits: 1.0})
