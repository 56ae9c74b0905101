"""Toffoli lowering rules, mirror pairing, and circuit lowering."""

import dataclasses
import random

import numpy as np
import pytest

from mctsynth.cycle import build_cycle_cnx, build_two_cycle_cnx
from mctsynth.decomp import (
    BASES,
    GateBasis,
    LoweringError,
    PairingPlan,
    ToffoliPair,
    ToffoliRule,
    _lower_gate,
    expand_controlled_unitary,
    lower_circuit,
    lower_toffoli,
    peres_pairing,
    zyz_angles,
)
from mctsynth.ir import (
    Circuit,
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
    X_LIKE_KINDS,
    QubitRole,
    append,
    as_array,
    cnot,
    cu,
    cv,
    cvdg,
    local,
    matrix_bits,
    mcx,
    new_circuit,
    toffoli,
    x,
)
from mctsynth.ladder import build_cnu, build_cnx, build_workspace_c3x, build_workspace_toffoli
from mctsynth.qasmio import dumps, loads
from mctsynth.verify import EquivalenceClass, check_equivalence, full_unitary, oracle_cnx

C, T, P = QubitRole.CONTROL, QubitRole.TARGET, QubitRole.PROCESS_ANCILLA

DECOMP_TOL = 1e-10


def _circ(roles, gates):
    base = new_circuit(roles)
    return Circuit(base.roles, tuple(gates), base.meta)


def _perm(width, f):
    """Permutation matrix from a bit map, big-endian like the engine."""
    dim = 2 ** width
    u = np.zeros((dim, dim), complex)
    for i in range(dim):
        bits = [(i >> (width - 1 - k)) & 1 for k in range(width)]
        j = 0
        for b in f(bits):
            j = (j << 1) | b
        u[j, i] = 1
    return u


# independent references built straight from truth tables
TOF = _perm(3, lambda b: [b[0], b[1], b[2] ^ (b[0] & b[1])])
CX_FROM_Q1_TO_Q0 = _perm(3, lambda b: [b[0] ^ b[1], b[1], b[2]])


class TestLowerToffoli:
    def test_six_cnot_exact(self):
        u = full_unitary(_circ([C, C, T], lower_toffoli(0, 1, 2, ToffoliRule.SIX_CNOT)))
        assert np.abs(u - TOF).max() < DECOMP_TOL

    def test_five_cv_exact(self):
        u = full_unitary(_circ([C, C, T], lower_toffoli(0, 1, 2, ToffoliRule.FIVE_CV)))
        assert np.abs(u - TOF).max() < DECOMP_TOL

    def test_four_cv_composes_with_cnot(self):
        # the 4-op member equals a Toffoli followed by a CNOT from the
        # second control onto the first
        u = full_unitary(_circ([C, C, T], lower_toffoli(0, 1, 2, ToffoliRule.FOUR_CV)))
        assert np.abs(u - CX_FROM_Q1_TO_Q0 @ TOF).max() < DECOMP_TOL

    def test_relative_phase_diagonal(self):
        u = full_unitary(
            _circ([C, C, T], lower_toffoli(0, 1, 2, ToffoliRule.RELATIVE_PHASE))
        )
        d = TOF.conj().T @ u
        off = d - np.diag(np.diag(d))
        assert np.abs(off).max() < DECOMP_TOL
        diag = np.diag(d)
        assert np.abs(np.imag(diag)).max() < DECOMP_TOL
        assert np.real(diag).round(6).tolist() == [1, 1, -1, 1, 1, 1, 1, 1]

    def test_gate_budgets(self):
        budgets = {
            ToffoliRule.SIX_CNOT: (15, {GateKind.CNOT: 6, GateKind.LOCAL: 9}),
            ToffoliRule.RELATIVE_PHASE: (7, {GateKind.CNOT: 3, GateKind.LOCAL: 4}),
            ToffoliRule.FIVE_CV: (5, {GateKind.CNOT: 2}),
            ToffoliRule.FOUR_CV: (4, {GateKind.CNOT: 1}),
        }
        for rule, (total, wanted) in budgets.items():
            gates = lower_toffoli(0, 1, 2, rule)
            assert len(gates) == total, rule
            for kind, count in wanted.items():
                assert sum(g.kind is kind for g in gates) == count, rule
        with pytest.raises(LoweringError, match="^unknown rule six-cnot$"):
            lower_toffoli(0, 1, 2, "six-cnot")

    def test_operands_respected(self):
        for rule in ToffoliRule:
            gates = lower_toffoli(2, 0, 1, rule)
            assert set().union(*(g.qubits for g in gates)) <= {0, 1, 2}


class TestZyz:
    @pytest.mark.parametrize("m", [MAT_X, MAT_Z, MAT_H, MAT_T, MAT_V])
    def test_named_round_trip(self, m):
        alpha, beta, gamma, delta = zyz_angles(m)
        rebuilt = _rebuild(alpha, beta, gamma, delta)
        assert np.abs(rebuilt - as_array(m)).max() < DECOMP_TOL

    def test_random_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            m = ((complex(q[0, 0]), complex(q[0, 1])), (complex(q[1, 0]), complex(q[1, 1])))
            rebuilt = _rebuild(*zyz_angles(m))
            assert np.abs(rebuilt - q).max() < DECOMP_TOL


def _rebuild(alpha, beta, gamma, delta):
    rz = lambda t: np.array(
        [[np.exp(-0.5j * t), 0], [0, np.exp(0.5j * t)]]
    )
    ry = lambda t: np.array(
        [[np.cos(t / 2), -np.sin(t / 2)], [np.sin(t / 2), np.cos(t / 2)]]
    )
    return np.exp(1j * alpha) * rz(beta) @ ry(gamma) @ rz(delta)


class TestExpandControlledUnitary:
    @pytest.mark.parametrize("m", [MAT_X, MAT_Z, MAT_V, MAT_T])
    def test_expansion_matches_controlled_matrix(self, m):
        gates = expand_controlled_unitary(0, 1, m)
        assert all(g.kind in (GateKind.CNOT, GateKind.LOCAL) for g in gates)
        u = full_unitary(_circ([C, T], gates))
        want = np.eye(4, dtype=complex)
        want[2:, 2:] = as_array(m)
        assert np.abs(u - want).max() < DECOMP_TOL

    def test_expansion_is_six_gates(self):
        assert len(expand_controlled_unitary(0, 1, MAT_V)) == 6

    @pytest.mark.parametrize("m, message", [
        (((2, 0), (0, 2)), "matrix is not unitary"),
        (((1, 1), (0, 1)), "matrix is not unitary"),
        (((1, 0),), "matrix is not a 2x2 of numbers"),
    ])
    def test_matrix_refused_as_gate_refuses_it(self, m, message):
        # the expansion of a non-unitary matrix is unitary, so it cannot
        # be the controlled matrix; Gate(CU) refuses the same matrices
        with pytest.raises(ValueError, match=f"^{message}$"):
            Gate(GateKind.CU, (0, 1), m)
        with pytest.raises(ValueError, match=f"^{message}$"):
            expand_controlled_unitary(0, 1, m)


class TestPairing:
    def test_ladder_pairs_all_but_middle(self):
        for n in range(3, 9):
            plan = peres_pairing(build_cnx(n))
            assert len(plan.pairs) == n - 2
            assert len(plan.unpaired) == 1
            assert plan.unpaired[0] == n - 2  # the firing Toffoli

    def test_single_toffoli_unpaired(self):
        plan = peres_pairing(build_cnx(2))
        assert plan.pairs == ()
        assert plan.unpaired == (0,)

    def test_cycle_pairing_counts(self):
        # the 2c-1 cycle-closing Toffolis stay unpaired; pool sharing
        # blocks any cross-block match
        cases = {(5, 2): (3, 1), (9, 3): (8, 3), (11, 3): (10, 5)}
        for (n, c), (pairs, unpaired) in cases.items():
            plan = peres_pairing(build_cycle_cnx(n, c))
            assert (len(plan.pairs), len(plan.unpaired)) == (pairs, unpaired), (n, c)

    def test_two_cycle_pairing_counts(self):
        expected = {3: (1, 1), 4: (2, 1), 5: (3, 3), 8: (7, 3)}
        for n, (pairs, unpaired) in expected.items():
            plan = peres_pairing(build_two_cycle_cnx(n))
            assert (len(plan.pairs), len(plan.unpaired)) == (pairs, unpaired), n

    def test_workspace_pairing_counts(self):
        plan = peres_pairing(build_workspace_toffoli())
        assert (len(plan.pairs), len(plan.unpaired)) == (1, 1)
        plan = peres_pairing(build_workspace_c3x())
        assert (len(plan.pairs), len(plan.unpaired)) == (1, 3)

    def test_members_cover_all_toffolis_once(self):
        for circ in [build_cnx(6), build_cycle_cnx(9, 2), build_two_cycle_cnx(7)]:
            plan = peres_pairing(circ)
            covered = sorted(
                [p.compute for p in plan.pairs]
                + [p.uncompute for p in plan.pairs]
                + list(plan.unpaired)
            )
            tof_positions = [
                i for i, g in enumerate(circ.gates) if g.kind is GateKind.TOFFOLI
            ]
            assert covered == tof_positions

    def test_no_crossing_pairs(self):
        for circ in [build_cnx(8), build_cycle_cnx(11, 3), build_two_cycle_cnx(8)]:
            _assert_spans_nest(peres_pairing(circ))

    def test_write_between_members_blocks_pair(self):
        # X on an operand between the two members violates the
        # control-only condition, so both fall back to unpaired
        circ = append(
            new_circuit([C, C, T]), toffoli(0, 1, 2), x(0), toffoli(0, 1, 2)
        )
        plan = peres_pairing(circ)
        assert plan.pairs == ()
        assert plan.unpaired == (0, 2)

    def test_control_only_touches_allow_pair(self):
        circ = append(
            new_circuit([C, C, T, P]), toffoli(0, 1, 3), cv(3, 2), toffoli(0, 1, 3)
        )
        plan = peres_pairing(circ)
        assert len(plan.pairs) == 1
        assert plan.unpaired == ()

    def test_pair_records_cnot_orientation(self):
        plan = peres_pairing(build_cnx(3))
        (pair,) = plan.pairs
        assert {pair.cnot_control, pair.cnot_target} <= {0, 1, 2, 3, 4}
        assert pair.cnot_control != pair.cnot_target


def _assert_spans_nest(plan):
    """Pair spans are nested or disjoint; a crossing pair would break
    the sandwich argument that makes the cheap members sound."""
    spans = [(p.compute, p.uncompute) for p in plan.pairs]
    for a, b in spans:
        for c_, d in spans:
            crossing = a < c_ < b < d or c_ < a < d < b
            assert not crossing, (a, b, c_, d)


def _reference_pairing(circuit, stats=None):
    """The quadratic greedy pairing that peres_pairing must reproduce:
    every earlier unmatched Toffoli is scanned nearest first, one inside
    an existing pair's span is skipped as crossing, and the validity
    conditions are checked by rescanning the gates between the members.
    ``stats`` counts the crossing skips and the rejected candidates."""
    gates = circuit.gates
    positions = [i for i, g in enumerate(gates) if g.kind is GateKind.TOFFOLI]

    def only_control(g, q):
        return q not in g.qubits or q in g.controls

    def only_x_target(g, q):
        return q not in g.qubits or (q == g.target and g.kind in X_LIKE_KINDS)

    def valid(i, j):
        u, v, w = gates[i].qubits
        between = gates[i + 1 : j]
        if not all(only_control(g, q) for g in between for q in (u, v, w)):
            return None
        for y, x_ in ((v, u), (u, v)):
            if all(only_control(g, y) and only_x_target(g, x_) for g in between):
                return (y, x_)
        return None

    pairs, unmatched = [], []
    for pos in positions:
        chosen = None
        for k in range(len(unmatched) - 1, -1, -1):
            cand = unmatched[k]
            if gates[cand].qubits != gates[pos].qubits:
                continue
            if any(p.compute < cand < p.uncompute for p in pairs):
                if stats is not None:
                    stats["crossing"] += 1
                continue
            orientation = valid(cand, pos)
            if orientation is not None:
                chosen = (k, orientation)
                break
            if stats is not None:
                stats["rejected"] += 1
        if chosen is None:
            unmatched.append(pos)
        else:
            k, (y, x_) = chosen
            pairs.append(ToffoliPair(unmatched.pop(k), pos, y, x_))
    return PairingPlan(pairs=tuple(pairs), unpaired=tuple(unmatched))


def _split_last(qs):
    return qs[:-1], qs[-1]


def _random_mirror_circuit(rng):
    """A Toffoli sequence that reads the same backwards, drawn from a few
    operand triples so that candidates repeat, with filler gates between
    the Toffolis that touch operands as controls, as targets, or not."""
    width = rng.randint(4, 6)
    qubits = list(range(width))
    triples = [tuple(rng.sample(qubits, 3)) for _ in range(rng.randint(1, 3))]
    half = [rng.choice(triples) for _ in range(rng.randint(1, 6))]
    middle = [rng.choice(triples)] if rng.random() < 0.5 else []
    fillers = [
        lambda: x(rng.choice(qubits)),
        lambda: cnot(*rng.sample(qubits, 2)),
        lambda: cv(*rng.sample(qubits, 2)),
        lambda: cvdg(*rng.sample(qubits, 2)),
        lambda: local(rng.choice(qubits), rng.choice((MAT_H, MAT_S, MAT_T))),
        lambda: mcx(*_split_last(rng.sample(qubits, 4))),
    ]
    gates = []
    for triple in half + middle + half[::-1]:
        for _ in range(rng.choice((0, 0, 1, 2))):
            gates.append(rng.choice(fillers)())
        gates.append(toffoli(*triple))
    return _circ([C] * (width - 1) + [T], gates)


def _builds(nmax):
    for n in range(3, nmax + 1):
        yield build_cnx(n)
        yield build_two_cycle_cnx(n)
        for c in range(1, n):
            yield build_cycle_cnx(n, c)
    yield build_workspace_toffoli()
    yield build_workspace_c3x()
    # the only builds whose mirror holds a CU between its halves
    for matrix in NAMED_UNITARIES.values():
        for n in range(1, 9):
            yield build_cnu(n, matrix)


def _assert_pairs_are_records(plan):
    """Every pair of a plan is a ToffoliPair as its constructor makes
    one, down to its repr and hash."""
    for p in plan.pairs:
        made = ToffoliPair(*dataclasses.astuple(p))
        assert type(p) is ToffoliPair
        assert (repr(p), hash(p)) == (repr(made), hash(made))


class TestPairingMatchesReference:
    def test_every_build(self):
        for circ in _builds(40):
            plan = peres_pairing(circ)
            assert plan == _reference_pairing(circ), circ.meta
            _assert_pairs_are_records(plan)

    def test_random_mirror_circuits(self):
        rng = random.Random(4)
        stats = {"crossing": 0, "rejected": 0}
        for _ in range(3000):
            circ = _random_mirror_circuit(rng)
            plan = peres_pairing(circ)
            assert plan == _reference_pairing(circ, stats)
            _assert_pairs_are_records(plan)
        # the seeded set exercises both ways a candidate is turned down
        assert stats["crossing"] > 100 and stats["rejected"] > 100, stats


def _lemma_7_2(m):
    """C^mX with m-2 borrowed wires and 4(m-2) Toffolis (Barenco et al.
    1995, Lemma 7.2): controls 0..m-1, borrowed wires m..2m-3, each of
    any value and restored, and the target 2m-2.  Its Toffoli sequence
    is not a palindrome: the chain down the borrowed wires runs once
    more after the two Toffolis on the target."""
    a, t = list(range(m, 2 * m - 2)), 2 * m - 2
    chain = [toffoli(i + 2, a[i], a[i + 1]) for i in range(m - 4, -1, -1)]
    down_up = chain + [toffoli(0, 1, a[0])] + chain[::-1]
    fire = toffoli(m - 1, a[-1], t)
    return _circ([C] * m + [P] * (m - 2) + [T], [fire, *down_up, fire, *down_up])


def _classical_oracle(circuit):
    """The oracle over every wire of a circuit of X-like gates: each
    input's one output, by running the gates on its bits."""
    def oracle(bits):
        out = list(bits)
        for g in circuit.gates:
            if all(out[c] for c in g.controls):
                out[g.target] ^= 1
        return {tuple(out): 1}
    return oracle


def _assert_lowers_exact(circuit):
    """Each basis's lowering equals the Toffoli-level circuit on every
    input of every wire, ancillas and borrowed wires included."""
    oracle = _classical_oracle(circuit)
    for basis in (GateBasis.CV_BASIS, GateBasis.CNOT_LOCAL):
        v = check_equivalence(lower_circuit(circuit, basis), oracle, range(circuit.width))
        assert v.klass is EquivalenceClass.EXACT, (circuit.meta, basis, v)


def _random_circuit(rng):
    """Toffolis drawn from a few operand triples, in any order, with
    X, CNOT, cv, cvdg, local and CU gates between them."""
    width = rng.randint(4, 6)
    qubits = list(range(width))
    triples = [tuple(rng.sample(qubits, 3)) for _ in range(rng.randint(1, 3))]
    fillers = [
        lambda: x(rng.choice(qubits)),
        lambda: cnot(*rng.sample(qubits, 2)),
        lambda: cv(*rng.sample(qubits, 2)),
        lambda: cvdg(*rng.sample(qubits, 2)),
        lambda: local(rng.choice(qubits), rng.choice((MAT_H, MAT_S, MAT_T))),
        lambda: cu(*rng.sample(qubits, 2), rng.choice((MAT_H, MAT_S, MAT_Z))),
    ]
    gates = []
    for _ in range(rng.randint(2, 12)):
        for _ in range(rng.choice((0, 0, 1, 2))):
            gates.append(rng.choice(fillers)())
        gates.append(toffoli(*rng.choice(triples)))
    return _circ([C] * (width - 1) + [T], gates)


def _is_palindrome(circuit):
    seq = [g.qubits for g in circuit.gates if g.kind is GateKind.TOFFOLI]
    return seq == seq[::-1]


class TestPairingWithoutMirror:
    """Circuits whose Toffoli sequence is not a palindrome pair by the
    per-pair rule alone, and still lower exactly."""

    def test_lemma_7_2_pairs_all_but_the_target_pair(self):
        for m in range(4, 10):
            circ = _lemma_7_2(m)
            assert not _is_palindrome(circ)
            plan = peres_pairing(circ)
            assert plan == _reference_pairing(circ)
            _assert_spans_nest(plan)
            assert (len(plan.pairs), len(plan.unpaired)) == (m - 2, 2 * m - 4), m
        ops = [len(lower_circuit(_lemma_7_2(9), b).gates)
               for b in (GateBasis.CV_BASIS, GateBasis.CNOT_LOCAL)]
        assert ops == [126, 308]

    @pytest.mark.parametrize("m", [4, 5])
    def test_lemma_7_2_exact_for_every_borrowed_value(self, m):
        circ = _lemma_7_2(m)

        def cmx_times_identity(bits):
            out = list(bits)
            out[-1] ^= all(bits[:m])
            return {tuple(out): 1}

        v = check_equivalence(circ, cmx_times_identity, range(circ.width))
        assert v.klass is EquivalenceClass.EXACT
        _assert_lowers_exact(circ)

    def test_one_toffoli_deleted_mutants(self):
        mirrorless = pairs = 0
        for n in range(3, 7):
            for build in (build_cnx(n), build_cycle_cnx(n, 2), build_two_cycle_cnx(n)):
                for k, g in enumerate(build.gates):
                    if g.kind is not GateKind.TOFFOLI:
                        continue
                    mutant = _circ(build.roles, build.gates[:k] + build.gates[k + 1:])
                    plan = peres_pairing(mutant)
                    assert plan == _reference_pairing(mutant)
                    _assert_spans_nest(plan)
                    _assert_lowers_exact(mutant)
                    mirrorless += not _is_palindrome(mutant)
                    pairs += len(plan.pairs)
        # of 76 mutants, those that drop a middle Toffoli stay palindromes
        assert (mirrorless, pairs) == (64, 164)

    def test_random_circuits(self):
        rng = random.Random(31)
        circuits = [_random_circuit(rng) for _ in range(600)]
        mirrorless = [c for c in circuits if not _is_palindrome(c)]
        assert len(mirrorless) >= 300
        paired = 0
        for circ in mirrorless:
            plan = peres_pairing(circ)
            assert plan == _reference_pairing(circ)
            _assert_spans_nest(plan)
            paired += bool(plan.pairs)
            want = full_unitary(circ)
            for basis in (GateBasis.CV_BASIS, GateBasis.CNOT_LOCAL):
                got = full_unitary(lower_circuit(circ, basis))
                assert np.abs(got - want).max() < 1e-9, (circ.gates, basis)
        # most of the set pairs something
        assert paired > len(mirrorless) // 2, paired


class TestLowerCircuit:
    @pytest.mark.parametrize("basis", list(GateBasis))
    def test_mcx_rejected(self, basis):
        circ = append(new_circuit([C, C, C, T]), mcx([0, 1, 2], 3))
        with pytest.raises(LoweringError):
            lower_circuit(circ, basis)

    @pytest.mark.parametrize("basis", list(GateBasis))
    def test_only_allowed_kinds_emitted(self, basis):
        for circ in [
            build_cnx(5),
            build_cycle_cnx(7, 2),
            build_two_cycle_cnx(6),
            build_workspace_c3x(),
        ]:
            lowered = lower_circuit(circ, basis)
            kinds = {g.kind for g in lowered.gates}
            assert kinds <= BASES[basis].allowed, (circ.meta.scheme, basis)

    def test_native_keeps_toffolis_converts_cv(self):
        circ = append(new_circuit([C, C, T]), toffoli(0, 1, 2), cv(0, 2))
        lowered = lower_circuit(circ, GateBasis.NATIVE_TOFFOLI)
        assert [g.kind for g in lowered.gates] == [GateKind.TOFFOLI, GateKind.CU]
        assert np.allclose(
            as_array(lowered.gates[1].matrix), as_array(MAT_V), atol=1e-12
        )

    def test_ladder_lowered_op_counts(self):
        for n in range(2, 9):
            cl = lower_circuit(build_cnx(n), GateBasis.CNOT_LOCAL)
            cvb = lower_circuit(build_cnx(n), GateBasis.CV_BASIS)
            assert len(cl.gates) == 14 * n - 13
            assert len(cvb.gates) == 8 * n - 11

    def test_lowered_meta_records_basis(self):
        lowered = lower_circuit(build_cnx(3), GateBasis.CV_BASIS)
        assert lowered.meta.basis == GateBasis.CV_BASIS.value

    def test_no_mirror_falls_back_to_exact_rules(self):
        # two different Toffolis cannot pair; both must be lowered with
        # the exact rule and stay correct
        base = new_circuit([C, C, C, T])
        circ = append(base, toffoli(0, 1, 3), toffoli(0, 2, 3))
        cl = lower_circuit(circ, GateBasis.CNOT_LOCAL)
        assert len(cl.gates) == 2 * 15
        cvb = lower_circuit(circ, GateBasis.CV_BASIS)
        assert len(cvb.gates) == 2 * 5
        want = full_unitary(circ)
        assert np.abs(full_unitary(cl) - want).max() < 1e-9
        assert np.abs(full_unitary(cvb) - want).max() < 1e-9

    def test_paired_lowering_stays_exact(self):
        for basis in (GateBasis.CNOT_LOCAL, GateBasis.CV_BASIS):
            lowered = lower_circuit(build_cnx(4), basis)
            v = check_equivalence(lowered, oracle_cnx(4))
            assert v.klass is EquivalenceClass.EXACT, basis

    def test_x_becomes_local_outside_native(self):
        circ = append(new_circuit([C, T]), x(0), cnot(0, 1))
        lowered = lower_circuit(circ, GateBasis.CV_BASIS)
        assert lowered.gates[0].kind is GateKind.LOCAL
        assert np.allclose(as_array(lowered.gates[0].matrix), as_array(MAT_X))

    def test_cu_expanded_outside_native(self):
        from mctsynth.ir import cu

        circ = append(new_circuit([C, T]), cu(0, 1, MAT_Z))
        lowered = lower_circuit(circ, GateBasis.CNOT_LOCAL)
        assert all(
            g.kind in (GateKind.CNOT, GateKind.LOCAL) for g in lowered.gates
        )
        u = full_unitary(lowered)
        want = np.diag([1, 1, 1, -1]).astype(complex)
        assert np.abs(u - want).max() < 1e-9


def _unmemoised_lowering(circuit, basis):
    """``lower_circuit`` written out gate by gate, with no lowering
    shared between gates: every gate the basis allows is kept, each
    Toffoli is lowered by ``lower_toffoli`` as the pairing plan says,
    and ``_lower_gate`` lowers every other gate."""
    if basis is GateBasis.NATIVE_TOFFOLI:
        out = []
        for g in circuit.gates:
            if g.kind is GateKind.CV or g.kind is GateKind.CVDG:
                out.append(cu(*g.qubits, MAT_V if g.kind is GateKind.CV else MAT_VDG))
            else:
                out.append(g)
        return out
    plan = peres_pairing(circuit)
    cv_basis = basis is GateBasis.CV_BASIS
    members = {}
    for p in plan.pairs:
        if cv_basis:
            # the mirror member is the compute member's inverse list
            t = circuit.gates[p.compute].target
            member = lower_toffoli(p.cnot_target, p.cnot_control, t, ToffoliRule.FOUR_CV)
            members[p.compute] = member
            members[p.uncompute] = tuple(g.inverse() for g in reversed(member))
        else:
            for i in (p.compute, p.uncompute):
                members[i] = lower_toffoli(*circuit.gates[i].qubits, ToffoliRule.RELATIVE_PHASE)
    lone = ToffoliRule.FIVE_CV if cv_basis else ToffoliRule.SIX_CNOT
    out = []
    for i, g in enumerate(circuit.gates):
        if g.kind in BASES[basis].allowed:
            out.append(g)
        elif g.kind is GateKind.TOFFOLI:
            out.extend(members.get(i) or lower_toffoli(*g.qubits, lone))
        else:
            # _lower_gate gives positions in a table of its own, whose
            # kinds, qubits and matrices it lists
            fields = ([], [], [])
            positions = _lower_gate(g, BASES[basis], {}, fields)
            made = list(map(Gate, *fields))
            out.extend(map(made.__getitem__, positions))
    return out


def _assert_checked_gates(gates):
    """Each gate equals ``Gate`` of its fields, on a tuple of ints and
    with a matrix, where it has one, in tuple form."""
    for g in gates:
        assert type(g.qubits) is tuple and {type(q) for q in g.qubits} == {int}, g
        if g.matrix is not None:
            assert type(g.matrix) is tuple and {type(row) for row in g.matrix} == {tuple}, g
        assert g == Gate(g.kind, g.qubits, g.matrix)


def _gate_rows(gates):
    return [(g.kind, g.qubits, g.matrix and matrix_bits(g.matrix)) for g in gates]


class TestLoweringMemo:
    @pytest.mark.parametrize("basis", list(GateBasis))
    def test_every_build_matches_unmemoised(self, basis):
        for circ in _builds(40):
            lowered = lower_circuit(circ, basis)
            assert _gate_rows(lowered.gates) == \
                _gate_rows(_unmemoised_lowering(circ, basis)), circ.meta

    @pytest.mark.parametrize("basis", list(GateBasis))
    def test_payloads_and_no_mirror_match_unmemoised(self, basis):
        circuits = [build_cnu(n, m) for n in range(1, 6) for m in NAMED_UNITARIES.values()]
        circuits.append(_circ([C, C, C, T], [toffoli(0, 1, 3), toffoli(0, 2, 3),
                                             toffoli(0, 1, 3), cv(1, 3), cv(1, 3)]))
        rng = random.Random(12)
        circuits += [_random_mirror_circuit(rng) for _ in range(200)]
        for circ in circuits:
            circ = _circ(circ.roles,
                         [g for g in circ.gates if g.kind is not GateKind.MCX])
            lowered = lower_circuit(circ, basis)
            assert _gate_rows(lowered.gates) == _gate_rows(_unmemoised_lowering(circ, basis))

    def test_repeated_toffolis_share_their_gates(self):
        # exactly one object per distinct gate row, kept gates included;
        # a circuit the basis allows whole keeps its own gate objects.
        # Lowering and both readers skip the range check, so each of
        # their circuits must equal the checked Circuit of its fields;
        # lowering and the text reader make gates past Gate's checks, so
        # each of their gates must equal the checked Gate of its fields.
        circuits = [build_cnx(1), build_cnx(2), build_cycle_cnx(2, 1), *_builds(16)]
        for circ in circuits:
            for basis in GateBasis:
                lowered = lower_circuit(circ, basis)
                assert lowered == Circuit(lowered.roles, lowered.gates, lowered.meta)
                _assert_checked_gates(lowered.gates)
                kinds = {g.kind for g in lowered.gates}
                # the text format has no mcx or cu mnemonic
                for fmt in ("json",) if kinds & {GateKind.MCX, GateKind.CU} else ("text", "json"):
                    read = loads(dumps(lowered, fmt))
                    assert read == lowered == Circuit(read.roles, read.gates, read.meta)
                    _assert_checked_gates(read.gates)
                gates = lowered.gates
                if {g.kind for g in circ.gates} <= BASES[basis].allowed:
                    assert list(map(id, gates)) == list(map(id, circ.gates)), \
                        (circ.meta, basis)
                    continue
                rows = _gate_rows(gates)
                assert len(set(zip(rows, map(id, gates)))) == len(set(rows)), \
                    (circ.meta, basis)

        # the public rules take their operands from the caller, and
        # still refuse them as Gate does
        with pytest.raises(ValueError, match=r"^duplicate operand in cx\(1, 1\)$"):
            lower_toffoli(1, 1, 2, ToffoliRule.SIX_CNOT)
        with pytest.raises(ValueError, match=r"^duplicate operand in cx\(0, 0\)$"):
            expand_controlled_unitary(0, 0, MAT_H)

    @pytest.mark.parametrize("basis", list(GateBasis))
    def test_signed_zeros_are_not_shared(self, basis):
        # equal as tuples, since 0.0 == -0.0, but written differently;
        # x(0) and cv(0, 1) give every basis a gate to rewrite, so the
        # kept gates are shared, and without them each is kept as it is
        plus = ((1 + 0j, 0j), (0j, 1 + 0j))
        minus = ((1 + 0j, complex(-0.0, 0.0)), (0j, 1 + 0j))
        a, b, a_copy = local(1, plus), local(1, minus), local(1, (plus[0], plus[1]))
        kept = [a, b, cnot(0, 1), a_copy, b]
        gates = lower_circuit(_circ([C, T], kept + [x(0), cv(0, 1)]), basis).gates
        assert gates[0] is gates[3] and gates[1] is gates[4] and gates[0] is not gates[1]
        assert [matrix_bits(gates[i].matrix) for i in (0, 1)] == \
            [matrix_bits(plus), matrix_bits(minus)]
        gates = lower_circuit(_circ([C, T], kept), basis).gates
        assert list(map(id, gates)) == list(map(id, kept))
