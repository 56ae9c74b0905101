"""Acceptance suite: one test per advertised guarantee.

Each test is numbered and pins its tolerances; a failure here means a
public promise of the package is not met.  Criterion 8 pins the cycle
and two-cycle builds to their exact Toffoli totals, closed forms derived
from the block widths the builders use.  The paper's floored-average
cycle form is not a count of those builds: it is checked as an upper
bound within 3 of the built total, and every gap must be reported by
``cost_report``.
"""

import math
import time

import numpy as np
import pytest

from mctsynth.costs import (
    REFERENCE_ANCILLA,
    REFERENCE_BASELINE_CV_OPS,
    REFERENCE_CV_OPS,
    baseline_cv_ops_form,
    best_ancilla_form,
    best_cycle_count,
    cost_report,
    cv_ops_form,
    toffoli_count_form,
    two_cycle_toffoli_form,
)
from mctsynth.cycle import build_cycle_cnx, build_two_cycle_cnx, plan_cycles
from mctsynth.decomp import GateBasis, ToffoliRule, lower_circuit, lower_toffoli
from mctsynth.ir import (
    Circuit,
    GateKind,
    QubitRole,
    count_gates,
    new_circuit,
)
from mctsynth.ladder import build_cnx
from mctsynth.verify import (
    EquivalenceClass,
    check_equivalence,
    full_unitary,
    oracle_cnx,
)

EQUIVALENCE_TOL = 1e-9
DECOMPOSITION_TOL = 1e-10

N_RANGE = range(3, 16)  # the tabulated control counts


def _cycle_grid():
    for n in range(3, 10):
        for c in range(1, min(best_cycle_count(n) + 1, n - 1) + 1):
            yield n, c


def test_criterion_01_cv_op_counts_match_reference():
    started = time.perf_counter()
    for n in N_RANGE:
        assert cv_ops_form(n) == REFERENCE_CV_OPS[n], n
    assert time.perf_counter() - started < 1.0


def test_criterion_02_ancilla_counts_match_reference():
    for n in N_RANGE:
        assert best_ancilla_form(n) == REFERENCE_ANCILLA[n], n


def test_criterion_03_baseline_reference_and_formula_deviation():
    # the comparison construction's closed form does not reproduce its
    # own reference values; the offsets are fixed and documented, so
    # the accepted behavior is: references win, formula deviates by
    # exactly these amounts
    expected_delta = {
        3: 42, 4: 42, 5: 30, 6: 30, 7: 20, 8: 20, 9: 16,
        10: 12, 11: 12, 12: 12, 13: 12, 14: 12, 15: 12,
    }
    for n in N_RANGE:
        reference = REFERENCE_BASELINE_CV_OPS[n]
        formula = baseline_cv_ops_form(n)
        assert reference - formula == expected_delta[n], n


def test_criterion_04_ladder_counts():
    for n in range(2, 13):
        circ = build_cnx(n)
        assert count_gates(circ, GateKind.TOFFOLI) == 2 * n - 3, n
        ancillas = circ.indices_with_role(QubitRole.PROCESS_ANCILLA)
        assert len(ancillas) == n - 2, n
        assert len(lower_circuit(circ, GateBasis.CNOT_LOCAL).gates) == 14 * n - 13, n
        assert len(lower_circuit(circ, GateBasis.CV_BASIS).gates) == 8 * n - 11, n


def test_criterion_05_exhaustive_equivalence_all_bases():
    started = time.perf_counter()
    bases = (GateBasis.NATIVE_TOFFOLI, GateBasis.CNOT_LOCAL, GateBasis.CV_BASIS)

    def assert_exact(circ, n, label):
        for basis in bases:
            lowered = lower_circuit(circ, basis)
            verdict = check_equivalence(
                lowered, oracle_cnx(n), tol=EQUIVALENCE_TOL
            )
            assert verdict.klass is EquivalenceClass.EXACT, (label, basis)

    for n in range(2, 9):
        assert_exact(build_cnx(n), n, f"ladder n={n}")
    for n, c in _cycle_grid():
        assert_exact(build_cycle_cnx(n, c), n, f"cycle n={n} c={c}")
    assert time.perf_counter() - started < 300.0


def test_criterion_06_decomposition_oracle():
    roles = [QubitRole.CONTROL, QubitRole.CONTROL, QubitRole.TARGET]

    def unitary_of(rule):
        base = new_circuit(roles)
        circ = Circuit(base.roles, lower_toffoli(0, 1, 2, rule), base.meta)
        return full_unitary(circ)

    dim = 8
    toffoli_ref = np.eye(dim, dtype=complex)
    toffoli_ref[[6, 7]] = toffoli_ref[[7, 6]]
    cnot_onto_first = np.eye(dim, dtype=complex)
    # flips the first qubit when the second is set: 01x <-> 11x
    cnot_onto_first[[2, 3, 6, 7]] = cnot_onto_first[[6, 7, 2, 3]]

    assert np.abs(unitary_of(ToffoliRule.SIX_CNOT) - toffoli_ref).max() < DECOMPOSITION_TOL
    assert np.abs(unitary_of(ToffoliRule.FIVE_CV) - toffoli_ref).max() < DECOMPOSITION_TOL
    assert (
        np.abs(unitary_of(ToffoliRule.FOUR_CV) - cnot_onto_first @ toffoli_ref).max()
        < DECOMPOSITION_TOL
    )

    relative = toffoli_ref.conj().T @ unitary_of(ToffoliRule.RELATIVE_PHASE)
    off_diagonal = relative - np.diag(np.diag(relative))
    assert np.abs(off_diagonal).max() < DECOMPOSITION_TOL
    diag = np.diag(relative)
    assert np.abs(np.abs(diag) - 1.0).max() < DECOMPOSITION_TOL
    assert np.abs(diag.imag).max() < DECOMPOSITION_TOL
    assert np.sign(diag.real).tolist() == [1, 1, -1, 1, 1, 1, 1, 1]


def test_criterion_07_paired_member_substitution_stays_exact():
    cases = []
    for n in range(3, 9):
        cases.append((build_cnx(n), n))
    for n in range(3, 9):
        cases.append((build_cycle_cnx(n, best_cycle_count(n)), n))
    for n in range(3, 9):
        cases.append((build_two_cycle_cnx(n), n))
    for circ, n in cases:
        for basis in (GateBasis.CNOT_LOCAL, GateBasis.CV_BASIS):
            lowered = lower_circuit(circ, basis)
            verdict = check_equivalence(lowered, oracle_cnx(n), tol=EQUIVALENCE_TOL)
            assert verdict.klass is EquivalenceClass.EXACT, (circ.meta.scheme, n, basis)


def _exact_cycle_toffolis(n, c):
    # an AND block of width w >= 2 costs 2w-3 Toffolis and the c-1
    # non-final blocks run twice.  The first block has no running
    # product (width q = floor((n-1)/c)), the middle ones add it, and the
    # final block adds it plus the first control.  Summed, the group
    # sizes cancel except the final one, ceil((n-1)/c).  A first group
    # of one control is a CNOT copy, 0 Toffolis rather than 2*1-3 = -1,
    # so both of its runs add one back.
    if c == 1:
        return 2 * n - 3
    total = 4 * n - 2 * c - 5 - 2 * math.ceil((n - 1) / c)
    if (n - 1) // c == 1:
        total += 2
    return total


def test_criterion_08_builds_hit_closed_form_toffoli_counts():
    # the builds are pinned exactly; the paper's floored-average form
    # charges all 2c-1 block runs at the average block cost, so it never
    # under-counts the build and over-counts it by at most 3.  Any gap
    # must show up in the cost report, never be hidden.
    for n in range(3, 80):
        for c in range(1, n):
            exact = _exact_cycle_toffolis(n, c)
            assert plan_cycles(n, c).toffoli_total == exact, f"plan n={n} c={c}"
            assert exact <= toffoli_count_form(n, c) <= exact + 3, f"n={n} c={c}"
    for n, c in _cycle_grid():
        label = f"cycle n={n} c={c}"
        built = count_gates(build_cycle_cnx(n, c), GateKind.TOFFOLI)
        assert built == _exact_cycle_toffolis(n, c), label
        form = toffoli_count_form(n, c)
        assert built <= form <= built + 3, label
        report = cost_report("cycle", n, c, GateBasis.NATIVE_TOFFOLI)
        toffoli_notes = [
            note for note in report.discrepancies if note.startswith("toffoli")
        ]
        expected = [f"toffoli form {form} != built {built}"] if form != built else []
        assert toffoli_notes == expected, label
    for n in range(3, 13):
        built = count_gates(build_two_cycle_cnx(n), GateKind.TOFFOLI)
        assert built == two_cycle_toffoli_form(n), f"two-cycle n={n}"
        assert built == 3 * (n - 2) - (1 if n % 2 == 0 else 0), f"two-cycle n={n}"


def test_criterion_09_large_n_scaling():
    for n in (17, 26, 37, 50):
        root = best_cycle_count(n)
        assert best_ancilla_form(n) == 2 * root - 1, n
        target = 4 * (n - n ** 0.5)
        built = count_gates(
            build_cycle_cnx(n, root), GateKind.TOFFOLI
        )
        assert abs(built - target) <= 0.1 * target, (n, built, target)
        predicted = toffoli_count_form(n, root)
        assert abs(predicted - target) <= 0.1 * target, (n, predicted, target)


def test_criterion_10_crossover_against_baseline():
    cheaper = {n for n in N_RANGE if cv_ops_form(n) < REFERENCE_BASELINE_CV_OPS[n]}
    assert cheaper == set(N_RANGE) - {5, 6}
    for n in (5, 6):
        assert cv_ops_form(n) >= REFERENCE_BASELINE_CV_OPS[n]
