"""Closed forms, reference values, reports, and the comparison table."""

import dataclasses
import json
from fractions import Fraction

import pytest

from mctsynth import costs, cycle, decomp
from mctsynth.costs import (
    REFERENCE_ANCILLA,
    REFERENCE_BASELINE_CV_OPS,
    REFERENCE_CV_OPS,
    TableRow,
    ancilla_min_form,
    ancilla_split_form,
    baseline_cv_ops,
    baseline_cv_ops_form,
    best_ancilla_form,
    best_cycle_count,
    cost_report,
    cv_ops_form,
    ladder_ancilla_form,
    ladder_ops_form,
    ladder_toffoli_form,
    make_table,
    render_table_csv,
    render_table_text,
    report_json,
    report_text,
    toffoli_count_form,
    two_cycle_toffoli_form,
)
from mctsynth.cycle import build_cycle_cnx
from mctsynth.decomp import GateBasis, lower_circuit
from mctsynth.ir import MAT_V, NAMED_UNITARIES
from mctsynth.ladder import build_cnu


class TestLadderForms:
    def test_toffoli_and_ancilla(self):
        assert ladder_toffoli_form(5) == 7
        assert ladder_ancilla_form(5) == 3

    def test_ops_by_basis(self):
        assert ladder_ops_form(5, GateBasis.NATIVE_TOFFOLI) == 7
        assert ladder_ops_form(5, GateBasis.CNOT_LOCAL) == 57
        assert ladder_ops_form(5, GateBasis.CV_BASIS) == 29
        assert ladder_ops_form(2, GateBasis.CV_BASIS) == 5
        assert ladder_ops_form(2, GateBasis.CNOT_LOCAL) == 15


class TestCycleForms:
    def test_floored_totals(self):
        assert toffoli_count_form(11, 3) == 28
        assert toffoli_count_form(3, 1) == 3
        assert toffoli_count_form(5, 2) == 9
        assert toffoli_count_form(9, 2) == 21

    def test_floored_total_is_floor_of_scaled_average(self):
        for n in range(3, 20):
            for c in range(1, n):
                # the average cycle cost when the n-1 grouped controls
                # are divided evenly across c cycles
                avg = Fraction(2 * (n - 1) - c, c)
                assert toffoli_count_form(n, c) == ((2 * c - 1) * avg).__floor__()

    def test_ancilla_forms(self):
        assert ancilla_split_form(11, 3) == 5
        assert ancilla_min_form(11, 3) == 6
        assert ancilla_min_form(10, 3) == 5
        assert ancilla_min_form(3, 1) == 2
        for n in range(3, 30):
            for c in range(1, n):
                assert ancilla_min_form(n, c) == ancilla_split_form(n, c) + 1

    def test_best_cycle_count_is_isqrt(self):
        expected = {3: 1, 5: 2, 10: 3, 11: 3, 17: 4, 26: 5, 37: 6, 50: 7}
        for n, c in expected.items():
            assert best_cycle_count(n) == c
        with pytest.raises(ValueError, match="^need at least two controls$"):
            best_cycle_count(1)

    def test_best_cycle_count_minimizes_ancilla_form(self):
        # exhaustive check that the square root really is the argmin
        for n in range(3, 65):
            best = best_cycle_count(n)
            vals = {c: ancilla_min_form(n, c) for c in range(1, n)}
            assert vals[best] == min(vals.values()), n

    def test_cv_ops_reference_values(self):
        for n, want in REFERENCE_CV_OPS.items():
            assert cv_ops_form(n) == want, n

    def test_ancilla_reference_values(self):
        for n, want in REFERENCE_ANCILLA.items():
            assert best_ancilla_form(n) == want, n

    def test_cv_ops_needs_three_controls(self):
        with pytest.raises(ValueError):
            cv_ops_form(2)

    def test_bad_cycle_count_rejected(self):
        with pytest.raises(ValueError):
            toffoli_count_form(5, 5)
        with pytest.raises(ValueError):
            ancilla_min_form(5, 0)


class TestTwoCycleForms:
    def test_odd_and_even(self):
        assert two_cycle_toffoli_form(5) == 9 == 3 * (5 - 2)
        assert two_cycle_toffoli_form(7) == 15 == 3 * (7 - 2)
        assert two_cycle_toffoli_form(4) == 5
        assert two_cycle_toffoli_form(6) == 11
        with pytest.raises(ValueError, match="^two-cycle split needs n >= 3$"):
            two_cycle_toffoli_form(2)


class TestBaseline:
    def test_formula_value(self):
        assert baseline_cv_ops_form(13) == 164
        with pytest.raises(ValueError, match="^baseline form needs n >= 3$"):
            baseline_cv_ops_form(2)

    def test_reference_values_differ_from_formula(self):
        # the comparison construction's own closed form consistently
        # undershoots its printed values; the offsets are stable
        deltas = {
            n: REFERENCE_BASELINE_CV_OPS[n] - baseline_cv_ops_form(n)
            for n in REFERENCE_BASELINE_CV_OPS
        }
        assert deltas == {
            3: 42, 4: 42, 5: 30, 6: 30, 7: 20, 8: 20, 9: 16,
            10: 12, 11: 12, 12: 12, 13: 12, 14: 12, 15: 12,
        }

    def test_accessor_prefers_reference(self):
        assert baseline_cv_ops(13) == 176
        assert baseline_cv_ops(16) == baseline_cv_ops_form(16)


class TestCostReport:
    def test_ladder_report_agrees(self):
        r = cost_report("ladder", 5, basis=GateBasis.CV_BASIS)
        assert (r.toffoli_form, r.toffoli_built) == (7, 7)
        assert (r.ancilla_form, r.ancilla_built) == (3, 3)
        assert (r.ops_form, r.ops_built) == (29, 29)
        assert r.discrepancies == ()

    def test_cycle_report_flags_floored_form(self):
        r = cost_report("cycle", 5, 2, GateBasis.CV_BASIS)
        assert (r.toffoli_form, r.toffoli_built) == (9, 7)
        assert (r.ops_form, r.ops_built) == (39, 29)
        assert r.baseline_ops == 38
        assert any("toffoli" in note for note in r.discrepancies)
        assert any("ops" in note for note in r.discrepancies)

    def test_single_cycle_ancilla_off_by_one(self):
        # the c=1 summary form counts one ancilla more than the build
        r = cost_report("cycle", 3, 1, GateBasis.NATIVE_TOFFOLI)
        assert (r.ancilla_form, r.ancilla_built) == (2, 1)
        assert any("ancilla" in note for note in r.discrepancies)

    def test_cnot_local_report_documents_alternative_count(self):
        r = cost_report("ladder", 4, basis=GateBasis.CNOT_LOCAL)
        assert r.ops_built == 43
        # 2 mirrored pairs at 7 gates each; the 11-gate reading adds 8
        # per pair
        assert any("59" in note for note in r.discrepancies)

    def test_workspace_reports(self):
        r = cost_report("workspace-ccx", 2, basis=GateBasis.CV_BASIS)
        assert r.toffoli_built == 3
        assert r.ops_built == 23
        assert r.toffoli_form is None
        r = cost_report("workspace-c3x", 3, basis=GateBasis.CNOT_LOCAL)
        assert r.ops_built == 71

    def test_two_cycle_report(self):
        r = cost_report("two-cycle", 6, basis=GateBasis.NATIVE_TOFFOLI)
        assert r.toffoli_form == r.toffoli_built == 11

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            cost_report("mystery", 4)

    def test_json_rendering(self):
        r = cost_report("ladder", 4, basis=GateBasis.CV_BASIS)
        doc = json.loads(report_json(r))
        assert doc["scheme"] == "ladder"
        assert doc["ops_built"] == 21
        assert doc["discrepancies"] == []

    def test_text_rendering(self):
        r = cost_report("cycle", 5, 2, GateBasis.CV_BASIS)
        text = report_text(r)
        assert "scheme   cycle  n=5  c=2" in text
        assert "built 29" in text


class TestSchemeTable:
    @pytest.mark.parametrize("name", list(costs.SCHEMES))
    def test_builds_and_reports_every_entry(self, name):
        entry = costs.SCHEMES[name]
        circuit = costs.build_scheme(name, None if entry.fixed_n else 5)
        assert circuit.meta.scheme == name
        for basis in GateBasis:
            report = costs.cost_report_for(circuit, lower_circuit(circuit, basis))
            assert (report.scheme, report.basis) == (name, basis.value)

    @pytest.mark.parametrize("name", list(costs.SCHEMES))
    def test_eleven_gate_note_counts_the_pairs(self, name):
        # read from the plan, or paired afresh for a fixed network; both
        # must be what the lowering paired
        entry = costs.SCHEMES[name]
        for n in [None] if entry.fixed_n else range(3, 12):
            circuit = costs.build_scheme(name, n)
            lowered = lower_circuit(circuit, GateBasis.CNOT_LOCAL)
            members = 2 * len(decomp.peres_pairing(circuit).pairs)
            assert members > 0
            note = (f"paired members counted at 7 gates; the 11-gate reading "
                    f"would give {len(lowered.gates) + 4 * members} ops")
            assert note in costs.cost_report_for(circuit, lowered).discrepancies, (name, n)

    def test_eleven_gate_note_counts_cnu_pairs(self):
        # a C^nU ladder says scheme=ladder, but its payload block pairs
        # more Toffolis than the C^nX ladder plan
        for name, matrix in sorted(NAMED_UNITARIES.items()):
            for n in range(2, 8):
                circuit = build_cnu(n, matrix)
                lowered = lower_circuit(circuit, GateBasis.CNOT_LOCAL)
                members = 2 * len(decomp.peres_pairing(circuit).pairs)
                note = (f"paired members counted at 7 gates; the 11-gate reading "
                        f"would give {len(lowered.gates) + 4 * members} ops")
                assert note in costs.cost_report_for(circuit, lowered).discrepancies, (name, n)
        circuit = build_cnu(4, MAT_V)
        report = costs.cost_report_for(circuit, lower_circuit(circuit, GateBasis.CNOT_LOCAL))
        assert report.ops_built == 48
        assert report.discrepancies[-1].endswith("would give 72 ops")

    def test_unknown_scheme_in_metadata(self):
        circuit = build_cycle_cnx(5, 2)
        circuit = dataclasses.replace(
            circuit, meta=dataclasses.replace(circuit.meta, scheme="mystery"))
        with pytest.raises(ValueError, match="unknown scheme 'mystery'"):
            costs.cost_report_for(circuit, lower_circuit(circuit, GateBasis.CV_BASIS))


class TestTable:
    def test_row_values(self):
        rows = make_table(3, 11)
        by_n = {r.n: r for r in rows}
        assert (by_n[3].ancilla, by_n[3].ours, by_n[3].baseline) == (2, 13, 14)
        assert by_n[3].ours_built == 13
        assert (by_n[11].ours, by_n[11].ours_built, by_n[11].baseline) == (121, 105, 128)

    def test_csv_rendering(self):
        out = render_table_csv(make_table(3, 4))
        lines = out.splitlines()
        assert lines[0] == "n,ancilla,ours,baseline,ours_built,baseline_form,baseline_delta"
        assert lines[1].startswith("3,2,13,14,")

    def test_text_rendering(self):
        out = render_table_text(make_table(3, 5))
        assert out.splitlines()[0].split() == [
            "n", "ancilla", "ours", "baseline", "ours_built", "baseline_form", "delta",
        ]
        assert len(out.splitlines()) == 4

    def test_range_validated(self):
        with pytest.raises(ValueError):
            make_table(3, 65)
        with pytest.raises(ValueError):
            make_table(2, 10)

    def test_full_range_runs(self):
        rows = make_table(3, 64)
        assert len(rows) == 62
        assert all(r.ours_built % 2 == 1 for r in rows)

    def test_equals_lowered_builds(self):
        # reference: each row's build lowered to the cv basis and counted
        want = []
        for n in range(3, 65):
            s = best_cycle_count(n)
            built = lower_circuit(build_cycle_cnx(n, s), GateBasis.CV_BASIS)
            baseline, form = baseline_cv_ops(n), baseline_cv_ops_form(n)
            want.append(TableRow(n, s, ancilla_min_form(n, s), cv_ops_form(n, s),
                                 baseline, len(built.gates), form, baseline - form))
        assert make_table(3, 64) == want

    def test_builds_and_lowers_nothing(self, monkeypatch):
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for module in (costs, cycle, decomp):
            for name in ("build_cycle_cnx", "build_cycle_cnx_auto", "build_two_cycle_cnx",
                         "build_cnx", "lower_circuit", "peres_pairing"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        make_table(3, 64)
        assert calls == []
