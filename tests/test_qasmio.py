"""Text and json circuit files: round trips, determinism, parse errors."""

import cmath
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest

from mctsynth.cli import main
from mctsynth.cycle import build_cycle_cnx, build_cycle_cnx_auto, build_two_cycle_cnx
from mctsynth.decomp import GateBasis, lower_circuit
from mctsynth.ir import (
    ROLE_BY_LETTER,
    Circuit,
    CircuitMeta,
    Gate,
    GateKind,
    MAT_T,
    MAT_V,
    NAMED_UNITARIES,
    QubitRole,
    append,
    cnot,
    cu,
    local,
    matrix_bits,
    mcx,
    new_circuit,
    toffoli,
)
from mctsynth.ladder import (
    build_cnu,
    build_cnx,
    build_workspace_c3x,
    build_workspace_toffoli,
)
from mctsynth.qasmio import (
    CircuitFileError,
    _fmt_complex,
    dumps,
    dumps_json,
    dumps_text,
    format_for_path,
    load,
    loads,
    loads_json,
    loads_text,
    save,
)

C, T = QubitRole.CONTROL, QubitRole.TARGET


def _assert_same(a: Circuit, b: Circuit):
    assert a.roles == b.roles
    assert a.gates == b.gates
    assert a.meta == b.meta


TEXT_SAFE_CIRCUITS = [
    build_cnx(4),
    lower_circuit(build_cnx(4), GateBasis.CV_BASIS),
    lower_circuit(build_cycle_cnx(7, 2), GateBasis.CNOT_LOCAL),
    lower_circuit(build_two_cycle_cnx(5), GateBasis.CV_BASIS),
    build_workspace_c3x(),
]


class TestTextRoundTrip:
    @pytest.mark.parametrize("circ", TEXT_SAFE_CIRCUITS)
    def test_round_trip(self, circ):
        _assert_same(loads_text(dumps_text(circ)), circ)

    @pytest.mark.parametrize("circ", TEXT_SAFE_CIRCUITS)
    def test_deterministic_bytes(self, circ):
        once = dumps_text(circ)
        assert dumps_text(circ) == once
        assert dumps_text(loads_text(once)) == once

    def test_header_and_meta_lines(self):
        text = dumps_text(build_cycle_cnx(5, 2))
        lines = text.splitlines()
        assert lines[0] == "mctqasm v1 width 9"
        assert lines[1] == "roles ccccctypp"
        assert lines[2] == "meta scheme=cycle n=5 c=2 basis=-"

    def test_matrix_entries_round_trip_exactly(self):
        circ = lower_circuit(build_cnx(2), GateBasis.CNOT_LOCAL)
        again = loads_text(dumps_text(circ))
        for g, h in zip(circ.gates, again.gates):
            assert g.matrix == h.matrix

    def test_cu_rejected_with_pointer_to_json(self):
        circ = append(new_circuit([C, T]), cu(0, 1, MAT_V))
        with pytest.raises(CircuitFileError, match="json"):
            dumps_text(circ)

    def test_mcx_rejected(self):
        circ = append(new_circuit([C, C, C, T]), mcx([0, 1, 2], 3))
        with pytest.raises(CircuitFileError):
            dumps_text(circ)

    def test_comments_and_blanks_tolerated(self):
        text = "# made by hand\n\nmctqasm v1 width 3\nroles cct\n\nccx 0 1 2\n"
        circ = loads_text(text)
        assert len(circ.gates) == 1
        assert circ.meta.scheme is None


class TestTextParseErrors:
    def test_bad_header(self):
        with pytest.raises(CircuitFileError) as info:
            loads_text("qasm 2.0\n")
        assert info.value.line == 1
        with pytest.raises(CircuitFileError, match="missing roles line") as info:
            loads_text("mctqasm v1 width 3\n")
        assert info.value.line == 1

    def test_empty_file(self):
        with pytest.raises(CircuitFileError):
            loads_text("")

    def test_unknown_mnemonic_carries_line(self):
        text = "mctqasm v1 width 3\nroles cct\nccz 0 1 2\n"
        with pytest.raises(CircuitFileError, match="ccz") as info:
            loads_text(text)
        assert info.value.line == 3

    def test_index_out_of_range(self):
        text = "mctqasm v1 width 3\nroles cct\nccx 0 1 7\n"
        with pytest.raises(CircuitFileError, match="out of range") as info:
            loads_text(text)
        assert info.value.line == 3

    def test_duplicate_operand(self):
        text = "mctqasm v1 width 3\nroles cct\ncx 1 1\n"
        with pytest.raises(CircuitFileError) as info:
            loads_text(text)
        assert info.value.line == 3

    def test_wrong_entry_count_in_u(self):
        text = "mctqasm v1 width 1\nroles t\nu(1.0+0.0j,0.0+0.0j) 0\n"
        with pytest.raises(CircuitFileError, match="4 matrix entries"):
            loads_text(text)

    def test_non_unitary_u(self):
        text = (
            "mctqasm v1 width 1\nroles t\n"
            "u(2.0+0.0j,0.0+0.0j,0.0+0.0j,2.0+0.0j) 0\n"
        )
        with pytest.raises(CircuitFileError) as info:
            loads_text(text)
        assert info.value.line == 3

    def test_roles_length_mismatch(self):
        with pytest.raises(CircuitFileError, match="roles"):
            loads_text("mctqasm v1 width 4\nroles cct\n")

    def test_unknown_role_letter(self):
        with pytest.raises(CircuitFileError, match="role letter"):
            loads_text("mctqasm v1 width 3\nroles cqt\n")

    def test_bad_complex(self):
        text = "mctqasm v1 width 1\nroles t\nu(one,0j,0j,1.0+0.0j) 0\n"
        with pytest.raises(CircuitFileError, match="complex"):
            loads_text(text)


# a file whose gate lines start at line 4, the third a u(...) that
# passes, so a later line can repeat its mnemonic
_GOOD_HEAD = ("mctqasm v1 width 4\nroles ccct\nccx 0 1 3\ncx 0 1\n"
              "u(0j,1+0j,1+0j,0j) 2\n")
_NOT_UNITARY = "u(2+0j,0j,0j,2+0j)"


@pytest.mark.parametrize("line, message", [
    # a wrong operand count for each mnemonic
    ("x", "x takes 1 qubit(s), got 0"),
    ("x 0 1", "x takes 1 qubit(s), got 2"),
    ("cx 0", "cx takes 2 qubit(s), got 1"),
    ("cx 0 1 2", "cx takes 2 qubit(s), got 3"),
    ("cv 1", "cv takes 2 qubit(s), got 1"),
    ("cvdg 0 1 2", "cvdg takes 2 qubit(s), got 3"),
    ("ccx 0 1", "ccx takes 3 qubit(s), got 2"),
    ("ccx 0 1 2 3", "ccx takes 3 qubit(s), got 4"),
    ("u(0j,1+0j,1+0j,0j)", "u gate takes exactly one qubit"),
    ("u(0j,1+0j,1+0j,0j) 1 2", "u gate takes exactly one qubit"),
    ("u(1+0j,0j,0j,1+0j)", "u gate takes exactly one qubit"),
    ("u(1+0j,0j,0j,1+0j) 1 2", "u gate takes exactly one qubit"),
    # a duplicate operand in each position
    ("cx 1 1", "duplicate operand in cx(1, 1)"),
    ("cv 2 2", "duplicate operand in cv(2, 2)"),
    ("cvdg 3 3", "duplicate operand in cvdg(3, 3)"),
    ("ccx 1 1 3", "duplicate operand in ccx(1, 1, 3)"),
    ("ccx 1 3 1", "duplicate operand in ccx(1, 3, 1)"),
    ("ccx 3 1 1", "duplicate operand in ccx(3, 1, 1)"),
    # a matrix that is not unitary, on its first line
    (_NOT_UNITARY + " 0", "matrix is not unitary"),
    (_NOT_UNITARY, "u gate takes exactly one qubit"),
])
@pytest.mark.parametrize("repeats", [
    # the bad line alone, and then repeated, with a gate between and
    # the same mnemonic on another line after
    lambda bad: [bad],
    lambda bad: [bad, "cx 0 1", bad, "  " + bad, bad.split()[0] + " 3"],
])
def test_text_refusal_keeps_its_message_and_line(line, message, repeats):
    text = _GOOD_HEAD + "\n".join(repeats(line)) + "\n"
    with pytest.raises(CircuitFileError) as info:
        loads_text(text)
    assert (str(info.value), info.value.line) == (f"line 6: {message}", 6)


def test_text_lines_apart_in_whitespace_read_as_equal_gates():
    # each distinct raw line is parsed on its own; lines of one gate
    # spaced apart give equal gates, each equal to Gate of its fields
    lines = ["cx 0 1", "  cx 0 1", "cx 0 1\t", "cx  0 1", "u(0j,1+0j,1+0j,0j) 2",
             " u(0j,1+0j,1+0j,0j) 2 ", "u(0j,1+0j,1+0j,0j)  3", "ccx 0 1 3", "\tccx 0 1 3"]
    gates = loads_text(_GOOD_HEAD + "\n".join(lines) + "\n").gates[3:]
    assert gates[0] == gates[1] == gates[2] == gates[3] == cnot(0, 1)
    assert gates[4] == gates[5] == local(2, ((0j, 1 + 0j), (1 + 0j, 0j)))
    assert gates[6] == local(3, ((0j, 1 + 0j), (1 + 0j, 0j)))
    assert gates[7] == gates[8] == toffoli(0, 1, 3)
    for g in gates:
        assert g == Gate(g.kind, g.qubits, g.matrix) and type(g.qubits) is tuple


def test_writers_on_shared_and_signed_zero_matrix_objects():
    # one matrix object under many gates, and two matrices apart only in
    # the sign of a zero, each its own object, under gates that alternate
    shared = ((complex(0.6, 0.0), complex(0.0, 0.8)), (complex(0.0, 0.8), complex(0.6, -0.0)))
    plus = ((1 + 0j, complex(0.0, 0.0)), (complex(0.0, 0.0), 1 + 0j))
    minus = ((1 + 0j, complex(-0.0, 0.0)), (complex(0.0, -0.0), 1 + 0j))
    gates = [local(q % 3, shared) for q in range(9)]
    gates += [local(0, plus), local(0, minus), local(1, minus), local(1, plus), local(0, plus)]
    assert all(g.matrix is shared for g in gates[:9])
    circ = append(new_circuit([C, C, T]), *gates)
    assert dumps_json(circ) == _reference_dumps_json(circ)
    with_cu = append(circ, cu(0, 1, shared), cu(1, 2, minus), cu(0, 2, plus))
    assert dumps_json(with_cu) == _reference_dumps_json(with_cu)
    lines = dumps_text(circ).splitlines()[3:]
    assert lines == ["u(%s) %d" % (",".join(_fmt_complex(z) for row in g.matrix for z in row),
                                   g.target) for g in gates]
    assert lines[9] != lines[10] and lines[9] == lines[13]


def _json_doc(roles, gates):
    return json.dumps({"format": "mct-circuit", "version": 1, "width": len(roles),
                       "roles": roles, "gates": gates})


@pytest.mark.parametrize("text, line, message", [
    # the index memo holds every index below the width: 3 <= 3 * 1 line
    ("mctqasm v1 width 3\nroles cct\nccx 0 1 3\n", 3,
     "qubit index 3 out of range for width 3"),
    # a wide header over few lines starts with an empty memo
    ("mctqasm v1 width 10\nroles ccccccccct\nccx 0 1 10\n", 3,
     "qubit index 10 out of range for width 10"),
    (_json_doc("ct", [{"kind": "cx", "qubits": [0, 2]}]), None,
     "bad gate entry 0: qubit index 2 out of range for width 2"),
    (_json_doc("cccct", [{"kind": "x", "qubits": [0]}, {"kind": "mcx", "qubits": [0, 1, 2, 5]}]),
     None, "bad gate entry 1: qubit index 5 out of range for width 5"),
])
def test_operand_equal_to_the_width_refused_where_it_is_read(text, line, message):
    # the readers build their circuit without a second range check, so
    # each refuses the operand itself, with its own message and place
    with pytest.raises(CircuitFileError) as info:
        loads(text)
    assert info.value.line == line
    assert str(info.value) == (message if line is None else f"line {line}: {message}")


JSON_CIRCUITS = TEXT_SAFE_CIRCUITS + [
    build_cnu(3, MAT_V),
    build_cnu(2, MAT_T),
    append(new_circuit([C, C, C, T]), mcx([0, 1, 2], 3)),
]


class TestJsonRoundTrip:
    @pytest.mark.parametrize("circ", JSON_CIRCUITS)
    def test_round_trip(self, circ):
        _assert_same(loads_json(dumps_json(circ)), circ)

    @pytest.mark.parametrize("circ", JSON_CIRCUITS)
    def test_deterministic_bytes(self, circ):
        once = dumps_json(circ)
        assert dumps_json(circ) == once
        assert dumps_json(loads_json(once)) == once

    def test_not_a_circuit_document(self):
        with pytest.raises(CircuitFileError, match="mct-circuit"):
            loads_json('{"format": "something-else"}')

    def test_bad_json_reports_line(self):
        with pytest.raises(CircuitFileError):
            loads_json('{"format": "mct-circuit",\n  broken')

    def test_unsupported_version(self):
        with pytest.raises(CircuitFileError, match="version"):
            loads_json('{"format": "mct-circuit", "version": 9}')

    def test_bad_gate_entry(self):
        doc = (
            '{"format": "mct-circuit", "version": 1, "width": 2, '
            '"roles": "ct", "gates": [{"kind": "cx", "qubits": [0, 9]}]}'
        )
        with pytest.raises(CircuitFileError, match="out of range"):
            loads_json(doc)

    @pytest.mark.parametrize("gates", ["5", '"ccx"', '{"kind": "x"}', "null"])
    def test_gates_not_a_list(self, gates):
        doc = (
            '{"format": "mct-circuit", "version": 1, "width": 2, '
            f'"roles": "ct", "gates": {gates}}}'
        )
        with pytest.raises(CircuitFileError, match="gates must be a list"):
            loads_json(doc)

    @pytest.mark.parametrize("meta", ["[1]", "5", '"cycle"'])
    def test_meta_not_an_object(self, meta):
        doc = (
            '{"format": "mct-circuit", "version": 1, "width": 2, '
            f'"roles": "ct", "meta": {meta}, "gates": []}}'
        )
        with pytest.raises(CircuitFileError, match="meta must be an object"):
            loads_json(doc)

    @pytest.mark.parametrize("field", [
        '"n": "x"', '"n": 2.0', '"n": true', '"c": "2"', '"c": false',
        '"scheme": 3', '"scheme": ["cycle"]', '"basis": 1', '"basis": {}',
        '"n": -1', '"c": -3', '"extra": 5', '"n": 2, "Scheme": "cycle"',
    ])
    def test_meta_field_types(self, field):
        doc = (
            '{"format": "mct-circuit", "version": 1, "width": 2, '
            f'"roles": "ct", "meta": {{{field}}}, "gates": []}}'
        )
        with pytest.raises(CircuitFileError, match="bad meta field"):
            loads_json(doc)

    def test_meta_nulls_and_absence_accepted(self):
        head = '{"format": "mct-circuit", "version": 1, "width": 2, "roles": "ct", '
        for meta in ('"meta": null, ', '"meta": {}, ', "",
                     '"meta": {"scheme": null, "n": null, "c": null, "basis": null}, '):
            assert loads_json(head + meta + '"gates": []}').meta == CircuitMeta()


def _every_builder(basis):
    yield build_workspace_toffoli()
    yield build_workspace_c3x()
    for n in range(3, 8):
        yield build_cnx(n)
        yield build_cycle_cnx_auto(n)
        yield build_two_cycle_cnx(n)
        yield from (build_cycle_cnx(n, c) for c in range(1, n))
    if basis is not GateBasis.NATIVE_TOFFOLI:  # cu has no text mnemonic
        for matrix in NAMED_UNITARIES.values():
            yield from (build_cnu(n, matrix) for n in range(1, 5))


@pytest.mark.parametrize("basis", list(GateBasis))
def test_json_text_json_round_trip_is_byte_identical(basis):
    for circ in _every_builder(basis):
        first = dumps_json(lower_circuit(circ, basis))
        assert dumps_json(loads_text(dumps_text(loads_json(first)))) == first


@pytest.mark.parametrize("basis", list(GateBasis))
def test_json_reader_builds_one_gate_per_distinct_entry(basis):
    for circ in _every_builder(basis):
        text = dumps_json(lower_circuit(circ, basis))
        spelled = [json.dumps(entry) for entry in json.loads(text)["gates"]]
        objects = list(map(id, loads_json(text).gates))
        # entries spelled alike share one object, and no others do
        assert len(set(zip(spelled, objects))) == len(set(spelled)) == len(set(objects))


@pytest.mark.parametrize("good, bad, message", [
    ([0, 1], [0, True], "qubit index True is not an integer"),
    ([0, 1], [0, 1.0], "qubit index 1.0 is not an integer"),
    ([1, 0], [True, 0], "qubit index True is not an integer"),
    ([0, 1], [False, 1], "qubit index False is not an integer"),
])
def test_json_qubit_equal_to_a_good_one_is_still_refused(good, bad, message):
    # true and 1.0 equal 1 in Python; the reader must not take them for
    # the good entry it has already read
    gates = [{"kind": "cx", "qubits": good}, {"kind": "cx", "qubits": bad}]
    with pytest.raises(CircuitFileError) as info:
        loads_json(_doc(gates=gates))
    assert str(info.value) == f"bad gate entry 1: {message}"


def _reference_dumps_json(circuit):
    """The document as one json.dumps call, which dumps_json must match."""
    gates = []
    for g in circuit.gates:
        entry = {"kind": g.kind.value, "qubits": list(g.qubits)}
        if g.matrix is not None:
            entry["matrix"] = [[[float(z.real), float(z.imag)] for z in row] for row in g.matrix]
        gates.append(entry)
    m = circuit.meta
    doc = {
        "format": "mct-circuit",
        "version": 1,
        "width": circuit.width,
        "roles": "".join(r.value for r in circuit.roles),
        "meta": {"scheme": m.scheme, "n": m.n, "c": m.c, "basis": m.basis},
        "gates": gates,
    }
    return json.dumps(doc, indent=2) + "\n"


# the same matrix twice over but for the signs of its zeros
_SIGNED_ZEROS = (
    local(0, ((1 + 0j, complex(0.0, -0.0)), (complex(-0.0, 0.0), complex(-1.0, 0.0)))),
    local(1, ((1 + 0j, 0j), (0j, complex(-1.0, 0.0)))),
    local(0, ((complex(1.0, -0.0), complex(-0.0, -0.0)), (0j, complex(-1.0, -0.0)))),
)


class TestJsonWriterMatchesJsonDumps:
    @pytest.mark.parametrize("basis", list(GateBasis))
    def test_every_builder(self, basis):
        for circ in _every_builder(basis):
            lowered = lower_circuit(circ, basis)
            assert dumps_json(lowered) == _reference_dumps_json(lowered)
            assert dumps_json(circ) == _reference_dumps_json(circ)

    @pytest.mark.parametrize("name", sorted(NAMED_UNITARIES))
    def test_every_named_unitary(self, name):
        for n in (1, 2, 4):
            circ = build_cnu(n, NAMED_UNITARIES[name])
            for basis in GateBasis:
                lowered = lower_circuit(circ, basis)
                assert dumps_json(lowered) == _reference_dumps_json(lowered)

    def test_mcx_of_every_arity(self):
        # one template per arity in a call, each filled by distinct and
        # repeated gates, among gates of fixed arity
        rng = random.Random(7)
        width = 12
        gates = []
        for arity in (4, 5, 6, 7, 7, 4, 6, 5):
            for _ in range(3):
                *controls, target = rng.sample(range(width), arity)
                gates.append(mcx(controls, target))
        gates += [gates[0], toffoli(0, 1, 2), gates[5], cnot(3, 4), gates[-1]]
        circ = append(new_circuit([C] * (width - 1) + [T]), *gates)
        assert dumps_json(circ) == _reference_dumps_json(circ)
        assert loads_json(dumps_json(circ)).gates == circ.gates

    def test_signed_zeros_kept_apart(self):
        circ = append(new_circuit([C, T]), *_SIGNED_ZEROS, *_SIGNED_ZEROS[::-1])
        text = dumps_json(circ)
        assert text == _reference_dumps_json(circ)
        assert "-0.0" in text
        # gates 0 and 2 are == but spelled apart, so the reader builds
        # each its own gate, and each is written back as it was read
        again = loads_json(text)
        assert again.gates[0] is not again.gates[2] and again.gates[0] is again.gates[5]
        assert dumps_json(again) == text

    def test_no_gates(self):
        for meta in (CircuitMeta(), CircuitMeta("cycle", 5, 2, "cv")):
            circ = new_circuit([C, T], meta)
            assert dumps_json(circ) == _reference_dumps_json(circ)
            assert '"gates": []' in dumps_json(circ)

    def test_header_strings_escaped_as_json_does(self):
        meta = CircuitMeta(scheme='a"b\\c\u00e9', basis="\u2603")
        circ = append(new_circuit([C, C, T], meta), toffoli(0, 1, 2))
        assert dumps_json(circ) == _reference_dumps_json(circ)

    def test_templates_fill_like_json_dumps(self):
        # meta strings holding the templates' own % and %s, quotes,
        # backslashes and non-ASCII letters; matrix floats at the
        # subnormal and tiny ends, a signed zero, and one whose repr
        # needs all 17 digits
        z = complex(0.30000000000000004, math.sqrt(1 - 0.30000000000000004 ** 2))
        tiny = ((1 + 0j, complex(5e-324, -0.0)), (complex(1e-300, 0.0), 1 + 0j))
        phase = ((z, complex(-0.0, -0.0)), (complex(0.0, -0.0), 1 + 0j))
        meta = CircuitMeta(scheme='%s%"\\\u00e9\u00df', n=2, c=0, basis="%d%%\u2603\\%s")
        circ = append(new_circuit([C, T], meta), local(0, tiny), cu(0, 1, phase),
                      local(1, phase), cnot(0, 1), local(0, tiny))
        text = dumps_json(circ)
        assert text == _reference_dumps_json(circ)
        for number in ("5e-324", "1e-300", "-0.0", "0.30000000000000004"):
            assert number in text


def _doc(width=2, roles="ct", gates=(), meta=None):
    doc = {"format": "mct-circuit", "version": 1, "width": width, "roles": roles,
           "gates": list(gates)}
    if meta is not None:
        doc["meta"] = meta
    return json.dumps(doc)


# a valid C^1X document with one key given twice: at the top level, in
# meta, in a gate entry, and the gate list itself
DUPLICATE_KEY_DOCS = {
    "width": '{"format": "mct-circuit", "version": 1, "width": 2, "width": 2, "roles": "ct", '
             '"gates": [{"kind": "cx", "qubits": [0, 1]}]}',
    "n": '{"format": "mct-circuit", "version": 1, "width": 2, "roles": "ct", '
         '"meta": {"n": 1, "n": 1}, "gates": [{"kind": "cx", "qubits": [0, 1]}]}',
    "kind": '{"format": "mct-circuit", "version": 1, "width": 2, "roles": "ct", '
            '"gates": [{"kind": "cx", "kind": "cx", "qubits": [0, 1]}]}',
    "gates": '{"format": "mct-circuit", "version": 1, "width": 2, "roles": "ct", '
             '"gates": [], "gates": [{"kind": "cx", "qubits": [0, 1]}]}',
}


@pytest.mark.parametrize("key", DUPLICATE_KEY_DOCS)
def test_json_duplicate_key_refused(key, tmp_path, capsys):
    doc = DUPLICATE_KEY_DOCS[key]
    with pytest.raises(CircuitFileError, match=f"duplicate key '{key}'"):
        loads_json(doc)
    # keeping the last value, as json.loads does, reads a good circuit
    assert loads_json(json.dumps(json.loads(doc))).width == 2
    path = tmp_path / "dup.json"
    path.write_text(doc)
    for argv in (["verify", "--circuit", str(path), "--oracle", "cnx:1"],
                 ["convert", "--infile", str(path), "--out", str(tmp_path / "o.mct")]):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: bad json: duplicate key '{key}'\n")
    assert not (tmp_path / "o.mct").exists()


def test_json_byte_order_mark_refused_as_json_loads_refuses_it():
    doc = "\ufeff" + dumps_json(build_cnx(2))
    with pytest.raises(json.JSONDecodeError) as want:
        json.loads(doc)
    with pytest.raises(CircuitFileError) as info:
        loads_json(doc)
    assert str(info.value) == f"line 1: bad json: {want.value}"


class TestJsonIntegers:
    @pytest.mark.parametrize("width", [2.9, 2.0, True, "2", None, [2]])
    def test_width_must_be_an_int(self, width):
        with pytest.raises(CircuitFileError, match="bad width"):
            loads_json(_doc(width=width))

    @pytest.mark.parametrize("qubits", [[0.2, 1.9], [0, 1.0], [True, 0], ["0", 1], [0, None]])
    def test_qubit_indices_must_be_ints(self, qubits):
        with pytest.raises(CircuitFileError, match="not an integer"):
            loads_json(_doc(gates=[{"kind": "cx", "qubits": qubits}]))

    def test_fractional_file_is_not_truncated(self):
        doc = _doc(width=2.9, gates=[{"kind": "cx", "qubits": [0.2, 1.9]}])
        with pytest.raises(CircuitFileError):
            loads_json(doc)


class TestJsonMetaStrings:
    @pytest.mark.parametrize("value", [
        "my scheme", " lead", "tab\there", "line\nbreak", "a=b", "=", "-",
        "nbsp\u00a0x", "sep\u2028x", "unit\x1fsep",
    ])
    @pytest.mark.parametrize("key", ["scheme", "basis"])
    def test_rejects_what_the_text_meta_line_cannot_hold(self, key, value):
        with pytest.raises(CircuitFileError, match="bad meta field"):
            loads_json(_doc(meta={key: value}))

    @pytest.mark.parametrize("value", ["", "--", "a-b", "x_y", "\u00e9t\u00e9", "cycle"])
    def test_accepts_and_round_trips(self, value):
        circ = loads_json(_doc(meta={"scheme": value, "basis": value}))
        assert circ.meta.scheme == value
        assert dumps_json(loads_text(dumps_text(circ))) == dumps_json(circ)


def _random_unitary_json(rng):
    a, b, c = (rng.uniform(-math.pi, math.pi) for _ in range(3))
    phases = [cmath.exp(1j * a), cmath.exp(1j * b), cmath.exp(1j * c)]
    cos, sin = math.cos(a + b), math.sin(a + b)
    m = ((cos * phases[0], -sin * phases[1]),
         (sin * phases[1].conjugate() * phases[2], cos * phases[0].conjugate() * phases[2]))
    if rng.random() < 0.3:
        m = ((1 + 0j, complex(0.0, -0.0)), (complex(-0.0, 0.0), phases[2]))
    return [[[z.real, z.imag] for z in row] for row in m]


def _random_circuit_doc(rng):
    """A document that loads_json may or may not accept: random meta
    strings over an alphabet with the characters the text meta line
    splits on, and random gates of every kind."""
    width = rng.randint(4, 6)
    alphabet = ["a", "-", "=", " ", "\t", "\u00e9", "\u00a0", "\u2028", "_", "\x1c", "5"]

    def meta_value(numeric):
        if rng.random() < 0.25:
            return None
        if numeric:
            return rng.randint(-3, 600)
        return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 3)))

    gates = []
    for _ in range(rng.randint(0, 12)):
        kind = rng.choice(["x", "cx", "ccx", "cv", "cvdg", "u", "u", "cu", "mcx"])
        arity = {"x": 1, "u": 1, "cx": 2, "cv": 2, "cvdg": 2, "cu": 2, "ccx": 3,
                 "mcx": 4}[kind]
        entry = {"kind": kind, "qubits": rng.sample(range(width), arity)}
        if kind in ("u", "cu"):
            entry["matrix"] = _random_unitary_json(rng)
        gates.append(entry)
    meta = {"scheme": meta_value(False), "n": meta_value(True),
            "c": meta_value(True), "basis": meta_value(False)}
    return _doc(width=width, roles="c" * (width - 1) + "t", gates=gates, meta=meta)


def test_every_accepted_json_file_survives_text_round_trip():
    rng = random.Random(20)
    accepted = rejected = 0
    for _ in range(2000):
        try:
            circ = loads_json(_random_circuit_doc(rng))
        except CircuitFileError:
            rejected += 1
            continue
        accepted += 1
        first = dumps_json(circ)
        try:
            text = dumps_text(circ)
        except CircuitFileError:
            # only the kinds without a text mnemonic are refused
            assert {g.kind.value for g in circ.gates} & {"cu", "mcx"}
            continue
        assert dumps_json(loads_text(text)) == first
    assert accepted > 200 and rejected > 200, (accepted, rejected)


def _nodes(doc, path=()):
    """Every node of a parsed json document, as its path of keys and
    indices from the root."""
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _nodes(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _nodes(value, path + (i,))


def _mutate(doc, rng):
    """The document with one random node replaced by a value of another
    type, or with one key or item deleted."""
    path = rng.choice(list(_nodes(doc)))
    replacements = [None, True, False, rng.randint(-9, 9), 2 ** 70, rng.uniform(-2, 2),
                    math.nan, "cx", [], [0, 1], {}, {"kind": "x"}]
    if not path:
        return rng.choice(replacements)
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    if rng.random() < 0.2:
        del parent[path[-1]]
    else:
        parent[path[-1]] = rng.choice(replacements)
    return doc


def _deep_and_huge_json():
    """Files json.loads itself cannot return, or that overflow a float."""
    head = '{"format": "mct-circuit", "version": 1, '
    gate = '{"kind": "u", "qubits": [0], "matrix": %s}'
    yield '{"a":' * 5000
    yield '[' * 5000 + ']' * 5000
    yield head + '"width": %s, "roles": "ct", "gates": []}' % ("7" * 5000)
    yield head + '"width": 2, "roles": "ct", "gates": [{"kind": "cx", "qubits": [0, %s]}]}' % (
        "1" * 5000)
    yield head + '"width": 2, "roles": "ct", "gates": [%s]}' % (
        gate % "[[[1%s, 0], [0, 0]], [[0, 0], [1, 0]]]" % ("0" * 400))
    yield head + '"width": 2, "roles": "ct", "gates": [%s]}' % (gate % "[[{}, 0], [0, 0]]")
    yield head + '"width": 2, "roles": "ct", "gates": [%s]}' % (
        gate % ("[" * 900 + "]" * 900))


def test_malformed_json_loads_or_raises_file_error(tmp_path, capsys):
    """A valid cnot-basis document with one node changed, deleted, or
    nested or sized past what json and floats hold: loads_json returns a
    circuit or raises CircuitFileError, and ``mct verify`` on the file
    exits 2 for every file that loads_json refuses, without a traceback."""
    valid = json.loads(dumps_json(lower_circuit(build_cnx(3), GateBasis.CNOT_LOCAL)))
    rng = random.Random(8)
    files = [json.dumps(_mutate(json.loads(json.dumps(valid)), rng)) for _ in range(2000)]
    special = list(_deep_and_huge_json())
    loaded = refused = 0
    for i, text in enumerate(files + special):
        try:
            circ = loads_json(text)
        except CircuitFileError:
            refused += 1
            expected_codes = {2}
        else:
            assert isinstance(circ, Circuit)
            assert i < len(files), "a deep or huge file loaded"
            loaded += 1
            expected_codes = {0, 2, 3}
        if i % 10 == 0 or i >= len(files):
            path = tmp_path / "mutant.json"
            path.write_text(text)
            code = main(["verify", "--circuit", str(path), "--oracle", "cnx:3"])
            err = capsys.readouterr().err
            assert code in expected_codes, (code, text[:200])
            assert code != 2 or err.startswith("error: ")
    # most nodes are matrix entries, and most changes to them leave a
    # matrix that is not unitary
    assert loaded > 50 and refused > 1000, (loaded, refused)


def _reference_loads_text(text):
    """The reader written out one line at a time, with no caching: the
    same checks in the same order, so the same error for a bad file."""
    lines = [(i + 1, ln.strip()) for i, ln in enumerate(text.splitlines())]
    lines = [(i, ln) for i, ln in lines if ln and not ln.startswith("#")]
    # the generated files have a well-formed header and roles line
    width = int(lines[0][1].split()[3])
    roles = [ROLE_BY_LETTER[ch] for ch in lines[1][1].split()[1]]
    body = lines[2:]
    meta = CircuitMeta()
    if body and body[0][1].startswith("meta"):
        fields = dict(tok.partition("=")[::2] for tok in body[0][1].split()[1:])
        meta = CircuitMeta(scheme=fields["scheme"], n=int(fields["n"]))
        body = body[1:]
    kinds = {"x": GateKind.X, "cx": GateKind.CNOT, "ccx": GateKind.TOFFOLI,
             "cv": GateKind.CV, "cvdg": GateKind.CVDG}
    gates = []
    for lineno, line in body:
        head, *rest = line.split()

        def indices():
            out = []
            for tok in rest:
                # 0, or no leading zero; ASCII digits and nothing else
                if not (tok.isascii() and tok.isdigit()) or tok[0] == "0" != tok:
                    raise CircuitFileError(f"bad qubit index {tok!r}", lineno)
                q = int(tok)
                if not 0 <= q < width:
                    raise CircuitFileError(
                        f"qubit index {q} out of range for width {width}", lineno)
                out.append(q)
            return tuple(out)

        matrix = None
        if head.startswith("u(") and head.endswith(")"):
            kind = GateKind.LOCAL
            entries = head[2:-1].split(",")
            if len(entries) != 4:
                raise CircuitFileError(
                    f"u() takes 4 matrix entries, got {len(entries)}", lineno)
            zs = []
            for e in entries:
                try:
                    zs.append(complex(e))
                except ValueError:
                    raise CircuitFileError(f"bad complex number {e!r}", lineno) from None
            matrix = ((zs[0], zs[1]), (zs[2], zs[3]))
            qubits = indices()
            if len(qubits) != 1:
                raise CircuitFileError("u gate takes exactly one qubit", lineno)
        elif head in kinds:
            kind = kinds[head]
            qubits = indices()
        else:
            raise CircuitFileError(f"unknown mnemonic {head!r}", lineno)
        try:
            gates.append(Gate(kind, qubits, matrix))
        except ValueError as exc:
            raise CircuitFileError(str(exc), lineno) from None
    return Circuit(new_circuit(roles).roles, tuple(gates), meta)


# u() entries, two of them equal to 1 or to 0 but for the signs of zeros
_U_ENTRIES = [
    "1.0+0.0j,0.0+0.0j,0.0+0.0j,1.0+0.0j",
    "1.0-0.0j,-0.0+0.0j,0.0-0.0j,1.0+0.0j",
    "0.0+0.0j,1.0+0.0j,1.0+0.0j,0.0+0.0j",
    "0.7071067811865476+0.0j,0.7071067811865476+0.0j,"
    "0.7071067811865476+0.0j,-0.7071067811865476+0.0j",
    "(0.5+0.5j),(0.5-0.5j),(0.5-0.5j),(0.5+0.5j)",
]
# lines that fail, each for a different reason
_BAD_LINES = [
    "ccz 0 1 2", "cx 0 0", "ccx 0 1", "x 0 1", "cx 0 q", "cx 0 -1", "ccx 0 1 99",
    "u(1.0+0.0j,0.0+0.0j) 0", "u(one,0j,0j,1.0+0.0j) 0", "u(2.0,0.0,0.0,2.0) 0",
    "u(1.0+0.0j, 0.0+0.0j,0.0+0.0j,1.0+0.0j) 0", "u(1,0,0,1) 0 1", "u(1,0,0,1)",
    "cx 1.0 2", "cx 0 +1", "cx 0 01", "ccx 0 1 \u0662", "cx 0 1_0",
]


def _random_gate_line(rng, width):
    """A well-formed gate line, with random spacing between its tokens."""
    kind = rng.choice(["x", "cx", "ccx", "cv", "cvdg", "u"])
    arity = {"x": 1, "u": 1, "cx": 2, "cv": 2, "cvdg": 2, "ccx": 3}[kind]
    head = f"u({rng.choice(_U_ENTRIES)})" if kind == "u" else kind
    tokens = [head] + [str(q) for q in rng.sample(range(width), arity)]
    return "".join(tok + rng.choice([" ", "  ", "\t", " \t "]) for tok in tokens).rstrip()


def _random_text_file(rng):
    """A file over a small pool of distinct lines, so most gate lines
    repeat, some of them with different spacing; about half the files
    hold one or more bad lines."""
    width = rng.randint(3, 6)
    pool = [_random_gate_line(rng, width) for _ in range(rng.randint(1, 6))]
    if rng.random() < 0.5:
        pool += rng.sample(_BAD_LINES, rng.randint(1, 2))
        pool += [line for line in pool if rng.random() < 0.3]
    lines = ["mctqasm v1 width %d" % width, "roles " + "c" * (width - 1) + "t"]
    if rng.random() < 0.5:
        lines.append("meta scheme=cycle n=%d c=- basis=-" % (width - 1))
    for _ in range(rng.randint(0, 40)):
        line = rng.choice(pool)
        pad = rng.choice(["", " ", "\t", "  "])
        lines.append(pad + line + rng.choice(["", " ", "\t"]))
        if rng.random() < 0.1:
            lines.append(rng.choice(["", "   ", "# comment", "  # " + line]))
    return "\n".join(lines) + "\n"


def _reshaped_text_file(text, rng):
    """The same file with CRLF or LF line ends, blank and comment lines
    before the header and between the header, roles and meta lines,
    and then either the body as it is, the body with one bad gate line
    added twice with two different paddings, or a body of comments
    only."""
    lines = text.splitlines()
    top = 3 if len(lines) > 2 and lines[2].startswith("meta") else 2
    shaped = []
    for line in lines[:top]:
        for _ in range(rng.randint(0, 2)):
            shaped.append(rng.choice(["", "  ", "\t", "# comment", "  # mctqasm v1 width 9",
                                      "#roles cct"]))
        shaped.append(line)
    body = lines[top:]
    pick = rng.random()
    if pick < 0.4:
        bad = rng.choice(_BAD_LINES)
        first, second = sorted(rng.sample(range(len(body) + 2), 2))
        body.insert(first, rng.choice(["", " ", "\t"]) + bad)
        body.insert(second, bad + rng.choice([" ", "\t", "  "]))
    elif pick < 0.6:
        body = [rng.choice(["#", "# " + line, "", "  #" + line]) for line in body]
    eol = rng.choice(["\n", "\r\n"])
    return eol.join(shaped + body) + eol


def _matches_reference(text):
    """loads_text gives the reference's gates and bytes, or its error
    text and line; True when the file is accepted."""
    try:
        want = _reference_loads_text(text)
    except CircuitFileError as exc:
        with pytest.raises(CircuitFileError) as info:
            loads_text(text)
        assert (str(info.value), info.value.line) == (str(exc), exc.line)
        return False
    got = loads_text(text)
    assert got.gates == want.gates
    assert [g.matrix and matrix_bits(g.matrix) for g in got.gates] == \
        [g.matrix and matrix_bits(g.matrix) for g in want.gates]
    assert dumps_text(got) == dumps_text(want)
    return True


def test_text_reader_matches_per_line_reference():
    rng = random.Random(7)
    # the reshaping draws from its own stream, so the plain files are
    # the same ones as before it was added
    reshape = random.Random(8)
    accepted = rejected = 0
    shaped_accepted = shaped_rejected = 0
    for _ in range(1500):
        text = _random_text_file(rng)
        if _matches_reference(text):
            accepted += 1
        else:
            rejected += 1
        if _matches_reference(_reshaped_text_file(text, reshape)):
            shaped_accepted += 1
        else:
            shaped_rejected += 1
    assert accepted > 400 and rejected > 400, (accepted, rejected)
    assert shaped_accepted > 300 and shaped_rejected > 600, (shaped_accepted, shaped_rejected)


@pytest.mark.parametrize("eol", ["\n", "\r\n"])
def test_first_of_two_paddings_of_a_bad_line_is_reported(eol):
    lines = ["", "# c", "mctqasm v1 width 3", "#", "roles cct", "",
             "meta scheme=- n=- c=- basis=-",
             "cx 0 1", "cx 0 1", "\tcx 0  7", "cx 0 1", "cx 0 7", "\tcx 0  7"]
    with pytest.raises(CircuitFileError) as info:
        loads_text(eol.join(lines) + eol)
    assert (str(info.value), info.value.line) == \
        ("line 10: qubit index 7 out of range for width 3", 10)
    lines[9], lines[11] = lines[11], lines[9]
    with pytest.raises(CircuitFileError) as info:
        loads_text(eol.join(lines) + eol)
    assert info.value.line == 10


def test_comment_only_body_reads_as_no_gates():
    text = "mctqasm v1 width 3\r\n# x\r\nroles cct\r\n# ccx 0 1 2\r\n\r\n  # cx 0 1\r\n"
    circ = loads_text(text)
    assert circ.gates == () and circ.width == 3
    assert dumps_text(circ) == "mctqasm v1 width 3\nroles cct\nmeta scheme=- n=- c=- basis=-\n"


# integers int() reads but the text reader refuses: only 0 or a digit
# 1-9 followed by digits, all ASCII, is one
_NONCANONICAL = ["00", "02", "+5", "-0", "5_0", "\u0665", "\uff15", "-3"]


def _random_header_text(rng):
    """A text file that loads_text may or may not accept: widths 0..6,
    random role letters, and meta values over an alphabet with the
    characters the meta line splits on or reads as absent, and
    non-ASCII ones; each meta field is there or not."""
    width = rng.randint(0, 6)
    alphabet = ["a", "-", "=", " ", "\t", "\u00e9", "\u00a0", "\u2028", "_", "\x1c", "5",
                "+", "\u0665"]

    def value(numeric):
        if numeric and rng.random() < 0.6:
            return rng.choice(["-", str(rng.randint(-3, 600)), str(rng.randint(0, 600)),
                               rng.choice(_NONCANONICAL)])
        return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 3)))

    spelled = rng.choice(["%d", "%d", "%d", "0%d", "+%d", "%d_0"]) % width
    lines = ["mctqasm v1 width " + spelled,
             "roles " + "".join(rng.choice("ctypw") for _ in range(width))]
    if rng.random() < 0.8:
        fields = [f"{key}={value(key in ('n', 'c'))}" for key in ("scheme", "n", "c", "basis")
                  if rng.random() < 0.7]
        lines.append(" ".join(["meta"] + fields))
    if width >= 3:
        lines += [_random_gate_line(rng, width) for _ in range(rng.randint(0, 6))]
    return "\n".join(lines) + "\n"


def test_every_accepted_text_file_survives_json_round_trip():
    rng = random.Random(11)
    accepted = rejected = 0
    for _ in range(3000):
        text = _random_header_text(rng)
        try:
            circ = loads_text(text)
        except CircuitFileError:
            rejected += 1
            continue
        accepted += 1
        back = dumps_text(loads_json(dumps_json(circ)))
        assert back == dumps_text(circ)
        # the width and the meta integers come back spelled as they were
        lines = text.splitlines()
        assert back.splitlines()[0] == lines[0]
        if len(lines) > 2 and lines[2].startswith("meta"):
            numbers = [tok for tok in lines[2].split() if tok[:2] in ("n=", "c=")]
            assert set(numbers) <= set(back.splitlines()[2].split())
    assert accepted > 300 and rejected > 300, (accepted, rejected)


class TestWritersKeepTheReadersRules:
    @pytest.mark.parametrize("meta", [
        CircuitMeta(scheme="my scheme"), CircuitMeta(scheme="a=b"), CircuitMeta(basis="-"),
        CircuitMeta(basis="tab\there"), CircuitMeta(n="5"), CircuitMeta(c=True),
        CircuitMeta(n=2.0), CircuitMeta(n=-1),
    ])
    @pytest.mark.parametrize("dump", [dumps_text, dumps_json])
    def test_bad_meta_refused(self, dump, meta):
        circ = append(new_circuit([C, C, T], meta), toffoli(0, 1, 2))
        with pytest.raises(CircuitFileError, match="bad meta field"):
            dump(circ)

    @pytest.mark.parametrize("dump", [dumps_text, dumps_json])
    def test_width_zero_refused(self, dump):
        with pytest.raises(CircuitFileError, match="bad width 0"):
            dump(new_circuit([]))

    @pytest.mark.parametrize("name", ["c.mct", "c.json"])
    def test_save_writes_nothing_when_refused(self, tmp_path, name):
        with pytest.raises(CircuitFileError):
            save(new_circuit([C, T], CircuitMeta(scheme="my scheme")), tmp_path / name)
        assert not (tmp_path / name).exists()

    def test_json_width_zero_refused(self):
        with pytest.raises(CircuitFileError, match="bad width"):
            loads_json(_doc(width=0, roles=""))

    @pytest.mark.parametrize("header, meta, gate, message", [
        ("width 03", "n=2", "ccx 0 1 2", "line 1: bad width '03'"),
        ("width 3", "n=02", "ccx 0 1 2", "line 3: bad meta integer n='02'"),
        ("width 3", "n=+2", "ccx 0 1 2", "line 3: bad meta integer n='+2'"),
        ("width 3", "n=5_0", "ccx 0 1 2", "line 3: bad meta integer n='5_0'"),
        ("width 3", "n=\u0665", "ccx 0 1 2", "line 3: bad meta integer n='\u0665'"),
        ("width 3", "n=2 c=-1", "ccx 0 1 2", "line 3: bad meta integer c='-1'"),
        ("width 3", "foo=1 n=2", "ccx 0 1 2", "line 3: bad meta field foo='1'"),
        ("width 3", "sheme=- n=2", "ccx 0 1 2", "line 3: bad meta field sheme=None"),
        ("width 3", "n=2 n=3", "ccx 0 1 2", "line 3: repeated meta field 'n'"),
        ("width 3", "n=2 c=- n=2", "ccx 0 1 2", "line 3: repeated meta field 'n'"),
        ("width 3", "n=2", "ccx 0 +1 2", "line 4: bad qubit index '+1'"),
        ("width 3", "n=2", "ccx 0 01 2", "line 4: bad qubit index '01'"),
        # the canonical token read first, on a good line, changes nothing
        ("width 3", "n=2", "ccx 0 1 2\nccx 0 01 2", "line 5: bad qubit index '01'"),
        ("width 3", "n=2", "ccx 0 1 2\nccx 0 +1 2", "line 5: bad qubit index '+1'"),
        ("width 3", "n=2", "ccx 0 1 2\ncx 1 2\nccx 0 1 3",
         "line 6: qubit index 3 out of range for width 3"),
    ])
    def test_text_integers_spelled_one_way_only(self, header, meta, gate, message):
        text = f"mctqasm v1 {header}\nroles cct\nmeta {meta}\n{gate}\n"
        with pytest.raises(CircuitFileError) as info:
            loads_text(text)
        assert str(info.value) == message
        # the same file spelled the writers' way loads and round-trips
        canonical = "mctqasm v1 width 3\nroles cct\nmeta scheme=- n=2 c=- basis=-\nccx 0 1 2\n"
        assert dumps_text(loads_json(dumps_json(loads_text(canonical)))) == canonical

    def test_text_meta_value_holding_equals_refused(self):
        text = "mctqasm v1 width 3\nroles cct\nmeta scheme=a=b n=2 c=- basis=-\nccx 0 1 2\n"
        with pytest.raises(CircuitFileError, match="bad meta field scheme='a=b'") as info:
            loads_text(text)
        assert info.value.line == 3


def test_signed_zeros_written_apart_in_text():
    # gates 0 and 2 are == (0.0 == -0.0) but must not share a line
    circ = append(new_circuit([C, T]), *_SIGNED_ZEROS, *_SIGNED_ZEROS[::-1])
    assert circ.gates[0] == circ.gates[2]
    lines = dumps_text(circ).splitlines()[3:]
    assert lines[0] != lines[2] and lines[0] == lines[5]
    again = loads_text(dumps_text(circ))
    assert [matrix_bits(g.matrix) for g in again.gates] == \
        [matrix_bits(g.matrix) for g in circ.gates]


@pytest.mark.parametrize("operand", [True, False, 1.0, np.int64(1)])
@pytest.mark.parametrize("dump", [dumps_text, dumps_json])
def test_no_writer_gets_a_non_integer_operand(dump, operand):
    # the text writer would write "cx True 2" or "cx 1.0 2", which the
    # reader refuses, and the json writer a bare True, which is not json
    with pytest.raises(ValueError) as info:
        dump(append(new_circuit([C, C, T]), Gate(GateKind.CNOT, (operand, 2))))
    assert str(info.value) == f"operand {operand!r} of cx({operand!r}, 2) is not an integer"


class TestSniffAndFiles:
    def test_sniff(self):
        circ = build_cnx(3)
        _assert_same(loads(dumps_text(circ)), circ)
        _assert_same(loads(dumps_json(circ)), circ)

    def test_format_for_path(self):
        assert format_for_path("a/b/c.json") == "json"
        assert format_for_path("a/b/c.JSON") == "json"
        assert format_for_path("a/b/c.mct") == "text"
        assert format_for_path("circuit") == "text"

    @pytest.mark.parametrize("name", [
        "c.json", "A.JSON", "x.Json", "...json", "..json", ".json", "a/.json", "a..json",
        ".json.json", "x.json/", "x.json//", "x.json/.", "./x.json", "//x.json", "a.json.",
        "x.json/..", "dir.json/x", "x.jsonl", "json", "", ".", "..", "/", "c.mq",
    ])
    @pytest.mark.parametrize("as_path", [False, True])
    def test_format_for_path_reads_the_suffix_as_pathlib_does(self, name, as_path):
        path = Path(name) if as_path else name
        want = "json" if Path(name).suffix.lower() == ".json" else "text"
        assert format_for_path(path) == want

    def test_save_and_load(self, tmp_path):
        circ = lower_circuit(build_cnx(3), GateBasis.CV_BASIS)
        for name in ("c.mct", "c.json"):
            path = tmp_path / name
            save(circ, path)
            _assert_same(load(path), circ)

    def test_explicit_format_overrides_extension(self, tmp_path):
        circ = build_cnx(2)
        path = tmp_path / "circuit.mct"
        save(circ, path, fmt="json")
        assert path.read_text().lstrip().startswith("{")
        _assert_same(load(path), circ)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CircuitFileError, match="cannot read"):
            load(tmp_path / "nope.mct")

    def test_unwritable_path(self, tmp_path):
        path = tmp_path / "missing" / "c.json"
        with pytest.raises(CircuitFileError) as caught:
            save(build_cnx(2), path)
        assert str(caught.value) == f"cannot write {path}: No such file or directory"
        assert caught.value.line is None

    def test_dumps_unknown_format(self):
        with pytest.raises(ValueError):
            dumps(build_cnx(2), "yaml")


def _file_bytes():
    """Files whose text depends on how the bytes are decoded: CRLF and
    lone CR line ends, a byte-order mark, and bytes that are not UTF-8,
    some past the first 8 KB."""
    text = dumps_text(lower_circuit(build_cnx(3), GateBasis.CV_BASIS))
    doc = dumps_json(build_cnx(3))
    broken = doc[:-40] + "oops" + doc[-40:]
    yield "crlf text", text.replace("\n", "\r\n").encode()
    yield "cr text", text.replace("\n", "\r").encode()
    yield "mixed ends", text.replace("\n", "\r\r\n", 2).encode()
    yield "crlf json", doc.replace("\n", "\r\n").encode()
    # the error's char offset counts the line ends as read
    yield "crlf bad json", broken.replace("\n", "\r\n").encode()
    yield "cr bad json", broken.replace("\n", "\r").encode()
    yield "cr in a json string", doc.replace('"ladder"', '"lad\rder"').encode()
    yield "bom", b"\xef\xbb\xbf" + text.encode()
    yield "bad byte", b"\xff" + text.encode()
    yield "bad byte past 8 KB", ("#" * 9000 + "\r\n").encode() + b"\xc3\x28" + text.encode()
    yield "cut sequence at the end", text.encode() + "é".encode()[:1]


@pytest.mark.parametrize("name, data", list(_file_bytes()))
def test_load_reads_as_read_text(name, data, tmp_path):
    path = tmp_path / "c.mct"
    path.write_bytes(data)

    def outcome(read):
        try:
            return dumps_json(read())
        except ValueError as exc:  # CircuitFileError or UnicodeDecodeError
            return type(exc), str(exc), getattr(exc, "line", None)

    got = outcome(lambda: load(path))
    assert got == outcome(lambda: loads(path.read_text(encoding="utf-8")))
    assert got == outcome(lambda: load(str(path)))
