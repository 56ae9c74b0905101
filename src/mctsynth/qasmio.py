"""Circuit files: a line-based text format and a JSON format.

Text format, one gate per line after two or three header lines::

    mctqasm v1 width 5
    roles cccty
    meta scheme=cycle n=4 c=2 basis=-
    ccx 1 2 4
    x 0
    u(0.0+0.0j,1.0+0.0j,1.0+0.0j,0.0+0.0j) 3

Mnemonics are x, cx, ccx, cv, cvdg, and u(<four complex entries,
row-major>).  Qubit indices refer to the roles string, whose letters are
the role codes (c control, t target, y cycle ancilla, p process
ancilla, w workspace).  The meta line records how the circuit was made;
a dash stands for an absent field.  Multi-controlled primitives and
controlled-unitary gates have no text mnemonic and are rejected with a
pointer to the JSON format, which carries every gate kind plus the same
metadata.

Both writers are deterministic: the same circuit always produces the
same bytes.  Floats are serialized with repr, which round-trips
exactly.
"""

from __future__ import annotations

import json
import math
import struct
from functools import partial
from pathlib import Path
from typing import Callable, Optional, Union

from .ir import (
    Circuit,
    CircuitMeta,
    Gate,
    GateKind,
    Matrix2,
    ROLE_BY_LETTER,
    new_circuit,
)

TEXT_HEADER = "mctqasm v1"

# kinds with a text mnemonic; everything else must go through JSON
_TEXT_KINDS = {
    GateKind.X,
    GateKind.CNOT,
    GateKind.TOFFOLI,
    GateKind.CV,
    GateKind.CVDG,
    GateKind.LOCAL,
}
# mnemonic -> kind for the reader; u(...) lines are told apart by shape
_KIND_BY_MNEMONIC = {k.value: k for k in _TEXT_KINDS if k is not GateKind.LOCAL}


class CircuitFileError(ValueError):
    """Problem reading or writing a circuit file.  ``line`` is the
    1-based source line when the problem is tied to one."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


# ---------------------------------------------------------------------------
# complex / matrix helpers

def _fmt_complex(z: complex) -> str:
    re, im = float(z.real), float(z.imag)
    # copysign keeps the sign of a zero imaginary part, which JSON keeps too
    sign = "-" if math.copysign(1.0, im) < 0 else "+"
    return f"{re!r}{sign}{abs(im)!r}j"


def _parse_complex(token: str, line: int) -> complex:
    try:
        return complex(token)
    except ValueError:
        raise CircuitFileError(f"bad complex number {token!r}", line) from None


def _matrix_bits(m: Matrix2) -> bytes:
    """The matrix's float bits: equal bits give equal text, where tuple
    equality would mistake 0.0 for -0.0."""
    (a, b), (c, d) = m
    return struct.pack(
        "8d", a.real, a.imag, b.real, b.imag, c.real, c.imag, d.real, d.imag
    )


def _matrix_to_json(m: Matrix2) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _matrix_from_json(data: object) -> Matrix2:
    try:
        (a, b), (c, d) = data  # type: ignore[misc]
        return (
            (complex(a[0], a[1]), complex(b[0], b[1])),
            (complex(c[0], c[1]), complex(d[0], d[1])),
        )
    except (TypeError, ValueError, IndexError, KeyError, OverflowError):
        raise CircuitFileError(f"bad matrix {data!r}") from None


# ---------------------------------------------------------------------------
# text writer

def dumps_text(circuit: Circuit) -> str:
    lines = [f"{TEXT_HEADER} width {circuit.width}"]
    lines.append("roles " + "".join(q.role.value for q in circuit.qubits))
    m = circuit.meta

    def opt(v) -> str:
        return "-" if v is None else str(v)

    lines.append(
        f"meta scheme={opt(m.scheme)} n={opt(m.n)} c={opt(m.c)} basis={opt(m.basis)}"
    )
    lines += _format_each_once(circuit.gates, partial(_gate_line, matrices={}))
    return "\n".join(lines) + "\n"


def _format_each_once(gates: tuple[Gate, ...], fmt: Callable[[Gate], str]) -> list[str]:
    """``[fmt(g) for g in gates]``, calling fmt once per distinct gate
    object, in order of first appearance.  Keying on id() is safe since
    the tuple keeps every gate alive; Gate equality is not, because
    0.0 == -0.0 would merge matrices that print differently."""
    distinct = {id(g): g for g in gates}
    text = {key: fmt(g) for key, g in distinct.items()}
    return list(map(text.__getitem__, map(id, gates)))


def _gate_line(g: Gate, matrices: dict[bytes, str]) -> str:
    if g.kind not in _TEXT_KINDS:
        raise CircuitFileError(
            f"gate kind {g.kind.value!r} has no text mnemonic; use the json format"
        )
    idx = " ".join(map(str, g.qubits))
    if g.kind is not GateKind.LOCAL:
        return f"{g.kind.value} {idx}"
    assert g.matrix is not None
    key = _matrix_bits(g.matrix)
    entries = matrices.get(key)
    if entries is None:
        entries = matrices[key] = ",".join(
            _fmt_complex(z) for row in g.matrix for z in row
        )
    return f"u({entries}) {idx}"


# ---------------------------------------------------------------------------
# text reader

def _parse_meta(tokens: list[str], line: int) -> CircuitMeta:
    fields: dict[str, Optional[str]] = {}
    for tok in tokens:
        if "=" not in tok:
            raise CircuitFileError(f"bad meta field {tok!r}", line)
        key, _, val = tok.partition("=")
        fields[key] = None if val == "-" else val

    def as_int(key: str) -> Optional[int]:
        v = fields.get(key)
        if v is None:
            return None
        try:
            return int(v)
        except ValueError:
            raise CircuitFileError(f"bad meta integer {key}={v!r}", line) from None

    return CircuitMeta(
        scheme=fields.get("scheme"),
        n=as_int("n"),
        c=as_int("c"),
        basis=fields.get("basis"),
    )


def _parse_indices(tokens: list[str], width: int, line: int) -> tuple[int, ...]:
    out = []
    for tok in tokens:
        try:
            idx = int(tok)
        except ValueError:
            raise CircuitFileError(f"bad qubit index {tok!r}", line) from None
        if not 0 <= idx < width:
            raise CircuitFileError(
                f"qubit index {idx} out of range for width {width}", line
            )
        out.append(idx)
    return tuple(out)


def loads_text(text: str) -> Circuit:
    # keep 1-based line numbers while skipping blanks and comments
    numbered = [
        (i, ln)
        for i, ln in enumerate(map(str.strip, text.splitlines()), 1)
        if ln and ln[0] != "#"
    ]
    if not numbered:
        raise CircuitFileError("empty circuit file")

    lineno, header = numbered[0]
    tokens = header.split()
    if tokens[:2] != TEXT_HEADER.split() or len(tokens) != 4 or tokens[2] != "width":
        raise CircuitFileError(f"bad header {header!r}", lineno)
    try:
        width = int(tokens[3])
    except ValueError:
        raise CircuitFileError(f"bad width {tokens[3]!r}", lineno) from None
    if width < 1:
        raise CircuitFileError(f"bad width {width}", lineno)

    if len(numbered) < 2 or not numbered[1][1].startswith("roles "):
        raise CircuitFileError("missing roles line", lineno)
    lineno, roles_line = numbered[1]
    letters = roles_line.split(maxsplit=1)[1].strip()
    if len(letters) != width:
        raise CircuitFileError(
            f"roles string has {len(letters)} letters, width is {width}", lineno
        )
    try:
        roles = [ROLE_BY_LETTER[ch] for ch in letters]
    except KeyError as exc:
        raise CircuitFileError(f"unknown role letter {exc.args[0]!r}", lineno) from None

    body = numbered[2:]
    meta = CircuitMeta()
    if body and body[0][1].startswith("meta"):
        lineno, meta_line = body[0]
        meta = _parse_meta(meta_line.split()[1:], lineno)
        body = body[1:]

    # A gate line's Gate depends only on its text and the width, so each
    # distinct line is parsed, checked and built once and the Gate is
    # shared by its repeats.  A bad line raises at its first occurrence.
    parsed: dict[str, Gate] = {}
    matrices: dict[str, Matrix2] = {}  # each distinct u() is parsed once
    gates: list[Gate] = []
    for lineno, line in body:
        gate = parsed.get(line)
        if gate is None:
            gate = parsed[line] = _parse_gate(line, width, lineno, matrices)
        gates.append(gate)

    circ = new_circuit(roles, meta)
    return Circuit(circ.qubits, tuple(gates), meta)


def _parse_gate(
    line: str, width: int, lineno: int, matrices: dict[str, Matrix2]
) -> Gate:
    tokens = line.split()
    mnemonic = tokens[0]
    matrix = None
    if mnemonic.startswith("u(") and mnemonic.endswith(")"):
        kind = GateKind.LOCAL
        matrix = matrices.get(mnemonic)
        if matrix is None:
            entries = mnemonic[2:-1].split(",")
            if len(entries) != 4:
                raise CircuitFileError(
                    f"u() takes 4 matrix entries, got {len(entries)}", lineno
                )
            zs = [_parse_complex(e, lineno) for e in entries]
            matrix = matrices[mnemonic] = ((zs[0], zs[1]), (zs[2], zs[3]))
        idx = _parse_indices(tokens[1:], width, lineno)
        if len(idx) != 1:
            raise CircuitFileError("u gate takes exactly one qubit", lineno)
    else:
        kind = _KIND_BY_MNEMONIC.get(mnemonic)
        if kind is None:
            raise CircuitFileError(f"unknown mnemonic {mnemonic!r}", lineno)
        idx = _parse_indices(tokens[1:], width, lineno)
    try:
        return Gate(kind, idx, matrix)
    except ValueError as exc:
        raise CircuitFileError(str(exc), lineno) from None


# ---------------------------------------------------------------------------
# json writer / reader

# One gate of json.dumps(doc, indent=2), split around its qubit list;
# json.dumps writes an int with repr, as str does.
_JSON_GATE_HEAD = {
    k: '    {\n      "kind": %s,\n      "qubits": [\n        ' % json.dumps(k.value)
    for k in GateKind
}
_JSON_QUBIT_SEP = ",\n        "
_JSON_GATE_TAIL = "\n      ]\n    }"
_JSON_MATRIX_HEAD = '\n      ],\n      "matrix": '
_JSON_EMPTY_GATES = "[]\n}"


def dumps_json(circuit: Circuit) -> str:
    """The bytes of ``json.dumps(doc, indent=2) + "\\n"`` for the circuit
    document.  Everything but the gate list goes through json.dumps; the
    gates are written from templates, and each distinct matrix is
    formatted once by json.dumps, because indent=2 makes json.dumps
    fall back to its pure-Python encoder."""
    m = circuit.meta
    doc = {
        "format": "mct-circuit",
        "version": 1,
        "width": circuit.width,
        "roles": "".join(q.role.value for q in circuit.qubits),
        "meta": {"scheme": m.scheme, "n": m.n, "c": m.c, "basis": m.basis},
        "gates": [],
    }
    head = json.dumps(doc, indent=2)
    if not circuit.gates:
        return head + "\n"
    entries = _format_each_once(circuit.gates, partial(_json_gate, matrices={}))
    return "".join(
        (head[: -len(_JSON_EMPTY_GATES)], "[\n", ",\n".join(entries), "\n  ]\n}\n")
    )


def _json_gate(g: Gate, matrices: dict[bytes, str]) -> str:
    qubits = _JSON_QUBIT_SEP.join(map(str, g.qubits))
    if g.matrix is None:
        return _JSON_GATE_HEAD[g.kind] + qubits + _JSON_GATE_TAIL
    key = _matrix_bits(g.matrix)
    matrix = matrices.get(key)
    if matrix is None:
        text = json.dumps(_matrix_to_json(g.matrix), indent=2)
        matrix = matrices[key] = text.replace("\n", "\n      ")
    return _JSON_GATE_HEAD[g.kind] + qubits + _JSON_MATRIX_HEAD + matrix + "\n    }"


def _fits_meta_line(value: str) -> bool:
    """Whether the text meta line can carry the string: it splits on
    whitespace and at '=', and reads a lone '-' as null."""
    return value != "-" and "=" not in value and not any(ch.isspace() for ch in value)


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _meta_from_json(data: object) -> CircuitMeta:
    """The meta object, with the field types the text format can write
    back: ``n`` and ``c`` integers, ``scheme`` and ``basis`` strings
    that the text meta line can hold, any of them null or absent."""
    if data is None:
        return CircuitMeta()
    if not isinstance(data, dict):
        raise CircuitFileError(f"meta must be an object, got {data!r}")
    for key in ("scheme", "n", "c", "basis"):
        v = data.get(key)
        if v is None:
            continue
        ok = _is_int(v) if key in ("n", "c") else isinstance(v, str) and _fits_meta_line(v)
        if not ok:
            raise CircuitFileError(f"bad meta field {key}={v!r}")
    return CircuitMeta(
        scheme=data.get("scheme"),
        n=data.get("n"),
        c=data.get("c"),
        basis=data.get("basis"),
    )


def loads_json(text: str) -> Circuit:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CircuitFileError(f"bad json: {exc}", exc.lineno) from None
    except ValueError as exc:
        # an integer past the interpreter's digit limit
        raise CircuitFileError(f"bad json: {exc}") from None
    except RecursionError:
        raise CircuitFileError("bad json: nested too deeply") from None
    if not isinstance(doc, dict) or doc.get("format") != "mct-circuit":
        raise CircuitFileError("not a circuit document (format != mct-circuit)")
    if doc.get("version") != 1:
        raise CircuitFileError(f"unsupported version {doc.get('version')!r}")
    try:
        width = doc["width"]
        letters = str(doc["roles"])
        raw_gates = doc["gates"]
    except KeyError as exc:
        raise CircuitFileError(f"missing field: {exc}") from None
    if not _is_int(width):
        raise CircuitFileError(f"bad width {width!r}")
    if len(letters) != width:
        raise CircuitFileError(
            f"roles string has {len(letters)} letters, width is {width}"
        )
    try:
        roles = [ROLE_BY_LETTER[ch] for ch in letters]
    except KeyError as exc:
        raise CircuitFileError(f"unknown role letter {exc.args[0]!r}") from None

    if not isinstance(raw_gates, list):
        raise CircuitFileError(f"gates must be a list, got {raw_gates!r}")
    meta = _meta_from_json(doc.get("meta"))

    kinds = {k.value: k for k in GateKind}
    gates: list[Gate] = []
    for pos, entry in enumerate(raw_gates):
        try:
            kind = kinds[entry["kind"]]
            qubits = tuple(entry["qubits"])
        except (KeyError, TypeError):
            raise CircuitFileError(f"bad gate entry {pos}: {entry!r}") from None
        for q in qubits:
            if not _is_int(q):
                raise CircuitFileError(
                    f"bad gate entry {pos}: qubit index {q!r} is not an integer"
                )
            if not 0 <= q < width:
                raise CircuitFileError(
                    f"bad gate entry {pos}: qubit index {q} out of range"
                )
        matrix = None
        if "matrix" in entry:
            matrix = _matrix_from_json(entry["matrix"])
        try:
            gates.append(Gate(kind, qubits, matrix))
        except ValueError as exc:
            raise CircuitFileError(f"bad gate entry {pos}: {exc}") from None

    circ = new_circuit(roles, meta)
    return Circuit(circ.qubits, tuple(gates), meta)


# ---------------------------------------------------------------------------
# file-level API

def dumps(circuit: Circuit, fmt: str = "text") -> str:
    if fmt == "text":
        return dumps_text(circuit)
    if fmt == "json":
        return dumps_json(circuit)
    raise ValueError(f"unknown format {fmt!r}")


def loads(text: str) -> Circuit:
    """Parse either format, deciding by the first non-space character."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return loads_json(text)
    return loads_text(text)


def format_for_path(path: Union[str, Path]) -> str:
    return "json" if Path(path).suffix.lower() == ".json" else "text"


def save(circuit: Circuit, path: Union[str, Path], fmt: Optional[str] = None) -> None:
    fmt = fmt or format_for_path(path)
    Path(path).write_text(dumps(circuit, fmt))


def load(path: Union[str, Path]) -> Circuit:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CircuitFileError(f"cannot read {path}: {exc.strerror}") from None
    return loads(text)
