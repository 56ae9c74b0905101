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

Both readers and both writers apply one set of header and gate rules,
so a file either reader accepts converts to the other format and back.
Both writers are deterministic: the same circuit always produces the
same bytes.  Floats are serialized with repr, which round-trips
exactly.  Integers in a text file are written one way only: 0, or a
digit 1-9 followed by digits, all ASCII.  Files are read and written as
UTF-8.
"""

from __future__ import annotations

import json
import math
import struct
from functools import partial
from pathlib import Path
from typing import Any, Callable, Optional, Union

from .ir import (
    Circuit,
    CircuitMeta,
    Gate,
    GateKind,
    Matrix2,
    QubitRole,
    ROLE_BY_LETTER,
    new_circuit,
)

TEXT_HEADER = "mctqasm v1"

# kinds with a text mnemonic; mcx and cu must go through JSON
_TEXT_KINDS = set(GateKind) - {GateKind.MCX, GateKind.CU}
# mnemonic -> kind for the reader; u(...) lines are told apart by shape
_KIND_BY_MNEMONIC = {k.value: k for k in _TEXT_KINDS if k is not GateKind.LOCAL}
_KIND_BY_NAME = {k.value: k for k in GateKind}
_META_KEYS = ("scheme", "n", "c", "basis")


class CircuitFileError(ValueError):
    """Problem reading or writing a circuit file.  ``line`` is the
    1-based source line when the problem is tied to one."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


# ---------------------------------------------------------------------------
# the rules of a circuit file, for both formats; ``line`` is the text
# line, and the json reader names the gate entry around the message

def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _decimal(token: str) -> Optional[int]:
    """The integer a text token spells the one way the writers write
    it, with ``str``: 0, or an ASCII digit 1-9 followed by ASCII
    digits.  None for any other spelling, such as '03', '+3', '3_0' or
    a non-ASCII digit, that ``int`` would read."""
    try:
        value = int(token)
    except ValueError:
        return None
    return value if value >= 0 and str(value) == token else None


def _check_width(width: object, line: Optional[int] = None) -> int:
    if isinstance(width, bool) or not isinstance(width, int) or width < 1:
        raise CircuitFileError(f"bad width {width!r}", line)
    return width


def _roles(letters: str, width: int, line: Optional[int] = None) -> list[QubitRole]:
    if len(letters) != width:
        raise CircuitFileError(
            f"roles string has {len(letters)} letters, width is {width}", line
        )
    try:
        return [ROLE_BY_LETTER[ch] for ch in letters]
    except KeyError as exc:
        raise CircuitFileError(f"unknown role letter {exc.args[0]!r}", line) from None


def _meta(fields: dict, line: Optional[int] = None) -> CircuitMeta:
    """The meta fields: ``n`` and ``c`` integers from 0; ``scheme`` and
    ``basis`` strings the text meta line can hold, which splits on
    whitespace and at '=' and reads a lone '-' as absent; any of them
    None or absent, and no other key."""
    for key, v in fields.items():
        if key not in _META_KEYS:
            raise CircuitFileError(f"bad meta field {key}={v!r}", line)
    for key in _META_KEYS:
        v = fields.get(key)
        if v is None:
            continue
        if key in ("n", "c"):
            ok = _is_int(v) and v >= 0
        else:
            ok = isinstance(v, str) and v != "-" and "=" not in v and not any(
                map(str.isspace, v)
            )
        if not ok:
            raise CircuitFileError(f"bad meta field {key}={v!r}", line)
    return CircuitMeta(*map(fields.get, _META_KEYS))


def _roles_string(circuit: Circuit) -> str:
    """The roles string of a circuit whose header passes the reader's
    checks, so that no writer emits a file the readers refuse."""
    letters = "".join(q.role.value for q in circuit.qubits)
    _roles(letters, _check_width(circuit.width))
    _meta(vars(circuit.meta))
    return letters


def _index(q: int, width: int, line: Optional[int] = None) -> int:
    if not 0 <= q < width:
        raise CircuitFileError(f"qubit index {q} out of range for width {width}", line)
    return q


def _gate(kind: GateKind, qubits: tuple[int, ...], matrix: Optional[Matrix2],
          line: Optional[int] = None) -> Gate:
    try:
        return Gate(kind, qubits, matrix)
    except ValueError as exc:
        raise CircuitFileError(str(exc), line) from None


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
    lines = [f"{TEXT_HEADER} width {circuit.width}", "roles " + _roles_string(circuit)]
    fields = vars(circuit.meta)
    lines.append("meta " + " ".join(
        f"{key}={'-' if fields[key] is None else fields[key]}" for key in _META_KEYS
    ))
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
    fields: dict[str, Union[str, int, None]] = {}
    for tok in tokens:
        if "=" not in tok:
            raise CircuitFileError(f"bad meta field {tok!r}", line)
        key, _, val = tok.partition("=")
        if key in fields:
            raise CircuitFileError(f"repeated meta field {key!r}", line)
        fields[key] = None if val == "-" else val
    for key in ("n", "c"):
        v = fields.get(key)
        if v is not None:
            fields[key] = _decimal(v)
            if fields[key] is None:
                raise CircuitFileError(f"bad meta integer {key}={v!r}", line)
    return _meta(fields, line)


def _parse_indices(
    tokens: list[str], width: int, line: int, indices: dict[str, int]
) -> tuple[int, ...]:
    """The qubit indices; ``indices`` memoises each token already
    found to be a good index."""
    out = []
    for tok in tokens:
        idx = indices.get(tok)
        if idx is None:
            idx = _decimal(tok)
            if idx is None:
                raise CircuitFileError(f"bad qubit index {tok!r}", line)
            indices[tok] = _index(idx, width, line)
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
    width = _decimal(tokens[3])
    if width is None:
        raise CircuitFileError(f"bad width {tokens[3]!r}", lineno)
    _check_width(width, lineno)

    if len(numbered) < 2 or not numbered[1][1].startswith("roles "):
        raise CircuitFileError("missing roles line", lineno)
    lineno, roles_line = numbered[1]
    roles = _roles(roles_line.split(maxsplit=1)[1].strip(), width, lineno)

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
    indices: dict[str, int] = {}  # and each distinct qubit index
    gates: list[Gate] = []
    for lineno, line in body:
        gate = parsed.get(line)
        if gate is None:
            gate = parsed[line] = _parse_gate(line, width, lineno, matrices, indices)
        gates.append(gate)

    return Circuit(new_circuit(roles).qubits, tuple(gates), meta)


def _parse_gate(
    line: str, width: int, lineno: int, matrices: dict[str, Matrix2],
    indices: dict[str, int],
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
        idx = _parse_indices(tokens[1:], width, lineno, indices)
        if len(idx) != 1:
            raise CircuitFileError("u gate takes exactly one qubit", lineno)
    else:
        kind = _KIND_BY_MNEMONIC.get(mnemonic)
        if kind is None:
            raise CircuitFileError(f"unknown mnemonic {mnemonic!r}", lineno)
        idx = _parse_indices(tokens[1:], width, lineno, indices)
    return _gate(kind, idx, matrix, lineno)


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
        "roles": _roles_string(circuit),
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
        floats = [[[float(z.real), float(z.imag)] for z in row] for row in g.matrix]
        text = json.dumps(floats, indent=2)
        matrix = matrices[key] = text.replace("\n", "\n      ")
    return _JSON_GATE_HEAD[g.kind] + qubits + _JSON_MATRIX_HEAD + matrix + "\n    }"


def _gate_from_json(entry: Any, width: int) -> Gate:
    try:
        kind = _KIND_BY_NAME[entry["kind"]]
        qubits = tuple(entry["qubits"])
    except (KeyError, TypeError):
        raise CircuitFileError(repr(entry)) from None
    for q in qubits:
        if not _is_int(q):
            raise CircuitFileError(f"qubit index {q!r} is not an integer")
        _index(q, width)
    matrix = _matrix_from_json(entry["matrix"]) if "matrix" in entry else None
    return _gate(kind, qubits, matrix)


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
    roles = _roles(letters, _check_width(width))
    if not isinstance(raw_gates, list):
        raise CircuitFileError(f"gates must be a list, got {raw_gates!r}")
    raw_meta = doc.get("meta")
    if raw_meta is not None and not isinstance(raw_meta, dict):
        raise CircuitFileError(f"meta must be an object, got {raw_meta!r}")
    meta = _meta(raw_meta or {})

    gates: list[Gate] = []
    for pos, entry in enumerate(raw_gates):
        try:
            gates.append(_gate_from_json(entry, width))
        except CircuitFileError as exc:
            raise CircuitFileError(f"bad gate entry {pos}: {exc}") from None
    return Circuit(new_circuit(roles).qubits, tuple(gates), meta)


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
    Path(path).write_text(dumps(circuit, fmt), encoding="utf-8")


def load(path: Union[str, Path]) -> Circuit:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CircuitFileError(f"cannot read {path}: {exc.strerror}") from None
    return loads(text)
