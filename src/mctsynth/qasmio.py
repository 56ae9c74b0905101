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

Lowered circuits repeat most of their gates, and ``lower_circuit``
shares one ``Gate`` object per distinct gate, so the writers format
each distinct gate object once.  The text reader parses each distinct
line once, and the JSON reader each distinct gate entry, and each
shares its ``Gate`` with every repeat; entries equal in Python but
spelled apart (a qubit true, 1 or 1.0, a matrix number -0.0 or 0.0)
are never shared.  Nothing is kept from one call to the next.
"""

from __future__ import annotations

import json
import math
import struct
from collections import Counter
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
    is_int,
    matrix_bits,
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

def decimal(token: str) -> Optional[int]:
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


def _roles(letters: str, width: int, line: Optional[int] = None) -> tuple[QubitRole, ...]:
    if len(letters) != width:
        raise CircuitFileError(
            f"roles string has {len(letters)} letters, width is {width}", line
        )
    try:
        return tuple(map(ROLE_BY_LETTER.__getitem__, letters))
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
            ok = is_int(v) and v >= 0
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
    _check_width(circuit.width)
    _meta(vars(circuit.meta))
    return "".join(r.value for r in circuit.roles)


def _index(q: int, width: int) -> int:
    if not 0 <= q < width:
        raise CircuitFileError(f"qubit index {q} out of range for width {width}")
    return q


def _gate(kind: GateKind, qubits: tuple[int, ...], matrix: Optional[Matrix2]) -> Gate:
    try:
        return Gate(kind, qubits, matrix)
    except ValueError as exc:
        raise CircuitFileError(str(exc)) from None


# ---------------------------------------------------------------------------
# complex / matrix helpers

def _fmt_complex(z: complex) -> str:
    re, im = float(z.real), float(z.imag)
    # copysign keeps the sign of a zero imaginary part, which JSON keeps too
    sign = "-" if math.copysign(1.0, im) < 0 else "+"
    return f"{re!r}{sign}{abs(im)!r}j"


def _parse_complex(token: str) -> complex:
    try:
        return complex(token)
    except ValueError:
        raise CircuitFileError(f"bad complex number {token!r}") from None


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
    key = matrix_bits(g.matrix)
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
            fields[key] = decimal(v)
            if fields[key] is None:
                raise CircuitFileError(f"bad meta integer {key}={v!r}", line)
    return _meta(fields, line)


def _parse_indices(tokens: list[str], width: int, indices: dict[str, int]) -> tuple[int, ...]:
    """The qubit indices; ``indices`` memoises each token already
    found to be a good index, so a line of known tokens costs one
    lookup each.  It starts empty for each file, rather than holding
    every index below the width, since most files use few of them."""
    idx = tuple(map(indices.get, tokens))
    if None not in idx:
        return idx
    # check the new tokens in line order, so the first bad one is named
    for tok in tokens:
        if tok not in indices:
            q = decimal(tok)
            if q is None:
                raise CircuitFileError(f"bad qubit index {tok!r}")
            indices[tok] = _index(q, width)
    return tuple(map(indices.__getitem__, tokens))


def loads_text(text: str) -> Circuit:
    lines = text.splitlines()
    # the header, roles and meta lines: the first three that are neither
    # blank nor comments, with their 1-based line numbers
    head: list[tuple[int, str]] = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if line and line[0] != "#":
            head.append((lineno, line))
            if len(head) == 3:
                break
    if not head:
        raise CircuitFileError("empty circuit file")

    lineno, header = head[0]
    tokens = header.split()
    if tokens[:2] != TEXT_HEADER.split() or len(tokens) != 4 or tokens[2] != "width":
        raise CircuitFileError(f"bad header {header!r}", lineno)
    width = decimal(tokens[3])
    if width is None:
        raise CircuitFileError(f"bad width {tokens[3]!r}", lineno)
    _check_width(width, lineno)

    if len(head) < 2 or not head[1][1].startswith("roles "):
        raise CircuitFileError("missing roles line", lineno)
    lineno, roles_line = head[1]
    roles = _roles(roles_line.split(maxsplit=1)[1].strip(), width, lineno)

    meta = CircuitMeta()
    if len(head) == 3 and head[2][1].startswith("meta"):
        lineno, meta_line = head[2]
        meta = _parse_meta(meta_line.split()[1:], lineno)

    # The body's raw lines, each distinct one once, in order of first
    # appearance.  A gate line's Gate depends only on its stripped text
    # and the width, so it is parsed, checked and built once and shared
    # by every repeat; blank and comment lines map to None.  The first
    # bad line in this order is the first in the file, and its number
    # is looked up only to raise.
    body = lines[lineno:]
    parsed: dict[str, Optional[Gate]] = dict.fromkeys(body)
    by_text: dict[str, Gate] = {}
    matrices: dict[str, Matrix2] = {}  # each distinct u() is parsed once
    indices: dict[str, int] = {}  # and each distinct qubit index
    for raw in parsed:
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        gate = by_text.get(line)
        if gate is None:
            try:
                gate = by_text[line] = _parse_gate(line, width, matrices, indices)
            except CircuitFileError as exc:
                raise CircuitFileError(str(exc), lineno + body.index(raw) + 1) from None
        parsed[raw] = gate
    gates = tuple(filter(None, map(parsed.__getitem__, body)))

    return Circuit(roles, gates, meta)


def _parse_gate(
    line: str, width: int, matrices: dict[str, Matrix2], indices: dict[str, int]
) -> Gate:
    tokens = line.split()
    mnemonic = tokens[0]
    kind = _KIND_BY_MNEMONIC.get(mnemonic)
    if kind is not None:
        return _gate(kind, _parse_indices(tokens[1:], width, indices), None)
    if not (mnemonic.startswith("u(") and mnemonic.endswith(")")):
        raise CircuitFileError(f"unknown mnemonic {mnemonic!r}")
    matrix = matrices.get(mnemonic)
    if matrix is None:
        entries = mnemonic[2:-1].split(",")
        if len(entries) != 4:
            raise CircuitFileError(f"u() takes 4 matrix entries, got {len(entries)}")
        zs = [_parse_complex(e) for e in entries]
        matrix = matrices[mnemonic] = ((zs[0], zs[1]), (zs[2], zs[3]))
    idx = _parse_indices(tokens[1:], width, indices)
    if len(idx) != 1:
        raise CircuitFileError("u gate takes exactly one qubit")
    return _gate(GateKind.LOCAL, idx, matrix)


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
    key = matrix_bits(g.matrix)
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
        if not is_int(q):
            raise CircuitFileError(f"qubit index {q!r} is not an integer")
        _index(q, width)
    matrix = _matrix_from_json(entry["matrix"]) if "matrix" in entry else None
    return _gate(kind, qubits, matrix)


_EIGHT_DOUBLES = struct.Struct("8d")


def _entry_key(entry: Any) -> Optional[tuple]:
    """A key two gate entries share only if they are spelled alike in
    what ``_gate_from_json`` reads: a string kind, qubits that are all
    JSON integers (true and 1.0 equal 1 in Python, but are refused),
    and a matrix of eight JSON floats, by their bits, which tell -0.0
    from 0.0.  None for an entry of any other shape, which is then read
    on its own."""
    try:
        kind, qubits = entry["kind"], tuple(entry["qubits"])
        if type(kind) is not str or set(map(type, qubits)) != {int}:
            return None
        if "matrix" not in entry:
            return (kind, qubits)
        (a, b), (c, d) = entry["matrix"]
        numbers = (a[0], a[1], b[0], b[1], c[0], c[1], d[0], d[1])
    except (TypeError, KeyError, IndexError, ValueError):
        return None
    if set(map(type, numbers)) != {float}:
        return None
    return (kind, qubits, _EIGHT_DOUBLES.pack(*numbers))


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object, refusing a key given twice, which ``json`` would
    settle silently in favour of the last."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        key = next(k for k, count in Counter(k for k, _ in pairs).items() if count > 1)
        raise ValueError(f"duplicate key {key!r}")
    return obj


# One decoder for every call, as json.loads keeps one for its defaults:
# building one costs about a fifth of decoding a small file, and it
# keeps nothing from one document to the next.
_JSON_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def loads_json(text: str) -> Circuit:
    try:
        if text.startswith("\ufeff"):
            # json.loads refuses a byte-order mark before decoding
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        doc = _JSON_DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise CircuitFileError(f"bad json: {exc}", exc.lineno) from None
    except ValueError as exc:
        # a duplicate key, or an integer past the interpreter's digit
        # limit
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

    # Each distinct entry is checked and built once, and its Gate shared
    # by every repeat.  Only a built entry is stored, so the first bad
    # entry still fails at its own position.
    built: dict[tuple, Gate] = {}
    gates: list[Gate] = []
    for pos, entry in enumerate(raw_gates):
        key = _entry_key(entry)
        gate = built.get(key)
        if gate is None:
            try:
                gate = _gate_from_json(entry, width)
            except CircuitFileError as exc:
                raise CircuitFileError(f"bad gate entry {pos}: {exc}") from None
            if key is not None:
                built[key] = gate
        gates.append(gate)
    return Circuit(roles, tuple(gates), meta)


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
    text = dumps(circuit, fmt or format_for_path(path))
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    except OSError as exc:
        raise CircuitFileError(f"cannot write {path}: {exc.strerror}") from None


def load(path: Union[str, Path]) -> Circuit:
    """Read a circuit file of either format.  The bytes are read in one
    unbuffered call and decoded as ``Path.read_text(encoding="utf-8")``
    decodes them: CRLF and lone CR line ends become LF, and bytes that
    are not UTF-8 raise the same ``UnicodeDecodeError``."""
    try:
        with open(path, "rb", buffering=0) as f:
            text = f.read().decode("utf-8")
    except OSError as exc:
        raise CircuitFileError(f"cannot read {path}: {exc.strerror}") from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return loads(text)
