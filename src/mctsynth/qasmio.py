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

Lowered and read circuits repeat most of their gates, and each
circuit's ``_gate_view`` lists its distinct gate objects once, with
each gate's position among them.  Lowering and both readers hand
over the table they build anyway, and any other circuit works the view
out by ``id`` on first use.  The writers format each distinct gate
once, from a template per gate kind, and the text of each matrix once
per matrix object in the call, then give each gate its text by
position in one C-level pass.  The JSON writer's bytes are
``json.dumps(doc, indent=2)`` plus a newline, but it fills templates
for the header and for each matrix too, with ``json.dumps`` of each
scalar and ``float.__repr__`` of each matrix number, which is what the
encoder writes: ``indent=2`` sends ``json.dumps`` to its pure-Python
encoder, which costs more than all the gates do.

The text reader tells the roles and meta lines by their first
whitespace token, whole, so ``metax ...`` is a gate line and
``roles<TAB>cct`` a roles line.  It parses each distinct line once,
and shares its ``Gate`` with every repeat; lines that differ only in
surrounding whitespace are parsed apart.  Each distinct mnemonic is
read once (a ``u(...)`` one with its four entries), and each distinct
index token is checked against the width once.  A line with as many
memoised index tokens as its kind takes, all distinct, under a
mnemonic read before, is made from them directly.  Any other line goes
through ``Gate``: the first line of each ``u(...)`` matrix, for its
unitarity check, and any line that breaks a rule, so each refusal names
the first rule broken and its line.  The JSON reader reads each gate
entry on its own.  Nothing is kept from one call to the next.

``save`` writes a file with ``os.write``, in binary mode, so no
platform translates line ends: every file is written with LF.
"""

from __future__ import annotations

import json
import math
import os
import struct
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Optional, Union

from .ir import (
    ARITY,
    Circuit,
    CircuitMeta,
    Gate,
    GateKind,
    LETTER_BY_ROLE,
    MATRIX_KINDS,
    Matrix2,
    QubitRole,
    ROLE_BY_LETTER,
    _prechecked_circuit,
    _prechecked_gates,
    is_int,
    matrix_bits,
)

TEXT_HEADER = "mctqasm v1"

# mnemonic -> (kind, matrix, arity) for the reader: mcx and cu have no
# mnemonic and must go through JSON, and a u(...) line's are read from
# its text, with arity None until its matrix has passed ``Gate``
_TEXT_HEADS: dict[str, tuple[GateKind, Optional[Matrix2], Optional[int]]] = {
    k.value: (k, None, ARITY[k]) for k in GateKind
    if k not in (GateKind.MCX, GateKind.CU, GateKind.LOCAL)
}
# and kind -> its line for the writer, with %s for each operand
_TEXT_LINE = {k: m + " %s" * a for m, (k, _, a) in _TEXT_HEADS.items()}
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
    return "".join(map(LETTER_BY_ROLE.__getitem__, circuit.roles))


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
    lines += _format_each_once(circuit, _gate_lines)
    lines.append("")  # the final newline, with no second copy of the text
    return "\n".join(lines)


def _format_each_once(
    circuit: Circuit, fmt: Callable[[list[Gate]], list[str]]
) -> list[str]:
    """The text of each gate of the circuit, from one call of fmt,
    which returns the text of each distinct gate object of the
    circuit's ``_gate_view``, in its order."""
    distinct, index = circuit._gate_view
    return list(map(fmt(distinct).__getitem__, index))


def _gate_lines(gates: list[Gate]) -> list[str]:
    """The text line of each gate: its kind's line filled in for a kind
    that has one, ``_gate_line`` for a u() or a kind with no
    mnemonic."""
    matrices: dict[int, str] = {}
    return [line % g.qubits if (line := _TEXT_LINE.get(g.kind)) else _gate_line(g, matrices)
            for g in gates]


def _gate_line(g: Gate, matrices: dict[int, str]) -> str:
    """The line of a u() gate, with the entries of its matrix from
    ``matrices``, which holds them by the id of the matrix object: the
    circuit keeps every matrix alive for the call, and one object has
    one set of bits."""
    if g.kind is not GateKind.LOCAL:
        raise CircuitFileError(
            f"gate kind {g.kind.value!r} has no text mnemonic; use the json format"
        )
    key = id(g.matrix)
    entries = matrices.get(key)
    if entries is None:
        entries = matrices[key] = ",".join(
            _fmt_complex(z) for row in g.matrix for z in row
        )
    return "u(%s) %s" % (entries, *g.qubits)


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
    """The qubit indices of a line with a token that ``indices``, the
    memo of tokens found to be good indices, does not hold: the new
    tokens are checked in line order, so the first bad one is named,
    and each good one is memoised."""
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

    # the roles and meta lines are told by their first token, whole
    if len(head) < 2 or head[1][1].split(maxsplit=1)[0] != "roles":
        raise CircuitFileError("missing roles line", lineno)
    lineno, roles_line = head[1]
    roles = _roles(roles_line[len("roles"):].strip(), width, lineno)

    meta = CircuitMeta()
    if len(head) == 3 and head[2][1].split(maxsplit=1)[0] == "meta":
        lineno, meta_line = head[2]
        meta = _parse_meta(meta_line.split()[1:], lineno)

    # The body's raw lines, each distinct one once, in order of first
    # appearance.  A gate line's Gate depends only on its text and the
    # width, so it is parsed and checked once, and its kind, qubits and
    # matrix go into three lists, at the position ``parsed`` keeps for
    # the line and every repeat; blank and comment lines keep None.  The
    # first bad line in this order is the first in the file, and its
    # number is looked up only to raise.
    body = lines[lineno:]
    parsed: dict[str, Optional[int]] = dict.fromkeys(body)
    kinds: list[GateKind] = []
    qubits_of: list[tuple[int, ...]] = []
    matrices: list[Optional[Matrix2]] = []
    # Each distinct mnemonic is read once (a u() with its matrix), and
    # each distinct index token.  The index memo starts with every index
    # below the width, as the writers spell it, unless the width is more
    # than the distinct lines could name (a gate has at most three
    # operands), so that a wide file of few lines builds no large table.
    heads = dict(_TEXT_HEADS)
    # fast path: synth-large jobs_per_s is 5.0% lower with an empty memo (CHANGES.md, shortcuts priced)
    indices: dict[str, int] = (
        dict(zip(map(str, range(width)), range(width))) if width <= 3 * len(parsed) else {}
    )
    get = indices.get
    for raw in parsed:
        # split drops the whitespace strip would, and a blank line reads
        # as a comment
        tokens = raw.split() or ("#",)
        mnemonic = tokens[0]
        if mnemonic[0] == "#":
            continue
        # A line with as many memoised index tokens as its kind takes,
        # all distinct, under a mnemonic read before (a u() whose matrix
        # passed Gate already) holds all that Gate checks, and is made
        # from the memo directly; any other line takes the general path.
        head = heads.get(mnemonic)
        qubits = None
        if head is not None:
            kind, matrix, arity = head
            count = len(tokens) - 1
            # fast path: synth-large jobs_per_s is 7.7-8.6% lower without it (CHANGES.md, lines read by operand count)
            if count != arity:
                pass  # a wrong count, or a u() matrix not through Gate yet
            elif count == 1:
                a = get(tokens[1])
                if a is not None:
                    qubits = (a,)
            elif count == 2:
                a = get(tokens[1])
                b = get(tokens[2])
                if a is not None and b is not None and a != b:
                    qubits = (a, b)
            else:
                a = get(tokens[1])
                b = get(tokens[2])
                c = get(tokens[3])
                if (a is not None and b is not None and c is not None
                        and a != b and a != c and b != c):
                    qubits = (a, b, c)
        if qubits is None:
            try:
                if head is None:
                    head = heads[mnemonic] = _parse_u(mnemonic)
                kind, matrix, arity = head
                tokens = tokens[1:]
                qubits = tuple(map(get, tokens))
                if None in qubits:
                    qubits = _parse_indices(tokens, width, indices)
                if matrix is not None and len(qubits) != 1:
                    raise CircuitFileError("u gate takes exactly one qubit")
                # Gate refuses a line that breaks a rule with the
                # message of the first one broken
                matrix = Gate(kind, qubits, matrix).matrix
                if arity is None:
                    heads[mnemonic] = (kind, matrix, 1)
            except ValueError as exc:
                # a CircuitFileError here has no line yet, and the message
                # of one that Gate raises is the gate's own
                raise CircuitFileError(str(exc), lineno + body.index(raw) + 1) from None
        parsed[raw] = len(kinds)
        kinds.append(kind)
        qubits_of.append(qubits)
        matrices.append(matrix)
    index = list(map(parsed.__getitem__, body))
    if len(kinds) < len(parsed):
        # blank and comment lines hold no gate
        index = [i for i in index if i is not None]
    # every operand came from ``indices``, which holds only indices
    # below the width, so the circuit is not range-checked again
    return _prechecked_circuit(roles, _prechecked_gates(kinds, qubits_of, matrices), index, meta)


def _parse_u(mnemonic: str) -> tuple[GateKind, Matrix2, None]:
    """The kind and matrix of a mnemonic that is not a known one, which
    must be u(...) with four complex entries, and None for the arity
    of a matrix that has not passed ``Gate`` yet."""
    if not (mnemonic.startswith("u(") and mnemonic.endswith(")")):
        raise CircuitFileError(f"unknown mnemonic {mnemonic!r}")
    entries = mnemonic[2:-1].split(",")
    if len(entries) != 4:
        raise CircuitFileError(f"u() takes 4 matrix entries, got {len(entries)}")
    zs = [_parse_complex(e) for e in entries]
    return GateKind.LOCAL, ((zs[0], zs[1]), (zs[2], zs[3])), None


# ---------------------------------------------------------------------------
# json writer / reader

# fast path: synth-large jobs_per_s is 84% lower without it (CHANGES.md, fast paths priced)
# json.dumps(doc, indent=2) of a circuit document as templates, made by
# json.dumps itself with "%s" where each value goes: the header, which
# ends in an empty gate list; one gate entry per kind, with a %s for
# each qubit and one for the matrix; and a matrix, indented to its place
# in an entry, with a %s for each of its eight floats.
_JSON_HEAD = json.dumps({
    "format": "mct-circuit",
    "version": 1,
    "width": "%s",
    "roles": "%s",
    "meta": {"scheme": "%s", "n": "%s", "c": "%s", "basis": "%s"},
    "gates": [],
}, indent=2).replace('"%s"', "%s")
_JSON_EMPTY_GATES = "[]\n}"
_JSON_MATRIX = json.dumps([[["%s"] * 2] * 2] * 2, indent=2).replace('"%s"', "%s").replace(
    "\n", "\n      "
)
_EIGHT_DOUBLES = struct.Struct("8d")


def _json_gate_template(kind: GateKind, arity: int) -> str:
    entry: dict[str, object] = {"kind": kind.value, "qubits": ["%s"] * arity}
    if kind in MATRIX_KINDS:
        entry["matrix"] = "%s"
    text = json.dumps({"gates": [entry]}, indent=2)
    return text[text.index("    {"): text.rindex("\n  ]")].replace('"%s"', "%s")


# the gate templates of the kinds of fixed arity, and of those of them
# without a matrix; an mcx's is made once per arity in a call
_JSON_GATE = {k: _json_gate_template(k, a) for k, a in ARITY.items() if a is not None}
_JSON_PLAIN = {k: t for k, t in _JSON_GATE.items() if k not in MATRIX_KINDS}


def dumps_json(circuit: Circuit) -> str:
    """The bytes of ``json.dumps(doc, indent=2) + "\\n"`` for the circuit
    document, filled into templates: the header with json.dumps of each
    scalar, each distinct gate object once, and each distinct matrix
    once, with float.__repr__ of each number, as json writes a finite
    float.  json.dumps itself, with indent=2, would run its pure-Python
    encoder over the header and every matrix."""
    m = circuit.meta
    head = _JSON_HEAD % tuple(map(json.dumps, (
        circuit.width, _roles_string(circuit), m.scheme, m.n, m.c, m.basis
    )))
    if not circuit.gates:
        return head + "\n"
    # one join writes the whole text: the header goes on the first gate,
    # and the end of the document on the last
    entries = _format_each_once(circuit, _json_gates)
    entries[0] = head[: -len(_JSON_EMPTY_GATES)] + "[\n" + entries[0]
    entries[-1] += "\n  ]\n}\n"
    return ",\n".join(entries)


def _json_gates(gates: list[Gate]) -> list[str]:
    """The entry of each gate: its kind's template filled in for a kind
    of fixed arity without a matrix, ``_json_gate`` for the others."""
    matrices: dict[int, str] = {}
    mcx: dict[int, str] = {}
    return [entry % g.qubits if (entry := _JSON_PLAIN.get(g.kind))
            else _json_gate(g, matrices, mcx) for g in gates]


def _json_gate(g: Gate, matrices: dict[int, str], mcx: dict[int, str]) -> str:
    """The entry of a gate with a matrix, whose text ``matrices`` holds
    by the id of the matrix object, as ``_gate_line``'s does, or of an
    mcx, whose template ``mcx`` holds by arity."""
    qubits = g.qubits
    if g.matrix is None:
        template = mcx.get(len(qubits))
        if template is None:
            template = mcx[len(qubits)] = _json_gate_template(g.kind, len(qubits))
        return template % qubits
    template = _JSON_GATE[g.kind]
    key = id(g.matrix)
    matrix = matrices.get(key)
    if matrix is None:
        # the floats a unitary holds are finite, so repr is what json writes
        matrix = matrices[key] = _JSON_MATRIX % tuple(
            map(float.__repr__, _EIGHT_DOUBLES.unpack(matrix_bits(g.matrix)))
        )
    return template % (*qubits, matrix)


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
        letters = doc["roles"]
        raw_gates = doc["gates"]
    except KeyError as exc:
        raise CircuitFileError(f"missing field: {exc}") from None
    width = _check_width(width)
    if not isinstance(letters, str):
        raise CircuitFileError(f"roles must be a string, got {letters!r}")
    roles = _roles(letters, width)
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
    # ``_gate_from_json`` refused every operand outside the width
    return _prechecked_circuit(roles, gates, list(range(len(gates))), meta)


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


# ``save`` writes with os.write, in binary mode where the platform has a
# text mode, so no line end is translated.
_BINARY = getattr(os, "O_BINARY", 0)


def format_for_path(path: Union[str, os.PathLike]) -> str:
    """The format a path names by its suffix: "json" or "text"."""
    return "json" if Path(path).suffix.lower() == ".json" else "text"


def save(circuit: Circuit, path: Union[str, os.PathLike], fmt: Optional[str] = None) -> str:
    """Write the circuit in ``fmt``, else in the format the path names,
    and return the format written.  The text is made and encoded before
    the file is opened, so a circuit the writer refuses creates no file,
    and the bytes are written as they are, with LF line ends on every
    platform."""
    fmt = fmt or format_for_path(path)
    data = memoryview(dumps(circuit, fmt).encode("utf-8"))
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | _BINARY, 0o666)
        try:
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
    except OSError as exc:
        raise CircuitFileError(f"cannot write {path}: {exc.strerror}") from None
    return fmt


def load(path: Union[str, os.PathLike]) -> Circuit:
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
