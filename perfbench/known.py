"""Known answers for benchmark jobs, worked out without mctsynth.

Everything here is independent of the package under test: a parser and
writer for both circuit file formats, a bit-sliced evaluator for
reversible (X / CNOT / Toffoli) circuits, a small sparse simulator for
lowered circuits, the two mutant generators, and the checks that
compare a CLI job's exit code, printed verdict, witness and written
file against what the job must produce.

A circuit is a ``Circ``: width, role letters, meta fields, and a list
of gates ``(kind, qubits, matrix)`` where ``kind`` is the file
mnemonic, ``qubits`` lists controls first and the acted-on qubit last,
and ``matrix`` is a row-major 4-tuple of complex numbers or None.
"""

from __future__ import annotations

import cmath
import json
import math
import random
import re
from dataclasses import dataclass, field
from typing import Optional

Matrix = tuple[complex, complex, complex, complex]
Gate = tuple[str, tuple[int, ...], Optional[Matrix]]

R2 = 1 / math.sqrt(2)
MAT_X: Matrix = (0j, 1 + 0j, 1 + 0j, 0j)
MAT_V: Matrix = ((1 + 1j) / 2, (1 - 1j) / 2, (1 - 1j) / 2, (1 + 1j) / 2)
MAT_VDG: Matrix = ((1 - 1j) / 2, (1 + 1j) / 2, (1 + 1j) / 2, (1 - 1j) / 2)
UNITARIES: dict[str, Matrix] = {
    "h": (R2 + 0j, R2 + 0j, R2 + 0j, -R2 + 0j),
    "t": (1 + 0j, 0j, 0j, cmath.exp(1j * math.pi / 4)),
    "v": MAT_V,
}

# gate kinds each basis may contain, as the README documents them
ALLOWED = {
    "toffoli": {"ccx", "cx", "x", "u", "cu"},
    "cnot": {"cx", "u"},
    "cv": {"cx", "cv", "cvdg", "u"},
}
REVERSIBLE = {"x", "cx", "ccx", "mcx"}
ARITY = {"x": 1, "u": 1, "cx": 2, "cv": 2, "cvdg": 2, "cu": 2, "ccx": 3}
TOL = 1e-9


class AnswerError(Exception):
    """A job's output differs from its known answer."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise AnswerError(message)


@dataclass
class Circ:
    width: int
    roles: str
    meta: dict
    gates: list[Gate] = field(default_factory=list)

    @property
    def controls(self) -> list[int]:
        return [q for q, r in enumerate(self.roles) if r == "c"]

    @property
    def target(self) -> int:
        targets = [q for q, r in enumerate(self.roles) if r == "t"]
        require(len(targets) == 1, f"expected one target, found {len(targets)}")
        return targets[0]


# ---------------------------------------------------------------------------
# file formats

def _meta_value(token: str):
    if token == "-":
        return None
    return int(token) if token.lstrip("-").isdigit() else token


def parse_text(text: str) -> Circ:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    head = lines[0].split()
    require(head[:3] == ["mctqasm", "v1", "width"] and len(head) == 4, "bad header")
    require(lines[1].startswith("roles "), "missing roles line")
    circ = Circ(int(head[3]), lines[1].split()[1], {})
    body = lines[2:]
    if body and body[0].startswith("meta "):
        for tok in body[0].split()[1:]:
            key, _, val = tok.partition("=")
            circ.meta[key] = _meta_value(val)
        body = body[1:]
    for ln in body:
        mnemonic, *idx = ln.split()
        qubits = tuple(int(q) for q in idx)
        matrix = None
        if mnemonic.startswith("u("):
            matrix = tuple(complex(z) for z in mnemonic[2:-1].split(","))
            require(len(matrix) == 4, f"bad matrix in {ln!r}")
            mnemonic = "u"
        require(ARITY.get(mnemonic) == len(qubits), f"bad gate line {ln!r}")
        circ.gates.append((mnemonic, qubits, matrix))
    require(len(circ.roles) == circ.width, "roles do not match width")
    return circ


def parse_json(text: str) -> Circ:
    doc = json.loads(text)
    require(doc.get("format") == "mct-circuit" and doc.get("version") == 1,
            "not a circuit document")
    circ = Circ(doc["width"], doc["roles"], dict(doc.get("meta") or {}))
    for g in doc["gates"]:
        matrix = None
        if "matrix" in g:
            matrix = tuple(complex(re_, im) for row in g["matrix"] for re_, im in row)
        circ.gates.append((g["kind"], tuple(g["qubits"]), matrix))
    require(len(circ.roles) == circ.width, "roles do not match width")
    return circ


def parse(text: str) -> Circ:
    return parse_json(text) if text.lstrip().startswith("{") else parse_text(text)


def _fmt_complex(z: complex) -> str:
    sign = "-" if z.imag < 0 else "+"
    return f"{z.real!r}{sign}{abs(z.imag)!r}j"


def write_text(circ: Circ) -> str:
    def opt(key):
        v = circ.meta.get(key)
        return "-" if v is None else str(v)

    lines = [f"mctqasm v1 width {circ.width}", f"roles {circ.roles}",
             "meta " + " ".join(f"{k}={opt(k)}" for k in ("scheme", "n", "c", "basis"))]
    for kind, qubits, matrix in circ.gates:
        name = kind if matrix is None else "u(" + ",".join(map(_fmt_complex, matrix)) + ")"
        lines.append(" ".join([name, *map(str, qubits)]))
    return "\n".join(lines) + "\n"


def write_json(circ: Circ) -> str:
    gates = []
    for kind, qubits, matrix in circ.gates:
        entry: dict = {"kind": kind, "qubits": list(qubits)}
        if matrix is not None:
            entry["matrix"] = [[[z.real, z.imag] for z in matrix[r:r + 2]] for r in (0, 2)]
        gates.append(entry)
    doc = {"format": "mct-circuit", "version": 1, "width": circ.width,
           "roles": circ.roles, "meta": circ.meta, "gates": gates}
    return json.dumps(doc, indent=1) + "\n"


# ---------------------------------------------------------------------------
# mutants

def late_fail_mutant(circ: Circ) -> Circ:
    """Drop the one gate that writes the target.  What is left acts as
    the identity on the target, so the circuit is wrong exactly on the
    inputs whose controls are all 1."""
    t = circ.target
    hits = [i for i, g in enumerate(circ.gates) if g[1][-1] == t]
    require(len(hits) == 1, f"{len(hits)} gates target the target qubit")
    gates = circ.gates[:hits[0]] + circ.gates[hits[0] + 1:]
    return Circ(circ.width, circ.roles, dict(circ.meta), gates)


def early_fail_mutant(circ: Circ) -> Circ:
    """Append an X on the target: wrong on every input."""
    return Circ(circ.width, circ.roles, dict(circ.meta),
                circ.gates + [("x", (circ.target,), None)])


# ---------------------------------------------------------------------------
# bit-sliced evaluation of reversible circuits

def _lane_pattern(bit: int, lanes_log2: int) -> int:
    """Bit ``bit`` of the lane index, across all 2**lanes_log2 lanes."""
    half = 1 << bit
    period = half << 1
    lanes = 1 << lanes_log2
    repunit = ((1 << lanes) - 1) // ((1 << period) - 1)
    return (((1 << half) - 1) << half) * repunit


def failing_inputs(circ: Circ, patterns: list[int], ones: int) -> int:
    """Lane mask of the inputs on which a reversible circuit differs
    from C^nX.  ``patterns`` hold one lane pattern per computational
    qubit (controls in index order, then the target); ancillas start
    at 0 and must end at 0."""
    comp = circ.controls + [circ.target]
    wires = [0] * circ.width
    for q, p in zip(comp, patterns):
        wires[q] = p
    for kind, qs, _ in circ.gates:
        require(kind in REVERSIBLE, f"{kind} is not a reversible gate")
        acc = ones
        for c in qs[:-1]:
            acc &= wires[c]
        wires[qs[-1]] ^= acc
    fire = ones
    for p in patterns[:-1]:
        fire &= p
    want = dict(zip(comp, patterns))
    want[circ.target] ^= fire
    bad = 0
    for q in range(circ.width):
        bad |= wires[q] ^ want.get(q, 0)
    return bad


def exhaustive_failures(circ: Circ) -> int:
    """Failing-input mask over all 2**(n+1) inputs; lane m is the input
    whose bits, controls first and target last, spell m big-endian."""
    k = len(circ.controls) + 1
    patterns = [_lane_pattern(k - 1 - i, k) for i in range(k)]
    return failing_inputs(circ, patterns, (1 << (1 << k)) - 1)


def all_controls_mask(n: int) -> int:
    """Lane mask of the two inputs whose n controls are all 1."""
    return 0b11 << ((1 << (n + 1)) - 2)


def spot_failures(circ: Circ, rng: random.Random, lanes: int = 64) -> int:
    """Failing-input mask over ``lanes`` random inputs; lanes 0 and 1
    have every control at 1 and the target at 0 and 1."""
    ones = (1 << lanes) - 1
    patterns = [rng.getrandbits(lanes) | 0b11 for _ in circ.controls]
    patterns.append((rng.getrandbits(lanes) & ~0b11) | 0b10)
    return failing_inputs(circ, patterns, ones)


# ---------------------------------------------------------------------------
# sparse simulation of lowered circuits

_FIXED = {"x": MAT_X, "cx": MAT_X, "ccx": MAT_X, "mcx": MAT_X, "cv": MAT_V, "cvdg": MAT_VDG}


def simulate(circ: Circ, ones_at: list[int]) -> dict[int, complex]:
    """Output of the circuit on the basis input with qubits ``ones_at``
    set, as {basis index: amplitude} with qubit q at bit q."""
    state = {sum(1 << q for q in ones_at): 1 + 0j}
    for kind, qs, matrix in circ.gates:
        tbit = 1 << qs[-1]
        cmask = sum(1 << c for c in qs[:-1])
        if kind in REVERSIBLE:
            state = {(k ^ tbit if k & cmask == cmask else k): a for k, a in state.items()}
            continue
        m00, m01, m10, m11 = _FIXED.get(kind) or matrix
        new: dict[int, complex] = {}
        for k, a in state.items():
            if k & cmask != cmask:
                new[k] = new.get(k, 0j) + a
                continue
            z0, z1 = (m01, m11) if k & tbit else (m00, m10)
            for key, z in ((k & ~tbit, z0), (k | tbit, z1)):
                if z != 0:
                    new[key] = new.get(key, 0j) + a * z
        state = {k: a for k, a in new.items() if abs(a) > 1e-13}
    return state


def differs_from_oracle(circ: Circ, bits: tuple[int, ...], payload: Matrix = MAT_X) -> bool:
    """Whether the circuit's output on one computational input (controls
    then target, ancillas at 0) differs from C^nU with the given U."""
    comp = circ.controls + [circ.target]
    got = simulate(circ, [q for q, b in zip(comp, bits) if b])
    base = sum(1 << q for q, b in zip(comp[:-1], bits[:-1]) if b)
    tbit = 1 << circ.target
    if all(bits[:-1]):
        col = bits[-1]
        want = {base: payload[col], base | tbit: payload[2 + col]}
    else:
        want = {base | (tbit if bits[-1] else 0): 1 + 0j}
    keys = set(got) | set(want)
    return any(abs(got.get(k, 0j) - want.get(k, 0j)) > TOL for k in keys)


def spot_check(circ: Circ, rng: random.Random, inputs: int, payload: Matrix = MAT_X) -> None:
    """Simulate the all-controls-1 input and ``inputs - 1`` random ones;
    each must match C^nU exactly."""
    n = len(circ.controls)
    for i in range(inputs):
        bits = tuple([1] * n if i == 0 else [rng.getrandbits(1) for _ in range(n)])
        bits += (rng.getrandbits(1),)
        require(not differs_from_oracle(circ, bits, payload),
                f"output on input {bits} differs from the oracle")


# ---------------------------------------------------------------------------
# CLI output

_WITNESS = re.compile(r"^witness input \|([01]+)>")
_WROTE = re.compile(r"^wrote\s+(\S+) \((\d+) gates, (text|json)\)$")


def parse_verdict(stdout: str) -> tuple[str, Optional[tuple[int, ...]]]:
    lines = stdout.splitlines()
    require(bool(lines) and lines[0].startswith("verdict "), "no verdict line")
    witness = None
    for ln in lines:
        m = _WITNESS.match(ln)
        if m:
            witness = tuple(int(b) for b in m.group(1))
    return lines[0].split()[1], witness


def parse_wrote(stdout: str) -> tuple[str, int, str]:
    for ln in stdout.splitlines():
        m = _WROTE.match(ln)
        if m:
            return m.group(1), int(m.group(2)), m.group(3)
    raise AnswerError("no 'wrote' line")


def ladder_ops(n: int, basis: str) -> int:
    return {"toffoli": 2 * n - 3, "cnot": 14 * n - 13, "cv": 8 * n - 11}[basis]


def check_file(circ: Circ, n: int, scheme: str, basis: str, gates: int) -> None:
    """Shape of a synthesized file: roles, meta, basis, gate count."""
    require(len(circ.controls) == n and circ.roles.count("t") == 1,
            "wrong control or target count")
    require(circ.meta.get("scheme") == scheme and circ.meta.get("n") == n
            and circ.meta.get("basis") == basis, f"wrong meta {circ.meta}")
    require(len(circ.gates) == gates, f"file has {len(circ.gates)} gates, CLI said {gates}")
    bad = {g[0] for g in circ.gates} - ALLOWED[basis]
    require(not bad, f"kinds {sorted(bad)} not allowed in basis {basis}")
    if scheme == "ladder":
        require(gates == ladder_ops(n, basis),
                f"ladder n={n} {basis}: {gates} gates, want {ladder_ops(n, basis)}")


def check_table(stdout: str, csv: bool) -> None:
    """`mct table --max 64`: one row per n in 3..64 with the ancilla
    count of the best cycle split and a consistent baseline delta."""
    rows = stdout.strip().splitlines()
    body = [r.split(",") if csv else r.split() for r in rows[1:]]
    require([int(r[0]) for r in body] == list(range(3, 65)), "rows are not n = 3..64")
    for r in body:
        n, ancilla, _, baseline, _, form, delta = map(int, r)
        s = max(math.isqrt(n - 1), 1)
        require(ancilla == -(-(n - 1) // s) + s - 1, f"n={n}: ancilla {ancilla}")
        require(delta == baseline - form, f"n={n}: delta {delta}")
