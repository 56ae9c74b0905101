"""Golden digests of every builder's output, of the cost reports, and
of lowered files at large n.

``tests/data/build_digests.json`` holds sha256 digests of the text and
JSON serializations of the built circuits, and of the cost reports, on
a fixed grid (the JSON format alone for C^nU, which the text format
cannot hold), and of each scheme's lowered cv and cnot files at the
synth-large benchmark's centres.  A refactor of the builders, the
pairing, the lowering or the reports must leave every digest
unchanged.  To record new digests after a deliberate
output change, run ``PYTHONPATH=src python tests/test_digests.py``.
"""

import hashlib
import json
from pathlib import Path

from mctsynth import costs
from mctsynth.cycle import build_cycle_cnx, build_two_cycle_cnx
from mctsynth.decomp import GateBasis, lower_circuit
from mctsynth.ir import NAMED_UNITARIES
from mctsynth.ladder import (
    build_cnu,
    build_cnx,
    build_workspace_c3x,
    build_workspace_toffoli,
)
from mctsynth.qasmio import dumps_json, dumps_text

GOLDEN = Path(__file__).parent / "data" / "build_digests.json"
REPORT_N = 20  # reports at the automatic cycle count up to here,
REPORT_EVERY_C_N = 12  # and at every cycle count up to here
LOWERED_N = (160, 352, 544)  # lowered files at these n, as mct synth writes them


def _digest(*texts):
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


def _files(*circuits, formats=(dumps_text, dumps_json)):
    return _digest(*(f(c) for c in circuits for f in formats))


def _reports(scheme, n=None, c=None):
    circuit = costs.build_scheme(scheme, n, c)
    texts = []
    for basis in GateBasis:
        report = costs.cost_report_for(circuit, lower_circuit(circuit, basis))
        texts += [costs.report_text(report), costs.report_json(report)]
    return _digest(*texts)


def compute_digests():
    """Digest of each build (every c of a cycle build in one), of each
    scheme's reports in all three bases, and of each scheme's lowered
    files at large n (a cycle at its automatic count), keyed by what
    was built."""
    out = {}
    for n in range(1, 41):
        out[f"build_cnx {n}"] = _files(build_cnx(n))
    for n in range(1, 13):
        for name, matrix in sorted(NAMED_UNITARIES.items()):
            # the text format has no controlled-unitary mnemonic
            out[f"build_cnu {n} {name}"] = _files(build_cnu(n, matrix),
                                                  formats=(dumps_json,))
    for n in range(2, 41):
        out[f"build_cycle_cnx {n}"] = _files(*(build_cycle_cnx(n, c) for c in range(1, n)))
    for n in range(3, 41):
        out[f"build_two_cycle_cnx {n}"] = _files(build_two_cycle_cnx(n))
    out["build_workspace_toffoli"] = _files(build_workspace_toffoli())
    out["build_workspace_c3x"] = _files(build_workspace_c3x())

    for n in range(1, REPORT_N + 1):
        out[f"report ladder {n}"] = _reports("ladder", n)
    for n in range(2, REPORT_EVERY_C_N + 1):
        for c in range(1, n):
            out[f"report cycle {n} {c}"] = _reports("cycle", n, c)
    for n in range(3, REPORT_N + 1):
        out[f"report cycle {n} auto"] = _reports("cycle", n)
        out[f"report two-cycle {n}"] = _reports("two-cycle", n)
    out["report workspace-ccx"] = _reports("workspace-ccx")
    out["report workspace-c3x"] = _reports("workspace-c3x")

    for scheme in ("ladder", "cycle", "two-cycle"):
        for n in LOWERED_N:
            circuit = costs.build_scheme(scheme, n)
            for basis in (GateBasis.CV_BASIS, GateBasis.CNOT_LOCAL):
                out[f"lowered {scheme} {n} {basis.value}"] = _files(lower_circuit(circuit, basis))
    return out


def test_builds_and_reports_match_golden_digests():
    want = json.loads(GOLDEN.read_text())
    got = compute_digests()
    assert sorted(got) == sorted(want)
    changed = [key for key in want if got[key] != want[key]]
    assert not changed, f"{len(changed)} outputs changed, first: {changed[:5]}"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute_digests(), indent=1, sort_keys=True) + "\n")
