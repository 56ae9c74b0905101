#!/usr/bin/env bash
# End-to-end checks of the `mct` console script: cost notes, round-trip
# bytes, verdicts and witnesses, exit codes and exact error lines; and
# the benchmark's own tests and answers.  The scratch files go in the
# current directory.  MCT names the command to run, `mct` by default;
# from a checkout without an install:
#
#   MCT="python -m mctsynth.cli" PYTHONPATH=src bash tools/ci_checks.sh
#
# Exits non-zero at the first check that fails, as a CI step does.
set -e
mct() { command ${MCT:-mct} "$@"; }
root="$(cd "$(dirname "$0")/.." && pwd)"
# the [project.scripts] entry names a function that imports
grep -qx 'mct = "mctsynth.cli:main"' "$root/pyproject.toml"
python3 -c "from mctsynth.cli import main; import sys; sys.exit(0 if callable(main) else 1)"
# every `# fast path:` comment in the source names a workload of
# BENCHMARK.json, one of its end-to-end metrics, and the CHANGES.md
# entry that priced it, as "(CHANGES.md, <words of that entry>)"
python3 - "$root" <<'EOF'
import json, pathlib, re, sys
root = pathlib.Path(sys.argv[1])
bench = json.loads((root / "BENCHMARK.json").read_text())
workloads = {w["name"] for w in bench["workloads"]}
metrics = {m["name"] for m in bench["end_to_end"]}
changes = (root / "CHANGES.md").read_text(encoding="utf-8").lower()
bad = []
for path in sorted((root / "src").rglob("*.py")):
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if "# fast path:" not in line:
            continue
        words = set(re.findall(r"[\w.-]+", line))
        entry = re.search(r"\(CHANGES\.md, ([^)]+)\)", line)
        if not (words & workloads and words & metrics and entry
                and entry.group(1).lower() in changes):
            bad.append(f"{path.relative_to(root)}:{lineno}: {line.strip()}")
print("\n".join(bad) or "every fast path names its price")
sys.exit(1 if bad else 0)
EOF
# the benchmark's tests
python3 -m pytest "$root/perfbench" -q
# every benchmark answer right: run.py exits 0 even on wrong answers,
# so read its last JSON line
python3 "$root/perfbench/run.py" --workload all --seconds 1 | tail -n 1 > bench-summary.json
python3 -c "import json, sys; r = json.load(open('bench-summary.json')); print(r['correct'], r['failed']); sys.exit(0 if r['correct'] is True and r['failed'] == 0 else 1)"
# a traced synth-verify pass: every answer right, and no call of
# verify.apply, the statevector reference, which no check runs
python3 "$root/perfbench/run.py" --workload synth-verify --seconds 1 --trace 1 | tail -n 1 > trace-summary.json
python3 -c "import json, sys; r = json.load(open('trace-summary.json')); d = r['metrics']['verify.dense_calls']['value']; print(r['correct'], r['failed'], d); sys.exit(0 if r['correct'] is True and r['failed'] == 0 and d == 0 else 1)"
mct table --max 64 --format csv
# the workspace C^3X in cnot: paired members at 7 gates, and the
# 11-gate reading noted beside it
mct synth --scheme workspace-c3x --basis cnot > c3x.txt
grep -q "^ops .*built 71$" c3x.txt
grep -q "would give 79 ops" c3x.txt
# the ladder's note reads its pair count from the plan
mct synth --scheme ladder --n 4 --basis cnot | grep -q "would give 59 ops"
# width 24, the verifier's cap: verified before it is written
mct synth --scheme cycle --n 16 --basis cnot --out c16.mq > synth.txt
grep -q "^verify  exact" synth.txt
# text -> json -> text gives back the same bytes
mct convert --infile c16.mq --out c16.json
mct convert --infile c16.json --out c16b.mq
cmp c16.mq c16b.mq
# json -> text -> json through the role letters c16 does not
# hold: w in the workspace C^3X, y and p in cycle n=9 at c=2
mct synth --scheme workspace-c3x --out w3.json
mct convert --infile w3.json --out w3.mq
mct convert --infile w3.mq --out w3b.json
cmp w3.json w3b.json
mct synth --scheme cycle --n 9 --c 2 --basis cv --out y9.json
mct convert --infile y9.json --out y9.mq
mct convert --infile y9.mq --out y9b.json
cmp y9.json y9b.json
# cycle n=544 in cnot, mostly repeated gates, each distinct one
# built, written and read once; the round trip keeps the bytes
mct synth --scheme cycle --n 544 --basis cnot --no-verify --out c544.mq > synth.txt
grep -q "(14899 gates, text)" synth.txt
mct convert --infile c544.mq --out c544.json
mct convert --infile c544.json --out c544b.mq
cmp c544.mq c544b.mq
# one of its body lines rewritten to a duplicate operand is refused
# where it stands (exit 2), with the reader's one line on stderr
sed '500s/.*/cx 3 3/' c544.mq > c544-dup.mq
set +e
mct convert --infile c544-dup.mq --out c544-dup.json 2> c544-dup.txt
code=$?
set -e
test "$code" -eq 2
test "$(cat c544-dup.txt)" = "error: line 500: duplicate operand in cx(3, 3)"
test ! -e c544-dup.json
# the JSON writer fills templates; its bytes are the standard
# encoder's at indent=2, on this Python and numpy too
mct synth --scheme cycle --n 16 --basis cnot --out c16cnot.json
python -c "import json, sys; f = 'c16cnot.json'; t = open(f, encoding='utf-8').read(); sys.exit(0 if t == json.dumps(json.load(open(f)), indent=2) + '\n' else 1)"
# ladder n=544 in cv: both writers' cv and cvdg templates at
# scale, each distinct gate filled in once; the round trip keeps
# the bytes, and the JSON is the standard encoder's at indent=2
mct synth --scheme ladder --n 544 --basis cv --no-verify --out l544.mq > synth.txt
grep -q "(4341 gates, text)" synth.txt
mct convert --infile l544.mq --out l544.json
mct convert --infile l544.json --out l544b.mq
cmp l544.mq l544b.mq
python -c "import json, sys; f = 'l544.json'; t = open(f, encoding='utf-8').read(); sys.exit(0 if t == json.dumps(json.load(open(f)), indent=2) + '\n' else 1)"
# Toffoli level, 2**19 inputs: more than one block of the word engine
mct synth --scheme cycle --n 18 --basis toffoli --no-verify --out t18.mq
mct verify --circuit t18.mq --oracle cnx:18
# without its last gate the file must fail verification (exit 3)
sed '$d' t18.mq > t18-cut.mq
set +e
mct verify --circuit t18-cut.mq --oracle cnx:18
code=$?
set -e
test "$code" -eq 3
# Toffoli level, 2**10 inputs in one block of the bit-plane
# engine: a permutation oracle is read off the bits, and C^9H,
# which is not one, through the output arrays
mct synth --scheme cycle --n 9 --basis toffoli --no-verify --out t9.mq
mct verify --circuit t9.mq --oracle cnu:9:x
set +e
mct verify --circuit t9.mq --oracle cnu:9:h > t9.txt
code=$?
set -e
test "$code" -eq 3
grep -qx "max deviation 0.707107" t9.txt
grep -q "^witness input |1111111110> " t9.txt
# without the firing gate, the only one on the target (9), every
# ancilla is restored and the output is wrong where the table
# flips it: the miter's witness against cnx and cnu:x alike
grep -v ' 9$' t9.mq > t9-nofire.mq
for oracle in cnx:9 cnu:9:x; do
  set +e
  mct verify --circuit t9-nofire.mq --oracle $oracle > t9-nofire.txt
  code=$?
  set -e
  test "$code" -eq 3
  grep -qx "witness input |1111111110> (no amplitude on expected output (1, 1, 1, 1, 1, 1, 1, 1, 1, 1))" t9-nofire.txt
done
# a CRLF copy of a file verifies as the file does
sed 's/$/\r/' t9.mq > t9-crlf.mq
mct verify --circuit t9.mq --oracle cnx:9 > t9-lf.txt
mct verify --circuit t9-crlf.mq --oracle cnx:9 > t9-crlf.txt
cmp t9-lf.txt t9-crlf.txt
# the roles keyword ends at any whitespace: a copy with a tab after
# it verifies as the file does
sed 's/^roles /roles\t/' t9.mq > t9-tab.mq
grep -q "^roles$(printf '\t')" t9-tab.mq
mct verify --circuit t9-tab.mq --oracle cnx:9 > t9-tab.txt
cmp t9-lf.txt t9-tab.txt
# a lowered file in a fresh process: the sparse engine fuses
# its run shapes from a cold cache
mct synth --scheme cycle --n 9 --basis cv --no-verify --out c9cv.mq
mct verify --circuit c9cv.mq --oracle cnx:9
# its windows carry no phase, so it runs on bit planes against
# C^9H too, which is not C^nX: the outputs go through the
# phase fit, which finds the expected output missing
set +e
mct verify --circuit c9cv.mq --oracle cnu:9:h > c9cv-h.txt
code=$?
set -e
test "$code" -eq 3
grep -qx "max deviation 0.707107" c9cv-h.txt
grep -qx "witness input |1111111110> (no amplitude on expected output (1, 1, 1, 1, 1, 1, 1, 1, 1, 0))" c9cv-h.txt
sed '$d' c9cv.mq > c9cv-cut.mq
set +e
mct verify --circuit c9cv-cut.mq --oracle cnx:9
code=$?
set -e
test "$code" -eq 3
# synth and verify both read every input's sign off the bit
# planes, so no float dust in either basis
mct synth --scheme cycle --n 9 --basis cv --out c9cv-s.mq > c9.txt
grep -qx "verify  exact (max deviation 0)" c9.txt
mct synth --scheme cycle --n 9 --basis cnot --out c9cnot.mq > c9.txt
grep -qx "verify  exact (max deviation 0)" c9.txt
mct verify --circuit c9cnot.mq --oracle cnx:9 > c9.txt
grep -qx "max deviation 0" c9.txt
# width 24 in cnot: enumerated by synth and by verify over all
# 2**17 inputs on signed bit planes
mct synth --scheme cycle --n 16 --basis cnot --out c16cnot.mq > c16cnot.txt
grep -qx "verify  exact (max deviation 0)" c16cnot.txt
mct verify --circuit c16cnot.mq --oracle cnx:16 > c16cnot.txt
grep -qx "max deviation 0" c16cnot.txt
# an MCX among windows is an X-like lone step, so a hand-written
# C^3X with one in cnot runs on signed bit planes too
python - <<'EOF'
from mctsynth import Circuit, QubitRole, ToffoliRule, lower_toffoli, new_circuit, save
from mctsynth.ir import mcx
C, T, P = QubitRole.CONTROL, QubitRole.TARGET, QubitRole.PROCESS_ANCILLA
base = new_circuit([C, C, C, T, P])
c3x = mcx((0, 1, 2), 4)
gates = (c3x, *lower_toffoli(4, 0, 3, ToffoliRule.SIX_CNOT), c3x)
save(Circuit(base.roles, gates, base.meta), "mcx3.json")
EOF
mct verify --circuit mcx3.json --oracle cnx:3 > mcx3.txt
grep -qx "max deviation 0" mcx3.txt
# a C^8T build in cv carries phases that are not +-1, so it runs
# on sparse entries and its verdict comes from the phase fit
python -c "from mctsynth import GateBasis, NAMED_UNITARIES, build_cnu, lower_circuit, save; save(lower_circuit(build_cnu(8, NAMED_UNITARIES['t']), GateBasis.CV_BASIS), 'cnt.json')"
mct verify --circuit cnt.json --oracle cnu:8:t > cnt.txt
grep -qx "verdict exact" cnt.txt
sed '$d' c9cnot.mq > c9cnot-cut.mq
set +e
mct verify --circuit c9cnot-cut.mq --oracle cnx:9
code=$?
set -e
test "$code" -eq 3
# a qubit index of true, equal to 1 in Python, in a repeat of an
# entry read before is refused (exit 2)
mct convert --infile c9cnot.mq --out c9cnot.json
python - <<'EOF'
import json
doc = json.load(open("c9cnot.json"))
seen = set()
for entry in doc["gates"]:
    spelled = json.dumps(entry)
    if spelled in seen and 1 in entry["qubits"]:
        entry["qubits"][entry["qubits"].index(1)] = True
        break
    seen.add(spelled)
json.dump(doc, open("c9cnot-true.json", "w"), indent=2)
EOF
set +e
mct verify --circuit c9cnot-true.json --oracle cnx:9 2> c9cnot-true.txt
code=$?
set -e
test "$code" -eq 2
grep -q "not an integer" c9cnot-true.txt
# width 24 in cv, 2**17 inputs: its windows, none with a phase,
# run on bit planes in two blocks
mct synth --scheme cycle --n 16 --basis cv --out c16cv.mq > c16cv.txt
grep -qx "verify  exact (max deviation 0)" c16cv.txt
# an x appended on the target (16) or an ancilla (23) is a
# window that flips a bit unconditionally; both fail at input 0,
# and the cnot build, whose windows carry signs, fails as cv does
for b in cv cnot; do
  for q in 16 23; do
    cp c16$b.mq c16$b-x$q.mq
    echo "x $q" >> c16$b-x$q.mq
    set +e
    mct verify --circuit c16$b-x$q.mq --oracle cnx:16 > c16$b-x$q.txt
    code=$?
    set -e
    test "$code" -eq 3
    grep -q "^witness input |00000000000000000> " c16$b-x$q.txt
  done
done
grep -q "(no amplitude on expected output (0, 0, " c16cv-x16.txt
grep -q "(ancilla not restored to |0>)" c16cv-x23.txt
cmp c16cv-x16.txt c16cnot-x16.txt
cmp c16cv-x23.txt c16cnot-x23.txt
# H on each of 13 wires, twice, spreads each input over all 8192
# basis states and back: sparse entries carry it to its verdict
h='u(0.7071067811865475+0.0j,0.7071067811865475+0.0j,0.7071067811865475+0.0j,-0.7071067811865475+0.0j)'
{
  printf 'mctqasm v1 width 13\nroles ctppppppppppp\n'
  for layer in 1 2; do
    for q in 0 1 2 3 4 5 6 7 8 9 10 11 12; do echo "$h $q"; done
  done
  echo "cx 0 1"
} > wide13.mq
mct verify --circuit wide13.mq --oracle cnx:1 > wide13.txt
grep -qx "verdict exact" wide13.txt
# an --n too large to build is a parameter error (exit 2): one
# line on stderr, no traceback, and no file
set +e
mct synth --scheme ladder --n 100000000000000000000 --out huge.mq 2> huge.txt
code=$?
set -e
test "$code" -eq 2
test "$(wc -l < huge.txt)" -eq 1
grep -q "^error: " huge.txt
test ! -e huge.mq
# with the cap raised past the check's 63-bit keys, synth skips the
# check with its reason and writes the file
MCT_MAX_WIDTH=100 mct synth --scheme cycle --n 60 --basis cv --out c60cv.mq > c60cv.txt
grep -qx "verify  skipped (width 76 with 61 inputs exceeds the sparse engine's 63-bit keys)" c60cv.txt
test -s c60cv.mq
# the two-cycle scheme refuses a cycle count (exit 2)
set +e
mct synth --scheme two-cycle --n 5 --c 2
code=$?
set -e
test "$code" -eq 2
# argv the option table does not match goes through argparse:
# an abbreviation and --opt=value parse as the spelled-out form,
# help exits 0, and a bad choice is a usage error
mct synth --sch ladder --n=3 > abbrev.txt
mct synth --scheme ladder --n 3 > full.txt
cmp abbrev.txt full.txt
mct verify --help > /dev/null
set +e
mct synth --scheme pyramid --n 4 2> pyramid.txt
code=$?
set -e
test "$code" -eq 2
grep -q "invalid choice" pyramid.txt
# a write into a missing directory is refused as a read is
set +e
mct convert --infile c16.mq --out missing/c16.json 2> missing.txt
code=$?
set -e
test "$code" -eq 2
grep -q "^error: cannot write missing/c16.json: " missing.txt
# a header with no roles line is a file error (exit 2): one
# line on stderr, and no traceback
echo "mctqasm v1 width 3" > noroles.mq
set +e
mct verify --circuit noroles.mq --oracle cnx:2 2> noroles.txt
code=$?
set -e
test "$code" -eq 2
test "$(cat noroles.txt)" = "error: line 1: missing roles line"
# the meta keyword is a whole token: a third line that only starts
# with "meta" is a gate line, refused as one (exit 2)
printf 'mctqasm v1 width 4\nroles ccct\nmetax scheme=ladder n=3 c=- basis=toffoli\nccx 0 1 3\n' > metax.mq
set +e
mct verify --circuit metax.mq --oracle cnx:3 2> metax.txt
code=$?
set -e
test "$code" -eq 2
test "$(cat metax.txt)" = "error: line 3: unknown mnemonic 'metax'"
# an infinite matrix entry is not unitary (exit 2): one line on
# stderr, and no numpy warning before it
printf 'mctqasm v1 width 2\nroles ct\nmeta scheme=- n=- c=- basis=-\nu(inf,0,0,1) 0\n' > inf.mq
set +e
mct verify --circuit inf.mq --oracle cnx:1 2> inf.txt
code=$?
set -e
test "$code" -eq 2
test "$(cat inf.txt)" = "error: line 4: matrix is not unitary"
# a gate on qubit `width` is refused where the reader reads it
# (exit 2), in both formats: the reader's one line on stderr
printf 'mctqasm v1 width 3\nroles cct\nccx 0 1 3\n' > past.mq
printf '{"format": "mct-circuit", "version": 1, "width": 3, "roles": "cct", "gates": [{"kind": "ccx", "qubits": [0, 1, 3]}]}\n' > past.json
for f in past.mq past.json; do
  set +e
  mct verify --circuit $f --oracle cnx:2 2> past.txt
  code=$?
  set -e
  test "$code" -eq 2
  case $f in
    *.mq) want="error: line 3: qubit index 3 out of range for width 3" ;;
    *) want="error: bad gate entry 0: qubit index 3 out of range for width 3" ;;
  esac
  test "$(cat past.txt)" = "$want"
done
# a text line the reader makes without Gate's checks must still
# be refused by them (exit 2): a duplicate operand, a matrix
# that is not unitary on a line that repeats, and a u() with
# two operands, each with the reader's one line on stderr
printf 'mctqasm v1 width 4\nroles ccct\ncx 3 3\n' > dupop.mq
printf 'mctqasm v1 width 2\nroles ct\nu(2+0j,0j,0j,2+0j) 0\nx 1\nu(2+0j,0j,0j,2+0j) 0\n' > nonunitary.mq
printf 'mctqasm v1 width 3\nroles cct\nu(0j,1+0j,1+0j,0j) 1 2\n' > utwo.mq
for f in dupop nonunitary utwo; do
  set +e
  mct verify --circuit $f.mq --oracle cnx:1 2> $f.txt
  code=$?
  set -e
  test "$code" -eq 2
  case $f in
    dupop) want="error: line 3: duplicate operand in cx(3, 3)" ;;
    nonunitary) want="error: line 3: matrix is not unitary" ;;
    *) want="error: line 3: u gate takes exactly one qubit" ;;
  esac
  test "$(cat $f.txt)" = "$want"
done
