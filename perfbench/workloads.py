"""The three seeded workloads: job lists, their input files, and the
check of each job's output against its known answer.

A workload is one pass of jobs (a *deck*) drawn from a seed.  Every
deck holds the same strata -- each (scheme, n, basis) cell the
workload covers -- so two seeds give the same mix of job sizes; the
seed picks the free parameters inside each cell (cycle counts, exact
sizes within a band, unitaries, file formats) and the job order.

Input files are built in set-up with mctsynth's builders, re-read with
the benchmark's own parser, mutated there when the job asks for a
mutant, and written back with the benchmark's own writer; the known
answer of every file comes from ``known``'s evaluators, never from
mctsynth.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import known
from known import UNITARIES, AnswerError, Circ, require

WORKLOADS = ("verify-toffoli", "synth-verify", "synth-large")

# Expected exit code per job kind.
EXIT = {"verify": 0, "late-fail": 3, "early-fail": 3, "synth": 0, "convert": 0, "table": 0}
MUTANTS = ("late-fail", "early-fail")


@dataclass
class Job:
    kind: str
    argv: list[str]
    n: int = 0
    scheme: str = ""
    basis: str = ""
    verify_line: str = ""           # synth: "exact" or "skipped"
    fails: int = 0                  # late-fail: mask of failing inputs
    circ: Optional[Circ] = None     # verify jobs: the circuit in the file

    @property
    def name(self) -> str:
        """Argv with file paths cut to their base names; the same for
        the same seed in any work directory."""
        return " ".join(os.path.basename(a) for a in self.argv)

    @property
    def inputs(self) -> int:
        return 2 ** (self.n + 1)


@dataclass
class Outcome:
    gates: int = 0          # gates in the written file (synth, convert)
    digest: str = ""        # hash of the written file or printed table
    verified: bool = False  # job certified a circuit exact


def best_c(n: int) -> int:
    return max(math.isqrt(n - 1), 1)


def _build(mct, scheme: str, n: int, c: Optional[int] = None):
    if scheme == "ladder":
        return mct.build_cnx(n)
    if scheme == "two-cycle":
        return mct.build_two_cycle_cnx(n)
    return mct.build_cycle_cnx(n, best_c(n) if c is None else c)


def _reread(mct, circuit) -> Circ:
    return known.parse(mct.qasmio.dumps(circuit, "json"))


def _write(path: Path, circ: Circ) -> None:
    text = known.write_json(circ) if path.suffix == ".json" else known.write_text(circ)
    path.write_text(text)


def _ext(rng: random.Random) -> str:
    return rng.choice((".mq", ".json"))


def verify_toffoli(mct, rng: random.Random, work: Path) -> list[Job]:
    # Cost doubles with n and grows with the gate count, so the deck is
    # built around one group of similar jobs (n=12, 27-29 gates: the
    # seeded cycle, the two-cycle and their mutants) with as many jobs
    # below it as above it; the median then falls inside that group and
    # not on the edge between two groups.  c=1 (one ladder-shaped group)
    # checks faster than the split circuits, so it gets cells of its own
    # next to the seeded c in 2..best+1.
    cells = [("ladder", n, None, False) for n in (10, 11, 12)]
    cells += [("cycle", n, 1, False) for n in (11, 12, 13)]
    cells += [("cycle", n, rng.randint(2, best_c(n) + 1), False) for n in range(11, 15)]
    cells += [("two-cycle", n, None, False) for n in range(11, 15)]
    # late-fail mutants, about one file in five
    cells += [("cycle", 12, rng.randint(2, best_c(12) + 1), True), ("two-cycle", 12, None, True),
              ("cycle", 13, 1, True), ("two-cycle", 13, None, True)]
    jobs = []
    for i, (scheme, n, c, mutant) in enumerate(cells):
        circ = _reread(mct, _build(mct, scheme, n, c))
        if mutant:
            circ = known.late_fail_mutant(circ)
        fails = known.exhaustive_failures(circ)
        want = known.all_controls_mask(n) if mutant else 0
        require(fails == want, f"{scheme} n={n} c={c}: set-up circuit is not the known answer")
        path = work / f"vt{i:02d}{_ext(rng)}"
        _write(path, circ)
        jobs.append(Job("late-fail" if mutant else "verify",
                        ["verify", "--circuit", str(path), "--oracle", f"cnx:{n}"],
                        n=n, scheme=scheme, fails=fails, circ=circ))
    return jobs


def synth_verify(mct, rng: random.Random, work: Path) -> list[Job]:
    # Cycle counts are not seeded, as the jobs near the median would
    # change cost with them.  At the best count every circuit here is at
    # most 16 qubits wide, so the CLI verifies it before writing; so is
    # cycle n=9 at c=3.  That job and the n=9 mutants made below join
    # the group of jobs just under the slowest one.  The group sets the
    # tail (the 11th-slowest job) and is big enough to hold it in its
    # middle.
    cells = [("ladder", n, None, basis) for n in (6, 7, 8) for basis in ("cv", "cnot")]
    cells += [("cycle", n, best_c(n), basis) for n in (7, 8, 9, 10) for basis in ("cv", "cnot")]
    cells += [("two-cycle", n, None, basis) for n in (7, 8, 9) for basis in ("cv", "cnot")]
    cells.append(("cycle", 9, 3, "cnot"))
    jobs = []
    for scheme, n, c, basis in cells:
        path = work / f"sv{len(jobs):02d}{_ext(rng)}"
        argv = ["synth", "--scheme", scheme, "--n", str(n), "--basis", basis, "--out", str(path)]
        if c is not None:
            argv += ["--c", str(c)]
        jobs.append(Job("synth", argv, n=n, scheme=scheme, basis=basis, verify_line="exact"))
    for n in (6, 7, 8):
        for basis in ("cv", "cnot"):
            u = rng.choice(sorted(UNITARIES))
            lowered = mct.lower_circuit(mct.build_cnu(n, mct.NAMED_UNITARIES[u]),
                                        mct.GateBasis(basis))
            circ = _reread(mct, lowered)
            known.spot_check(circ, rng, 3, UNITARIES[u])
            path = work / f"sv{len(jobs):02d}.json"
            _write(path, circ)
            jobs.append(Job("verify", ["verify", "--circuit", str(path), "--oracle",
                                       f"cnu:{n}:{u}"],
                            n=n, basis=basis, circ=circ))
    # the n=9 mutants have fixed schemes and counts, as they belong to
    # the group that sets the tail; at n=8 the seed picks the scheme
    for n, basis, scheme, c in ((8, "cv", None, None), (8, "cnot", None, None),
                                (9, "cnot", "cycle", 2), (9, "cnot", "cycle", 3),
                                (9, "cnot", "two-cycle", None)):
        scheme = scheme or rng.choice(("ladder", "cycle", "two-cycle"))
        lowered = mct.lower_circuit(_build(mct, scheme, n, c), mct.GateBasis(basis))
        circ = known.early_fail_mutant(_reread(mct, lowered))
        path = work / f"sv{len(jobs):02d}.json"
        _write(path, circ)
        jobs.append(Job("early-fail", ["verify", "--circuit", str(path), "--oracle", f"cnx:{n}"],
                        n=n, scheme=scheme, basis=basis, circ=circ))
    return jobs


# Sizes per basis: one n near each centre, so every deck spans the
# range the same way and the seed moves a job's cost by a few percent at
# most.  Toffoli-level jobs take milliseconds, so one size is enough;
# with three, they would push the median out of the block of table jobs
# into a sparse stretch of the job times.
SYNTH_LARGE_CENTRES = {"toffoli": (544,), "cv": (160, 352, 544), "cnot": (160, 352, 544)}


def synth_large(mct, rng: random.Random, work: Path) -> list[list[Job]]:
    units = []
    for scheme in ("ladder", "cycle", "two-cycle"):
        for basis, centres in SYNTH_LARGE_CENTRES.items():
            for centre in centres:
                n = centre + rng.randint(-8, 8)
                # the file name says what is in the file, so the convert
                # job's name does too
                stem = work / f"sl{len(units):02d}-{scheme}-{basis}-{n}"
                argv = ["synth", "--scheme", scheme, "--n", str(n), "--basis", basis,
                        "--out", f"{stem}.mq"]
                if scheme == "cycle":
                    argv += ["--c", str(best_c(n) + rng.choice((-1, 0, 1)))]
                units.append([
                    Job("synth", argv, n=n, scheme=scheme, basis=basis, verify_line="skipped"),
                    Job("convert", ["convert", "--infile", f"{stem}.mq", "--out", f"{stem}.json"],
                        n=n, scheme=scheme, basis=basis),
                ])
    # about one job in ten prints the comparison table
    for _ in range(6):
        fmt = rng.choice(("text", "csv"))
        units.append([Job("table", ["table", "--max", "64", "--format", fmt])])
    return units


def make_deck(mct, workload: str, seed: int, work: Path) -> list[Job]:
    """One pass of the workload, with its input files written to
    ``work``.  The same seed gives the same jobs and the same files."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "synth-large":
        units = synth_large(mct, rng, work)
    else:
        build = verify_toffoli if workload == "verify-toffoli" else synth_verify
        units = [[job] for job in build(mct, rng, work)]
    rng.shuffle(units)
    return [job for unit in units for job in unit]


# ---------------------------------------------------------------------------
# checking one job

def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _check_verify(job: Job, stdout: str) -> Outcome:
    verdict, witness = known.parse_verdict(stdout)
    if job.kind == "verify":
        require(verdict == "exact" and witness is None, f"verdict {verdict}, want exact")
        return Outcome(verified=True)
    require(verdict == "mismatch" and witness is not None,
            f"verdict {verdict} without a witness, want mismatch")
    require(len(witness) == job.n + 1, f"witness has {len(witness)} bits")
    if job.kind == "late-fail":
        require(all(witness[:-1]), f"witness {witness} has a control at 0")
        lane = int("".join(map(str, witness)), 2)
        require(job.fails >> lane & 1 == 1, f"circuit is right on witness {witness}")
    else:
        require(known.differs_from_oracle(job.circ, witness), f"circuit is right on {witness}")
    return Outcome()


def _check_synth(job: Job, stdout: str) -> Outcome:
    lines = stdout.splitlines()
    verify = [ln for ln in lines if ln.startswith("verify  ")]
    require(len(verify) == 1 and verify[0].split()[1] == job.verify_line,
            f"verify line {verify}, want {job.verify_line}")
    path, gates, _ = known.parse_wrote(stdout)
    ops = [ln.split() for ln in lines if ln.startswith("ops ")]
    require(len(ops) == 1 and ops[0][-1] == str(gates),
            f"cost report {ops} disagrees with the {gates} gates written")
    data = Path(path).read_bytes()
    circ = known.parse(data.decode())
    known.check_file(circ, job.n, job.scheme, job.basis, gates)
    rng = random.Random(job.name)
    if job.basis == "toffoli":
        require(known.spot_failures(circ, rng) == 0, "wrong on a sampled input")
    else:
        known.spot_check(circ, rng, 3 if job.verify_line == "exact" else 1)
    return Outcome(gates=gates, digest=_digest(data), verified=job.verify_line == "exact")


def _check_convert(job: Job, stdout: str) -> Outcome:
    path, gates, fmt = known.parse_wrote(stdout)
    require(fmt == "json", f"converted to {fmt}, want json")
    data = Path(path).read_bytes()
    converted = known.parse_json(data.decode())
    original = known.parse_text(Path(job.argv[2]).read_text())
    require(converted == original, "text and json gate lists differ after convert")
    require(len(converted.gates) == gates, "gate count differs from the CLI's")
    return Outcome(gates=gates, digest=_digest(data))


def check_job(job: Job, stdout: str) -> Outcome:
    """Compare a job's printed output and written file with the known
    answer; raises AnswerError on any difference."""
    if job.kind in ("verify", *MUTANTS):
        return _check_verify(job, stdout)
    if job.kind == "synth":
        return _check_synth(job, stdout)
    if job.kind == "convert":
        return _check_convert(job, stdout)
    known.check_table(stdout, csv="csv" in job.argv)
    return Outcome(digest=_digest(stdout.encode()))


def remove_outputs(job: Job) -> None:
    """Delete what a synth-large job wrote once it has been checked."""
    if job.kind == "convert":
        for p in (job.argv[2], job.argv[4]):
            Path(p).unlink(missing_ok=True)

