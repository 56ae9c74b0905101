"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import known  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import Job  # noqa: E402

import mctsynth  # noqa: E402
from mctsynth import cli  # noqa: E402

FAR = float("inf")  # no deadline


def circ_of(circuit) -> known.Circ:
    return known.parse(mctsynth.dumps(circuit, "json"))


def write(path: Path, circ: known.Circ) -> str:
    path.write_text(known.write_json(circ) if path.suffix == ".json" else known.write_text(circ))
    return str(path)


# ---------------------------------------------------------------------------
# job mixes

@pytest.mark.parametrize("workload, mix", [
    ("verify-toffoli", {"verify": 14, "late-fail": 4}),
    ("synth-verify", {"synth": 21, "verify": 6, "early-fail": 5}),
    ("synth-large", {"synth": 21, "convert": 21, "table": 6}),
])
def test_deck_has_documented_mix(tmp_path, workload, mix):
    deck = workloads.make_deck(mctsynth, workload, 7, tmp_path)
    assert Counter(job.kind for job in deck) == mix
    again = workloads.make_deck(mctsynth, workload, 7, tmp_path)
    assert [j.name for j in again] == [j.name for j in deck]
    other = workloads.make_deck(mctsynth, workload, 8, tmp_path)
    assert [j.name for j in other] != [j.name for j in deck]


def test_deck_sizes_follow_the_workload_definitions(tmp_path):
    (tmp_path / "vt").mkdir()
    vt = workloads.make_deck(mctsynth, "verify-toffoli", 3, tmp_path / "vt")
    assert {j.n for j in vt if j.scheme == "ladder"} == {10, 11, 12}
    assert {j.n for j in vt if j.scheme != "ladder"} == {11, 12, 13, 14}
    sl = workloads.make_deck(mctsynth, "synth-large", 3, tmp_path / "sl")
    assert all(128 <= j.n <= 640 for j in sl if j.kind == "synth")
    for before, job in zip(sl, sl[1:]):
        if job.kind == "convert":  # converts the file the job before wrote
            assert before.kind == "synth"
            assert before.argv[before.argv.index("--out") + 1] == job.argv[2]


def test_setup_writes_identical_files_for_one_seed(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    workloads.make_deck(mctsynth, "verify-toffoli", 5, a)
    workloads.make_deck(mctsynth, "verify-toffoli", 5, b)
    assert run.files_digest(a) == run.files_digest(b)


# ---------------------------------------------------------------------------
# known answers

def test_file_formats_round_trip():
    circ = circ_of(mctsynth.lower_circuit(mctsynth.build_cycle_cnx(5, 2),
                                          mctsynth.GateBasis.CNOT_LOCAL))
    assert known.parse_text(known.write_text(circ)) == circ
    assert known.parse_json(known.write_json(circ)) == circ
    assert known.parse_text(mctsynth.dumps(mctsynth.build_cnx(4), "text")).gates == \
        circ_of(mctsynth.build_cnx(4)).gates


def test_evaluators_agree_with_construction():
    for n in (3, 4, 6):
        circ = circ_of(mctsynth.build_cycle_cnx(n, 2))
        assert known.exhaustive_failures(circ) == 0
        assert known.spot_failures(circ, random.Random(n)) == 0
        known.spot_check(circ, random.Random(n), 4)
        late = known.late_fail_mutant(circ)
        assert known.exhaustive_failures(late) == known.all_controls_mask(n)
        early = known.early_fail_mutant(circ)
        assert known.differs_from_oracle(early, (0,) * (n + 1))


def mutant_jobs(tmp_path) -> list[Job]:
    n = 4
    late = known.late_fail_mutant(circ_of(mctsynth.build_cnx(n)))
    early = known.early_fail_mutant(circ_of(
        mctsynth.lower_circuit(mctsynth.build_cnx(n), mctsynth.GateBasis.CV_BASIS)))
    return [
        Job("late-fail", ["verify", "--circuit", write(tmp_path / "late.mq", late),
                          "--oracle", f"cnx:{n}"],
            n=n, fails=known.exhaustive_failures(late), circ=late),
        Job("early-fail", ["verify", "--circuit", write(tmp_path / "early.json", early),
                           "--oracle", f"cnx:{n}"], n=n, circ=early),
    ]


def test_each_mutant_gets_its_known_verdict(tmp_path):
    for job in mutant_jobs(tmp_path):
        record = run.run_job(cli, job)
        assert not record.failed and record.wrong == "", record.wrong


def tiny_synth(tmp_path, **changes) -> Job:
    job = Job("synth", ["synth", "--scheme", "ladder", "--n", "4", "--basis", "cv",
                        "--out", str(tmp_path / "l4.mq")],
              n=4, scheme="ladder", basis="cv", verify_line="exact")
    for key, value in changes.items():
        setattr(job, key, value)
    return job


def test_wrong_answers_are_counted(tmp_path):
    late, early = mutant_jobs(tmp_path)
    claims_exact = Job("verify", late.argv, n=late.n, circ=late.circ)   # wrong exit code
    late.fails = 0                                                      # witness now "right"
    wrong_scheme = tiny_synth(tmp_path, scheme="cycle")                 # file contents differ
    right = tiny_synth(tmp_path)
    records = run.run_passes(cli, [claims_exact, late, wrong_scheme, right], 1, FAR)
    assert [bool(r.wrong) for r in records] == [True, True, True, False]
    assert [r.failed for r in records] == [True, False, False, False]
    _, extra = run.end_to_end(records, setup_s=0.1)
    assert extra["wrong_answers"][0] == 3
    assert extra["failed_share"][0] == 0.25


def test_changed_output_breaks_determinism(tmp_path):
    first = run.run_job(cli, tiny_synth(tmp_path))
    second = run.run_job(cli, tiny_synth(tmp_path))
    assert first.outcome.digest == second.outcome.digest
    record_file = tmp_path / "det" / "seed.json"
    run.check_determinism([first, second], record_file)
    assert record_file.exists() and not first.wrong and not second.wrong
    second.outcome.digest = "0" * 16
    run.check_determinism([second], record_file)
    assert second.wrong


# ---------------------------------------------------------------------------
# tracing

def test_traced_self_times_fit_in_job_wall_time(tmp_path):
    jobs = mutant_jobs(tmp_path) + [
        tiny_synth(tmp_path),
        Job("convert", ["convert", "--infile", str(tmp_path / "l4.mq"),
                        "--out", str(tmp_path / "l4.json")], n=4, scheme="ladder", basis="cv"),
        Job("synth", ["synth", "--scheme", "cycle", "--n", "5", "--c", "2", "--basis", "toffoli",
                      "--out", str(tmp_path / "c5.mq")], n=5, scheme="cycle", basis="toffoli",
            verify_line="exact"),
    ]
    modules = {m: sys.modules[f"mctsynth.{m}"] for m in run.MODULES}
    original_main = cli.main
    tracer = Tracer()
    tracer.install(modules)
    try:
        records = run.run_passes(cli, jobs, 1, FAR, tracer)
    finally:
        tracer.uninstall()
    assert cli.main is original_main
    assert all(not r.wrong for r in records), [r.wrong for r in records]
    assert all(t >= 0 for t in tracer.self_times())
    by_job = tracer.self_by_job()
    for i, record in enumerate(records):
        assert 0 < by_job[i] <= record.cpu
    m = {k: v for k, (v, _) in tracer.metrics().items()}
    # every input of the late-fail mutant and both synths, and at least
    # one of the early-fail mutant
    assert m["verify.inputs"] >= 2 * 2 ** 5 + 2 ** 6 + 1
    assert m["decomp.gates_out"] > 0 and 0 < m["decomp.paired_share"] <= 1
    assert m["verify.classical_s"] > 0 and m["verify.sparse_s"] > 0
    assert m["verify.dense_calls"] == 0 and m["qasmio.bytes"] > 0
