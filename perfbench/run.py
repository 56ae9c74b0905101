#!/usr/bin/env python3
"""mctsynth benchmark: time to a verdict and synthesis throughput.

    python3 perfbench/run.py --workload verify-toffoli --seed 1 --seconds 25 --trace 0

One closed-loop client in one process and one thread: each job is a
call to ``mctsynth.cli.main(argv)`` made only after the previous one
returned, with its standard output captured and then checked against a
known answer that the benchmark works out without mctsynth (see
``known.py``).  The package is imported from ``src/`` next to this
directory; nothing is installed.

A run set-up imports mctsynth and writes the workload's input files
from the seed (several times; ``setup_s`` is the median), then runs a
fixed number of passes over the seed's deck of jobs: the number of
passes is ``--seconds`` divided by the time one pass takes on the
machine the defaults were measured on (PASS_SECONDS), so two commits
run exactly the same jobs.  ``--trace 1`` runs the first half of the
passes (rounded down, at least one) untraced and the rest, at least
one, with spans around every module boundary, and reports
per-layer metrics and the tracing overhead instead of the end-to-end
metrics.  ``--workload all`` runs the three workloads in turn.

Job and set-up times are CPU seconds of this process (user + system,
``time.process_time``) at a reference speed.  The jobs are
single-threaded and CPU-bound, so on an idle machine CPU time is their
wall time.  Unlike wall time, it leaves out the time a shared VM is
descheduled by its host.  But the CPU itself also runs up to 50% slower
for seconds at a time while other tenants share the core.  So every job
is bracketed by a fixed pure-Python calibration loop, and its CPU time
is scaled by CAL_REF_S over the mean of the two calibrations.  The raw
CPU and wall medians per job are printed as well.  Work moved to other
threads would be counted; work moved to child processes would not.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import EXIT, MUTANTS, WORKLOADS, AnswerError, Job, Outcome  # noqa: E402

# Seconds one pass over a deck takes on a 2-vCPU x86-64 VM with
# Python 3.11 and numpy 2.4; a run makes round(seconds / this) passes.
PASS_SECONDS = {"verify-toffoli": 8.5, "synth-verify": 12.5, "synth-large": 12.5}
SETUP_REPEATS = 5
# CPU time of calibrate() on the reference machine at full speed
CAL_REF_S = 0.0066
CAL_LOOPS = 40_000
# stop starting jobs past this many seconds, to exit well within 180 s
TIME_CAP_S = 140.0

PER_LAYER = (
    "cli.self_s", "ladder.build_s", "cycle.build_s",
    "decomp.lower_s", "decomp.pairing_s", "decomp.gates_out", "decomp.paired_share",
    "costs.report_s", "costs.table_s",
    "verify.classical_s", "verify.sparse_s", "verify.oracle_s", "verify.inputs",
    "verify.inputs_per_s", "verify.dense_calls",
    "qasmio.save_s", "qasmio.load_s", "qasmio.bytes", "trace.overhead_s",
)
MODULES = ("cli", "costs", "cycle", "decomp", "ladder", "qasmio", "verify")


@dataclass
class Record:
    job: Job
    cpu: float                      # CPU time of the job (user + system)
    wall: float                     # wall-clock time of the job
    failed: bool                    # raised, or exited with an unexpected code
    wrong: str = ""                 # why the answer is wrong; empty when right
    outcome: Optional[Outcome] = None
    seconds: float = 0.0            # cpu at the reference speed


def calibrate() -> float:
    """CPU seconds a fixed mix of integer arithmetic and dict updates
    takes right now; CAL_REF_S at the reference speed."""
    t0 = time.process_time()
    acc, table = 0, {}
    for i in range(CAL_LOOPS):
        acc += i * i
        table[i & 1023] = table.get(i & 1023, 0) + i
    return time.process_time() - t0


def at_reference_speed(cpu: float, before: float, after: float) -> float:
    return cpu * CAL_REF_S / ((before + after) / 2)


# ---------------------------------------------------------------------------
# set-up

def import_mctsynth():
    """Import mctsynth and its CLI afresh, so each set-up repetition
    pays the import."""
    for name in [m for m in sys.modules if m == "mctsynth" or m.startswith("mctsynth.")]:
        del sys.modules[name]
    importlib.import_module("mctsynth.cli")
    return sys.modules["mctsynth"]


def files_digest(work: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(work.iterdir()):
        h.update(p.name.encode() + p.read_bytes())
    return h.hexdigest()


def set_up(workload: str, seed: int, work: Path):
    """Import and input generation, repeated; returns the last deck and
    the median set-up time.  Every repetition must write the same
    files."""
    times, digests = [], set()
    before = calibrate()
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = time.process_time()
        mct = import_mctsynth()
        deck = workloads.make_deck(mct, workload, seed, work)
        cpu = time.process_time() - t0
        after = calibrate()
        times.append(at_reference_speed(cpu, before, after))
        before = after
        digests.add(files_digest(work))
    if len(digests) != 1:
        raise AnswerError("set-up wrote different input files for the same seed")
    return deck, statistics.median(times)


# ---------------------------------------------------------------------------
# running

def run_job(cli, job: Job) -> Record:
    out, err = io.StringIO(), io.StringIO()
    # every job starts from a collected heap, whatever ran before it
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        w0, t0 = time.perf_counter(), time.process_time()
        try:
            rc = cli.main(job.argv)
        except Exception as exc:  # a job that raises is counted, and the run goes on
            rc = f"{type(exc).__name__}: {exc}"
        cpu, wall = time.process_time() - t0, time.perf_counter() - w0
    record = Record(job, cpu, wall, failed=rc != EXIT[job.kind])
    if record.failed:
        record.wrong = f"exit {rc}, want {EXIT[job.kind]}; stderr: {err.getvalue().strip()[:200]}"
        return record
    try:
        record.outcome = workloads.check_job(job, out.getvalue())
    except (AnswerError, OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        record.wrong = f"{type(exc).__name__}: {exc}"
    return record


def run_passes(cli, deck: list[Job], passes: int, deadline: float,
               tracer: Optional[Tracer] = None) -> list[Record]:
    records: list[Record] = []
    before = calibrate()
    for _ in range(passes):
        for job in deck:
            if time.perf_counter() > deadline:
                return records
            if tracer is not None:
                tracer.job = len(records)
            record = run_job(cli, job)
            after = calibrate()
            record.seconds = at_reference_speed(record.cpu, before, after)
            before = after
            records.append(record)
            workloads.remove_outputs(job)
    return records


def check_determinism(records: list[Record], path: Path) -> None:
    """Gate count and file hash of every synth and convert job (and the
    printed table) must repeat exactly: within the run, and against the
    record an earlier run with the same seed left in ``path``."""
    earlier = json.loads(path.read_text()) if path.exists() else {}
    seen: dict[str, list] = {}
    for r in records:
        if r.outcome is None or not r.outcome.digest:
            continue
        value = [r.outcome.gates, r.outcome.digest]
        for before in (seen.setdefault(r.job.name, value), earlier.get(r.job.name, value)):
            if before != value:
                r.wrong = r.wrong or f"output {value} differs from an earlier run's {before}"
    if not path.exists() and seen:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(seen, indent=1, sort_keys=True))
        os.replace(tmp, path)


# ---------------------------------------------------------------------------
# metrics

def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its
    percentile rank."""
    ranked = sorted(times)
    k = len(ranked) - 10
    if k < 1:
        return ranked[-1], 100.0
    return ranked[k - 1], 100.0 * k / len(ranked)


def rate(records: list[Record], amount) -> Optional[float]:
    seconds = sum(r.seconds for r in records)
    return sum(amount(r) for r in records) / seconds if records else None


def end_to_end(records: list[Record], setup_s: float) -> tuple[dict, dict]:
    """The gated metrics, and the workload-specific ones that are
    reported where they apply."""
    times = [r.seconds for r in records]
    tail_s, tail_pct = tail(times)
    gated = {
        "setup_s": (setup_s, "s"),
        "job_p50_s": (statistics.median(times), "s"),
        "job_tail_s": (tail_s, "s"),
        "jobs_per_s": (len(times) / sum(times), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    mutants = [r.seconds for r in records if r.job.kind in MUTANTS]
    verified = [r for r in records if r.outcome is not None and r.outcome.verified]
    synths = [r for r in records if r.job.kind == "synth" and r.outcome is not None]
    extra = {
        "job_p50_cpu_s": (statistics.median(r.cpu for r in records), "s"),
        "job_p50_wall_s": (statistics.median(r.wall for r in records), "s"),
        "job_tail_pct": (tail_pct, "%"),
        "job_samples": (len(times), "count"),
        "counterexample_p50_s": (statistics.median(mutants) if mutants else None, "s"),
        "verified_inputs_per_s": (rate(verified, lambda r: r.job.inputs), "1/s"),
        "lowered_gates_per_s": (rate(synths, lambda r: r.outcome.gates), "1/s"),
        "wrong_answers": (sum(1 for r in records if r.wrong), "count"),
        "failed_share": (sum(r.failed for r in records) / len(records), "share"),
    }
    return gated, {k: v for k, v in extra.items() if v[0] is not None}


def per_layer(tracer: Tracer, untraced: list[Record], traced: list[Record]) -> dict:
    metrics = tracer.metrics()
    overhead = (statistics.median(r.seconds for r in traced)
                - statistics.median(r.seconds for r in untraced))
    metrics["trace.overhead_s"] = (overhead, "s")
    return {name: metrics[name] for name in PER_LAYER}


def predictions(workload: str, metrics: dict, traced: list[Record]) -> list[tuple[str, bool]]:
    """The per-layer predictions the README states that a single run can test."""
    m = {k: v for k, (v, _) in metrics.items()}
    out = [("verify.dense_calls is 0", m["verify.dense_calls"] == 0)]
    if workload == "synth-large":
        verify_s = m["verify.classical_s"] + m["verify.sparse_s"] + m["verify.oracle_s"]
        out.append(("verify.* time is 0", verify_s == 0 and m["verify.inputs"] == 0))
    if workload == "synth-verify":
        cpu = sum(r.cpu for r in traced)
        out.append((f"decomp.lower_s is under 1% of job time ({m['decomp.lower_s'] / cpu:.3%})",
                    m["decomp.lower_s"] < 0.01 * cpu))
    return out


# ---------------------------------------------------------------------------
# environment

def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def environment(seed: int) -> dict:
    import numpy

    src = hashlib.sha256()
    for p in sorted((ROOT / "src" / "mctsynth").glob("*.py")):
        src.update(p.name.encode() + p.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "source_sha256": src.hexdigest()[:16],
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# one workload

def passes_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_SECONDS[workload]))


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        deadline = time.perf_counter() + TIME_CAP_S
        deck, setup_s = set_up(workload, seed, work)
        cli = sys.modules["mctsynth.cli"]
        t0 = time.perf_counter()
        passes = passes_for(workload, seconds)
        plain, traced_passes = (passes // 2 or 1, passes - passes // 2) if trace else (passes, 0)
        untraced = run_passes(cli, deck, plain, deadline)
        traced: list[Record] = []
        if trace:
            tracer = Tracer()
            tracer.install({m: sys.modules[f"mctsynth.{m}"] for m in MODULES})
            try:
                traced = run_passes(cli, deck, traced_passes, deadline, tracer)
            finally:
                tracer.uninstall()
        records = untraced + traced
        wall = time.perf_counter() - t0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    check_determinism(records, ROOT / ".bench_work" / "determinism" / f"{workload}-{seed}.json")
    gated, extra = end_to_end(untraced, setup_s)
    result = {
        "workload": workload,
        "deck_jobs": len(deck),
        "passes": plain + traced_passes,
        "run_s": wall,
        "complete": len(records) == len(deck) * (plain + traced_passes),
        "environment": environment(seed),
        "end_to_end": gated,
        "workload_specific": extra,
        "wrong": [f"{r.job.name}: {r.wrong}" for r in records if r.wrong][:10],
        "attempted": len(records),
        "failed": sum(r.failed for r in records),
        "correct": not any(r.wrong for r in records),
    }
    if trace:
        result["per_layer"] = per_layer(tracer, untraced, traced)
        result["predictions"] = predictions(workload, result["per_layer"], traced)
    return result


def print_result(result: dict, trace: bool) -> None:
    print(f"workload {result['workload']}: {result['attempted']} jobs "
          f"({result['passes']} passes of {result['deck_jobs']}) in {result['run_s']:.2f} s"
          + ("" if result["complete"] else f", stopped at the {TIME_CAP_S:.0f} s cap"))
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    sections = ["end_to_end", "workload_specific"] + (["per_layer"] if trace else [])
    for section in sections:
        print(f"{section.replace('_', '-')}:")
        for name, (value, unit) in result[section].items():
            print(f"  {name:<24} {value:>16.6g} {unit}")
    for text, holds in result.get("predictions", []):
        print(f"prediction {'holds' if holds else 'FAILS'}: {text}")
    for line in result["wrong"]:
        print(f"wrong answer: {line}")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # one thread everywhere, and the CLI's default width cap; set before
    # mctsynth (and with it numpy) is imported
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("MCT_MAX_WIDTH", None)

    if not (ROOT / "src" / "mctsynth" / "__init__.py").is_file():
        print(f"error: no mctsynth sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except AnswerError as exc:
            print(f"error: {name} set-up: {exc}", file=sys.stderr)
            return 1
        print_result(result, bool(args.trace))
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        metrics = result["per_layer"] if args.trace else result["end_to_end"]
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, (value, unit) in metrics.items():
            summary["metrics"][prefix + metric] = {"value": value, "unit": unit}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
