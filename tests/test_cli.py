"""End-to-end command line behavior and exit codes."""

import gc
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import mctsynth
from mctsynth import cli, costs, decomp
from mctsynth.cli import main
from mctsynth.decomp import GateBasis, ToffoliRule, lower_toffoli
from mctsynth.ir import Circuit, CircuitMeta, QubitRole, append, cnot, local, new_circuit
from mctsynth.qasmio import dumps_json, dumps_text, load, save
from mctsynth.verify import EquivalenceClass, check_equivalence, oracle_cnx


DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSynth:
    def test_ladder_report(self, capsys):
        code, out, _ = run(capsys, "synth", "--scheme", "ladder", "--n", "3")
        assert code == 0
        assert "toffoli  form 3  built 3" in out

    def test_writes_and_verifies(self, capsys, tmp_path):
        path = tmp_path / "c52.mct"
        code, out, _ = run(
            capsys, "synth", "--scheme", "cycle", "--n", "5", "--c", "2",
            "--basis", "cv", "--out", str(path),
        )
        assert code == 0
        assert "verify  exact" in out
        assert path.exists()
        circ = load(path)
        assert len(circ.gates) == 29
        assert circ.meta.basis == "cv"

    def test_written_files_are_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.mct", tmp_path / "b.mct"
        for path in (a, b):
            code, _, _ = run(
                capsys, "synth", "--scheme", "ladder", "--n", "4",
                "--basis", "cnot", "--out", str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_no_verify_skips_check(self, capsys, tmp_path):
        path = tmp_path / "c.mct"
        code, out, _ = run(
            capsys, "synth", "--scheme", "ladder", "--n", "3",
            "--out", str(path), "--no-verify",
        )
        assert code == 0
        assert "skipped (--no-verify)" in out
        assert path.exists()

    def test_wide_circuit_skips_verification(self, capsys, tmp_path):
        path = tmp_path / "wide.mct"
        code, out, _ = run(
            capsys, "synth", "--scheme", "ladder", "--n", "16", "--out", str(path),
        )
        assert code == 0
        assert "verify  skipped (width 31" in out
        assert path.exists()

    # only the spelling str() writes is read: int() would also take the
    # underscore, the sign, the space, the Arabic-Indic digit and the 0
    @pytest.mark.parametrize("cap, message", [
        ("0", "must be at least 1, got 0"),
        ("-3", "must be at least 1, got -3"),
        ("5_0", "must be an integer, got '5_0'"),
        ("+9", "must be an integer, got '+9'"),
        (" 9", "must be an integer, got ' 9'"),
        ("\u0669", "must be an integer, got '\u0669'"),
        ("09", "must be an integer, got '09'"),
    ])
    def test_bad_cap_exits_two_and_writes_nothing(self, capsys, tmp_path,
                                                  monkeypatch, cap, message):
        monkeypatch.setenv("MCT_MAX_WIDTH", cap)
        path = tmp_path / "c.mq"
        code, out, err = run(
            capsys, "synth", "--scheme", "ladder", "--n", "3", "--out", str(path),
        )
        assert code == 2
        assert err == f"error: MCT_MAX_WIDTH {message}\n"
        assert "verify" not in out
        assert not path.exists()

    @pytest.mark.parametrize("argv, message", [
        (["--n", "60", "--basis", "cv"],
         "width 76 with 61 inputs exceeds the sparse engine's 63-bit keys"),
        (["--n", "40", "--basis", "toffoli"],
         "41 computational qubits exceed the classical engine's 63-bit keys"),
    ])
    def test_cap_raised_past_the_keys_skips_verification(self, capsys, tmp_path,
                                                         monkeypatch, argv, message):
        # skipped as past the cap, with the check's own reason, and the
        # file written; mct verify still refuses such a file (exit 2)
        monkeypatch.setenv("MCT_MAX_WIDTH", "100")
        path = tmp_path / "c.mq"
        code, out, err = run(capsys, "synth", "--scheme", "cycle", *argv, "--out", str(path))
        assert (code, err) == (0, "")
        assert f"\nverify  skipped ({message})\nwrote   {path} (" in out
        assert path.exists()
        n = argv[1]
        assert run(capsys, "verify", "--circuit", str(path), "--oracle", f"cnx:{n}") == (
            2, "", f"error: {message}\n")

    def test_verifies_up_to_the_simulation_cap(self, capsys, tmp_path):
        # width 24: the cycle build at c=3 lowered to the cnot basis
        path = tmp_path / "c16.mq"
        code, out, _ = run(
            capsys, "synth", "--scheme", "cycle", "--n", "16", "--basis", "cnot",
            "--out", str(path),
        )
        assert code == 0
        # read off the bit planes as a miter, so no float dust from
        # the windows' phases
        assert "verify  exact (max deviation 0)\n" in out
        assert load(path).width == 24

    @pytest.mark.parametrize("basis", ["toffoli", "cv", "cnot"])
    def test_failure_reads_as_the_exhaustive_check(self, capsys, monkeypatch, tmp_path, basis):
        # a build missing its last gate: the exhaustive check's verdict,
        # the refusal and exit code 3, and no file written
        real_lower = cli.lower_circuit
        cuts = []

        def cut(circuit, gate_basis):
            lowered = real_lower(circuit, gate_basis)
            cuts.append(Circuit(lowered.roles, lowered.gates[:-1], lowered.meta))
            return cuts[-1]

        monkeypatch.setattr(cli, "lower_circuit", cut)
        path = tmp_path / "c.mq"
        argv = ("synth", "--scheme", "cycle", "--n", "5", "--c", "2", "--basis", basis,
                "--out", str(path))
        tried = run(capsys, *argv)
        verdict = check_equivalence(cuts[-1], oracle_cnx(5))
        assert verdict.klass is not EquivalenceClass.EXACT
        line = f"verify  {verdict.klass.value} (max deviation {verdict.max_deviation:.3g})\n"
        assert tried[0] == 3 and f"\n{line}" in tried[1]
        assert tried[2] == "error: refusing to write a circuit that does not verify\n"
        assert not path.exists()

    def test_unwritable_output(self, capsys, tmp_path):
        out = tmp_path / "missing" / "c.mq"
        code, stdout, err = run(capsys, "synth", "--scheme", "ladder", "--n", "3",
                                "--out", str(out))
        assert code == 2
        assert "verify  exact" in stdout and "wrote" not in stdout
        assert err == f"error: cannot write {out}: No such file or directory\n"

    def test_workspace_scheme(self, capsys, tmp_path):
        path = tmp_path / "w.mct"
        code, out, _ = run(
            capsys, "synth", "--scheme", "workspace-c3x", "--basis", "cv",
            "--out", str(path),
        )
        assert code == 0
        assert "verify  exact" in out
        assert len(load(path).gates) == 35

    def test_two_cycle_native(self, capsys, tmp_path):
        path = tmp_path / "t.mct"
        code, out, _ = run(
            capsys, "synth", "--scheme", "two-cycle", "--n", "6", "--out", str(path),
        )
        assert code == 0
        assert "toffoli  form 11  built 11" in out

    def test_cycle_auto_picks_square_root(self, capsys):
        code, out, _ = run(
            capsys, "synth", "--scheme", "cycle", "--n", "11", "--basis", "cv"
        )
        assert code == 0
        assert "c=3" in out

    def test_invalid_cycle_count(self, capsys):
        code, _, err = run(
            capsys, "synth", "--scheme", "cycle", "--n", "11", "--c", "99"
        )
        assert code == 2
        assert "1..10" in err

    def test_ladder_rejects_cycle_count(self, capsys):
        code, _, err = run(
            capsys, "synth", "--scheme", "ladder", "--n", "5", "--c", "2"
        )
        assert code == 2
        assert "no cycle count" in err
        # nor do the fixed workspace networks
        for scheme in ("workspace-ccx", "workspace-c3x"):
            code, out, err = run(capsys, "synth", "--scheme", scheme, "--c", "7")
            assert code == 2
            assert out == ""
            assert f"the {scheme} scheme takes no cycle count" in err

    @pytest.mark.parametrize("argv", [
        ["ladder", "--n", "100000000000000000000"],
        ["two-cycle", "--n", "100000000000000000000"],
        ["cycle", "--n", "100000000000000000000", "--c", "3"],
    ])
    def test_overlarge_n_exits_two(self, capsys, tmp_path, argv):
        path = tmp_path / "c.mq"
        code, out, err = run(capsys, "synth", "--scheme", *argv, "--out", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        assert not path.exists()

    def test_out_of_memory_exits_two(self, capsys, monkeypatch, tmp_path):
        # a build too large to hold, such as a ladder at --n 9999999999999,
        # raises MemoryError, often with no message; patched in, as a real
        # one may get the process killed on a host that overcommits
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(cli, "build_scheme", exhausted)
        path = tmp_path / "c.mq"
        code, out, err = run(capsys, "synth", "--scheme", "ladder", "--n", "5",
                             "--out", str(path))
        assert (code, out, err) == (2, "", "error: out of memory\n")
        assert not path.exists()

    def test_missing_n(self, capsys):
        code, _, err = run(capsys, "synth", "--scheme", "ladder")
        assert code == 2
        assert "--n" in err

    @pytest.mark.parametrize("argv, message", [
        (["ladder", "--n", "5", "--c", "2"], "the ladder scheme takes no cycle count"),
        (["two-cycle", "--n", "5", "--c", "2"], "the two-cycle scheme has a fixed cycle count"),
        (["workspace-ccx", "--c", "1"], "the workspace-ccx scheme takes no cycle count"),
        (["workspace-c3x", "--n", "4", "--c", "1"],
         "the workspace-c3x scheme takes no cycle count"),
        (["workspace-ccx", "--n", "3"], "workspace-ccx is fixed at n=2"),
        (["cycle", "--c", "2"], "scheme 'cycle' needs --n"),
        (["ladder", "--c", "2"], "scheme 'ladder' needs --n"),
    ])
    def test_refusal_messages(self, capsys, argv, message):
        code, out, err = run(capsys, "synth", "--scheme", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_scheme_choices_are_the_table(self, capsys):
        code, out, _ = run(capsys, "synth", "--help")
        assert code == 0
        assert "{" + ",".join(costs.SCHEMES) + "}" in out
        assert list(costs.SCHEMES) == [
            "ladder", "cycle", "two-cycle", "workspace-ccx", "workspace-c3x"]

    def test_unknown_scheme_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "synth", "--scheme", "pyramid", "--n", "4")
        assert code == 2


class TestSynthBuildsOnce:
    BUILDERS = ("build_cnx", "build_cycle_cnx", "build_cycle_cnx_auto",
                "build_two_cycle_cnx", "build_workspace_toffoli", "build_workspace_c3x")

    @pytest.mark.parametrize("argv", [
        ["--scheme", "ladder", "--n", "6"],
        ["--scheme", "cycle", "--n", "8", "--c", "2"],
        ["--scheme", "cycle", "--n", "10"],
        ["--scheme", "two-cycle", "--n", "7"],
        ["--scheme", "workspace-c3x"],
    ])
    @pytest.mark.parametrize("basis", ["toffoli", "cnot", "cv"])
    def test_one_build_one_lowering_one_pairing(self, capsys, monkeypatch, tmp_path,
                                                argv, basis):
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for name in self.BUILDERS:
            monkeypatch.setattr(costs, name, counted("build", getattr(costs, name)))
        for module in (cli, costs):
            monkeypatch.setattr(module, "lower_circuit",
                                counted("lower", module.lower_circuit))
        monkeypatch.setattr(decomp, "peres_pairing",
                            counted("pairing", decomp.peres_pairing))
        code, out, _ = run(capsys, "synth", *argv, "--basis", basis,
                           "--out", str(tmp_path / "o.json"))
        assert code == 0
        assert "verify  exact" in out
        pairings = 0 if basis == "toffoli" else 1
        assert sorted(calls) == ["build", "lower"] + ["pairing"] * pairings


class TestVerify:
    def test_good_circuit(self, capsys, tmp_path):
        path = tmp_path / "l4.mct"
        run(capsys, "synth", "--scheme", "ladder", "--n", "4", "--basis", "cv",
            "--out", str(path))
        code, out, _ = run(
            capsys, "verify", "--circuit", str(path), "--oracle", "cnx:4"
        )
        assert code == 0
        assert "verdict exact" in out

    def test_cnot_build_prints_no_float_dust(self, capsys, tmp_path):
        # each input's sign is read off the bit planes, where multiplying
        # the phases out gave 2.22045e-15
        path = tmp_path / "c9.mq"
        run(capsys, "synth", "--scheme", "cycle", "--n", "9", "--basis", "cnot",
            "--out", str(path))
        code, out, _ = run(
            capsys, "verify", "--circuit", str(path), "--oracle", "cnx:9"
        )
        assert code == 0
        assert out == "verdict exact\nmax deviation 0\n"

    def test_diagonal_phase_exits_three(self, capsys, tmp_path):
        # a lone relative-phase member is only diagonally equivalent
        base = new_circuit(
            [QubitRole.CONTROL, QubitRole.CONTROL, QubitRole.TARGET]
        )
        member = Circuit(
            base.roles, lower_toffoli(0, 1, 2, ToffoliRule.RELATIVE_PHASE), base.meta
        )
        path = tmp_path / "member.mct"
        save(member, path)
        code, out, _ = run(
            capsys, "verify", "--circuit", str(path), "--oracle", "cnx:2"
        )
        assert code == 3
        assert "diagonal_phase" in out

    def test_mismatch_prints_witness(self, capsys, tmp_path):
        from mctsynth.ladder import build_cnx

        good = build_cnx(3)
        broken = Circuit(good.roles, good.gates[:-1], good.meta)
        path = tmp_path / "broken.mct"
        save(broken, path)
        code, out, _ = run(
            capsys, "verify", "--circuit", str(path), "--oracle", "cnx:3"
        )
        assert code == 3
        assert "mismatch" in out
        assert "witness input |" in out

    def test_cnu_oracle(self, capsys, tmp_path):
        from mctsynth.decomp import lower_circuit
        from mctsynth.ir import MAT_Z
        from mctsynth.ladder import build_cnu

        circ = lower_circuit(build_cnu(2, MAT_Z), GateBasis.CV_BASIS)
        path = tmp_path / "cz.mct"
        save(circ, path)
        code, out, _ = run(
            capsys, "verify", "--circuit", str(path), "--oracle", "cnu:2:z"
        )
        assert code == 0
        assert "verdict exact" in out

    def test_too_many_inputs_exits_two(self, capsys, tmp_path):
        # 32 computational qubits overflow the classical engine's keys;
        # the check must refuse before enumerating 2**32 inputs
        from mctsynth.ladder import build_cnx

        path = tmp_path / "l31.mct"
        save(build_cnx(31), path)
        code, _, err = run(
            capsys, "verify", "--circuit", str(path), "--oracle", "cnx:31"
        )
        assert code == 2
        assert "63-bit keys" in err

    def test_unknown_unitary_name(self, capsys, tmp_path):
        path = tmp_path / "x.mct"
        run(capsys, "synth", "--scheme", "ladder", "--n", "2", "--out", str(path))
        code, _, err = run(
            capsys, "verify", "--circuit", str(path), "--oracle", "cnu:2:q"
        )
        assert code == 2
        assert "unknown unitary" in err

    def test_control_count_mismatch(self, capsys, tmp_path):
        path = tmp_path / "l3.mct"
        run(capsys, "synth", "--scheme", "ladder", "--n", "3", "--out", str(path))
        code, _, err = run(
            capsys, "verify", "--circuit", str(path), "--oracle", "cnx:4"
        )
        assert code == 2
        assert "controls" in err

    def test_missing_file(self, capsys):
        code, _, err = run(
            capsys, "verify", "--circuit", "no-such.mct", "--oracle", "cnx:3"
        )
        assert code == 2
        assert "cannot read" in err

    @pytest.mark.parametrize("spec", ["cnx:01", "cnx: 1", "cnx:+1", "cnx:\u0661",
                                      "cnu:01:z", "cnx:0", "cnx:-1"])
    def test_oracle_count_spelled_as_files_spell_it(self, capsys, tmp_path, spec):
        # the one spelling of 1 is "1", as in the circuit files
        path = tmp_path / "c1.mct"
        run(capsys, "synth", "--scheme", "ladder", "--n", "1", "--out", str(path))
        code, out, err = run(capsys, "verify", "--circuit", str(path), "--oracle", spec)
        assert (code, out) == (2, "")
        count = spec.split(":")[1]
        if count == "0":
            assert err == "error: oracle control count must be positive, got 0\n"
        else:
            assert err == f"error: bad oracle control count {count!r}\n"
        assert run(capsys, "verify", "--circuit", str(path), "--oracle", "cnx:1")[0] == 0

    def test_bad_oracle_spec(self, capsys, tmp_path):
        path = tmp_path / "c.mct"
        run(capsys, "synth", "--scheme", "ladder", "--n", "2", "--out", str(path))
        code, _, err = run(
            capsys, "verify", "--circuit", str(path), "--oracle", "magic"
        )
        assert code == 2
        assert "oracle spec" in err


class TestTable:
    def test_csv_row(self, capsys):
        code, out, _ = run(capsys, "table", "--max", "3", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("n,ancilla,ours,baseline")
        assert lines[1].startswith("3,2,13,14,13,")

    def test_text_default(self, capsys):
        code, out, _ = run(capsys, "table", "--max", "15")
        assert code == 0
        assert len(out.splitlines()) == 14

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "table", "--max", "10", "--format", "csv")
        _, second, _ = run(capsys, "table", "--max", "10", "--format", "csv")
        assert first == second

    def test_out_of_range(self, capsys):
        code, _, err = run(capsys, "table", "--max", "100")
        assert code == 2
        assert "3..64" in err

    def test_max_64_matches_golden_file(self, capsys):
        code, out, _ = run(capsys, "table", "--max", "64")
        assert code == 0
        assert out.encode() == (DATA / "table64.txt").read_bytes()


class TestParser:
    def test_matched_argv_builds_no_parser(self, capsys, monkeypatch):
        built, seen = [], []
        real = cli.build_parser

        def recording():
            built.append(real())
            return built[-1]

        def recorded(func):
            def handler(args):
                seen.append(dict(vars(args)))
                return func(args)
            return handler

        # the handlers are recorded in the table, so both paths reach them
        for name, (func, summary, options) in cli._COMMANDS.items():
            monkeypatch.setitem(cli._COMMANDS, name, (recorded(func), summary, options))
        monkeypatch.setattr(cli, "build_parser", recording)
        code, out, _ = run(capsys, "synth", "--scheme", "ladder", "--n", "3")
        assert code == 0
        assert "toffoli  form 3  built 3" in out
        code, out, _ = run(capsys, "table", "--max", "3", "--format", "csv")
        assert (code, out.split(",")[0]) == (0, "n")
        assert built == []
        # taken by argparse, which builds the parser
        code, out, _ = run(capsys, "table", "--max=3")
        assert (code, out.split()[:2]) == (0, ["n", "ancilla"])
        # neither synth's arguments nor csv carry over, on either path
        code, out, _ = run(capsys, "table", "--max", "3")
        assert (code, out.split()[:2]) == (0, ["n", "ancilla"])
        code, out, _ = run(capsys, "table", "--max=3", "--format=csv")
        assert (code, out.split(",")[0]) == (0, "n")
        synth, table = cli._COMMANDS["synth"][0], cli._COMMANDS["table"][0]
        assert seen == [
            {"command": "synth", "func": synth, "scheme": "ladder", "n": 3, "c": None,
             "basis": "toffoli", "out": None, "format": None, "no_verify": False},
            {"command": "table", "func": table, "max": 3, "format": "csv"},
            {"command": "table", "func": table, "max": 3, "format": "text"},
            {"command": "table", "func": table, "max": 3, "format": "text"},
            {"command": "table", "func": table, "max": 3, "format": "csv"},
        ]

    # the well-formed argv of the tests above, with plain paths
    CANONICAL = [
        ["synth", "--scheme", "ladder", "--n", "3"],
        ["synth", "--scheme", "ladder"],
        ["synth", "--scheme", "cycle", "--n", "5", "--c", "2", "--basis", "cv",
         "--out", "c52.mct"],
        ["synth", "--scheme", "ladder", "--n", "3", "--out", "c.mct", "--no-verify"],
        ["synth", "--scheme", "cycle", "--n", "16", "--basis", "cnot", "--out", "c16.mq"],
        ["synth", "--scheme", "workspace-c3x", "--basis", "cv", "--out", "w.mct"],
        ["synth", "--scheme", "workspace-ccx", "--c", "7"],
        ["synth", "--scheme", "two-cycle", "--n", "6", "--format", "json", "--out", "t"],
        ["verify", "--circuit", "l4.mct", "--oracle", "cnx:4"],
        ["verify", "--oracle", "cnu:3:h", "--circuit", "p.mct"],
        ["table"],
        ["table", "--max", "3"],
        ["table", "--max", "64", "--format", "csv"],
        ["convert", "--infile", "a.mct", "--out", "a.json"],
        ["convert", "--infile", "a.json", "--out", "b", "--format", "text"],
    ]
    VALUES = ["-5", " 7", "\u0663", "3.0", "", "-", "x", "0", "pyramid", "TEXT", "csv",
              "json", "cv", "--", "a=b", "synth"]

    @staticmethod
    def _mutate(rng, argv):
        argv = list(argv)
        i = rng.randrange(len(argv) + 1)
        kind = rng.randrange(9)
        options = [j for j, a in enumerate(argv) if a.startswith("--") and len(a) > 2]
        if kind == 0 and len(argv) > 1:
            del argv[rng.randrange(1, len(argv))]
        elif kind == 1 and options:
            j = rng.choice(options)
            argv += argv[j:j + 2]
        elif kind == 2 and options:
            j = rng.choice(options)
            argv[j] = argv[j][:rng.randrange(3, len(argv[j]) + 1)]
        elif kind == 3 and options:
            j = rng.choice(options)
            argv[j:j + 2] = ["=".join(argv[j:j + 2])]
        elif kind == 4:
            argv.insert(i, rng.choice(["-h", "--help", "--"]))
        elif kind == 5 and len(argv) > 1:
            argv[rng.randrange(1, len(argv))] = rng.choice(TestParser.VALUES)
        elif kind == 6 and options:
            j = rng.choice(options)
            pair = argv[j:j + 2]
            del argv[j:j + 2]
            argv[1:1] = pair
        elif kind == 7:
            argv[0] = rng.choice(["synth", "verify", "table", "convert", "synt", "-h", ""])
        else:
            argv.insert(i, rng.choice(TestParser.VALUES))
        return argv

    def test_match_gives_what_argparse_gives(self, capsys):
        parser = cli.build_parser()
        for argv in self.CANONICAL:
            matched = cli._match(argv)
            assert matched is not None, argv
            assert vars(matched) == vars(parser.parse_args(argv))
        rng = random.Random(25)
        taken = left = 0
        for _ in range(6000):
            argv = rng.choice(self.CANONICAL)
            for _ in range(rng.randrange(1, 3)):
                argv = self._mutate(rng, argv)
            matched = cli._match(argv)
            if matched is None:
                left += 1
                continue
            taken += 1
            assert vars(matched) == vars(parser.parse_args(argv)), argv
        capsys.readouterr()
        # both paths are exercised by the corpus
        assert taken > 500 and left > 4000


class TestConvert:
    def test_round_trip_preserves_bytes(self, capsys, tmp_path):
        text_path = tmp_path / "a.mct"
        run(capsys, "synth", "--scheme", "cycle", "--n", "7", "--c", "2",
            "--basis", "cv", "--out", str(text_path))
        json_path = tmp_path / "a.json"
        code, _, _ = run(
            capsys, "convert", "--infile", str(text_path), "--out", str(json_path)
        )
        assert code == 0
        back = tmp_path / "b.mct"
        code, _, _ = run(
            capsys, "convert", "--infile", str(json_path), "--out", str(back)
        )
        assert code == 0
        assert back.read_bytes() == text_path.read_bytes()

    def test_missing_input(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "convert", "--infile", str(tmp_path / "nope.mct"),
            "--out", str(tmp_path / "o.mct"),
        )
        assert code == 2
        assert "cannot read" in err

    def test_unwritable_output(self, capsys, tmp_path):
        infile = tmp_path / "a.mq"
        save(new_circuit([QubitRole.CONTROL, QubitRole.TARGET]), infile)
        out = tmp_path / "missing" / "x.json"
        code, stdout, err = run(capsys, "convert", "--infile", str(infile), "--out", str(out))
        assert (code, stdout) == (2, "")
        assert err == f"error: cannot write {out}: No such file or directory\n"

    @pytest.mark.parametrize("name, body, out, message", [
        ("a.mct", "mctqasm v1 width 2\nroles ct\nmeta scheme=a=b n=1 c=- basis=-\ncx 0 1\n",
         "o.json", "line 3: bad meta field scheme='a=b'"),
        ("a.json", '{"format": "mct-circuit", "version": 1, "width": 0, "roles": "", '
         '"gates": []}', "o.mct", "bad width 0"),
        ("a.mct", "mctqasm v1 width 2\nroles ct\nmeta n=+1\ncx 0 1\n", "o.json",
         "line 3: bad meta integer n='+1'"),
        ("a.mct", "mctqasm v1 width 02\nroles ct\ncx 0 1\n", "o.json", "line 1: bad width '02'"),
        ("a.mct", "mctqasm v1 width 2\nroles ct\ncx 0 01\n", "o.json",
         "line 3: bad qubit index '01'"),
    ], ids=["text-meta-holding-equals", "json-width-0", "text-meta-plus", "text-width-zero-led",
            "text-index-zero-led"])
    def test_refuses_what_the_other_reader_refuses(self, capsys, tmp_path, name, body,
                                                  out, message):
        path = tmp_path / name
        path.write_text(body)
        code, _, err = run(capsys, "convert", "--infile", str(path),
                           "--out", str(tmp_path / out))
        assert code == 2
        assert err == f"error: {message}\n"
        assert not (tmp_path / out).exists()

    def test_utf8_both_ways_under_an_ascii_locale(self, tmp_path):
        """Files are UTF-8 whatever the locale: a meta string outside
        ASCII converts both ways under the C locale."""
        env = dict(os.environ, PYTHONCOERCECLOCALE="0", LC_ALL="C", PYTHONUTF8="0",
                   PYTHONPATH=str(Path(mctsynth.__file__).parents[1]))
        circ = append(new_circuit([QubitRole.CONTROL, QubitRole.TARGET],
                                  CircuitMeta(scheme="\u00e9t\u00e9")), cnot(0, 1))
        save(circ, tmp_path / "a.mct")
        # json.dumps escapes the string; this file holds it as raw UTF-8
        raw = dumps_json(circ).replace("\\u00e9", "\u00e9")
        (tmp_path / "raw.json").write_bytes(raw.encode("utf-8"))
        for infile, out in (("a.mct", "b.json"), ("b.json", "b.mct"), ("raw.json", "c.mct")):
            proc = subprocess.run(
                [sys.executable, "-m", "mctsynth.cli", "convert",
                 "--infile", str(tmp_path / infile), "--out", str(tmp_path / out)],
                env=env, capture_output=True,
            )
            assert proc.returncode == 0, proc.stderr
        text = dumps_text(circ).encode("utf-8")
        assert (tmp_path / "a.mct").read_bytes() == text
        assert (tmp_path / "b.mct").read_bytes() == text
        assert (tmp_path / "c.mct").read_bytes() == text
        assert (tmp_path / "b.json").read_bytes() == dumps_json(circ).encode("utf-8")


class TestMalformedJson:
    HEAD = '{"format": "mct-circuit", "version": 1, "width": 2, "roles": "ct", '

    @pytest.mark.parametrize("body", [
        '"gates": 5}',
        '"meta": [1], "gates": []}',
        '"meta": {"n": "x"}, "gates": []}',
        '"gates": [{"kind": "cx", "qubits": [0.2, 1.9]}]}',
        '"meta": {"scheme": "my scheme"}, "gates": []}',
    ])
    @pytest.mark.parametrize("command", ["verify", "convert"])
    def test_exits_two_without_traceback(self, capsys, tmp_path, body, command):
        path = tmp_path / "bad.json"
        path.write_text(self.HEAD + body)
        if command == "verify":
            argv = ["verify", "--circuit", str(path), "--oracle", "cnx:1"]
        else:
            argv = ["convert", "--infile", str(path), "--out", str(tmp_path / "o.mct")]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error: ")
        assert not (tmp_path / "o.mct").exists()


    def test_fractional_width_exits_two(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "mct-circuit", "version": 1, "width": 2.9, '
                        '"roles": "ct", "gates": [{"kind": "cx", "qubits": [0.2, 1.9]}]}')
        code, _, err = run(capsys, "convert", "--infile", str(path),
                           "--out", str(tmp_path / "o.mct"))
        assert code == 2
        assert "bad width" in err
        assert not (tmp_path / "o.mct").exists()


class TestNonFiniteMatrix:
    """A matrix entry that is not finite, or that overflows the
    unitarity check, is refused with one line on stderr and no numpy
    warning, in a process of its own, where warnings print."""

    TEXT = "mctqasm v1 width 2\nroles ct\nmeta scheme=- n=- c=- basis=-\n{} 0\n"

    @pytest.mark.parametrize("name, body, message", [
        ("inf.mq", TEXT.format("u(inf,0,0,1)"), "line 4: matrix is not unitary"),
        ("big.json", "1e308", "bad gate entry 0: matrix is not unitary"),
        ("inf.json", "Infinity", "bad gate entry 0: matrix is not unitary"),
    ], ids=["text-inf", "json-1e308", "json-Infinity"])
    def test_verify_prints_one_error_line(self, tmp_path, name, body, message):
        if name.endswith(".json"):
            u = append(new_circuit([QubitRole.CONTROL, QubitRole.TARGET]),
                       local(0, ((1 + 0j, 0j), (0j, 1 + 0j))))
            body = dumps_json(u).replace("1.0", body, 1)
        path = tmp_path / name
        path.write_text(body)
        env = dict(os.environ, PYTHONPATH=str(Path(mctsynth.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "mctsynth.cli", "verify", "--circuit", str(path),
             "--oracle", "cnx:1"],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr == f"error: {message}\n"


class TestTopLevel:
    def test_no_command_is_usage_error(self, capsys):
        assert run(capsys, )[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0


class TestCollector:
    """main runs its command with the cyclic garbage collector paused,
    and hands the caller back the collector state it found."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_restored_on_every_exit(self, capsys, monkeypatch, tmp_path, enabled):
        from mctsynth.ladder import build_cnx

        good = build_cnx(3)
        broken = tmp_path / "broken.mct"
        save(Circuit(good.roles, good.gates[:-1], good.meta), broken)
        cases = [
            (["synth", "--scheme", "ladder", "--n", "3", "--out", str(tmp_path / "l3.mct")], 0),
            (["verify", "--circuit", str(tmp_path / "missing.mct"), "--oracle", "cnx:3"], 2),
            (["verify", "--circuit", str(broken), "--oracle", "cnx:3"], 3),
            (["--help"], 0),
            (["synth", "--scheme", "nope", "--n", "3"], 2),
        ]
        was = gc.isenabled()
        try:
            for argv, want in cases:
                gc.enable() if enabled else gc.disable()
                assert main(argv) == want, argv
                assert gc.isenabled() is enabled, argv

            # an exception main does not map to an exit code
            def fails(*args):
                raise RuntimeError("unexpected")

            monkeypatch.setattr(cli, "build_scheme", fails)
            gc.enable() if enabled else gc.disable()
            with pytest.raises(RuntimeError):
                main(["synth", "--scheme", "ladder", "--n", "3"])
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if was else gc.disable()
        capsys.readouterr()

    def test_large_synth_runs_no_collection(self, capsys):
        starts = []

        def count(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        was = gc.isenabled()
        gc.enable()
        gc.callbacks.append(count)
        try:
            code = main(["synth", "--scheme", "cycle", "--n", "544", "--basis", "cnot"])
        finally:
            gc.callbacks.remove(count)
            gc.enable() if was else gc.disable()
        assert code == 0
        assert starts == []
        capsys.readouterr()
