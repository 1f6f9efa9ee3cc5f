"""Command-line interface: outputs, exit codes, error reporting."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import toyfield
from toyfield.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_scenario_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "mzi_phase", "--phase", "pi", "--engine", "toy",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out) == {"detector_R": "1"}

    def test_scenario_table(self, capsys):
        code, out, _ = run_cli(capsys, "run", "bomb_tester", "--functional")
        assert code == 0
        assert "exploded" in out and "1/2" in out

    def test_quantum_engine(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "quantum_eraser", "--basis", "P", "--engine", "quantum",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out) == {"a+ & detector_L": "1/2", "a- & detector_R": "1/2"}

    def test_montecarlo_requires_seed(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "mzi_phase", "--engine", "montecarlo", "--shots", "100"
        )
        assert code == 2
        assert "requires --shots and --seed" in err

    @pytest.mark.parametrize("engine", ["montecarlo", "ca"])
    @pytest.mark.parametrize("shots", ["0", "-5"])
    def test_sampled_engine_rejects_shots_below_one(self, capsys, engine, shots):
        code, out, err = run_cli(
            capsys, "run", "mzi_whichway", "--engine", engine,
            "--shots", shots, "--seed", "1",
        )
        assert code == 2
        assert out == ""
        assert "--shots must be at least 1" in err

    @pytest.mark.parametrize("engine", ["montecarlo", "ca"])
    def test_sampled_engine_rejects_more_shots_than_counters(self, capsys, monkeypatch, engine):
        from toyfield import montecarlo

        monkeypatch.setattr(montecarlo, "_block", lambda *args: pytest.fail("drew a shot"))
        code, out, err = run_cli(
            capsys, "run", "bomb_tester", "--functional", "--engine", engine,
            "--shots", str(2**64 + 1), "--seed", "1",
        )
        assert code == 2
        assert out == ""
        assert "--shots must be at least 1 and at most 2**64" in err

    @pytest.mark.parametrize("engine", ["montecarlo", "ca"])
    def test_sampled_engine_rejects_negative_seed(self, capsys, engine):
        code, out, err = run_cli(
            capsys, "run", "bomb_tester", "--engine", engine, "--shots", "10", "--seed", "-1",
        )
        assert code == 2
        assert out == ""
        assert "--seed must be non-negative" in err

    def test_exact_engine_rejects_shots(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "mzi_phase", "--engine", "toy", "--shots", "10", "--seed", "1"
        )
        assert code == 2

    def test_montecarlo_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "mzi_whichway", "--engine", "montecarlo",
            "--shots", "2000", "--seed", "7", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["shots"] == 2000
        assert sum(payload["counts"].values()) == 2000

    def test_ca_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "mzi_phase", "--phase", "0", "--engine", "ca",
            "--shots", "500", "--seed", "3", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["counts"] == {"detector_L": 500}

    @pytest.mark.parametrize("engine", ["montecarlo", "ca"])
    def test_sampled_table_rows_share_the_shot_count(self, capsys, engine):
        code, out, _ = run_cli(
            capsys, "run", "mzi_whichway", "--engine", engine,
            "--shots", "1000", "--seed", "3",
        )
        assert code == 0
        rows = [line.split() for line in out.splitlines()]
        fractions = [next(w for w in row if "/" in w) for row in rows]
        assert len(fractions) == 4
        for row, fraction in zip(rows, fractions):
            count, shots = fraction.split("/")
            assert shots == "1000" and f"({count}" in row

    def test_sampled_json_names_its_provenance(self, capsys, tmp_path):
        from toyfield.montecarlo import RNG_SCHEME

        _, text, _ = run_cli(capsys, "run", "mzi_whichway", "--show-program")
        path = tmp_path / "whichway.mzi"
        path.write_text(text)
        digests, shapes = set(), set()
        for engine in ("ca", "montecarlo"):
            for target in ("mzi_whichway", str(path)):
                code, out, _ = run_cli(
                    capsys, "run", target, "--engine", engine,
                    "--shots", "200", "--seed", "5", "--format", "json",
                )
                assert code == 0
                payload = json.loads(out)
                assert payload["seed"] == 5 and payload["rng"] == RNG_SCHEME
                assert payload["toyfield_version"]
                digests.add(payload["program_sha256"])
                shapes.add(tuple(sorted(payload)))
        assert len(digests) == 1
        assert len(shapes) == 1

    def test_program_file(self, capsys, tmp_path):
        path = tmp_path / "circuit.mzi"
        path.write_text(
            "mode L R;\nsource L;\nvacuum R;\nbs L R;\nphase R pi;\nbs L R;\n"
            "detect L as dl;\ndetect R as dr;\n"
        )
        code, out, _ = run_cli(capsys, "run", str(path), "--engine", "quantum",
                               "--format", "json")
        assert code == 0
        assert json.loads(out) == {"dl=0 dr=1": "1"}

    def test_parse_error_exit_code(self, capsys, tmp_path):
        path = tmp_path / "broken.mzi"
        path.write_text("mode L R;\nsource L\n")
        code, _, err = run_cli(capsys, "run", str(path))
        assert code == 3
        assert "line 2" in err

    def test_capability_error_exit_code(self, capsys, tmp_path):
        path = tmp_path / "eraser.mzi"
        path.write_text(
            "mode L R;\nancilla A;\nsource L;\nvacuum R;\nbs L R;\ncnot R A;\n"
            "bs L R;\nmeasure P A as p;\ndetect L as dl;\ndetect R as dr;\n"
        )
        code, _, err = run_cli(capsys, "run", str(path), "--engine", "ca",
                               "--shots", "10", "--seed", "1")
        assert code == 3
        assert "ancilla" in err

    def test_ca_runs_every_ancilla_free_scenario(self, capsys):
        code, out, _ = run_cli(capsys, "run", "mirror_removed", "--engine", "ca",
                               "--shots", "1000", "--seed", "7", "--format", "json")
        assert code == 0
        counts = json.loads(out)["counts"]
        assert set(counts) == {"no_click", "detector_L", "detector_R"}
        assert sum(counts.values()) == 1000

    def test_ca_refuses_an_ancilla_scenario(self, capsys):
        code, _, err = run_cli(capsys, "run", "quantum_eraser", "--engine", "ca",
                               "--shots", "10", "--seed", "1")
        assert code == 3
        assert "ancilla" in err

    def test_ca_counts_more_event_bits_than_a_pattern_table_holds(self, capsys, tmp_path):
        # the events read 18 coin bits: one lane per shot
        path = tmp_path / "chain.mzi"
        path.write_text("mode a b; source a;" + "".join(
            f" bs a b; detect a as x{i};" for i in range(17)))
        code, out, _ = run_cli(capsys, "run", str(path), "--engine", "ca",
                               "--shots", "10", "--seed", "1", "--format", "json")
        assert code == 0
        assert sum(json.loads(out)["counts"].values()) == 10

    @pytest.mark.parametrize("engine", ["ca", "montecarlo"])
    @pytest.mark.parametrize("events", [40, 63, 64])
    def test_long_constant_chains(self, capsys, tmp_path, engine, events):
        # every event reads 1 whatever the coins, and the outcome code has
        # more bits than an int64 holds
        path = tmp_path / "chain.mzi"
        path.write_text("mode a; source a;" + "".join(
            f" measure N a as x{i};" for i in range(events)))
        code, out, _ = run_cli(capsys, "run", str(path), "--engine", engine,
                               "--shots", "1000", "--seed", "1", "--format", "json")
        assert code == 0
        ones = " ".join(f"{label}=1" for label in sorted(f"x{i}" for i in range(events)))
        assert json.loads(out)["counts"] == {ones: 1000}

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "run", "nosuch.mzi")
        assert code == 2

    def test_stdin_program(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO(
                "mode L R; source L; vacuum R; bs L R; bs L R;"
                "detect L as dl; detect R as dr;"
            ),
        )
        code, out, _ = run_cli(capsys, "run", "-", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"dl=1 dr=0": "1"}

    def test_non_dyadic_quantum_result_is_an_error(self, capsys, tmp_path):
        # Two photons over three modes: the Born weights are not dyadic.
        path = tmp_path / "two_photons.mzi"
        path.write_text(
            "mode L R E; source L; source R; bs R E; bs R L; bs E R;"
            "measure N E destructive as x1;"
        )
        code, out, err = run_cli(capsys, "run", str(path), "--engine", "quantum")
        assert code == 3
        assert out == ""
        assert err.startswith("error: probability ")
        assert err.rstrip().endswith("is not dyadic within 1e-09")

    def test_quantum_weights_finer_than_one_64th(self, capsys, tmp_path):
        # Seven fair ancilla measurements: 128 outcomes of 1/128 each.
        path = tmp_path / "alternating.mzi"
        path.write_text("mode L;\nancilla A;\n" + "".join(
            f"measure {'PQ'[i % 2]} A as m{i};\n" for i in range(7)))
        toy = run_cli(capsys, "run", str(path), "--engine", "toy", "--format", "json")
        quantum = run_cli(capsys, "run", str(path), "--engine", "quantum", "--format", "json")
        assert quantum == toy
        assert toy[0] == 0 and len(json.loads(toy[1])) == 128

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["run"])
        assert err.value.code == 2


class TestUnreadableTarget:
    """A path that cannot be read is a usage error; text that is not UTF-8
    is a program that does not parse."""

    @pytest.mark.parametrize("command", ["run", "grid"])
    def test_directory_exits_two(self, capsys, tmp_path, command):
        code, out, err = run_cli(capsys, command, str(tmp_path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("command", ["run", "grid"])
    def test_non_utf8_file_exits_three(self, capsys, tmp_path, command):
        path = tmp_path / "bad.mzi"
        path.write_bytes(b"mode L R;\xff\n")
        code, out, err = run_cli(capsys, command, str(path))
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and "UTF-8" in err

    def test_non_utf8_stdin_exits_three(self, capsys, monkeypatch):
        import io

        stdin = io.TextIOWrapper(io.BytesIO(b"mode L R;\xff\n"), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, err = run_cli(capsys, "run", "-")
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and "UTF-8" in err


SCENARIO_FLAGS = {
    "mzi_phase": ["--phase", "pi"],
    "mzi_whichway": ["--kind", "destructive"],
    "bomb_tester": ["--faulty"],
    "delayed_choice": ["--choice", "phasepi", "--timing", "before"],
    "quantum_eraser": ["--basis", "Q", "--ancilla-timing", "before"],
    "mirror_removed": [],
}


class TestScenarioFlags:
    """A scenario flag the target does not take is refused, naming the flag;
    program files take none."""

    @pytest.mark.parametrize("command", ["run", "grid"])
    @pytest.mark.parametrize("target", sorted(SCENARIO_FLAGS))
    def test_each_scenario_takes_its_own_flags(self, capsys, command, target):
        code, out, _ = run_cli(capsys, command, target, *SCENARIO_FLAGS[target])
        assert code == 0
        assert out

    @pytest.mark.parametrize("command", ["run", "grid"])
    @pytest.mark.parametrize(
        "target, flags, named",
        [
            ("bomb_tester", ["--phase", "pi", "--basis", "Q", "--timing", "before"], "--phase"),
            ("mzi_phase", ["--faulty"], "--faulty"),
            ("mzi_whichway", ["--kind", "destructive", "--functional"], "--functional"),
            ("mirror_removed", ["--ancilla-timing", "before"], "--ancilla-timing"),
        ],
    )
    def test_a_flag_the_scenario_does_not_take_exits_two(
        self, capsys, command, target, flags, named
    ):
        code, out, err = run_cli(capsys, command, target, *flags)
        assert code == 2
        assert out == ""
        assert named in err

    @pytest.mark.parametrize("command", ["run", "grid"])
    def test_program_file_takes_no_flags(self, capsys, tmp_path, command):
        path = tmp_path / "prog.mzi"
        path.write_text("mode L R; source L; vacuum R; bs L R; detect L as dl; detect R as dr;")
        code, out, err = run_cli(capsys, command, str(path), "--kind", "destructive")
        assert code == 2
        assert out == ""
        assert "--kind" in err


class TestClosedStdout:
    """A reader that closes stdout before the output is written, as ``| head
    -3`` does: the command exits 141 and writes nothing to stderr.  The
    pipe's read end is closed before the process starts, so its first write
    to stdout fails, with no race."""

    @pytest.mark.parametrize("argv", [("grid", "mzi_whichway"),
                                      ("run", "mzi_whichway", "--format", "json")],
                             ids=["grid", "run-json"])
    def test_exits_141_without_a_traceback(self, argv):
        src = str(Path(toyfield.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        read, write = os.pipe()
        os.close(read)
        try:
            result = subprocess.run([sys.executable, "-m", "toyfield.cli", *argv],
                                    stdout=write, stderr=subprocess.PIPE, timeout=120,
                                    env={**os.environ, "PYTHONPATH": path})
        finally:
            os.close(write)
        assert (result.returncode, result.stderr) == (141, b"")


class TestGrid:
    def test_initial_pattern(self, capsys):
        code, out, _ = run_cli(capsys, "grid", "mzi_phase", "--phase", "0",
                               "--steps", "0")
        assert code == 0
        assert "rows (N_L,Phi_L)" in out
        # The input block: left mode occupied, phases free.
        rows = [line for line in out.splitlines() if line.startswith("  1")]
        assert rows[0].endswith(" #  #  .  .")
        assert rows[1].endswith(" #  #  .  .")

    def test_branches_after_measurement(self, capsys):
        code, out, _ = run_cli(capsys, "grid", "mzi_whichway", "--steps", "2")
        assert code == 0
        assert "which_way=0" in out and "which_way=1" in out
        assert "p=1/2" in out

    def test_anti_diagonal_after_splitter(self, capsys):
        code, out, _ = run_cli(capsys, "grid", "mzi_phase", "--phase", "0",
                               "--steps", "1")
        assert code == 0
        grid_rows = [line for line in out.splitlines() if line.startswith("  ")][2:]
        assert grid_rows[0].endswith(" .  .  .  #")
        assert grid_rows[3].endswith(" #  .  .  .")


    @pytest.mark.parametrize(
        "argv",
        [("grid", "mzi_phase", "--steps", "a"),
         ("run", "mzi_phase", "--format", "grids", "--steps", "1,,2")],
    )
    def test_bad_step_list_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main(list(argv))
        assert err.value.code == 2
        assert "argument --steps" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [("grid",), ("run", "--format", "grids")])
    def test_one_mode_register_is_refused_before_any_output(self, capsys, tmp_path, command):
        path = tmp_path / "one_mode.mzi"
        path.write_text("mode m; source m; detect m as d;")
        code, out, err = run_cli(capsys, command[0], str(path), *command[1:])
        assert code == 3
        assert out == ""
        assert err == "error: grid diagrams need at least two modes\n"

    @pytest.mark.parametrize(
        "engine", [("quantum",), ("ca", "--shots", "10", "--seed", "1"),
                   ("montecarlo", "--shots", "10", "--seed", "1")],
        ids=lambda engine: engine[0],
    )
    def test_grids_of_another_engine_are_a_usage_error(self, capsys, engine):
        code, out, err = run_cli(capsys, "run", "mzi_phase", "--format", "grids",
                                 "--engine", *engine)
        assert code == 2
        assert out == ""
        assert "--format grids" in err

    @pytest.mark.parametrize("command", [("grid",), ("run", "--format", "grids")])
    @pytest.mark.parametrize("steps", ["9", "-1", "0,6"])
    def test_a_step_the_program_lacks_is_refused_before_any_output(self, capsys, command, steps):
        code, out, err = run_cli(capsys, command[0], "mzi_whichway", *command[1:],
                                 "--steps", steps)
        assert code == 2
        assert out == ""
        assert err.startswith("error: --steps ") and "steps 0 to 5" in err

    @pytest.mark.parametrize("engine", [("toy",), ("quantum",)])
    def test_steps_without_grids_is_a_usage_error(self, capsys, engine):
        code, out, err = run_cli(capsys, "run", "mzi_whichway", "--engine", *engine,
                                 "--steps", "1")
        assert code == 2
        assert out == ""
        assert "--format grids" in err

    def test_step_list(self, capsys):
        _, selected, _ = run_cli(capsys, "grid", "mzi_whichway", "--steps", " 2,0")
        _, everything, _ = run_cli(capsys, "grid", "mzi_whichway")
        shown = [line for line in selected.splitlines() if line.startswith("step ")]
        assert shown[0].startswith("step 0:") and len(shown) == 3
        assert all(line in everything.splitlines() for line in shown)


GOLDEN = Path(__file__).parent / "golden"


class TestGridGolden:
    @pytest.mark.parametrize(
        "argv, golden",
        [
            (("quantum_eraser", "--basis", "Q"), "grid_quantum_eraser_Q.txt"),
            (("mirror_removed",), "grid_mirror_removed.txt"),
            (("mzi_whichway",), "grid_mzi_whichway.txt"),
        ],
        ids=["quantum_eraser_Q", "mirror_removed", "mzi_whichway"],
    )
    def test_full_output(self, capsys, argv, golden):
        code, out, _ = run_cli(capsys, "grid", *argv)
        assert code == 0
        assert out == (GOLDEN / golden).read_text(encoding="utf-8")


class TestExactRunsGolden:
    """``toyfield run <file> --format json`` on both exact engines, for the 17
    scenario variants' programs, a program whose toy states leave the valid
    ones (1/3 and 2/3; non-dyadic for the quantum engine) and the in-theory
    witness of ``test_circuits``: the output recorded in
    ``golden/exact_runs.json`` while branch events were still dicts, and the
    engines' keys, one ``(label, value)`` pair per label in label order."""

    RUNS = json.loads((GOLDEN / "exact_runs.json").read_text(encoding="utf-8"))

    def test_the_golden_runs_cover_every_variant(self):
        from test_circuits import LEAVES_THEORY, TestInTheoryWitness
        from toyfield.scenarios import all_variants

        texts = [variant.program_text() for variant in all_variants()]
        texts += [LEAVES_THEORY, TestInTheoryWitness.TEXT]
        assert [run["program"] for run in self.RUNS] == [t for t in texts for _ in range(2)]

    @pytest.mark.parametrize("run", RUNS, ids=lambda run: f"{run['engine']}")
    def test_json_output_and_keys(self, capsys, tmp_path, run):
        from toyfield import circuits

        path = tmp_path / "program.mzi"
        path.write_text(run["program"], encoding="utf-8")
        code, out, _ = run_cli(capsys, "run", str(path), "--engine", run["engine"],
                               "--format", "json")
        assert (code, out) == (run["code"], run["stdout"])
        if code:
            return
        program = circuits.parse(run["program"])
        if run["engine"] == "toy":
            joint = circuits.run_toy_exact(circuits.compile_toy(program))
        else:
            joint = circuits.run_quantum_exact(circuits.compile_quantum(program))
        labels = sorted(program.labels())
        for key in joint:
            assert type(key) is tuple and [label for label, _ in key] == labels
            assert all(type(pair) is tuple and pair[1] in (0, 1) for pair in key)


class TestCheck:
    def test_fast_suites_pass(self, capsys):
        for suite in ("equivalence", "coarse-grain", "destructive"):
            code, out, _ = run_cli(capsys, "check", suite)
            assert code == 0, out
            assert "FAIL" not in out

    def test_locality_suite_small(self, capsys):
        code, out, _ = run_cli(capsys, "check", "locality", "--shots", "2000")
        assert code == 0
        assert "negative control" in out
        for name in ("free shift", "phase", "beamsplitter", "swap"):
            assert f"PASS  time reversal: the CA {name} is its own reverse\n" in out
        assert "PASS  time reversal negative control detected\n" in out

    def test_a_one_way_ca_rule_fails_the_locality_suite(self, capsys, monkeypatch):
        from toyfield import automaton

        def one_way(states, binding, t, coin):
            (n_a, phi_a), (n_b, phi_b) = states
            return (n_b, phi_b ^ binding.parameter[1]), (n_a, phi_a)

        monkeypatch.setitem(automaton._RULES, "phase", one_way)
        code, out, _ = run_cli(capsys, "check", "locality", "--shots", "2000")
        assert code == 1
        assert "FAIL  time reversal: the CA phase is its own reverse\n" in out

    @pytest.mark.parametrize(
        "extra, expected",
        [((), (100_000, 7)), (("--seed", "0"), (100_000, 0)),
         (("--shots", "1", "--seed", "3"), (1, 3))],
    )
    def test_locality_shots_and_seed(self, capsys, monkeypatch, extra, expected):
        from toyfield import checks

        seen = []
        monkeypatch.setattr(
            checks, "_check_locality", lambda shots, seed: seen.append((shots, seed)) or []
        )
        code, _, _ = run_cli(capsys, "check", "locality", *extra)
        assert code == 0
        assert seen == [expected]

    @pytest.mark.parametrize("suite", ["locality", "destructive"])
    def test_shots_below_one_rejected(self, capsys, monkeypatch, suite):
        from toyfield import checks

        monkeypatch.setattr(checks, "_check_locality", lambda shots, seed: pytest.fail("ran"))
        code, out, err = run_cli(capsys, "check", suite, "--shots", "0")
        assert code == 2
        assert out == ""
        assert "--shots must be at least 1" in err

    @pytest.mark.parametrize("suite", ["locality", "destructive"])
    def test_more_shots_than_counters_rejected(self, capsys, monkeypatch, suite):
        from toyfield import checks

        monkeypatch.setattr(checks, "_check_locality", lambda shots, seed: pytest.fail("ran"))
        code, out, err = run_cli(capsys, "check", suite, "--shots", str(2**64 + 1))
        assert code == 2
        assert out == ""
        assert "--shots must be at least 1 and at most 2**64" in err

    @pytest.mark.parametrize("suite", ["locality", "destructive"])
    def test_negative_seed_rejected(self, capsys, monkeypatch, suite):
        from toyfield import checks

        monkeypatch.setattr(checks, "_check_locality", lambda shots, seed: pytest.fail("ran"))
        code, out, err = run_cli(capsys, "check", suite, "--seed", "-1")
        assert code == 2
        assert out == ""
        assert "--seed must be non-negative" in err

    def test_check_all_output(self, capsys):
        code, out, _ = run_cli(capsys, "check", "all")
        assert code == 0
        assert out == (GOLDEN / "check_all.txt").read_text(encoding="utf-8")

    def test_the_equivalence_suite_runs_each_variant_once_per_engine(self, capsys, monkeypatch):
        from toyfield import circuits

        calls = []
        for name in ("run_toy_exact", "run_quantum_exact"):
            real = getattr(circuits, name)
            monkeypatch.setattr(circuits, name,
                                lambda plan, name=name, real=real: calls.append(name) or real(plan))
        code, _, _ = run_cli(capsys, "check", "equivalence")
        assert code == 0
        assert (calls.count("run_toy_exact"), calls.count("run_quantum_exact")) == (17, 17)

    def test_a_timing_row_compares_the_sweeps_own_distributions(self, capsys, monkeypatch):
        from fractions import Fraction

        from toyfield import scenarios

        rows = scenarios.equivalence_sweep()
        tampered = scenarios.OutcomeDistribution({"tampered": Fraction(1)})
        monkeypatch.setattr(scenarios, "equivalence_sweep", lambda: [
            (key, tampered, quantum, False)
            if key == "quantum_eraser[basis=Q,ancilla_timing=before]" else (key, toy, quantum, ok)
            for key, toy, quantum, ok in rows])
        code, out, _ = run_cli(capsys, "check", "equivalence")
        assert code == 1
        timing = [line for line in out.splitlines() if "timing invariance" in line]
        assert len(timing) == 5
        assert [line for line in timing if line.startswith("FAIL")] == [
            "FAIL  eraser timing invariance basis=Q"]

    def test_the_destructive_row_names_the_first_mismatching_state(self, monkeypatch):
        from toyfield import checks
        from toyfield.phase_space import RegisterShape, enumerate_valid_states
        from toyfield.toy_measurement import DisturbanceKind

        real = checks.measure_occupation

        def reversed_destructive(state, mode, kind):
            outcomes = real(state, mode, kind)
            return outcomes[::-1] if kind is DisturbanceKind.DESTRUCTIVE else outcomes

        monkeypatch.setattr(checks, "measure_occupation", reversed_destructive)
        [(_, ok, detail)] = checks._check_destructive()
        first = enumerate_valid_states(RegisterShape(2))[0]
        assert (ok, detail) == (False, f"probabilities differ on {first}")

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["check", "nosuch"])
        assert err.value.code == 2

    def test_failing_check_exits_one(self, capsys, monkeypatch):
        from toyfield import checks

        monkeypatch.setattr(
            checks, "_check_destructive", lambda: [("rigged", False, "boom")]
        )
        code, out, _ = run_cli(capsys, "check", "destructive")
        assert code == 1
        assert "FAIL  rigged" in out


class TestShowProgram:
    def test_scenario_program_text(self, capsys):
        code, out, _ = run_cli(capsys, "run", "quantum_eraser", "--basis", "P",
                               "--show-program")
        assert code == 0
        assert out.startswith("mode L R;\nancilla A;\n")
        assert "cnot R A;" in out and "measure P A as anc;" in out

    def test_file_canonicalization(self, capsys, tmp_path):
        path = tmp_path / "c.mzi"
        path.write_text("mode L R; source L;vacuum R;bs L R;detect L as dl;detect R as dr;")
        code, out, _ = run_cli(capsys, "run", str(path), "--show-program")
        assert code == 0
        assert out == (
            "mode L R;\nsource L;\nvacuum R;\nbs L R;\n"
            "detect L as dl;\ndetect R as dr;\n"
        )
