"""Command-line interface: outputs, exit codes, error reporting."""

import json
from pathlib import Path

import pytest

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

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["run"])
        assert err.value.code == 2


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


GOLDEN = Path(__file__).parent / "golden"


class TestGridGolden:
    @pytest.mark.parametrize(
        "argv, golden",
        [
            (("quantum_eraser", "--basis", "Q"), "grid_quantum_eraser_Q.txt"),
            (("mirror_removed",), "grid_mirror_removed.txt"),
        ],
        ids=["quantum_eraser_Q", "mirror_removed"],
    )
    def test_full_output(self, capsys, argv, golden):
        code, out, _ = run_cli(capsys, "grid", *argv)
        assert code == 0
        assert out == (GOLDEN / golden).read_text(encoding="utf-8")


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

    @pytest.mark.parametrize(
        "extra, expected",
        [((), (100_000, 7)), (("--seed", "0"), (100_000, 0)),
         (("--shots", "1", "--seed", "3"), (1, 3))],
    )
    def test_locality_shots_and_seed(self, capsys, monkeypatch, extra, expected):
        from toyfield import cli

        seen = []
        monkeypatch.setattr(
            cli, "_check_locality", lambda shots, seed: seen.append((shots, seed)) or []
        )
        code, _, _ = run_cli(capsys, "check", "locality", *extra)
        assert code == 0
        assert seen == [expected]

    @pytest.mark.parametrize("suite", ["locality", "destructive"])
    def test_shots_below_one_rejected(self, capsys, monkeypatch, suite):
        from toyfield import cli

        monkeypatch.setattr(cli, "_check_locality", lambda shots, seed: pytest.fail("ran"))
        code, out, err = run_cli(capsys, "check", suite, "--shots", "0")
        assert code == 2
        assert out == ""
        assert "--shots must be at least 1" in err

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["check", "nosuch"])
        assert err.value.code == 2

    def test_failing_check_exits_one(self, capsys, monkeypatch):
        from toyfield import cli

        monkeypatch.setattr(
            cli, "_check_destructive", lambda: [("rigged", False, "boom")]
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
