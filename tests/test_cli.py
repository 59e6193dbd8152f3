"""Command-line workflows: reports, exit codes, reproducibility."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import FIXTURE_DIR, REPO_ROOT
from polyqubo import chi_squared, load_system, save_system, PolynomialSystem
from polyqubo.cli import main

QUAD_FIXTURE = str(FIXTURE_DIR / "quadratic_2x2.json")
LINEAR = "<linear system file>"  # stands for a 3-variable degree-1 system


def run(args):
    return main([str(a) for a in args])


def linear_argv(argv, tmp_path):
    """argv with LINEAR replaced by the path of a saved 3-variable linear system."""
    src = tmp_path / "linear.json"
    save_system(PolynomialSystem([[-1.0, 0.5, 2.0], np.diag([2.0, 1.0, 3.0])]), src)
    return [src if a == LINEAR else a for a in argv]


class TestSolvePoly:
    def test_worked_example(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(
            ["solve-poly", QUAD_FIXTURE, "--backend", "brute",
             "--lo", "0", "--hi", "3", "--bits", "2", "--output", out]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["solution"] == [2.0, 3.0]
        assert report["energy"] == 0.0

    def test_solution_reevaluates_to_reported_energy(self, tmp_path):
        out = tmp_path / "report.json"
        run(
            ["solve-poly", QUAD_FIXTURE, "--backend", "anneal", "--reads", "200",
             "--sweeps", "50", "--seed", "3",
             "--lo", "0", "--hi", "3", "--bits", "2", "--output", out]
        )
        report = json.loads(out.read_text())
        system = load_system(QUAD_FIXTURE)
        assert chi_squared(system, report["solution"]) == pytest.approx(
            report["energy"], rel=1e-9, abs=1e-9
        )

    def test_reports_byte_identical(self, tmp_path):
        args = ["solve-poly", QUAD_FIXTURE, "--backend", "anneal", "--reads", "100",
                "--sweeps", "30", "--seed", "8", "--lo", "0", "--hi", "3", "--bits", "2"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(args + ["--output", a]) == 0
        assert run(args + ["--output", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_problem_summary_fields(self, tmp_path):
        out = tmp_path / "report.json"
        run(["solve-poly", QUAD_FIXTURE, "--aux", "all",
             "--lo", "0", "--hi", "3", "--bits", "2", "--output", out])
        problem = json.loads(out.read_text())["problem"]
        assert problem["bits"] == 4
        assert problem["auxiliaries"] == 6
        assert problem["penalty"] > 0


class TestSolveLinear:
    def test_cg_backend(self, tmp_path):
        src = tmp_path / "linear.json"
        save_system(PolynomialSystem([[-3.0, 1.0], [[2.0, 0.0], [0.0, 1.0]]]), src)
        out = tmp_path / "report.json"
        code = run(["solve-linear", src, "--backend", "cg", "--output", out])
        assert code == 0
        report = json.loads(out.read_text())
        np.testing.assert_allclose(report["solution"], [1.5, -1.0], rtol=1e-6)

    @pytest.mark.parametrize("diagonal", [[1.0, -1.0], [1.0, -2.0]])
    def test_cg_on_indefinite_matrix_rejected(self, tmp_path, capsys, diagonal):
        src = tmp_path / "indefinite.json"
        save_system(PolynomialSystem([[-1.0, -1.0], np.diag(diagonal)]), src)
        assert run(["solve-linear", src, "--backend", "cg",
                    "--output", tmp_path / "report.json"]) == 1
        assert "not positive definite" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_degree_two_rejected(self, capsys):
        assert run(["solve-linear", QUAD_FIXTURE]) == 1
        assert "degree" in capsys.readouterr().err

    def test_cg_on_polynomial_rejected(self, capsys):
        assert run(["solve-poly", QUAD_FIXTURE, "--backend", "cg"]) == 1
        assert "degree-1" in capsys.readouterr().err


class TestRegress:
    def test_noiseless_synthetic_fit(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(
            ["regress", "--noiseless", "--basis", "poly:2", "--bits", "4",
             "--lo", "0", "--hi", "15", "--backend", "brute", "--output", out]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["parameters"] == [8.0, 4.0, 7.0]
        assert report["bits"] == "000100101110"

    def test_csv_data_round_trip(self, tmp_path):
        out = tmp_path / "report.json"
        dump = tmp_path / "data.csv"
        run(["regress", "--noiseless", "--x-points", "10", "--basis", "poly:1",
             "--bits", "3", "--lo", "0", "--hi", "70", "--dump-data", dump,
             "--output", out])
        assert dump.exists()
        out2 = tmp_path / "report2.json"
        code = run(["regress", "--data", dump, "--basis", "poly:1", "--bits", "3",
                    "--lo", "0", "--hi", "70", "--output", out2])
        assert code == 0

    def test_oversized_brute_request_names_limit(self, capsys):
        code = run(["regress", "--noiseless", "--basis", "poly:2", "--bits", "16",
                    "--lo", "0", "--hi", "15", "--backend", "brute"])
        assert code == 1
        err = capsys.readouterr().err
        assert "24" in err and "48" in err


class TestSweep:
    def test_csv_output(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run(["sweep", "--kind", "condition", "--kappas", "1.1,10",
                    "--n", "4", "--backend", "brute", "--format", "csv",
                    "--output", out])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "param,min_energy,rel_residual,hit_fraction,forward_error_residual"
        assert len(lines) == 3

    def test_json_output_null_blanks(self, tmp_path):
        out = tmp_path / "sweep.json"
        run(["sweep", "--kind", "condition", "--kappas", "1.1", "--n", "4",
             "--backend", "brute", "--output", out])
        rows = json.loads(out.read_text())["rows"]
        assert rows[0]["forward_error_residual"] is None

    def test_missing_value_list_rejected(self, capsys):
        assert run(["sweep", "--kind", "size"]) == 1
        assert "--sizes" in capsys.readouterr().err


class TestIterate:
    def test_pinned_instance(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(["iterate", "--n", "4", "--kappa", "1.1", "--bits", "4",
                    "--iters", "9", "--backend", "brute", "--output", out])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["final_residual"] <= 1e-6
        assert len(report["iterations"]) <= 9

    def test_per_component_window(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(["iterate", "--n", "2", "--bits", "3", "--iters", "2",
                    "--lo", "0,-1", "--hi", "1,2", "--output", out])
        assert code == 0
        first = json.loads(out.read_text())["iterations"][0]
        assert first["lo"] == [0.0, -1.0]
        assert first["hi"] == [1.0, 2.0]


class TestErrorPaths:
    @pytest.mark.parametrize("penalty", ["nan", "inf"])
    def test_non_finite_penalty_rejected(self, tmp_path, capsys, penalty):
        assert run(["solve-poly", QUAD_FIXTURE, "--penalty", penalty,
                    "--output", tmp_path / "report.json"]) == 1
        assert "not finite" in capsys.readouterr().err

    def test_missing_input(self, capsys):
        assert run(["solve-poly", "nope.json"]) == 1
        assert "not found" in capsys.readouterr().err

    def test_malformed_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n_equations": 1}')
        assert run(["solve-poly", bad]) == 1
        assert "missing field" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert run(["solve-poly", QUAD_FIXTURE, "--frobnicate"]) == 1

    def test_bad_range_list(self, capsys):
        assert run(["solve-poly", QUAD_FIXTURE, "--lo", "0,0,0"]) == 1
        assert "variables" in capsys.readouterr().err

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("POLYQUBO_OUTDIR", str(tmp_path))
        assert run(["solve-poly", QUAD_FIXTURE, "--lo", "0", "--hi", "3"]) == 0
        assert (tmp_path / "solve_poly_report.json").exists()


class TestSolverFlags:
    @pytest.mark.parametrize("argv, num_bits", [
        (["solve-linear", LINEAR, "--bits", "9"], 27),
        (["sweep", "--kind", "size", "--sizes", "2,13"], 26),
        (["iterate", "--n", "7", "--bits", "4"], 28),
    ])
    def test_oversized_brute_request_names_limit(self, tmp_path, capsys, argv, num_bits):
        out = tmp_path / "report.json"
        assert run(linear_argv(argv, tmp_path) + ["--backend", "brute", "--output", out]) == 1
        err = capsys.readouterr().err
        assert "24" in err and str(num_bits) in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["regress", "--noiseless", "--basis", "poly:2", "--bits", "4", "--lo", "0",
         "--hi", "15", "--reads", "300", "--sweeps", "100"],
        ["iterate", "--reads", "100", "--sweeps", "100"],
        ["sweep", "--kind", "condition", "--kappas", "1.1,10", "--n", "4",
         "--reads", "100", "--sweeps", "50"],
    ])
    def test_temperature_flags_reach_annealer(self, tmp_path, argv):
        default, cold = tmp_path / "default.json", tmp_path / "cold.json"
        argv = argv + ["--backend", "anneal"]
        assert run(argv + ["--output", default]) == 0
        assert run(argv + ["--t-hot", "1e-9", "--t-cold", "1e-12", "--output", cold]) == 0
        reports = [json.loads(path.read_text()) for path in (default, cold)]
        for report in reports:
            del report["config"]
        assert reports[0] != reports[1]

    @pytest.mark.parametrize("argv", [
        ["solve-linear", LINEAR],
        ["regress", "--noiseless"],
        ["sweep", "--kind", "size", "--sizes", "2"],
        ["iterate"],
    ])
    def test_penalty_only_on_solve_poly(self, tmp_path, capsys, argv):
        out = tmp_path / "report.json"
        assert run(linear_argv(argv, tmp_path) + ["--penalty", "-5", "--output", out]) == 1
        assert "--penalty" in capsys.readouterr().err
        assert not out.exists()

    def test_import_leaves_out_scipy(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        code = "import sys, polyqubo, polyqubo.cli; print('scipy' in sys.modules)"
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert done.stdout.strip() == "False"
