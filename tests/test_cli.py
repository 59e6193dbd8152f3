"""Command-line workflows: reports, exit codes, reproducibility."""

import argparse
import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import FIXTURE_DIR, GOLDEN_DIR, REPO_ROOT
from polyqubo import CgReport, chi_squared, load_system, save_system, PolynomialSystem
from polyqubo import fit_qubo, from_range, generate_dataset, polynomial_basis
from polyqubo import cli, solvers
from polyqubo.cli import main

QUAD_FIXTURE = str(FIXTURE_DIR / "quadratic_2x2.json")
CUBIC = str(FIXTURE_DIR / "cubic_2x2.json")  # a degree-3 system with the root (1, 2)
LINEAR = str(FIXTURE_DIR / "linear_3x3.json")  # a 3-variable degree-1 system


def run(args):
    return main([str(a) for a in args])


def _backends():
    """(command, backend) for every --backend choice of every command build_parser declares."""
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for command, sub in commands.choices.items():
        (backend,) = [a for a in sub._actions if a.dest == "backend"]
        yield from ((command, choice) for choice in backend.choices)


# a value each solver and encoding flag accepts on BASE_ARGV
SOLVER_FLAGS = {"--lo": "-1", "--hi": "1", "--bits": "2", "--seed": "1", "--reads": "3",
                "--sweeps": "2", "--t-hot": "10", "--t-cold": "1e-3", "--aux": "all",
                "--penalty": "5"}
SOLVER_DESTS = {flag[2:].replace("-", "_") for flag in SOLVER_FLAGS}
# a small run of each command; sweep sweeps precision, so its own --bits (the
# fixed bit count of the other kinds, not an encoding flag) is unread there too
BASE_ARGV = {
    "solve-poly": ["solve-poly", LINEAR],
    "solve-linear": ["solve-linear", LINEAR],
    "regress": ["regress", "--noiseless", "--basis", "poly:1", "--x-points", "10"],
    "sweep": ["sweep", "--kind", "precision", "--bits-list", "2", "--n", "2"],
    "iterate": ["iterate", "--n", "2", "--iters", "2"],
}
FLAG_CASES = [(command, backend, flag) for command, backend in _backends() for flag in SOLVER_FLAGS]


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

    def test_anneal_report_matches_golden(self, tmp_path):
        # integer coefficients, so the fields do not depend on summation order
        # or BLAS; the annealer stops this run before its last sweep
        out = tmp_path / "report.json"
        assert run(["solve-poly", QUAD_FIXTURE, "--lo", "0", "--hi", "3", "--bits", "2",
                    "--backend", "anneal", "--reads", "200", "--sweeps", "100",
                    "--seed", "3", "--output", out]) == 0
        report = json.loads(out.read_text())
        golden = json.loads((GOLDEN_DIR / "quadratic_2x2_anneal_report.json").read_text())
        del report["config"]["input"], golden["config"]["input"]
        assert report.keys() == golden.keys()
        for key in golden:
            assert report[key] == golden[key], key

    def test_worked_example_report_matches_golden(self, tmp_path):
        # the paper's worked example: every logical pair gets an auxiliary,
        # and enumeration finds the one ground state, the root (2, 3)
        out = tmp_path / "report.json"
        assert run(["solve-poly", QUAD_FIXTURE, "--lo", "0", "--hi", "3", "--bits", "2",
                    "--aux", "all", "--output", out]) == 0
        report = json.loads(out.read_text())
        golden = json.loads((GOLDEN_DIR / "quadratic_2x2_brute_aux_all_report.json").read_text())
        del report["config"]["input"], golden["config"]["input"]
        assert report.keys() == golden.keys()
        for key in golden:
            assert report[key] == golden[key], key

    def test_enumerates_the_logical_bits_alone(self, tmp_path):
        # 8 logical bits, 34 once quadratized: brute enumerates the 8 alone
        out = tmp_path / "report.json"
        assert run(["solve-poly", QUAD_FIXTURE, "--lo", "0", "--hi", "3", "--bits", "4",
                    "--output", out]) == 0
        report = json.loads(out.read_text())
        assert report["solution"] == [2.0, 3.0]
        assert report["solver"] == {"backend": "brute", "num_ground": 1}
        assert report["problem"]["bits"] == 8 and report["problem"]["auxiliaries"] == 26

    @pytest.mark.filterwarnings("error")
    def test_cubic_solves_under_brute(self, tmp_path):
        # terms of 6 bits: the PUBO is enumerated, and no QUBO exists to report
        out = tmp_path / "report.json"
        assert run(["solve-poly", CUBIC, "--lo", "0", "--hi", "7", "--bits", "3",
                    "--output", out]) == 0
        report = json.loads(out.read_text())
        assert report["solution"] == [1.0, 2.0]
        assert report["energy"] == report["chi_squared"] == 0.0
        assert report["solver"] == {"backend": "brute", "num_ground": 1}
        assert report["problem"] == {"bits": 6, "auxiliaries": None, "penalty": None,
                                     "pubo_terms": 63}

    @pytest.mark.parametrize("flag, named", [(["--aux", "all"], "aux='all'"),
                                             (["--penalty", "5"], "penalty=5.0"),
                                             (["--aux", "lazy"], "aux='lazy'")])
    def test_cubic_refuses_qubo_flags_under_brute(self, tmp_path, capsys, flag, named):
        out = tmp_path / "report.json"
        assert run(["solve-poly", CUBIC, "--lo", "0", "--hi", "7", "--bits", "3", *flag,
                    "--output", out]) == 1
        assert f"{named} shapes a QUBO, and backend 'brute' builds none" in capsys.readouterr().err
        assert not out.exists()

    def test_default_aux_given_changes_no_report(self, tmp_path):
        # --aux lazy given writes what its default does, config echo included
        reports = []
        for aux in ([], ["--aux", "lazy"]):
            out = tmp_path / f"report{len(aux)}.json"
            assert run(["solve-poly", LINEAR, *aux, "--output", out]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["config"]["aux"] == "lazy"

    def test_cubic_refused_by_anneal(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run(["solve-poly", CUBIC, "--lo", "0", "--hi", "7", "--bits", "3",
                    "--backend", "anneal", "--output", out]) == 1
        assert "term (0, 1, 2, 3, 4, 5) has 6 bits" in capsys.readouterr().err
        assert not out.exists()

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

    def test_brute_matches_solve_poly(self, tmp_path):
        # one compiler: the same degree-1 system gives the same QUBO either way
        rng = np.random.default_rng(5)
        src = tmp_path / "linear.json"
        save_system(PolynomialSystem([rng.normal(size=3), rng.normal(size=(3, 3))]), src)
        reports = []
        for command in ("solve-poly", "solve-linear"):
            out = tmp_path / f"{command}.json"
            assert run([command, src, "--bits", "4", "--backend", "brute", "--output", out]) == 0
            reports.append(json.loads(out.read_text()))
        poly, linear = reports
        assert poly["energy"] == linear["energy"]
        assert poly["solution"] == linear["solution"]
        # no auxiliaries, so neither records a penalty
        assert {k: poly["problem"][k] for k in linear["problem"]} == linear["problem"]
        assert linear["problem"] == {"bits": 12, "auxiliaries": 0, "penalty": 0.0}

    def test_degree_two_rejected(self, capsys):
        assert run(["solve-linear", QUAD_FIXTURE]) == 1
        assert "degree" in capsys.readouterr().err

    def test_cg_on_polynomial_rejected(self, capsys):
        assert run(["solve-poly", QUAD_FIXTURE, "--backend", "cg"]) == 1
        assert "backend 'cg' needs a degree-1 system, got degree 2" in capsys.readouterr().err


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

    @pytest.mark.parametrize("backend", ["brute", "anneal", "cg"])
    def test_every_backend_writes_parameters_and_gls_rss(self, tmp_path, backend):
        out = tmp_path / "report.json"
        flags = {"brute": ["--bits", "4", "--lo", "0", "--hi", "15"], "cg": []}
        flags["anneal"] = flags["brute"] + ["--reads", "300", "--sweeps", "100"]
        assert run(["regress", "--noiseless", "--backend", backend, *flags[backend],
                    "--output", out]) == 0
        report = json.loads(out.read_text())
        np.testing.assert_allclose(report["parameters"], [8.0, 4.0, 7.0], atol=1e-6)
        assert report["gls_rss"] == pytest.approx(0.0, abs=1e-9)
        assert "solution" not in report

    @pytest.mark.parametrize("backend, flags", [
        ("brute", ["--bits", "3", "--lo", "0", "--hi", "15"]),
        ("anneal", ["--bits", "3", "--lo", "0", "--hi", "15", "--reads", "30", "--sweeps", "20",
                    "--seed", "4"]),
        ("cg", []),
    ])
    def test_report_is_the_fit_qubo_result(self, tmp_path, backend, flags):
        out = tmp_path / "report.json"
        assert run(["regress", "--noise-seed", "7", "--x-points", "20", "--backend", backend,
                    *flags, "--output", out]) == 0
        report = json.loads(out.read_text())
        data = generate_dataset(20, noise_seed=7)
        enc = from_range(0.0, 15.0, 3, num_vars=3) if flags else None
        solver_args = {"reads": 30, "sweeps": 20, "seed": 4} if backend == "anneal" else {}
        fit = fit_qubo(data, polynomial_basis(data.x_grid, 2), enc, backend, **solver_args)
        assert report["parameters"] == fit.params.tolist()
        assert report["gls_rss"] == fit.gls_rss
        assert report["solver"] == fit.solver
        if fit.problem is None:
            assert {"problem", "qubo_energy", "bits"}.isdisjoint(report)
        else:
            assert report["qubo_energy"] == fit.qubo_energy
            assert report["bits"] == "".join(str(b) for b in fit.bits)
            assert report["problem"] == {k: v for k, v in fit.problem.items()
                                         if k != "pubo_terms"}

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

    def test_one_bit_rejected(self, tmp_path, capsys):
        # one bit doubles the window every round instead of shrinking it
        out = tmp_path / "report.json"
        assert run(["iterate", "--n", "2", "--bits", "1", "--iters", "5", "--output", out]) == 1
        assert "bits >= 2" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_iterations_rejected(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run(["iterate", "--n", "4", "--bits", "4", "--iters", "0",
                    "--backend", "brute", "--output", out]) == 1
        assert "num_iters must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()


class TestErrorPaths:
    @pytest.mark.parametrize("penalty", ["nan", "inf"])
    def test_non_finite_penalty_rejected(self, tmp_path, capsys, penalty):
        assert run(["solve-poly", QUAD_FIXTURE, "--penalty", penalty,
                    "--output", tmp_path / "report.json"]) == 1
        assert "not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("penalty", ["nan", "inf"])
    def test_non_finite_penalty_rejected_without_aux(self, tmp_path, capsys, penalty):
        # a degree-1 system allocates no auxiliary, so C is never used
        out = tmp_path / "report.json"
        argv = ["solve-poly", LINEAR, "--bits", "2", "--penalty", penalty]
        assert run(argv + ["--output", out]) == 1
        assert "positive finite number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")  # refused by name, with no RuntimeWarning on the way
    @pytest.mark.parametrize("backend", ["brute", "anneal"])
    @pytest.mark.parametrize("coeff, message", [
        (1e154, "term (0, 1) has non-finite coefficient"),  # 2 * 1e154^2 overflows
        (5e153, "energies can overflow"),  # 2.5e307 + 5e307 + 2.5e307, times 3 + 1 terms
    ])
    def test_overflowing_objective_rejected(self, tmp_path, capsys, backend, coeff, message):
        src, out = tmp_path / "huge.json", tmp_path / "report.json"
        save_system(PolynomialSystem([[0.0], [[coeff, coeff]]]), src)
        argv = ["solve-poly", src, "--lo", "0", "--hi", "1", "--bits", "1", "--backend", backend]
        assert run(argv + ["--output", out]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--t-hot", "inf"), ("--t-hot", "nan"),
                                             ("--t-cold", "nan")])
    def test_non_finite_temperature_rejected(self, tmp_path, capsys, flag, value):
        out = tmp_path / "report.json"
        argv = ["solve-linear", LINEAR, "--bits", "2", "--backend", "anneal",
                "--reads", "10", "--sweeps", "5", flag, value]
        assert run(argv + ["--output", out]) == 1
        assert "temperature ladder" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")  # -Δ/t overflows to ±inf, with no RuntimeWarning
    def test_subnormal_cold_temperature_runs(self, tmp_path):
        argv = ["solve-linear", LINEAR, "--bits", "2", "--backend", "anneal", "--reads", "4",
                "--sweeps", "5", "--t-hot", "1", "--t-cold", "1e-310"]
        assert run(argv + ["--output", tmp_path / "report.json"]) == 0

    @pytest.mark.parametrize("argv", [
        ["sweep", "--kind", "condition", "--kappas", "inf", "--backend", "brute"],
        ["iterate", "--kappa", "nan", "--backend", "brute"],
    ])
    def test_non_finite_kappa_rejected(self, tmp_path, capsys, argv):
        out = tmp_path / "report.json"
        assert run(argv + ["--output", out]) == 1
        assert "kappa must be finite and >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["solve-linear", LINEAR, "--bits", "2", "--backend", "anneal", "--seed", "-1"],
        ["iterate", "--backend", "brute", "--instance-seed", "-1"],
        ["regress", "--backend", "cg", "--noise-seed", "-1"],
    ])
    def test_negative_seed_refused_by_name(self, tmp_path, capsys, argv):
        out = tmp_path / "report.json"
        assert run(argv + ["--output", out]) == 1
        assert f"argument {argv[-2]}: expected an integer >= 0, got '-1'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")  # refused by name, with no RuntimeWarning on the way
    def test_overflowing_cg_refused(self, tmp_path, capsys):
        # the normal equations of a degree-49 basis overflow p @ p1 @ p; degree 45's do
        # not, but their condition number leaves the fit uncertified
        out = tmp_path / "report.json"
        assert run(["regress", "--basis", "poly:45", "--backend", "cg", "--output", out]) == 2
        assert run(["regress", "--basis", "poly:49", "--backend", "cg", "--output", out]) == 1
        assert "p @ p1 @ p = inf is not finite at iteration 0" in capsys.readouterr().err

    def test_missing_input(self, capsys):
        assert run(["solve-poly", "nope.json"]) == 1
        assert "not found" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [
        ["solve-linear", FIXTURE_DIR, "--backend", "cg"],
        ["regress", "--data", FIXTURE_DIR, "--backend", "cg"],
    ])
    def test_unreadable_input(self, tmp_path, capsys, argv):
        out = tmp_path / "report.json"
        assert run(argv + ["--output", out]) == 1
        assert f"cannot read input {FIXTURE_DIR}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [
        ["solve-linear", LINEAR, "--backend", "cg"],
        ["sweep", "--kind", "precision", "--bits-list", "2", "--backend", "brute",
         "--format", "csv"],
    ])
    @pytest.mark.parametrize("output, flaw", [
        ("missing/r.out", "directory {tmp}/missing does not exist"),
        (".", "is a directory"),
    ])
    def test_unwritable_report_refused_before_solving(
        self, tmp_path, capsys, monkeypatch, argv, output, flaw
    ):
        calls = []
        monkeypatch.setattr(cli, "run_sweep", lambda *a, **k: calls.append(a))
        monkeypatch.setattr(solvers, "conjugate_gradient", lambda *a, **k: calls.append(a))
        path = os.path.normpath(tmp_path / output)
        assert run(argv + ["--output", path]) == 1
        err = capsys.readouterr().err
        assert f"cannot write report {path}: {flaw.format(tmp=tmp_path)}" in err
        assert not calls

    @pytest.mark.filterwarnings("error")
    def test_unwritable_default_report_refused(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("POLYQUBO_OUTDIR", str(tmp_path / "missing"))
        assert run(["solve-linear", LINEAR, "--backend", "cg"]) == 1
        assert "does not exist" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [
        ["solve-linear", LINEAR, "--backend", "cg"],
        ["sweep", "--kind", "precision", "--bits-list", "2", "--backend", "brute",
         "--format", "csv"],
    ])
    def test_write_failure_names_the_report(self, tmp_path, capsys, monkeypatch, argv):
        # the folder exists when checked, but the write itself fails
        def refuse(*args, **kwargs):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(cli, "_write_report", refuse)
        monkeypatch.setattr(cli, "sweep_to_csv", refuse)
        out = tmp_path / "report.out"
        assert run(argv + ["--output", out]) == 1
        assert f"cannot write report {out}: Permission denied" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    def test_unwritable_data_dump(self, tmp_path, capsys):
        dump = tmp_path / "missing" / "data.csv"
        argv = ["regress", "--backend", "cg", "--dump-data", dump]
        assert run(argv + ["--output", tmp_path / "report.json"]) == 1
        assert f"cannot write data {dump}" in capsys.readouterr().err

    def test_malformed_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n_equations": 1}')
        assert run(["solve-poly", bad]) == 1
        assert "missing field" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert run(["solve-poly", QUAD_FIXTURE, "--frobnicate"]) == 1

    @pytest.mark.parametrize("argv", [
        ["solve-poly", QUAD_FIXTURE, "--lo", "0,0,0"],
        ["iterate", "--n", "2", "--lo", "0,0,0"],
        ["solve-linear", LINEAR, "--hi", "1,2,3,4"],
    ])
    def test_bad_range_list(self, tmp_path, capsys, argv):
        out = tmp_path / "report.json"
        assert run(argv + ["--output", out]) == 1
        assert "variables" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["solve-poly", QUAD_FIXTURE, "--lo", "a"], "--lo expects numbers, got 'a'"),
        (["solve-linear", LINEAR, "--bits", "2", "--backend", "anneal", "--seed", "x"],
         "argument --seed: expected an integer >= 0, got 'x'"),
        (["sweep", "--kind", "size", "--sizes", "2,x", "--backend", "brute"],
         "bad sweep value list '2,x'"),
    ])
    def test_unparsable_value_refused_by_name(self, tmp_path, capsys, argv, message):
        out = tmp_path / "report.json"
        assert run(argv + ["--output", out]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_range_list_may_start_with_a_minus_sign(self, tmp_path):
        # argparse alone reads -1,-2,-3 as an unknown option, not as --lo's value
        reports = []
        for lo in (["--lo", "-1,-2,-3"], ["--lo=-1,-2,-3"]):
            out = tmp_path / f"report{len(reports)}.json"
            assert run(["solve-linear", LINEAR, *lo, "--hi", "1", "--output", out]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        # the per-variable window's optimum, not --lo -1's (energy 41/36)
        assert json.loads(reports[0])["energy"] == pytest.approx(49 / 36)

    @pytest.mark.parametrize("basis", ["poly:x", "poly:-1", "cubic"])
    def test_bad_basis_refused_before_data(self, tmp_path, capsys, basis):
        out, dump = tmp_path / "report.json", tmp_path / "data.csv"
        assert run(["regress", "--basis", basis, "--dump-data", dump, "--output", out]) == 1
        assert "--basis" in capsys.readouterr().err
        assert not out.exists() and not dump.exists()

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
        assert run(argv + ["--backend", "brute", "--output", out]) == 1
        err = capsys.readouterr().err
        assert "24" in err and str(num_bits) in err
        assert not out.exists()

    def test_oversized_brute_request_refused_before_compiling(
        self, tmp_path, capsys, monkeypatch
    ):
        calls = []
        monkeypatch.setattr(solvers, "compile_pubo", lambda *a, **k: calls.append(a))
        out = tmp_path / "report.json"
        assert run(["solve-poly", QUAD_FIXTURE, "--lo", "0", "--hi", "3", "--bits", "30",
                    "--output", out]) == 1
        err = capsys.readouterr().err
        assert "24" in err and "60" in err
        assert not out.exists()
        assert not calls

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

    @pytest.mark.parametrize("command, backend, flag", FLAG_CASES)
    def test_every_flag_read_or_refused(self, tmp_path, capsys, command, backend, flag):
        out = tmp_path / "report.json"
        read = cli._READS[command][backend]
        dest = flag[2:].replace("-", "_")
        argv = BASE_ARGV[command] + ["--backend", backend]
        if backend == "anneal":
            argv += ["--reads", "3", "--sweeps", "2"]
        code = run(argv + [flag, SOLVER_FLAGS[flag], "--output", out])
        if dest not in read:
            assert code == 1
            assert flag in capsys.readouterr().err
            assert not out.exists()
            return
        assert code == 0
        # the config echoes exactly the flags read: those given and those with a default
        config = json.loads(out.read_text())["config"]
        assert SOLVER_DESTS.intersection(config) == {
            f for f in read if f == dest or f in cli._DEFAULTS
        }

    @pytest.mark.parametrize("argv, flag, choice", [
        *(
            (["sweep", "--kind", kind, cli._option(values), "2", cli._option(other), "3"],
             cli._option(other), f"--kind {kind}")
            for kind, (values, swept) in cli._SWEPT.items()
            for other in [swept] + [v for v, _ in cli._SWEPT.values() if v != values]
        ),
        (["regress", "--cov", "nofile.csv"], "--cov", "without --data"),
        (["regress", "--noiseless", "--noise-seed", "3"], "--noise-seed", "--noiseless"),
        (["regress", "--data", "nofile.csv", "--noise-seed", "3"], "--noise-seed", "--data"),
        (["regress", "--data", "nofile.csv", "--x-points", "5"], "--x-points", "--data"),
        (["regress", "--data", "nofile.csv", "--corr-base", "0.5"], "--corr-base", "--data"),
        (["regress", "--data", "nofile.csv", "--noiseless"], "--noiseless", "--data"),
    ])
    def test_flag_another_choice_leaves_unread_refused(self, tmp_path, capsys, argv, flag,
                                                        choice):
        # refused before any input is read: the missing file is never opened
        out = tmp_path / "report.json"
        assert run(argv + ["--output", out]) == 1
        assert f"{flag} is not read by {argv[0]} {choice}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("backend", ["brute", "anneal"])
    def test_solver_block_same_for_every_frontend(self, tmp_path, backend):
        anneal = ["--reads", "50", "--sweeps", "20"] if backend == "anneal" else []
        blocks = []
        for argv in (["solve-linear", LINEAR, "--bits", "2"],
                     ["regress", "--noiseless", "--basis", "poly:1", "--bits", "3",
                      "--lo", "0", "--hi", "70"]):
            out = tmp_path / "report.json"
            argv = argv + ["--backend", backend, *anneal]
            assert run(argv + ["--output", out]) == 0
            blocks.append(json.loads(out.read_text())["solver"])
        assert blocks[0].keys() == blocks[1].keys()
        assert blocks[0]["backend"] == backend

    @pytest.mark.parametrize("argv", [
        ["solve-linear", LINEAR],
        ["regress", "--noiseless"],
        ["sweep", "--kind", "size", "--sizes", "2"],
        ["iterate"],
    ])
    def test_penalty_only_on_solve_poly(self, tmp_path, capsys, argv):
        out = tmp_path / "report.json"
        assert run(argv + ["--penalty", "-5", "--output", out]) == 1
        assert "--penalty" in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def _child_output(code):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        return done.stdout.strip()

    def test_import_leaves_out_scipy(self):
        code = "import sys, polyqubo, polyqubo.cli; print('scipy' in sys.modules)"
        assert self._child_output(code) == "False"

    def test_linear_compile_leaves_out_numpy_ma(self):
        # np.unique without index outputs imports numpy.ma (about 13 ms, 1 MB)
        code = (
            "import sys, numpy as np, polyqubo as pq\n"
            "system = pq.PolynomialSystem([np.ones(3), np.eye(3)])\n"
            "pq.compile_linear_qubo(system, pq.from_range(-1.0, 1.0, 3, num_vars=3))\n"
            "print('numpy.ma' in sys.modules)"
        )
        assert self._child_output(code) == "False"


class TestCsvReports:
    @pytest.mark.parametrize("argv", [
        ["solve-poly", QUAD_FIXTURE, "--lo", "0", "--hi", "3", "--bits", "2"],
        ["solve-linear", LINEAR, "--bits", "2", "--backend", "anneal", "--reads", "20",
         "--sweeps", "10"],
        ["regress", "--noiseless", "--basis", "poly:1", "--bits", "3", "--lo", "0",
         "--hi", "70"],
        ["iterate", "--n", "2", "--bits", "3", "--iters", "3"],
    ])
    def test_cells_are_scalars(self, tmp_path, argv):
        out = tmp_path / "report.csv"
        assert run(argv + ["--format", "csv", "--output", out]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["field", "value"]
        for name, cell in rows[1:]:
            # nested dicts and lists of dicts become dotted rows; null is a blank cell
            assert not any(ch in cell for ch in "{}[]'\""), (name, cell)
            assert "None" not in cell, (name, cell)

    def test_iterations_flatten_by_index(self, tmp_path):
        out = tmp_path / "report.csv"
        assert run(["iterate", "--n", "2", "--bits", "3", "--iters", "2", "--backend", "brute",
                    "--format", "csv", "--output", out]) == 0
        with open(out, newline="") as fh:
            cells = dict(list(csv.reader(fh))[1:])
        assert "iterations" not in cells
        assert cells["iterations.0.iteration"] == "0"
        assert cells["iterations.1.iteration"] == "1"
        assert cells["iterations.0.hit_fraction"] == ""  # brute force has no hit fraction
        assert len(cells["iterations.0.bits"]) == 6


class TestCgPaths:
    def test_unconverged_cg_exits_2(self, tmp_path, capsys, monkeypatch):
        def stalled(p1, p0):
            return CgReport(np.zeros(len(p0)), 7, 0.5, False)

        monkeypatch.setattr(solvers, "conjugate_gradient", stalled)
        out = tmp_path / "report.json"
        argv = ["solve-linear", LINEAR, "--backend", "cg"]
        assert run(argv + ["--output", out]) == 2
        assert "did not converge" in capsys.readouterr().err
        assert not out.exists()

    def test_solve_poly_cg_matches_solve_linear(self, tmp_path):
        reports = []
        for command in ("solve-poly", "solve-linear"):
            out = tmp_path / f"{command}.json"
            argv = [command, LINEAR, "--backend", "cg"]
            assert run(argv + ["--output", out]) == 0
            reports.append(json.loads(out.read_text()))
        assert reports[0]["solution"] == reports[1]["solution"]
        np.testing.assert_allclose(reports[0]["solution"], [0.5, -0.5, -2.0 / 3.0], rtol=1e-6)

    @pytest.mark.filterwarnings("error")
    def test_uncertified_cg_fit_exits_2(self, tmp_path, capsys):
        # converged, but cond(p1) ~ 5e13: a residual of 1e-6 bounds no digit of the fit
        out = tmp_path / "report.json"
        assert run(["regress", "--basis", "poly:5", "--backend", "cg", "--output", out]) == 2
        assert "cond(p1) = 4.966e+13 times tol 1e-6 is >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_regress_cg_recovers_coefficients(self, tmp_path):
        out = tmp_path / "report.json"
        assert run(["regress", "--noiseless", "--backend", "cg", "--output", out]) == 0
        report = json.loads(out.read_text())
        assert report["solver"]["backend"] == "cg"
        np.testing.assert_allclose(report["parameters"], [8.0, 4.0, 7.0], atol=1e-6)

    @pytest.mark.parametrize("argv", [
        ["sweep", "--kind", "condition", "--kappas", "1.1"],
        ["iterate"],
    ])
    def test_sampling_commands_offer_no_cg(self, tmp_path, capsys, argv):
        out = tmp_path / "report.json"
        assert run(argv + ["--backend", "cg", "--output", out]) == 1
        err = capsys.readouterr().err
        assert "invalid choice" in err and "cg" in err
        assert not out.exists()
