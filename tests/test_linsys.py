"""Conditioned matrices, residual metrics, sweeps, and iterative refinement."""

import json

import numpy as np
import pytest

from polyqubo import (
    ConditionedSpec,
    PolynomialSystem,
    brute_force,
    compile_linear_qubo,
    decode,
    forward_error_minimum,
    from_range,
    iterate_solve,
    make_conditioned_matrix,
    make_rhs,
    relative_residual,
    run_sweep,
    solution_range,
    sweep_to_csv,
)
from polyqubo import linsys
from polyqubo.linsys import SWEEP_COLUMNS


class TestMakeConditionedMatrix:
    def test_kappa_one_is_identity(self):
        m = make_conditioned_matrix(ConditionedSpec(6, 1.0, seed=3))
        np.testing.assert_allclose(m, np.eye(6), atol=1e-12)

    def test_spectrum_evenly_spaced(self):
        m = make_conditioned_matrix(ConditionedSpec(12, 100.0, seed=0))
        eigs = np.sort(np.linalg.eigvalsh(m))
        np.testing.assert_allclose(eigs, np.arange(1.0, 101.0, 9.0), rtol=1e-9)
        assert eigs[-1] / eigs[0] == pytest.approx(100.0, rel=1e-9)

    def test_symmetric(self):
        m = make_conditioned_matrix(ConditionedSpec(10, 37.0, seed=5))
        np.testing.assert_allclose(m, m.T, atol=1e-12)

    def test_seeds_share_spectrum_not_eigenvectors(self):
        a = make_conditioned_matrix(ConditionedSpec(8, 50.0, seed=0))
        b = make_conditioned_matrix(ConditionedSpec(8, 50.0, seed=1))
        np.testing.assert_allclose(
            np.linalg.eigvalsh(a), np.linalg.eigvalsh(b), rtol=1e-9
        )
        assert not np.allclose(a, b)

    def test_one_by_one(self):
        np.testing.assert_array_equal(
            make_conditioned_matrix(ConditionedSpec(1, 1.0)), [[1.0]]
        )
        with pytest.raises(ValueError, match="1x1"):
            make_conditioned_matrix(ConditionedSpec(1, 2.0))

    def test_invalid_spec(self):
        with pytest.raises(ValueError, match="kappa"):
            ConditionedSpec(4, 0.5)
        with pytest.raises(ValueError, match="size"):
            ConditionedSpec(0, 2.0)

    @pytest.mark.parametrize("kappa", [float("inf"), float("nan")])
    def test_non_finite_kappa_rejected(self, kappa):
        # inf used to give an all-NaN matrix, and nan passed the kappa < 1 check
        with pytest.raises(ValueError, match="kappa must be finite"):
            ConditionedSpec(3, kappa)


class TestMakeRhs:
    @pytest.mark.parametrize(
        "n,expected",
        [
            (3, [1.0, 0.0, -1.0]),
            (2, [1.0, -1.0]),
            (5, [1.0, 0.5, 0.0, -0.5, -1.0]),
            (1, [1.0]),
        ],
    )
    def test_values(self, n, expected):
        np.testing.assert_allclose(make_rhs(n), expected, atol=1e-15)


class TestRelativeResidual:
    def test_exact_solution(self):
        p1 = make_conditioned_matrix(ConditionedSpec(5, 3.0, seed=0))
        p0 = make_rhs(5)
        x = np.linalg.solve(p1, -p0)
        assert relative_residual(p1, p0, x) == pytest.approx(0.0, abs=1e-24)

    def test_zero_point_gives_one(self):
        p1 = np.eye(4)
        p0 = make_rhs(4)
        assert relative_residual(p1, p0, np.zeros(4)) == pytest.approx(1.0)

    def test_matches_qubo_energy_over_constant_norm(self):
        p1 = make_conditioned_matrix(ConditionedSpec(4, 2.0, seed=1))
        p0 = make_rhs(4)
        enc = from_range(-1.0, 1.0, 2, num_vars=4)
        qm = compile_linear_qubo(PolynomialSystem([p0, p1]), enc)
        result = brute_force(qm)
        x = decode(enc, result.bits)
        assert result.energy / float(p0 @ p0) == pytest.approx(
            relative_residual(p1, p0, x), rel=1e-9
        )

    def test_zero_constant_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            relative_residual(np.eye(2), np.zeros(2), np.ones(2))

    def test_matches_squared_cg_residual_norm(self):
        from polyqubo import conjugate_gradient

        p1 = make_conditioned_matrix(ConditionedSpec(12, 100.0, seed=3))
        p0 = make_rhs(12)
        report = conjugate_gradient(p1, p0, tol=1e-6)
        assert relative_residual(p1, p0, report.solution) == pytest.approx(
            report.residual_norm_ratio**2, rel=1e-6, abs=1e-18
        )


class TestForwardErrorMinimum:
    def test_solution_on_grid_gives_zero(self):
        enc = from_range(0.0, 3.0, 2, num_vars=2)
        target = np.array([1.0, 2.0])  # a grid point
        p1 = np.eye(2)
        point, residual = forward_error_minimum(p1, -target, enc)
        np.testing.assert_allclose(point, target, atol=1e-12)
        assert residual == pytest.approx(0.0, abs=1e-20)

    def test_backward_optimality_on_instance(self):
        p1 = make_conditioned_matrix(ConditionedSpec(4, 1.1, seed=0))
        p0 = make_rhs(4)
        lo, hi = solution_range(p1, p0)
        enc = from_range(lo, hi, 2, num_vars=4)
        qm = compile_linear_qubo(PolynomialSystem([p0, p1]), enc)
        ground = brute_force(qm)
        _, fwd_residual = forward_error_minimum(p1, p0, enc)
        ground_residual = relative_residual(p1, p0, decode(enc, ground.bits))
        assert ground_residual <= fwd_residual * (1 + 1e-12)

    def test_large_kappa_divergence_logged_not_asserted(self):
        # at high condition number, rounding the reference solution is no
        # longer a reliable stand-in for the true grid optimum; record which
        # way this instance went without asserting either outcome
        p1 = make_conditioned_matrix(ConditionedSpec(4, 1e4, seed=0))
        p0 = make_rhs(4)
        lo, hi = solution_range(p1, p0)
        enc = from_range(lo, hi, 2, num_vars=4)
        qm = compile_linear_qubo(PolynomialSystem([p0, p1]), enc)
        winner = decode(enc, brute_force(qm).bits)
        point, fwd_res = forward_error_minimum(p1, p0, enc)
        print(
            f"kappa=1e4: grid optimum residual "
            f"{relative_residual(p1, p0, winner):.3e}, rounding point residual "
            f"{fwd_res:.3e}, same point: {bool(np.allclose(winner, point))}"
        )

    def test_matches_brute_force_on_pinned_wide_instance(self):
        # for a well-conditioned 12-variable instance, rounding the reference
        # solution coordinatewise lands exactly on the global grid optimum
        p1 = make_conditioned_matrix(ConditionedSpec(12, 1.1, seed=0))
        p0 = make_rhs(12)
        lo, hi = solution_range(p1, p0)
        enc = from_range(lo, hi, 2, num_vars=12)
        qm = compile_linear_qubo(PolynomialSystem([p0, p1]), enc)
        ground = brute_force(qm)
        point, _ = forward_error_minimum(p1, p0, enc)
        np.testing.assert_allclose(decode(enc, ground.bits), point, atol=1e-12)


class TestSolutionRange:
    def test_matches_direct_solve(self):
        p1 = make_conditioned_matrix(ConditionedSpec(6, 5.0, seed=2))
        p0 = make_rhs(6)
        x = np.linalg.solve(p1, -p0)
        lo, hi = solution_range(p1, p0)
        assert lo == pytest.approx(x.min(), rel=1e-9)
        assert hi == pytest.approx(x.max(), rel=1e-9)

    def test_degenerate_range_padded(self):
        lo, hi = solution_range(np.eye(3), np.full(3, -2.0))
        assert lo < 2.0 < hi


class TestRunSweep:
    def test_size_sweep_brute_matches_forward_prediction(self):
        rows = run_sweep("size", [2, 3, 4, 5], backend="brute", seed=0)
        for row in rows:
            assert row["rel_residual"] <= row["forward_error_residual"] * (1 + 1e-12)
            assert row["rel_residual"] == pytest.approx(
                row["forward_error_residual"], rel=1e-9
            )
            assert row["hit_fraction"] is None  # not a sampling backend

    def test_condition_sweep_blanks_forward_error(self):
        rows = run_sweep("condition", [1.1, 10.0], size=4, backend="brute", seed=0)
        assert [row["param"] for row in rows] == [1.1, 10.0]
        for row in rows:
            assert row["forward_error_residual"] is None

    def test_condition_sweep_range_spans_solution(self):
        # the search window per instance is exactly the solution's min/max
        p1 = make_conditioned_matrix(ConditionedSpec(12, 10.0, seed=0))
        p0 = make_rhs(12)
        lo, hi = solution_range(p1, p0)
        x = np.linalg.solve(p1, -p0)
        assert lo == pytest.approx(x.min(), rel=1e-9)
        assert hi == pytest.approx(x.max(), rel=1e-9)

    def test_precision_sweep_trend(self):
        # grids nest only when the bit counts divide (R=1 | 2 | 4), so the
        # residual is guaranteed non-increasing along that chain, and the
        # overall decay is exponential in the bit count
        rows = run_sweep("precision", [1, 2, 3, 4, 5], backend="brute", seed=0)
        rr = {row["param"]: row["rel_residual"] for row in rows}
        assert rr[2] <= rr[1] and rr[4] <= rr[2]
        slope = np.polyfit(sorted(rr), np.log10([rr[k] for k in sorted(rr)]), 1)[0]
        assert slope < -0.4

    def test_anneal_sweep_reports_hit_fraction(self):
        rows = run_sweep(
            "size", [2, 3], backend="anneal", reads=200, sweeps=30, seed=0
        )
        for row in rows:
            assert 0.0 < row["hit_fraction"] <= 1.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            run_sweep("volume", [1])

    @pytest.mark.parametrize(
        "kind, values, fixed, num_bits",
        [("size", [2, 13], {}, 26), ("precision", [2, 7], {"size": 4}, 28)],
    )
    def test_oversized_brute_point_rejected_before_any_solve(
        self, monkeypatch, kind, values, fixed, num_bits
    ):
        calls = []
        solve = linsys.solve
        monkeypatch.setattr(linsys, "solve", lambda *a, **k: calls.append(a) or solve(*a, **k))
        with pytest.raises(ValueError, match=f"has {num_bits} bits.*limit of 24 bits"):
            run_sweep(kind, values, backend="brute", seed=0, **fixed)
        assert calls == []

    def test_oversized_anneal_point_allowed(self):
        rows = run_sweep("size", [13], backend="anneal", reads=2, sweeps=1, seed=0)
        assert len(rows) == 1

    def test_csv_columns_and_blanks(self, tmp_path):
        rows = run_sweep("condition", [1.1], size=3, backend="brute", seed=0)
        path = tmp_path / "sweep.csv"
        sweep_to_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        cells = lines[1].split(",")
        assert cells[3] == "" and cells[4] == ""  # hit fraction, forward error


class TestIterateSolve:
    def test_pinned_instance_reaches_single_precision(self):
        p1 = make_conditioned_matrix(ConditionedSpec(4, 1.1, seed=0))
        p0 = make_rhs(4)
        trace = iterate_solve(p1, p0, 4, 9, backend="brute")
        assert trace.final.rel_residual <= 1e-6
        res = trace.residuals
        assert np.all(np.diff(res) <= 0)

    def test_exact_grid_solution_stops_immediately(self):
        target = np.array([1.0, -1.0])  # a grid point of [-1, 1] at any bit count
        trace = iterate_solve(np.eye(2), -target, 2, 5, backend="brute")
        assert len(trace.steps) == 1
        assert trace.final.rel_residual == pytest.approx(0.0, abs=1e-24)

    def test_contraction_rate_matches_window_shrink(self):
        p1 = make_conditioned_matrix(ConditionedSpec(4, 1.1, seed=0))
        p0 = make_rhs(4)
        trace = iterate_solve(p1, p0, 4, 7, backend="brute")
        res = trace.residuals
        ratios = res[:-1] / res[1:]
        geometric_mean = np.exp(np.mean(np.log(ratios)))
        expected = (15.0 / 2.0) ** 2  # squared spacing contraction per round
        assert expected / 2.5 <= geometric_mean <= expected * 2.5

    def test_boundary_winner_recenters(self):
        # solution just outside the initial window: the first winner sits on
        # the boundary and the next window walks outward to reach it
        target = np.full(3, 1.05)
        trace = iterate_solve(np.eye(3), -target, 4, 6, backend="brute")
        assert trace.steps[0].recentered
        assert trace.final.rel_residual < 1e-3

    def test_trace_json_stable(self):
        p1 = make_conditioned_matrix(ConditionedSpec(3, 2.0, seed=1))
        p0 = make_rhs(3)
        a = iterate_solve(p1, p0, 3, 4, backend="brute").to_dicts()
        b = iterate_solve(p1, p0, 3, 4, backend="brute").to_dicts()
        assert json.dumps(a) == json.dumps(b)
        assert a[0]["iteration"] == 0
        assert set(a[0]) >= {"lo", "hi", "bits", "x", "rel_residual", "reads"}

    def test_one_bit_rejected_before_any_solve(self, monkeypatch):
        calls = []
        monkeypatch.setattr(linsys, "solve", lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError, match="bits >= 2"):
            iterate_solve(np.eye(2), -np.ones(2), 1, 5, backend="brute")
        assert calls == []

    @pytest.mark.parametrize("num_iters", [0, -1])
    def test_no_iteration_rejected_before_any_solve(self, monkeypatch, num_iters):
        # zero iterations used to end in an IndexError from IterationTrace.final
        calls = []
        monkeypatch.setattr(linsys, "solve", lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError, match="num_iters must be >= 1, got"):
            iterate_solve(np.eye(2), -np.ones(2), 3, num_iters, backend="brute")
        assert calls == []

    def test_anneal_backend_runs(self):
        p1 = make_conditioned_matrix(ConditionedSpec(3, 1.5, seed=2))
        p0 = make_rhs(3)
        trace = iterate_solve(
            p1, p0, 3, 3, backend="anneal", reads=300, sweeps=50, seed=4
        )
        assert len(trace.steps) == 3
        assert all(0.0 < s.hit_fraction <= 1.0 for s in trace.steps)
