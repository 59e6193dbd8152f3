"""Polynomial system construction, evaluation, and file format."""

import json

import numpy as np
import pytest

from conftest import FIXTURE_DIR, random_system
from polyqubo import (
    PolynomialSystem,
    chi_squared,
    evaluate_residuals,
    load_system,
    save_system,
)


class TestEvaluateResiduals:
    def test_known_root(self, quad_system):
        np.testing.assert_array_equal(
            evaluate_residuals(quad_system, [2.0, 3.0]), [0.0, 0.0]
        )

    def test_origin_leaves_constants(self, quad_system):
        np.testing.assert_array_equal(
            evaluate_residuals(quad_system, [0.0, 0.0]), [-51.0, -46.0]
        )

    def test_second_root_to_quoted_precision(self, quad_system):
        # root quoted to two decimals, so residuals only vanish approximately
        res = evaluate_residuals(quad_system, [-10.42, 7.27])
        assert np.all(np.abs(res) < 0.2)

    def test_degree_one_is_affine_map(self):
        rng = np.random.default_rng(7)
        system = random_system(rng, 4, 3, 1)
        x = rng.standard_normal(3)
        expected = system.coeffs[0] + system.coeffs[1] @ x
        np.testing.assert_allclose(evaluate_residuals(system, x), expected, rtol=1e-15)

    def test_ordered_index_contraction(self):
        # both (0,1) and (1,0) entries of an unsymmetrized quadratic tensor
        # must contribute; nothing may assume or impose symmetry
        p2 = np.zeros((1, 2, 2))
        p2[0, 0, 1] = 1.0
        p2[0, 1, 0] = 10.0
        system = PolynomialSystem([np.zeros(1), np.zeros((1, 2)), p2])
        assert evaluate_residuals(system, [2.0, 3.0])[0] == pytest.approx(66.0)

    def test_batch_matches_pointwise(self, quad_system):
        rng = np.random.default_rng(3)
        points = rng.uniform(-5, 5, size=(10, 2))
        batched = evaluate_residuals(quad_system, points)
        for row, x in zip(batched, points):
            np.testing.assert_allclose(row, evaluate_residuals(quad_system, x), rtol=1e-14)

    def test_wrong_length_rejected(self, quad_system):
        with pytest.raises(ValueError, match="components"):
            evaluate_residuals(quad_system, [1.0, 2.0, 3.0])

    def test_non_finite_rejected(self, quad_system):
        with pytest.raises(ValueError, match="non-finite"):
            evaluate_residuals(quad_system, [np.nan, 1.0])


class TestChiSquared:
    def test_zero_at_root(self, quad_system):
        assert chi_squared(quad_system, [2.0, 3.0]) == 0.0

    def test_constants_squared(self, quad_system):
        assert chi_squared(quad_system, [0.0, 0.0]) == 51.0**2 + 46.0**2

    def test_exact_linear_solution(self):
        rng = np.random.default_rng(11)
        p1 = rng.standard_normal((1, 3))
        x = rng.standard_normal(3)
        system = PolynomialSystem([-(p1 @ x), p1])
        assert chi_squared(system, x) == pytest.approx(0.0, abs=1e-20)

    def test_equals_squared_residual_norm(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            system = random_system(
                rng, int(rng.integers(1, 5)), int(rng.integers(1, 4)), int(rng.integers(0, 4))
            )
            x = rng.uniform(-3, 3, size=system.num_variables)
            res = evaluate_residuals(system, x)
            assert chi_squared(system, x) == pytest.approx(float(res @ res), rel=1e-14)
            assert chi_squared(system, x) >= 0.0


class TestConstruction:
    def test_shape_diagnostic_names_tensor(self):
        with pytest.raises(ValueError, match=r"coeffs\[2\]"):
            PolynomialSystem([np.zeros(2), np.zeros((2, 2)), np.zeros((2, 2, 3))])

    def test_non_finite_diagnostic_names_tensor(self):
        bad = np.zeros((2, 2))
        bad[0, 0] = np.inf
        with pytest.raises(ValueError, match=r"coeffs\[1\]"):
            PolynomialSystem([np.zeros(2), bad])

    def test_empty_coeffs_rejected(self):
        with pytest.raises(ValueError):
            PolynomialSystem([])

    @pytest.mark.parametrize("coeffs, message", [
        ([[[1.0]]], r"coeffs\[0\] must be a vector of constants, got shape \(1, 1\)"),
        ([[]], "system must have at least one equation"),
    ])
    def test_bad_constant_tensor_refused_by_name(self, coeffs, message):
        with pytest.raises(ValueError, match=message):
            PolynomialSystem(coeffs)

    def test_metadata(self, quad_system):
        assert quad_system.num_equations == 2
        assert quad_system.num_variables == 2
        assert quad_system.degree == 2


class TestFileFormat:
    def test_fixture_is_the_worked_system(self, quad_system):
        loaded = load_system(FIXTURE_DIR / "quadratic_2x2.json")
        for mine, theirs in zip(quad_system.coeffs, loaded.coeffs):
            np.testing.assert_array_equal(mine, theirs)

    def test_round_trip(self, tmp_path, quad_system):
        path = tmp_path / "sys.json"
        save_system(quad_system, path)
        loaded = load_system(path)
        assert loaded.degree == quad_system.degree
        for mine, theirs in zip(quad_system.coeffs, loaded.coeffs):
            np.testing.assert_array_equal(mine, theirs)

    def test_declared_sizes_cross_checked(self, tmp_path):
        doc = {"n_equations": 3, "n_variables": 2, "degree": 1,
               "coeffs": [[1.0, 2.0], [[1.0, 0.0], [0.0, 1.0]]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="declares"):
            load_system(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"coeffs": [[1.0]]}))
        with pytest.raises(ValueError, match="missing field"):
            load_system(path)
