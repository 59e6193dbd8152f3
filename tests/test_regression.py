"""GLS normal equations, synthetic dataset, and the QUBO fitting frontend."""

import numpy as np
import pytest

from conftest import all_bitstrings
from polyqubo import (
    BasisSet,
    RegressionDataset,
    compile_linear_qubo,
    conjugate_gradient,
    decode,
    fit_qubo,
    from_range,
    generate_dataset,
    gls_objective,
    load_dataset_csv,
    normal_equations,
    polynomial_basis,
    save_dataset_csv,
)

TRUE_PARAMS = np.array([8.0, 4.0, 7.0])
GROUND_BITS_12 = (0, 0, 0, 1, 0, 0, 1, 0, 1, 1, 1, 0)


@pytest.fixture(scope="module")
def noiseless():
    return generate_dataset(50)


@pytest.fixture(scope="module")
def quad_basis(noiseless):
    return polynomial_basis(noiseless.x_grid, 2)


class TestGenerateDataset:
    def test_variance_at_origin(self, noiseless):
        assert noiseless.covariance[0, 0] == pytest.approx(0.8)

    def test_correlation_law(self, noiseless):
        s = noiseless.covariance
        corr = s[0, 1] / np.sqrt(s[0, 0] * s[1, 1])
        assert corr == pytest.approx(0.9, rel=1e-12)
        corr5 = s[0, 5] / np.sqrt(s[0, 0] * s[5, 5])
        assert corr5 == pytest.approx(0.9**5, rel=1e-12)

    def test_mean_polynomial(self, noiseless):
        assert noiseless.y_mean[2] == 44.0
        x = noiseless.x_grid
        np.testing.assert_array_equal(noiseless.y_mean, 8 + 4 * x + 7 * x * x)

    def test_noise_draw_seeded(self):
        a = generate_dataset(20, noise_seed=5)
        b = generate_dataset(20, noise_seed=5)
        c = generate_dataset(20, noise_seed=6)
        np.testing.assert_array_equal(a.y_mean, b.y_mean)
        assert not np.array_equal(a.y_mean, c.y_mean)
        # covariance does not change with the draw
        np.testing.assert_array_equal(a.covariance, c.covariance)

    def test_covariance_positive_definite(self, noiseless):
        assert np.all(np.linalg.eigvalsh(noiseless.covariance) > 0)

    def test_bad_corr_base_rejected(self):
        with pytest.raises(ValueError, match="corr_base"):
            generate_dataset(10, corr_base=1.0)


class TestNormalEquations:
    def test_sample_mean_with_identity_covariance(self):
        data = RegressionDataset(np.arange(4.0), np.full(4, 3.25), np.eye(4))
        basis = BasisSet(np.ones((4, 1)))
        system = normal_equations(data, basis)
        root = -system.coeffs[0] / system.coeffs[1][0, 0]
        assert root[0] == pytest.approx(3.25, rel=1e-12)

    def test_noiseless_root_is_true_params(self, noiseless, quad_basis):
        system = normal_equations(noiseless, quad_basis)
        root = np.linalg.solve(system.coeffs[1], -system.coeffs[0])
        np.testing.assert_allclose(root, TRUE_PARAMS, rtol=1e-8)

    def test_cg_matches_closed_form_oracle(self, quad_basis):
        # oracle: explicit inverse of the covariance, dense solve
        data = generate_dataset(50, noise_seed=13)
        system = normal_equations(data, quad_basis)
        report = conjugate_gradient(system.coeffs[1], system.coeffs[0], tol=1e-14)
        s_inv = np.linalg.inv(data.covariance)
        f = quad_basis.design
        oracle = np.linalg.solve(f.T @ s_inv @ f, f.T @ s_inv @ data.y_mean)
        np.testing.assert_allclose(report.solution, oracle, rtol=1e-8)

    def test_matrix_symmetric_positive_definite(self, noiseless, quad_basis):
        system = normal_equations(noiseless, quad_basis)
        p1 = system.coeffs[1]
        np.testing.assert_allclose(p1, p1.T, rtol=1e-10)
        assert np.all(np.linalg.eigvalsh(p1) > 0)

    def test_identity_covariance_reduces_to_ols(self):
        rng = np.random.default_rng(3)
        x = np.linspace(0, 1, 12)
        y = rng.standard_normal(12)
        data = RegressionDataset(x, y, np.eye(12))
        basis = polynomial_basis(x, 2)
        system = normal_equations(data, basis)
        gls_root = np.linalg.solve(system.coeffs[1], -system.coeffs[0])
        ols_root = np.linalg.lstsq(basis.design, y, rcond=None)[0]
        np.testing.assert_allclose(gls_root, ols_root, rtol=1e-9)

    def test_exact_root_matches_estimator_tightly(self, noiseless, quad_basis):
        system = normal_equations(noiseless, quad_basis)
        root = np.linalg.solve(system.coeffs[1], -system.coeffs[0])
        s_inv = np.linalg.inv(noiseless.covariance)
        f = quad_basis.design
        estimator = np.linalg.solve(f.T @ s_inv @ f, f.T @ s_inv @ noiseless.y_mean)
        np.testing.assert_allclose(root, estimator, rtol=1e-10)

    def test_singular_covariance_rejected(self):
        data_args = (np.arange(3.0), np.ones(3), np.ones((3, 3)))
        data = RegressionDataset(*data_args)
        with pytest.raises(ValueError, match="condition"):
            normal_equations(data, BasisSet(np.ones((3, 1))))


class TestFitQubo:
    def test_brute_force_recovers_true_params(self, noiseless, quad_basis):
        enc = from_range(0.0, 15.0, 4, num_vars=3)
        fit = fit_qubo(noiseless, quad_basis, enc, backend="brute")
        np.testing.assert_array_equal(fit.params, TRUE_PARAMS)
        assert tuple(fit.bits) == GROUND_BITS_12
        assert fit.gls_rss == pytest.approx(0.0, abs=1e-9)

    def test_anneal_matches_brute_oracle(self, noiseless, quad_basis):
        enc = from_range(0.0, 15.0, 4, num_vars=3)
        brute_fit = fit_qubo(noiseless, quad_basis, enc, backend="brute")
        fit = fit_qubo(
            noiseless, quad_basis, enc, backend="anneal", reads=4000, sweeps=300, seed=1
        )
        np.testing.assert_array_equal(fit.params, brute_fit.params)
        assert fit.solver["backend"] == "anneal"
        assert fit.solver["reads"] == 4000

    def test_constant_fit(self):
        data = RegressionDataset(np.arange(6.0), np.full(6, 5.0), np.eye(6))
        basis = BasisSet(np.ones((6, 1)))
        enc = from_range(0.0, 15.0, 4, num_vars=1)
        fit = fit_qubo(data, basis, enc, backend="brute")
        assert fit.params[0] == 5.0

    def test_grid_minimizer_matches_objective_minimizer(self, noiseless, quad_basis):
        # exhaustively compare the QUBO argmin with the weighted-residual argmin
        enc = from_range(0.0, 15.0, 4, num_vars=3)
        system = normal_equations(noiseless, quad_basis)
        qm = compile_linear_qubo(system, enc)
        states = all_bitstrings(12)
        params = decode(enc, states)
        s_inv = np.linalg.inv(noiseless.covariance)
        resid = params @ quad_basis.design.T - noiseless.y_mean
        objective = np.einsum("si,ij,sj->s", resid, s_inv, resid)
        fit = fit_qubo(noiseless, quad_basis, enc, backend="brute")
        np.testing.assert_array_equal(params[int(np.argmin(objective))], fit.params)

    def test_gls_objective_value(self, noiseless, quad_basis):
        value = gls_objective(noiseless, quad_basis, [8.0, 4.0, 6.0])
        s_inv = np.linalg.inv(noiseless.covariance)
        resid = quad_basis.design @ [8.0, 4.0, 6.0] - noiseless.y_mean
        assert value == pytest.approx(float(resid @ s_inv @ resid), rel=1e-9)

    def test_encoding_mismatch_rejected(self, noiseless, quad_basis):
        with pytest.raises(ValueError, match="parameters"):
            fit_qubo(noiseless, quad_basis, from_range(0.0, 15.0, 4, num_vars=2))

    def test_unknown_backend_rejected(self, noiseless, quad_basis):
        enc = from_range(0.0, 15.0, 4, num_vars=3)
        with pytest.raises(ValueError, match="backend"):
            fit_qubo(noiseless, quad_basis, enc, backend="quantum")


class TestBasisSet:
    def test_polynomial_basis_columns(self):
        basis = polynomial_basis(np.array([0.0, 1.0, 2.0, 3.0]), 2)
        np.testing.assert_array_equal(basis.design[:, 0], 1.0)
        np.testing.assert_array_equal(basis.design[:, 1], [0, 1, 2, 3])
        np.testing.assert_array_equal(basis.design[:, 2], [0, 1, 4, 9])
        assert basis.names == ("x^0", "x^1", "x^2")

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError, match="degree must be >= 0, got -1"):
            polynomial_basis(np.array([0.0, 1.0]), -1)

    def test_too_many_functions_rejected(self):
        with pytest.raises(ValueError, match="basis functions"):
            BasisSet(np.ones((2, 3)))


class TestCsvRoundTrip:
    def test_save_load(self, tmp_path):
        data = generate_dataset(8, noise_seed=2)
        path = tmp_path / "data.csv"
        cov_path = tmp_path / "cov.csv"
        save_dataset_csv(data, path, cov_path)
        back = load_dataset_csv(path, cov_path)
        np.testing.assert_array_equal(back.x_grid, data.x_grid)
        np.testing.assert_array_equal(back.y_mean, data.y_mean)
        np.testing.assert_array_equal(back.covariance, data.covariance)

    def test_identity_covariance_default(self, tmp_path):
        data = generate_dataset(5)
        path = tmp_path / "data.csv"
        save_dataset_csv(data, path)
        back = load_dataset_csv(path)
        np.testing.assert_array_equal(back.covariance, np.eye(5))
