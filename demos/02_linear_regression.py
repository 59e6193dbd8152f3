"""Walkthrough: generalized least squares through the QUBO pipeline.

Generates the correlated synthetic series with mean 8 + 4x + 7x^2 on fifty
grid points, forms the weighted normal equations, and fits the three
polynomial coefficients over a 4-bit-per-parameter grid (4096 candidate
solutions) by exhaustive search and by annealing.

Run from the repository root:  python demos/02_linear_regression.py
"""

import numpy as np

import polyqubo as pq

data = pq.generate_dataset(num_points=50, corr_base=0.9)
print("dataset: 50 points, variance mean/10, geometric correlation decay")
print("  first diagonal covariance entries:", np.round(np.diag(data.covariance)[:4], 3))
print("  neighbor correlation:",
      data.covariance[0, 1] / np.sqrt(data.covariance[0, 0] * data.covariance[1, 1]))

basis = pq.polynomial_basis(data.x_grid, 2)
system = pq.normal_equations(data, basis)
print("\nnormal equations:", system)
root = np.linalg.solve(system.coeffs[1], -system.coeffs[0])
print("continuous root (the GLS estimator):", np.round(root, 10))

# each parameter as a 4-bit unsigned integer in [0, 15]
enc = pq.from_range(0.0, 15.0, 4, num_vars=3)
print("\n--- exhaustive search over the 12-bit parameter grid ---")
fit = pq.fit_qubo(data, basis, enc, backend="brute")
print("bits:", "".join(str(int(b)) for b in fit.bits), "->", fit.params)
print("weighted residual sum of squares at the fit:", fit.gls_rss)

print("\n--- the same fit by simulated annealing ---")
fit_sa = pq.fit_qubo(data, basis, enc, backend="anneal",
                     reads=100_000, sweeps=200, seed=0)
print("best sampled parameters:", fit_sa.params)
print(f"reads at the lowest sampled energy: {fit_sa.solver['ground_fraction']:.2%}")

print("\n--- a noisy draw moves the estimator off the integer grid ---")
noisy = pq.generate_dataset(num_points=50, corr_base=0.9, noise_seed=7)
fit_noisy = pq.fit_qubo(noisy, basis, enc, backend="brute")
system_noisy = pq.normal_equations(noisy, basis)
root_noisy = np.linalg.solve(system_noisy.coeffs[1], -system_noisy.coeffs[0])
print("continuous estimator:", np.round(root_noisy, 4))
print("best grid point:     ", fit_noisy.params)
