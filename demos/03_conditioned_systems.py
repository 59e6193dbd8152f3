"""Walkthrough: solver behavior as conditioning, size, and precision vary.

Builds symmetric positive-definite test matrices with prescribed eigenvalues,
runs conjugate gradient across four decades of condition number, and then
drives the three desk-scale scaling sweeps with the annealing backend.

Run from the repository root:  python demos/03_conditioned_systems.py
"""

import polyqubo as pq

print("--- conjugate gradient vs condition number (12x12, tol 1e-6) ---")
for kappa in (1.0, 10.0, 100.0, 1e3, 1e4):
    p1 = pq.make_conditioned_matrix(pq.ConditionedSpec(12, kappa, seed=0))
    report = pq.conjugate_gradient(p1, pq.make_rhs(12), tol=1e-6)
    print(f"  kappa={kappa:>8.1f}: iterations={report.iterations:3d}  "
          f"residual norm ratio={report.residual_norm_ratio:.2e}")
print("note: 12 distinct eigenvalues exhaust the Krylov space by iteration 12,")
print("so the count saturates there instead of growing with conditioning")

print("\n--- problem-size sweep (kappa 1.1, 2 bits/variable, annealing) ---")
rows = pq.run_sweep("size", [2, 4, 6, 8], backend="anneal",
                    reads=2000, sweeps=100, seed=0)
for row in rows:
    print(f"  n={row['param']}: min energy={row['min_energy']:.3e}  "
          f"residual={row['rel_residual']:.3e}  hit={row['hit_fraction']:.1%}  "
          f"grid-rounding floor={row['forward_error_residual']:.3e}")

print("\n--- condition-number sweep (n=4, 2 bits/variable, annealing) ---")
rows = pq.run_sweep("condition", [1.1, 10.0, 100.0, 1000.0], size=4,
                    backend="anneal", reads=2000, sweeps=100, seed=0)
for row in rows:
    print(f"  kappa={row['param']:>7}: residual={row['rel_residual']:.3e}  "
          f"hit={row['hit_fraction']:.1%}")

print("\n--- search-precision sweep (n=4, kappa 1.1, exhaustive) ---")
rows = pq.run_sweep("precision", [1, 2, 3, 4, 5], backend="brute", seed=0)
for row in rows:
    print(f"  bits={row['param']}: residual={row['rel_residual']:.3e}  "
          f"grid-rounding floor={row['forward_error_residual']:.3e}")
print("finer grids cut the residual exponentially on average; single steps")
print("can wobble because grids at different bit counts interleave, but")
print("doubling the bit count always nests the old grid inside the new one")
