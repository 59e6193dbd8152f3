"""Walkthrough: a two-equation second-order system, end to end.

Compiles the bundled quadratic system to a multilinear binary objective,
reduces it to a 10-bit QUBO with auxiliary products, and recovers the
integer root (2, 3) three ways: exhaustive search of the 4-bit polynomial,
exhaustive search of the quadratized QUBO, and simulated annealing.

Run from the repository root:  python demos/01_second_order_system.py
"""

import numpy as np

import polyqubo as pq

system = pq.load_system("fixtures/quadratic_2x2.json")
print("system:", system)
print("residuals at the integer root (2, 3):", pq.evaluate_residuals(system, [2.0, 3.0]))
print("residual sum of squares at the origin:", pq.chi_squared(system, [0.0, 0.0]))

# 2 bits per variable over [0, 3]: a 4-bit search space of 16 candidates
enc = pq.from_range([0.0, 0.0], [3.0, 3.0], 2)
print("\nencoding:", enc)

print("\n--- exhaustive search of the multilinear objective ---")
pubo = pq.compile_pubo(system, enc)
print("objective:", pubo)
result = pq.brute_force(pubo)
x = pq.decode(enc, result.bits)
print(f"ground state bits {result.bits} -> x = {x}, energy = {result.energy}")

# the objective energy IS the residual sum of squares at the decoded point;
# row s of the state table has bit i = (s >> i) & 1
codes = np.arange(2**enc.num_bits)
states = ((codes[:, None] >> np.arange(enc.num_bits)) & 1).astype(np.uint8)
gap = np.max(np.abs(pq.pubo_energy(pubo, states)
                    - pq.chi_squared(system, pq.decode(enc, states))))
print("max |objective - residual sum of squares| over all 16 states:", gap)

print("\n--- quadratization: cubic/quartic terms via auxiliary products ---")
qm = pq.quadratize(pubo, aux="all")
print("qubo:", qm)
print("penalty weight:", qm.penalty, "(from choose_penalty:", pq.choose_penalty(pubo), ")")
result10 = pq.brute_force(qm)
print("10-bit ground state:", tuple(int(b) for b in result10.bits))
print("  logical bits decode to:", pq.decode(enc, result10.bits[:4]))
print("  auxiliary bits equal the pairwise products of the logical bits:")
for aux_index, (i, j) in qm.aux_map.items():
    print(f"    bit {aux_index} = psi_{i} * psi_{j} =", int(result10.bits[aux_index]))

print("\n--- simulated annealing on the same QUBO ---")
samples = pq.simulated_anneal(qm, reads=5000, sweeps=300, seed=0)
best = samples.best
print(f"best of {samples.total_reads} reads: bits {best.bits}, energy {best.energy}")
print(f"fraction of reads at the lowest energy: {samples.ground_fraction():.1%}")
print("decoded solution:", pq.decode(enc, np.array(best.bits[:4])))
