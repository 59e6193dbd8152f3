"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.  Each
criterion prints its PASS/FAIL verdict before asserting, so failures still
show the measured values.
"""

import math

import numpy as np

from conftest import FIXTURE_DIR, random_encoding, random_system
from polyqubo import (
    ConditionedSpec,
    PolynomialSystem,
    all_bitstrings,
    brute_force,
    chi_squared,
    choose_penalty,
    compile_linear_qubo,
    compile_pubo,
    conjugate_gradient,
    decode,
    fit_qubo,
    forward_error_minimum,
    from_range,
    generate_dataset,
    iterate_solve,
    load_system,
    make_conditioned_matrix,
    make_rhs,
    polynomial_basis,
    pubo_energy,
    quadratize,
    qubo_energy,
    relative_residual,
    simulated_anneal,
    solution_range,
    sparsify,
)
from polyqubo.cli import main as cli_main


def verdict(number: int, description: str, passed: bool, detail: str = ""):
    line = f"[criterion {number:2d}] {'PASS' if passed else 'FAIL'}: {description}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert passed, line


def test_criterion_01_worked_quadratic_ground_state():
    system = load_system(FIXTURE_DIR / "quadratic_2x2.json")
    enc = from_range([0.0, 0.0], [3.0, 3.0], 2)
    result = brute_force(compile_pubo(system, enc))
    x = decode(enc, result.bits)
    ok = np.array_equal(x, [2.0, 3.0]) and abs(result.energy) <= 1e-9
    verdict(1, "worked quadratic system decodes to (2, 3) with energy 0", ok,
            f"x={x.tolist()}, energy={result.energy!r}")


def test_criterion_02_quadratized_ten_bit_ground_state():
    system = load_system(FIXTURE_DIR / "quadratic_2x2.json")
    enc = from_range([0.0, 0.0], [3.0, 3.0], 2)
    pubo = compile_pubo(system, enc)
    qm = quadratize(pubo, penalty=choose_penalty(pubo), aux="all")
    bits = tuple(int(b) for b in brute_force(qm).bits)
    expected = (0, 1, 1, 1, 0, 0, 0, 1, 1, 1)
    verdict(2, "quadratized 10-bit ground state matches bit-for-bit",
            bits == expected, f"bits={bits}")


def test_criterion_03_regression_recovers_coefficients():
    data = generate_dataset(50)
    basis = polynomial_basis(data.x_grid, 2)
    enc = from_range(0.0, 15.0, 4, num_vars=3)
    fit = fit_qubo(data, basis, enc, backend="brute")
    bits = tuple(int(b) for b in fit.bits)
    expected_bits = (0, 0, 0, 1, 0, 0, 1, 0, 1, 1, 1, 0)
    ok = np.array_equal(fit.params, [8.0, 4.0, 7.0]) and bits == expected_bits
    verdict(3, "noiseless regression ground state decodes to (8, 4, 7)", ok,
            f"params={fit.params.tolist()}, bits={bits}")


def test_criterion_04_iterative_refinement_single_precision():
    p1 = make_conditioned_matrix(ConditionedSpec(4, 1.1, seed=0))
    p0 = make_rhs(4)
    trace = iterate_solve(p1, p0, 4, 9, backend="brute",
                          initial_lo=-1.0, initial_hi=1.0)
    res = trace.residuals
    ok = res[-1] <= 1e-6 and bool(np.all(np.diff(res) <= 0))
    verdict(4, "nine refinement iterations reach residual <= 1e-6, non-increasing",
            ok, f"final={res[-1]:.3e}, iterations={len(res)}")


def _cg_iterations(size, kappas, tol):
    reports = [conjugate_gradient(make_conditioned_matrix(ConditionedSpec(size, k, seed=0)),
                                  make_rhs(size), tol=tol) for k in kappas]
    return [r.iterations for r in reports], all(r.converged for r in reports)


def test_criterion_05_cg_iteration_scaling():
    tol = 1e-6
    # finite termination: n distinct eigenvalues stop CG by iteration n,
    # whatever the condition number
    small_n, small_kappas = 12, [10.0, 100.0, 1000.0, 10000.0]
    small_its, small_conv = _cg_iterations(small_n, small_kappas, tol)
    # sqrt(kappa) growth (Chebyshev bound) needs a dense low end of the
    # spectrum, i.e. n well above kappa_max; at n = 4 kappa_max the count is
    # set by the bound, never by Krylov exhaustion
    n, kappas = 1024, [4.0, 16.0, 64.0, 256.0]
    its, conv = _cg_iterations(n, kappas, tol)
    # residual-norm Chebyshev bound: ||r_k|| / ||b|| <= 2 sqrt(kappa) rho^k,
    # rho = (sqrt(kappa) - 1) / (sqrt(kappa) + 1)
    bounds = [math.ceil(0.5 * math.sqrt(k) * math.log(2.0 * math.sqrt(k) / tol))
              for k in kappas]
    slope = float(np.polyfit(np.log(kappas), np.log(its), 1)[0])
    ok = (small_conv and max(small_its) <= small_n
          and conv and all(i <= b < n for i, b in zip(its, bounds))
          and 0.4 <= slope <= 0.8)
    verdict(5, "CG stops by iteration n at 12x12; log-log slope of iterations "
               "vs condition number in [0.4, 0.8]",
            ok, f"n={small_n}, kappa={small_kappas}: iterations={small_its}; "
                f"n={n}, kappa={kappas}: iterations={its}, Chebyshev bounds={bounds}, "
                f"slope={slope:.3f}")


def test_criterion_06_energy_identity_random_systems():
    rng = np.random.default_rng(106)
    checked = 0
    worst = 0.0
    for _ in range(100):
        num_vars = int(rng.integers(1, 5))
        bits = int(rng.integers(1, 5))
        while num_vars * bits > 16:
            bits -= 1
        system = random_system(rng, int(rng.integers(1, 4)), num_vars,
                               int(rng.integers(1, 3)))
        enc = random_encoding(rng, num_vars, bits)
        pubo = compile_pubo(system, enc)
        states = all_bitstrings(enc.num_bits)
        lhs = pubo_energy(pubo, states)
        rhs = chi_squared(system, decode(enc, states))
        # relative to the instance's energy scale: pointwise ratios blow up
        # where both paths cancel to ~eps near an exact root
        scale = max(1.0, float(np.max(np.abs(rhs))))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))) / scale)
        checked += 1
    ok = checked == 100 and worst <= 1e-9
    verdict(6, "bit-basis energy equals residual sum of squares on 100 random systems",
            ok, f"worst scaled deviation={worst:.2e}")


def test_criterion_07_quadratization_exactness():
    rng = np.random.default_rng(107)
    for _ in range(100):
        num_bits = int(rng.integers(4, 9))
        raw = {}
        for _ in range(int(rng.integers(1, 5))):  # higher-order terms
            size = int(rng.integers(3, 5))
            idx = tuple(sorted(rng.choice(num_bits, size=size, replace=False)))
            raw[idx] = float(rng.standard_normal())
        for _ in range(int(rng.integers(0, 4))):  # low-order terms
            size = int(rng.integers(1, 3))
            idx = tuple(sorted(rng.choice(num_bits, size=size, replace=False)))
            raw.setdefault(idx, float(rng.standard_normal()))
        pubo = sparsify(raw, num_bits=num_bits)
        qm = quadratize(pubo)  # penalty defaults to choose_penalty
        n_aux = qm.num_aux
        total = num_bits + n_aux
        energies = brute_force(qm, spectrum=True).energies
        table = energies.reshape(2**n_aux, 2**num_bits)  # [aux int, logical int]
        logical_states = all_bitstrings(num_bits)
        target = pubo_energy(pubo, logical_states)
        mins = table.min(axis=0)
        if not np.allclose(mins, target, rtol=1e-9, atol=1e-9):
            verdict(7, "min-over-aux energy equals the polynomial energy", False,
                    f"max deviation {np.max(np.abs(mins - target)):.2e}")
        # unique minimizer, and it is the product assignment
        argmins = table.argmin(axis=0)
        counts = (table == mins).sum(axis=0)
        product_int = np.zeros(2**num_bits, dtype=np.int64)
        for k, (i, j) in enumerate(qm.aux_pairs):
            product_int |= (logical_states[:, i].astype(np.int64)
                            & logical_states[:, j]) << k
        if not (np.all(counts == 1) and np.array_equal(argmins, product_int)):
            verdict(7, "minimizing auxiliaries equal the bit products", False,
                    f"bits={num_bits}, aux={n_aux}")
    verdict(7, "quadratization exact on 100 random quartic polynomials", True)


def test_criterion_08_linear_fast_path_equivalence():
    rng = np.random.default_rng(108)
    worst = 0.0
    for _ in range(100):
        num_vars = int(rng.integers(1, 5))
        bits = int(rng.integers(1, 4))
        system = random_system(rng, int(rng.integers(1, 6)), num_vars, 1)
        enc = random_encoding(rng, num_vars, bits)
        qm = compile_linear_qubo(system, enc)
        pubo = compile_pubo(system, enc)
        states = all_bitstrings(enc.num_bits)
        lhs = qubo_energy(qm, states)
        rhs = pubo_energy(pubo, states)
        scale = max(1.0, float(np.max(np.abs(rhs))))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))) / scale)
    ok = worst <= 1e-9
    verdict(8, "linear fast path equals general path on 100 random systems",
            ok, f"worst scaled deviation={worst:.2e}")


def test_criterion_09_backward_optimality():
    count = 0
    for kappa in (1.1, 10.0, 100.0, 1e3, 1e4):
        for seed in range(4):
            p1 = make_conditioned_matrix(ConditionedSpec(4, kappa, seed=seed))
            p0 = make_rhs(4)
            lo, hi = solution_range(p1, p0)
            enc = from_range(lo, hi, 2, num_vars=4)
            qm = compile_linear_qubo(PolynomialSystem([p0, p1]), enc)
            winner = decode(enc, brute_force(qm).bits)
            winner_res = relative_residual(p1, p0, winner)
            grid = decode(enc, all_bitstrings(enc.num_bits))
            grid_res = np.sum((grid @ p1.T + p0) ** 2, axis=1) / float(p0 @ p0)
            _, fwd_res = forward_error_minimum(p1, p0, enc)
            tol = 1e-12 * max(1.0, float(grid_res.min()))
            if not (winner_res <= grid_res.min() + tol and winner_res <= fwd_res + tol):
                verdict(9, "brute-force minimizer beats every grid point", False,
                        f"kappa={kappa}, seed={seed}, winner={winner_res:.3e}, "
                        f"best grid={grid_res.min():.3e}")
            count += 1
    verdict(9, f"backward optimality on {count} conditioned instances", count >= 20)


def test_criterion_10_determinism(tmp_path):
    system = load_system(FIXTURE_DIR / "quadratic_2x2.json")
    enc = from_range([0.0, 0.0], [3.0, 3.0], 2)
    qm = quadratize(compile_pubo(system, enc), aux="all")
    a = simulated_anneal(qm, reads=500, sweeps=100, seed=42).to_json()
    b = simulated_anneal(qm, reads=500, sweeps=100, seed=42).to_json()
    args = ["solve-poly", str(FIXTURE_DIR / "quadratic_2x2.json"), "--backend",
            "anneal", "--reads", "200", "--sweeps", "50", "--seed", "4",
            "--lo", "0", "--hi", "3", "--bits", "2"]
    ra, rb = tmp_path / "a.json", tmp_path / "b.json"
    assert cli_main(args + ["--output", str(ra)]) == 0
    assert cli_main(args + ["--output", str(rb)]) == 0
    ok = a == b and ra.read_bytes() == rb.read_bytes()
    verdict(10, "fixed seeds give byte-identical sample sets and reports", ok)
