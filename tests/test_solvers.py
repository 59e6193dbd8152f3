"""Brute-force enumeration, simulated annealing, conjugate gradient."""

import numpy as np
import pytest

from conftest import random_encoding, random_system
from polyqubo import (
    AnnealSchedule,
    BruteForceResult,
    PolynomialSystem,
    QuboMatrix,
    SampleSet,
    all_bitstrings,
    brute_force,
    compile_linear_qubo,
    compile_pubo,
    conjugate_gradient,
    from_range,
    pubo_energy,
    quadratize,
    qubo_energy,
    simulated_anneal,
    solve,
    sparsify,
)
from polyqubo.linsys import ConditionedSpec, make_conditioned_matrix, make_rhs


@pytest.fixture
def quad_pubo(quad_system, quad_encoding):
    return compile_pubo(quad_system, quad_encoding)


@pytest.fixture
def quad_qubo(quad_pubo):
    return quadratize(quad_pubo, aux="all")


class TestBruteForce:
    def test_four_bit_ground_state(self, quad_pubo):
        result = brute_force(quad_pubo)
        np.testing.assert_array_equal(result.bits, [0, 1, 1, 1])
        assert result.energy == 0.0
        assert result.num_ground == 1

    def test_ten_bit_ground_state(self, quad_qubo):
        result = brute_force(quad_qubo)
        assert tuple(result.bits) == (0, 1, 1, 1, 0, 0, 0, 1, 1, 1)

    def test_ground_energy_reevaluates(self, quad_pubo, quad_qubo):
        for objective, energy_fn in ((quad_pubo, pubo_energy), (quad_qubo, qubo_energy)):
            result = brute_force(objective)
            assert energy_fn(objective, result.bits) == result.energy

    def test_spectrum_matches_direct_evaluation(self, quad_pubo):
        result = brute_force(quad_pubo, spectrum=True)
        states = all_bitstrings(4)
        np.testing.assert_array_equal(result.energies, pubo_energy(quad_pubo, states))
        lowest = result.lowest(3)
        assert lowest[0][0] == result.energy
        assert [e for e, _ in lowest] == sorted(e for e, _ in lowest)

    def test_deterministic(self, quad_qubo):
        a = brute_force(quad_qubo)
        b = brute_force(quad_qubo)
        np.testing.assert_array_equal(a.bits, b.bits)
        assert a.energy == b.energy

    def test_tie_counting(self):
        pubo = sparsify({(0,): 0.0}, num_bits=2)  # flat landscape
        result = brute_force(pubo)
        assert result.num_ground == 4
        np.testing.assert_array_equal(result.bits, [0, 0])  # lowest state integer

    def test_over_limit_rejected_with_size(self):
        pubo = sparsify({(0,): 1.0}, num_bits=30)
        with pytest.raises(ValueError, match="2\\^30"):
            brute_force(pubo)

    def test_over_limit_message_for_float_overflowing_state_count(self):
        # 2^1100 does not fit a float; the message must not try to print it as one
        pubo = sparsify({(0,): 1.0}, num_bits=1100)
        with pytest.raises(ValueError, match="1100 bits.*limit of 24 bits"):
            brute_force(pubo)

    def test_chunked_enumeration_consistent(self, quad_qubo):
        # 10 bits > one 16-bit chunk is not triggered here; force chunking by
        # checking a 17-bit problem agrees with direct evaluation on samples
        rng = np.random.default_rng(1)
        system = random_system(rng, 3, 2, 1)
        enc = random_encoding(rng, 2, 6)  # 12 bits
        qm = compile_linear_qubo(system, enc)
        result = brute_force(qm, spectrum=True)
        states = all_bitstrings(12)
        np.testing.assert_allclose(result.energies, qubo_energy(qm, states), rtol=1e-12)


class TestSimulatedAnneal:
    def test_single_bit_minimum(self):
        qm = QuboMatrix([[-1.0]], offset=0.5, num_logical=1)
        samples = simulated_anneal(qm, reads=50, sweeps=20, seed=0)
        assert len(samples.records) == 1
        assert samples.records[0].bits == (1,)
        assert samples.records[0].energy == -0.5
        assert samples.ground_fraction() == 1.0

    def test_finds_ten_bit_ground_state(self, quad_qubo):
        samples = simulated_anneal(quad_qubo, reads=2000, sweeps=300, seed=7)
        ground = brute_force(quad_qubo)
        assert samples.best.energy == pytest.approx(ground.energy, abs=1e-9)
        assert tuple(samples.best.bits) == tuple(ground.bits)

    def test_never_beats_brute_force(self, quad_qubo):
        ground = brute_force(quad_qubo).energy
        samples = simulated_anneal(quad_qubo, reads=500, sweeps=100, seed=3)
        assert samples.best.energy >= ground - 1e-9

    def test_hit_fraction_stable_across_seeds(self):
        spec = ConditionedSpec(4, 1.1, seed=0)
        p1 = make_conditioned_matrix(spec)
        p0 = make_rhs(4)
        system = PolynomialSystem([p0, p1])
        enc = from_range(-1.0, 1.0, 2, num_vars=4)
        qm = compile_linear_qubo(system, enc)
        ground = brute_force(qm).energy
        fractions = []
        for seed in range(5):
            samples = simulated_anneal(qm, reads=400, sweeps=10, seed=seed)
            hits = sum(
                r.count for r in samples.records if r.energy <= ground + 1e-9
            )
            fractions.append(hits / samples.total_reads)
        assert all(f > 0 for f in fractions)
        assert max(fractions) / min(fractions) <= 10.0

    def test_bit_reproducible(self, quad_qubo):
        a = simulated_anneal(quad_qubo, reads=300, sweeps=50, seed=11)
        b = simulated_anneal(quad_qubo, reads=300, sweeps=50, seed=11)
        assert a.to_json() == b.to_json()

    def test_chunking_does_not_change_results(self, quad_qubo):
        # the per-read generator contract: serial (chunk=1) equals batched
        serial = simulated_anneal(quad_qubo, reads=40, sweeps=30, seed=5, read_chunk=1)
        batched = simulated_anneal(quad_qubo, reads=40, sweeps=30, seed=5, read_chunk=64)
        assert serial.to_json() == batched.to_json()

    def test_counts_sum_to_reads(self, quad_qubo):
        samples = simulated_anneal(quad_qubo, reads=123, sweeps=40, seed=2)
        assert sum(r.count for r in samples.records) == 123

    def test_energies_reevaluate(self, quad_qubo):
        samples = simulated_anneal(quad_qubo, reads=100, sweeps=40, seed=4)
        for record in samples.records:
            assert qubo_energy(quad_qubo, record.bits) == pytest.approx(
                record.energy, rel=1e-12
            )

    def test_json_round_trip(self, quad_qubo):
        samples = simulated_anneal(quad_qubo, reads=64, sweeps=30, seed=9)
        back = SampleSet.from_json(samples.to_json())
        assert back.to_json() == samples.to_json()
        assert back.total_reads == samples.total_reads

    def test_bad_arguments_rejected(self, quad_qubo):
        with pytest.raises(ValueError, match=">= 1"):
            simulated_anneal(quad_qubo, reads=0)
        with pytest.raises(ValueError, match=">= 1"):
            simulated_anneal(quad_qubo, reads=5, sweeps=0)


class TestSolve:
    def test_brute_returns_enumeration_result(self, quad_qubo):
        bits, energy, result = solve(quad_qubo, "brute", reads=1, sweeps=1, seed=0)
        assert isinstance(result, BruteForceResult)
        assert bits.dtype == np.uint8
        np.testing.assert_array_equal(bits, brute_force(quad_qubo).bits)
        assert energy == result.energy

    def test_anneal_passes_schedule_through(self, quad_qubo):
        cold = AnnealSchedule(t_hot=1e-9, t_cold=1e-12)
        bits, energy, samples = solve(
            quad_qubo, "anneal", reads=50, sweeps=20, seed=4, schedule=cold
        )
        direct = simulated_anneal(quad_qubo, reads=50, sweeps=20, seed=4, schedule=cold)
        assert samples.to_json() == direct.to_json()
        default = simulated_anneal(quad_qubo, reads=50, sweeps=20, seed=4)
        assert samples.to_json() != default.to_json()
        assert bits.dtype == np.uint8
        assert tuple(bits) == direct.best.bits
        assert energy == direct.best.energy

    @pytest.mark.parametrize("backend", ["cg", "quantum", "Brute"])
    def test_unknown_backend_rejected(self, quad_qubo, backend):
        with pytest.raises(ValueError, match="'brute' or 'anneal'"):
            solve(quad_qubo, backend, reads=1, sweeps=1, seed=0)


class TestAnnealSchedule:
    def test_default_ladder_from_objective(self, quad_qubo):
        t_hot, t_cold = AnnealSchedule().resolve(quad_qubo)
        mags = np.abs(quad_qubo.matrix[quad_qubo.matrix != 0])
        assert t_hot == mags.max() * quad_qubo.num_bits
        assert t_cold == 1e-3 * mags.min()

    def test_overrides(self, quad_qubo):
        assert AnnealSchedule(t_hot=9.0, t_cold=0.1).resolve(quad_qubo) == (9.0, 0.1)

    def test_geometric_endpoints(self, quad_qubo):
        temps = AnnealSchedule(t_hot=8.0, t_cold=0.5).temperatures(quad_qubo, 5)
        assert temps[0] == 8.0
        assert temps[-1] == pytest.approx(0.5)
        ratios = temps[1:] / temps[:-1]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)

    def test_inverted_ladder_rejected(self, quad_qubo):
        with pytest.raises(ValueError, match="ladder"):
            AnnealSchedule(t_hot=0.1, t_cold=1.0).resolve(quad_qubo)

    def test_all_zero_matrix_fallback(self):
        qm = QuboMatrix(np.zeros((2, 2)), 0.0, 2)
        assert AnnealSchedule().resolve(qm) == (1.0, 1e-3)


class TestConjugateGradient:
    def test_identity_one_iteration(self):
        rng = np.random.default_rng(0)
        p0 = rng.standard_normal(12)
        report = conjugate_gradient(np.eye(12), p0)
        assert report.converged
        assert report.iterations == 1
        np.testing.assert_allclose(report.solution, -p0, rtol=1e-12)

    def test_diagonal_exact(self):
        report = conjugate_gradient(np.diag([1.0, 2.0]), [-1.0, -2.0])
        assert report.converged
        assert report.iterations <= 2
        np.testing.assert_allclose(report.solution, [1.0, 1.0], rtol=1e-12)

    def test_residual_below_tolerance(self):
        p1 = make_conditioned_matrix(ConditionedSpec(12, 100.0, seed=1))
        p0 = make_rhs(12)
        report = conjugate_gradient(p1, p0, tol=1e-6)
        assert report.converged
        assert report.relative_residual <= 1e-6
        true_res = np.linalg.norm(p1 @ report.solution + p0) / np.linalg.norm(p0)
        assert true_res <= 2e-6

    def test_iteration_cap_flags_unconverged(self):
        p1 = make_conditioned_matrix(ConditionedSpec(12, 1e4, seed=0))
        p0 = make_rhs(12)
        report = conjugate_gradient(p1, p0, tol=1e-6, max_iter=3)
        assert not report.converged
        assert report.iterations == 3
        assert report.solution.shape == (12,)

    def test_iterations_nondecreasing_in_kappa(self):
        # statistical trend over five condition numbers, one inversion allowed
        kappas = [1.0, 10.0, 100.0, 1e3, 1e4]
        iters = []
        for kappa in kappas:
            p1 = make_conditioned_matrix(ConditionedSpec(12, kappa, seed=2))
            iters.append(conjugate_gradient(p1, make_rhs(12)).iterations)
        inversions = sum(1 for a, b in zip(iters, iters[1:]) if b < a)
        assert inversions <= 1
        assert iters[0] <= 2  # kappa = 1 terminates immediately

    def test_zero_constant_vector(self):
        report = conjugate_gradient(np.eye(3), np.zeros(3))
        assert report.converged
        assert report.iterations == 0
        np.testing.assert_array_equal(report.solution, np.zeros(3))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            conjugate_gradient(np.eye(3), np.zeros(2))

    def test_bad_tol_rejected(self):
        with pytest.raises(ValueError, match="tol"):
            conjugate_gradient(np.eye(2), np.ones(2), tol=0.0)

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValueError, match="not symmetric"):
            conjugate_gradient([[2.0, 1.0], [0.0, 2.0]], [-1.0, -1.0])

    @pytest.mark.parametrize("diagonal", [[1.0, -1.0], [1.0, -2.0]])
    def test_non_positive_curvature_rejected(self, diagonal):
        # zero curvature would divide by zero; negative curvature would let
        # an indefinite matrix report converged=True
        with pytest.raises(ValueError, match="not positive definite"):
            conjugate_gradient(np.diag(diagonal), [-1.0, -1.0])
