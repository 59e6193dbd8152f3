"""Brute-force enumeration, simulated annealing, conjugate gradient."""

import math
import tracemalloc
import warnings
from itertools import combinations
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_bitstrings, dense_pubo, sample_key, planted_pubo, random_encoding, random_system
from polyqubo import (
    AnnealSchedule,
    PolynomialSystem,
    QuboMatrix,
    SampleRecord,
    SampleSet,
    brute_force,
    compile_linear_qubo,
    compile_pubo,
    conjugate_gradient,
    decode,
    from_range,
    nearest_bits,
    pubo_energy,
    quadratize,
    qubo_energy,
    refine,
    simulated_anneal,
    solve,
    solvers,
    sparsify,
)
from polyqubo.linsys import ConditionedSpec, make_conditioned_matrix, make_rhs


def reference_anneal(qm, reads, sweeps, seed, schedule=None, read_chunk=512):
    """simulated_anneal's contract as one Metropolis step per (sweep, bit)."""
    temps = (schedule or AnnealSchedule()).temperatures(qm, sweeps)
    n = qm.num_bits
    coupling = qm.matrix + qm.matrix.T
    np.fill_diagonal(coupling, 0.0)
    diag = np.diag(qm.matrix).copy()
    counts = {}
    for start in range(0, reads, read_chunk):
        size = min(read_chunk, reads - start)
        states = np.empty((size, n))
        uniforms = np.empty((size, sweeps, n))
        for r in range(size):
            rng = np.random.default_rng(seed + start + r)
            states[r] = rng.integers(0, 2, size=n)
            uniforms[r] = rng.random((sweeps, n))
        for s in range(sweeps):
            t = temps[s]
            for v in range(n):
                col = states[:, v]
                delta = (1.0 - 2.0 * col) * (diag[v] + states @ coupling[:, v])
                accept = uniforms[:, s, v] < np.exp(np.minimum(-delta / t, 0.0))
                states[:, v] = np.where(accept, 1.0 - col, col)
        for row in states:
            bits = tuple(int(b) for b in row)
            counts[bits] = counts.get(bits, 0) + 1
    records = [SampleRecord(bits, qubo_energy(qm, bits), c) for bits, c in counts.items()]
    records.sort(key=lambda r: (r.energy, r.bits))
    return SampleSet(tuple(records), total_reads=reads, rng_seed=seed)


def high_rows_per_block(monkeypatch, num_bits, rows):
    """Make brute_force on ``num_bits`` bits take ``rows`` high-half rows per block."""
    monkeypatch.setattr(solvers, "_BLOCK_FLOATS", rows << (num_bits // 2))


def conditioned_system(seed):
    """A conditioned 4x4 system (kappa 100) and a 3-bit grid: 12 bits."""
    p1 = make_conditioned_matrix(ConditionedSpec(4, 100.0, seed=seed))
    return PolynomialSystem([make_rhs(4), p1]), from_range(-2.0, 2.0, 3, num_vars=4)


@pytest.fixture(scope="module")
def poly_qubos():
    """Quadratized planted systems of 76 and 208 bits, as the benchmark solves."""
    rng = np.random.default_rng(7)
    return [quadratize(planted_pubo(rng, *shape)) for shape in ((3, 3, 4), (4, 4, 5))]


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
        result = brute_force(quad_pubo)
        spectrum = pubo_energy(quad_pubo, all_bitstrings(4))
        assert result.energy == spectrum.min()
        np.testing.assert_array_equal(result.bits, all_bitstrings(4)[np.argmin(spectrum)])
        assert result.num_ground == np.count_nonzero(spectrum == spectrum.min())

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

    def test_chunked_enumeration_consistent(self, monkeypatch):
        # 12 bits in blocks of 1, 3 and all 64 high rows give one result
        rng = np.random.default_rng(1)
        system = random_system(rng, 3, 2, 1)
        enc = random_encoding(rng, 2, 6)  # 12 bits
        qm = compile_linear_qubo(system, enc)
        results = []
        for rows in (1, 3, 64):
            high_rows_per_block(monkeypatch, 12, rows)
            result = brute_force(qm)
            results.append((tuple(result.bits), result.energy, result.num_ground))
        assert len(set(results)) == 1
        spectrum = qubo_energy(qm, all_bitstrings(12))
        assert results[0][0] == tuple(all_bitstrings(12)[np.argmin(spectrum)])

    def test_ties_across_chunks_counted(self, monkeypatch):
        # a flat landscape in blocks of one high row, two states: every block
        # ties the first
        high_rows_per_block(monkeypatch, 3, 1)
        result = brute_force(sparsify({(0,): 0.0}, num_bits=3))
        assert result.num_ground == 8
        np.testing.assert_array_equal(result.bits, [0, 0, 0])

    def test_offset_does_not_move_the_ground(self):
        # the offset stays out of the enumeration: energies 1 apart stay
        # apart even where an offset of 1e17 (ulp 16) would round them together
        rng = np.random.default_rng(4)
        matrix = np.triu(rng.integers(-3, 4, (10, 10))).astype(float)
        base = brute_force(QuboMatrix(matrix, 0.0, 10))
        for offset in (0.25, -7.0, 1e17):
            shifted = brute_force(QuboMatrix(matrix, offset, 10))
            np.testing.assert_array_equal(shifted.bits, base.bits)
            assert shifted.num_ground == base.num_ground
            assert shifted.energy == qubo_energy(QuboMatrix(matrix, offset, 10), shifted.bits)

    def test_equal_minima_in_distant_blocks(self, monkeypatch):
        # 6 bits in blocks of one high row (8 states): energy -1 on exactly
        # the states 13 (block 1) and 50 (block 6), 0 elsewhere
        def indicator(state):
            ones = tuple(i for i in range(6) if state >> i & 1)
            zeros = [i for i in range(6) if not state >> i & 1]
            return [(ones + extra, -((-1.0) ** len(extra)))
                    for k in range(len(zeros) + 1) for extra in combinations(zeros, k)]

        pubo = sparsify(indicator(50) + indicator(13), num_bits=6)
        high_rows_per_block(monkeypatch, 6, 1)
        result = brute_force(pubo)
        assert result.num_ground == 2
        np.testing.assert_array_equal(result.bits, [(13 >> i) & 1 for i in range(6)])
        assert result.energy == -1.0

    @pytest.mark.parametrize("seed, rounds, bits, num_ground", [
        (0, 0, "00100001100010100111", 1),
        (1, 1, "10010010010111011101", 1),
        (2, 2, "10110000101000111001", 1),
        (3, 0, "00100001101100101011", 1),
        (4, 1, "11010011010010111010", 1),
    ])
    def test_golden_refinement_rounds(self, seed, rounds, bits, num_ground):
        # 20-bit rounds of the refinement loop: a 4x4 system (kappa 1.1) on a
        # window around its solution, refined ``rounds`` times about the
        # nearest grid point; energies are pubo_energy of the bits, so only
        # the bits and the tie count are pinned
        p1, p0 = make_conditioned_matrix(ConditionedSpec(4, 1.1, seed=seed)), make_rhs(4)
        x = conjugate_gradient(p1, p0, tol=1e-10).solution
        width = math.ceil(10.0 * float(np.max(np.abs(x)))) / 8.0
        enc = from_range(-width, width, 5, num_vars=4)
        for _ in range(rounds):
            enc = refine(enc, decode(enc, nearest_bits(enc, x)))
        result = brute_force(compile_linear_qubo(PolynomialSystem([p0, p1]), enc))
        assert "".join(map(str, result.bits)) == bits
        assert result.num_ground == num_ground

    @pytest.mark.parametrize("seed", [0, 5, 9])
    def test_energy_is_the_winner_alone(self, seed, monkeypatch):
        # the split sums a state's energy in another order than the state
        # alone, and a block's BLAS product can give a row other last bits
        # than the row alone; the reported energy is the latter
        system, enc = conditioned_system(seed)
        for objective, energy_fn in (
            (compile_linear_qubo(system, enc), qubo_energy),
            (compile_pubo(system, enc), pubo_energy),
        ):
            results = set()
            for rows in (1, 2, 5, 64):
                high_rows_per_block(monkeypatch, 12, rows)
                result = brute_force(objective)
                assert result.energy == energy_fn(objective, result.bits)
                results.add((tuple(result.bits), result.energy, result.num_ground))
            assert len(results) == 1

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_bits=st.integers(0, 13),
        kind=st.sampled_from(["qubo", "pubo", "qubo view"]),
        pattern=st.sampled_from(["zero", "dense", "free bits"]),
        rows=st.sampled_from([1, 3, None]),
    )
    def test_matches_direct_argmin(self, seed, num_bits, kind, pattern, rows):
        # integer coefficients keep every sum but the last, the real offset,
        # exact, so the split and a direct evaluation of all 2^n states must
        # agree on ties too; "free bits" plants multi-way ties: each bit that
        # no term touches doubles the ground; a QUBO and its PUBO view give
        # one result
        rng = np.random.default_rng(seed)
        free = rng.random(num_bits) < 0.4 if pattern == "free bits" else np.zeros(num_bits, bool)
        scale = 0 if pattern == "zero" else 3
        offset = float(rng.standard_normal()) if pattern != "zero" else 0.0
        if kind != "pubo":
            matrix = np.triu(rng.integers(-scale, scale + 1, (num_bits, num_bits))).astype(float)
            matrix[free, :] = matrix[:, free] = 0.0
            objective, energy_fn = QuboMatrix(matrix, offset, num_bits), qubo_energy
        else:
            terms = [((), offset)]
            for _ in range(int(rng.integers(0, 3 * num_bits + 1))):
                term = rng.choice(num_bits, size=int(rng.integers(1, 5)))
                if not free[term].any():
                    terms.append((tuple(term), float(rng.integers(-scale, scale + 1))))
            objective, energy_fn = sparsify(terms, num_bits), pubo_energy
        table = all_bitstrings(num_bits)
        spectrum = np.atleast_1d(energy_fn(objective, table))
        with pytest.MonkeyPatch.context() as patch:
            if rows is not None:
                high_rows_per_block(patch, num_bits, rows)
            result = brute_force(objective)
            if kind == "qubo view":
                view = brute_force(objective.pubo)
                np.testing.assert_array_equal(view.bits, result.bits)
                assert (view.energy, view.num_ground) == (result.energy, result.num_ground)
        np.testing.assert_array_equal(result.bits, table[np.argmin(spectrum)])
        assert result.energy == spectrum.min()
        assert result.num_ground == np.count_nonzero(spectrum == spectrum.min())
        assert result.num_ground >= 2 ** int(free.sum())
        if pattern == "zero":
            assert result.num_ground == 2**num_bits

    def test_memory_bounded(self):
        # a 20-bit round of the refinement loop; all 2^20 energies at once
        # would take 8 MB
        system, _ = conditioned_system(1)
        qm = compile_linear_qubo(system, from_range(-2.0, 2.0, 5, num_vars=4))
        assert qm.num_bits == 20
        tracemalloc.start()
        try:
            brute_force(qm)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6, f"peak {peak / 1e6:.1f} MB"

    def test_memory_bounded_on_dense_quartic(self):
        # every set of at most 4 of 20 bits, 6195 terms: the mixed terms'
        # subset-sum table is 175 high masks by 2^10 low states, 1.4 MB
        pubo = dense_pubo(np.random.default_rng(2), 20, 4)
        tracemalloc.start()
        try:
            result = brute_force(pubo)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6, f"peak {peak / 1e6:.1f} MB"
        assert result.energy == pubo_energy(pubo, result.bits)

    def test_enumeration_limit(self):
        flat = brute_force(QuboMatrix(np.zeros((24, 24)), 1.5, 24))
        assert (flat.num_ground, flat.energy) == (2**24, 1.5)
        np.testing.assert_array_equal(flat.bits, np.zeros(24))
        planted = np.arange(24) % 3 == 1
        qm = QuboMatrix(np.diag(np.where(planted, -1.0, 1.0)), 0.0, 24)
        result = brute_force(qm)
        np.testing.assert_array_equal(result.bits, planted)
        assert (result.energy, result.num_ground) == (-8.0, 1)

        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="25 bits.*limit of 24 bits"):
                brute_force(QuboMatrix(np.zeros((25, 25)), 0.0, 25))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000, f"peak {peak} bytes"  # a 2^12-row bit table takes 400 kB


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
        assert sample_key(a) == sample_key(b)

    def test_chunking_does_not_change_results(self, quad_qubo, monkeypatch):
        # the per-read generator contract: serial (chunk=1) equals batched
        batched = simulated_anneal(quad_qubo, reads=40, sweeps=30, seed=5)
        monkeypatch.setattr(solvers, "_READ_CHUNK", 1)
        serial = simulated_anneal(quad_qubo, reads=40, sweeps=30, seed=5)
        assert sample_key(serial) == sample_key(batched)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_bits=st.integers(0, 9),
        pattern=st.sampled_from(["zero", "dense", "sparse"]),
        reads=st.integers(1, 12),
        sweeps=st.integers(1, 6),
        read_chunk=st.sampled_from([1, 3, 512]),
        ladder=st.sampled_from([None, (5.0, 0.01), (1e-9, 1e-12), (1e6, 1e3)]),
    )
    def test_matches_per_bit_reference(
        self, seed, num_bits, pattern, reads, sweeps, read_chunk, ladder
    ):
        rng = np.random.default_rng(seed)
        matrix = np.triu(rng.standard_normal((num_bits, num_bits)))
        if pattern == "zero":
            matrix[:] = 0.0
        elif pattern == "sparse":
            matrix *= rng.random(matrix.shape) < rng.uniform(0.05, 0.5)
        qm = QuboMatrix(matrix, float(rng.standard_normal()), num_bits)
        schedule = AnnealSchedule(*ladder) if ladder else None
        args = dict(reads=reads, sweeps=sweeps, seed=seed % 1000, schedule=schedule)
        # hypothesis reruns the test body, so a function-scoped monkeypatch would leak
        with mock.patch.object(solvers, "_READ_CHUNK", read_chunk):
            got = sample_key(simulated_anneal(qm, **args))
        assert got == sample_key(reference_anneal(qm, **args, read_chunk=read_chunk))

    def test_matches_per_bit_reference_on_poly_qubo(self, poly_qubos):
        qm = poly_qubos[0]
        args = dict(reads=16, sweeps=20, seed=3)
        assert sample_key(simulated_anneal(qm, **args)) == sample_key(reference_anneal(qm, **args))

    @staticmethod
    def count_steps(qm, **args):
        """simulated_anneal's result and its number of Metropolis steps."""
        with mock.patch.object(solvers, "_run_fields", wraps=solvers._run_fields) as steps:
            samples = simulated_anneal(qm, **args)
        return samples, steps.call_count

    @staticmethod
    def num_runs(qm):
        return len(solvers._uncoupled_runs(qm.matrix + qm.matrix.T))

    def test_stops_after_a_frozen_sweep(self, poly_qubos):
        qm = poly_qubos[0]
        args = dict(reads=16, sweeps=60, seed=3)
        samples, steps = self.count_steps(qm, **args)
        assert sample_key(samples) == sample_key(reference_anneal(qm, **args))
        assert steps < 60 * self.num_runs(qm)

    def test_ladder_that_warms_again_keeps_annealing(self, monkeypatch):
        # the cold sweeps freeze every read at 0; each hot one flips every bit
        qm = QuboMatrix(np.diag([1.0, 2.0, 3.0, 4.0]), 0.0, 4)
        ladder = np.array([1e-30] * 3 + [1e9] * 3)
        monkeypatch.setattr(AnnealSchedule, "temperatures", lambda self, qm, sweeps: ladder)
        args = dict(reads=16, sweeps=6, seed=2)
        samples, steps = self.count_steps(qm, **args)
        assert sample_key(samples) == sample_key(reference_anneal(qm, **args))
        assert steps == 6 * self.num_runs(qm)
        assert samples.records[0].bits == (1, 1, 1, 1)

    def test_zero_qubo_runs_every_step(self):
        # every probability is exp(0) = 1, so no sweep is frozen
        qm = QuboMatrix(np.zeros((5, 5)), 0.0, 5)
        _, steps = self.count_steps(qm, reads=8, sweeps=30, seed=1)
        assert steps == 30 * self.num_runs(qm)

    def test_stops_at_the_first_sweep_no_uniform_can_flip(self, poly_qubos):
        # every probability is below 2^-54 by sweep 20; some stay above 0.0
        # until sweep 25, where a stop at exactly 0.0 would come
        qm = poly_qubos[1]
        args = dict(reads=16, sweeps=60, seed=3)
        samples, steps = self.count_steps(qm, **args)
        assert sample_key(samples) == sample_key(reference_anneal(qm, **args))
        assert steps == 20 * self.num_runs(qm)

    @pytest.mark.parametrize("uniform_floats, frozen_sweeps", [(solvers._UNIFORM_FLOATS, 2), (1, 8)])
    def test_zero_uniform_in_the_final_block_keeps_the_chunk_running(
        self, monkeypatch, uniform_floats, frozen_sweeps
    ):
        # at t = 1/40 a bit at 0 accepts with p = exp(-40) < 2^-54, so after
        # the first sweep only a uniform of exactly 0.0 can flip one.  In
        # blocks of one sweep only the last sweep is in the final block, and
        # the sweeps before it stop only where every probability is 0.0
        qm = QuboMatrix(np.eye(3), 0.0, 3)
        ladder = lambda self, qm, sweeps: np.full(sweeps, 1 / 40)  # noqa: E731
        monkeypatch.setattr(AnnealSchedule, "temperatures", ladder)
        monkeypatch.setattr(solvers, "_UNIFORM_FLOATS", uniform_floats)
        args = dict(reads=4, sweeps=8, seed=0)
        _, steps = self.count_steps(qm, **args)
        assert steps == frozen_sweeps * self.num_runs(qm)

        default_rng = np.random.default_rng

        def zero_in_last_sweep(seed):  # read 0 draws 0.0 for bit 2 in its last sweep
            rng = default_rng(seed)
            if seed:
                return rng
            drawn = [0]  # sweeps drawn so far

            def random(shape=None, out=None):  # the annealer passes out=, the reference a shape
                uniforms = rng.random(shape, out=out)
                drawn[0] += len(uniforms)
                if drawn[0] == args["sweeps"]:  # this block ends with the last sweep
                    uniforms[-1, 2] = 0.0
                return uniforms

            return SimpleNamespace(integers=rng.integers, random=random)

        monkeypatch.setattr(np.random, "default_rng", zero_in_last_sweep)
        samples, steps = self.count_steps(qm, **args)
        assert sample_key(samples) == sample_key(reference_anneal(qm, **args))
        assert steps == 8 * self.num_runs(qm)
        assert (0, 0, 1) in [record.bits for record in samples.records]

    def test_nan_probabilities_run_every_step(self):
        # couplings of 1e308 whose sign alternates with the index: summed in
        # SIMD lanes, each field meets +inf and -inf and is NaN, so every
        # probability is NaN, no bit flips, and no sweep counts as frozen
        n, reads = 32, 8
        signs = (-1.0) ** np.add.outer(np.arange(n), np.arange(n))
        qm = QuboMatrix(np.triu(1e308 * signs, 1), 0.0, n)
        coupling = qm.matrix + qm.matrix.T
        states = np.array([np.random.default_rng(r).integers(0, 2, n) for r in range(reads)])
        args = dict(reads=reads, sweeps=10, seed=0, schedule=AnnealSchedule(1.0, 0.5))
        with np.errstate(over="ignore", invalid="ignore"):
            for v in range(n):
                assert np.isnan(solvers._run_fields(states * 1.0, coupling.T, v)).all()
            samples, steps = self.count_steps(qm, **args)
            reference = reference_anneal(qm, **args)
        assert steps == 10 * self.num_runs(qm)
        # NaN energies compare unequal, so compare the states and their counts
        records = [sorted((r.bits, r.count) for r in s.records) for s in (samples, reference)]
        assert records[0] == records[1]

    def test_uniforms_are_multiples_of_2_to_the_minus_53(self):
        # the stop rule's floor rests on this: a uniform other than 0.0 is >= 2^-53
        for seed in (0, 1, 12345):
            scaled = np.random.default_rng(seed).random(10**5) * 2.0**53
            assert np.array_equal(scaled, np.floor(scaled))

    def test_uniform_blocks_keep_the_stream(self, quad_qubo, monkeypatch):
        # blocks of one sweep draw the same uniforms as one block of all sweeps
        whole = simulated_anneal(quad_qubo, reads=20, sweeps=15, seed=1)
        monkeypatch.setattr(solvers, "_UNIFORM_FLOATS", 1)
        assert sample_key(simulated_anneal(quad_qubo, reads=20, sweeps=15, seed=1)) == sample_key(
            whole
        )

    @pytest.mark.parametrize("reads", [1, 7, 64])
    def test_stacked_fields_equal_per_bit_fields(self, poly_qubos, reads):
        # the annealer's one matmul per run gives each bit the field that
        # states @ coupling[:, v] gives it, to the last bit
        for qm in poly_qubos:
            coupling = qm.matrix + qm.matrix.T
            np.fill_diagonal(coupling, 0.0)
            states = np.random.default_rng(reads).integers(0, 2, (reads, qm.num_bits)) * 1.0
            for a, b in ((0, qm.num_bits), (qm.num_logical, qm.num_bits), (3, 4)):
                fields = solvers._run_fields(states, coupling.T, slice(a, b))
                for v in range(a, b):
                    assert fields[:, v - a].tobytes() == (states @ coupling[:, v]).tobytes()
            for v in range(qm.num_bits):  # a lone bit's run is its index
                fields = solvers._run_fields(states, coupling.T, v)
                assert fields.tobytes() == (states @ coupling[:, v]).tobytes()

    def test_runs_are_maximal_and_uncoupled(self, poly_qubos):
        for qm in poly_qubos:
            coupling = qm.matrix + qm.matrix.T
            runs = solvers._uncoupled_runs(coupling)
            assert [a for a, _ in runs] == [0] + [b for _, b in runs[:-1]]
            assert runs[-1][1] == qm.num_bits
            for a, b in runs:
                block = coupling[a:b, a:b]
                assert not np.any(block - np.diag(np.diag(block)))
                if b < qm.num_bits:  # bit b is coupled to the run, so it ends it
                    assert np.any(coupling[a:b, b])
            assert len(runs) < qm.num_bits

    def test_poly_qubo_chunking_does_not_change_results(self, poly_qubos, monkeypatch):
        for qm, reads in zip(poly_qubos, (64, 16)):
            reports = set()
            for chunk in (1, 7, 512):
                monkeypatch.setattr(solvers, "_READ_CHUNK", chunk)
                reports.add(sample_key(simulated_anneal(qm, reads=reads, sweeps=30, seed=3)))
            assert len(reports) == 1
            records = reports.pop()[0]
            assert len(records) > 1
            # records are scored in one batch, each with its energy alone
            for record in records:
                assert record.energy == qubo_energy(qm, record.bits)

    def test_counts_sum_to_reads(self, quad_qubo):
        samples = simulated_anneal(quad_qubo, reads=123, sweeps=40, seed=2)
        assert sum(r.count for r in samples.records) == 123

    def test_energies_reevaluate(self, quad_qubo):
        samples = simulated_anneal(quad_qubo, reads=100, sweeps=40, seed=4)
        for record in samples.records:
            assert qubo_energy(quad_qubo, record.bits) == pytest.approx(
                record.energy, rel=1e-12
            )

    def test_bad_arguments_rejected(self, quad_qubo):
        with pytest.raises(ValueError, match=">= 1"):
            simulated_anneal(quad_qubo, reads=0)
        with pytest.raises(ValueError, match=">= 1"):
            simulated_anneal(quad_qubo, reads=5, sweeps=0)


class TestSolve:
    def test_brute_returns_enumeration_result(self, quad_qubo):
        bits, energy, solver = solve(quad_qubo, "brute", reads=1, sweeps=1, seed=0)
        exact = brute_force(quad_qubo)
        assert solver == {"backend": "brute", "num_ground": exact.num_ground}
        assert bits.dtype == np.uint8
        np.testing.assert_array_equal(bits, exact.bits)
        assert energy == exact.energy

    def test_anneal_passes_schedule_through(self, quad_qubo):
        for schedule in (AnnealSchedule(t_hot=1e-9, t_cold=1e-12), None):
            with mock.patch.object(solvers, "simulated_anneal", wraps=simulated_anneal) as spy:
                bits, energy, solver = solve(
                    quad_qubo, "anneal", reads=50, sweeps=20, seed=4, schedule=schedule
                )
            ladder = schedule or AnnealSchedule()
            assert spy.call_args.kwargs["schedule"] == ladder
            direct = simulated_anneal(quad_qubo, reads=50, sweeps=20, seed=4, schedule=ladder)
            t_hot, t_cold = ladder.resolve(quad_qubo)
            assert solver == {
                "backend": "anneal", "reads": 50, "sweeps": 20, "seed": 4,
                "t_hot": t_hot, "t_cold": t_cold, "ground_fraction": direct.ground_fraction(),
            }
            assert bits.dtype == np.uint8
            assert tuple(bits) == direct.best.bits
            assert energy == direct.best.energy

    def test_backends_agree_on_energy_when_bits_agree(self):
        # both report a winner's energy evaluated alone (seed 9 differed)
        matched = 0
        for seed in range(12):
            qm = compile_linear_qubo(*conditioned_system(seed))
            exact = solve(qm, "brute", reads=1, sweeps=1, seed=0)
            sampled = solve(qm, "anneal", reads=200, sweeps=100, seed=0)
            if np.array_equal(exact[0], sampled[0]):
                matched += 1
                assert exact[1] == sampled[1]
        assert matched >= 6

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

    @pytest.mark.parametrize("ladder", [(np.inf, 0.1), (np.nan, 0.1), (9.0, np.nan),
                                        (np.inf, np.inf), (None, np.inf)])
    def test_non_finite_ladder_rejected(self, quad_qubo, ladder):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="bad temperature ladder"):
                AnnealSchedule(*ladder).temperatures(quad_qubo, 5)

    def test_all_zero_matrix_fallback(self):
        qm = QuboMatrix(np.zeros((2, 2)), 0.0, 2)
        assert AnnealSchedule().resolve(qm) == (1.0, 1e-3)

    def test_all_zero_matrix_keeps_explicit_endpoints(self):
        # the fallback fills only unset endpoints; set ones are used and checked
        qm = QuboMatrix(np.zeros((2, 2)), 0.0, 2)
        assert AnnealSchedule(t_hot=5.0).resolve(qm) == (5.0, 1e-3)
        assert AnnealSchedule(t_cold=0.5).resolve(qm) == (1.0, 0.5)
        assert AnnealSchedule(9.0, 0.1).resolve(qm) == (9.0, 0.1)
        for ladder in ((5.0, np.inf), (np.nan, None), (None, 2.0)):
            with pytest.raises(ValueError, match="bad temperature ladder"):
                AnnealSchedule(*ladder).resolve(qm)


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
        assert report.residual_norm_ratio <= 1e-6
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
