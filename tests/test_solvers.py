"""Brute-force enumeration, simulated annealing, conjugate gradient."""

import math
import tracemalloc
import warnings
from itertools import combinations, permutations
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    FIXTURE_DIR, all_bitstrings, dense_pubo, planted_pubo, planted_system, random_encoding,
    random_system, sample_key,
)
from polyqubo import (
    AnnealSchedule,
    CgReport,
    PolynomialSystem,
    PseudoBooleanPolynomial,
    QuboMatrix,
    SampleRecord,
    SampleSet,
    SolverError,
    brute_force,
    chi_squared,
    compile_linear_qubo,
    compile_pubo,
    conjugate_gradient,
    decode,
    from_range,
    load_system,
    nearest_bits,
    pubo_energy,
    quadratize,
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
    records = [SampleRecord(bits, pubo_energy(qm, bits), c) for bits, c in counts.items()]
    records.sort(key=lambda r: (r.energy, r.bits))
    return SampleSet(tuple(records), total_reads=reads, rng_seed=seed)


def high_rows_per_block(monkeypatch, num_bits, rows):
    """Make brute_force on ``num_bits`` bits take ``rows`` high-half rows per block."""
    monkeypatch.setattr(solvers, "_BLOCK_FLOATS", rows << (num_bits // 2))


def golden_round(seed, rounds):
    """A 20-bit round of the refinement loop: a 4x4 system (kappa 1.1) on a
    window around its solution, refined ``rounds`` times about the nearest
    grid point."""
    p1, p0 = make_conditioned_matrix(ConditionedSpec(4, 1.1, seed=seed)), make_rhs(4)
    x = conjugate_gradient(p1, p0, tol=1e-10).solution
    width = math.ceil(10.0 * float(np.max(np.abs(x)))) / 8.0
    enc = from_range(-width, width, 5, num_vars=4)
    for _ in range(rounds):
        enc = refine(enc, decode(enc, nearest_bits(enc, x)))
    return compile_linear_qubo(PolynomialSystem([p0, p1]), enc)


def count_block_products(monkeypatch):
    """Count the np.matmul calls that write into a buffer: brute_force's block products."""
    calls, matmul = [], np.matmul

    def spy(*args, **kwargs):
        calls.append("out" in kwargs)
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    return lambda: sum(calls)


def no_block_bounds(left, right):
    """A bound of -inf on each row, in place of solvers._row_bounds: the rows keep
    their natural order and every block is scored."""
    return np.full(len(left), -np.inf)


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
        for objective in (quad_pubo, quad_qubo):
            result = brute_force(objective)
            assert pubo_energy(objective, result.bits) == result.energy

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
        spectrum = pubo_energy(qm, all_bitstrings(12))
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
            assert shifted.energy == pubo_energy(QuboMatrix(matrix, offset, 10), shifted.bits)

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

    GOLDEN_ROUNDS = [
        (0, 0, "00100001100010100111", 1),
        (1, 1, "10010010010111011101", 1),
        (2, 2, "10110000101000111001", 1),
        (3, 0, "00100001101100101011", 1),
        (4, 1, "11010011010010111010", 1),
    ]

    @pytest.mark.parametrize("seed, rounds, bits, num_ground", GOLDEN_ROUNDS)
    def test_golden_refinement_rounds(self, seed, rounds, bits, num_ground):
        # energies are pubo_energy of the bits, so only the bits and the tie
        # count are pinned
        result = brute_force(golden_round(seed, rounds))
        assert "".join(map(str, result.bits)) == bits
        assert result.num_ground == num_ground

    @pytest.mark.parametrize("seed, rounds", [case[:2] for case in GOLDEN_ROUNDS])
    def test_bound_skips_most_golden_blocks(self, seed, rounds, monkeypatch):
        # 32 blocks of 32 high rows, and the tie scored again: 33 products
        # without the bound; the rows sorted by their bounds pack the few that
        # can reach the ground into a handful of blocks
        qm = golden_round(seed, rounds)
        products = count_block_products(monkeypatch)
        brute_force(qm)
        assert products() <= 10

    def test_bound_skips_most_blocks_of_a_planted_24_bit_qubo(self, monkeypatch):
        # 512 blocks of 8 high rows; the high half's diagonal alone orders them
        planted = np.arange(24) % 3 == 1
        qm = QuboMatrix(np.diag(np.where(planted, -1.0, 1.0)), 0.0, 24)
        products = count_block_products(monkeypatch)
        result = brute_force(qm)
        np.testing.assert_array_equal(result.bits, planted)
        assert products() < 16

    @pytest.mark.parametrize("rows", [1, 3, None])
    @pytest.mark.parametrize("num_bits, seed", [(16, 0), (17, 1), (18, 2), (18, 3)])
    def test_ties_in_distant_high_rows(self, num_bits, seed, rows, monkeypatch):
        # the integer QUBO (w @ x - t)^2: every subset of the weights that sums
        # to t is a ground state of energy 0, and these lie in high rows far
        # apart whose bounds differ, so the sorted rows hold them out of order
        rng = np.random.default_rng(seed)
        w = rng.integers(1, 200, num_bits).astype(float)
        target = float(w[rng.permutation(num_bits)[: num_bits // 2]].sum())
        matrix = np.triu(2.0 * np.outer(w, w), 1) + np.diag(w * w - 2.0 * target * w)
        qm = QuboMatrix(matrix, target * target, num_bits)
        if rows is not None:
            high_rows_per_block(monkeypatch, num_bits, rows)
        result = brute_force(qm)
        table = all_bitstrings(num_bits)
        spectrum = pubo_energy(qm, table)
        np.testing.assert_array_equal(result.bits, table[np.argmin(spectrum)])
        assert result.num_ground == np.count_nonzero(spectrum == 0.0) > 1
        assert result.energy == 0.0

    def test_padding_rows_are_never_counted(self, monkeypatch):
        # 256 high rows in blocks of 3: the last block holds one row and two
        # copies of it, and on a flat objective every copy would tie
        high_rows_per_block(monkeypatch, 16, 3)
        result = brute_force(sparsify({(0,): 0.0}, num_bits=16))
        assert result.num_ground == 2**16
        np.testing.assert_array_equal(result.bits, np.zeros(16))

    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("diagonal", [
        [2.0, -1.0, 3.0, -2.0, 1.0, 0.0, -1.0, 0.0, 0.0, 2.0],
        # no low term and a ground of 0: the ground rows' bounds are exactly 0,
        # so each block after the first ties the least minimum by its bound
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 2.0],
    ])
    def test_blocks_whose_bound_ties_the_least_are_scored(self, rows, diagonal, monkeypatch):
        # a separable QUBO: each zero on a high-half bit doubles the ground
        # across blocks, and there the bound is the ground less its margin
        qm = QuboMatrix(np.diag(diagonal), 0.5, 10)
        high_rows_per_block(monkeypatch, 10, rows)
        result = brute_force(qm)
        table = all_bitstrings(10)
        spectrum = pubo_energy(qm, table)
        np.testing.assert_array_equal(result.bits, table[np.argmin(spectrum)])
        assert result.num_ground == np.count_nonzero(spectrum == spectrum.min()) >= 8

    def test_bound_covers_every_summation_order(self):
        # one high row holding three terms, whose low sums on l = 1 are -1e16,
        # -1 and -1: summed from the left each -1 is lost to rounding, but
        # -1 + -1 first gives -1e16 - 2 exactly.  A product may sum in any
        # order, so the bound must lie below every order's sum
        left = np.array([[1.0, 1.0, 1.0, 0.0]])
        low_sums = np.array([[0.0, 0.0, 0.0], [-1e16, -1.0, -1.0]])
        (bound,) = solvers._row_bounds(left, np.r_[low_sums.T, np.ones((1, 2))])
        for order in permutations(range(4)):
            for l in (0, 1):
                terms = np.r_[low_sums[l], 1.0] * left[0]
                assert bound <= sum(terms[list(order)].tolist())

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_bits=st.integers(0, 18),
        kind=st.sampled_from(["qubo", "pubo", "qubo view"]),
        coeffs=st.sampled_from(["integer", "float", "cancelling"]),
        rows=st.sampled_from([1, 3, None]),
    )
    def test_bound_changes_no_result(self, seed, num_bits, kind, coeffs, rows):
        # scoring every block, as a bound of -inf does, gives the same bits,
        # energy and tie count; "cancelling" adds terms near +-1e15 to small
        # ones, so the energies of the split round and the margin must cover it
        rng = np.random.default_rng(seed)

        def draw(size=None):
            values = rng.integers(-3, 4, size).astype(float)
            if coeffs != "integer":
                values = values + rng.standard_normal(size)
            if coeffs == "cancelling":
                values = values + rng.choice([-1e15, 0.0, 1e15], size, p=[0.1, 0.8, 0.1])
            return values

        if kind != "pubo":
            objective = QuboMatrix(np.triu(draw((num_bits, num_bits))), float(draw()), num_bits)
            if kind == "qubo view":
                objective = objective.pubo
        else:
            terms = [((), float(draw()))]
            for _ in range(int(rng.integers(0, 3 * num_bits + 1))):
                terms.append((tuple(rng.choice(num_bits, size=int(rng.integers(1, 5)))),
                              float(draw())))
            objective = sparsify(terms, num_bits)
        results = []
        for bounded in (True, False):
            with pytest.MonkeyPatch.context() as patch:
                if rows is not None:
                    high_rows_per_block(patch, num_bits, rows)
                if not bounded:
                    patch.setattr(solvers, "_row_bounds", no_block_bounds)
                result = brute_force(objective)
            results.append((result.bits.tobytes(), result.energy.hex(), result.num_ground))
        assert results[0] == results[1]

    @pytest.mark.parametrize("seed", [0, 5, 9])
    def test_energy_is_the_winner_alone(self, seed, monkeypatch):
        # the split sums a state's energy in another order than the state
        # alone, and a block's BLAS product can give a row other last bits
        # than the row alone; the reported energy is the latter
        system, enc = conditioned_system(seed)
        for objective in (compile_linear_qubo(system, enc), compile_pubo(system, enc)):
            results = set()
            for rows in (1, 2, 5, 64):
                high_rows_per_block(monkeypatch, 12, rows)
                result = brute_force(objective)
                assert result.energy == pubo_energy(objective, result.bits)
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
            objective = QuboMatrix(matrix, offset, num_bits)
        else:
            terms = [((), offset)]
            for _ in range(int(rng.integers(0, 3 * num_bits + 1))):
                term = rng.choice(num_bits, size=int(rng.integers(1, 5)))
                if not free[term].any():
                    terms.append((tuple(term), float(rng.integers(-scale, scale + 1))))
            objective = sparsify(terms, num_bits)
        table = all_bitstrings(num_bits)
        spectrum = np.atleast_1d(pubo_energy(objective, table))
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
        # sweep 0 drops every bit to 0, sweep 1 is frozen and sweep 2 skipped;
        # each hot sweep runs and flips every bit
        qm = QuboMatrix(np.diag([1.0, 2.0, 3.0, 4.0]), 0.0, 4)
        ladder = np.array([1e-30] * 3 + [1e9] * 3)
        monkeypatch.setattr(AnnealSchedule, "temperatures", lambda self, qm, sweeps: ladder)
        args = dict(reads=16, sweeps=6, seed=2)
        samples, steps = self.count_steps(qm, **args)
        assert sample_key(samples) == sample_key(reference_anneal(qm, **args))
        assert steps == 5 * self.num_runs(qm)
        assert samples.records[0].bits == (1, 1, 1, 1)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_bits=st.integers(0, 9),
        reads=st.integers(1, 12),
        ladder=st.lists(st.sampled_from([1e-30, 1e-3, 1.0, 1e9]), min_size=1, max_size=8),
    )
    def test_skipping_on_any_ladder_matches_per_bit_reference(self, seed, num_bits, reads, ladder):
        # ladders that warm and cool again: a skipped sweep never changes a
        # sample, and no sweep runs twice
        rng = np.random.default_rng(seed)
        matrix = np.triu(rng.standard_normal((num_bits, num_bits)))
        matrix *= rng.random(matrix.shape) < 0.5
        qm = QuboMatrix(matrix, 0.0, num_bits)
        args = dict(reads=reads, sweeps=len(ladder), seed=seed % 1000)
        temps = lambda self, qm, sweeps: np.array(ladder)  # noqa: E731
        # hypothesis reruns the test body, so a function-scoped monkeypatch would leak
        with mock.patch.object(AnnealSchedule, "temperatures", temps):
            samples, steps = self.count_steps(qm, **args)
            assert sample_key(samples) == sample_key(reference_anneal(qm, **args))
        assert steps <= len(ladder) * self.num_runs(qm)

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

    @pytest.mark.parametrize("uniform_floats", [solvers._UNIFORM_FLOATS, 1])
    @pytest.mark.parametrize("zero_sweep, sweeps_run", [(7, 3), (4, 5)])
    def test_zero_uniform_in_the_final_block_keeps_the_chunk_running(
        self, monkeypatch, uniform_floats, zero_sweep, sweeps_run
    ):
        # at t = 1/40 a bit at 0 accepts with p = exp(-40) < 2^-54, so after
        # the first sweep only a uniform of exactly 0.0 can flip one.  Sweep 1
        # is frozen; each later sweep is skipped unless it holds a 0.0, in
        # blocks of all sweeps or of one
        qm = QuboMatrix(np.eye(3), 0.0, 3)
        ladder = lambda self, qm, sweeps: np.full(sweeps, 1 / 40)  # noqa: E731
        monkeypatch.setattr(AnnealSchedule, "temperatures", ladder)
        monkeypatch.setattr(solvers, "_UNIFORM_FLOATS", uniform_floats)
        args = dict(reads=4, sweeps=8, seed=0)
        _, steps = self.count_steps(qm, **args)
        assert steps == 2 * self.num_runs(qm)

        default_rng = np.random.default_rng
        stream = args["sweeps"] * qm.num_bits  # the uniforms a read draws in the reference
        # the last read draws 0.0 for bit 2 in sweep zero_sweep: that sweep runs
        # and flips it up, and the sweeps after it run until one is frozen again
        zero_at = {args["reads"] - 1: zero_sweep * qm.num_bits + 2}

        def zero_in_one_sweep(seed):
            rng = default_rng(seed)
            drawn = [0]  # uniforms drawn so far

            def random(shape=None, out=None):  # the annealer passes out=, the reference a shape
                uniforms = rng.random(shape, out=out)
                at = zero_at.get(seed, -1) - drawn[0]
                if 0 <= at < uniforms.size:
                    uniforms.flat[at] = 0.0
                drawn[0] += uniforms.size
                assert drawn[0] <= stream, f"read {seed} drew past its stream"
                return uniforms

            # no bit_generator: the annealer reads only these two draws
            return SimpleNamespace(integers=rng.integers, random=random)

        monkeypatch.setattr(np.random, "default_rng", zero_in_one_sweep)
        samples, steps = self.count_steps(qm, **args)
        assert sample_key(samples) == sample_key(reference_anneal(qm, **args))
        assert steps == sweeps_run * self.num_runs(qm)
        # flipped in the last sweep, the bit stays up; earlier, the next sweep drops it
        assert ((0, 0, 1) in [record.bits for record in samples.records]) == (zero_sweep == 7)

    def test_overflowing_couplings_are_refused(self):
        # couplings of 1e308 whose sign alternates with the index: summed in
        # SIMD lanes, an annealer's field would meet +inf and -inf and be NaN.
        # Such a QUBO is refused when built, so no probability is ever NaN
        n = 32
        signs = (-1.0) ** np.add.outer(np.arange(n), np.arange(n))
        with pytest.raises(ValueError, match=r"\(terms \+ 1\) = inf is not finite"):
            QuboMatrix(np.triu(1e308 * signs, 1), 0.0, n)

    @pytest.mark.filterwarnings("error")
    def test_subnormal_cold_temperature_overflows_quietly(self, quad_qubo):
        # -Δ/t overflows to ±inf at t = 1e-310, giving the exact probability 0 or 1
        schedule = AnnealSchedule(t_hot=1.0, t_cold=1e-310)
        samples = simulated_anneal(quad_qubo, reads=8, sweeps=2, seed=2, schedule=schedule)
        for record in samples.records:
            assert record.energy == pubo_energy(quad_qubo, np.array(record.bits, np.uint8))

    def test_uniforms_are_multiples_of_2_to_the_minus_53(self):
        # the stop rule's floor rests on this: a uniform other than 0.0 is >= 2^-53
        for seed in (0, 1, 12345):
            scaled = np.random.default_rng(seed).random(10**5) * 2.0**53
            assert np.array_equal(scaled, np.floor(scaled))

    def test_uniform_blocks_change_no_sample_and_no_step(self, poly_qubos, monkeypatch):
        # blocks of 1, 7 and all 60 sweeps; with one uniform held, they are
        # drawn one at a time.  A sweep is skipped by its own uniforms and the
        # sweeps before it, so which sweeps run does not depend on the blocks
        args = dict(reads=16, sweeps=60, seed=3)
        for qm in poly_qubos:
            sweep = args["reads"] * qm.num_bits
            runs = set()
            for uniform_floats in (1, sweep, 7 * sweep, solvers._UNIFORM_FLOATS):
                monkeypatch.setattr(solvers, "_UNIFORM_FLOATS", uniform_floats)
                samples, steps = self.count_steps(qm, **args)
                runs.add((sample_key(samples), steps))
            (key, steps), = runs
            assert key == sample_key(reference_anneal(qm, **args))
            assert steps < args["sweeps"] * self.num_runs(qm)

    def test_uniform_buffer_memory_bounded(self):
        # all 500 sweeps of a 512-read chunk of 48 bits would hold 98 MB of
        # uniforms; the chunk holds one block of at most _UNIFORM_FLOATS, plus
        # the states
        p1 = make_conditioned_matrix(ConditionedSpec(24, 1.1, seed=0))
        qm = compile_linear_qubo(PolynomialSystem([make_rhs(24), p1]), from_range(-1.0, 1.0, 2, 24))
        reads = 512
        tracemalloc.start()
        try:
            simulated_anneal(qm, reads=reads, sweeps=500, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        states = reads * (qm.num_bits * 8 + 1000)  # each read's bits and generator
        margin = 1e6  # generators, fields, records and the tally
        assert peak < solvers._UNIFORM_FLOATS * 8 + states + margin, f"peak {peak / 1e6:.2f} MB"

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
                assert record.energy == pubo_energy(qm, record.bits)

    def test_counts_sum_to_reads(self, quad_qubo):
        samples = simulated_anneal(quad_qubo, reads=123, sweeps=40, seed=2)
        assert sum(r.count for r in samples.records) == 123

    def test_energies_reevaluate(self, quad_qubo):
        samples = simulated_anneal(quad_qubo, reads=100, sweeps=40, seed=4)
        for record in samples.records:
            assert pubo_energy(quad_qubo, record.bits) == pytest.approx(
                record.energy, rel=1e-12
            )

    def test_bad_arguments_rejected(self, quad_qubo):
        with pytest.raises(ValueError, match=">= 1"):
            simulated_anneal(quad_qubo, reads=0)
        with pytest.raises(ValueError, match=">= 1"):
            simulated_anneal(quad_qubo, reads=5, sweeps=0)

    def test_negative_seed_rejected(self, quad_qubo):
        # read r is seeded seed + r, so a negative seed would fail inside numpy
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            simulated_anneal(quad_qubo, reads=5, seed=-1)

    def test_pubo_refused_by_name(self, quad_pubo):
        # brute_force and pubo_energy take either objective; the annealer needs the QUBO
        with pytest.raises(TypeError, match="QuboMatrix, not a PseudoBooleanPolynomial; "
                                            "quadratize it first"):
            simulated_anneal(quad_pubo, reads=5, sweeps=5)

    @pytest.mark.parametrize("counts, total_reads", [((2,), 3), ((2, 2), 3), ((), 1)])
    def test_sample_set_counts_must_sum_to_reads(self, counts, total_reads):
        records = tuple(SampleRecord((k,), float(k), c) for k, c in enumerate(counts))
        with pytest.raises(ValueError, match="record counts do not sum to total_reads"):
            SampleSet(records, total_reads=total_reads, rng_seed=0)


class TestSolve:
    def test_brute_returns_enumeration_result(self, quad_system, quad_encoding):
        result = solve(quad_system, quad_encoding, "brute", aux="all")
        pubo = compile_pubo(quad_system, quad_encoding)
        qm = quadratize(pubo, aux="all")
        exact = brute_force(qm)
        assert result.solver == {"backend": "brute", "num_ground": exact.num_ground}
        assert result.bits.dtype == np.uint8
        np.testing.assert_array_equal(result.bits, exact.bits[:4])
        assert result.energy == exact.energy
        np.testing.assert_array_equal(result.x, [2.0, 3.0])
        assert result.problem == {"bits": 4, "auxiliaries": 6, "penalty": qm.penalty,
                                  "pubo_terms": len(pubo.coeffs)}

    def test_aux_and_penalty_reach_quadratize(self, quad_system, quad_encoding):
        for aux, penalty, num_aux in (("lazy", None, 4), ("lazy", 5000.0, 4), ("all", 7.5, 6)):
            result = solve(quad_system, quad_encoding, "brute", aux=aux, penalty=penalty)
            assert result.problem["auxiliaries"] == num_aux
            assert result.problem["penalty"] == (23761.0 if penalty is None else penalty)

    def test_anneal_passes_schedule_through(self, quad_system, quad_encoding):
        qm = quadratize(compile_pubo(quad_system, quad_encoding), aux="all")
        for schedule in (AnnealSchedule(t_hot=1e-9, t_cold=1e-12), None):
            with mock.patch.object(solvers, "simulated_anneal", wraps=simulated_anneal) as spy:
                result = solve(quad_system, quad_encoding, "anneal", reads=50, sweeps=20,
                               seed=4, schedule=schedule, aux="all")
            ladder = schedule or AnnealSchedule()
            assert spy.call_args.kwargs["schedule"] == ladder
            direct = simulated_anneal(qm, reads=50, sweeps=20, seed=4, schedule=ladder)
            t_hot, t_cold = ladder.resolve(qm)
            assert result.solver == {
                "backend": "anneal", "reads": 50, "sweeps": 20, "seed": 4,
                "t_hot": t_hot, "t_cold": t_cold, "ground_fraction": direct.ground_fraction(),
            }
            assert result.bits.dtype == np.uint8
            assert tuple(result.bits) == direct.best.bits[:4]
            assert result.energy == direct.best.energy

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        degree=st.sampled_from([1, 2]),
        num_vars=st.integers(1, 4),
        bits=st.integers(1, 3),
        aux=st.sampled_from(["lazy", "all"]),
    )
    def test_matches_the_stages(self, seed, degree, num_vars, bits, aux):
        # solve is compile_pubo, then brute_force on that PUBO, or quadratize and
        # simulated_anneal, decoded; on degree 1 with lazy auxiliaries the QUBO
        # is compile_linear_qubo's; at most 12 logical bits
        rng = np.random.default_rng(seed)
        system = random_system(rng, num_vars, num_vars, degree)
        enc = random_encoding(rng, num_vars, min(bits, 12 // num_vars))
        qms = [quadratize(compile_pubo(system, enc), aux=aux)]
        if degree == 1 and aux == "lazy":
            qms.append(compile_linear_qubo(system, enc))
        logical = enc.num_bits
        anneal = {"reads": 20, "sweeps": 10, "seed": seed % 1000}
        sampled = solve(system, enc, "anneal", aux=aux, **anneal)
        np.testing.assert_array_equal(sampled.x, decode(enc, sampled.bits))
        for qm in qms:
            direct = simulated_anneal(qm, **anneal)
            assert tuple(sampled.bits) == direct.best.bits[:logical]
            assert sampled.energy == direct.best.energy
            assert sampled.solver["ground_fraction"] == direct.ground_fraction()
        exact = solve(system, enc, "brute", aux=aux)
        direct = brute_force(compile_pubo(system, enc))
        assert exact.bits.tobytes() == direct.bits.tobytes()
        assert (exact.energy, exact.solver["num_ground"]) == (direct.energy, direct.num_ground)
        for qm in qms:  # the QUBO has the same ground, where it can be enumerated
            if qm.num_bits > 24:
                continue
            quadratized = brute_force(qm)
            assert quadratized.energy == pytest.approx(exact.energy, rel=1e-12, abs=1e-12)
            if exact.solver["num_ground"] == 1:
                assert quadratized.bits[:logical].tobytes() == exact.bits.tobytes()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        degree=st.sampled_from([1, 2]),
        num_vars=st.integers(1, 4),
        bits=st.integers(1, 3),
    )
    def test_brute_is_the_least_grid_residual(self, seed, degree, num_vars, bits):
        # integer coefficients on an integer grid, so every energy is exact: the
        # winner is the lowest logical integer of least chi^2 over all grid points
        rng = np.random.default_rng(seed)
        bits = min(bits, 12 // num_vars)
        coeffs = [rng.integers(-2, 3, (num_vars,) + (num_vars,) * k).astype(float)
                  for k in range(degree + 1)]
        system = PolynomialSystem(coeffs)
        lo = rng.integers(-3, 1, num_vars).astype(float)
        enc = from_range(lo, lo + 2**bits - 1, bits)
        states = all_bitstrings(enc.num_bits)  # row s is the logical integer s
        chi = chi_squared(system, decode(enc, states))
        exact = solve(system, enc, "brute")
        assert exact.energy == chi.min()
        assert exact.bits.tobytes() == states[np.argmin(chi)].tobytes()
        assert exact.solver["num_ground"] == np.count_nonzero(chi == chi.min())

    def test_brute_solves_planted_systems_past_the_qubo_limit(self):
        # 12 logical bits, whose lazy quadratization has 76
        for seed in range(1000, 1010):
            system, enc = planted_system(np.random.default_rng(seed), 3, 3, 4)
            result = solve(system, enc, "brute")
            assert result.problem["bits"] + result.problem["auxiliaries"] == 76
            assert chi_squared(system, result.x) == pytest.approx(0.0, abs=1e-9)
            assert result.energy == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("given, named", [({"aux": "lazy"}, "aux='lazy'"),
                                              ({"aux": "all"}, "aux='all'"),
                                              ({"penalty": 5.0}, "penalty=5.0")])
    def test_brute_refuses_a_given_aux_or_penalty_without_a_qubo(self, given, named):
        # a cubic's PUBO has terms of 6 bits: no QUBO is built for aux or penalty to shape
        system = load_system(FIXTURE_DIR / "cubic_2x2.json")
        enc = from_range(0.0, 7.0, 3, num_vars=2)
        np.testing.assert_array_equal(solve(system, enc, "brute").x, [1.0, 2.0])
        with pytest.raises(ValueError, match=f"{named} shapes a QUBO"):
            solve(system, enc, "brute", **given)

    def test_backends_agree_on_energy_when_bits_agree(self):
        # both report a winner's energy evaluated alone (seed 9 differed)
        matched = 0
        for seed in range(12):
            system, enc = conditioned_system(seed)
            exact = solve(system, enc, "brute")
            sampled = solve(system, enc, "anneal", reads=200, sweeps=100, seed=0)
            if np.array_equal(exact.bits, sampled.bits):
                matched += 1
                assert exact.energy == sampled.energy
        assert matched >= 6

    def test_cg_solves_a_degree_one_system(self):
        system, enc = conditioned_system(3)
        result = solve(system, enc, "cg")
        report = conjugate_gradient(system.coeffs[1], system.coeffs[0])
        np.testing.assert_array_equal(result.x, report.solution)
        assert result.solver == {"backend": "cg", "iterations": report.iterations}
        assert result.bits is result.energy is result.problem is None

    def test_cg_refuses_degree_two_by_name(self, quad_system, quad_encoding):
        with pytest.raises(ValueError, match="'cg' needs a degree-1 system, got degree 2"):
            solve(quad_system, quad_encoding, "cg")

    def test_unconverged_cg_raises_solver_error(self, monkeypatch):
        system, _ = conditioned_system(0)
        monkeypatch.setattr(solvers, "conjugate_gradient",
                            lambda p1, p0: CgReport(np.zeros(4), 7, 0.5, False))
        with pytest.raises(SolverError, match="did not converge in 7 iterations"):
            solve(system, None, "cg")

    @pytest.mark.parametrize("backend", ["brute", "anneal"])
    def test_qubo_backends_need_an_encoding(self, quad_system, backend):
        with pytest.raises(ValueError, match=f"backend '{backend}' needs an encoding"):
            solve(quad_system, None, backend)

    @pytest.mark.parametrize("backend", ["quantum", "Brute"])
    def test_unknown_backend_rejected(self, quad_system, quad_encoding, backend):
        with pytest.raises(ValueError, match="'brute', 'anneal' or 'cg'"):
            solve(quad_system, quad_encoding, backend)


class TestAnnealSchedule:
    def test_default_ladder_from_objective(self, quad_pubo, quad_qubo):
        # the nonzero matrix entries, also for an aux-free hand-built QUBO
        aux_free = PseudoBooleanPolynomial([[0, 1], [1, 2]], [-0.5, 2.5], 1.0, 3)
        for qm in (quad_qubo, quadratize(quad_pubo), quadratize(aux_free)):
            t_hot, t_cold = AnnealSchedule().resolve(qm)
            mags = np.abs(qm.matrix[qm.matrix != 0])
            assert t_hot == mags.max() * qm.num_bits
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

    def test_nan_tol_rejected(self):
        # NaN passes a tol <= 0 test, and then every step looks unconverged
        with pytest.raises(ValueError, match="tol must be positive"):
            conjugate_gradient(np.eye(3), np.ones(3), tol=float("nan"))

    def test_negative_max_iter_rejected(self):
        with pytest.raises(ValueError, match="max_iter must be >= 0, got -3"):
            conjugate_gradient(np.eye(3), np.ones(3), max_iter=-3)

    @pytest.mark.filterwarnings("error")  # refused by name, with no RuntimeWarning on the way
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_rejected(self, bad):
        p1 = np.eye(3)
        p1[1, 1] = bad
        with pytest.raises(ValueError, match="p1 has a non-finite entry"):
            conjugate_gradient(p1, np.ones(3))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_constant_rejected(self, bad):
        with pytest.raises(ValueError, match="p0 has a non-finite entry"):
            conjugate_gradient(np.eye(3), [1.0, bad, 1.0])

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValueError, match="not symmetric"):
            conjugate_gradient([[2.0, 1.0], [0.0, 2.0]], [-1.0, -1.0])

    @pytest.mark.parametrize("diagonal", [[1.0, -1.0], [1.0, -2.0]])
    def test_non_positive_curvature_rejected(self, diagonal):
        # zero curvature would divide by zero; negative curvature would let
        # an indefinite matrix report converged=True
        with pytest.raises(ValueError, match="not positive definite"):
            conjugate_gradient(np.diag(diagonal), [-1.0, -1.0])

    @pytest.mark.filterwarnings("error")  # refused by name, with no RuntimeWarning on the way
    @pytest.mark.parametrize("p1, p0, message", [
        (np.eye(2), [1e200, 1.0], r"\|\|p0\|\| = inf is not finite"),
        (1e300 * np.eye(2), [1e10, 1.0], r"p @ p1 @ p = inf is not finite at iteration 0"),
        (np.diag([1e-300, 1.0]), [-1e150, -1e140], r"r @ r = inf is not finite at iteration 0"),
        (np.diag([1e-300]), [-1e150], r"solution x is not finite after 1 iterations"),
    ], ids=["norm", "curvature", "residual", "solution"])
    def test_overflow_rejected(self, p1, p0, message):
        with pytest.raises(ValueError, match=message):
            conjugate_gradient(p1, p0)
