"""PUBO compilation, sparsification, quadratization, and the linear fast path."""

import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GOLDEN_DIR, random_encoding, random_system
from polyqubo import (
    PolynomialSystem,
    QuboMatrix,
    all_bitstrings,
    brute_force,
    chi_squared,
    choose_penalty,
    compile_linear_qubo,
    compile_pubo,
    decode,
    export_qubo,
    from_range,
    pubo_energy,
    quadratize,
    qubo_energy,
    sparsify,
)

GROUND_10BIT = (0, 1, 1, 1, 0, 0, 0, 1, 1, 1)


def naive_energy(pubo, states):
    """Reference evaluation: one product per term, summed term by term."""
    states = np.asarray(states, dtype=float)
    energy = np.full(states.shape[:-1], pubo.offset)
    for t, c in pubo.terms.items():
        energy = energy + c * np.prod(states[..., list(t)], axis=-1)
    return energy


def dense_pubo(rng, num_bits, max_size):
    """Every index set up to ``max_size`` bits, with Gaussian coefficients."""
    raw = {
        t: float(rng.standard_normal())
        for k in range(1, max_size + 1)
        for t in combinations(range(num_bits), k)
    }
    return sparsify(raw, num_bits=num_bits)


class TestSparsify:
    def test_idempotence_collapses_repeats(self):
        pubo = sparsify({(3, 3): 2.5}, num_bits=4)
        assert pubo.terms == {(3,): 2.5}

    def test_permutations_accumulate(self):
        pubo = sparsify([((2, 1), 1.0), ((1, 2), 2.0)], num_bits=3)
        assert pubo.terms == {(1, 2): 3.0}

    def test_empty_products_go_to_offset(self):
        pubo = sparsify([((), 4.0), ((0,), 1.0), ((), -1.5)], num_bits=1)
        assert pubo.offset == 2.5
        assert pubo.terms == {(0,): 1.0}

    def test_cancelled_terms_dropped(self):
        pubo = sparsify([((0, 1), 1.0), ((1, 0), -1.0)], num_bits=2)
        assert pubo.terms == {}

    def test_energy_function_unchanged(self):
        rng = np.random.default_rng(2)
        raw = []
        for _ in range(30):
            indices = tuple(rng.integers(0, 6, size=rng.integers(1, 5)))
            raw.append((indices, float(rng.standard_normal())))
        pubo = sparsify(raw, num_bits=6)
        states = all_bitstrings(6).astype(float)
        direct = np.zeros(len(states))
        for indices, coeff in raw:
            direct += coeff * np.prod(states[:, list(indices)], axis=1)
        np.testing.assert_allclose(pubo_energy(pubo, states), direct, atol=1e-12)

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            sparsify({(5,): 1.0}, num_bits=4)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_coefficient_rejected(self, value):
        with pytest.raises(ValueError, match=r"term \(1, 2\) has non-finite"):
            sparsify({(0,): 1.0, (2, 1): value, (3,): np.nan}, num_bits=4)
        with pytest.raises(ValueError, match="offset"):
            sparsify([((), value), ((0,), 1.0)], num_bits=1)


class TestCompilePubo:
    def test_worked_example_ground_state(self, quad_system, quad_encoding):
        pubo = compile_pubo(quad_system, quad_encoding)
        result = brute_force(pubo)
        np.testing.assert_array_equal(result.bits, [0, 1, 1, 1])
        assert result.energy == 0.0

    def test_energy_identity_exhaustive(self, quad_system, quad_encoding):
        pubo = compile_pubo(quad_system, quad_encoding)
        states = all_bitstrings(4)
        np.testing.assert_allclose(
            pubo_energy(pubo, states),
            chi_squared(quad_system, decode(quad_encoding, states)),
            rtol=1e-12,
            atol=1e-9,
        )

    def test_all_zero_bits_give_offset_energy(self, quad_system, quad_encoding):
        pubo = compile_pubo(quad_system, quad_encoding)
        zeros = np.zeros(4, dtype=int)
        assert pubo_energy(pubo, zeros) == pytest.approx(
            chi_squared(quad_system, quad_encoding.offset), rel=1e-12
        )
        assert pubo_energy(pubo, zeros) == pytest.approx(4717.0)

    def test_identity_system_energy_is_squared_decode(self):
        # degree-1 identity with zero offsets: energy is the squared grid value
        from polyqubo import BitEncoding

        enc = BitEncoding([0.37, 0.85], [0.0, 0.0], 3)
        system = PolynomialSystem([np.zeros(2), np.eye(2)])
        pubo = compile_pubo(system, enc)
        states = all_bitstrings(6)
        expected = np.sum(decode(enc, states) ** 2, axis=1)
        np.testing.assert_allclose(pubo_energy(pubo, states), expected, rtol=1e-12)

    def test_random_identity_property(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            num_vars = int(rng.integers(1, 4))
            bits = int(rng.integers(1, 4))
            system = random_system(rng, int(rng.integers(1, 4)), num_vars, int(rng.integers(1, 3)))
            enc = random_encoding(rng, num_vars, bits)
            pubo = compile_pubo(system, enc)
            states = all_bitstrings(enc.num_bits)
            np.testing.assert_allclose(
                pubo_energy(pubo, states),
                chi_squared(system, decode(enc, states)),
                rtol=1e-9,
                atol=1e-12,
            )

    def test_max_term_size_bound(self, quad_system, quad_encoding):
        pubo = compile_pubo(quad_system, quad_encoding)
        assert pubo.max_term_size <= 2 * quad_system.degree

    def test_canonical_terms(self, quad_system, quad_encoding):
        pubo = compile_pubo(quad_system, quad_encoding)
        for t in pubo.terms:
            assert list(t) == sorted(set(t))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_eq=st.integers(1, 3),
        num_vars=st.integers(1, 3),
        bits=st.integers(1, 3),
        degree=st.integers(1, 3),
    )
    def test_identity_and_canonical_terms_property(self, seed, num_eq, num_vars, bits, degree):
        rng = np.random.default_rng(seed)
        system = random_system(rng, num_eq, num_vars, degree)
        enc = random_encoding(rng, num_vars, bits)
        pubo = compile_pubo(system, enc)
        states = all_bitstrings(enc.num_bits)
        rhs = chi_squared(system, decode(enc, states))
        scale = max(1.0, float(np.max(np.abs(rhs))))
        assert np.max(np.abs(pubo_energy(pubo, states) - rhs)) <= 1e-9 * scale
        keys = list(pubo.terms)
        assert keys == sorted(set(keys))
        assert all(t == tuple(sorted(set(t))) and t for t in keys)
        assert all(c != 0.0 for c in pubo.terms.values())
        # generic coefficients leave the top-order products uncancelled
        assert pubo.max_term_size == min(2 * degree, enc.num_bits)

    def test_repeated_calls_identical(self):
        rng = np.random.default_rng(5)
        system = random_system(rng, 3, 3, 2)
        enc = random_encoding(rng, 3, 3)
        first, second = compile_pubo(system, enc), compile_pubo(system, enc)
        assert list(first.terms.items()) == list(second.terms.items())
        assert first.offset == second.offset

    def test_overflowing_coefficients_rejected(self, quad_system):
        enc = from_range([-1e200, -1e200], [1e200, 1e200], 2)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            ValueError, match="non-finite"
        ):
            compile_pubo(quad_system, enc)

    def test_dimension_mismatch_rejected(self, quad_system):
        with pytest.raises(ValueError, match="variables"):
            compile_pubo(quad_system, from_range([0.0], [3.0], 2))

    def test_minimum_nonnegative_zero_iff_grid_root(self, quad_system, quad_encoding):
        # the grid contains the exact root, so the spectrum floor is zero
        pubo = compile_pubo(quad_system, quad_encoding)
        result = brute_force(pubo, spectrum=True)
        assert result.energies.min() == 0.0
        # shifted window excludes every root: strictly positive floor
        shifted = compile_pubo(quad_system, from_range([4.0, 4.0], [7.0, 7.0], 2))
        assert brute_force(shifted).energy > 0.0


class TestChoosePenalty:
    def test_formula(self):
        pubo = sparsify({(0,): 4.0, (0, 1): -6.0}, num_bits=2)
        assert choose_penalty(pubo) == 21.0

    def test_empty(self):
        assert choose_penalty(sparsify({}, num_bits=1)) == 1.0

    def test_offset_excluded(self):
        pubo = sparsify([((), 100.0), ((0,), 1.0)], num_bits=1)
        assert choose_penalty(pubo) == 3.0


class TestQuadratize:
    def test_worked_example_ten_bit_ground_state(self, quad_system, quad_encoding):
        pubo = compile_pubo(quad_system, quad_encoding)
        qm = quadratize(pubo, aux="all")
        assert qm.num_aux == 6
        assert qm.aux_pairs == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
        result = brute_force(qm)
        assert tuple(result.bits) == GROUND_10BIT
        assert result.energy == 0.0

    def test_aux_bits_equal_products_at_ground(self, quad_system, quad_encoding):
        pubo = compile_pubo(quad_system, quad_encoding)
        qm = quadratize(pubo, aux="all")
        bits = brute_force(qm).bits
        logical = bits[: qm.num_logical]
        for aux_index, (i, j) in qm.aux_map.items():
            assert bits[aux_index] == logical[i] * logical[j]

    def test_quadratic_pubo_passes_through(self, quad_system):
        system = PolynomialSystem([quad_system.coeffs[0], quad_system.coeffs[1]])
        enc = from_range([0.0, 0.0], [3.0, 3.0], 2)
        pubo = compile_pubo(system, enc)
        qm = quadratize(pubo)
        assert qm.num_aux == 0
        states = all_bitstrings(4)
        np.testing.assert_allclose(qubo_energy(qm, states), pubo_energy(pubo, states), rtol=1e-12)

    def test_single_cubic_term_exact(self):
        pubo = sparsify({(0, 1, 2): 1.0}, num_bits=3)
        qm = quadratize(pubo, penalty=10.0)
        assert qm.num_aux == 1
        for logical in all_bitstrings(3):
            energies = [
                qubo_energy(qm, np.concatenate([logical, [aux]])) for aux in (0, 1)
            ]
            assert min(energies) == pytest.approx(pubo_energy(pubo, logical), abs=1e-12)

    def test_exactness_and_consistency_random_quartics(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            num_bits = int(rng.integers(4, 7))
            raw = {}
            for _ in range(int(rng.integers(2, 7))):
                size = int(rng.integers(1, 5))
                idx = tuple(sorted(rng.choice(num_bits, size=size, replace=False)))
                raw[idx] = float(rng.standard_normal())
            pubo = sparsify(raw, num_bits=num_bits)
            qm = quadratize(pubo)
            n_aux = qm.num_aux
            assert n_aux <= num_bits * (num_bits - 1) // 2
            aux_states = all_bitstrings(n_aux) if n_aux else np.zeros((1, 0), dtype=np.uint8)
            for logical in all_bitstrings(num_bits):
                full = np.hstack([np.broadcast_to(logical, (len(aux_states), num_bits)), aux_states])
                energies = qubo_energy(qm, full)
                target = pubo_energy(pubo, logical)
                assert energies.min() == pytest.approx(target, rel=1e-9, abs=1e-9)
                # the minimum is attained only at product-consistent auxiliaries
                products = np.array([logical[i] * logical[j] for i, j in qm.aux_pairs])
                winners = aux_states[np.isclose(energies, energies.min(), rtol=1e-12, atol=1e-12)]
                assert len(winners) == 1
                np.testing.assert_array_equal(winners[0], products)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_bits=st.integers(2, 5),
        num_terms=st.integers(1, 6),
        aux=st.sampled_from(["lazy", "all"]),
    )
    def test_exactness_property(self, seed, num_bits, num_terms, aux):
        rng = np.random.default_rng(seed)
        raw = {}
        for _ in range(num_terms):
            size = int(rng.integers(1, min(num_bits, 4) + 1))
            idx = tuple(sorted(rng.choice(num_bits, size=size, replace=False)))
            raw[idx] = float(rng.standard_normal())
        pubo = sparsify(raw, num_bits=num_bits)
        qm = quadratize(pubo, aux=aux)
        table = brute_force(qm, spectrum=True).energies.reshape(2**qm.num_aux, 2**num_bits)
        logical = all_bitstrings(num_bits).astype(np.int64)
        mins = table.min(axis=0)  # over auxiliaries, per logical state integer
        np.testing.assert_allclose(mins, pubo_energy(pubo, logical), rtol=1e-9, atol=1e-9)
        products = np.zeros(2**num_bits, dtype=np.int64)
        for k, (i, j) in enumerate(qm.aux_pairs):
            products |= (logical[:, i] & logical[:, j]) << k
        assert np.all((table == mins).sum(axis=0) == 1)
        np.testing.assert_array_equal(table.argmin(axis=0), products)

    def test_oversized_term_rejected(self):
        pubo = sparsify({(0, 1, 2, 3, 4): 1.0}, num_bits=5)
        with pytest.raises(ValueError, match="not implemented"):
            quadratize(pubo)

    def test_penalty_terms_land_on_allowed_entries(self, quad_system, quad_encoding):
        # doubling C must only move logical-logical couplers, logical-aux
        # couplers, and aux diagonals: the structural layout of the penalty
        pubo = compile_pubo(quad_system, quad_encoding)
        base = quadratize(pubo, penalty=100.0, aux="all")
        double = quadratize(pubo, penalty=200.0, aux="all")
        diff = double.matrix - base.matrix
        n_log = base.num_logical
        for i, j in zip(*np.nonzero(diff)):
            logical_pair = i < n_log and j < n_log and i != j
            logical_aux = i < n_log <= j
            aux_diag = i == j and i >= n_log
            assert logical_pair or logical_aux or aux_diag

    def test_nonpositive_penalty_rejected(self):
        pubo = sparsify({(0, 1, 2): 1.0}, num_bits=3)
        with pytest.raises(ValueError, match="penalty"):
            quadratize(pubo, penalty=0.0)


class TestLinearFastPath:
    def test_one_var_exact_root(self):
        system = PolynomialSystem([[-3.0], [[1.0]]])
        enc = from_range([0.0], [3.0], 2)
        qm = compile_linear_qubo(system, enc)
        assert qm.num_aux == 0
        result = brute_force(qm)
        np.testing.assert_array_equal(result.bits, [1, 1])
        assert result.energy == pytest.approx(0.0, abs=1e-12)

    def test_matches_general_path_exhaustively(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            num_vars = int(rng.integers(1, 4))
            bits = int(rng.integers(1, 4))
            system = random_system(rng, int(rng.integers(1, 5)), num_vars, 1)
            enc = random_encoding(rng, num_vars, bits)
            qm = compile_linear_qubo(system, enc)
            pubo = compile_pubo(system, enc)
            states = all_bitstrings(enc.num_bits)
            np.testing.assert_allclose(
                qubo_energy(qm, states), pubo_energy(pubo, states), rtol=1e-9, atol=1e-12
            )

    def test_degree_two_rejected(self, quad_system, quad_encoding):
        with pytest.raises(ValueError, match="degree-1"):
            compile_linear_qubo(quad_system, quad_encoding)


class TestEnergies:
    def test_empty_pubo_energy_is_offset(self):
        pubo = sparsify([((), 7.5)], num_bits=3)
        assert pubo_energy(pubo, [0, 1, 0]) == 7.5

    def test_worked_values(self, quad_system, quad_encoding):
        pubo = compile_pubo(quad_system, quad_encoding)
        assert pubo_energy(pubo, [0, 1, 1, 1]) == 0.0
        assert pubo_energy(pubo, [0, 0, 0, 0]) == 4717.0

    def test_single_bitstring_returns_float(self, quad_system, quad_encoding):
        pubo = compile_pubo(quad_system, quad_encoding)
        assert type(pubo_energy(pubo, np.array([0, 1, 1, 1], dtype=np.uint8))) is float

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), num_bits=st.integers(1, 10),
           num_terms=st.integers(0, 30))
    def test_matches_naive_term_sum_property(self, seed, num_bits, num_terms):
        rng = np.random.default_rng(seed)
        raw = [
            (tuple(rng.integers(0, num_bits, size=rng.integers(1, 7))), float(rng.standard_normal()))
            for _ in range(num_terms)
        ]
        pubo = sparsify(raw + [((), float(rng.standard_normal()))], num_bits=num_bits)
        states = rng.integers(0, 2, size=(int(rng.integers(1, 300)), num_bits))
        np.testing.assert_allclose(
            pubo_energy(pubo, states), naive_energy(pubo, states), rtol=1e-12, atol=1e-12
        )

    def test_slicing_is_bit_identical(self):
        # blocks of this PUBO hold 2^15 // 79 = 414 states, so the slices
        # below start and end inside blocks
        pubo = dense_pubo(np.random.default_rng(3), 12, 4)
        states = all_bitstrings(12)
        whole = pubo_energy(pubo, states)
        cuts = [0, 1, 5, 700, 1303, 4096]
        sliced = np.concatenate(
            [pubo_energy(pubo, states[a:b]) for a, b in zip(cuts, cuts[1:])]
        )
        np.testing.assert_array_equal(sliced, whole)
        singles = [pubo_energy(pubo, states[s]) for s in range(0, 4096, 97)]
        np.testing.assert_array_equal(singles, whole[::97])
        np.testing.assert_array_equal(pubo_energy(pubo, states.reshape(64, 64, 12)),
                                      whole.reshape(64, 64))

    def test_memory_bounded_on_full_enumeration(self):
        # 2^16 states of a dense 16-bit quartic: half products for the whole
        # batch would take 72 MB and a float copy of the input 8 MB; blocks
        # keep the peak to the 0.5 MB result plus a few 2^15-float buffers
        pubo = dense_pubo(np.random.default_rng(4), 16, 4)
        states = all_bitstrings(16)
        tracemalloc.start()
        try:
            energy = pubo_energy(pubo, states)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert energy.shape == (1 << 16,)
        assert peak < 4e6, f"peak {peak / 1e6:.1f} MB"

    def test_wide_index_keys_match_compact_labels(self):
        # over 2^16 - 1 bits the half keys have base 2^16, and the 5-index
        # halves of 9- and 10-bit terms span 2^80: as int64 they wrap, and
        # halves differing only in their first index would collide
        rng = np.random.default_rng(8)
        compact = dense_pubo(rng, 11, 10)
        num_bits = (1 << 16) - 1
        labels = np.sort(rng.choice(num_bits, size=11, replace=False))
        wide = sparsify({tuple(labels[list(t)].tolist()): c for t, c in compact.terms.items()},
                        num_bits=num_bits)
        states = rng.integers(0, 2, size=(5, 11))
        spread = np.zeros((5, num_bits), dtype=np.uint8)
        spread[:, labels] = states
        np.testing.assert_allclose(pubo_energy(wide, spread), pubo_energy(compact, states),
                                   rtol=1e-12)
        np.testing.assert_allclose(pubo_energy(wide, spread), naive_energy(compact, states),
                                   rtol=1e-12)

    def test_length_mismatch_rejected(self, quad_system, quad_encoding):
        pubo = compile_pubo(quad_system, quad_encoding)
        with pytest.raises(ValueError, match="length"):
            pubo_energy(pubo, [0, 1])
        qm = quadratize(pubo, aux="all")
        with pytest.raises(ValueError, match="aux"):
            qubo_energy(qm, [0, 1, 1, 1])


class TestQuboMatrixValidation:
    def test_lower_triangle_rejected(self):
        with pytest.raises(ValueError, match="upper triangular"):
            QuboMatrix([[1.0, 0.0], [1.0, 1.0]], 0.0, 2)

    def test_aux_counts_must_match(self):
        with pytest.raises(ValueError, match="declared"):
            QuboMatrix(np.zeros((3, 3)), 0.0, 2)

    def test_bad_aux_pair_rejected(self):
        with pytest.raises(ValueError, match="ordered logical pair"):
            QuboMatrix(np.zeros((3, 3)), 0.0, 2, aux_pairs=[(1, 1)])

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, value):
        with pytest.raises(ValueError, match=r"entry \(0, 1\)"):
            QuboMatrix([[1.0, value], [0.0, value]], 0.0, 2)
        with pytest.raises(ValueError, match="offset"):
            QuboMatrix(np.eye(2), value, 2)


class TestExport:
    def test_golden_worked_example(self, tmp_path, quad_system, quad_encoding):
        pubo = compile_pubo(quad_system, quad_encoding)
        qm = quadratize(pubo, aux="all")
        path = tmp_path / "q.txt"
        export_qubo(qm, path)
        expected = (GOLDEN_DIR / "quadratic_2x2_qubo.txt").read_text()
        assert path.read_text() == expected

    def test_header_fields(self, tmp_path):
        system = PolynomialSystem([[-3.0], [[1.0]]])
        qm = compile_linear_qubo(system, from_range([0.0], [3.0], 2))
        path = tmp_path / "q.txt"
        export_qubo(qm, path)
        header = path.read_text().splitlines()[0]
        assert header.startswith("offset=")
        assert "logical=2" in header and "aux=0" in header
