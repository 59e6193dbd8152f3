"""PUBO compilation, sparsification, quadratization, and the degree-1 entry point."""

import math
import tracemalloc
from collections import defaultdict
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    GOLDEN_DIR, all_bitstrings, dense_pubo, planted_pubo, random_encoding, random_system,
)
from polyqubo import compiler
from polyqubo import (
    PolynomialSystem,
    PseudoBooleanPolynomial,
    QuboMatrix,
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


def reference_quadratize(pubo, penalty, aux):
    """quadratize's contract as one addition per term, then per penalty entry."""
    c_pen = choose_penalty(pubo) if penalty is None else penalty
    n_log = pubo.num_bits
    if aux == "all":
        pairs = list(combinations(range(n_log), 2))
    else:
        pairs = sorted(
            {t[:2] for t in pubo.terms if len(t) >= 3} | {t[2:] for t in pubo.terms if len(t) == 4}
        )
    aux_index = {pair: n_log + k for k, pair in enumerate(pairs)}
    q = np.zeros((n_log + len(pairs),) * 2)

    def add(i, j, value):
        q[min(i, j), max(i, j)] += value

    for t, coeff in pubo.terms.items():
        left = aux_index[t[:2]] if len(t) >= 3 else t[0]
        right = aux_index[t[2:]] if len(t) == 4 else t[-1]
        add(left, right, coeff)
    for (i, j), a in aux_index.items():
        add(i, j, c_pen)
        add(i, a, -2.0 * c_pen)
        add(j, a, -2.0 * c_pen)
        add(a, a, 3.0 * c_pen)
    return q, tuple(pairs)


def loop_penalty(pubo):
    """choose_penalty's contract as a loop of additions in term order."""
    total = 0.0
    for coeff in pubo.coeffs.tolist():
        total += abs(coeff)
    return 1.0 + 2.0 * total


def add_at_quadratize(pubo, penalty, aux):
    """quadratize built with masked gathers and one unbuffered ``np.add.at``:
    ``(matrix, aux_pairs, penalty)``."""
    n_log = pubo.num_bits
    rows = np.pad(pubo.rows, ((0, 0), (0, 4 - pubo.max_term_size)), constant_values=n_log)
    sizes = np.count_nonzero(rows != n_log, axis=1)
    aux_of = np.zeros((n_log + 1, n_log + 1), dtype=np.intp)
    if aux == "all":
        pairs = np.transpose(np.triu_indices(n_log, 1))
    else:
        substituted = np.concatenate([rows[sizes >= 3, :2], rows[sizes == 4, 2:]])
        aux_of[substituted[:, 0], substituted[:, 1]] = 1
        pairs = np.argwhere(aux_of)
    a = n_log + np.arange(len(pairs))
    aux_of[pairs[:, 0], pairs[:, 1]] = a
    c_pen = (loop_penalty(pubo) if penalty is None else penalty) if len(pairs) else 0.0
    left = np.where(sizes >= 3, aux_of[rows[:, 0], rows[:, 1]], rows[:, 0])
    last = rows[np.arange(len(sizes)), sizes - 1]
    right = np.where(sizes == 4, aux_of[rows[:, 2], rows[:, 3]], last)
    i, j = pairs.T
    cells = (
        np.concatenate([np.minimum(left, right), np.stack([i, i, j, a], axis=1).ravel()]),
        np.concatenate([np.maximum(left, right), np.stack([j, a, a, a], axis=1).ravel()]),
    )
    values = np.concatenate(
        [pubo.coeffs, np.tile([c_pen, -2.0 * c_pen, -2.0 * c_pen, 3.0 * c_pen], len(pairs))]
    )
    q = np.zeros((n_log + len(pairs),) * 2)
    np.add.at(q, cells, values)
    return q, tuple(map(tuple, pairs.tolist())), c_pen


def assert_plan_table_is_the_grouped_one(pubo):
    """A compile_pubo output's half table equals the one grouped from its rows."""
    grouped = PseudoBooleanPolynomial(pubo.rows, pubo.coeffs, pubo.offset, pubo.num_bits)
    assert "_plan_halves" in vars(pubo) and "_plan_halves" not in vars(grouped)
    for mine, theirs in zip(pubo._half_table, grouped._half_table):
        assert (mine.dtype, mine.shape) == (theirs.dtype, theirs.shape)
        assert mine.tobytes() == theirs.tobytes()


def reference_sparsify(raw, num_bits):
    """sparsify's contract as a dictionary loop: ``(terms, offset)``."""
    terms, offset = defaultdict(float), 0.0
    for indices, coeff in raw:
        key = tuple(sorted(set(indices)))
        if key:
            terms[key] += coeff
        else:
            offset += coeff
    return {k: v for k, v in terms.items() if v != 0.0}, offset


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

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), num_bits=st.integers(1, 7),
           num_terms=st.integers(0, 25))
    def test_matches_reference_loop_property(self, seed, num_bits, num_terms):
        # repeats, permutations, empty tuples and exactly cancelling pairs
        rng = np.random.default_rng(seed)
        raw = []
        for _ in range(num_terms):
            indices = tuple(rng.integers(0, num_bits, size=rng.integers(0, 6)).tolist())
            coeff = float(rng.standard_normal())
            raw.append((indices, coeff))
            if rng.random() < 0.3:
                raw.append((tuple(rng.permutation(indices).tolist()), -coeff))
        pubo = sparsify(raw, num_bits=num_bits)
        terms, offset = reference_sparsify(raw, num_bits)
        hexed = {k: v.hex() for k, v in terms.items()}
        assert {k: v.hex() for k, v in pubo.terms.items()} == hexed
        assert pubo.offset.hex() == offset.hex()
        # the arrays: sorted, padded rows in ascending tuple order, as wide
        # as the largest term, one nonzero coefficient each
        assert list(pubo.terms) == sorted(terms)
        assert pubo.rows.shape == (len(terms), max(map(len, terms), default=0))
        for row, (term, coeff) in zip(pubo.rows.tolist(), pubo.terms.items()):
            assert row == list(term) + [num_bits] * (pubo.rows.shape[1] - len(term))
            assert coeff != 0.0
        np.testing.assert_array_equal(pubo.coeffs, list(pubo.terms.values()))

    def test_arrays_and_terms_read_only(self):
        pubo = sparsify({(0, 1): 2.0, (2,): -1.0}, num_bits=3)
        with pytest.raises(ValueError, match="read-only"):
            pubo.rows[0, 0] = 2
        with pytest.raises(ValueError, match="read-only"):
            pubo.coeffs[0] = 5.0
        with pytest.raises(TypeError):
            pubo.terms[(0, 1)] = 5.0
        assert pubo.terms == {(0, 1): 2.0, (2,): -1.0}

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            sparsify({(5,): 1.0}, num_bits=4)

    @pytest.mark.parametrize("terms", [
        {(0,): 1e308, (1,): 1e308},  # the sum overflows
        {(): 1e308, (0,): 1e308},  # with the offset
        {(0,): 1e308, (0, 1): -1e-300},  # the margin for summation order
    ])
    def test_overflowing_energy_bound_rejected(self, terms):
        with pytest.raises(ValueError, match=r"bound \(\|offset\| \+ sum \|c\|\) \* \(terms \+ 1\) = inf"):
            sparsify(terms.items(), num_bits=2)

    def test_finite_energy_bound_accepted(self):
        pubo = sparsify({(0,): 2e307, (1,): -2e307}, num_bits=2)
        assert brute_force(pubo).energy == -2e307
        assert pubo_energy(pubo, [1, 1]) == 0.0

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

    @pytest.mark.parametrize("block_floats", [1, 7, 64])
    def test_gram_blocks_change_no_bit(self, monkeypatch, block_floats):
        rng = np.random.default_rng(12)
        cases = [(random_system(rng, 4, 3, degree), random_encoding(rng, 3, 3))
                 for degree in (1, 2, 3)]

        def build():
            pubos = [compile_pubo(system, enc) for system, enc in cases]
            return pubos + [planted_pubo(np.random.default_rng(13), 3, 3, 4)]

        expected = build()
        monkeypatch.setattr(compiler, "_BLOCK_FLOATS", block_floats)
        for a, b in zip(expected, build()):
            assert list(a.terms.items()) == list(b.terms.items())
            assert a.offset == b.offset

    def test_gram_step_memory_bounded(self):
        # 100 variables at 2 bits give 201 bit sets and 20 301 pairs over 100
        # equations: one pairs x equations temporary would take 16 MB each
        rng = np.random.default_rng(6)
        system = random_system(rng, 100, 100, 1)
        enc = random_encoding(rng, 100, 2)
        tracemalloc.start()
        try:
            pubo = compile_pubo(system, enc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pubo.max_term_size == 2
        assert peak < 8e6, f"peak {peak / 1e6:.1f} MB"

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
        # the grid contains the exact root, so the minimum energy is zero
        pubo = compile_pubo(quad_system, quad_encoding)
        assert pubo_energy(pubo, all_bitstrings(pubo.num_bits)).min() == 0.0
        # shifted window excludes every root: strictly positive floor
        shifted = compile_pubo(quad_system, from_range([4.0, 4.0], [7.0, 7.0], 2))
        assert brute_force(shifted).energy > 0.0


class TestIndexPlan:
    @pytest.mark.parametrize("shapes", [
        # (equations, variables, bits per variable, degree)
        [(3, 3, 4, 2), (4, 4, 5, 2), (3, 3, 4, 2)],
        [(4, 4, 5, 2), (2, 2, 10, 2)],  # 20 bits each
        [(3, 4, 5, 1), (3, 4, 5, 2), (3, 4, 5, 1)],
    ])
    def test_cached_plan_compiles_as_a_fresh_one(self, shapes):
        rng = np.random.default_rng(len(shapes))
        cases = [(random_system(rng, num_eq, num_vars, degree), random_encoding(rng, num_vars, bits))
                 for num_eq, num_vars, bits, degree in shapes]
        fresh = []
        for case in cases:
            compiler._index_plan.cache_clear()
            fresh.append(compile_pubo(*case))
        hits = compiler._index_plan.cache_info().hits
        # the last case's plan is cached; the sequence then reuses it or an
        # earlier plan for two of its compilations
        cached = [compile_pubo(*case) for case in cases]
        assert compiler._index_plan.cache_info().hits == hits + 2
        for a, b in zip(fresh, cached):
            assert a.rows.tobytes() == b.rows.tobytes() and a.rows.shape == b.rows.shape
            assert a.coeffs.tobytes() == b.coeffs.tobytes()
            assert a.offset == b.offset

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        degree=st.sampled_from([1, 2]),
        num_eq=st.integers(1, 3),
        num_vars=st.integers(1, 3),
        bits=st.integers(1, 4),
        pattern=st.sampled_from(["dense", "sparse", "zero top order"]),
    )
    def test_plan_half_table_is_the_grouped_one(self, seed, degree, num_eq, num_vars, bits,
                                               pattern):
        rng = np.random.default_rng(seed)
        coeffs = list(random_system(rng, num_eq, num_vars, degree).coeffs)
        if pattern == "sparse":
            coeffs = [c * (rng.random(c.shape) < 0.3) for c in coeffs]
        elif pattern == "zero top order":  # a linear PUBO, or at degree 1 an empty one
            coeffs[-1] = np.zeros_like(coeffs[-1])
        pubo = compile_pubo(PolynomialSystem(coeffs), random_encoding(rng, num_vars, bits))
        quadratize(pubo)
        # compiling and quadratizing never evaluate, so build no table
        assert "_half_table" not in vars(pubo)
        assert_plan_table_is_the_grouped_one(pubo)

    @pytest.mark.parametrize("coeffs, bits, width", [
        # x0 + x1 and x0 - x1 at one bit each: the cross terms cancel exactly
        ([np.zeros(2), np.array([[1.0, 1.0], [1.0, -1.0]])], 1, 1),
        # x^T A x = 0 for antisymmetric A: no quadratic contribution is left
        ([np.ones(1), np.array([[2.0, -1.0]]), np.array([[[0.0, 3.0], [-3.0, 0.0]]])], 3, 2),
        ([np.ones(1), np.zeros((1, 2)), np.zeros((1, 2, 2))], 3, 0),
    ])
    def test_plan_half_table_of_cancelled_terms(self, coeffs, bits, width):
        pubo = compile_pubo(PolynomialSystem(coeffs), from_range(-1.0, 2.0, bits, num_vars=2))
        assert pubo.rows.shape[1] == width  # narrower than the plan's unions
        assert_plan_table_is_the_grouped_one(pubo)
        states = all_bitstrings(pubo.num_bits)
        np.testing.assert_allclose(pubo_energy(pubo, states), naive_energy(pubo, states),
                                   rtol=1e-12, atol=1e-12)

    def test_plan_arrays_are_compact_and_read_only(self):
        rng = np.random.default_rng(3)
        compile_pubo(random_system(rng, 4, 4, 2), random_encoding(rng, 4, 5))
        num_sets, *arrays = compiler._index_plan(20, 2)
        assert num_sets == 211  # (), 20 singletons, 190 pairs
        for array in arrays:
            assert array.dtype == np.min_scalar_type(array.max())
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0


class TestChoosePenalty:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.lists(st.floats(-4e304, 4e304).filter(bool), max_size=60))
    def test_equals_the_term_order_loop(self, coeffs):
        # magnitudes from subnormal to the largest that 60 terms may have
        # (60 * 61 * 4e304 < 1.8e308, the energy bound), so order shows
        pubo = sparsify({(k,): c for k, c in enumerate(coeffs)}, num_bits=len(coeffs))
        assert choose_penalty(pubo).hex() == loop_penalty(pubo).hex()

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
        # rows of state integers: [aux int, logical int]
        table = qubo_energy(qm, all_bitstrings(qm.num_bits)).reshape(2**qm.num_aux, 2**num_bits)
        logical = all_bitstrings(num_bits).astype(np.int64)
        mins = table.min(axis=0)  # over auxiliaries, per logical state integer
        np.testing.assert_allclose(mins, pubo_energy(pubo, logical), rtol=1e-9, atol=1e-9)
        products = np.zeros(2**num_bits, dtype=np.int64)
        for k, (i, j) in enumerate(qm.aux_pairs):
            products |= (logical[:, i] & logical[:, j]) << k
        assert np.all((table == mins).sum(axis=0) == 1)
        np.testing.assert_array_equal(table.argmin(axis=0), products)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_bits=st.integers(0, 7),
        num_terms=st.integers(0, 30),
        aux=st.sampled_from(["lazy", "all"]),
        penalty=st.sampled_from([None, 0.3, 7.25]),
    )
    def test_matrix_matches_reference_loop(self, seed, num_bits, num_terms, aux, penalty):
        rng = np.random.default_rng(seed)
        raw = {}
        for _ in range(num_terms if num_bits else 0):
            size = int(rng.integers(1, min(num_bits, 4) + 1))
            idx = tuple(sorted(rng.choice(num_bits, size=size, replace=False).tolist()))
            raw[idx] = float(rng.standard_normal())
        pubo = sparsify(raw, num_bits=num_bits)
        qm = quadratize(pubo, penalty=penalty, aux=aux)
        matrix, pairs = reference_quadratize(pubo, penalty, aux)
        assert qm.matrix.tobytes() == matrix.tobytes()
        assert qm.aux_pairs == pairs
        assert all(type(i) is int for pair in qm.aux_pairs for i in pair)
        # C is recorded only where auxiliaries carry it
        c_pen = choose_penalty(pubo) if penalty is None else penalty
        assert qm.penalty == (c_pen if pairs else 0.0)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_bits=st.integers(4, 9),
        sizes=st.lists(st.integers(1, 4), max_size=40),
        aux=st.sampled_from(["lazy", "all"]),
        penalty=st.sampled_from([None, 0.3, 1e3]),
    )
    def test_matrix_matches_add_at_build(self, seed, num_bits, sizes, aux, penalty):
        rng = np.random.default_rng(seed)
        raw = [(tuple(rng.choice(num_bits, size=k, replace=False).tolist()),
                float(rng.standard_normal() * 10.0 ** rng.integers(-8, 9))) for k in sizes]
        pubo = sparsify(raw, num_bits=num_bits)
        qm = quadratize(pubo, penalty=penalty, aux=aux)
        matrix, pairs, c_pen = add_at_quadratize(pubo, penalty, aux)
        assert qm.matrix.tobytes() == matrix.tobytes()
        assert qm.aux_pairs == pairs
        assert qm.penalty.hex() == float(c_pen).hex()

    @pytest.mark.parametrize("aux", ["lazy", "all"])
    def test_planted_matrix_matches_reference_loop(self, aux):
        rng = np.random.default_rng(7)
        for shape in ((3, 3, 4), (4, 4, 5)):
            pubo = planted_pubo(rng, *shape)
            qm = quadratize(pubo, aux=aux)
            matrix, pairs = reference_quadratize(pubo, None, aux)
            assert qm.matrix.tobytes() == matrix.tobytes()
            assert qm.aux_pairs == pairs
            matrix, _, c_pen = add_at_quadratize(pubo, None, aux)
            assert qm.matrix.tobytes() == matrix.tobytes() and qm.penalty == c_pen

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_bits=st.integers(0, 8),
        source=st.sampled_from(["degree 1", "pairs", "linear terms", "offset only", "no terms"]),
        aux=st.sampled_from(["lazy", "all"]),
    )
    def test_aux_free_qubo_keeps_its_pubo(self, seed, num_bits, source, aux):
        # with no auxiliary the matrix's own view would be the source term for
        # term, halves and M included, so the QUBO holds the source
        rng = np.random.default_rng(seed)
        if source == "degree 1":
            num_vars = int(rng.integers(1, 4))
            system = random_system(rng, int(rng.integers(1, 4)), num_vars, 1)
            pubo = compile_pubo(system, random_encoding(rng, num_vars, int(rng.integers(1, 4))))
        else:
            sizes = {"pairs": (1, 3), "linear terms": (1, 2), "offset only": (0, 1),
                     "no terms": (1, 1)}[source]
            raw = [(tuple(rng.choice(num_bits, int(rng.integers(*sizes))).tolist()),
                    float(rng.integers(-3, 4) + rng.standard_normal()))
                   for _ in range(int(rng.integers(0, 12)) if num_bits and sizes[1] > 1 else 0)]
            raw.append(((), 0.0 if source == "no terms" else float(rng.standard_normal())))
            pubo = sparsify(raw, num_bits=num_bits)
        aux = aux if pubo.num_bits <= 1 else "lazy"
        qm = quadratize(pubo, aux=aux)
        assert qm.num_aux == 0 and qm.pubo is pubo
        built = QuboMatrix(qm.matrix, qm.offset, qm.num_logical).pubo
        assert built is not pubo
        assert pubo.rows.shape == built.rows.shape
        assert pubo.rows.tobytes() == built.rows.tobytes()
        assert pubo.coeffs.tobytes() == built.coeffs.tobytes()
        assert float(pubo.offset).hex() == float(built.offset).hex()
        for mine, theirs in zip(pubo._half_table, built._half_table):
            assert (mine.dtype, mine.shape) == (theirs.dtype, theirs.shape)
            assert mine.tobytes() == theirs.tobytes()

    @pytest.mark.parametrize("terms, num_bits, aux", [
        ({(0, 1): 1.0, (1,): -2.0}, 2, "all"),
        ({(0,): 1.0}, 3, "all"),
        ({(0, 1, 2): 1.5, (2,): -1.0}, 3, "lazy"),
    ])
    def test_qubo_with_auxiliaries_views_its_matrix(self, terms, num_bits, aux):
        pubo = sparsify(terms, num_bits=num_bits)
        qm = quadratize(pubo, aux=aux)
        assert qm.num_aux and qm.pubo is not pubo
        assert qm.pubo.num_bits == qm.num_bits > pubo.num_bits

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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0, -2.0])
    @pytest.mark.parametrize("terms", [{(0, 1, 2): 1.0}, {(0, 1): 1.0}])
    def test_bad_penalty_named_with_or_without_aux(self, terms, value):
        with pytest.raises(ValueError, match="penalty .* must be a positive finite number"):
            quadratize(sparsify(terms, num_bits=3), penalty=value)

    def test_overflowing_qubo_refused_by_its_bound(self):
        # the PUBO's bound is finite, but C = 1 + 2e306 and the penalty
        # entries 3C, -2C, -2C, C take the QUBO's past it
        pubo = sparsify({(0, 1, 2): 1e306}, num_bits=3)
        assert math.isfinite(choose_penalty(pubo))
        with pytest.raises(ValueError, match=r"\(terms \+ 1\) = inf is not finite"):
            quadratize(pubo)

    def test_penalty_not_chosen_without_aux(self, monkeypatch, quad_system):
        def refuse(pubo):
            raise AssertionError("choose_penalty called with no auxiliary")

        linear = PolynomialSystem([quad_system.coeffs[0], quad_system.coeffs[1]])
        pubo = compile_pubo(linear, from_range([0.0, 0.0], [3.0, 3.0], 3))
        monkeypatch.setattr(compiler, "choose_penalty", refuse)
        qm = quadratize(pubo)
        assert qm.num_aux == 0 and qm.penalty == 0.0
        # compiling and quadratizing never evaluates, so builds no half table
        assert "_half_table" not in vars(pubo)


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
            assert qm.num_aux == 0 and qm.penalty == 0.0
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

    def test_cached_table_gives_identical_bits(self):
        pubo = dense_pubo(np.random.default_rng(9), 12, 4)
        states = all_bitstrings(12)
        rows = [pubo_energy(pubo, states[s]) for s in range(0, 4096, 41)]
        assert "_half_table" in vars(pubo)
        whole = pubo_energy(pubo, states)
        np.testing.assert_array_equal(pubo_energy(pubo, states), whole)
        np.testing.assert_array_equal(rows, whole[::41])
        # a fresh instance builds its own table and agrees bit for bit
        fresh = dense_pubo(np.random.default_rng(9), 12, 4)
        np.testing.assert_array_equal(pubo_energy(fresh, states[::41]), whole[::41])

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), num_bits=st.integers(0, 12),
           pattern=st.sampled_from(["empty", "diagonal", "dense", "sparse", "no diagonal"]))
    def test_qubo_view_half_table_matches_general_path(self, seed, num_bits, pattern):
        # a QUBO's view builds its half table from the matrix; a polynomial of
        # the same rows builds it by grouping term halves, bit for bit the same
        rng = np.random.default_rng(seed)
        matrix = np.triu(rng.standard_normal((num_bits, num_bits)))
        matrix[rng.random(matrix.shape) < (0.7 if pattern == "sparse" else 0.0)] = 0.0
        if pattern == "empty":
            matrix[:] = 0.0
        elif pattern == "diagonal":
            matrix = np.diag(np.diag(matrix))
        elif pattern == "no diagonal":
            np.fill_diagonal(matrix, 0.0)
        view = QuboMatrix(matrix, float(rng.standard_normal()), num_bits).pubo
        general = PseudoBooleanPolynomial(view.rows, view.coeffs, view.offset, num_bits)
        for mine, theirs in zip(view._half_table, general._half_table):
            assert (mine.dtype, mine.shape) == (theirs.dtype, theirs.shape)
            assert mine.tobytes() == theirs.tobytes()
        states = rng.integers(0, 2, (int(rng.integers(1, 200)), num_bits))
        assert pubo_energy(view, states).tobytes() == pubo_energy(general, states).tobytes()

    def test_brute_force_builds_half_table_once(self, monkeypatch):
        # 17 bits enumerate in four blocks of 2^15 states, plus the winner
        rng = np.random.default_rng(10)
        raw = [(tuple(rng.integers(0, 17, size=rng.integers(1, 5)).tolist()),
                float(rng.integers(-9, 10))) for _ in range(40)]
        pubo = sparsify(raw, num_bits=17)
        calls = []
        group_sets = compiler._group_sets

        def counted(rows, num_bits):
            calls.append(len(rows))
            return group_sets(rows, num_bits)

        monkeypatch.setattr(compiler, "_group_sets", counted)
        result = brute_force(pubo)
        assert len(calls) == 1
        assert result.energy == pubo_energy(pubo, result.bits)
        assert result.energy == pubo_energy(pubo, all_bitstrings(17)).min()

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

    def test_qubo_batch_equals_rows_alone(self):
        # quadratized 76- and 208-bit planted systems; a BLAS quadratic form
        # gave a third of these states other last bits in a batch than alone
        rng = np.random.default_rng(7)
        for shape in ((3, 3, 4), (4, 4, 5)):
            qm = quadratize(planted_pubo(rng, *shape))
            states = rng.integers(0, 2, (300, qm.num_bits))
            alone = [qubo_energy(qm, state) for state in states]
            assert qubo_energy(qm, states).tobytes() == np.array(alone).tobytes()

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

    def test_matrix_copied_read_only_and_viewed_as_pubo(self):
        source = np.triu(np.arange(1.0, 10.0).reshape(3, 3))
        source[0, 2] = 0.0
        qm = QuboMatrix(source, 0.5, 3)
        source[0, 1] = 7.0  # the QUBO holds its own copy
        with pytest.raises(ValueError, match="read-only"):
            qm.matrix[0, 1] = 7.0
        assert qm.pubo.terms == {(0,): 1.0, (0, 1): 2.0, (1,): 5.0, (1, 2): 6.0, (2,): 9.0}
        assert (qm.pubo.offset, qm.pubo.num_bits, qm.pubo.max_term_size) == (0.5, 3, 2)
        assert qm.pubo is qm.pubo
        assert QuboMatrix(np.diag([1.0, 0.0]), 0.0, 2).pubo.rows.tolist() == [[0]]

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            QuboMatrix(np.zeros((2, 3)), 0.0, 2)

    @pytest.mark.parametrize("n", range(6))
    def test_lower_triangle_rejected_wherever_it_is_nonzero(self, n):
        for i, j in zip(*np.tril_indices(n, -1)):
            matrix = np.triu(np.ones((n, n)))
            matrix[i, j] = -1e-300
            with pytest.raises(ValueError, match="upper triangular"):
                QuboMatrix(matrix, 0.0, n)
        assert QuboMatrix(np.triu(np.ones((n, n))), 0.0, n).num_bits == n

    @pytest.mark.parametrize("pairs", [[(0, 1), (0, 1)], np.array([[0, 2], [0, 2]])])
    def test_duplicate_aux_pairs_rejected(self, pairs):
        with pytest.raises(ValueError, match="duplicates"):
            QuboMatrix(np.zeros((5, 5)), 0.0, 3, aux_pairs=pairs)

    @pytest.mark.parametrize("pair", [(1, 0), (-1, 1), (0, 3), (2, 2)])
    def test_each_bad_aux_pair_named(self, pair):
        with pytest.raises(ValueError, match=rf"aux pair \({pair[0]}, {pair[1]}\) is not"):
            QuboMatrix(np.zeros((5, 5)), 0.0, 3, aux_pairs=[(0, 1), pair])

    def test_aux_pairs_from_an_array_are_int_tuples(self):
        qm = QuboMatrix(np.zeros((5, 5)), 0.0, 3, aux_pairs=np.array([[0, 2], [1, 2]]))
        assert qm.aux_pairs == ((0, 2), (1, 2))
        assert all(type(i) is int for pair in qm.aux_pairs for i in pair)

    @pytest.mark.parametrize("matrix, offset", [
        (np.diag([1e308, -1e308]), 0.0),  # the |entries| sum overflows
        (np.diag([1e308, 0.0]), -1e308),  # with the offset
        (np.diag([5e307, 0.0]), 0.0),  # the margin: 3 upper cells + 1
    ])
    def test_overflowing_energy_bound_rejected(self, matrix, offset):
        with pytest.raises(ValueError, match=r"bound .* = inf is not finite"):
            QuboMatrix(matrix, offset, 2)

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
