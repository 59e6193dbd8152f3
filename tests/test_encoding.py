"""Bit encoding: decode map, range construction, window refinement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_bitstrings
from polyqubo import BitEncoding, decode, from_range, nearest_bits, refine


class TestDecode:
    def test_two_vars_two_bits(self):
        enc = BitEncoding([1.0, 1.0], [0.0, 0.0], 2)
        np.testing.assert_array_equal(decode(enc, [0, 1, 1, 1]), [2.0, 3.0])

    def test_all_zeros_gives_offset(self):
        enc = BitEncoding([0.3, 0.7], [-1.5, 2.5], 3)
        np.testing.assert_array_equal(decode(enc, [0] * 6), enc.offset)

    def test_three_vars_four_bits(self):
        enc = BitEncoding([1.0, 1.0, 1.0], [0.0, 0.0, 0.0], 4)
        psi = [0, 0, 0, 1, 0, 0, 1, 0, 1, 1, 1, 0]
        np.testing.assert_array_equal(decode(enc, psi), [8.0, 4.0, 7.0])

    def test_little_endian_within_block(self):
        enc = BitEncoding([1.0], [0.0], 3)
        assert decode(enc, [1, 0, 0])[0] == 1.0
        assert decode(enc, [0, 0, 1])[0] == 4.0

    def test_injective_on_logical_states(self):
        enc = from_range([-1.0, 0.0], [1.0, 2.0], 2)
        points = decode(enc, all_bitstrings(enc.num_bits))
        distinct = {tuple(row) for row in np.round(points, 12)}
        assert len(distinct) == 2**enc.num_bits

    def test_length_mismatch_rejected(self):
        enc = BitEncoding([1.0], [0.0], 2)
        with pytest.raises(ValueError, match="length"):
            decode(enc, [1, 0, 1])

    def test_non_binary_rejected(self):
        enc = BitEncoding([1.0], [0.0], 2)
        with pytest.raises(ValueError, match="0 or 1"):
            decode(enc, [0, 2])


class TestFromRange:
    def test_symmetric_unit_range(self):
        enc = from_range(-1.0, 1.0, 4, num_vars=3)
        np.testing.assert_allclose(enc.scale, 2.0 / 15.0)
        np.testing.assert_array_equal(enc.offset, -1.0)

    def test_reproduces_unit_grid(self):
        enc = from_range([0.0, 0.0], [3.0, 3.0], 2)
        np.testing.assert_array_equal(enc.scale, [1.0, 1.0])
        np.testing.assert_array_equal(enc.offset, [0.0, 0.0])

    def test_integer_grid(self):
        enc = from_range([0.0], [15.0], 4)
        grid = sorted(float(decode(enc, psi)[0]) for psi in all_bitstrings(4))
        assert grid == [float(k) for k in range(16)]

    def test_endpoints_exact(self):
        enc = from_range([-2.5, 0.1], [0.3, 7.0], 5)
        np.testing.assert_array_equal(decode(enc, [0] * 10), [-2.5, 0.1])
        np.testing.assert_allclose(enc.hi, [0.3, 7.0], rtol=1e-15)
        np.testing.assert_allclose(decode(enc, [1] * 10), [0.3, 7.0], rtol=1e-15)

    def test_containment(self):
        rng = np.random.default_rng(0)
        enc = from_range([-1.2, 0.5], [0.8, 2.5], 3)
        for _ in range(50):
            psi = rng.integers(0, 2, enc.num_bits)
            x = decode(enc, psi)
            assert np.all(x >= enc.lo - 1e-12) and np.all(x <= enc.hi + 1e-12)

    def test_inverted_range_rejected(self):
        with pytest.raises(ValueError, match="empty or inverted"):
            from_range([0.0], [0.0], 2)
        with pytest.raises(ValueError, match="variable 1"):
            from_range([0.0, 1.0], [1.0, 0.5], 2)

    def test_bad_bits_rejected(self):
        with pytest.raises(ValueError, match="bits"):
            from_range([0.0], [1.0], 0)

    @pytest.mark.parametrize("lo, hi, num_vars, message", [
        ([0.0] * 3, [1.0] * 3, 2, "lo lists 3 values but the encoding has 2 variables"),
        (0.0, [1.0, 2.0], 3, "hi lists 2 values but the encoding has 3 variables"),
        ([0.0, 0.0], [1.0, 2.0, 3.0], None, "lo lists 2 values but the encoding has 3 variables"),
    ])
    def test_end_of_wrong_length_rejected(self, lo, hi, num_vars, message):
        with pytest.raises(ValueError, match=message):
            from_range(lo, hi, 2, num_vars=num_vars)

    @pytest.mark.parametrize("num_vars", [None, 2])
    def test_scalar_end_broadcasts_against_vector(self, num_vars):
        enc = from_range(0.0, [3.0, 6.0], 2, num_vars=num_vars)
        np.testing.assert_array_equal(enc.lo, [0.0, 0.0])
        np.testing.assert_array_equal(enc.hi, [3.0, 6.0])
        enc = from_range([-3.0, -6.0], 0.0, 2, num_vars=num_vars)
        np.testing.assert_array_equal(enc.lo, [-3.0, -6.0])
        np.testing.assert_array_equal(enc.hi, [0.0, 0.0])


class TestRefine:
    def test_window_and_spacing(self):
        # incumbent 0.2 sits at grid index 9 of the unit window
        enc = from_range([-1.0], [1.0], 4)
        new = refine(enc, [0.2])
        np.testing.assert_allclose(new.lo, [0.2 - 2.0 / 15.0], rtol=1e-12)
        np.testing.assert_allclose(new.hi, [0.2 + 2.0 / 15.0], rtol=1e-12)
        np.testing.assert_allclose(new.scale, [(4.0 / 15.0) / 15.0], rtol=1e-12)
        # incumbent lies inside the new window and near a new grid point
        grid = np.sort(decode(new, all_bitstrings(4)).ravel())
        assert grid[0] < 0.2 < grid[-1]
        assert np.min(np.abs(grid - 0.2)) <= new.scale[0] / 2 + 1e-12

    def test_midpoint_symmetric(self):
        enc = from_range([0.0], [3.0], 2)
        new = refine(enc, [1.0])  # grid point at index 1
        np.testing.assert_allclose(new.lo + new.hi, [2.0], atol=1e-14)

    @pytest.mark.parametrize("bits", range(2, 9))
    def test_nine_rounds_contract_geometrically(self, bits):
        enc = from_range([-1.0, -3.0, -0.5], [1.0, 2.0, 4.0], bits)
        factor = 2.0 / (2**bits - 1)
        spacing = enc.scale.copy()
        for _ in range(9):
            # the grid point nearest 0 keeps every window around 0, so the
            # window ends never cancel down to rounding noise
            k = np.clip(np.rint(-enc.offset / enc.scale), 0, 2**bits - 1)
            enc = refine(enc, enc.offset + enc.scale * k)
            spacing *= factor
            np.testing.assert_allclose(enc.scale, spacing, rtol=1e-9)
            np.testing.assert_allclose(enc.hi - enc.lo, spacing * (2**bits - 1), rtol=1e-9)

    def test_off_grid_incumbent_rejected(self):
        # in-range points are always within half a step of the grid; only
        # points beyond the window by more than half a step violate
        enc = from_range([0.0], [3.0], 2)
        with pytest.raises(ValueError, match="not a grid point"):
            refine(enc, [5.0])

    def test_near_grid_incumbent_tolerated(self):
        # within half a grid step counts as decoded from the current grid
        enc = from_range([0.0], [3.0], 2)
        new = refine(enc, [1.4])
        np.testing.assert_allclose(new.lo + new.hi, [2.8], atol=1e-14)

    def test_boundary_incumbent_recenters_window(self):
        enc = from_range([0.0], [3.0], 2)
        new = refine(enc, [3.0])
        np.testing.assert_allclose(new.lo, [2.0])
        np.testing.assert_allclose(new.hi, [4.0])


class TestNearestBits:
    def test_round_trip_on_grid(self):
        enc = from_range([0.0, -1.0], [3.0, 1.0], 2)
        x = decode(enc, [1, 0, 0, 1])
        np.testing.assert_array_equal(nearest_bits(enc, x), [1, 0, 0, 1])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        windows=st.lists(
            st.tuples(st.floats(-1e3, 1e3), st.floats(1e-3, 1e3)), min_size=1, max_size=4
        ),
        bits=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_round_trip_property(self, windows, bits, seed):
        lo = np.array([w[0] for w in windows])
        enc = from_range(lo, lo + np.array([w[1] for w in windows]), bits)
        psi = np.random.default_rng(seed).integers(0, 2, size=enc.num_bits).astype(np.uint8)
        point = decode(enc, psi)
        snapped = nearest_bits(enc, point)
        np.testing.assert_array_equal(snapped, psi)
        np.testing.assert_array_equal(decode(enc, snapped), point)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        windows=st.lists(
            st.tuples(st.floats(-1e3, 1e3), st.floats(1e-3, 1e3)), min_size=1, max_size=4
        ),
        bits=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_snaps_off_grid_points_to_nearest(self, windows, bits, seed):
        lo = np.array([w[0] for w in windows])
        enc = from_range(lo, lo + np.array([w[1] for w in windows]), bits)
        x = np.random.default_rng(seed).uniform(enc.lo - enc.scale, enc.hi + enc.scale)
        psi = nearest_bits(enc, x)
        assert psi.dtype == np.uint8 and psi.shape == (enc.num_bits,)
        gap = np.abs(decode(enc, psi) - np.clip(x, enc.lo, enc.hi))
        assert np.all(gap <= 0.5 * enc.scale + 1e-12 * (1 + np.abs(x)))

    def test_clips_outside_range(self):
        enc = from_range([0.0], [3.0], 2)
        np.testing.assert_array_equal(nearest_bits(enc, [99.0]), [1, 1])
        np.testing.assert_array_equal(nearest_bits(enc, [-99.0]), [0, 0])

    def test_snaps_to_nearest(self):
        enc = from_range([0.0], [3.0], 2)
        assert decode(enc, nearest_bits(enc, [1.4]))[0] == 1.0
        assert decode(enc, nearest_bits(enc, [1.6]))[0] == 2.0


class TestValidation:
    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            BitEncoding([0.0], [0.0], 2)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal-length"):
            BitEncoding([1.0, 1.0], [0.0], 2)
