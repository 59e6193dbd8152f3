"""Shared fixtures and small random-instance generators."""

from __future__ import annotations

from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from polyqubo import PolynomialSystem, compile_pubo, from_range, sparsify

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURE_DIR = REPO_ROOT / "fixtures"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# the two-equation second-order system with integer root (2, 3):
#   2 x0^2 + 3 x0 x1 +   x1^2 + 2 x0 + 4 x1 = 51
#     x0^2 + 2 x0 x1 + 2 x1^2 + 3 x0 + 2 x1 = 46
QUAD_P0 = [-51.0, -46.0]
QUAD_P1 = [[2.0, 4.0], [3.0, 2.0]]
QUAD_P2 = [[[2.0, 3.0], [0.0, 1.0]], [[1.0, 2.0], [0.0, 2.0]]]


@pytest.fixture
def quad_system() -> PolynomialSystem:
    return PolynomialSystem([QUAD_P0, QUAD_P1, QUAD_P2])


@pytest.fixture
def quad_encoding():
    # 2 bits per variable over [0, 3]: unit grid containing the root (2, 3)
    return from_range([0.0, 0.0], [3.0, 3.0], 2)


def all_bitstrings(num_bits: int) -> np.ndarray:
    """All bitstrings as a (2^L, L) uint8 matrix; row s has bit i = (s >> i) & 1."""
    ints = np.arange(1 << num_bits, dtype=np.int64)
    return ((ints[:, None] >> np.arange(num_bits)) & 1).astype(np.uint8)


def sample_key(samples):
    """A SampleSet's content as one comparable value: records, reads and seed."""
    return samples.records, samples.total_reads, samples.rng_seed


def random_system(rng, num_eq, num_vars, degree, scale=1.0) -> PolynomialSystem:
    coeffs = [
        rng.uniform(-scale, scale, size=(num_eq,) + (num_vars,) * order)
        for order in range(degree + 1)
    ]
    return PolynomialSystem(coeffs)


def random_encoding(rng, num_vars, bits):
    lo = rng.uniform(-2.0, -0.1, size=num_vars)
    hi = rng.uniform(0.1, 2.0, size=num_vars)
    return from_range(lo, hi, bits)


def planted_pubo(rng, num_eq, num_vars, bits):
    """Integer-coefficient quadratic system with a root planted on the grid
    [-2, 2] at ``bits`` bits per variable, compiled to its PUBO: the shape
    of the seeded systems the benchmark's polynomial pipeline solves."""
    root = -2.0 + 4.0 / (2**bits - 1) * rng.integers(0, 2**bits, num_vars)
    lin = rng.integers(-3, 4, (num_eq, num_vars)).astype(float)
    quad = rng.integers(-3, 4, (num_eq, num_vars, num_vars)).astype(float)
    const = -(lin @ root + np.einsum("ijk,j,k->i", quad, root, root))
    enc = from_range(-2.0, 2.0, bits, num_vars=num_vars)
    return compile_pubo(PolynomialSystem([const, lin, quad]), enc)


def dense_pubo(rng, num_bits, max_size):
    """Every index set up to ``max_size`` bits, with Gaussian coefficients."""
    raw = {
        t: float(rng.standard_normal())
        for k in range(1, max_size + 1)
        for t in combinations(range(num_bits), k)
    }
    return sparsify(raw, num_bits=num_bits)
