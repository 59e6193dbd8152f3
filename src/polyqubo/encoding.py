"""Fixed-point binary encoding between bitstrings and real vectors.

Each variable x_j is represented by R bits with little-endian weights
2^0 ... 2^(R-1):

    x_j = scale_j * sum_r 2^r psi[j*R + r] + offset_j

The bit layout is variable-major: variable j owns the contiguous block
``psi[j*R : (j+1)*R]``.  The representable grid per variable is
``{offset_j + scale_j * k : k = 0 .. 2^R - 1}``, so an encoding built by
:func:`from_range` makes both range endpoints exact grid points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BitEncoding",
    "decode",
    "from_range",
    "refine",
    "nearest_bits",
]


@dataclass(frozen=True, eq=False)
class BitEncoding:
    """Per-variable scale/offset plus a shared bit count.

    Attributes:
        scale: positive step size per variable, shape (V,).
        offset: grid origin per variable, shape (V,).
        bits: number of bits R per variable.
    """

    scale: np.ndarray = field()
    offset: np.ndarray = field()
    bits: int = field()

    def __init__(self, scale, offset, bits: int) -> None:
        scale = np.atleast_1d(np.asarray(scale, dtype=float))
        offset = np.atleast_1d(np.asarray(offset, dtype=float))
        if scale.ndim != 1 or scale.shape != offset.shape:
            raise ValueError(
                f"scale and offset must be equal-length vectors, got shapes "
                f"{scale.shape} and {offset.shape}"
            )
        if not (np.all(np.isfinite(scale)) and np.all(np.isfinite(offset))):
            raise ValueError("scale/offset contain non-finite entries")
        if np.any(scale <= 0):
            raise ValueError("all scale entries must be positive")
        if int(bits) < 1:
            raise ValueError(f"bits must be >= 1, got {bits}")
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "bits", int(bits))

    @property
    def num_vars(self) -> int:
        return self.scale.shape[0]

    @property
    def num_bits(self) -> int:
        """Total logical bit count V*R."""
        return self.num_vars * self.bits

    @property
    def weights(self) -> np.ndarray:
        """Little-endian bit weights (2^0, ..., 2^(R-1))."""
        return 2.0 ** np.arange(self.bits)

    @property
    def lo(self) -> np.ndarray:
        """Smallest representable value per variable (all bits zero)."""
        return self.offset.copy()

    @property
    def hi(self) -> np.ndarray:
        """Largest representable value per variable (all bits one)."""
        return self.offset + self.scale * (2**self.bits - 1)

    def __repr__(self) -> str:
        return (
            f"BitEncoding(vars={self.num_vars}, bits={self.bits}, "
            f"lo={np.array2string(self.lo, precision=6)}, "
            f"hi={np.array2string(self.hi, precision=6)})"
        )


def _check_bits(enc: BitEncoding, psi) -> np.ndarray:
    psi = np.asarray(psi)
    if psi.ndim == 0 or psi.shape[-1] != enc.num_bits:
        raise ValueError(
            f"bitstring has length {psi.shape[-1] if psi.ndim else 0}, "
            f"encoding expects {enc.num_vars} vars x {enc.bits} bits = {enc.num_bits}"
        )
    if not np.all((psi == 0) | (psi == 1)):
        raise ValueError("bitstring entries must be exactly 0 or 1")
    return psi.astype(float)


def decode(enc: BitEncoding, psi) -> np.ndarray:
    """Map a logical bitstring (or batch of them) to real variable values.

    Accepts shape (V*R,) or (..., V*R); returns (V,) or (..., V).
    """
    psi = _check_bits(enc, psi)
    blocks = psi.reshape(psi.shape[:-1] + (enc.num_vars, enc.bits))
    return enc.scale * (blocks @ enc.weights) + enc.offset


def from_range(lo, hi, bits: int, num_vars: int | None = None) -> BitEncoding:
    """Build an encoding whose grid spans [lo, hi] inclusive per variable.

    ``lo`` and ``hi`` are each a scalar or one value per variable.  A scalar
    end is broadcast to ``num_vars`` values, or without ``num_vars`` to the
    length of the other end; a vector of any other length raises.  The step
    is (hi - lo) / (2^R - 1) so both endpoints are exact grid points.
    """
    ends = [np.atleast_1d(np.asarray(end, dtype=float)) for end in (lo, hi)]
    num_vars = max(end.size for end in ends) if num_vars is None else num_vars
    for name, end in zip(("lo", "hi"), ends):
        if end.shape not in ((1,), (num_vars,)):
            raise ValueError(f"{name} lists {end.size} values but the encoding has "
                             f"{num_vars} variables")
    lo, hi = (np.full(num_vars, end) if end.size == 1 else end for end in ends)
    if np.any(hi <= lo):
        bad = int(np.argmax(hi <= lo))
        raise ValueError(
            f"range for variable {bad} is empty or inverted: "
            f"lo={lo[bad]!r}, hi={hi[bad]!r}"
        )
    if int(bits) < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    scale = (hi - lo) / (2 ** int(bits) - 1)
    return BitEncoding(scale, lo, bits)


def _grid_index(enc: BitEncoding, x: np.ndarray) -> np.ndarray:
    """Index k of the grid point nearest each component, clipped to 0 .. 2^R - 1."""
    return np.clip(np.rint((x - enc.offset) / enc.scale), 0, 2**enc.bits - 1)


def nearest_bits(enc: BitEncoding, x) -> np.ndarray:
    """Bits of the representable point closest to ``x`` (clipped to range)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (enc.num_vars,):
        raise ValueError(
            f"point has shape {x.shape}, encoding expects ({enc.num_vars},)"
        )
    k = _grid_index(enc, x).astype(np.int64)
    return ((k[:, None] >> np.arange(enc.bits)) & 1).astype(np.uint8).ravel()


def refine(enc: BitEncoding, x_star) -> BitEncoding:
    """Shrink the search window around an incumbent grid point.

    The new range per variable is one grid step either side of the incumbent,
    ``[x*_j - scale_j, x*_j + scale_j]``, re-gridded with the same bit count.
    Spacing scales by the fixed factor 2 / (2^R - 1) per call: it contracts only for R >= 2.

    ``x_star`` must decode from the current grid: each component has to sit
    within half a grid step of a representable value.
    """
    x_star = np.asarray(x_star, dtype=float)
    if x_star.shape != (enc.num_vars,):
        raise ValueError(
            f"incumbent has shape {x_star.shape}, encoding expects ({enc.num_vars},)"
        )
    snapped = enc.offset + enc.scale * _grid_index(enc, x_star)
    # allow a small cushion over half a step for floating-point drift
    tol = 0.5 * enc.scale * (1 + 1e-9) + 1e-15
    if np.any(np.abs(x_star - snapped) > tol):
        bad = int(np.argmax(np.abs(x_star - snapped) > tol))
        raise ValueError(
            f"component {bad} of x_star ({x_star[bad]!r}) is not a grid point "
            f"of the current encoding (nearest is {snapped[bad]!r})"
        )
    return from_range(x_star - enc.scale, x_star + enc.scale, enc.bits)
