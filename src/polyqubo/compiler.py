"""Compile polynomial systems into pseudo-Boolean objectives and QUBO matrices.

The pipeline expands the residual sum of squares of a system in the bit
basis of an encoding, producing a multilinear pseudo-Boolean polynomial
(PUBO) whose energy at any bitstring equals the residual sum of squares at
the decoded point, constant included.  Cubic and quartic terms are then
reduced to quadratic form by substituting products of bit pairs with
auxiliary bits held consistent by penalty terms

    C * (psi_i psi_j - 2 psi_i aux - 2 psi_j aux + 3 aux)

which vanish exactly when aux = psi_i * psi_j and cost at least C otherwise.

A PUBO is two arrays (see :class:`PseudoBooleanPolynomial`) that every
layer reads as they are.  :func:`compile_pubo` groups the index rows of the
residuals' bit expansion by canonical set and squares the residuals through
the Gram matrix of their coefficients.  The grouping depends only on the bit
count and the degree, so it is planned once per such pair and kept
(:func:`_index_plan`); each call does only the coefficient arithmetic over
the plan.  :func:`sparsify` groups raw terms the same way.
:func:`quadratize` maps every term and penalty entry to its matrix cell and
sums them with one unbuffered ``np.add.at`` in term order, as a loop would.
A QUBO is a PUBO with terms of at most two bits (:attr:`QuboMatrix.pubo`),
so :func:`pubo_energy` is the one evaluator of both: a bilinear form over
products of term halves, a table each polynomial builds once, which gives a
state the same energy alone as in any batch.

Degree-1 systems take the same compiler (:func:`compile_linear_qubo`): their
PUBO terms have at most two bits, so quadratization adds no auxiliaries.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache
from itertools import chain
from types import MappingProxyType

import numpy as np

from .encoding import BitEncoding
from .polysys import PolynomialSystem

__all__ = [
    "PseudoBooleanPolynomial",
    "QuboMatrix",
    "sparsify",
    "compile_pubo",
    "choose_penalty",
    "quadratize",
    "compile_linear_qubo",
    "pubo_energy",
    "qubo_energy",
    "export_qubo",
]


@dataclass(frozen=True, eq=False)
class PseudoBooleanPolynomial:
    """Multilinear polynomial over binary variables plus a constant offset.

    ``rows`` holds one distinct bit set per row, sorted, padded on the right
    with ``num_bits``, in ascending tuple order and as wide as the largest
    term; ``coeffs`` holds their nonzero, finite coefficients.  Both arrays
    are read-only; the empty product lives in ``offset``.  The read-only
    view ``terms`` ({index tuple: coefficient}, in row order) is derived on
    first access.
    """

    rows: np.ndarray
    coeffs: np.ndarray
    offset: float
    num_bits: int

    def __post_init__(self):
        for name, dtype in (("rows", np.intp), ("coeffs", float)):
            array = np.array(getattr(self, name), dtype=dtype)
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        bad = ~np.isfinite(self.coeffs)
        if bad.any():
            first = int(np.argmax(bad))
            term = list(self.terms)[first]
            raise ValueError(f"term {term} has non-finite coefficient {self.coeffs[first]!r}")
        if not np.isfinite(self.offset):
            raise ValueError(f"offset {self.offset!r} is not finite")

    @cached_property
    def terms(self) -> Mapping[tuple[int, ...], float]:
        sizes = np.count_nonzero(self.rows != self.num_bits, axis=1)
        names = [tuple(row[:k]) for row, k in zip(self.rows.tolist(), sizes.tolist())]
        return MappingProxyType(dict(zip(names, self.coeffs.tolist())))

    @cached_property
    def _half_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct term halves and the H x H matrix M of :func:`pubo_energy`."""
        num_bits = self.num_bits
        # with no terms, one padding column keeps the half products defined
        rows = self.rows if self.rows.shape[1] else np.full((0, 1), num_bits)
        sizes = np.count_nonzero(rows != num_bits, axis=1)
        first = np.arange(rows.shape[1]) < (sizes[:, None] + 1) // 2
        half = (rows.shape[1] + 1) // 2
        left = np.where(first, rows, num_bits)[:, :half]
        right = np.sort(np.where(first, num_bits, rows), axis=1)[:, :half]
        halves, inverse = _group_sets(np.concatenate([left, right]), num_bits)
        pairs = np.zeros((len(halves), len(halves)))
        pairs[inverse[: len(rows)], inverse[len(rows) :]] = self.coeffs
        return halves, pairs

    @property
    def max_term_size(self) -> int:
        return self.rows.shape[1]

    def __repr__(self) -> str:
        return (
            f"PseudoBooleanPolynomial(bits={self.num_bits}, "
            f"terms={len(self.coeffs)}, max_size={self.max_term_size}, "
            f"offset={self.offset:g})"
        )


@dataclass(frozen=True, eq=False)
class QuboMatrix:
    """Upper-triangular quadratic form over logical + auxiliary bits.

    Attributes:
        matrix: (T, T) upper-triangular coefficient matrix, T = logical + aux,
            held read-only: its view as a PUBO, :attr:`pubo`, is what every
            evaluation and enumeration reads.
        offset: constant carried so energies read as residual sums of squares.
        num_logical: leading bit count that decodes to variables.
        aux_pairs: ordered logical pairs, one per auxiliary bit (aux k
            represents the product of pair ``aux_pairs[k]``).
        penalty: consistency weight C used for the auxiliary constraints.
    """

    matrix: np.ndarray
    offset: float
    num_logical: int
    aux_pairs: tuple[tuple[int, int], ...] = ()
    penalty: float = 0.0

    def __post_init__(self):
        matrix, num_logical = np.array(self.matrix, dtype=float), int(self.num_logical)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"matrix must be square, got shape {matrix.shape}")
        if not np.all(np.isfinite(matrix)):
            i, j = np.argwhere(~np.isfinite(matrix))[0]
            raise ValueError(f"matrix entry ({i}, {j}) is {matrix[i, j]!r}, not finite")
        offset, penalty = float(self.offset), float(self.penalty)
        if not (np.isfinite(offset) and np.isfinite(penalty)):
            raise ValueError(f"offset {offset!r} and penalty {penalty!r} must be finite")
        if np.any(np.tril(matrix, -1) != 0):
            raise ValueError("matrix must be upper triangular")
        aux_pairs = tuple(tuple(p) for p in self.aux_pairs)
        if matrix.shape[0] != num_logical + len(aux_pairs):
            raise ValueError(
                f"matrix is {matrix.shape[0]}x{matrix.shape[0]} but "
                f"{num_logical} logical + {len(aux_pairs)} aux bits were declared"
            )
        if len(set(aux_pairs)) != len(aux_pairs):
            raise ValueError("aux_pairs contains duplicates")
        for i, j in aux_pairs:
            if not (0 <= i < j < num_logical):
                raise ValueError(f"aux pair ({i}, {j}) is not an ordered logical pair")
        matrix.flags.writeable = False
        for f, value in zip(fields(self), (matrix, offset, num_logical, aux_pairs, penalty)):
            object.__setattr__(self, f.name, value)

    @cached_property
    def pubo(self) -> PseudoBooleanPolynomial:
        """This QUBO as a PUBO: entry (i, i) is the term (i,) and (i, j) is (i, j).
        Row-major order is tuple order; a leading empty set carries the offset.

        Its half table (see :func:`pubo_energy`) comes straight from the
        matrix: the halves are () if a diagonal entry is nonzero, then every
        used bit in ascending order, and M is the matrix on those bits with
        the diagonal moved to the () column."""
        n = self.num_bits
        i, j = np.nonzero(self.matrix)
        second, values = np.where(i < j, j, n), self.matrix[i, j]
        pubo = _collect(
            np.vstack([[n, n], np.stack([i, second], axis=1)]), np.r_[self.offset, values], n
        )
        used = np.zeros(n + 1, dtype=bool)  # index n is ()
        used[i] = used[second] = True
        order = np.r_[n, :n]  # tuple order: () first
        halves = order[used[order]]
        position = np.zeros(n + 1, dtype=np.intp)
        position[halves] = np.arange(len(halves))
        pairs = np.zeros((len(halves), len(halves)))
        pairs[position[i], position[second]] = values
        object.__setattr__(pubo, "_half_table", (halves[:, None], pairs))
        return pubo

    @property
    def num_bits(self) -> int:
        """Total bit count including auxiliaries."""
        return self.matrix.shape[0]

    @property
    def num_aux(self) -> int:
        return len(self.aux_pairs)

    @property
    def aux_map(self) -> dict[int, tuple[int, int]]:
        """Map from auxiliary bit index to the logical pair it represents."""
        return {self.num_logical + k: pair for k, pair in enumerate(self.aux_pairs)}

    def __repr__(self) -> str:
        return (
            f"QuboMatrix(logical={self.num_logical}, aux={self.num_aux}, "
            f"penalty={self.penalty:g}, offset={self.offset:g})"
        )


_BLOCK_FLOATS = 1 << 15  # size of per-block temporaries in compile_pubo and pubo_energy


def sparsify(raw_terms, num_bits: int) -> PseudoBooleanPolynomial:
    """Canonicalize raw multilinear terms into a :class:`PseudoBooleanPolynomial`.

    ``raw_terms`` is a mapping (or iterable of pairs) from index tuples to
    coefficients.  Index tuples may be unsorted and may contain repeats;
    repeats collapse under the idempotence psi^2 = psi, permutations of the
    same set accumulate into one coefficient, and empty products accumulate
    into the offset.  A set's coefficient is one ``np.bincount`` of the raw
    ones in input order, the bits of a loop of additions; zeros are dropped.
    """
    items = list(raw_terms.items() if hasattr(raw_terms, "items") else raw_terms)
    sizes = np.fromiter((len(t) for t, _ in items), dtype=np.intp, count=len(items))
    flat = np.fromiter(chain.from_iterable(t for t, _ in items), np.intp, int(sizes.sum()))
    if np.any((flat < 0) | (flat >= num_bits)):
        bad = next(t for t, _ in items if not all(0 <= i < num_bits for i in t))
        raise ValueError(f"term {tuple(bad)} references a bit outside 0..{num_bits - 1}")
    rows = np.full((len(items), int(sizes.max(initial=0))), num_bits)
    rows[np.arange(rows.shape[1]) < sizes[:, None]] = flat
    sets, inverse = _group_sets(rows, num_bits)
    coeffs = np.fromiter((c for _, c in items), dtype=float, count=len(items))
    return _collect(sets, np.bincount(inverse, coeffs, minlength=len(sets)), num_bits)


def _group_sets(rows: np.ndarray, num_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct canonical bit sets of padded index rows, in ascending tuple order.

    Entries equal to ``num_bits`` are padding.  Each row is sorted and its
    repeats become padding (psi^2 = psi), so a set is a sorted row padded on
    the right.  Sets are grouped by one int64 mixed-radix key in base
    ``num_bits + 1`` whose digits are index + 1 with padding as 0, so key
    order is tuple order (a prefix sorts first).  Rows too wide for int64
    keys are grouped by ``np.unique(axis=0)`` on the same digits, which gives
    the same order.

    Returns ``(sets, inverse)`` with row i canonicalising to ``sets[inverse[i]]``.
    """
    rows = np.sort(rows, axis=1)
    rows[:, 1:][rows[:, 1:] == rows[:, :-1]] = num_bits
    rows.sort(axis=1)
    base = num_bits + 1
    digits = (rows + 1) % base
    width = rows.shape[1]
    if base**width <= np.iinfo(np.int64).max:
        keys = digits @ base ** np.arange(width - 1, -1, -1, dtype=np.int64)
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    else:
        _, first, inverse = np.unique(digits, axis=0, return_index=True, return_inverse=True)
    return rows[first], inverse.reshape(-1)


def _collect(sets: np.ndarray, totals: np.ndarray, num_bits: int) -> PseudoBooleanPolynomial:
    """Polynomial of grouped sets: the empty one (first) is the offset, zeros go."""
    sizes = np.count_nonzero(sets != num_bits, axis=1)
    keep = (totals != 0.0) & (sizes > 0)
    offset = float(totals[0]) if len(sizes) and not sizes[0] else 0.0
    width = int(sizes[keep].max(initial=0))
    return PseudoBooleanPolynomial(sets[keep, :width], totals[keep], offset, num_bits)


def compile_pubo(system: PolynomialSystem, enc: BitEncoding) -> PseudoBooleanPolynomial:
    """Expand the residual sum of squares of ``system`` in the bit basis.

    For every logical bitstring psi the result satisfies

        pubo_energy(result, psi) == chi_squared(system, decode(enc, psi))

    up to floating-point rounding, with the constant offset carried so the
    identity holds with no free constant.

    The variables are affine in the bits, x = A z with z = (psi_0, ...,
    psi_{L-1}, 1): A holds ``scale_j * 2^r`` in variable j's block and the
    offsets in the last column.  Multiplying the flattened ``coeffs[k]`` by
    the k-fold products of A's entries gives the residuals' coefficients
    over z-index tuples.  Index L (the constant) doubles as padding, so every
    tuple is already a padded row of bit indices; grouping the rows by
    canonical set (:func:`_group_sets`) gives the residual coefficient matrix
    F (sets x equations).  The squared residuals summed over equations are
    F F^T, whose upper triangle is grouped again by the union of each pair
    of sets.  Both groupings come from :func:`_index_plan`, kept per bit
    count and degree.  Terms come out in ascending tuple order, exact zeros
    dropped.
    """
    if enc.num_vars != system.num_variables:
        raise ValueError(
            f"encoding covers {enc.num_vars} variables, system coeffs[1] "
            f"expects {system.num_variables}"
        )
    num_bits = enc.num_bits
    amap = np.zeros((enc.num_vars, num_bits + 1))
    for j in range(enc.num_vars):
        amap[j, j * enc.bits : (j + 1) * enc.bits] = enc.scale[j] * enc.weights
    amap[:, num_bits] = enc.offset

    num_sets, inverse, left, right, unions, union_of = _index_plan(num_bits, system.degree)
    columns = []
    # power[v, z] = prod_m A[v_m, z_m] over variable tuples v and z tuples z.
    # Forming it before the coefficients makes an all-bit tuple's entry one
    # rounded product c * (a a'), as in a monomial-by-monomial expansion, so
    # exact cancellations between monomials stay exact.
    power = np.ones((1, 1))
    for order, tensor in enumerate(system.coeffs):
        if order:
            power = np.einsum("ab,cd->acbd", power, amap).reshape(enc.num_vars**order, -1)
        columns.append(tensor.reshape(system.num_equations, -1) @ power)
    residual = np.zeros((num_sets, system.num_equations))
    np.add.at(residual, inverse, np.concatenate(columns, axis=1).T)

    # upper triangle of F F^T from separately rounded products: the fused
    # multiply-adds of a BLAS product leave rounding dust (~1e-17) where
    # equations cancel exactly, and each dust term is one more PUBO term and
    # possibly one more auxiliary in quadratize.  Blocks of pairs bound the
    # temporaries; each weight is its own row sum, so blocking changes no bit.
    weights = np.empty(len(left))
    block = max(1, _BLOCK_FLOATS // system.num_equations)
    for start in range(0, len(left), block):
        pair = slice(start, start + block)
        weights[pair] = (residual[left[pair]] * residual[right[pair]]).sum(axis=1)
    weights[left != right] *= 2.0
    return _collect(unions, np.bincount(union_of, weights), num_bits)


@lru_cache(maxsize=4)
def _index_plan(num_bits: int, degree: int) -> tuple:
    """The index work of :func:`compile_pubo`, which depends on nothing else.

    Returns ``(num_sets, inverse, left, right, unions, union_of)``.  The
    z-index rows of orders 0..degree, padded to ``max(degree, 1)`` columns,
    fall into ``num_sets`` canonical sets, row i into set ``inverse[i]``.
    ``(left, right)`` run over the upper triangle of set pairs, and pair k's
    union is ``unions[union_of[k]]``.  The arrays are read-only, in the
    narrowest unsigned dtype that holds them.
    """
    width = max(degree, 1)
    rows = []
    for order in range(degree + 1):
        count = (num_bits + 1) ** order
        padded = np.full((count, width), num_bits)
        padded[:, :order] = np.indices((num_bits + 1,) * order).reshape(order, count).T
        rows.append(padded)
    sets, inverse = _group_sets(np.concatenate(rows), num_bits)
    left, right = map(_compact, np.triu_indices(len(sets)))
    unions, union_of = _group_sets(np.hstack([sets[left], sets[right]]), num_bits)
    return len(sets), _compact(inverse), left, right, _compact(unions), _compact(union_of)


def _compact(indices: np.ndarray) -> np.ndarray:
    """Read-only copy of non-negative integers in the narrowest unsigned dtype."""
    indices = indices.astype(np.min_scalar_type(indices.max(initial=0)))
    indices.flags.writeable = False
    return indices


def choose_penalty(pubo: PseudoBooleanPolynomial) -> float:
    """Auxiliary-consistency weight that safely dominates any single violation.

    Returns ``1 + 2 * sum(|coefficients|)``, summed one by one in term order.
    Breaking one constraint costs at least the returned C, while the largest
    energy decrease obtainable anywhere in the objective is below C.
    """
    return 1.0 + 2.0 * float(sum(map(abs, pubo.coeffs.tolist())))


def quadratize(
    pubo: PseudoBooleanPolynomial,
    penalty: float | None = None,
    aux: str = "lazy",
) -> QuboMatrix:
    """Reduce a PUBO of term size <= 4 to a QUBO by pair substitution.

    Every cubic term {i, j, k} (sorted) becomes aux(i, j) * psi_k and every
    quartic term {i, j, k, l} becomes aux(i, j) * aux(k, l); pairing the two
    lowest indices is the tie-break.  Each allocated auxiliary pair adds the
    penalty row keeping it equal to the product of its logical bits.

    Args:
        pubo: polynomial to reduce; terms larger than 4 are rejected since
            they would need a further substitution round, which this
            implementation does not perform.
        penalty: constraint weight C > 0, finite; only with an auxiliary is
            it used (default :func:`choose_penalty`) and recorded, else C = 0.
        aux: ``"lazy"`` allocates auxiliaries only for pairs that occur in
            cubic/quartic terms; ``"all"`` allocates every logical pair in
            lexicographic order (half L(L-1) auxiliaries).
    """
    n_log = pubo.num_bits
    if pubo.max_term_size > 4:
        worst = list(pubo.terms)[int(np.argmax(pubo.rows[:, -1] != n_log))]
        raise ValueError(
            f"term {worst} has {len(worst)} bits; a second substitution round "
            "would be required to quadratize it, which is not implemented"
        )
    if aux not in ("lazy", "all"):
        raise ValueError(f"aux must be 'lazy' or 'all', got {aux!r}")
    if penalty is not None and not 0.0 < float(penalty) < math.inf:
        flaw = "positive" if math.isfinite(float(penalty)) else "finite"
        raise ValueError(f"penalty {penalty!r} is not {flaw}: it must be a positive finite number")

    rows = np.pad(pubo.rows, ((0, 0), (0, 4 - pubo.max_term_size)), constant_values=n_log)
    sizes = np.count_nonzero(rows != n_log, axis=1)
    aux_of = np.zeros((n_log + 1, n_log + 1), dtype=np.intp)
    if aux == "all":
        pairs = np.transpose(np.triu_indices(n_log, 1))
    else:
        substituted = np.concatenate([rows[sizes >= 3, :2], rows[sizes == 4, 2:]])
        aux_of[substituted[:, 0], substituted[:, 1]] = 1
        pairs = np.argwhere(aux_of)  # row-major: ascending (i, j)
    num_aux = len(pairs)
    aux_of[pairs[:, 0], pairs[:, 1]] = n_log + np.arange(num_aux)
    c_pen = (choose_penalty(pubo) if penalty is None else float(penalty)) if num_aux else 0.0
    if not math.isfinite(c_pen):
        raise ValueError(f"chosen penalty {c_pen!r} is not finite; pass a finite penalty=")
    # each term is a product of two factors: bits, or auxiliaries for pairs
    left = np.where(sizes >= 3, aux_of[rows[:, 0], rows[:, 1]], rows[:, 0])
    last = rows[np.arange(len(sizes)), sizes - 1]
    right = np.where(sizes == 4, aux_of[rows[:, 2], rows[:, 3]], last)
    # penalty entries follow the terms, pair by pair, in the order
    # (i, j), (i, aux), (j, aux), (aux, aux)
    i, j = pairs.T
    a = n_log + np.arange(num_aux)
    cells = (
        np.concatenate([np.minimum(left, right), np.stack([i, i, j, a], axis=1).ravel()]),
        np.concatenate([np.maximum(left, right), np.stack([j, a, a, a], axis=1).ravel()]),
    )
    values = np.concatenate([
        pubo.coeffs,
        np.tile([c_pen, -2.0 * c_pen, -2.0 * c_pen, 3.0 * c_pen], num_aux),
    ])
    q = np.zeros((n_log + num_aux, n_log + num_aux))
    # unbuffered and in order: every entry sums its contributions in sequence
    np.add.at(q, cells, values)
    return QuboMatrix(q, pubo.offset, n_log, aux_pairs=pairs.tolist(), penalty=c_pen)


def compile_linear_qubo(system: PolynomialSystem, enc: BitEncoding) -> QuboMatrix:
    """QUBO for a degree-1 system: :func:`quadratize` of :func:`compile_pubo`.

    Terms have at most two bits, so there are no auxiliaries and penalty 0.
    The energy at any bitstring equals ``||coeffs[1] @ x + coeffs[0]||^2``
    at the decoded point, offset carried.
    """
    if system.degree != 1:
        raise ValueError(
            f"compile_linear_qubo requires a degree-1 system, got degree {system.degree}"
        )
    return quadratize(compile_pubo(system, enc))


def pubo_energy(pubo: PseudoBooleanPolynomial, psi) -> float | np.ndarray:
    """Evaluate a PUBO at a bitstring of shape (L,) or a batch (..., L).

    Each term t of size k splits into the halves ``t[:ceil(k/2)]`` and
    ``t[ceil(k/2):]``.  With the distinct halves (the empty one included) as
    H columns, the coefficients fill an H x H matrix M, and for states whose
    half products form the rows of P the energies are

        offset + rowsum((P @ M) * P)

    for any term size.  A state costs H^2 multiply-adds, which suits dense
    polynomials such as those :func:`compile_pubo` returns (all 6195 terms
    of up to 4 of 20 bits give H = 211, so H^2 is 7 times the term count).
    States go through in blocks that keep each temporary near
    ``_BLOCK_FLOATS`` floats.  The product runs in numpy's einsum loops
    rather than BLAS, whose kernels change the summation order with a row's
    position in the block: this way a state's energy is the same bits
    however the batch is sliced.  A polynomial builds its halves and M on its
    first evaluation and keeps them for later calls.
    """
    psi = np.asarray(psi)
    num_bits = pubo.num_bits
    if psi.ndim == 0 or psi.shape[-1] != num_bits:
        raise ValueError(
            f"bitstring has length {psi.shape[-1] if psi.ndim else 0}, "
            f"polynomial expects {num_bits}"
        )
    halves, pairs = pubo._half_table
    flat = psi.reshape(math.prod(psi.shape[:-1]), num_bits)
    block = max(1, _BLOCK_FLOATS // max(len(halves), num_bits + 1))
    # column num_bits is the constant 1 that padding indices select
    ext = np.ones((min(block, len(flat)), num_bits + 1))
    energy = np.empty(len(flat))
    for start in range(0, len(flat), block):
        chunk = flat[start : start + block]
        view = ext[: len(chunk)]
        view[:, :num_bits] = chunk
        prods = view.take(halves[:, 0], axis=1)
        for c in range(1, halves.shape[1]):
            prods *= view.take(halves[:, c], axis=1)
        mixed = np.einsum("sh,hk->sk", prods, pairs)
        mixed *= prods
        energy[start : start + len(chunk)] = mixed.sum(axis=1)
    energy = pubo.offset + energy.reshape(psi.shape[:-1])
    return float(energy) if energy.ndim == 0 else energy


def qubo_energy(qm: QuboMatrix, bits) -> float | np.ndarray:
    """Evaluate a QUBO at a full bit vector (logical + aux), batched like psi.

    This is :func:`pubo_energy` of the PUBO view ``qm.pubo``, so a state's
    energy is the same bits alone as in any batch.
    """
    bits = np.asarray(bits)
    if bits.ndim == 0 or bits.shape[-1] != qm.num_bits:
        raise ValueError(
            f"bit vector has length {bits.shape[-1] if bits.ndim else 0}, "
            f"QUBO expects {qm.num_bits} (={qm.num_logical} logical + {qm.num_aux} aux)"
        )
    return pubo_energy(qm.pubo, bits)


def export_qubo(qm: QuboMatrix, path) -> None:
    """Write a QUBO as a diff-friendly text file.

    One header line carrying the offset, logical bit count, and auxiliary
    count, followed by one ``i j value`` line per nonzero upper-triangular
    entry in row-major order.
    """
    with open(path, "w") as fh:
        fh.write(
            f"offset={qm.offset!r} logical={qm.num_logical} aux={qm.num_aux}\n"
        )
        rows, cols = np.nonzero(qm.matrix)
        for i, j in zip(rows.tolist(), cols.tolist()):
            fh.write(f"{i} {j} {float(qm.matrix[i, j])!r}\n")
