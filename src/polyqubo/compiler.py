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
the Gram matrix of their coefficients.  The grouping, and the halves of each
set it yields, depend only on the bit count and the degree, so they are
planned once per such pair and kept (:func:`_index_plan`); each call does
only the coefficient arithmetic over the plan.  :func:`sparsify` groups raw
terms the same way.  :func:`quadratize` maps every term and penalty entry to
a flat matrix cell and sums them with one ``np.bincount`` in term order, as a
loop would.  A QUBO is a PUBO of terms of at most two bits
(:attr:`QuboMatrix.pubo`), so :func:`pubo_energy` is the one evaluator of
both: a bilinear form over products of term halves, a table built on first
use by one scatter over the plan's or the matrix's halves (other polynomials
group theirs), which gives a state the same energy alone as in any batch.

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
        sizes = _set_sizes(self.rows, self.num_bits)
        names = [tuple(row[:k]) for row, k in zip(self.rows.tolist(), sizes.tolist())]
        return MappingProxyType(dict(zip(names, self.coeffs.tolist())))

    @cached_property
    def _half_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct term halves in use and the H x H matrix M of :func:`pubo_energy`;
        a :func:`compile_pubo` output brings its terms' halves (``_plan_halves``)."""
        # with no terms, one padding column keeps the half products defined
        rows = self.rows if self.rows.shape[1] else np.full((0, 1), self.num_bits)
        halves, left, right = vars(self).get("_plan_halves") or _group_halves(rows, self.num_bits)
        used = np.zeros(len(halves), dtype=bool)
        used[left] = used[right] = True
        position = np.cumsum(used) - 1
        pairs = np.zeros((int(used.sum()),) * 2)
        pairs[position[left], position[right]] = self.coeffs
        return halves[np.flatnonzero(used), : (rows.shape[1] + 1) // 2].astype(np.intp), pairs

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
        Row-major order, that of ``np.flatnonzero``, is tuple order.

        Its half table (see :func:`pubo_energy`) comes straight from the
        matrix: the halves are () if a diagonal entry is nonzero, then every
        used bit in ascending order, and M is the matrix on those bits with
        the diagonal moved to the () column."""
        n = self.num_bits
        flat = np.flatnonzero(self.matrix)
        i, j = np.divmod(flat, max(n, 1))
        second = np.where(i < j, j, n)
        rows = np.stack([i, second], axis=1)[:, : 2 if (i < j).any() else min(len(flat), 1)]
        pubo = PseudoBooleanPolynomial(rows, self.matrix.ravel().take(flat), self.offset, n)
        used = np.zeros(n + 1, dtype=bool)  # index n is ()
        used[i] = used[second] = True
        order = np.r_[n, :n]  # tuple order: () first
        halves = order[used[order]]
        position = np.zeros(n + 1, dtype=np.intp)
        position[halves] = np.arange(len(halves))
        pairs = np.zeros((len(halves), len(halves)))
        pairs[position[i], position[second]] = pubo.coeffs
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


def _set_sizes(rows: np.ndarray, num_bits: int) -> np.ndarray:
    """Bits per padded row: its entries other than ``num_bits``, one column at a time."""
    return sum((column != num_bits for column in rows.T), np.zeros(len(rows), dtype=np.intp))


def _group_halves(rows: np.ndarray, num_bits: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct halves of canonical padded sets, in tuple order, as ``(halves, left, right)``:
    row i of k bits is ``halves[left[i]]``, its first ceil(k/2) bits, then ``halves[right[i]]``."""
    first = np.arange(rows.shape[1]) < (_set_sizes(rows, num_bits)[:, None] + 1) // 2
    half = (rows.shape[1] + 1) // 2
    left = np.where(first, rows, num_bits)[:, :half]
    right = np.sort(np.where(first, num_bits, rows), axis=1)[:, :half]
    halves, inverse = _group_sets(np.concatenate([left, right]), num_bits)
    return halves, inverse[: len(rows)], inverse[len(rows) :]


def _collect(sets: np.ndarray, totals: np.ndarray, num_bits: int) -> PseudoBooleanPolynomial:
    """Polynomial of grouped sets: the empty one (first) is the offset, zeros go."""
    sizes = _set_sizes(sets, num_bits)
    keep = np.flatnonzero((totals != 0.0) & (sizes > 0))
    offset = float(totals[0]) if len(sizes) and not sizes[0] else 0.0
    width = int(sizes.take(keep).max(initial=0))
    return PseudoBooleanPolynomial(
        sets.take(keep, axis=0)[:, :width], totals.take(keep), offset, num_bits
    )


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

    plan = _index_plan(num_bits, system.degree)
    num_sets, inverse, left, right, unions, union_of, halves, lower, upper = plan
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
        weights[pair] = (residual.take(left[pair], 0) * residual.take(right[pair], 0)).sum(1)
    weights[left != right] *= 2.0
    totals = np.bincount(union_of, weights)
    pubo = _collect(unions, totals, num_bits)
    kept = np.flatnonzero(totals[1:]) + 1  # the terms' unions; union 0 is the empty set
    object.__setattr__(pubo, "_plan_halves", (halves, lower.take(kept), upper.take(kept)))
    return pubo


@lru_cache(maxsize=4)
def _index_plan(num_bits: int, degree: int) -> tuple:
    """The index work of :func:`compile_pubo`, which depends on nothing else.

    Returns ``(num_sets, inverse, left, right, unions, union_of, halves, lower,
    upper)``.  The z-index rows of orders 0..degree, padded to ``max(degree, 1)``
    columns, fall into ``num_sets`` canonical sets, row i into set ``inverse[i]``.
    ``(left, right)`` run over the upper triangle of set pairs, pair k's union is
    ``unions[union_of[k]]``, and union u's term halves are ``halves[lower[u]]``
    and ``halves[upper[u]]``.  The arrays are read-only and compact (:func:`_compact`).
    """
    width = max(degree, 1)
    rows = []
    for order in range(degree + 1):
        count = (num_bits + 1) ** order
        padded = np.full((count, width), num_bits)
        padded[:, :order] = np.indices((num_bits + 1,) * order).reshape(order, count).T
        rows.append(padded)
    sets, inverse = _group_sets(np.concatenate(rows), num_bits)
    left, right = np.triu_indices(len(sets))
    unions, union_of = _group_sets(np.hstack([sets[left], sets[right]]), num_bits)
    arrays = (inverse, left, right, unions, union_of, *_group_halves(unions, num_bits))
    return len(sets), *map(_compact, arrays)


def _compact(indices: np.ndarray) -> np.ndarray:
    """Read-only copy of non-negative integers in the narrowest unsigned dtype."""
    indices = indices.astype(np.min_scalar_type(indices.max(initial=0)))
    indices.flags.writeable = False
    return indices


def choose_penalty(pubo: PseudoBooleanPolynomial) -> float:
    """Auxiliary-consistency weight that safely dominates any single violation.

    Returns ``1 + 2 * sum(|coefficients|)``, summed in term order by a
    sequential ``np.cumsum``, as a loop of additions.  Breaking one constraint
    costs at least C, while no energy decrease in the objective reaches C.
    """
    with np.errstate(over="ignore"):  # quadratize refuses an infinite C by name
        return 1.0 + 2.0 * float(np.cumsum(np.abs(pubo.coeffs))[-1:].sum())


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

    side = n_log + 1  # cell i * side + j of an (L + 1)^2 table: pair (i, j), none if j = L
    rows = np.full((len(pubo.coeffs), 4), n_log)
    rows[:, : pubo.max_term_size] = pubo.rows
    sizes = _set_sizes(pubo.rows, n_log)
    first, second = rows[:, 0] * side + rows[:, 1], rows[:, 2] * side + rows[:, 3]
    if aux == "all":
        i, j = np.triu_indices(n_log, 1)
    else:  # the first pair of each cubic and quartic term, the second of each quartic
        substituted = np.zeros(side * side, dtype=bool)
        substituted[np.where(sizes >= 3, first, n_log)] = substituted[second] = True
        substituted[n_log::side] = False
        i, j = np.divmod(np.flatnonzero(substituted), side)  # ascending (i, j)
    num_aux = len(i)
    a = n_log + np.arange(num_aux)
    aux_of = np.zeros(side * side, dtype=np.intp)
    aux_of[i * side + j] = a
    c_pen = (choose_penalty(pubo) if penalty is None else float(penalty)) if num_aux else 0.0
    if not math.isfinite(c_pen):
        raise ValueError(f"chosen penalty {c_pen!r} is not finite; pass a finite penalty=")
    # each term is a product of two factors: bits, or auxiliaries for pairs
    left = np.where(sizes >= 3, aux_of.take(first), rows[:, 0])
    last = rows.ravel().take(4 * np.arange(len(sizes)) + sizes - 1)
    right = np.where(sizes == 4, aux_of.take(second), last)
    # flat cells of the terms, then of each pair's penalty (i, j), (i, a), (j, a), (a, a)
    size = n_log + num_aux
    cells = np.concatenate([
        np.minimum(left, right) * size + np.maximum(left, right),
        np.stack([i * size + j, i * size + a, j * size + a, a * size + a], axis=1).ravel(),
    ])
    values = np.concatenate([
        pubo.coeffs,
        np.tile([c_pen, -2.0 * c_pen, -2.0 * c_pen, 3.0 * c_pen], num_aux),
    ])
    # bincount adds every cell's contributions in sequence, as a loop would
    q = np.bincount(cells, values, minlength=size * size).reshape(size, size)
    aux_pairs = np.stack([i, j], axis=1).tolist()
    return QuboMatrix(q, pubo.offset, n_log, aux_pairs=aux_pairs, penalty=c_pen)


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
    first evaluation, from its plan's halves if :func:`compile_pubo` made it.
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
