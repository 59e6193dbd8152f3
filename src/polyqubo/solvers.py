"""Interchangeable solver backends for binary objectives and linear systems.

Three backends with one bookkeeping convention: energies always include the
objective's constant offset, so a reported energy is directly a residual sum
of squares.

* :func:`brute_force` — exact enumeration of every bitstring, the ground
  truth for objectives of at most ``_ENUMERATION_LIMIT`` = 24 bits.  A QUBO
  is enumerated as its PUBO view.  Each term is a bit mask split into a low
  and a high half; each block of high-half states is scored against every
  low-half state by one matrix product, offset left out.  The high-half
  states are sorted by a lower bound on their energies, rounding included,
  and blocks of the sorted table are scored until one's first bound exceeds
  the least minimum so far; the states left hold none that ties it.  Only
  the blocks that tie the least minimum are scored again.  The winner is the
  lowest state integer among the exact ties, counted in ``num_ground``.
* :func:`simulated_anneal` — single-flip Metropolis annealing, the software
  stand-in for annealing hardware.  Reads are independent trajectories with
  per-read generators seeded ``seed + read_index``, so chunked, parallel,
  and serial execution all produce the identical sample set.  A sweep visits
  the bits in ascending order, but steps through each maximal run of
  consecutive, mutually uncoupled bits at once: flipping one bit of a run
  leaves the others' fields unchanged, so the samples are exactly those of
  one step per bit, with far fewer numpy calls on quadratized objectives,
  whose auxiliaries rarely couple to their neighbours.  A sweep is skipped
  if it runs no hotter than a sweep in which every acceptance probability
  was below 2^-54 and no uniform was 0.0, with only skipped sweeps between
  them, and none of its own uniforms is 0.0.  numpy's uniforms are
  multiples of 2^-53, so such a probability accepts none of them: the
  earlier sweep flipped nothing, the skipped one sees the same fields and
  the same Δ > 0, and its temperature, no higher, keeps each probability
  below its uniforms.  Skipping it changes no sample.  Every uniform is
  still drawn, in blocks of sweeps, so which sweeps run does not depend on
  the blocks.
* :func:`conjugate_gradient` — classical iterative reference for symmetric
  positive-definite linear systems.

:func:`solve` is the one place that takes a system to its decoded point: it
picks ``"brute"``, ``"anneal"`` or ``"cg"`` by name, and knows what each reports.
Its ``"brute"`` enumerates the compiled PUBO, so the one bit limit counts the
encoding's logical bits; only the annealer needs a quadratization.  Its
``"cg"`` refuses a fit whose residual certifies no digit of it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .compiler import (
    _BLOCK_FLOATS,
    PseudoBooleanPolynomial,
    QuboMatrix,
    compile_pubo,
    pubo_energy,
    quadratize,
    qubo_energy,
)
from .encoding import BitEncoding, decode
from .polysys import PolynomialSystem

__all__ = [
    "BruteForceResult",
    "SampleSet",
    "SampleRecord",
    "AnnealSchedule",
    "CgReport",
    "SolveResult",
    "SolverError",
    "check_enumerable",
    "brute_force",
    "simulated_anneal",
    "conjugate_gradient",
    "solve",
]

_ENUMERATION_LIMIT = 24  # brute_force enumerates objectives of at most this many bits
_READ_CHUNK = 512  # reads annealed together as one batch of states
_UNIFORM_FLOATS = 1 << 18  # uniforms held per read chunk, drawn in blocks of sweeps


@dataclass(frozen=True, eq=False)
class BruteForceResult:
    """Exact minimum of an enumerated objective."""

    bits: np.ndarray
    energy: float
    num_ground: int


def check_enumerable(num_bits: int) -> None:
    """Raise ``ValueError`` if :func:`brute_force` cannot enumerate ``num_bits`` bits."""
    if num_bits > _ENUMERATION_LIMIT:
        raise ValueError(
            f"objective has {num_bits} bits; its 2^{num_bits} states exceed "
            f"the enumeration limit of {_ENUMERATION_LIMIT} bits"
        )


def _row_bounds(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """A lower bound on every energy, less the offset, that each high-half row scores.

    Row h of ``[C | e_hi] @ [R ; 1]`` sums K terms, ``C[h, k] * R[k, l]``
    and ``e_hi[h]``; C is 0/1, so each is at least ``m_k = min_l R[k, l]``
    and their sum at least ``C[h] @ m + e_hi[h]``.  Summed in any order,
    the product and this bound each round by at most ``K eps`` (``eps`` =
    2^-52) times the sum of the terms' magnitudes, at most ``S[h] = C[h] @
    max_l |R[k, l]| + |e_hi[h]|``.  A margin of ``4 (K + 1) eps S[h]`` comes
    off the bound, which covers both and the rounding of the margin itself.
    """
    least, most = right[:-1].min(axis=1), right[:-1].max(axis=1)
    weights = np.zeros((left.shape[1], 2))
    weights[:-1, 0], weights[-1, 0] = least, 1.0
    weights[:-1, 1] = np.maximum(most, -least)
    sums = left @ weights
    margin = 4 * (left.shape[1] + 1) * np.finfo(float).eps * (sums[:, 1] + np.abs(left[:, -1]))
    return sums[:, 0] - margin


def brute_force(objective: PseudoBooleanPolynomial | QuboMatrix) -> BruteForceResult:
    """Exact search over every bitstring of a PUBO or QUBO objective.

    A QUBO is searched as its PUBO view.  State ``s = (h << lo) | l`` splits
    at ``lo = n // 2``, and so does each term's bit mask, into ``low`` and
    ``high``: the term's product on s is ``[l & low == low] [h & high == high]``.
    Terms with no low bit sum into ``e_hi`` over the high states.  The others
    fill one row of M per distinct ``high`` (row 0 for mask 0, the low-only
    terms), and subset sums turn M into ``R[k, l]``, the summed coefficients
    of row k's terms on low state l, and one-hot rows into ``C[h, k] =
    [h & high_k == high_k]``.  A block of ``rows`` high rows, about
    ``_BLOCK_FLOATS`` states, scores as the one product

        [C[block] | e_hi[block]] @ [R ; 1]

    into a reused buffer, and only its minimum is kept.  With more than one
    block, the high rows are first sorted by :func:`_row_bounds`, which lies
    below every value the product gives in the row, and blocks of the sorted
    table are scored in turn, until one's first row has a bound above the
    least minimum so far: its rows and all later ones hold no state below or
    equal to it, so no tie, while every row whose bound is at or below the
    final least is scored.  Every product has the same shape: if ``rows``
    does not divide the high rows, the sorted table is padded with copies of
    its last row, which no minimum or tie count reads.  An objective of at
    most 15 bits is one block, in natural order, and needs no bound.  The
    blocks that tie the least minimum are scored again: ``num_ground`` counts
    their states that tie it exactly, and the winner is the lowest state
    integer among them (bit i of the integer is bit i of the string).  The
    offset stays out of the product, so where the coefficients sum exactly
    (integers, say) the energies and their ties are those of a direct
    evaluation, whatever the offset.  The reported energy is
    :func:`pubo_energy` of the winner alone, as the annealer evaluates its
    records, so it does not depend on the block around it.
    """
    num_bits = objective.num_bits
    check_enumerable(num_bits)
    pubo = objective.pubo if isinstance(objective, QuboMatrix) else objective
    lo, hi = num_bits // 2, num_bits - num_bits // 2
    masks = np.bitwise_or.reduce(np.where(pubo.rows < num_bits, 1 << pubo.rows, 0), axis=1)
    low, high = masks & ((1 << lo) - 1), masks >> lo
    pure_hi = low == 0
    highs, which = np.unique(np.r_[0, high[~pure_hi]], return_inverse=True)
    # [C | e_hi] and R^T, state-major, by the states' masks, before the subset
    # sums; distinct terms have distinct masks, so each cell gets one coefficient
    left, low_sums = np.zeros((1 << hi, len(highs) + 1)), np.zeros((1 << lo, len(highs)))
    left[highs, np.arange(len(highs))] = 1.0
    left[high[pure_hi], -1] = pubo.coeffs[pure_hi]
    low_sums[low[~pure_hi], which[1:]] = pubo.coeffs[~pure_hi]
    # subset sums over the states: each entry without bit b adds to the one with it
    for table, width in ((left, hi), (low_sums, lo)):
        for b in range(width):
            pairs = table.reshape(-1, 2, table.shape[1] << b)
            pairs[:, 1] += pairs[:, 0]
    right = np.ones((len(highs) + 1, 1 << lo))  # [R ; 1], row-major for the product
    right[:-1] = low_sums.T
    rows = min(max(1, _BLOCK_FLOATS >> lo), 1 << hi)
    starts = range(0, 1 << hi, rows)
    order, bounds = np.arange(1 << hi), np.full(1 << hi, -np.inf)
    if len(starts) > 1:  # best first, padded to whole blocks with the last row
        bounds = _row_bounds(left, right)
        order = np.argsort(bounds, kind="stable")
        left = left.take(order.take(np.arange(len(starts) * rows), mode="clip"), axis=0)
    buf = np.empty((rows, 1 << lo))

    def score(start: int) -> np.ndarray:  # energies less the offset, one row per real row
        return np.matmul(left[start : start + rows], right, out=buf)[: len(order) - start]

    minima, least = np.full(len(starts), np.inf), np.inf
    for b, start in enumerate(starts):
        if bounds[order[start]] > least:
            break
        minima[b] = score(start).min()
        least = min(least, minima[b])
    best_state, num_ground = 1 << num_bits, 0
    for start in np.flatnonzero(minima == least) * rows:
        ties = score(start) == least
        tied = np.flatnonzero(ties.any(axis=1))
        row = tied[np.argmin(order[start + tied])]
        best_state = min(best_state, int(order[start + row]) << lo | int(np.argmax(ties[row])))
        num_ground += int(np.count_nonzero(ties))
    ground_bits = ((best_state >> np.arange(num_bits)) & 1).astype(np.uint8)
    return BruteForceResult(ground_bits, pubo_energy(pubo, ground_bits), num_ground)


@dataclass(frozen=True)
class SampleRecord:
    bits: tuple[int, ...]
    energy: float
    count: int


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Aggregated annealer output: distinct states with energies and counts."""

    records: tuple[SampleRecord, ...]
    total_reads: int
    rng_seed: int

    def __post_init__(self):
        if sum(r.count for r in self.records) != self.total_reads:
            raise ValueError("record counts do not sum to total_reads")

    @property
    def best(self) -> SampleRecord:
        return self.records[0]

    def ground_fraction(self) -> float:
        """Share of reads that landed on the lowest energy observed."""
        lowest = self.records[0].energy
        hits = sum(r.count for r in self.records if r.energy == lowest)
        return hits / self.total_reads


@dataclass(frozen=True)
class AnnealSchedule:
    """Geometric temperature ladder.

    Unset endpoints are derived from the objective: hot enough that any
    single flip is plausible (max |coefficient| times the bit count), cold
    enough to freeze the smallest coupling (1e-3 times the smallest nonzero
    |coefficient|), or 1 and 1e-3 for an all-zero objective.
    """

    t_hot: float | None = None
    t_cold: float | None = None

    def resolve(self, qm: QuboMatrix) -> tuple[float, float]:
        mags = np.abs(qm.matrix[qm.matrix != 0])
        t_hot, t_cold = self.t_hot, self.t_cold
        if t_hot is None:
            t_hot = float(mags.max()) * qm.num_bits if mags.size else 1.0
        if t_cold is None:
            t_cold = 1e-3 * float(mags.min()) if mags.size else 1e-3
        if not 0 < t_cold <= t_hot < np.inf:
            raise ValueError(f"bad temperature ladder: t_hot={t_hot}, t_cold={t_cold}")
        return (t_hot, t_cold)

    def temperatures(self, qm: QuboMatrix, sweeps: int) -> np.ndarray:
        t_hot, t_cold = self.resolve(qm)
        if sweeps == 1:
            return np.array([t_hot])
        return t_hot * (t_cold / t_hot) ** (np.arange(sweeps) / (sweeps - 1))


def _uncoupled_runs(coupling: np.ndarray) -> list[tuple[int, int]]:
    """Split 0..n-1 into maximal runs [a, b) of consecutive, mutually uncoupled bits."""
    n = len(coupling)
    # latest[w]: the highest bit u < w with coupling[u, w] != 0, else -1
    latest = np.where(np.triu(coupling != 0, 1), np.arange(n)[:, None], -1).max(
        axis=0, initial=-1
    )
    runs, a = [], 0
    for w in range(1, n):
        if latest[w] >= a:
            runs.append((a, w))
            a = w
    if n:
        runs.append((a, n))
    return runs


def _run_fields(states: np.ndarray, columns: np.ndarray, run: int | slice) -> np.ndarray:
    """Coupling fields of the bits ``run`` indexes, shaped like ``states[:, run]``.

    One stacked matmul whose item v is the gemv ``states @ coupling[:, v]``
    over the same strided column, so each field has the bits of that gemv.
    """
    return np.matmul(states, columns[run, :, None])[..., 0].T


def simulated_anneal(
    qm: QuboMatrix,
    reads: int = 1000,
    sweeps: int = 1000,
    seed: int = 0,
    schedule: AnnealSchedule | None = None,
) -> SampleSet:
    """Sample a QUBO with independent single-flip Metropolis trajectories.

    Read r draws its randomness from ``default_rng(seed + r)`` — first the
    initial state, then one uniform per flip proposal, in sweep-major, bit-
    ascending order, for every sweep of the ladder — so results are bit-
    reproducible and independent of how the reads are batched.  Reads are
    annealed in chunks of ``_READ_CHUNK``, and the uniforms are drawn into
    blocks of sweeps holding at most ``_UNIFORM_FLOATS`` per chunk, which
    leaves the stream unchanged.  Each read contributes its final state; one
    :func:`qubo_energy` call scores the distinct states, each with the
    energy it has alone.

    A sweep is skipped if no sweep has run since a frozen one, it runs no
    hotter than that one, and none of its uniforms is 0.0.  A sweep that
    runs is frozen if every one of its steps gave every read an acceptance
    probability ``p = exp(min(-Δ/t, 0))`` below 2^-54 and none of its
    uniforms is 0.0.  This is exact: ``Generator.random`` returns multiples
    of 2^-53, so each of those uniforms is at least 2^-53, and the frozen
    sweep flipped nothing.  A skipped sweep, had it run, would take its
    fields from the same gemvs over the same states, with the same bits, as
    each Δ, which is > 0; and at ``t' <= t``, ``-Δ/t' <= -Δ/t``, so a p below
    2^-54 stays below 2^-53, a factor of two that covers the rounding of
    ``exp``.  So it would flip nothing either, and by induction neither would
    any skipped sweep after it.  A hotter sweep, or one that holds a 0.0,
    runs and is frozen or not by the same test.  Every uniform is drawn,
    skipped sweep or not, so the sweeps run, like the samples, do not depend
    on how the uniforms are split into blocks.

    The bits split once into maximal runs of consecutive bits with zero
    coupling among them, and each sweep makes one vectorised Metropolis step
    per run.  This is exactly the per-bit schedule: within a run, flipping
    bit v adds ``coupling[v, w] * x = 0`` to bit w's field either way, and
    each field comes from the same gemv as ``states @ coupling[:, v]`` (see
    :func:`_run_fields`), so every flip decision and every random draw is
    the one a step per bit would make.  A run of one bit steps on 1-d
    arrays, as a step per bit does.

    Overflow is ignored for the whole call: a subnormal ``t`` can overflow
    ``-Δ/t`` to ±inf, and the probability that gives, 0 or 1, is the exact one.
    """
    if reads < 1 or sweeps < 1:
        raise ValueError(f"reads and sweeps must be >= 1, got {reads}, {sweeps}")
    if seed < 0:  # read r is seeded seed + r, and numpy's seeds are >= 0
        raise ValueError(f"seed must be >= 0, got {seed}")
    schedule = schedule or AnnealSchedule()
    temps = schedule.temperatures(qm, sweeps)
    n = qm.num_bits
    coupling = qm.matrix + qm.matrix.T
    np.fill_diagonal(coupling, 0.0)
    diag = np.diag(qm.matrix).copy()
    columns = coupling.T  # columns[v] is coupling[:, v], same strides
    # a lone bit indexes as an int: 1-d steps cost less than (reads, 1) ones
    runs = [a if b == a + 1 else slice(a, b) for a, b in _uncoupled_runs(coupling)]

    tally: Counter[bytes] = Counter()  # packed final states, in first-seen order
    with np.errstate(over="ignore"):
        for start in range(0, reads, _READ_CHUNK):
            size = min(_READ_CHUNK, reads - start)
            rngs = [np.random.default_rng(seed + start + r) for r in range(size)]
            states = np.empty((size, n))
            for r, rng in enumerate(rngs):
                states[r] = rng.integers(0, 2, size=n)
            block = max(1, _UNIFORM_FLOATS // max(1, size * n))
            uniforms = np.empty((size, min(block, sweeps), n))
            t_frozen = -np.inf  # a sweep this cold with no 0.0 uniform flips nothing
            for first in range(0, sweeps, block):
                span = min(block, sweeps - first)
                for r, rng in enumerate(rngs):
                    rng.random(out=uniforms[r, :span])
                for s in range(span):
                    t = temps[first + s]
                    if t <= t_frozen and uniforms[:, s].all():
                        continue
                    live = False  # some step of this sweep had a probability >= 2^-54
                    for run in runs:
                        fields = _run_fields(states, columns, run)
                        col = states[:, run]
                        delta = (1.0 - 2.0 * col) * (diag[run] + fields)
                        prob = np.exp(np.minimum(-delta / t, 0.0))
                        live = live or not (prob < 2.0**-54).all()
                        accept = uniforms[:, s, run] < prob
                        states[:, run] = np.where(accept, 1.0 - col, col)
                    t_frozen = t if not live and uniforms[:, s].all() else -np.inf
            tally.update(key.tobytes() for key in np.packbits(states.astype(np.uint8), axis=1))

    packed = np.frombuffer(b"".join(tally), np.uint8).reshape(len(tally), -1)
    finals = np.unpackbits(packed, axis=1, count=n)
    records = tuple(
        SampleRecord(bits, energy, count)
        for energy, bits, count in sorted(
            zip(qubo_energy(qm, finals).tolist(), map(tuple, finals.tolist()), tally.values())
        )
    )
    return SampleSet(records, total_reads=reads, rng_seed=seed)


@dataclass(frozen=True, eq=False)
class CgReport:
    """Conjugate-gradient outcome for an SPD solve; ``residual_norm_ratio`` is ||r|| / ||b||."""

    solution: np.ndarray
    iterations: int
    residual_norm_ratio: float
    converged: bool


def conjugate_gradient(
    p1, p0, tol: float = 1e-6, max_iter: int | None = None
) -> CgReport:
    """Solve ``p1 @ x + p0 = 0`` for symmetric positive-definite ``p1``.

    Terminates once the residual 2-norm relative to ||p0|| drops to ``tol``;
    the convergence check runs before each step, so a perfectly conditioned
    system finishes in one iteration.  Hitting ``max_iter`` (default 10 times
    the system size) returns the partial solution flagged unconverged.

    Raises ``ValueError`` when ``tol`` is not positive (NaN included),
    ``max_iter`` is negative, ``p1`` or ``p0`` holds a non-finite entry,
    ``p1`` is not symmetric (to a relative 1e-10 of its largest entry), a
    search direction p has curvature ``p @ p1 @ p <= 0``, which shows ``p1``
    is not positive definite, or ``||p0||``, a curvature, ``r @ r`` or the
    solution overflows.
    """
    p1 = np.asarray(p1, dtype=float)
    p0 = np.asarray(p0, dtype=float)
    if p1.ndim != 2 or p1.shape[0] != p1.shape[1] or p1.shape[0] != p0.shape[0]:
        raise ValueError(f"shape mismatch: matrix {p1.shape}, constant {p0.shape}")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    if max_iter is not None and max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter!r}")
    for name, array in (("p1", p1), ("p0", p0)):
        if not np.isfinite(array).all():
            raise ValueError(f"{name} has a non-finite entry")
    asymmetry = float(np.max(np.abs(p1 - p1.T), initial=0.0))
    if asymmetry > 1e-10 * float(np.max(np.abs(p1), initial=0.0)):
        raise ValueError(f"matrix is not symmetric (max |p1 - p1^T| = {asymmetry:.3e})")
    n = p0.shape[0]
    if max_iter is None:
        max_iter = 10 * n
    b = -p0
    x = np.zeros(n)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value is raised below
        b_norm = float(np.linalg.norm(b))
        if not math.isfinite(b_norm):
            raise ValueError(f"||p0|| = {b_norm!r} is not finite")
        if b_norm == 0.0:
            return CgReport(x, 0, 0.0, True)
        r = b.copy()
        p = r.copy()
        rs = float(r @ r)
        k = 0
        while k < max_iter and np.sqrt(rs) / b_norm > tol:
            ap = p1 @ p
            curvature = float(p @ ap)
            if not math.isfinite(curvature):
                raise ValueError(f"p @ p1 @ p = {curvature!r} is not finite at iteration {k}")
            if curvature <= 0.0:
                raise ValueError(
                    f"matrix is not positive definite: p @ p1 @ p = {curvature!r} "
                    f"at iteration {k}"
                )
            alpha = rs / curvature
            x = x + alpha * p
            r = r - alpha * ap
            rs_new = float(r @ r)
            if not math.isfinite(rs_new):
                raise ValueError(f"residual r @ r = {rs_new!r} is not finite at iteration {k}")
            p = r + (rs_new / rs) * p
            rs = rs_new
            k += 1
    if not np.isfinite(x).all():  # once x overflows it stays non-finite
        raise ValueError(f"solution x is not finite after {k} iterations")
    ratio = float(np.sqrt(rs) / b_norm)
    return CgReport(x, k, ratio, bool(ratio <= tol))


class SolverError(Exception):
    """A backend that ran but gave no answer, such as CG short of its tolerance."""


@dataclass(frozen=True, eq=False)
class SolveResult:
    """A :func:`solve` run's point ``x``, its winner's logical ``bits`` and ``energy``,
    and the report's ``solver`` and ``problem`` blocks; ``bits``, ``energy`` and
    ``problem`` are None for ``"cg"``."""

    x: np.ndarray
    bits: np.ndarray | None
    energy: float | None
    solver: dict
    problem: dict | None


def solve(
    system: PolynomialSystem,
    enc: BitEncoding | None,
    backend: str,
    *,
    reads: int = 1000,
    sweeps: int = 500,
    seed: int = 0,
    schedule: AnnealSchedule | None = None,
    aux: str = "lazy",
    penalty: float | None = None,
) -> SolveResult:
    """Solve ``system`` with the backend named ``"brute"``, ``"anneal"`` or ``"cg"``.

    ``"brute"`` runs :func:`brute_force` on :func:`compile_pubo` of ``system`` on
    ``enc``, so it enumerates the logical bits alone, and refuses an ``enc`` of
    more than 24 bits before compiling.  The winner is the lowest logical state
    integer among the exact ties of the PUBO energy, ``energy`` is
    :func:`pubo_energy` of it, and its solver block is ``{"backend": "brute",
    "num_ground"}``, the logical states that tie.  ``"anneal"`` runs
    :func:`simulated_anneal` on :func:`quadratize` (``aux``, ``penalty``) of that
    PUBO and reports ``{"backend": "anneal", "reads", "sweeps", "seed", "t_hot",
    "t_cold", "ground_fraction"}``, the ladder that ``schedule`` resolves on the
    QUBO.  Both decode the winner's logical bits.  Their problem block is
    ``{"bits", "auxiliaries", "penalty", "pubo_terms"}``: the QUBO an annealer
    faces.  Under ``"brute"`` a PUBO with a term of more than 4 bits has no
    QUBO, so ``auxiliaries`` and ``penalty`` are None, and an ``aux`` other
    than ``"lazy"`` or a ``penalty``, which only shape a QUBO, are refused.

    ``"cg"`` runs :func:`conjugate_gradient` (tol 1e-6) on a degree-1 system,
    ignores ``enc``, and reports ``{"backend": "cg", "iterations"}``.  It
    raises :class:`SolverError` if CG does not converge, or if the fit is not
    certified: ``cond(p1) * 1e-6 >= 1``, where the relative residual bound
    of 1e-6 leaves no bound below 1 on the fit's relative error.
    """
    if backend == "cg":
        if system.degree != 1:
            raise ValueError(f"backend 'cg' needs a degree-1 system, got degree {system.degree}")
        report = conjugate_gradient(system.coeffs[1], system.coeffs[0])
        if not report.converged:
            raise SolverError(
                f"conjugate gradient did not converge in {report.iterations} iterations "
                f"(residual norm ratio {report.residual_norm_ratio:.3e})"
            )
        cond = float(np.linalg.cond(system.coeffs[1]))
        if cond * 1e-6 >= 1:
            raise SolverError(
                f"cond(p1) = {cond:.3e} times tol 1e-6 is >= 1, so conjugate gradient's "
                "residual certifies no digit of the solution"
            )
        return SolveResult(report.solution, None, None,
                           {"backend": "cg", "iterations": report.iterations}, None)
    if backend not in ("brute", "anneal"):
        raise ValueError(f"unknown backend {backend!r}; use 'brute', 'anneal' or 'cg'")
    if enc is None:
        raise ValueError(f"backend {backend!r} needs an encoding, got None")
    if backend == "brute":  # the one bit limit: brute_force enumerates the logical bits
        check_enumerable(enc.num_bits)
    pubo = compile_pubo(system, enc)
    qm = None  # the QUBO of the problem block, where one exists
    if backend == "anneal" or pubo.max_term_size <= 4:
        qm = quadratize(pubo, penalty, aux)
    elif aux != "lazy" or penalty is not None:
        given = f"aux={aux!r}" if aux != "lazy" else f"penalty={penalty!r}"
        raise ValueError(f"{given} shapes a QUBO, and backend 'brute' builds none "
                         f"for a PUBO with terms of {pubo.max_term_size} bits")
    if backend == "brute":
        result = brute_force(pubo)
        bits, energy = result.bits, result.energy
        solver = {"backend": "brute", "num_ground": result.num_ground}
    else:
        schedule = schedule or AnnealSchedule()
        samples = simulated_anneal(qm, reads=reads, sweeps=sweeps, seed=seed, schedule=schedule)
        t_hot, t_cold = schedule.resolve(qm)
        solver = {
            "backend": "anneal", "reads": reads, "sweeps": sweeps, "seed": seed,
            "t_hot": t_hot, "t_cold": t_cold, "ground_fraction": samples.ground_fraction(),
        }
        bits = np.array(samples.best.bits[: enc.num_bits], dtype=np.uint8)
        energy = samples.best.energy
    problem = {"bits": enc.num_bits, "auxiliaries": None if qm is None else qm.num_aux,
               "penalty": None if qm is None else qm.penalty, "pubo_terms": len(pubo.coeffs)}
    return SolveResult(decode(enc, bits), bits, float(energy), solver, problem)
