"""Interchangeable solver backends for binary objectives and linear systems.

Three backends with one bookkeeping convention: energies always include the
objective's constant offset, so a reported energy is directly a residual sum
of squares.

* :func:`brute_force` — exact enumeration of every bitstring, the ground
  truth for objectives of at most ``_ENUMERATION_LIMIT`` = 24 bits.  A QUBO
  is enumerated as its PUBO view.  Each term is a bit mask split into a low
  and a high half; each block of high-half states is scored against every
  low-half state by one matrix product, offset left out, and only blocks
  that tie the least block minimum are scored again.  The winner is the
  lowest state integer among the exact ties, counted in ``num_ground``.
* :func:`simulated_anneal` — single-flip Metropolis annealing, the software
  stand-in for annealing hardware.  Reads are independent trajectories with
  per-read generators seeded ``seed + read_index``, so chunked, parallel,
  and serial execution all produce the identical sample set.  A sweep visits
  the bits in ascending order, but steps through each maximal run of
  consecutive, mutually uncoupled bits at once: flipping one bit of a run
  leaves the others' fields unchanged, so the samples are exactly those of
  one step per bit, with far fewer numpy calls on quadratized objectives,
  whose auxiliaries rarely couple to their neighbours.  A read chunk stops
  after the first sweep that no uniform it has left can flip, if no later
  sweep runs hotter: one in which every acceptance probability was 0.0, or,
  in the final block of uniforms when that block holds no 0.0, below 2^-54
  (numpy's uniforms are multiples of 2^-53, so such a probability accepts
  only 0.0).  Nothing flipped, so the next sweep sees the same fields and
  the same Δ > 0, and a temperature no higher keeps each probability below
  any uniform left.  No later sweep could flip a bit, so the samples are
  those of the full ladder.
* :func:`conjugate_gradient` — classical iterative reference for symmetric
  positive-definite linear systems.

:func:`solve` is the one place that picks ``"brute"`` or ``"anneal"`` by name,
and the one place that knows what each reports.
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
    pubo_energy,
    qubo_energy,
)

__all__ = [
    "BruteForceResult",
    "SampleSet",
    "SampleRecord",
    "AnnealSchedule",
    "CgReport",
    "check_enumerable",
    "brute_force",
    "simulated_anneal",
    "solve",
    "conjugate_gradient",
]

_ENUMERATION_LIMIT = 24  # brute_force enumerates objectives of at most this many bits
_READ_CHUNK = 512  # reads annealed together as one batch of states
_UNIFORM_FLOATS = 1 << 20  # uniforms held per read chunk, drawn in blocks of sweeps


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


def brute_force(objective: PseudoBooleanPolynomial | QuboMatrix) -> BruteForceResult:
    """Exact search over every bitstring of a PUBO or QUBO objective.

    A QUBO is searched as its PUBO view.  State ``s = (h << lo) | l`` splits
    at ``lo = n // 2``, and so does each term's bit mask, into ``low`` and
    ``high``: the term's product on s is ``[l & low == low] [h & high == high]``.
    Terms with no low bit sum into ``e_hi`` over the high states.  The others
    fill one row of M per distinct ``high`` (row 0 for mask 0, the low-only
    terms), and subset sums turn M into ``R[k, l]``, the summed coefficients
    of row k's terms on low state l, and one-hot rows into ``C[h, k] =
    [h & high_k == high_k]``.  A block of about ``_BLOCK_FLOATS`` states,
    high-major, scores as the one product

        [C[block] | e_hi[block]] @ [R ; 1]

    into a reused buffer, and only its minimum is kept.  The blocks that tie
    the least minimum are scored again: the first holds the winner, the
    lowest state integer (bit i of the integer is bit i of the string), and
    ``num_ground`` counts their states that tie it exactly.  The offset stays
    out of the product, so where the coefficients sum exactly (integers, say)
    the energies and their ties are those of a direct evaluation, whatever
    the offset.  The reported energy is :func:`pubo_energy` of the winner
    alone, as the annealer evaluates its records, so it does not depend on
    the block around it.
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
    blocks = [left[start : start + rows] for start in range(0, 1 << hi, rows)]
    buf = np.empty((rows, 1 << lo))

    def score(block: np.ndarray) -> np.ndarray:  # the block's energies less the offset
        return np.matmul(block, right, out=buf[: len(block)]).ravel()

    minima = np.array([score(block).min() for block in blocks])
    best_state, num_ground = 0, 0
    for b in np.flatnonzero(minima == minima.min()):
        ties = score(blocks[b]) == minima[b]
        if not num_ground:
            best_state = (int(b) * rows << lo) + int(np.argmax(ties))
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
            raise ValueError(f"bad temperature ladder: t_hot={t_hot!r}, t_cold={t_cold!r}")
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
    ascending order, for every sweep that runs — so results are bit-
    reproducible and independent of how the reads are batched.  Reads are
    annealed in chunks of ``_READ_CHUNK``, and the uniforms are drawn into
    blocks of sweeps holding at most ``_UNIFORM_FLOATS`` per chunk, which
    leaves the stream unchanged.  Each read contributes its final state; one
    :func:`qubo_energy` call scores the distinct states, each with the
    energy it has alone.

    A chunk stops after sweep s if every step of s gave every read an
    acceptance probability ``p = exp(min(-Δ/t, 0))`` below a floor and no
    later temperature exceeds ``t``.  The floor is 2^-54 in the chunk's
    final block of uniforms if that block holds no 0.0 (one scan per
    chunk), and otherwise the least positive float, so that only p = 0.0
    is below it.  This is exact: ``Generator.random`` returns multiples of
    2^-53, so a uniform that is not 0.0 is at least 2^-53, and a uniform in
    [0, 1) is never below 0.0; so s flipped nothing.  The next sweep's
    fields then come from the same gemvs over the same states and have the
    same bits, as has each Δ, which is > 0; and for ``t' <= t``,
    ``-Δ/t' <= -Δ/t``, so a p that underflowed to 0.0 stays 0.0, and one
    below 2^-54 stays below 2^-53, a factor of two that covers the rounding
    of ``exp``.  By induction no later sweep flips a bit, and the uniforms
    it would read are never used.
    A NaN probability is not below the floor, so it never stops a chunk.

    The bits split once into maximal runs of consecutive bits with zero
    coupling among them, and each sweep makes one vectorised Metropolis step
    per run.  This is exactly the per-bit schedule: within a run, flipping
    bit v adds ``coupling[v, w] * x = 0`` to bit w's field either way, and
    each field comes from the same gemv as ``states @ coupling[:, v]`` (see
    :func:`_run_fields`), so every flip decision and every random draw is
    the one a step per bit would make.  A run of one bit steps on 1-d
    arrays, as a step per bit does.
    """
    if reads < 1 or sweeps < 1:
        raise ValueError(f"reads and sweeps must be >= 1, got {reads}, {sweeps}")
    schedule = schedule or AnnealSchedule()
    temps = schedule.temperatures(qm, sweeps)
    n = qm.num_bits
    coupling = qm.matrix + qm.matrix.T
    np.fill_diagonal(coupling, 0.0)
    diag = np.diag(qm.matrix).copy()
    columns = coupling.T  # columns[v] is coupling[:, v], same strides
    # a lone bit indexes as an int: 1-d steps cost less than (reads, 1) ones
    runs = [a if b == a + 1 else slice(a, b) for a, b in _uncoupled_runs(coupling)]

    # coolest[s]: no later sweep runs hotter, so a frozen sweep s ends the chunk
    coolest = temps >= np.append(np.maximum.accumulate(temps[::-1])[-2::-1], -np.inf)

    tally: Counter[bytes] = Counter()  # packed final states, in first-seen order
    for start in range(0, reads, _READ_CHUNK):
        size = min(_READ_CHUNK, reads - start)
        rngs = [np.random.default_rng(seed + start + r) for r in range(size)]
        states = np.empty((size, n))
        for r, rng in enumerate(rngs):
            states[r] = rng.integers(0, 2, size=n)
        block = max(1, _UNIFORM_FLOATS // max(1, size * n))
        uniforms = np.empty((size, min(block, sweeps), n))
        for first in range(0, sweeps, block):
            span = min(block, sweeps - first)
            for r, rng in enumerate(rngs):
                rng.random(out=uniforms[r, :span])
            # a probability below `floor` accepts no uniform the chunk has left.
            # Only 0.0 is below math.ulp(0.0), the least positive float.  With
            # no 0.0 in the final block every uniform left is >= 2^-53, and
            # 2^-54 leaves a factor of two for the rounding of exp
            floor = math.ulp(0.0)
            if first + span == sweeps and uniforms[:, :span].all():
                floor = 2.0**-54
            for s in range(span):
                t = temps[first + s]
                live = False  # some step of this sweep had a probability >= floor (or NaN)
                for run in runs:
                    fields = _run_fields(states, columns, run)
                    col = states[:, run]
                    delta = (1.0 - 2.0 * col) * (diag[run] + fields)
                    prob = np.exp(np.minimum(-delta / t, 0.0))
                    live = live or not (prob < floor).all()
                    accept = uniforms[:, s, run] < prob
                    states[:, run] = np.where(accept, 1.0 - col, col)
                frozen = not live and coolest[first + s]
                if frozen:
                    break
            if frozen:
                break
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


def solve(
    qm: QuboMatrix,
    backend: str,
    *,
    reads: int = 1000,
    sweeps: int = 500,
    seed: int = 0,
    schedule: AnnealSchedule | None = None,
) -> tuple[np.ndarray, float, dict]:
    """Minimize a QUBO with the backend named ``"brute"`` or ``"anneal"``.

    Returns the winning bits (uint8), their energy and the report's solver
    block: ``{"backend": "brute", "num_ground"}`` for enumeration, or
    ``{"backend": "anneal", "reads", "sweeps", "seed", "t_hot", "t_cold",
    "ground_fraction"}`` with the ladder ``schedule`` resolves on ``qm``.
    The keyword arguments go to :func:`simulated_anneal`; enumeration
    ignores them.
    """
    if backend == "brute":
        result = brute_force(qm)
        return result.bits, result.energy, {"backend": "brute", "num_ground": result.num_ground}
    if backend == "anneal":
        schedule = schedule or AnnealSchedule()
        samples = simulated_anneal(qm, reads=reads, sweeps=sweeps, seed=seed, schedule=schedule)
        t_hot, t_cold = schedule.resolve(qm)
        solver = {
            "backend": "anneal", "reads": reads, "sweeps": sweeps, "seed": seed,
            "t_hot": t_hot, "t_cold": t_cold, "ground_fraction": samples.ground_fraction(),
        }
        return np.array(samples.best.bits, dtype=np.uint8), samples.best.energy, solver
    raise ValueError(f"unknown backend {backend!r}; use 'brute' or 'anneal'")


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

    Raises ``ValueError`` when ``p1`` is not symmetric (to a relative 1e-10
    of its largest entry), or when a search direction p has curvature
    ``p @ p1 @ p <= 0``, which shows ``p1`` is not positive definite.
    """
    p1 = np.asarray(p1, dtype=float)
    p0 = np.asarray(p0, dtype=float)
    if p1.ndim != 2 or p1.shape[0] != p1.shape[1] or p1.shape[0] != p0.shape[0]:
        raise ValueError(f"shape mismatch: matrix {p1.shape}, constant {p0.shape}")
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    asymmetry = float(np.max(np.abs(p1 - p1.T), initial=0.0))
    if asymmetry > 1e-10 * float(np.max(np.abs(p1), initial=0.0)):
        raise ValueError(f"matrix is not symmetric (max |p1 - p1^T| = {asymmetry:.3e})")
    n = p0.shape[0]
    if max_iter is None:
        max_iter = 10 * n
    b = -p0
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return CgReport(np.zeros(n), 0, 0.0, True)
    x = np.zeros(n)
    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
    for k in range(max_iter):
        if np.sqrt(rs) / b_norm <= tol:
            return CgReport(x, k, float(np.sqrt(rs) / b_norm), True)
        ap = p1 @ p
        curvature = float(p @ ap)
        if curvature <= 0.0:
            raise ValueError(
                f"matrix is not positive definite: p @ p1 @ p = {curvature!r} "
                f"at iteration {k}"
            )
        alpha = rs / curvature
        x = x + alpha * p
        r = r - alpha * ap
        rs_new = float(r @ r)
        p = r + (rs_new / rs) * p
        rs = rs_new
    converged = np.sqrt(rs) / b_norm <= tol
    return CgReport(x, max_iter, float(np.sqrt(rs) / b_norm), bool(converged))
