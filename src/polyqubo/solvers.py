"""Interchangeable solver backends for binary objectives and linear systems.

Three backends with one bookkeeping convention: energies always include the
objective's constant offset, so a reported energy is directly a residual sum
of squares.

* :func:`brute_force` — exact enumeration of every bitstring, the ground
  truth for anything small enough to enumerate.
* :func:`simulated_anneal` — single-flip Metropolis annealing, the software
  stand-in for annealing hardware.  Reads are independent trajectories with
  per-read generators seeded ``seed + read_index``, so chunked, parallel,
  and serial execution all produce the identical sample set.
* :func:`conjugate_gradient` — classical iterative reference for symmetric
  positive-definite linear systems.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .compiler import PseudoBooleanPolynomial, QuboMatrix, pubo_energy

__all__ = [
    "BruteForceResult",
    "SampleSet",
    "SampleRecord",
    "AnnealSchedule",
    "CgReport",
    "all_bitstrings",
    "brute_force",
    "simulated_anneal",
    "conjugate_gradient",
]

_CHUNK_BITS = 16  # enumerate at most 2**16 states per vectorized block


def all_bitstrings(num_bits: int) -> np.ndarray:
    """All bitstrings as a (2^L, L) uint8 matrix; row s has bit i = (s >> i) & 1."""
    if num_bits < 0 or num_bits > 20:
        raise ValueError(f"refusing to materialize 2^{num_bits} bitstrings at once")
    states = np.arange(1 << num_bits, dtype=np.int64)
    return ((states[:, None] >> np.arange(num_bits)) & 1).astype(np.uint8)


def _bits_of_ints(ints: np.ndarray, num_bits: int) -> np.ndarray:
    return ((ints[:, None] >> np.arange(num_bits)) & 1).astype(float)


@dataclass(frozen=True, eq=False)
class BruteForceResult:
    """Exact minimum of an enumerated objective."""

    bits: np.ndarray
    energy: float
    num_ground: int
    energies: np.ndarray | None = None

    def lowest(self, k: int) -> list[tuple[float, np.ndarray]]:
        """The k lowest (energy, bits) pairs; requires spectrum=True."""
        if self.energies is None:
            raise ValueError("spectrum was not recorded; rerun with spectrum=True")
        order = np.argsort(self.energies, kind="stable")[:k]
        num_bits = len(self.bits)
        return [
            (float(self.energies[s]), _bits_of_ints(np.array([s]), num_bits)[0].astype(np.uint8))
            for s in order
        ]


def brute_force(
    objective: PseudoBooleanPolynomial | QuboMatrix,
    max_bits: int = 24,
    spectrum: bool = False,
) -> BruteForceResult:
    """Exact search over every bitstring of a PUBO or QUBO objective.

    Deterministic: ties resolve to the lowest state integer (bit i of the
    integer is bit i of the string).  With ``spectrum=True`` the full energy
    array indexed by state integer is returned as well.
    """
    num_bits = objective.num_bits
    if num_bits > max_bits:
        raise ValueError(
            f"objective has {num_bits} bits; 2^{num_bits} = {2**num_bits:.3e} "
            f"states exceeds the enumeration limit of {max_bits} bits"
        )
    is_qubo = isinstance(objective, QuboMatrix)
    total = 1 << num_bits
    chunk = min(total, 1 << _CHUNK_BITS)
    best_energy = np.inf
    best_state = 0
    num_ground = 0
    full = np.empty(total) if spectrum else None
    for start in range(0, total, chunk):
        ints = np.arange(start, min(start + chunk, total), dtype=np.int64)
        bits = _bits_of_ints(ints, num_bits)
        if is_qubo:
            energies = np.sum((bits @ objective.matrix) * bits, axis=1) + objective.offset
        else:
            energies = pubo_energy(objective, bits)
        if spectrum:
            full[start : start + len(ints)] = energies
        lo = float(energies.min())
        if lo < best_energy:
            best_energy = lo
            best_state = int(ints[int(np.argmax(energies == lo))])
            num_ground = int(np.count_nonzero(energies == lo))
        elif lo == best_energy:
            num_ground += int(np.count_nonzero(energies == lo))
    ground_bits = _bits_of_ints(np.array([best_state]), num_bits)[0].astype(np.uint8)
    return BruteForceResult(ground_bits, best_energy, num_ground, full)


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

    def to_json(self) -> str:
        doc = {
            "total_reads": self.total_reads,
            "rng_seed": self.rng_seed,
            "records": [
                {"bits": "".join(map(str, r.bits)), "energy": r.energy, "count": r.count}
                for r in self.records
            ],
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "SampleSet":
        doc = json.loads(text)
        records = tuple(
            SampleRecord(tuple(int(ch) for ch in r["bits"]), r["energy"], r["count"])
            for r in doc["records"]
        )
        return cls(records, doc["total_reads"], doc["rng_seed"])


@dataclass(frozen=True)
class AnnealSchedule:
    """Geometric temperature ladder.

    Endpoints default to values derived from the objective: hot enough that
    any single flip is plausible (max |coefficient| times the bit count),
    cold enough to freeze the smallest coupling (1e-3 times the smallest
    nonzero |coefficient|).
    """

    t_hot: float | None = None
    t_cold: float | None = None

    def resolve(self, qm: QuboMatrix) -> tuple[float, float]:
        mags = np.abs(qm.matrix[qm.matrix != 0])
        if mags.size == 0:
            return (1.0, 1e-3)
        t_hot = self.t_hot if self.t_hot is not None else float(mags.max()) * qm.num_bits
        t_cold = self.t_cold if self.t_cold is not None else 1e-3 * float(mags.min())
        if not (t_hot > 0 and t_cold > 0 and t_hot >= t_cold):
            raise ValueError(f"bad temperature ladder: t_hot={t_hot!r}, t_cold={t_cold!r}")
        return (t_hot, t_cold)

    def temperatures(self, qm: QuboMatrix, sweeps: int) -> np.ndarray:
        t_hot, t_cold = self.resolve(qm)
        if sweeps == 1:
            return np.array([t_hot])
        return t_hot * (t_cold / t_hot) ** (np.arange(sweeps) / (sweeps - 1))


def simulated_anneal(
    qm: QuboMatrix,
    reads: int = 1000,
    sweeps: int = 1000,
    seed: int = 0,
    schedule: AnnealSchedule | None = None,
    read_chunk: int = 512,
) -> SampleSet:
    """Sample a QUBO with independent single-flip Metropolis trajectories.

    Read r draws its randomness from ``default_rng(seed + r)`` — first the
    initial state, then one uniform per flip proposal in sweep-major, bit-
    ascending order — so results are bit-reproducible and independent of
    chunking.  Each read contributes its final state.
    """
    if reads < 1 or sweeps < 1:
        raise ValueError(f"reads and sweeps must be >= 1, got {reads}, {sweeps}")
    schedule = schedule or AnnealSchedule()
    temps = schedule.temperatures(qm, sweeps)
    n = qm.num_bits
    coupling = qm.matrix + qm.matrix.T
    np.fill_diagonal(coupling, 0.0)
    diag = np.diag(qm.matrix).copy()

    tally: dict[bytes, list] = {}
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
        energies = np.sum((states @ qm.matrix) * states, axis=1) + qm.offset
        keys = np.packbits(states.astype(np.uint8), axis=1)
        for r in range(size):
            key = keys[r].tobytes()
            entry = tally.get(key)
            if entry is None:
                tally[key] = [tuple(int(b) for b in states[r]), float(energies[r]), 1]
            else:
                entry[2] += 1

    records = tuple(
        SampleRecord(bits, energy, count)
        for bits, energy, count in sorted(tally.values(), key=lambda e: (e[1], e[0]))
    )
    return SampleSet(records, total_reads=reads, rng_seed=seed)


@dataclass(frozen=True, eq=False)
class CgReport:
    """Conjugate-gradient outcome for a symmetric positive-definite solve."""

    solution: np.ndarray
    iterations: int
    relative_residual: float
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
