"""Conditioned linear systems: generation, residual metrics, sweeps, refinement.

Test matrices are built as U diag(lambda) U^T from a seeded random orthogonal
U and eigenvalues evenly spaced from 1 up to the requested condition number,
so the spectrum is exactly controlled while the eigenvectors vary with the
seed.  The shared right-hand side is a vector of evenly spaced decimals from
1 down to -1.

Solution accuracy is judged by the relative residual

    ||P1 x + P0||^2 / ||P0||^2

which equals the QUBO ground-state energy over ||P0||^2 whenever the ground
state decodes to x and offsets are carried.

Three sweep kinds mirror the scaling studies (problem size, condition
number, search precision), and :func:`iterate_solve` drives the shrinking-
window refinement loop in which the grid spacing contracts geometrically
per iteration.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .compiler import compile_linear_qubo
from .encoding import BitEncoding, decode, from_range, nearest_bits, refine
from .polysys import PolynomialSystem
from .solvers import AnnealSchedule, SampleSet, conjugate_gradient, solve

__all__ = [
    "ConditionedSpec",
    "make_conditioned_matrix",
    "make_rhs",
    "relative_residual",
    "solution_range",
    "forward_error_minimum",
    "run_sweep",
    "sweep_to_csv",
    "IterationStep",
    "IterationTrace",
    "iterate_solve",
]

SWEEP_COLUMNS = (
    "param",
    "min_energy",
    "rel_residual",
    "hit_fraction",
    "forward_error_residual",
)


@dataclass(frozen=True)
class ConditionedSpec:
    """Recipe for one test matrix: size, condition number, seed."""

    size: int
    kappa: float
    seed: int = 0

    def __post_init__(self):
        if self.size < 1:
            raise ValueError(f"size must be >= 1, got {self.size}")
        if self.kappa < 1.0:
            raise ValueError(f"kappa must be >= 1, got {self.kappa!r}")


def make_conditioned_matrix(spec: ConditionedSpec) -> np.ndarray:
    """Symmetric positive-definite matrix with the prescribed spectrum.

    Eigenvalues are evenly spaced from 1 to kappa; eigenvectors come from the
    QR orthogonalization of a seeded Gaussian matrix.
    """
    if spec.size == 1:
        if spec.kappa != 1.0:
            raise ValueError("a 1x1 matrix has condition number 1; requested kappa > 1")
        return np.array([[1.0]])
    rng = np.random.default_rng(spec.seed)
    u, _ = np.linalg.qr(rng.standard_normal((spec.size, spec.size)))
    lam = np.linspace(1.0, spec.kappa, spec.size)
    a = (u * lam) @ u.T
    return (a + a.T) / 2.0


def make_rhs(n: int) -> np.ndarray:
    """Evenly spaced decimals from 1 down to -1 (length-1 case degenerates to 1)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n == 1:
        return np.array([1.0])
    return np.linspace(1.0, -1.0, n)


def relative_residual(p1, p0, x) -> float:
    """Squared residual norm over the squared constant norm."""
    p1 = np.asarray(p1, dtype=float)
    p0 = np.asarray(p0, dtype=float)
    x = np.asarray(x, dtype=float)
    denom = float(p0 @ p0)
    if denom == 0.0:
        raise ValueError("constant vector is zero; relative residual undefined")
    r = p1 @ x + p0
    return float(r @ r) / denom


def solution_range(p1, p0, tol: float = 1e-12) -> tuple[float, float]:
    """(min, max) over components of the reference solution, via CG."""
    report = conjugate_gradient(p1, p0, tol=tol)
    lo = float(report.solution.min())
    hi = float(report.solution.max())
    if hi - lo < 1e-12:
        lo, hi = lo - 0.5, hi + 0.5
    return lo, hi


def forward_error_minimum(p1, p0, enc: BitEncoding) -> tuple[np.ndarray, float]:
    """Grid point nearest the CG solution and its relative residual.

    This is the best the encoding could possibly do if grid rounding error
    were the only obstacle, a prediction that tracks the true optimum for
    well-conditioned systems only.
    """
    report = conjugate_gradient(p1, p0, tol=1e-12)
    point = decode(enc, nearest_bits(enc, report.solution))
    return point, relative_residual(p1, p0, point)


_SWEEP_DEFAULTS = {
    # per-kind fixed parameters; the swept one is ignored here
    "size": {"kappa": 1.1, "bits": 2},
    "condition": {"size": 12, "bits": 2},
    "precision": {"size": 4, "kappa": 1.1},
}


def run_sweep(
    kind: str,
    values,
    *,
    size: int | None = None,
    kappa: float | None = None,
    bits: int | None = None,
    backend: str = "brute",
    reads: int = 1000,
    sweeps: int = 500,
    seed: int = 0,
    schedule: AnnealSchedule | None = None,
) -> list[dict]:
    """Scaling study over problem size, condition number, or search precision.

    ``values`` is the list the swept parameter takes; the other two default
    to the standard settings for the kind (size sweep: kappa 1.1, 2 bits;
    condition sweep: 12 equations, 2 bits; precision sweep: 4 equations,
    kappa 1.1) and can be overridden.  The matrix seed is shared by all
    points, so a condition sweep varies the spectrum over identical
    eigenvectors and a precision sweep refines one fixed instance; the
    annealer seed is per point (base seed + index) so points stay
    independent when run concurrently; ``schedule`` is its temperature
    ladder.  Each point's search range spans exactly the min/max components
    of its reference solution.

    Returns one row per point with the columns in :data:`SWEEP_COLUMNS`.
    The forward-error prediction is reported for size and precision sweeps;
    for condition sweeps it is not a reliable proxy and is left blank.
    """
    if kind not in _SWEEP_DEFAULTS:
        raise ValueError(f"unknown sweep kind {kind!r}; use size, condition, or precision")
    fixed = dict(_SWEEP_DEFAULTS[kind])
    if size is not None:
        fixed["size"] = size
    if kappa is not None:
        fixed["kappa"] = kappa
    if bits is not None:
        fixed["bits"] = bits

    rows = []
    for index, value in enumerate(values):
        point = dict(fixed)
        point[{"size": "size", "condition": "kappa", "precision": "bits"}[kind]] = value
        n = int(point["size"])
        spec = ConditionedSpec(n, float(point["kappa"]), seed=seed)
        p1 = make_conditioned_matrix(spec)
        p0 = make_rhs(n)
        lo, hi = solution_range(p1, p0)
        enc = from_range(lo, hi, int(point["bits"]), num_vars=n)
        qm = compile_linear_qubo(PolynomialSystem([p0, p1]), enc)
        bits_won, energy, result = solve(
            qm, backend, reads=reads, sweeps=sweeps, seed=seed + index, schedule=schedule
        )
        x = decode(enc, bits_won[: enc.num_bits])
        row = {
            "param": value,
            "min_energy": float(energy),
            "rel_residual": relative_residual(p1, p0, x),
            "hit_fraction": (
                result.ground_fraction() if isinstance(result, SampleSet) else float("nan")
            ),
            "forward_error_residual": (
                forward_error_minimum(p1, p0, enc)[1] if kind != "condition" else float("nan")
            ),
        }
        rows.append(row)
    return rows


def sweep_to_csv(rows: list[dict], path) -> None:
    """Write sweep rows with the fixed column order; NaN cells are blank."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_COLUMNS)
        for row in rows:
            out = []
            for col in SWEEP_COLUMNS:
                v = row[col]
                blank = v is None or (isinstance(v, float) and np.isnan(v))
                out.append("" if blank else repr(v))
            writer.writerow(out)


@dataclass(frozen=True, eq=False)
class IterationStep:
    """One refinement iteration: window, winner, and its quality."""

    encoding: BitEncoding
    bits: np.ndarray
    x: np.ndarray
    rel_residual: float
    hit_fraction: float
    reads: int
    recentered: bool


@dataclass(frozen=True, eq=False)
class IterationTrace:
    steps: tuple[IterationStep, ...] = field(default=())

    @property
    def residuals(self) -> np.ndarray:
        return np.array([s.rel_residual for s in self.steps])

    @property
    def final(self) -> IterationStep:
        return self.steps[-1]

    def to_json(self) -> str:
        doc = [
            {
                "iteration": k,
                "lo": step.encoding.lo.tolist(),
                "hi": step.encoding.hi.tolist(),
                "bits": "".join(str(int(b)) for b in step.bits),
                "x": step.x.tolist(),
                "rel_residual": step.rel_residual,
                "hit_fraction": None if np.isnan(step.hit_fraction) else step.hit_fraction,
                "reads": step.reads,
                "recentered": step.recentered,
            }
            for k, step in enumerate(self.steps)
        ]
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def iterate_solve(
    p1,
    p0,
    bits: int,
    num_iters: int,
    backend: str = "brute",
    *,
    initial_lo: float | np.ndarray = -1.0,
    initial_hi: float | np.ndarray = 1.0,
    reads: int = 1000,
    sweeps: int = 500,
    seed: int = 0,
    schedule: AnnealSchedule | None = None,
    floor: float = 1e-14,
) -> IterationTrace:
    """Solve a linear system by repeatedly annealing and shrinking the window.

    Starts from the window [initial_lo, initial_hi], given as scalars for
    every component or as per-component vectors.  Each iteration compiles
    the system on the current grid, takes the best sampled state, records
    its relative residual, and re-grids one step either side of the winner.
    A winner sitting on the window boundary simply recenters the next window
    there (flagged in the trace, not an error).  Stops early once the
    residual drops below ``floor``.  ``schedule`` is the annealer's ladder.
    """
    p1 = np.asarray(p1, dtype=float)
    p0 = np.asarray(p0, dtype=float)
    n = p0.shape[0]
    system = PolynomialSystem([p0, p1])
    enc = from_range(initial_lo, initial_hi, bits, num_vars=n)
    steps = []
    for iteration in range(num_iters):
        qm = compile_linear_qubo(system, enc)
        bits_won, _, result = solve(
            qm, backend, reads=reads, sweeps=sweeps, seed=seed + iteration, schedule=schedule
        )
        sampled = isinstance(result, SampleSet)  # enumeration has no hit fraction
        x = decode(enc, bits_won)
        on_boundary = bool(
            np.any(np.isclose(x, enc.lo, rtol=0, atol=1e-12))
            or np.any(np.isclose(x, enc.hi, rtol=0, atol=1e-12))
        )
        steps.append(
            IterationStep(
                encoding=enc,
                bits=bits_won,
                x=x,
                rel_residual=relative_residual(p1, p0, x),
                hit_fraction=result.ground_fraction() if sampled else float("nan"),
                reads=result.total_reads if sampled else 2**qm.num_bits,
                recentered=on_boundary,
            )
        )
        if steps[-1].rel_residual < floor:
            break
        enc = refine(enc, x)
    return IterationTrace(tuple(steps))
