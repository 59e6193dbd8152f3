"""Generalized least squares via the QUBO pipeline.

A dataset (grid, mean response, covariance) and a basis evaluated on the
grid turn into the degree-1 normal-equation system

    (F^T S^-1 F) p - F^T S^-1 y = 0

whose root is the GLS estimator.  That system feeds the linear QUBO
compiler, so annealing over a bit-encoded parameter grid performs the fit.
The inverse covariance is never formed: with S = L L^T (Cholesky), one solve
whitens [W | w_y] = L^-1 [F | y], so the system reads W^T W p - W^T w_y = 0,
and a residual r weighs r^T S^-1 r = ||L^-1 r||^2.

The synthetic generator produces a correlated series with mean
8 + 4 x + 7 x^2, variance mean/10, and correlation decaying geometrically
with grid distance, which makes (8, 4, 7) the exact noiseless optimum.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .compiler import compile_linear_qubo
from .encoding import BitEncoding, decode
from .polysys import PolynomialSystem
from .solvers import AnnealSchedule, solve

__all__ = [
    "RegressionDataset",
    "BasisSet",
    "polynomial_basis",
    "normal_equations",
    "generate_dataset",
    "gls_objective",
    "FitResult",
    "fit_qubo",
    "load_dataset_csv",
    "save_dataset_csv",
]

SYNTH_MEAN_COEFFS = (8.0, 4.0, 7.0)  # mean response 8 + 4x + 7x^2


@dataclass(frozen=True, eq=False)
class RegressionDataset:
    """Observed grid, mean response, and response covariance."""

    x_grid: np.ndarray = field()
    y_mean: np.ndarray = field()
    covariance: np.ndarray = field()

    def __init__(self, x_grid, y_mean, covariance) -> None:
        x_grid = np.asarray(x_grid, dtype=float)
        y_mean = np.asarray(y_mean, dtype=float)
        covariance = np.asarray(covariance, dtype=float)
        n = x_grid.shape[0]
        if y_mean.shape != (n,) or covariance.shape != (n, n):
            raise ValueError(
                f"inconsistent dataset shapes: x {x_grid.shape}, y {y_mean.shape}, "
                f"covariance {covariance.shape}"
            )
        if not np.allclose(covariance, covariance.T, atol=1e-12):
            raise ValueError("covariance must be symmetric")
        object.__setattr__(self, "x_grid", x_grid)
        object.__setattr__(self, "y_mean", y_mean)
        object.__setattr__(self, "covariance", covariance)

    @property
    def num_points(self) -> int:
        return self.x_grid.shape[0]


@dataclass(frozen=True, eq=False)
class BasisSet:
    """Basis functions evaluated on the grid, stored as the design matrix."""

    design: np.ndarray = field()
    names: tuple[str, ...] = field(default=())

    def __init__(self, design, names=None) -> None:
        design = np.asarray(design, dtype=float)
        if design.ndim != 2:
            raise ValueError(f"design matrix must be 2-D, got shape {design.shape}")
        if design.shape[1] > design.shape[0]:
            raise ValueError(
                f"more basis functions ({design.shape[1]}) than grid points "
                f"({design.shape[0]})"
            )
        if not np.all(np.isfinite(design)):
            raise ValueError("design matrix contains non-finite entries")
        if names is None:
            names = tuple(f"f{k}" for k in range(design.shape[1]))
        object.__setattr__(self, "design", design)
        object.__setattr__(self, "names", tuple(names))

    @property
    def num_params(self) -> int:
        return self.design.shape[1]


def polynomial_basis(x_grid, degree: int) -> BasisSet:
    """Monomial basis 1, x, ..., x^degree evaluated on the grid."""
    if degree < 0:
        raise ValueError(f"basis degree must be >= 0, got {degree}")
    x_grid = np.asarray(x_grid, dtype=float)
    design = np.vander(x_grid, degree + 1, increasing=True)
    return BasisSet(design, names=tuple(f"x^{k}" for k in range(degree + 1)))


def _whiten(data: RegressionDataset, m: np.ndarray) -> np.ndarray:
    """L^-1 m for the Cholesky factor L of the covariance, S = L L^T."""
    try:
        factor = np.linalg.cholesky(data.covariance)
    except np.linalg.LinAlgError as err:
        cond = np.linalg.cond(data.covariance)
        raise ValueError(
            f"covariance is not positive definite (condition number ~ {cond:.3e}); "
            "cannot form its inverse"
        ) from err
    return np.linalg.solve(factor, m)


def normal_equations(data: RegressionDataset, basis: BasisSet) -> PolynomialSystem:
    """Degree-1 system whose root is the GLS minimizer.

    Row n reads ``sum_m (f_n^T S^-1 f_m) p_m - f_n^T S^-1 <y> = 0``; the data
    term carries the minus sign so the root convention matches the rest of
    the pipeline (constant + matrix @ p = 0).
    """
    whitened = _whiten(data, np.column_stack([basis.design, data.y_mean]))
    w, w_y = whitened[:, :-1], whitened[:, -1]
    return PolynomialSystem([-(w.T @ w_y), w.T @ w])


def gls_objective(data: RegressionDataset, basis: BasisSet, params) -> float:
    """Weighted residual (F p - y)^T S^-1 (F p - y), constants included."""
    params = np.asarray(params, dtype=float)
    whitened = _whiten(data, basis.design @ params - data.y_mean)
    return float(whitened @ whitened)


def generate_dataset(
    num_points: int = 50,
    corr_base: float = 0.9,
    noise_seed: int | None = None,
) -> RegressionDataset:
    """Synthetic correlated series on the integer grid 0 .. num_points-1.

    Mean follows 8 + 4x + 7x^2, the variance is mean/10, and correlations
    decay as corr_base^|x_i - x_j| (a Toeplitz correlation profile typical of
    time series).  Without a noise seed the response is the exact mean; with
    one, the response is a single multivariate normal draw about it.
    """
    if num_points < 1:
        raise ValueError(f"num_points must be >= 1, got {num_points}")
    if not 0.0 < corr_base < 1.0:
        raise ValueError(f"corr_base must lie in (0, 1), got {corr_base!r}")
    x = np.arange(num_points, dtype=float)
    c0, c1, c2 = SYNTH_MEAN_COEFFS
    mean = c0 + c1 * x + c2 * x * x
    var = mean / 10.0
    dist = np.abs(x[:, None] - x[None, :])
    cov = np.sqrt(np.outer(var, var)) * corr_base**dist
    if noise_seed is None:
        y = mean
    else:
        y = np.random.default_rng(noise_seed).multivariate_normal(mean, cov)
    return RegressionDataset(x, y, cov)


@dataclass(frozen=True, eq=False)
class FitResult:
    """Fitted parameters plus the energies needed to interpret them.

    ``qubo_energy`` is the solver's objective at the winner (the squared
    normal-equation residual, offset carried); ``gls_rss`` is the weighted
    residual sum of squares of the fit itself, constant term included, so its
    minimum over the grid is the true GLS residual.  ``solver`` is the
    solver block :func:`~polyqubo.solvers.solve` reports.
    """

    params: np.ndarray
    bits: np.ndarray
    qubo_energy: float
    gls_rss: float
    solver: dict


def fit_qubo(
    data: RegressionDataset,
    basis: BasisSet,
    enc: BitEncoding,
    backend: str = "brute",
    *,
    reads: int = 1000,
    sweeps: int = 500,
    seed: int = 0,
    schedule: AnnealSchedule | None = None,
) -> FitResult:
    """Fit by compiling the normal equations to a QUBO and minimizing it.

    ``backend`` is ``"brute"`` (exact) or ``"anneal"`` (see
    :func:`~polyqubo.solvers.solve`); the best sampled state decodes to the
    fitted parameters.
    """
    system = normal_equations(data, basis)
    if enc.num_vars != basis.num_params:
        raise ValueError(
            f"encoding covers {enc.num_vars} variables, basis has "
            f"{basis.num_params} parameters"
        )
    qm = compile_linear_qubo(system, enc)
    bits, energy, solver = solve(
        qm, backend, reads=reads, sweeps=sweeps, seed=seed, schedule=schedule
    )
    params = decode(enc, bits)
    return FitResult(
        params=params,
        bits=bits,
        qubo_energy=float(energy),
        gls_rss=gls_objective(data, basis, params),
        solver=solver,
    )


def save_dataset_csv(data: RegressionDataset, path, cov_path=None) -> None:
    """Write (x, y) columns as CSV; optionally the covariance as a matrix CSV."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y"])
        for xi, yi in zip(data.x_grid, data.y_mean):
            writer.writerow([repr(float(xi)), repr(float(yi))])
    if cov_path is not None:
        with open(cov_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            for row in data.covariance:
                writer.writerow([repr(float(v)) for v in row])


def load_dataset_csv(path, cov_path=None) -> RegressionDataset:
    """Read (x, y) columns; covariance from a matrix CSV or identity if absent."""
    xs, ys = [], []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            xs.append(float(row["x"]))
            ys.append(float(row["y"]))
    if cov_path is None:
        cov = np.eye(len(xs))
    else:
        with open(cov_path, newline="") as fh:
            cov = np.array([[float(v) for v in row] for row in csv.reader(fh)])
    return RegressionDataset(np.array(xs), np.array(ys), cov)
