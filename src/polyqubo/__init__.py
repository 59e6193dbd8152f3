"""polyqubo: polynomial equation systems as binary optimization problems.

Compile systems of polynomial (and linear) equations into pseudo-Boolean
objectives and QUBO matrices through fixed-point bit encoding and pair
substitution, then solve them with exhaustive enumeration, simulated
annealing, or conjugate gradient.  Includes a generalized-least-squares
regression frontend, a conditioned-linear-system lab, and an iterative
window-refinement loop.
"""

__version__ = "0.1.0"

from .compiler import (
    PseudoBooleanPolynomial,
    QuboMatrix,
    choose_penalty,
    compile_linear_qubo,
    compile_pubo,
    export_qubo,
    pubo_energy,
    quadratize,
    qubo_energy,
    sparsify,
)
from .encoding import BitEncoding, decode, from_range, nearest_bits, refine
from .linsys import (
    ConditionedSpec,
    IterationStep,
    IterationTrace,
    forward_error_minimum,
    iterate_solve,
    make_conditioned_matrix,
    make_rhs,
    relative_residual,
    run_sweep,
    solution_range,
    sweep_to_csv,
)
from .polysys import (
    PolynomialSystem,
    chi_squared,
    evaluate_residuals,
    load_system,
    save_system,
)
from .regression import (
    BasisSet,
    FitResult,
    RegressionDataset,
    fit_qubo,
    generate_dataset,
    gls_objective,
    load_dataset_csv,
    normal_equations,
    polynomial_basis,
    save_dataset_csv,
)
from .solvers import (
    AnnealSchedule,
    BruteForceResult,
    CgReport,
    SampleRecord,
    SampleSet,
    all_bitstrings,
    brute_force,
    conjugate_gradient,
    simulated_anneal,
)

__all__ = [
    "__version__",
    # systems
    "PolynomialSystem",
    "evaluate_residuals",
    "chi_squared",
    "load_system",
    "save_system",
    # encodings
    "BitEncoding",
    "decode",
    "from_range",
    "refine",
    "nearest_bits",
    # compilation
    "PseudoBooleanPolynomial",
    "QuboMatrix",
    "compile_pubo",
    "sparsify",
    "quadratize",
    "choose_penalty",
    "compile_linear_qubo",
    "pubo_energy",
    "qubo_energy",
    "export_qubo",
    # solvers
    "BruteForceResult",
    "SampleRecord",
    "SampleSet",
    "AnnealSchedule",
    "CgReport",
    "all_bitstrings",
    "brute_force",
    "simulated_anneal",
    "conjugate_gradient",
    # regression
    "RegressionDataset",
    "BasisSet",
    "FitResult",
    "polynomial_basis",
    "normal_equations",
    "generate_dataset",
    "gls_objective",
    "fit_qubo",
    "load_dataset_csv",
    "save_dataset_csv",
    # conditioned-system lab
    "ConditionedSpec",
    "IterationStep",
    "IterationTrace",
    "make_conditioned_matrix",
    "make_rhs",
    "relative_residual",
    "solution_range",
    "forward_error_minimum",
    "run_sweep",
    "sweep_to_csv",
    "iterate_solve",
]
