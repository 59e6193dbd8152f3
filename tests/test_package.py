"""The package namespace exports exactly its modules' public names."""

import importlib

import polyqubo

MODULE_ORDER = ("polysys", "encoding", "compiler", "solvers", "regression", "linsys")

# the benchmark harness traces each module's __all__ by name, so the lists are pinned
MODULE_EXPORTS = {
    "polysys": ["PolynomialSystem", "evaluate_residuals", "chi_squared", "load_system",
                "save_system"],
    "encoding": ["BitEncoding", "decode", "from_range", "refine", "nearest_bits"],
    "compiler": ["PseudoBooleanPolynomial", "QuboMatrix", "sparsify", "compile_pubo",
                 "choose_penalty", "quadratize", "compile_linear_qubo", "pubo_energy",
                 "export_qubo"],
    "solvers": ["BruteForceResult", "SampleSet", "SampleRecord", "AnnealSchedule", "CgReport",
                "SolveResult", "SolverError", "check_enumerable", "brute_force",
                "simulated_anneal", "conjugate_gradient", "solve"],
    "regression": ["RegressionDataset", "BasisSet", "polynomial_basis", "normal_equations",
                   "generate_dataset", "gls_objective", "FitResult", "fit_qubo",
                   "load_dataset_csv", "save_dataset_csv"],
    "linsys": ["ConditionedSpec", "make_conditioned_matrix", "make_rhs", "relative_residual",
               "solution_range", "forward_error_minimum", "run_sweep", "sweep_to_csv",
               "IterationStep", "IterationTrace", "iterate_solve"],
}


def test_module_exports_pinned():
    for name in MODULE_ORDER:
        assert importlib.import_module(f"polyqubo.{name}").__all__ == MODULE_EXPORTS[name]


def test_package_exports_the_module_lists_in_order():
    expected = ["__version__"]
    for name in MODULE_ORDER:
        expected += importlib.import_module(f"polyqubo.{name}").__all__
    assert polyqubo.__all__ == expected


def test_every_export_resolves_to_its_module_object():
    for name in MODULE_ORDER:
        module = importlib.import_module(f"polyqubo.{name}")
        for export in module.__all__:
            assert getattr(polyqubo, export) is getattr(module, export)
    namespace = {}
    exec("from polyqubo import *", namespace)
    assert set(polyqubo.__all__) <= set(namespace)
