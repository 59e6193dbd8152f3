"""Command-line entry point: solve, regress, sweep, and iterate workflows.

Every command writes a machine-readable report (JSON by default) whose
content is a pure function of the configuration, seeds included, so repeated
runs produce byte-identical files.  Wall time is printed to stderr rather
than stored, to keep reports reproducible.

Exit codes: 0 success, 1 configuration/input error, 2 solver failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .compiler import compile_pubo, quadratize
from .encoding import decode, from_range
from .linsys import (
    ConditionedSpec,
    SWEEP_COLUMNS,
    iterate_solve,
    make_conditioned_matrix,
    make_rhs,
    relative_residual,
    run_sweep,
    sweep_to_csv,
)
from .polysys import chi_squared, load_system
from .regression import (
    fit_qubo,
    generate_dataset,
    gls_objective,
    load_dataset_csv,
    normal_equations,
    polynomial_basis,
    save_dataset_csv,
)
from .solvers import AnnealSchedule, check_enumerable, conjugate_gradient, solve


class ConfigError(Exception):
    """Bad flags or malformed input; maps to exit code 1."""


class SolverError(Exception):
    """Backend failed to produce a result; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise ConfigError(message)


def _parse_vec(text: str, num_vars: int, flag: str) -> np.ndarray:
    """A scalar broadcast over all variables, or a comma-separated list."""
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError as err:
        raise ConfigError(f"{flag} expects numbers, got {text!r}") from err
    if len(parts) == 1:
        return np.full(num_vars, parts[0])
    if len(parts) != num_vars:
        raise ConfigError(
            f"{flag} lists {len(parts)} values but the problem has {num_vars} variables"
        )
    return np.array(parts)


def _solver_args(args) -> dict:
    """The keyword arguments every command passes on to :func:`solve`."""
    return {
        "reads": args.reads,
        "sweeps": args.sweeps,
        "seed": args.seed,
        "schedule": AnnealSchedule(t_hot=args.t_hot, t_cold=args.t_cold),
    }


def _anneal_flags(args) -> None:
    """Default the anneal-only flags under ``--backend anneal``; refuse them under any other."""
    for name, default in (("reads", 1000), ("sweeps", 500), ("t_hot", None), ("t_cold", None)):
        if args.backend == "anneal" and getattr(args, name) is None:
            setattr(args, name, default)
        elif args.backend != "anneal" and getattr(args, name) is not None:
            raise ConfigError(
                f"--{name.replace('_', '-')} applies only to --backend anneal, "
                f"not --backend {args.backend}"
            )


def _out_path(args, default_name: str) -> str:
    if args.output:
        return args.output
    out_dir = os.environ.get("POLYQUBO_OUTDIR", ".")
    return os.path.join(out_dir, default_name)


def _write_report(report: dict, path: str, fmt: str) -> None:
    if fmt == "json":
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        with open(path, "w") as fh:
            fh.write(text)
    else:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["field", "value"])
            writer.writerows(_flatten(report))


def _flatten(doc, prefix=""):
    """(dotted name, value) rows in sorted key order.  A dict or a list of
    dicts recurses, the list by index; any other list joins its items by ';'."""
    items = sorted(doc.items()) if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        name = f"{prefix}{key}"
        if isinstance(value, dict) or (isinstance(value, list) and value
                                       and isinstance(value[0], dict)):
            yield from _flatten(value, name + ".")
        elif isinstance(value, list):
            yield name, ";".join(str(v) for v in value)
        else:
            yield name, value


def _add_common(p, backends=("brute", "anneal", "cg"), *, encoding=True):
    if encoding:
        p.add_argument("--lo", default="-1", help="range lower bound (scalar or comma list)")
        p.add_argument("--hi", default="1", help="range upper bound (scalar or comma list)")
        p.add_argument("--bits", type=int, default=2, help="bits per variable")
    p.add_argument("--backend", choices=backends, default="brute")
    p.add_argument("--seed", type=int, default=0)
    anneal = p.add_argument_group("anneal only", "refused with any other backend")
    anneal.add_argument("--reads", type=int, help="independent reads (default 1000)")
    anneal.add_argument("--sweeps", type=int, help="sweeps per read (default 500)")
    anneal.add_argument("--t-hot", type=float, help="override hot temperature")
    anneal.add_argument("--t-cold", type=float, help="override cold temperature")
    p.add_argument("--output", default=None, help="report path (default: per-command name)")
    p.add_argument("--format", choices=["json", "csv"], default="json")


def build_parser() -> _Parser:
    parser = _Parser(prog="polyqubo", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve-poly", help="solve a polynomial system from a JSON file")
    p.add_argument("input", help="system JSON file")
    p.add_argument("--aux", choices=["lazy", "all"], default="lazy")
    p.add_argument("--penalty", type=float, default=None, help="override penalty weight C")
    _add_common(p)

    p = sub.add_parser("solve-linear", help="solve a degree-1 system from a JSON file")
    p.add_argument("input", help="system JSON file")
    _add_common(p)

    p = sub.add_parser("regress", help="generalized least squares via the QUBO pipeline")
    p.add_argument("--data", default=None, help="CSV with x,y columns (default: synthetic)")
    p.add_argument("--cov", default=None, help="covariance matrix CSV for --data")
    p.add_argument("--noiseless", action="store_true", help="synthetic data without noise")
    p.add_argument("--noise-seed", type=int, default=None, help="seeded synthetic noise draw")
    p.add_argument("--x-points", type=int, default=50)
    p.add_argument("--corr-base", type=float, default=0.9)
    p.add_argument("--basis", default="poly:2", help="basis spec, e.g. poly:2")
    p.add_argument("--dump-data", default=None, help="also write the dataset as CSV")
    _add_common(p)

    p = sub.add_parser("sweep", help="scaling sweep over size, condition number, or precision")
    p.add_argument("--kind", choices=["size", "condition", "precision"], required=True)
    p.add_argument("--sizes", default=None, help="comma list of sizes (kind=size)")
    p.add_argument("--kappas", default=None, help="comma list of condition numbers")
    p.add_argument("--bits-list", default=None, help="comma list of bit counts (kind=precision)")
    p.add_argument("--n", type=int, default=None, help="fixed system size")
    p.add_argument("--kappa", type=float, default=None, help="fixed condition number")
    _add_common(p, ("brute", "anneal"), encoding=False)
    p.add_argument("--bits", type=int, default=None, help="fixed bits per variable")

    p = sub.add_parser("iterate", help="iterative shrinking-window refinement")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--kappa", type=float, default=1.1)
    p.add_argument("--iters", type=int, default=9)
    p.add_argument("--instance-seed", type=int, default=0, help="matrix generation seed")
    _add_common(p, ("brute", "anneal"))
    return parser


def _cmd_solve(args) -> dict:
    system = _load_input(args.input)
    linear = args.command == "solve-linear"
    if linear and system.degree != 1:
        raise ConfigError(f"solve-linear requires a degree-1 system, got degree {system.degree}")
    enc = _encoding_for(args, system.num_variables)
    report = {"config": _echo_config(args)}
    if args.backend == "cg":
        if system.degree != 1:
            raise ConfigError("backend=cg only valid for degree-1 systems")
        x, report["solver"] = _cg(system)
    else:
        if args.backend == "brute":  # refuse before compiling; solve checks the auxiliaries
            check_enumerable(enc.num_bits)
        pubo = compile_pubo(system, enc)
        # only solve-poly has --penalty and --aux
        qm = quadratize(
            pubo, penalty=getattr(args, "penalty", None), aux=getattr(args, "aux", "lazy")
        )
        bits, energy, report["solver"] = solve(qm, args.backend, **_solver_args(args))
        x = decode(enc, bits[: enc.num_bits])
        report["problem"] = {"bits": qm.num_logical, "auxiliaries": qm.num_aux,
                             "penalty": qm.penalty}
        if not linear:
            report["problem"]["pubo_terms"] = len(pubo.coeffs)
        report["energy"] = float(energy)
    report["solution"] = x.tolist()
    if linear or args.backend == "cg":
        report["relative_residual"] = relative_residual(system.coeffs[1], system.coeffs[0], x)
    else:
        report["chi_squared"] = float(chi_squared(system, x))
    return report


def _cg(system) -> tuple[np.ndarray, dict]:
    """Conjugate-gradient root of a degree-1 system and its solver block."""
    report = conjugate_gradient(system.coeffs[1], system.coeffs[0])
    if not report.converged:
        raise SolverError(
            f"conjugate gradient did not converge in {report.iterations} iterations "
            f"(residual norm ratio {report.residual_norm_ratio:.3e})"
        )
    return report.solution, {"backend": "cg", "iterations": report.iterations}


def _cmd_regress(args) -> dict:
    if args.data:
        data = _load_input(args.data, loader=lambda p: load_dataset_csv(p, args.cov))
    else:
        noise = None if args.noiseless or args.noise_seed is None else args.noise_seed
        data = generate_dataset(args.x_points, args.corr_base, noise_seed=noise)
    if args.dump_data:
        save_dataset_csv(data, args.dump_data)
    if not args.basis.startswith("poly:"):
        raise ConfigError(f"unsupported basis {args.basis!r}; expected poly:<degree>")
    degree = int(args.basis.split(":", 1)[1])
    basis = polynomial_basis(data.x_grid, degree)
    enc = _encoding_for(args, basis.num_params)
    report = {"config": _echo_config(args)}
    if args.backend == "cg":
        params, report["solver"] = _cg(normal_equations(data, basis))
        gls_rss = gls_objective(data, basis, params)
    else:
        fit = fit_qubo(data, basis, enc, backend=args.backend, **_solver_args(args))
        params, gls_rss, report["solver"] = fit.params, fit.gls_rss, fit.solver
        report["problem"] = {"bits": enc.num_bits, "auxiliaries": 0, "penalty": 0.0}
        report["bits"] = "".join(str(int(b)) for b in fit.bits)
        report["qubo_energy"] = fit.qubo_energy
    report["parameters"] = params.tolist()
    report["gls_rss"] = gls_rss
    return report


def _cmd_sweep(args) -> dict | list:
    values_flag = {"size": args.sizes, "condition": args.kappas, "precision": args.bits_list}
    text = values_flag[args.kind]
    if text is None:
        raise ConfigError(f"sweep kind {args.kind!r} needs its value list "
                          f"(--sizes / --kappas / --bits-list)")
    caster = int if args.kind in ("size", "precision") else float
    try:
        values = [caster(v) for v in text.split(",")]
    except ValueError as err:
        raise ConfigError(f"bad sweep value list {text!r}") from err
    rows = run_sweep(
        args.kind,
        values,
        size=args.n,
        kappa=args.kappa,
        bits=args.bits,
        backend=args.backend,
        **_solver_args(args),
    )
    return {"config": _echo_config(args), "columns": list(SWEEP_COLUMNS), "rows": rows}


def _cmd_iterate(args) -> dict:
    spec = ConditionedSpec(args.n, args.kappa, seed=args.instance_seed)
    p1 = make_conditioned_matrix(spec)
    p0 = make_rhs(args.n)
    lo = _parse_vec(args.lo, args.n, "--lo")
    hi = _parse_vec(args.hi, args.n, "--hi")
    trace = iterate_solve(
        p1,
        p0,
        args.bits,
        args.iters,
        backend=args.backend,
        initial_lo=lo,
        initial_hi=hi,
        **_solver_args(args),
    )
    return {
        "config": _echo_config(args),
        "iterations": json.loads(trace.to_json()),
        "final_residual": trace.final.rel_residual,
        "final_solution": trace.final.x.tolist(),
    }


def _load_input(path, loader=load_system):
    try:
        return loader(path)
    except FileNotFoundError as err:
        raise ConfigError(f"input file not found: {path}") from err
    except (ValueError, KeyError, json.JSONDecodeError) as err:
        raise ConfigError(f"malformed input {path}: {err}") from err


def _encoding_for(args, num_vars: int):
    lo = _parse_vec(args.lo, num_vars, "--lo")
    hi = _parse_vec(args.hi, num_vars, "--hi")
    try:
        return from_range(lo, hi, args.bits)
    except ValueError as err:
        raise ConfigError(str(err)) from err


def _echo_config(args) -> dict:
    skip = {"output", "format"}
    return {
        k: v for k, v in sorted(vars(args).items())
        if k not in skip and not k.startswith("_") and v is not None
    }


_COMMANDS = {
    "solve-poly": (_cmd_solve, "solve_poly_report"),
    "solve-linear": (_cmd_solve, "solve_linear_report"),
    "regress": (_cmd_regress, "regress_report"),
    "sweep": (_cmd_sweep, "sweep_report"),
    "iterate": (_cmd_iterate, "iterate_report"),
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _anneal_flags(args)
        handler, default_stem = _COMMANDS[args.command]
        started = time.perf_counter()
        report = handler(args)
        elapsed = time.perf_counter() - started
        path = _out_path(args, f"{default_stem}.{args.format}")
        if args.command == "sweep" and args.format == "csv":
            sweep_to_csv(report["rows"], path)
        else:
            _write_report(report, path, args.format)
        print(f"wrote {path} ({elapsed:.3f}s)", file=sys.stderr)
        return 0
    except (ConfigError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except SolverError as err:
        print(f"solver error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
