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
import re
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


def _parse_vec(text: str, flag: str) -> list[float]:
    """The numbers of a comma-separated list; from_range shapes them into a window."""
    try:
        return [float(p) for p in text.split(",")]
    except ValueError as err:
        raise ConfigError(f"{flag} expects numbers, got {text!r}") from err


def _seed(text: str) -> int:
    """A seed flag's value; numpy's generators take integers >= 0 only."""
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")


def _attach_ranges(argv: list[str]) -> list[str]:
    """Join ``--lo``/``--hi`` to a following list that starts with a minus sign.

    argparse reads a token such as ``-1,-2`` as an option, since it is not
    a plain number, so ``--lo -1,-2`` would lack its value; ``--lo=-1,-2``
    has it.
    """
    joined: list[str] = []
    for arg in argv:
        if joined and joined[-1] in ("--lo", "--hi") and re.match(r"-\.?\d", arg):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


_ENCODING = ("lo", "hi", "bits")
_ANNEAL = ("seed", "reads", "sweeps", "t_hot", "t_cold")
_QUADRATIZE = ("aux", "penalty")

# The solver and encoding flags each backend of each command reads.  The parser
# offers these backends and flags; main refuses a flag given that the backend does
# not read, and defaults a read one left unset from _DEFAULTS (None: derive it).
_READS = {
    "solve-poly": {"brute": _ENCODING + _QUADRATIZE, "anneal": _ENCODING + _QUADRATIZE + _ANNEAL,
                   "cg": ()},
    "solve-linear": {"brute": _ENCODING, "anneal": _ENCODING + _ANNEAL, "cg": ()},
    "regress": {"brute": _ENCODING, "anneal": _ENCODING + _ANNEAL, "cg": ()},
    "sweep": {"brute": ("seed",), "anneal": _ANNEAL},
    "iterate": {"brute": _ENCODING, "anneal": _ENCODING + _ANNEAL},
}
_DEFAULTS = {"lo": "-1", "hi": "1", "bits": 2, "seed": 0, "reads": 1000, "sweeps": 500,
             "aux": "lazy", "x_points": 50, "corr_base": 0.9}

# sweep: each kind's value list and the fixed parameter it sweeps
_SWEPT = {"size": ("sizes", "n"), "condition": ("kappas", "kappa"),
          "precision": ("bits_list", "bits")}
# regress: the dataset flags each data source reads
_SOURCES = {"--data": ("cov",), "--noiseless": ("noiseless", "x_points", "corr_base"),
            "without --data": ("x_points", "corr_base", "noise_seed")}


def _option(flag: str) -> str:
    return "--" + flag.replace("_", "-")


def _read_or_refuse(args) -> None:
    """Refuse each flag given that this run does not read; default each unset one it does.

    Each choice a run makes (its backend; sweep's kind; regress's data source)
    decides a set of flags and reads some of them.
    """
    tables = _READS[args.command]
    choices = [(f"--backend {args.backend}", set().union(*tables.values()), tables[args.backend])]
    if args.command == "sweep":  # run_sweep defaults the fixed parameters a kind reads
        values, swept = _SWEPT[args.kind]
        lists = {v for v, _ in _SWEPT.values()}
        choices.append((f"--kind {args.kind}", lists | {swept}, (values,)))
    elif args.command == "regress":
        source = "--data" if args.data else "--noiseless" if args.noiseless else "without --data"
        choices.append((source, set().union(*_SOURCES.values()), _SOURCES[source]))
    for choice, decided, read in choices:
        for flag in sorted(decided.difference(read)):
            if getattr(args, flag) is not None:
                raise ConfigError(f"{_option(flag)} is not read by {args.command} {choice}")
        for flag in read:
            if getattr(args, flag) is None:
                setattr(args, flag, _DEFAULTS.get(flag))


def _solver_args(args) -> dict:
    """The keyword arguments a command passes on to :func:`solve`; a flag its
    backend does not read is None, and leaves solve's default in place."""
    flags = {k: getattr(args, k) for k in ("reads", "sweeps", "seed")}
    schedule = AnnealSchedule(t_hot=args.t_hot, t_cold=args.t_cold)
    return {**{k: v for k, v in flags.items() if v is not None}, "schedule": schedule}


def _out_path(args, default_name: str) -> str:
    """The report's path, refused before anything is solved if it cannot be a file."""
    path = args.output or os.path.join(os.environ.get("POLYQUBO_OUTDIR", "."), default_name)
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path):
        raise ConfigError(f"cannot write report {path}: is a directory")
    if not os.path.isdir(folder):
        raise ConfigError(f"cannot write report {path}: directory {folder} does not exist")
    return path


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


def _add_common(p, command):
    backends = _READS[command]
    declared = set().union(*backends.values())
    p.add_argument("--backend", choices=list(backends), default="brute")
    group = p.add_argument_group("solver and encoding", "given to another backend, exits 1")
    for flag, kwargs in (
        ("lo", {"help": "range lower bound, scalar or comma list"}),
        ("hi", {"help": "range upper bound, scalar or comma list"}),
        ("bits", {"type": int, "help": "bits per variable"}),
        ("aux", {"choices": ["lazy", "all"], "help": "auxiliary pairs to allocate"}),
        ("penalty", {"type": float, "help": "override penalty weight C"}),
        ("seed", {"type": _seed, "help": "random seed"}),
        ("reads", {"type": int, "help": "independent reads"}),
        ("sweeps", {"type": int, "help": "sweeps per read"}),
        ("t_hot", {"type": float, "help": "override hot temperature"}),
        ("t_cold", {"type": float, "help": "override cold temperature"}),
    ):
        if flag in declared:
            default = f"default {_DEFAULTS[flag]}, " if flag in _DEFAULTS else ""
            readers = "/".join(b for b, flags in backends.items() if flag in flags)
            kwargs["help"] += f" ({default}read by --backend {readers})"
            group.add_argument(_option(flag), **kwargs)
    p.add_argument("--output", default=None, help="report path (default: per-command name)")
    p.add_argument("--format", choices=["json", "csv"], default="json")


def build_parser() -> _Parser:
    parser = _Parser(prog="polyqubo", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve-poly", help="solve a polynomial system from a JSON file")
    p.add_argument("input", help="system JSON file")
    _add_common(p, "solve-poly")

    p = sub.add_parser("solve-linear", help="solve a degree-1 system from a JSON file")
    p.add_argument("input", help="system JSON file")
    _add_common(p, "solve-linear")

    p = sub.add_parser("regress", help="generalized least squares via the QUBO pipeline")
    p.add_argument("--data", default=None, help="CSV with x,y columns (default: synthetic)")
    p.add_argument("--cov", default=None, help="covariance matrix CSV (with --data only)")
    p.add_argument("--noiseless", action="store_const", const=True,
                   help="synthetic data without noise (not with --data)")
    p.add_argument("--noise-seed", type=_seed, default=None,
                   help="seeded synthetic noise draw (not with --data or --noiseless)")
    p.add_argument("--x-points", type=int, help=f"data points (default {_DEFAULTS['x_points']})")
    p.add_argument("--corr-base", type=float,
                   help=f"correlation base (default {_DEFAULTS['corr_base']})")
    p.add_argument("--basis", default="poly:2", help="poly:<degree>, degree >= 0 (default poly:2)")
    p.add_argument("--dump-data", default=None, help="also write the dataset as CSV")
    _add_common(p, "regress")

    p = sub.add_parser("sweep", help="scaling sweep over size, condition number, or precision")
    p.add_argument("--kind", choices=list(_SWEPT), required=True)
    p.add_argument("--sizes", default=None, help="comma list of sizes (kind=size)")
    p.add_argument("--kappas", default=None, help="comma list of kappas (kind=condition)")
    p.add_argument("--bits-list", default=None, help="comma list of bit counts (kind=precision)")
    p.add_argument("--n", type=int, default=None, help="fixed system size (not kind=size)")
    p.add_argument("--kappa", type=float, default=None,
                   help="fixed condition number (not kind=condition)")
    p.add_argument("--bits", type=int, default=None,
                   help="fixed bits per variable (not kind=precision)")
    _add_common(p, "sweep")

    p = sub.add_parser("iterate", help="iterative shrinking-window refinement")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--kappa", type=float, default=1.1)
    p.add_argument("--iters", type=int, default=9)
    p.add_argument("--instance-seed", type=_seed, default=0, help="matrix generation seed")
    _add_common(p, "iterate")
    return parser


def _cmd_solve(args) -> dict:
    system = _load_input(args.input)
    linear = args.command == "solve-linear"
    if (linear or args.backend == "cg") and system.degree != 1:
        raise ConfigError(f"{args.command} --backend {args.backend} needs a degree-1 system, "
                          f"got degree {system.degree}")
    report = {"config": _echo_config(args)}
    if args.backend == "cg":
        x, report["solver"] = _cg(system)
    else:
        enc = _encoding_for(args, system.num_variables)
        if args.backend == "brute":  # refuse before compiling; solve checks the auxiliaries
            check_enumerable(enc.num_bits)
        pubo = compile_pubo(system, enc)
        quad = {k: v for k, v in vars(args).items() if k in _QUADRATIZE}  # none in solve-linear
        qm = quadratize(pubo, **quad)
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
    kind, _, degree = args.basis.partition(":")
    if kind != "poly" or not degree.isdecimal():
        raise ConfigError(f"--basis expects poly:<degree> with degree >= 0, got {args.basis!r}")
    if args.data:
        data = _load_input(args.data, loader=lambda p: load_dataset_csv(p, args.cov))
    else:
        data = generate_dataset(args.x_points, args.corr_base, noise_seed=args.noise_seed)
    if args.dump_data:
        try:
            save_dataset_csv(data, args.dump_data)
        except OSError as err:
            raise ConfigError(f"cannot write data {args.dump_data}: {err.strerror or err}") from err
    basis = polynomial_basis(data.x_grid, int(degree))
    report = {"config": _echo_config(args)}
    if args.backend == "cg":
        params, report["solver"] = _cg(normal_equations(data, basis))
        gls_rss = gls_objective(data, basis, params)
    else:
        enc = _encoding_for(args, basis.num_params)
        fit = fit_qubo(data, basis, enc, backend=args.backend, **_solver_args(args))
        params, gls_rss, report["solver"] = fit.params, fit.gls_rss, fit.solver
        report["problem"] = {"bits": enc.num_bits, "auxiliaries": 0, "penalty": 0.0}
        report["bits"] = "".join(str(int(b)) for b in fit.bits)
        report["qubo_energy"] = fit.qubo_energy
    report["parameters"] = params.tolist()
    report["gls_rss"] = gls_rss
    return report


def _cmd_sweep(args) -> dict | list:
    values_flag = _SWEPT[args.kind][0]
    text = getattr(args, values_flag)
    if text is None:
        raise ConfigError(f"sweep --kind {args.kind} needs {_option(values_flag)}")
    caster = int if args.kind in ("size", "precision") else float
    try:
        values = [caster(v) for v in text.split(",")]
    except ValueError as err:
        raise ConfigError(f"bad sweep value list {text!r}") from err
    rows = run_sweep(args.kind, values, size=args.n, kappa=args.kappa, bits=args.bits,
                     backend=args.backend, **_solver_args(args))
    return {"config": _echo_config(args), "columns": list(SWEEP_COLUMNS), "rows": rows}


def _cmd_iterate(args) -> dict:
    spec = ConditionedSpec(args.n, args.kappa, seed=args.instance_seed)
    p1 = make_conditioned_matrix(spec)
    p0 = make_rhs(args.n)
    trace = iterate_solve(p1, p0, args.bits, args.iters, backend=args.backend,
                          initial_lo=_parse_vec(args.lo, "--lo"),
                          initial_hi=_parse_vec(args.hi, "--hi"), **_solver_args(args))
    return {
        "config": _echo_config(args),
        "iterations": trace.to_dicts(),
        "final_residual": trace.final.rel_residual,
        "final_solution": trace.final.x.tolist(),
    }


def _load_input(path, loader=load_system):
    try:
        return loader(path)
    except FileNotFoundError as err:
        raise ConfigError(f"input file not found: {path}") from err
    except OSError as err:
        raise ConfigError(f"cannot read input {path}: {err.strerror or err}") from err
    except (ValueError, KeyError, json.JSONDecodeError) as err:
        raise ConfigError(f"malformed input {path}: {err}") from err


def _encoding_for(args, num_vars: int):
    return from_range(_parse_vec(args.lo, "--lo"), _parse_vec(args.hi, "--hi"), args.bits,
                      num_vars=num_vars)


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
        args = parser.parse_args(_attach_ranges(sys.argv[1:] if argv is None else argv))
        _read_or_refuse(args)
        handler, default_stem = _COMMANDS[args.command]
        path = _out_path(args, f"{default_stem}.{args.format}")
        started = time.perf_counter()
        report = handler(args)
        elapsed = time.perf_counter() - started
        try:
            if args.command == "sweep" and args.format == "csv":
                sweep_to_csv(report["rows"], path)
            else:
                _write_report(report, path, args.format)
        except OSError as err:
            raise ConfigError(f"cannot write report {path}: {err.strerror or err}") from err
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
