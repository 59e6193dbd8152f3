"""One benchmark workload, run in its own process by run.py.

Usage: python3 perfbench/workload.py NAME SEED SECONDS TRACE SMOKE WORKDIR

Generates the workload's inputs from SEED, runs instances in a closed loop
(one caller, each instance sent when the previous one has finished) for
SECONDS, checks every answer against an oracle that does not come from the
stage being timed, and prints one JSON object with the raw results.  With
TRACE=1 each instance runs twice, untraced and then traced, so the tracing
overhead can be read off the paired times.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import polyqubo
import scipy
from polyqubo import ConditionedSpec, PolynomialSystem

from tracing import Layers, Tracer, layer_table, median, self_times

# the worked two-equation quadratic system with root (2, 3) on the grid
# [0, 3]^2 at 2 bits per variable; with every logical pair given an
# auxiliary, its 10-bit ground state is the root's bits followed by the
# bit products of the pairs (0,1) (0,2) (0,3) (1,2) (1,3) (2,3)
WORKED = [[-51.0, -46.0], [[2.0, 4.0], [3.0, 2.0]],
          [[[2.0, 3.0], [0.0, 1.0]], [[1.0, 2.0], [0.0, 2.0]]]]
WORKED_BITS = (0, 1, 1, 1, 0, 0, 0, 1, 1, 1)
REGRESSION_ANSWER = [8.0, 4.0, 7.0]
POOL = 64  # seeded inputs generated per shape; instances cycle through them

FULL = {
    "poly": {"small": (3, 3, 4), "big": (4, 4, 5), "reads": 64, "sweeps": 50, "states": 128},
    "linear": {"n": 4, "bits": 5, "sweep": [2, 3, 4]},
    # equal flip budgets (reads x sweeps x bits), so the two shapes take
    # about the same time; 512 reads fill one read chunk, so the wide
    # shape holds the same ~98 MB uniform buffer as at 1000 reads
    "anneal": {"tall": (4096, 250), "wide": (24, 512, 500)},
}
SMOKE = {
    "poly": {"small": (2, 2, 3), "big": (3, 3, 3), "reads": 16, "sweeps": 10, "states": 16},
    "linear": {"n": 3, "bits": 3, "sweep": [2, 3]},
    "anneal": {"tall": (512, 100), "wide": (8, 64, 50)},
}
KAPPA = 1.1  # the refinement loop stalls on worse-conditioned 4x4 systems
TARGET_RESIDUAL = 1e-6
MAX_ROUNDS = 12


class CheckFailed(Exception):
    """An answer disagreed with its oracle."""


def check(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def grid_minimum(p1, p0, lo, hi, bits: int) -> float:
    """Smallest ||p1 x + p0||^2 over the uniform grid, by plain numpy enumeration."""
    n = len(p0)
    levels = 2**bits
    ks = np.indices((levels,) * n).reshape(n, -1).T
    x = lo + (hi - lo) / (levels - 1) * ks
    r = x @ p1.T + p0
    return float(np.min(np.sum(r * r, axis=1)))


def numpy_residual(p1, p0, x) -> float:
    r = p1 @ x + p0
    return float(r @ r) / float(p0 @ p0)


class Workload:
    """Seeded inputs, a fixed cycle of instance shapes, and per-run checks."""

    cycle: tuple[str, ...] = ()
    min_cycles = 1

    def __init__(self, seed: int, sizes: dict, workdir: Path, lib: Layers):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.lib = lib  # untraced library calls for input generation

    def generate(self) -> None:
        raise NotImplementedError

    def instance(self, pq, k: int, shape: str) -> dict:
        raise NotImplementedError

    def checks_before(self, pq) -> list:
        return []

    def checks_after(self, pq) -> list:
        return []

    # untimed calls made only in the traced run, after instance k:
    # a method (pq, k, shape) -> None, or None when there are none
    traced_extra = None


class PolyPipeline(Workload):
    """Seeded degree-2 systems with a planted root on the grid, compiled,
    quadratized and annealed.  The compiler dominates here."""

    cycle = ("small", "big", "big")

    def generate(self):
        rng = np.random.default_rng(self.seed)
        size = self.sizes["poly"]
        self.pool = {
            shape: [self._planted(rng, *size[shape]) for _ in range(POOL)]
            for shape in ("small", "big")
        }

    def _planted(self, rng, n_eq, n_var, bits):
        lo, hi = -2.0, 2.0
        root = lo + (hi - lo) / (2**bits - 1) * rng.integers(0, 2**bits, n_var)
        lin = rng.integers(-3, 4, (n_eq, n_var)).astype(float)
        quad = rng.integers(-3, 4, (n_eq, n_var, n_var)).astype(float)
        const = -(lin @ root + np.einsum("ijk,j,k->i", quad, root, root))
        states = rng.integers(0, 2, (self.sizes["poly"]["states"], n_var * bits))
        return PolynomialSystem([const, lin, quad]), bits, states, int(rng.integers(2**31))

    def instance(self, pq, k, shape):
        size = self.sizes["poly"]
        system, bits, states, seed = self.pool[shape][k % POOL]
        enc = pq.from_range(-2.0, 2.0, bits, num_vars=system.num_variables)
        pubo = pq.compile_pubo(system, enc)
        qm = pq.quadratize(pubo, aux="lazy")
        samples = pq.simulated_anneal(qm, reads=size["reads"], sweeps=size["sweeps"], seed=seed)
        best = samples.best
        x = pq.decode(enc, np.array(best.bits[: enc.num_bits], dtype=np.uint8))
        chi = pq.chi_squared(system, x)

        # energy identity on a seeded batch, with chi_squared as the oracle
        lhs = pq.pubo_energy(pubo, states)
        rhs = pq.chi_squared(system, pq.decode(enc, states))
        scale = max(1.0, float(np.max(np.abs(rhs))))
        check(np.max(np.abs(lhs - rhs)) <= 1e-9 * scale,
              f"pubo_energy departs from chi_squared by {np.max(np.abs(lhs - rhs)):.3e}")
        # a quadratized energy never undercuts the polynomial energy of its
        # logical bits, which the planted root bounds below by zero
        tol = 1e-9 * qm.penalty
        check(best.energy >= chi - tol, f"anneal energy {best.energy!r} below chi^2 {chi!r}")
        hit = None
        if shape == "small":
            ref = pq.brute_force(pubo)
            check(abs(ref.energy) <= tol, f"exact ground {ref.energy!r} misses the planted root")
            ref_chi = pq.chi_squared(system, pq.decode(enc, ref.bits))
            check(abs(ref_chi - ref.energy) <= tol, "exact ground does not decode to its energy")
            check(best.energy >= ref.energy - tol, "anneal undercut the exact ground")
            hit = bool(abs(best.energy - ref.energy) <= tol)
        return {"ground_fraction": samples.ground_fraction(), "hit": hit}

    def checks_before(self, pq):
        return [("worked_2x2_aux_all", lambda: self._worked(pq))]

    def _worked(self, pq):
        enc = pq.from_range([0.0, 0.0], [3.0, 3.0], 2)
        qm = pq.quadratize(pq.compile_pubo(PolynomialSystem(WORKED), enc), aux="all")
        result = pq.brute_force(qm)
        bits = tuple(int(b) for b in result.bits)
        check(bits == WORKED_BITS, f"worked example ground bits {bits}")
        x = pq.decode(enc, result.bits[: enc.num_bits])
        check(np.array_equal(x, [2.0, 3.0]), f"worked example root {x.tolist()}")


class LinearExact(Workload):
    """Seeded conditioned 4x4 systems refined by exact enumeration to a
    relative residual <= 1e-6, each stage called on its own.  Once per run
    the frontends (run_sweep, iterate_solve, the regression fit and the
    in-process CLI) must agree with the stages and with numpy."""

    cycle = ("refine",)

    def generate(self):
        rng = np.random.default_rng(self.seed)
        self.seeds = [int(s) for s in rng.integers(2**31, size=POOL)]
        self.sweep_seed = int(rng.integers(2**31))
        self.data = self.lib.generate_dataset(50)
        self.basis = self.lib.polynomial_basis(self.data.x_grid, 2)
        self.fit_enc = self.lib.from_range(0.0, 15.0, 4, num_vars=3)
        self.first = None

    def instance(self, pq, k, shape):
        n, bits = self.sizes["linear"]["n"], self.sizes["linear"]["bits"]
        p1 = pq.make_conditioned_matrix(ConditionedSpec(n, KAPPA, seed=self.seeds[k % POOL]))
        p0 = pq.make_rhs(n)
        ref = pq.conjugate_gradient(p1, p0, tol=1e-10)
        check(ref.converged, "conjugate gradient did not converge")
        # a symmetric start window around the reference solution
        width = math.ceil(10.0 * float(np.max(np.abs(ref.solution)))) / 8.0
        system = PolynomialSystem([p0, p1])
        enc = pq.from_range(-width, width, bits, num_vars=n)
        won = []
        for _ in range(MAX_ROUNDS):
            result = pq.brute_force(pq.compile_linear_qubo(system, enc))
            won.append(result.bits)
            x = pq.decode(enc, result.bits)
            rel = pq.relative_residual(p1, p0, x)
            if rel <= TARGET_RESIDUAL:
                break
            enc = pq.refine(enc, x)
        check(rel <= TARGET_RESIDUAL, f"residual {rel:.3e} after {MAX_ROUNDS} rounds")
        oracle = numpy_residual(p1, p0, x)
        check(abs(oracle - rel) <= 1e-6 * oracle + 1e-18, f"relative_residual {rel!r} vs {oracle!r}")
        if self.first is None:
            self.first = (p1, p0, width, won)
        return {"rel_residual": rel}

    def checks_before(self, pq):
        return [("precision_sweep", lambda: self._sweep(pq))]

    def checks_after(self, pq):
        return [("iterate_solve_same_bits", lambda: self._iterate(pq)),
                ("regression_fit_brute", lambda: self._regression(pq)),
                ("cli_solve_linear_same_point", lambda: self._cli(pq))]

    def _sweep(self, pq):
        n, values = self.sizes["linear"]["n"], self.sizes["linear"]["sweep"]
        rows = pq.run_sweep("precision", values, size=n, kappa=KAPPA, seed=self.sweep_seed)
        p1 = pq.make_conditioned_matrix(ConditionedSpec(n, KAPPA, seed=self.sweep_seed))
        p0 = pq.make_rhs(n)
        x = np.linalg.solve(p1, -p0)
        for bits, row in zip(values, rows):
            want = grid_minimum(p1, p0, x.min(), x.max(), bits)
            check(abs(row["min_energy"] - want) <= 1e-9 * (1.0 + p0 @ p0),
                  f"sweep at {bits} bits: min energy {row['min_energy']!r}, grid minimum {want!r}")

    def _iterate(self, pq):
        check(self.first is not None, "no instance completed")
        p1, p0, width, won = self.first
        trace = pq.iterate_solve(p1, p0, self.sizes["linear"]["bits"], len(won),
                                 backend="brute", initial_lo=-width, initial_hi=width)
        same = len(trace.steps) == len(won) and all(
            np.array_equal(step.bits, bits) for step, bits in zip(trace.steps, won))
        check(same, "iterate_solve chose different bits than the stage-by-stage loop")

    def _regression(self, pq):
        system = pq.normal_equations(self.data, self.basis)
        p1, p0 = system.coeffs[1], system.coeffs[0]
        check(np.allclose(np.linalg.solve(p1, -p0), REGRESSION_ANSWER, atol=1e-6),
              "normal equations do not solve to (8, 4, 7)")
        fit = pq.fit_qubo(self.data, self.basis, self.fit_enc, backend="brute")
        check(np.array_equal(fit.params, REGRESSION_ANSWER), f"fit_qubo gave {fit.params.tolist()}")

    def _cli(self, pq):
        check(self.first is not None, "no instance completed")
        p1, p0, width, won = self.first
        bits = self.sizes["linear"]["bits"]
        self.workdir.mkdir(parents=True, exist_ok=True)
        system_path, report_path = self.workdir / "linear.json", self.workdir / "report.json"
        self.lib.save_system(PolynomialSystem([p0, p1]), system_path)
        with contextlib.redirect_stderr(io.StringIO()):
            code = pq.main(["solve-linear", str(system_path), "--backend", "brute",
                            f"--lo={-width!r}", f"--hi={width!r}", "--bits", str(bits),
                            "--output", str(report_path)])
        check(code == 0, f"in-process solve-linear exited {code}")
        # the first round of the stage-by-stage loop solved the same window
        enc = self.lib.from_range(-width, width, bits, num_vars=len(p0))
        want = self.lib.decode(enc, won[0])
        got = json.loads(report_path.read_text())["solution"]
        check(np.array_equal(got, want), f"solve-linear gave {got}, the stages {want.tolist()}")


class AnnealSampling(Workload):
    """simulated_anneal alone, in a tall shape (12-bit regression fit, many
    reads) and a wide one (48-bit linear QUBO, one full read chunk)."""

    cycle = ("tall", "wide")

    def generate(self):
        rng = np.random.default_rng(self.seed)
        self.data = self.lib.generate_dataset(50)
        self.basis = self.lib.polynomial_basis(self.data.x_grid, 2)
        self.tall_enc = self.lib.from_range(0.0, 15.0, 4, num_vars=3)
        self.seeds = [int(s) for s in rng.integers(2**31, size=POOL)]
        self.first_tall = None

    def instance(self, pq, k, shape):
        seed = self.seeds[k % POOL]
        if shape == "tall":
            reads, sweeps = self.sizes["anneal"]["tall"]
            system = pq.normal_equations(self.data, self.basis)
            p1, p0 = system.coeffs[1], system.coeffs[0]
            check(np.allclose(np.linalg.solve(p1, -p0), REGRESSION_ANSWER, atol=1e-6),
                  "normal equations do not solve to (8, 4, 7)")
            qm = pq.compile_linear_qubo(system, self.tall_enc)
            samples = pq.simulated_anneal(qm, reads=reads, sweeps=sweeps, seed=seed)
            bits = np.array(samples.best.bits, dtype=np.uint8)
            params = pq.decode(self.tall_enc, bits)
            check(np.array_equal(params, REGRESSION_ANSWER), f"fit {params.tolist()}")
            r = p1 @ params + p0  # (8, 4, 7) is the exact ground
            ground = float(r @ r)
            tol = 1e-9 * (1.0 + float(p0 @ p0))
            check(samples.best.energy >= ground - tol, "anneal undercut the exact ground")
            if self.first_tall is None:
                self.first_tall = (seed, bits)
            return {"ground_fraction": samples.ground_fraction(),
                    "hit": bool(abs(samples.best.energy - ground) <= tol)}
        n, reads, sweeps = self.sizes["anneal"]["wide"]
        p1 = pq.make_conditioned_matrix(ConditionedSpec(n, KAPPA, seed=seed))
        p0 = pq.make_rhs(n)
        lo, hi = pq.solution_range(p1, p0)
        enc = pq.from_range(lo, hi, 2, num_vars=n)
        qm = pq.compile_linear_qubo(PolynomialSystem([p0, p1]), enc)
        samples = pq.simulated_anneal(qm, reads=reads, sweeps=sweeps, seed=seed)
        x = pq.decode(enc, np.array(samples.best.bits, dtype=np.uint8))
        r = p1 @ x + p0
        check(abs(samples.best.energy - float(r @ r)) <= 1e-9 * (1.0 + float(p0 @ p0)),
              f"anneal energy {samples.best.energy!r} is not the residual {float(r @ r)!r}")
        return {"ground_fraction": samples.ground_fraction(), "hit": None}

    def checks_after(self, pq):
        return [("fit_qubo_same_bits", lambda: self._fit(pq))]

    def _fit(self, pq):
        check(self.first_tall is not None, "no tall instance completed")
        seed, bits = self.first_tall
        reads, sweeps = self.sizes["anneal"]["tall"]
        fit = pq.fit_qubo(self.data, self.basis, self.tall_enc, backend="anneal",
                          reads=reads, sweeps=sweeps, seed=seed)
        check(np.array_equal(fit.bits, bits), "fit_qubo chose different bits than the stages")
        check(np.array_equal(fit.params, REGRESSION_ANSWER), f"fit_qubo gave {fit.params.tolist()}")


class CliCold(Workload):
    """Each CLI command in a fresh interpreter, timed from spawn until the
    report is written.  Start-up, mostly ``import polyqubo``, dominates."""

    cycle = ("solve-poly", "solve-linear-brute", "solve-linear-cg", "regress", "sweep", "iterate")
    min_cycles = 2  # every command runs twice, so its reports can be compared

    def generate(self):
        rng = np.random.default_rng(self.seed)
        linear_seed, sweep_seed, iterate_seed = (int(s) for s in rng.integers(2**31, size=3))
        self.workdir.mkdir(parents=True, exist_ok=True)
        worked = self.workdir / "worked.json"
        self.lib.save_system(PolynomialSystem(WORKED), worked)
        p1 = self.lib.make_conditioned_matrix(ConditionedSpec(4, KAPPA, seed=linear_seed))
        p0 = self.lib.make_rhs(4)
        linear = self.workdir / "linear.json"
        self.lib.save_system(PolynomialSystem([p0, p1]), linear)
        exact = np.linalg.solve(p1, -p0)
        width = math.ceil(10.0 * float(np.max(np.abs(exact)))) / 8.0
        sweep_sizes = [2, 3, 4]
        sweep_minima = []
        for n in sweep_sizes:
            q1 = self.lib.make_conditioned_matrix(ConditionedSpec(n, KAPPA, seed=sweep_seed))
            q0 = self.lib.make_rhs(n)
            x = np.linalg.solve(q1, -q0)
            sweep_minima.append(grid_minimum(q1, q0, x.min(), x.max(), 2))
        self.argv = {
            "solve-poly": ["solve-poly", str(worked), "--lo", "0", "--hi", "3", "--bits", "2",
                           "--aux", "all"],
            "solve-linear-brute": ["solve-linear", str(linear), "--backend", "brute",
                                   f"--lo={-width!r}", f"--hi={width!r}", "--bits", "3"],
            "solve-linear-cg": ["solve-linear", str(linear), "--backend", "cg"],
            "regress": ["regress", "--noiseless", "--backend", "brute", "--lo", "0",
                        "--hi", "15", "--bits", "4"],
            "sweep": ["sweep", "--kind", "size", "--sizes", ",".join(map(str, sweep_sizes)),
                      "--backend", "brute", "--seed", str(sweep_seed)],
            "iterate": ["iterate", "--n", "4", "--kappa", str(KAPPA), "--iters", "9",
                        "--bits", "4", "--instance-seed", str(iterate_seed), "--backend", "brute"],
        }
        iterate_p1 = self.lib.make_conditioned_matrix(ConditionedSpec(4, KAPPA, seed=iterate_seed))
        iterate_p0 = self.lib.make_rhs(4)
        self.oracles = {
            "solve-poly": lambda doc: self._solve_poly(doc),
            "solve-linear-brute": lambda doc: check(
                abs(numpy_residual(p1, p0, np.array(doc["solution"])) * float(p0 @ p0)
                    - grid_minimum(p1, p0, -width, width, 3)) <= 1e-9 * (1.0 + p0 @ p0),
                "solve-linear brute is not the grid minimum"),
            "solve-linear-cg": lambda doc: check(
                np.allclose(doc["solution"], exact, rtol=1e-4, atol=1e-6)
                and numpy_residual(p1, p0, np.array(doc["solution"])) <= 1e-10,
                "solve-linear cg is not the linear solve"),
            "regress": lambda doc: check(doc["parameters"] == REGRESSION_ANSWER,
                                         f"regress gave {doc['parameters']}"),
            "sweep": lambda doc: check(
                len(doc["rows"]) == len(sweep_minima) and all(
                    abs(row["min_energy"] - want) <= 1e-9 * (1.0 + row["min_energy"])
                    for row, want in zip(doc["rows"], sweep_minima)),
                "sweep minima are not the grid minima"),
            "iterate": lambda doc: self._iterate(doc, iterate_p1, iterate_p0),
        }
        self.reports: dict[str, bytes] = {}

    def _solve_poly(self, doc):
        check(doc["solution"] == [2.0, 3.0] and abs(doc["energy"]) <= 1e-9,
              f"solve-poly gave {doc['solution']} at energy {doc['energy']}")
        check(doc["problem"]["bits"] == 4 and doc["problem"]["auxiliaries"] == 6,
              "solve-poly did not build the 10-bit QUBO")

    def _iterate(self, doc, p1, p0):
        rel = numpy_residual(p1, p0, np.array(doc["final_solution"]))
        check(rel <= TARGET_RESIDUAL and doc["final_residual"] <= TARGET_RESIDUAL,
              f"iterate ended at relative residual {rel:.3e}")
        return rel

    def _report_path(self, shape, tag):
        return self.workdir / f"{shape}.{tag}.json"

    def instance(self, pq, k, shape):
        path = self._report_path(shape, "spawned")
        proc = subprocess.run(
            [sys.executable, "-m", "polyqubo.cli", *self.argv[shape], "--output", str(path)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120,
        )
        check(proc.returncode == 0, f"{shape} exited {proc.returncode}: {proc.stderr.strip()}")
        report = path.read_bytes()
        first = self.reports.setdefault(shape, report)
        check(report == first, f"{shape} reports differ between two runs")
        rel = self.oracles[shape](json.loads(report))
        return {"rel_residual": rel} if shape == "iterate" else {}

    def traced_extra(self, pq, k, shape):
        path = self._report_path(shape, "in-process")
        with contextlib.redirect_stderr(io.StringIO()):
            code = pq.main([*self.argv[shape], "--output", str(path)])
        check(code == 0, f"in-process {shape} exited {code}")
        check(path.read_bytes() == self.reports[shape],
              f"in-process {shape} report differs from the spawned one")


WORKLOADS = {
    "poly_pipeline": PolyPipeline,
    "linear_exact": LinearExact,
    "anneal_sampling": AnnealSampling,
    "cli_cold": CliCold,
}


class Runner:
    """Counts attempts and failures; a failure is logged and the run goes on."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def attempt(self, label, fn):
        self.attempted += 1
        try:
            return True, fn()
        except Exception:  # any failure is counted, reported, and survived
            self.failures.append(f"{label}: {traceback.format_exc(limit=3).strip()}")
            print(self.failures[-1], file=sys.stderr)
            return False, None


def run(name, seed, seconds, trace, smoke, workdir) -> dict:
    plain = Layers()
    tracer = Tracer() if trace else None
    traced = Layers(tracer) if trace else None
    work = WORKLOADS[name](seed, SMOKE if smoke else FULL, workdir, plain)
    gen_times = []
    for _ in range(3):
        started = time.perf_counter()
        work.generate()
        gen_times.append(time.perf_counter() - started)

    runner = Runner()
    checks_pq = traced or plain
    for label, fn in work.checks_before(checks_pq):
        with (tracer.span(f"bench.check.{label}") if tracer else contextlib.nullcontext()):
            runner.attempt(label, fn)

    samples, shapes, traced_samples, outcomes, cycle_samples = [], [], [], [], []
    k = cycles = 0
    deadline = time.perf_counter() + seconds
    while cycles < work.min_cycles or time.perf_counter() < deadline:
        cycle_s, cycle_ok = 0.0, True
        for shape in work.cycle:
            started = time.perf_counter()
            ok, outcome = runner.attempt(f"{shape}#{k}", lambda: work.instance(plain, k, shape))
            elapsed = time.perf_counter() - started
            cycle_s += elapsed
            cycle_ok = cycle_ok and ok
            if ok:
                samples.append(elapsed)
                shapes.append(shape)
                outcomes.append(outcome)
            if tracer is not None:
                tracer.instance = k
                started = time.perf_counter()
                with tracer.span("bench.instance"):
                    ok, _ = runner.attempt(f"traced {shape}#{k}",
                                           lambda: work.instance(traced, k, shape))
                if ok:
                    traced_samples.append(time.perf_counter() - started)
                if work.traced_extra is not None:
                    runner.attempt(f"in-process {shape}#{k}",
                                   lambda: work.traced_extra(traced, k, shape))
                tracer.instance = None
            k += 1
        cycles += 1
        if cycle_ok:
            cycle_samples.append(cycle_s)

    for label, fn in work.checks_after(checks_pq):
        with (tracer.span(f"bench.check.{label}") if tracer else contextlib.nullcontext()):
            runner.attempt(label, fn)

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "workload": name,
        "attempted": runner.attempted,
        "failures": runner.failures,
        "gen_s": median(gen_times),
        "peak_rss_mb": max(own, children) * 1024 / 1e6,  # ru_maxrss is in KiB on Linux
        "samples": samples,
        "shapes": shapes,
        "traced_samples": traced_samples,
        "cycles": cycles,
        "cycle_samples": cycle_samples,
        "cycle_length": len(work.cycle),
        "quality": quality(outcomes),
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__,
                     "polyqubo": polyqubo.__version__},
    }
    if tracer is not None:
        spans_path = workdir.parent / f"spans-{name}-seed{seed}.jsonl"
        tracer.write(spans_path)
        result["spans_file"] = str(spans_path)
        result["layers"] = layer_table(tracer.spans)
        result["layers_by_shape"] = {
            shape: layer_table([s for s in tracer.spans if s["instance"] is not None
                                and work.cycle[s["instance"] % len(work.cycle)] == shape])
            for shape in work.cycle
        }
        result["self_s_total"] = sum(self_times(tracer.spans))
    return result


def quality(outcomes: list[dict]) -> dict:
    hits = [o["hit"] for o in outcomes if o.get("hit") is not None]
    fractions = [o["ground_fraction"] for o in outcomes if "ground_fraction" in o]
    residuals = [o["rel_residual"] for o in outcomes if o.get("rel_residual") is not None]
    return {
        "anneal_hit_rate": sum(hits) / len(hits) if hits else None,
        "anneal_refs": len(hits),
        "ground_fraction.mean": sum(fractions) / len(fractions) if fractions else None,
        "annealed": len(fractions),
        "rel_residual.max": max(residuals) if residuals else None,
        "refined": len(residuals),
    }


def main(argv) -> int:
    name, seed, seconds, trace, smoke, workdir = argv
    result = run(name, int(seed), float(seconds), trace == "1", smoke == "1", Path(workdir))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
