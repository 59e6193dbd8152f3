"""polyqubo benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload poly_pipeline --seed 1 --seconds 20 --trace 0

Each workload runs in its own child process (perfbench/workload.py), so its
set-up time and peak memory are its own.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The lines before it print every metric by name with its unit.
``--workload all`` runs the four workloads in turn and, traced, ends with a
table in the layout of ROADMAP.md's baseline.  ``--smoke`` shrinks every
size while keeping the oracles.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from tracing import median, tail_percentile

HERE = Path(__file__).resolve().parent
WORKLOADS = ("poly_pipeline", "linear_exact", "anneal_sampling", "cli_cold")
IMPORT_REPEATS = 5  # set-up is measured several times and the median reported
CHILD_BUDGET_S = 170  # a run must end within 180 s

# per-layer metrics: (metric name, span name, kind, count key, unit);
# kind "s" is mean self seconds per call, "mean" a count's mean per call,
# "max" its largest value, "rate" the count over the span's self seconds
PER_LAYER = [
    ("encoding.from_range.s", "encoding.from_range", "s", None, "s"),
    ("encoding.decode.s", "encoding.decode", "s", None, "s"),
    ("encoding.refine.s", "encoding.refine", "s", None, "s"),
    ("polysys.chi_squared.s", "polysys.chi_squared", "s", None, "s"),
    ("compiler.compile_pubo.s", "compiler.compile_pubo", "s", None, "s"),
    ("compiler.compile_pubo.terms", "compiler.compile_pubo", "mean", "terms", "count"),
    ("compiler.compile_pubo.terms_per_s", "compiler.compile_pubo", "rate", "terms", "1/s"),
    ("compiler.pubo_energy.s", "compiler.pubo_energy", "s", None, "s"),
    ("compiler.pubo_energy.states_per_s", "compiler.pubo_energy", "rate", "states", "1/s"),
    ("compiler.quadratize.s", "compiler.quadratize", "s", None, "s"),
    ("compiler.quadratize.aux", "compiler.quadratize", "mean", "aux", "count"),
    ("compiler.quadratize.qubo_bits", "compiler.quadratize", "mean", "qubo_bits", "count"),
    ("compiler.quadratize.penalty", "compiler.quadratize", "mean", "penalty", "coeff"),
    ("compiler.quadratize.dyn_range", "compiler.quadratize", "mean", "dyn_range", "ratio"),
    ("compiler.compile_linear_qubo.s", "compiler.compile_linear_qubo", "s", None, "s"),
    ("solvers.brute_force.s", "solvers.brute_force", "s", None, "s"),
    ("solvers.brute_force.states", "solvers.brute_force", "mean", "states", "count"),
    ("solvers.brute_force.states_per_s", "solvers.brute_force", "rate", "states", "1/s"),
    ("solvers.brute_force.num_ground", "solvers.brute_force", "mean", "num_ground", "count"),
    ("solvers.simulated_anneal.s", "solvers.simulated_anneal", "s", None, "s"),
    ("solvers.simulated_anneal.flips", "solvers.simulated_anneal", "mean", "flips", "count"),
    ("solvers.simulated_anneal.flips_per_s", "solvers.simulated_anneal", "rate", "flips", "1/s"),
    ("solvers.simulated_anneal.buffer_mb", "solvers.simulated_anneal", "max", "buffer_mb", "MB"),
    ("solvers.conjugate_gradient.s", "solvers.conjugate_gradient", "s", None, "s"),
    ("solvers.conjugate_gradient.iterations", "solvers.conjugate_gradient", "mean",
     "iterations", "count"),
    ("linsys.make_conditioned_matrix.s", "linsys.make_conditioned_matrix", "s", None, "s"),
    ("linsys.iterate_solve.s", "linsys.iterate_solve", "s", None, "s"),
    ("linsys.iterate_solve.rounds", "linsys.iterate_solve", "mean", "rounds", "count"),
    ("linsys.run_sweep.s", "linsys.run_sweep", "s", None, "s"),
    ("regression.normal_equations.s", "regression.normal_equations", "s", None, "s"),
    ("regression.fit_qubo.s", "regression.fit_qubo", "s", None, "s"),
    ("cli.main.s", "cli.main", "s", None, "s"),
    ("cli.report_bytes", "cli.main", "mean", "report_bytes", "count"),
]
# the layer each workload exists to load: its share of traced self time
TARGET_LAYER = {
    "poly_pipeline": "compiler.",
    "linear_exact": "solvers.brute_force",
    "anneal_sampling": "solvers.simulated_anneal",
}


def layer_metric(row: dict | None, kind: str, key: str | None) -> float:
    if row is None or row["calls"] == 0:
        return 0.0  # the workload never calls this function
    if kind == "s":
        return row["self_s"] / row["calls"]
    value = row["counts"].get(key, 0.0)
    if kind == "mean":
        return value / row["calls"]
    if kind == "max":
        return value
    return value / row["self_s"] if row["self_s"] > 0 else 0.0


def bench_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = threads
    return env


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fresh_import(env: dict, code: str) -> list[float]:
    """Run ``code`` in a fresh interpreter; it prints seconds, space-separated."""
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    return [float(v) for v in out.split()]


IMPORT_CODE = ("import time; t = time.perf_counter(); import polyqubo; "
               "print(time.perf_counter() - t)")
SCIPY_CODE = ("import time; t = time.perf_counter(); import numpy; u = time.perf_counter(); "
              "import scipy.linalg; print(u - t, time.perf_counter() - u)")


def run_workload(name: str, args, env: dict, out_dir: Path, started: float) -> dict:
    imports = [fresh_import(env, IMPORT_CODE)[0] for _ in range(IMPORT_REPEATS)]
    extra = {}
    if args.trace and name == "cli_cold":
        pairs = [fresh_import(env, SCIPY_CODE) for _ in range(3)]
        extra = {"numpy_import_s": median([p[0] for p in pairs]),
                 "scipy_linalg_import_s": median([p[1] for p in pairs])}
    workdir = out_dir / f"work-{name}-{os.getpid()}"
    budget = max(30.0, CHILD_BUDGET_S - (time.perf_counter() - started))
    proc = subprocess.run(
        [sys.executable, str(HERE / "workload.py"), name, str(args.seed), str(args.seconds),
         str(args.trace), "1" if args.smoke else "0", str(workdir)],
        env=env, stdout=subprocess.PIPE, text=True, timeout=budget,
    )
    for path in sorted(workdir.glob("*")) if workdir.exists() else ():
        path.unlink()
    if workdir.exists():
        workdir.rmdir()
    if proc.returncode != 0:
        raise RuntimeError(f"workload {name} exited with code {proc.returncode}")
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    child["import_s"] = median(imports)
    child.update(extra)
    return summarize(child, args)


def summarize(child: dict, args) -> dict:
    samples, cycle_samples = child["samples"], child["cycle_samples"]
    failed = len(child["failures"])
    e2e = {}
    if samples and cycle_samples:
        pct, tail, beyond = tail_percentile(samples)
        e2e = {
            "setup_s": child["import_s"] + child["gen_s"],
            # the unit is a whole cycle, which holds each shape at its share
            # of the mix: a median of single instances would fall between
            # the shapes and follow whichever side the machine favoured
            "solve_s.p50": median([c / child["cycle_length"] for c in cycle_samples]),
            "solve_s.tail": tail,
            "instances_per_s": len(samples) / sum(samples),
            "peak_rss_mb": child["peak_rss_mb"],
        }
        child["tail"] = {"percentile": pct, "samples": len(samples), "beyond": beyond}
    child["end_to_end"] = e2e
    child["failed"] = failed
    child["correct"] = failed == 0 and bool(samples)
    if args.trace:
        layers = child["layers"]
        child["per_layer"] = {
            metric: layer_metric(layers.get(span), kind, key)
            for metric, span, kind, key, _ in PER_LAYER
        }
        child["per_layer"]["cli.import_s"] = child["import_s"]
    return child


UNITS = {"setup_s": "s", "solve_s.p50": "s", "solve_s.tail": "s", "instances_per_s": "1/s",
         "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {metric: unit for metric, _, _, _, unit in PER_LAYER}
PER_LAYER_UNITS["cli.import_s"] = "s"


def print_block(res: dict, args) -> None:
    q = res["quality"]
    print(f"== {res['workload']}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}"
          f"{'  smoke' if args.smoke else ''}")
    e2e = res["end_to_end"]
    if e2e:
        tail = res["tail"]
        print(f"  setup_s               {e2e['setup_s']:.4f} s  (import polyqubo "
              f"{res['import_s']:.4f} s, median of {IMPORT_REPEATS}; inputs {res['gen_s']:.4f} s)")
        print(f"  solve_s.p50           {e2e['solve_s.p50']:.4f} s  (median of seconds per instance "
              f"over {len(res['cycle_samples'])} whole cycles of {res['cycle_length']})")
        print(f"  solve_s.tail          {e2e['solve_s.tail']:.4f} s  (p{tail['percentile']} of "
              f"{tail['samples']} samples, {tail['beyond']} beyond it)")
        print(f"  instances_per_s       {e2e['instances_per_s']:.4f} 1/s")
        print(f"  peak_rss_mb           {e2e['peak_rss_mb']:.1f} MB")
    print(f"  failed_share          {res['failed'] / res['attempted']:.4f}  "
          f"({res['failed']} of {res['attempted']} attempted)")
    hit = q["anneal_hit_rate"]
    print("  anneal_hit_rate       " + (f"{hit:.4f}  ({q['anneal_refs']} annealed instances "
          "with an exact reference)" if hit is not None else "n/a  (no exact reference here)"))
    gf = q["ground_fraction.mean"]
    print("  ground_fraction.mean  " + (f"{gf:.4f}  (over {q['annealed']} annealed instances)"
          if gf is not None else "n/a  (nothing annealed here)"))
    rr = q["rel_residual.max"]
    print("  rel_residual.max      " + (f"{rr:.3e}  (over {q['refined']} refined answers)"
          if rr is not None else "n/a  (no refined linear answers here)"))
    by_shape = {}
    for shape, t in zip(res["shapes"], res["samples"]):
        by_shape.setdefault(shape, []).append(t)
    if len(by_shape) > 1:
        print("  per shape: " + ", ".join(f"{shape} p50 {median(ts):.4f} s (n={len(ts)})"
                                          for shape, ts in by_shape.items()))
    if args.trace:
        print_trace(res)
    for failure in res["failures"][:5]:
        print("  FAILED " + failure.splitlines()[0])


def print_trace(res: dict) -> None:
    traced = res["traced_samples"]
    if traced and res["samples"]:
        plain, with_spans = median(res["samples"]), median(traced)
        print(f"  tracing overhead      {with_spans - plain:+.4f} s on solve_s.p50 "
              f"({100 * (with_spans - plain) / plain:+.2f} %; traced {with_spans:.4f} s, "
              f"untraced {plain:.4f} s)")
    total = res["self_s_total"]
    print(f"  self time by span ({total:.3f} s traced in all; instance and check roots are "
          "the benchmark's own work; iterate_solve, fit_qubo and run_sweep are frontends "
          "whose inner split needs tracing inside the library)")
    rows = sorted(res["layers"].items(), key=lambda item: -item[1]["self_s"])
    for name, row in rows:
        counts = ", ".join(f"{k} {v / row['calls']:.4g}" if k != "buffer_mb" else
                           f"buffer_mb {v:.4g} (computed)" for k, v in row["counts"].items())
        print(f"    {name:34s} {row['calls']:6d} calls {row['self_s']:9.4f} s "
              f"{100 * row['self_s'] / total:6.2f} %  {counts}")
    target = TARGET_LAYER.get(res["workload"])
    if target:
        share = sum(r["self_s"] for n, r in res["layers"].items() if n.startswith(target)) / total
        print(f"  target layer {target.rstrip('.')}: {100 * share:.1f} % of self time")
    if res["workload"] == "cli_cold" and res["samples"]:
        ratio = res["import_s"] / median(res["samples"])
        print(f"  cli.import_s is {100 * ratio:.1f} % of solve_s.p50")
    print("  per-layer metrics:")
    for metric, value in res["per_layer"].items():
        print(f"    {metric:40s} {value:.6g} {PER_LAYER_UNITS[metric]}")


def baseline_table(results: dict) -> None:
    """The rows of ROADMAP.md's baseline table, regenerated from traced runs."""
    def shape_row(workload, shape, span):
        table = results[workload]["layers_by_shape"].get(shape, {})
        return table.get(span) or {"calls": 0, "self_s": 0.0, "counts": {}}

    def per_call(row, key=None):
        if not row["calls"]:
            return 0.0
        return (row["counts"].get(key, 0) if key else row["self_s"]) / row["calls"]

    def rate(row, key):
        return row["counts"].get(key, 0) / row["self_s"] if row["self_s"] else 0.0

    print("| layer / path | workload | time |")
    print("| --- | --- | --- |")
    cli = results["cli_cold"]
    spawned = [t for s, t in zip(cli["shapes"], cli["samples"]) if s == "solve-poly"]
    work = shape_row("cli_cold", "solve-poly", "cli.main")
    print(f"| CLI cold start, end to end | `solve-poly` worked example, `--aux all` | "
          f"{median(spawned):.2f} s wall, of which {per_call(work):.3f} s is in-process "
          f"`cli.main` |")
    print(f"| `import polyqubo` | — | {cli['import_s']:.2f} s; `numpy` alone "
          f"{cli.get('numpy_import_s', 0.0):.2f} s, then `scipy.linalg` "
          f"{cli.get('scipy_linalg_import_s', 0.0):.2f} s |")
    poly = results["poly_pipeline"]
    energy = poly["layers"].get("compiler.pubo_energy", {"calls": 0, "self_s": 0.0, "counts": {}})
    print(f"| `pubo_energy` | `poly_pipeline` identity checks | {per_call(energy) * 1e3:.1f} ms "
          f"per call, {rate(energy, 'states') / 1e3:.1f} kstates/s |")
    compiled = shape_row("poly_pipeline", "big", "compiler.compile_pubo")
    quad = shape_row("poly_pipeline", "big", "compiler.quadratize")
    print(f"| `compile_pubo` | quadratic system, V=4, R=5 "
          f"({per_call(compiled, 'terms'):.0f} terms) | {per_call(compiled) * 1e3:.0f} ms; "
          f"`quadratize` of the result takes {per_call(quad) * 1e3:.0f} ms |")
    brute = results["linear_exact"]["layers"].get("solvers.brute_force")
    print(f"| `brute_force` (QUBO) | {math.log2(per_call(brute, 'states') or 1):.0f}-bit linear system "
          f"(`linear_exact`) | {per_call(brute):.3f} s, or {rate(brute, 'states') / 1e6:.1f} "
          f"Mstates/s |")
    wide = shape_row("anneal_sampling", "wide", "solvers.simulated_anneal")
    print(f"| `simulated_anneal` | `anneal_sampling` wide shape, "
          f"{per_call(wide, 'flips'):.3g} flips | {per_call(wide):.2f} s, or "
          f"{rate(wide, 'flips') / 1e6:.1f} Mflips/s |")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="small sizes, same oracles")
    args = parser.parse_args(argv)
    started = time.perf_counter()

    root = HERE.parent
    if not (root / "src" / "polyqubo" / "__init__.py").is_file():
        print(f"error: no polyqubo sources under {root / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    env = bench_env(root)
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            res = run_workload(name, args, env, out_dir, started)
        except (RuntimeError, subprocess.SubprocessError, ValueError, OSError) as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
        res["env"] = {"python": platform.python_version(), **res.pop("versions"),
                      "nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
                      "blas_threads": env["OMP_NUM_THREADS"]}
        results[name] = res
        print_block(res, args)
        (out_dir / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(res, indent=1) + "\n")
    print("env: " + ", ".join(f"{k} {v}" for k, v in results[names[0]]["env"].items()))
    if args.workload == "all" and args.trace:
        baseline_table(results)

    units = PER_LAYER_UNITS if args.trace else UNITS
    key = "per_layer" if args.trace else "end_to_end"
    if len(results) == 1:
        metrics = {m: {"value": v, "unit": units[m]} for m, v in results[names[0]][key].items()}
    else:
        metrics = {name: {m: {"value": v, "unit": units[m]} for m, v in res[key].items()}
                   for name, res in results.items()}
    summary = {
        "correct": all(res["correct"] for res in results.values()),
        "attempted": sum(res["attempted"] for res in results.values()),
        "failed": sum(res["failed"] for res in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
