"""Spans around the benchmark's calls into polyqubo, and the statistics it reports.

The benchmark never calls a polyqubo function directly: it goes through a
:class:`Layers` object.  Untraced, attribute lookup returns the library
function itself, so the timed code path is the library's own.  Traced, each
call runs inside a span (name, start, end, parent, instance id, counts) kept
in memory by a :class:`Tracer` and written out when the run ends.
"""

from __future__ import annotations

import inspect
import json
import math
import os
import statistics
import time
from contextlib import contextmanager

# the modules whose public functions the benchmark traces, by layer name
LAYER_MODULES = ("encoding", "polysys", "compiler", "solvers", "linsys", "regression", "cli")

_READ_CHUNK = 512  # simulated_anneal's default read_chunk


def _anneal_counts(args, kwargs, out):
    qm = args[0]
    reads = kwargs.get("reads", args[1] if len(args) > 1 else 1000)
    sweeps = kwargs.get("sweeps", args[2] if len(args) > 2 else 1000)
    chunk = kwargs.get("read_chunk", _READ_CHUNK)
    return {
        "flips": reads * sweeps * qm.num_bits,
        # uniforms drawn per chunk: computed from the arguments, not measured
        "buffer_mb": min(chunk, reads) * sweeps * qm.num_bits * 8 / 1e6,
    }


def _quadratize_counts(args, kwargs, out):
    mags = abs(out.matrix[out.matrix != 0])
    return {
        "aux": out.num_aux,
        "qubo_bits": out.num_bits,
        "penalty": out.penalty,
        "dyn_range": float(mags.max() / mags.min()) if mags.size else 1.0,
    }


def _pubo_energy_counts(args, kwargs, out):
    shape = getattr(args[1], "shape", ())
    return {"states": math.prod(shape[:-1]) if len(shape) > 1 else 1}


# work done by a call, read from its arguments and result
COUNTERS = {
    "compiler.compile_pubo": lambda a, k, out: {"terms": len(out.terms)},
    "compiler.pubo_energy": _pubo_energy_counts,
    "compiler.quadratize": _quadratize_counts,
    "solvers.brute_force": lambda a, k, out: {
        "states": 2 ** a[0].num_bits, "num_ground": out.num_ground},
    "solvers.simulated_anneal": _anneal_counts,
    "solvers.conjugate_gradient": lambda a, k, out: {"iterations": out.iterations},
    "linsys.iterate_solve": lambda a, k, out: {"rounds": len(out.steps)},
    "cli.main": lambda a, k, out: {
        "report_bytes": os.path.getsize(a[0][a[0].index("--output") + 1])},
}


class Tracer:
    """In-memory span recorder for one single-threaded benchmark process."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.instance: int | None = None

    @contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "instance": self.instance,
            "counts": {},
        }
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name, fn, args, kwargs):
        with self.span(name) as record:
            out = fn(*args, **kwargs)
        counter = COUNTERS.get(name)
        if counter is not None:
            record["counts"] = counter(args, kwargs, out)
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for index, record in enumerate(self.spans):
                fh.write(json.dumps({"id": index, **record}, sort_keys=True) + "\n")


class Layers:
    """polyqubo's public functions by name, each wrapped in a span when tracing."""

    def __init__(self, tracer: Tracer | None = None):
        import importlib

        self._tracer = tracer
        self._functions = {}
        for layer in LAYER_MODULES:
            module = importlib.import_module(f"polyqubo.{layer}")
            names = getattr(module, "__all__", None) or ["main"]
            for name in names:
                fn = getattr(module, name)
                if inspect.isfunction(fn):
                    self._functions[name] = (f"{layer}.{name}", fn)

    def __getattr__(self, name):
        try:
            span_name, fn = self._functions[name]
        except KeyError:
            raise AttributeError(name) from None
        if self._tracer is None:
            return fn
        tracer = self._tracer
        return lambda *args, **kwargs: tracer.call(span_name, fn, args, kwargs)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for record in spans:
        if record["parent"] is not None:
            children.setdefault(record["parent"], []).append((record["start"], record["end"]))
    out = []
    for index, record in enumerate(spans):
        covered = 0.0
        cursor = record["start"]
        for start, end in sorted(children.get(index, ())):
            start = max(start, cursor)
            if end > start:
                covered += end - start
                cursor = end
        out.append(record["end"] - record["start"] - covered)
    return out


def layer_table(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, total self seconds, and summed counts."""
    table: dict[str, dict] = {}
    for record, own in zip(spans, self_times(spans)):
        row = table.setdefault(record["name"], {"calls": 0, "self_s": 0.0, "counts": {}})
        row["calls"] += 1
        row["self_s"] += own
        for key, value in record["counts"].items():
            if key == "buffer_mb":
                row["counts"][key] = max(row["counts"].get(key, 0.0), value)
            else:
                row["counts"][key] = row["counts"].get(key, 0) + value
    return table


def tail_percentile(samples) -> tuple[int, float, int]:
    """Highest whole percentile with at least ten samples beyond it.

    Uses the nearest-rank definition.  Returns (percentile, value, samples
    beyond).  When no percentile from the median up qualifies (fewer than
    20 samples), the maximum is returned as percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for p in range(99, 49, -1):
        index = math.ceil(p * n / 100) - 1
        beyond = n - 1 - index
        if beyond >= 10:
            return p, ordered[index], beyond
    return 100, ordered[-1], 0


def median(samples) -> float:
    return statistics.median(samples)
