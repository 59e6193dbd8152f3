"""Tests of the benchmark itself: its statistics, its tracing, and smoke runs.

Run from the root of a checkout:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from run import WORKLOADS  # noqa: E402
from tracing import Layers, Tracer, layer_table, self_times, tail_percentile  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
GATED = [w["name"] for w in SPEC["workloads"]]


def test_gated_workloads_are_runnable_ones():
    assert GATED and set(GATED) <= set(WORKLOADS)


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    samples = list(range(1, 31))  # 30 samples
    pct, value, beyond = tail_percentile(reversed(samples))
    assert (pct, value, beyond) == (66, 20, 10)
    assert sum(s > value for s in samples) == 10


def test_tail_falls_back_to_maximum_below_20_samples():
    assert tail_percentile([3.0, 1.0, 2.0]) == (100, 3.0, 0)
    assert tail_percentile(range(19))[0] == 100
    assert tail_percentile(range(20))[:2] == (50, 9)
    assert tail_percentile(range(21))[:2] == (52, 10)


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        {"name": "root", "parent": None, "start": 0.0, "end": 10.0, "counts": {}},
        {"name": "a", "parent": 0, "start": 1.0, "end": 4.0, "counts": {}},
        {"name": "b", "parent": 1, "start": 2.0, "end": 3.0, "counts": {}},
        {"name": "a", "parent": 0, "start": 5.0, "end": 6.0, "counts": {"n": 2}},
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    table = layer_table(spans)
    assert table["a"] == {"calls": 2, "self_s": 3.0, "counts": {"n": 2}}


def test_layers_pass_through_untraced_and_record_spans_traced():
    import polyqubo

    assert Layers().compile_pubo is polyqubo.compile_pubo
    tracer = Tracer()
    pq = Layers(tracer)
    tracer.instance = 7
    with tracer.span("bench.instance"):
        enc = pq.from_range([0.0, 0.0], [3.0, 3.0], 2)
        system = polyqubo.PolynomialSystem([[-51.0, -46.0], [[2.0, 4.0], [3.0, 2.0]],
                                            [[[2.0, 3.0], [0.0, 1.0]], [[1.0, 2.0], [0.0, 2.0]]]])
        pubo = pq.compile_pubo(system, enc)
    names = [s["name"] for s in tracer.spans]
    assert names == ["bench.instance", "encoding.from_range", "compiler.compile_pubo"]
    assert all(s["instance"] == 7 for s in tracer.spans)
    assert tracer.spans[2]["parent"] == 0
    assert tracer.spans[2]["counts"] == {"terms": len(pubo.terms)}


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct_and_reports_every_declared_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    for line in ("failed_share", "anneal_hit_rate", "ground_fraction.mean", "rel_residual.max"):
        assert f"  {line} " in proc.stdout
    if trace:
        assert "tracing overhead" in proc.stdout
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("--workload", "poly_pipeline", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_gated_workloads_trace_every_layer():
    proc = run_bench("--workload", "all", "--seed", "4", "--seconds", "1", "--trace", "1",
                     "--smoke")
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    unmeasured = [m["name"] for m in SPEC["per_layer"]
                  if not any(metrics[w][m["name"]]["value"] > 0 for w in GATED)]
    assert unmeasured == []
