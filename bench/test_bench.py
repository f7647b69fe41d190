"""Self-tests of the benchmark harness, on tiny workloads.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
import yardstick  # noqa: E402

CM = run.load_program()
REF = run.load_reference()
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {"mc_dense": {"trials": 1000}, "mc_sparse_k": {"trials": 1000}, "bounds_grid": {"densities": (0.0005,)}}


def test_plan_depends_only_on_seed():
    for workload, tiny in TINY.items():
        first = run.plan_pass(workload, np.random.default_rng(7), REF, **tiny)
        assert first == run.plan_pass(workload, np.random.default_rng(7), REF, **tiny)
        assert first != run.plan_pass(workload, np.random.default_rng(8), REF, **tiny)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_passes_its_checks(workload):
    records, _ = run.timed_run(CM, workload, 3, 0.0, REF, min_ops=1, **TINY[workload])
    assert [r.failure for r in records if r.failure] == []
    assert all(r.slowdown > 0.0 and r.slowdown != 1.0 for r in records)
    metrics = run.end_to_end(records, setup_s=1.0)
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["end_to_end"])
    assert all(math.isfinite(m["value"]) and m["value"] > 0 for m in metrics.values())


def test_times_are_scaled_by_the_slowdown():
    records, _ = run.timed_run(CM, "bounds_grid", 3, 0.0, REF, min_ops=1, **TINY["bounds_grid"])
    wall = run.end_to_end(records, setup_s=1.0, normalized=False)
    halved = run.end_to_end([r._replace(slowdown=2.0) for r in records], setup_s=1.0)
    for name, factor in (("op_ms_p50", 0.5), ("op_ms_p90", 0.5), ("time_to_accuracy_s", 0.5), ("work_per_s", 2.0)):
        assert halved[name]["value"] == pytest.approx(factor * wall[name]["value"])
    assert halved["peak_rss_mb"] == wall["peak_rss_mb"] and halved["ok_frac"] == wall["ok_frac"]


def test_yardstick_brackets_every_interval():
    yard = yardstick.Yardstick("numpy")
    for _ in range(3):
        yard.measure()
    factors = yard.factors()
    assert len(factors) == 2 and all(f > 0.0 for f in factors)
    assert factors[0] == pytest.approx(0.5 * (yard.seconds[0] + yard.seconds[1]) / yardstick.NOMINAL_S["numpy"])


def test_setup_is_measured_in_fresh_processes():
    times, slowdowns = run.measure_setup("bounds_grid", samples=1)
    assert len(times) == len(slowdowns) == 1
    assert 0.0 < times[0] < 60.0 and slowdowns[0] > 0.0


def test_shifted_mean_counts_as_failed(monkeypatch):
    original = CM.monte_carlo.estimate_throughput

    def shifted(config, workers=1):
        return [e.__class__(**{**e.__dict__, "mean": e.mean + 3.0}) for e in original(config, workers)]

    monkeypatch.setattr(CM.monte_carlo, "estimate_throughput", shifted)
    records, _ = run.timed_run(CM, "mc_dense", 3, 0.0, REF, min_ops=1, **TINY["mc_dense"])
    failed = [r for r in records if r.failure]
    # a shift leaves the conventional-below-proposed ordering intact, but no
    # proposed mean stays inside its bracket
    assert {r.op.scheme for r in failed} == {"proposed"}
    assert len(failed) == len(records) // 2
    assert run.end_to_end(records, setup_s=1.0)["ok_frac"]["value"] == 1 - len(failed) / len(records)


def test_shifted_bounds_count_as_failed(monkeypatch):
    original = CM.analytic_bounds.averaged_bounds

    def shifted(*args, **kwargs):
        pair = original(*args, **kwargs)
        return pair.__class__(pair.lower + 1e-4, pair.upper + 1e-4)

    monkeypatch.setattr(CM.analytic_bounds, "averaged_bounds", shifted)
    records, _ = run.timed_run(CM, "bounds_grid", 3, 0.0, REF, min_ops=1, **TINY["bounds_grid"])
    failed = {r.op.kind for r in records if r.failure}
    assert {op.kind for op in (r.op for r in records) if op.call == "averaged_bounds"} <= failed


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_and_untraced_results_identical(workload):
    ops = run.plan_pass(workload, np.random.default_rng(5), REF, **TINY[workload])
    tracer = tracing.Tracer()
    originals = {attr: getattr(getattr(CM, module), attr) for module, attr, _, _ in tracing.WRAP_POINTS}
    for op in ops:
        untraced = run.execute(CM, op)
        with tracer.installed(CM):
            traced = run.execute(CM, op)
        assert traced[0] == untraced[0] and traced[2] is None
    assert len(tracer.name) > len(ops)
    assert originals == {attr: getattr(getattr(CM, module), attr) for module, attr, _, _ in tracing.WRAP_POINTS}


@pytest.mark.parametrize("workload", ["mc_dense", "bounds_grid"])
def test_self_times_sum_to_op_span(workload):
    records, _, tracer = run.traced_run(CM, workload, 4, REF, min_ops=1, **TINY[workload])
    assert [r.failure for r in records if r.failure] == []
    residual, min_self = tracer.op_residuals()
    assert residual.size == len(records)
    assert np.abs(residual).max() <= 1e-9
    assert min_self >= 0.0
    _, _, op, _, _, self_s = tracer.arrays()
    for i, r in enumerate(records):
        # the layers' self times add up to the op's untraced time, give or take the
        # overhead recorded for that op (plus 1 ms for the runner's own bookkeeping)
        assert self_s[op == i].sum() <= r.traced_seconds
        assert abs(self_s[op == i].sum() - r.seconds) <= abs(r.traced_seconds - r.seconds) + 1e-3


def test_per_layer_counts_repeat_and_match_benchmark_json():
    first = run.traced_run(CM, "mc_sparse_k", 6, REF, min_ops=1, **TINY["mc_sparse_k"])
    second = run.traced_run(CM, "mc_sparse_k", 6, REF, min_ops=1, **TINY["mc_sparse_k"])
    counts = [{name: (v["calls"], v["elems"]) for name, v in t.summary().items()} for _, _, t in (first, second)]
    assert counts[0] == counts[1]
    metrics = run.per_layer(first[0], first[2], probe_failed=0)
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["per_layer"])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "mc_dense", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode != 0
    assert "{" not in done.stdout
