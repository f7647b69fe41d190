#!/usr/bin/env python3
"""CoopMAC benchmark: seeded workloads over coopmac's public API, every result checked.

    python3 bench/run.py --workload mc_dense --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ./src.  One op is
one public call: `estimate_throughput` on one (regime, density, scheme,
conditioning, seed) cell with exactly one full chunk of trials, or one
`averaged_bounds` / `total_throughput_bounds` call.  A run repeats whole
passes over the workload's cells, each pass with fresh seeds drawn from
`--seed`, until `--seconds` have passed and at least MIN_OPS ops were issued.
Everything runs in this one process with workers=1.  The host's speed swings
within seconds, so a fixed yardstick (yardstick.py) is timed before the first
op and after every op, and each op's time is scaled by the slowdown measured
on either side of it; set-up is scaled the same way (setup_probe.py).

--trace 0 prints the end-to-end metrics.  --trace 1 runs a fixed number of
passes, each op once untraced and once with every layer's functions wrapped
(see tracing.py), checks that both give identical results, and prints the
per-layer counts and self times plus the tracing overhead.  The last line of
standard output is the result as one JSON object; the run information and the
per-cell detail go to bench/out/.  See bench/DESIGN.md for the workloads, the
checks and the metric definitions.
"""

from __future__ import annotations

import os

# Fixed before numpy is imported, so every run uses one BLAS/OpenMP thread.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple, Optional  # noqa: E402

import numpy as np  # noqa: E402

from tracing import Tracer, layer_of  # noqa: E402
from yardstick import Yardstick  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_PATH = HERE / "reference.json"
OUT_DIR = HERE / "out"

MIN_OPS = 100  # ops per run at least, whatever --seconds says
SETUP_SAMPLES = 5  # fresh processes timed for setup_s; the median is reported
SIGMAS = 5.0  # check width in standard errors: a fresh seed must not trip a correct op
TARGET_STDERR = 0.01  # Mbps; the accuracy time_to_accuracy_s projects to
MAX_RATE = 11.0  # Mbps; no trial can score more than the fastest link rate
MIN_BAND_MASS = 1e-6  # below this the k-NN bracket is meaningless (see DESIGN.md)
BOUND_TOL = 1e-6  # Mbps, absolute and relative, against the committed reference

# Monte-Carlo cell groups: (regime, density, k, estimator mode); each group is
# run with the proposed and then the conventional scheme on the same seed.
MC_WORKLOADS = {
    # helper placement, hypot, tier lookup and the lexsort dominate
    "mc_dense": {
        "trials": 5000,
        "groups": [(regime, lam, None, "analytic")
                   for lam in (0.004, 0.005) for regime in ("C", "D1", "D2", "all")],
        "probe": [],
    },
    # per-trial fixed costs dominate: Gamma inverse CDF, direct Ps, per-call overhead
    "mc_sparse_k": {
        "trials": 10000,
        "groups": [(regime, lam, k, mode)
                   for lam, k, mode in ((0.0005, None, "analytic"), (0.001, None, "sampled"),
                                        (0.0005, 10, "analytic"), (0.001, 10, "sampled"),
                                        (0.0005, 1, "analytic"))
                   for regime in ("C", "D1", "D2")],
        # known defect at the time the benchmark was defined: the k-NN band lies so
        # deep in the Gamma tail that the link-distance draw returns inf and the
        # estimate a silent 0.  Run and reported on its own, never as a timed op.
        "probe": [(regime, 0.005, 10, "analytic") for regime in ("C", "D1", "D2")],
    },
}
WORKLOADS = tuple(MC_WORKLOADS) + ("bounds_grid",)

# The yardstick part shaped like each workload's work (see yardstick.py).
YARDSTICK_PART = {"mc_dense": "numpy", "mc_sparse_k": "numpy", "bounds_grid": "python"}


class Op(NamedTuple):
    call: str  # estimate_throughput | averaged_bounds | total_throughput_bounds
    regime: str  # C D1 D2 all (Monte Carlo) or C D1 D2 total (bounds)
    density: float
    k: Optional[int]
    scheme: str = ""
    mode: str = ""
    trials: int = 0
    seed: int = 0

    @property
    def kind(self) -> str:
        """The cell without its seed: ops of one kind do the same work."""
        cond = "ppp" if self.k is None else "k=%d" % self.k
        return "|".join((self.call, self.regime, repr(self.density), cond, self.scheme, self.mode))


class Record(NamedTuple):
    op: Op
    seconds: float
    value: Optional[tuple]  # (mean, stderr) or (lower, upper)
    failure: Optional[str]
    warnings: int
    traced_seconds: float = math.nan
    slowdown: float = 1.0  # the host's slowdown while the op ran, from the yardstick

    @property
    def host_seconds(self) -> float:
        """The op's time scaled to the host speed at which the yardstick takes its nominal time."""
        return self.seconds / self.slowdown


# ---------------------------------------------------------------- program

def load_program():
    """Import coopmac from ./src of this checkout; exit 1 if it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        cm = importlib.import_module("coopmac")
        for sub in ("monte_carlo", "analytic_bounds", "stochastic_geometry"):
            importlib.import_module("coopmac." + sub)
    except ImportError as exc:
        raise SystemExit("bench: cannot import coopmac from %s: %s" % (SRC, exc)) from None
    location = Path(cm.__file__).resolve()
    if SRC not in location.parents:
        raise SystemExit("bench: coopmac was imported from %s, not from %s" % (location, SRC))
    return cm


def call_bounds(cm, call, regime, density, k):
    ab = cm.analytic_bounds
    if call == "total_throughput_bounds":
        return ab.total_throughput_bounds(density, k=k)
    return ab.averaged_bounds(regime, density, k=k)


def load_reference() -> dict:
    doc = json.loads(REFERENCE_PATH.read_text())
    return {(e["regime"], e["density"], e["k"]): e for e in doc["entries"]}


def warm_up(cm, workload: str) -> None:
    """One small public call, so lazy imports and first-call costs are paid."""
    if workload == "bounds_grid":
        cm.analytic_bounds.averaged_bounds("C", 0.0005)
    else:
        mc = cm.monte_carlo
        mc.estimate_throughput(mc.ExperimentConfig(densities=(0.001,), trials=1000, chunk_size=1000))


# ---------------------------------------------------------------- workloads

def plan_pass(workload: str, rng, reference: dict, trials: Optional[int] = None, densities=None):
    """One pass over the workload's cells in a seeded order with fresh seeds."""
    if workload == "bounds_grid":
        cells = [Op(e["call"], regime, density, k) for (regime, density, k), e in reference.items()
                 if densities is None or density in densities]
        return [cells[i] for i in rng.permutation(len(cells))]
    spec = MC_WORKLOADS[workload]
    return mc_ops(spec["groups"], rng, trials or spec["trials"], reference)


def mc_ops(groups, rng, trials: int, reference: dict):
    seeds = rng.integers(0, 2**31 - 1, size=len(groups))
    ops = []
    for i in rng.permutation(len(groups)):
        regime, density, k, mode = groups[i]
        if (ref_regime(regime), density, k) not in reference:
            raise ValueError("no reference bounds for %s at %r, k=%r" % (regime, density, k))
        for scheme in ("proposed", "conventional"):
            ops.append(Op("estimate_throughput", regime, density, k, scheme, mode, trials, int(seeds[i])))
    return ops


def ref_regime(regime: str) -> str:
    return "total" if regime == "all" else regime


# ---------------------------------------------------------------- ops and checks

def prepare(cm, op: Op):
    """The zero-argument call for one op, built outside the timed region."""
    if op.call == "estimate_throughput":
        mc = cm.monte_carlo
        config = mc.ExperimentConfig(densities=(op.density,), scheme=op.scheme, regime=op.regime,
                                     trials=op.trials, chunk_size=op.trials, estimator_mode=op.mode,
                                     base_seed=op.seed, k=op.k)
        # looked up at call time, so tracing wrappers and test doubles apply
        return lambda: mc.estimate_throughput(config, workers=1)[0]
    return lambda: call_bounds(cm, op.call, op.regime, op.density, op.k)


def execute(cm, op: Op):
    """Run one op; returns (value, seconds, error, warning count)."""
    fn = prepare(cm, op)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # an op that raises is a failed op, not a crashed run
            return None, time.perf_counter() - t0, "raised %s: %s" % (type(exc).__name__, exc), len(caught)
        seconds = time.perf_counter() - t0
    if op.call == "estimate_throughput":
        value = (float(result.mean), float(result.stderr))
    else:
        value = (float(result.lower), float(result.upper))
    return value, seconds, None, len(caught)


def check(op: Op, value: tuple, reference: dict, partner: Optional[tuple]) -> Optional[str]:
    """None if the op's result passes its check, else the reason it fails."""
    if not all(math.isfinite(v) for v in value):
        return "non-finite result %r" % (value,)
    entry = reference[(ref_regime(op.regime), op.density, op.k)]
    if op.call != "estimate_throughput":
        for got, want in zip(value, (entry["lower"], entry["upper"])):
            if abs(got - want) > BOUND_TOL * max(1.0, abs(want)):
                return "bounds %r differ from reference (%r, %r)" % (value, entry["lower"], entry["upper"])
        return None
    mean, se = value
    if not 0.0 < mean <= MAX_RATE or se < 0.0:
        return "mean %r +/- %r outside (0, %g] Mbps" % (mean, se, MAX_RATE)
    if op.scheme == "conventional":
        if partner is None:
            return "proposed estimate for the same cell is missing"
        limit = partner[0] + SIGMAS * math.hypot(partner[1], se)
        return None if mean <= limit else "conventional %r above proposed %r + 5 sigma" % (mean, partner[0])
    lower, upper = entry["lower"], entry["upper"]
    if op.k is not None:
        mass = entry["band_mass"]
        if mass < MIN_BAND_MASS:
            return None
        lower, upper = lower / mass, upper / mass
    if lower - SIGMAS * se <= mean <= upper + SIGMAS * se:
        return None
    return "mean %r +/- %r outside bounds [%r, %r]" % (mean, se, lower, upper)


def run_ops(cm, ops, reference: dict, tracer: Optional[Tracer] = None, first_id: int = 0, between=None):
    """Run and check ops in order; with a tracer, each op runs untraced and then traced.
    `between`, if given, is called after each op, outside its timing."""
    records = []
    partner = None
    for i, op in enumerate(ops):
        value, seconds, failure, n_warn = execute(cm, op)
        traced_seconds = math.nan
        if tracer is not None:
            tracer.op_id = first_id + i
            with tracer.installed(cm):
                traced_value, traced_seconds, _, _ = execute(cm, op)
            if failure is None and traced_value != value:
                failure = "traced result %r differs from untraced %r" % (traced_value, value)
        if failure is None:
            failure = check(op, value, reference, partner)
        if op.scheme == "proposed":
            partner = value
        records.append(Record(op, seconds, value, failure, n_warn, traced_seconds))
        if between is not None:
            between()
    return records


# ---------------------------------------------------------------- metrics

def by_kind(records):
    groups = {}
    for r in records:
        groups.setdefault(r.op.kind, []).append(r)
    return groups


def end_to_end(records, setup_s: float, normalized: bool = True) -> dict:
    """The end-to-end metrics; with `normalized`, from host-speed-scaled op times
    (`Record.host_seconds`), else from wall times."""
    ok = [r for r in records if r.failure is None]
    if not ok:
        raise RuntimeError("no op succeeded, so no timing metric exists")
    seconds = (lambda r: r.host_seconds) if normalized else (lambda r: r.seconds)  # noqa: E731
    kinds = by_kind(ok)
    # One latency per cell kind, the mean of its ops: every kind occurs once a
    # pass, so these are the op latencies of one typical pass.  Percentiles of
    # single ops would fall in the gaps between kinds and jump with the noise.
    kind_s = [statistics.fmean(seconds(r) for r in rs) for rs in kinds.values()]
    pass_s = sum(kind_s)
    mc = ok[0].op.call == "estimate_throughput"
    if mc:
        work = sum(rs[0].op.trials for rs in kinds.values())
        to_accuracy = sum(statistics.fmean(seconds(r) * (r.value[1] / TARGET_STDERR) ** 2 for r in rs)
                          for rs in kinds.values())
    else:
        work = len(kinds)
        to_accuracy = pass_s
    p50, p90 = np.percentile(kind_s, [50, 90]) * 1e3
    metrics = {
        "setup_s": (setup_s, "s"),
        "work_per_s": (work / pass_s, "1/s"),
        "op_ms_p50": (float(p50), "ms"),
        "op_ms_p90": (float(p90), "ms"),
        "time_to_accuracy_s": (to_accuracy, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": (len(ok) / len(records), "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def per_layer(records, tracer: Tracer, probe_failed: int) -> dict:
    s = tracer.summary()
    empty = {"calls": 0, "elems": 0, "self_s": 0.0}
    get = lambda name: s.get(name, empty)  # noqa: E731
    trials = sum(r.op.trials for r in records)
    sampled = get("stochastic_geometry.tier_index")["elems"]
    kept = get("channel_model.g_joint@monte_carlo")["elems"]
    layer_self = {}
    for name, v in s.items():
        layer_self[layer_of(name)] = layer_self.get(layer_of(name), 0.0) + v["self_s"]
    untraced = sum(r.seconds for r in records)
    traced = sum(r.traced_seconds for r in records)
    m = {
        "monte_carlo.self_s": (layer_self.get("monte_carlo", 0.0), "s"),
        "monte_carlo.points_sampled_per_trial": (sampled / trials if trials else 0.0, "1/trial"),
        "monte_carlo.points_kept_per_trial": (kept / trials if trials else 0.0, "1/trial"),
        "monte_carlo.keep_ratio": (kept / sampled if sampled else 0.0, "ratio"),
        "monte_carlo.runtime_warnings": (sum(r.warnings for r in records), "count"),
        "monte_carlo.defect_probe_failed": (probe_failed, "count"),
    }
    for name, label in (("tier_index", "stochastic_geometry.tier_index"),
                        ("lens_area", "stochastic_geometry.lens_area"),
                        ("nn_distance_pdf", "stochastic_geometry.nn_distance_pdf")):
        v = get(label)
        m[label + ".calls"] = (v["calls"], "count")
        if name == "tier_index":
            m[label + ".elems"] = (v["elems"], "count")
        m[label + ".self_s"] = (v["self_s"], "s")
    for fn in ("g_joint", "p_success_direct"):
        for caller in ("monte_carlo", "analytic_bounds"):
            v = get("channel_model.%s@%s" % (fn, caller))
            prefix = "channel_model.%s.%s" % (fn, caller)
            m[prefix + ".calls"] = (v["calls"], "count")
            m[prefix + ".elems"] = (v["elems"], "count")
            m[prefix + ".self_s"] = (v["self_s"], "s")
    v = get("quadrature.adaptive_simpson")
    m["quadrature.adaptive_simpson.calls"] = (v["calls"], "count")
    m["quadrature.adaptive_simpson.self_s"] = (v["self_s"], "s")
    m["quadrature.integrand_evals"] = (get("analytic_bounds.integrand")["calls"], "count")
    for fn in ("link_bounds_at_distance", "tier_probabilities", "tier_bound_pair", "h_integral"):
        v = get("analytic_bounds." + fn)
        m["analytic_bounds.%s.calls" % fn] = (v["calls"], "count")
        m["analytic_bounds.%s.self_s" % fn] = (v["self_s"], "s")
    for layer in ("analytic_bounds", "stochastic_geometry", "channel_model"):
        m[layer + ".self_s"] = (layer_self.get(layer, 0.0), "s")
    m["trace.spans"] = (len(tracer.name), "count")
    m["trace.overhead_s"] = (traced - untraced, "s")
    m["trace.overhead_frac"] = ((traced - untraced) / untraced, "ratio")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


# ---------------------------------------------------------------- run info

def git_commit() -> Optional[str]:
    """HEAD of the checkout's git repository, read from .git; None when there is none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    """sha256 over the package sources, which identifies the code measured."""
    h = hashlib.sha256()
    for path in sorted((SRC / "coopmac").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_info(args) -> dict:
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(), "platform": platform.platform(),
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "git_commit": git_commit(), "src_sha256": src_digest(),
        "threads": {var: os.environ[var] for var in THREAD_VARS}, "workers": 1,
    }


# ---------------------------------------------------------------- set-up time

def measure_setup(workload: str, samples: int = SETUP_SAMPLES):
    """Set-up times of `samples` fresh processes (setup_probe.py): seconds from
    starting one until it has imported coopmac, read the reference and returned
    from one warm-up call, less the time its yardstick took.  Returns the wall
    times and the host's slowdown during each: the stage slowdowns the process
    measured, weighted by the stages' times."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload]
    times, slowdowns = [], []
    for _ in range(samples):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            try:
                child.wait(timeout=60)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
        if not line.startswith("ready ") or child.returncode != 0:
            raise RuntimeError("set-up process failed (exit %r, said %r)" % (child.returncode, line))
        report = json.loads(line[len("ready "):])
        stage_s, stage_slowdown = report["stage_s"], report["slowdown"]
        times.append(elapsed - report["yardstick_s"])
        slowdowns.append(sum(stage_s) / sum(d / f for d, f in zip(stage_s, stage_slowdown)))
    return times, slowdowns


# ---------------------------------------------------------------- runs

def run_probe(cm, workload: str, rng, reference: dict) -> list:
    spec = MC_WORKLOADS.get(workload)
    if not spec or not spec["probe"]:
        return []
    return run_ops(cm, mc_ops(spec["probe"], rng, spec["trials"], reference), reference)


def timed_run(cm, workload: str, seed: int, seconds: float, reference: dict, min_ops: int = MIN_OPS, **plan):
    """Whole passes until `seconds` have passed and `min_ops` ops were issued.
    The yardstick is timed before the first op and after every op, and each
    record carries the host's slowdown measured on either side of it."""
    rng = np.random.default_rng(seed)
    probe = run_probe(cm, workload, rng, reference)
    yard = Yardstick(YARDSTICK_PART[workload])
    yard.measure()
    records = []
    t0 = time.perf_counter()
    while len(records) < min_ops or time.perf_counter() - t0 < seconds:
        records += run_ops(cm, plan_pass(workload, rng, reference, **plan), reference, between=yard.measure)
    records = [r._replace(slowdown=float(f)) for r, f in zip(records, yard.factors())]
    return records, probe


def traced_run(cm, workload: str, seed: int, reference: dict, min_ops: int = MIN_OPS, **plan):
    """A fixed number of whole passes, so every count repeats exactly for a seed."""
    rng = np.random.default_rng(seed)
    probe = run_probe(cm, workload, rng, reference)
    tracer = Tracer()
    records = []
    while len(records) < min_ops:
        records += run_ops(cm, plan_pass(workload, rng, reference, **plan), reference, tracer, len(records))
    return records, probe, tracer


def describe(records) -> dict:
    kinds = {}
    for kind, rs in by_kind(records).items():
        ok = [r for r in rs if r.failure is None]
        kinds[kind] = {"ops": len(rs), "failed": len(rs) - len(ok),
                       "seconds": [r.seconds for r in ok],
                       "last_value": rs[-1].value}
    failures = [{"kind": r.op.kind, "seed": r.op.seed, "why": r.failure} for r in records if r.failure]
    return {"kinds": kinds, "failures": failures}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cm = load_program()
    reference = load_reference()
    warm_up(cm, args.workload)

    info = run_info(args)
    OUT_DIR.mkdir(exist_ok=True)
    if args.trace:
        records, probe, tracer = traced_run(cm, args.workload, args.seed, reference)
        metrics = per_layer(records, tracer, sum(r.failure is not None for r in probe))
        residual, min_self = tracer.op_residuals()
        info["self_time_residual_max_s"] = float(np.abs(residual).max())
        info["self_time_min_s"] = float(min_self)
        tracer.save(OUT_DIR / ("spans_%s.npz" % args.workload))
    else:
        setup, setup_slowdown = measure_setup(args.workload)
        records, probe = timed_run(cm, args.workload, args.seed, args.seconds, reference)
        metrics = end_to_end(records, statistics.median(t / f for t, f in zip(setup, setup_slowdown)))
        slowdown = [r.slowdown for r in records]
        info["setup_samples_s"] = setup
        info["setup_slowdown"] = setup_slowdown
        info["yardstick"] = {"part": YARDSTICK_PART[args.workload], "slowdown_min": min(slowdown),
                             "slowdown_median": statistics.median(slowdown), "slowdown_max": max(slowdown)}
        info["wall_metrics"] = {name: m["value"] for name, m in
                                end_to_end(records, statistics.median(setup), normalized=False).items()}
    failed = sum(r.failure is not None for r in records)
    info["known_defect_probe"] = {"cells": len(probe), "failed": sum(r.failure is not None for r in probe)}
    detail = {"run_info": info, "metrics": metrics, "ops": describe(records), "probe": describe(probe)}
    (OUT_DIR / ("%s_trace%d.json" % (args.workload, args.trace))).write_text(json.dumps(detail, indent=1) + "\n")

    for name, m in metrics.items():
        print("%-48s %14.6g %s" % (name, m["value"], m["unit"]))
    print("run_info " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
