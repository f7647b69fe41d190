#!/usr/bin/env python3
"""Run one workload for several seeds and report how far its metrics spread.

    python3 bench/spread.py --workload bounds_grid --seeds 201-210 --seconds 20

Runs `bench/run.py` once per seed, one run after another, and prints for each
end-to-end metric the median, the quartiles and the spread, (q3 - q1) / median
with `statistics.quantiles(n=4)`, next to the metric's bound in
BENCHMARK.json.  With --out, the runs and the summary are written as JSON.
Run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    info = json.loads(lines[-2][len("run_info "):])
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "wall_metrics": info["wall_metrics"], "yardstick": info["yardstick"]}


def summary(runs: list, key: str = "metrics") -> dict:
    out = {}
    for name in runs[0][key]:
        values = [r[key][name] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="201-210")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in seed_range(args.seeds):
        runs.append(one_run(args.workload, seed, args.seconds))
        print("seed %d: %s" % (seed, json.dumps(runs[-1]["metrics"])), flush=True)
    scaled, wall = summary(runs), summary(runs, "wall_metrics")
    print("%-20s %12s %8s %8s %10s" % ("metric", "median", "spread", "bound", "wall spread"))
    for name, s in scaled.items():
        print("%-20s %12.6g %8.3f %8.3f %10.3f" % (name, s["median"], s["spread"], bounds[name], wall[name]["spread"]))
    if args.out:
        args.out.write_text(json.dumps({"workload": args.workload, "seconds": args.seconds, "runs": runs,
                                        "end_to_end": scaled, "wall_end_to_end": wall}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
