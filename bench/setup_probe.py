#!/usr/bin/env python3
"""One set-up of the benchmark in a fresh process, bracketed by the yardstick.

    python3 bench/setup_probe.py --workload mc_dense

Imports the harness and coopmac from ./src, reads the reference and returns
from one warm-up call, as a run does before its ops, and times the Python
yardstick part before the first import and after each stage.  It then prints
one line: `ready` and a JSON object with each stage's seconds, the host's
slowdown during each stage and the seconds the yardstick itself took.
`run.measure_setup` starts it and scales the set-up time by that slowdown.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time

from yardstick import Yardstick


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    workload = parser.parse_args().workload

    yard = Yardstick("python")
    yard.measure()
    stages = []

    def stage(fn):
        t0 = time.perf_counter()
        value = fn()
        stages.append(time.perf_counter() - t0)
        yard.measure()
        return value

    run = stage(lambda: importlib.import_module("run"))  # numpy, the harness and the thread settings
    cm = stage(run.load_program)  # coopmac and scipy.stats
    stage(run.load_reference)
    stage(lambda: run.warm_up(cm, workload))
    report = {"stage_s": stages, "slowdown": yard.factors(), "yardstick_s": sum(yard.seconds)}
    print("ready " + json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
