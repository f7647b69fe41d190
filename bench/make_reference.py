#!/usr/bin/env python3
"""Regenerate bench/reference.json, the committed bound pairs the benchmark checks against.

Every (call, regime, density, conditioning) that a workload uses gets one
entry: `averaged_bounds` for the C/D1/D2 regimes and `total_throughput_bounds`
(regime "total") over DENSITY_GRID x {ppp, k=1, k=10}.  The bounds_grid
workload compares its results with these pairs; the Monte-Carlo workloads
take their brackets from them, so they never run the quadrature themselves.

Run from the repository root:

    python3 bench/make_reference.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (sets the thread limits and finds the package under src/)


def bounds_grid_cells(densities):
    """(call, regime, density, k) for every bound pair the benchmark uses."""
    return [("total_throughput_bounds" if regime == "total" else "averaged_bounds", regime, float(d), k)
            for k in (None, 1, 10) for regime in ("C", "D1", "D2", "total") for d in densities]


def main() -> int:
    cm = run.load_program()
    import numpy
    import scipy
    from scipy.stats import gamma

    entries = []
    for call, regime, density, k in bounds_grid_cells(cm.monte_carlo.DENSITY_GRID):
        pair = run.call_bounds(cm, call, regime, density, k)
        entry = {"call": call, "regime": regime, "density": density, "k": k,
                 "lower": pair.lower, "upper": pair.upper}
        if k is not None and regime != "total":
            # P{kth-NN distance in the band}: lam*pi*r^2 is Gamma(k, 1) distributed
            a, b = cm.analytic_bounds.REGIMES[regime][:2]
            entry["band_mass"] = float(gamma.sf(density * math.pi * a * a, k)
                                       - gamma.sf(density * math.pi * b * b, k))
        entries.append(entry)
    doc = {
        "generated_at_commit": run.git_commit(),
        "src_sha256": run.src_digest(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "entries": entries,
    }
    run.REFERENCE_PATH.write_text(json.dumps(doc, indent=1) + "\n")
    print("wrote %d entries to %s" % (len(entries), run.REFERENCE_PATH))
    return 0


if __name__ == "__main__":
    sys.exit(main())
