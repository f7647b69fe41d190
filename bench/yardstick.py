"""A fixed reference computation that measures how fast the host runs right now.

The machine the benchmark was defined on is shared, and its speed swings by
up to 1.8x within seconds: one `averaged_bounds` call took 157 ms in one
second and 295 ms a few seconds later, in CPU time as in wall time.  Over a
whole run the share of time spent slow differs from run to run, so wall
times of the same code spread by 20-30% between runs.

A run therefore times a small part of this yardstick before its first op and
after every op.  Each op's time is divided by the slowdown measured on either
side of it, the mean of the two yardstick times over the part's nominal time.
The yardstick lives here, not in coopmac, so no change to the program can
move it.  It has two parts, each shaped like one half of the program's work:

- `python_part`: scalar adaptive Simpson quadrature of smooth integrands,
  as `analytic_bounds` does through `quadrature.adaptive_simpson`;
- `numpy_part`: uniform points in a disc, distances with `np.hypot`, a tier
  lookup with `np.searchsorted` and a `np.lexsort`, as a Monte-Carlo chunk
  does.

The Python part needs nothing but the standard library, so set-up can be
bracketed from before its first import (see setup_probe.py).
"""

from __future__ import annotations

import math
import time

# Nominal times of the two parts in seconds: their 10th percentiles over 1800
# timings on an Intel Xeon (2 vCPUs, Python 3.11, numpy 2.4), that is their
# time when the host runs at full speed.  They are constants, so every commit
# is scaled by the same rule, and a scaled time reads as the wall time at
# full speed.
NOMINAL_S = {"python": 0.0031, "numpy": 0.0034}

EDGES = (48.2, 67.1, 74.7, 100.0)
POINTS = 15_000  # sized so that each part takes ~3 ms
DENSITIES = (0.0005, 0.001, 0.0015, 0.002, 0.0025, 0.003, 0.0035, 0.004)


def _simpson(f, a, fa, m, fm, b, fb, whole, tol):
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    err = left + right - whole
    if abs(err) <= 15.0 * tol:
        return left + right + err / 15.0
    return _simpson(f, a, fa, lm, flm, m, fm, left, 0.5 * tol) + _simpson(f, m, fm, rm, frm, b, fb, right, 0.5 * tol)


def python_part() -> float:
    total = 0.0
    for lam in DENSITIES:
        def f(r, lam=lam):
            return 2.0 * math.pi * r * lam * math.exp(-lam * math.pi * r * r) * (1.0 + math.cos(r / 7.0))

        a, b = 0.0, 100.0
        m = 0.5 * (a + b)
        fa, fm, fb = f(a), f(m), f(b)
        total += _simpson(f, a, fa, m, fm, b, fb, (b - a) / 6.0 * (fa + 4.0 * fm + fb), 1e-9)
    return total


def numpy_part() -> float:
    import numpy as np

    rng = np.random.default_rng(20161003)
    r = 100.0 * np.sqrt(rng.random(POINTS))
    theta = 2.0 * np.pi * rng.random(POINTS)
    d = np.hypot(r * np.cos(theta) - 30.0, r * np.sin(theta))
    tier = np.searchsorted(EDGES, d)
    order = np.lexsort((d, tier))
    return float(d[order[: POINTS // 10]].sum())


PARTS = {"python": python_part, "numpy": numpy_part}


class Yardstick:
    """Times one part of the yardstick whenever `measure` is called."""

    def __init__(self, part: str):
        self.part = part
        self.fn = PARTS[part]
        self.seconds = []

    def measure(self) -> None:
        t0 = time.perf_counter()
        self.fn()
        self.seconds.append(time.perf_counter() - t0)

    def factors(self) -> list:
        """The slowdown during each interval between two samples: the mean of
        the two samples' times over the nominal time.  2.0 means the host ran
        at half speed."""
        s = [t / NOMINAL_S[self.part] for t in self.seconds]
        return [0.5 * (a + b) for a, b in zip(s, s[1:])]
