"""Reference integrator: adaptive Simpson by depth-first scalar recursion.

This is the package's earlier quadrature, kept as a test oracle for the
breadth-first `coopmac.quadrature.adaptive_simpson`.  It calls `f` on one
scalar node at a time and, once its bisection budget is spent, accepts the
remaining panels as they stand.  The two refine the same panels by the same
acceptance test, so while the budget lasts they visit the same nodes and sum
the same panel values in the same tree order.
"""

from __future__ import annotations

import numpy as np


def _panel(f, a, fa, b, fb):
    m = 0.5 * (a + b)
    fm = f(m)
    return m, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-8, max_bisections: int = 1000) -> float:
    """Integrate f over [a, b] to absolute tolerance `tol`.

    Classic adaptive Simpson with Richardson error control: intervals are
    bisected depth first until each local two-panel estimate agrees with
    its one-panel estimate to 15x the locally allotted tolerance, with a
    global cap on the number of bisections.  `f` may return an array, e.g. a
    (lower, upper) pair: the components share the nodes and the largest
    component error decides each bisection.
    """
    if b < a:
        raise ValueError("integration bounds out of order")
    if a == b:
        return 0.0
    fa, fb = f(float(a)), f(float(b))
    m, fm, whole = _panel(f, a, fa, b, fb)
    budget = [max_bisections]
    return _recurse(f, a, fa, m, fm, b, fb, whole, tol, budget)


def _recurse(f, a, fa, m, fm, b, fb, whole, tol, budget):
    lm, flm, left = _panel(f, a, fa, m, fm)
    rm, frm, right = _panel(f, m, fm, b, fb)
    err = left + right - whole
    if budget[0] <= 0 or np.max(np.abs(err)) <= 15.0 * tol:
        return left + right + err / 15.0
    budget[0] -= 1
    half = 0.5 * tol
    return _recurse(f, a, fa, lm, flm, m, fm, left, half, budget) + _recurse(
        f, m, fm, rm, frm, b, fb, right, half, budget
    )
