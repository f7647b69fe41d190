"""Adaptive Simpson quadrature for smooth 1-D integrands, refined level by level.

The panels still open at one bisection depth are held in arrays, and all of
their new midpoints go to the integrand in one array call, so an integral
costs one call per depth instead of one per node.  The panels, the nodes and
the acceptance test are those of the classic depth-first recursion, and the
accepted panel values are summed back up the same bisection tree, so the
result is the recursion's to the last bit whenever f's value at a node does
not depend on the other nodes of the call.  The recursion itself is kept as
the test oracle `tests/simpson_oracle.py`.
"""

from __future__ import annotations

import numpy as np


def _values(f, x):
    """f at the nodes x, shape (x.size,) or (components, x.size); a non-finite value raises."""
    fx = np.asarray(f(x), dtype=float)
    if fx.ndim not in (1, 2) or fx.shape[-1] != x.size:
        raise ValueError("integrand must map n nodes to shape (n,) or (c, n), got %r" % (fx.shape,))
    bad = ~np.all(np.isfinite(fx.reshape(-1, x.size)), axis=0)
    if bad.any():
        raise RuntimeError("integrand is not finite at x=%r" % (float(x[bad][0]),))
    return fx


def _halves(lo, hi, split):
    """Interleave the split columns of lo and hi: each left half next to its right half."""
    both = np.stack((lo[..., split], hi[..., split]), axis=-1)
    return both.reshape(lo.shape[:-1] + (-1,))


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-8, max_bisections: int = 1000):
    """Integrate f over [a, b] to absolute tolerance `tol`.

    Adaptive Simpson with Richardson error control: a panel is bisected until
    its two-panel estimate agrees with its one-panel estimate to 15x the
    tolerance allotted to it, which halves with each bisection.  The panels
    are refined breadth first, one depth at a time, and `f` is called once per
    depth on a 1-D array of nodes.  It returns an array of shape (n,), or
    (c, n) for c components sharing the nodes (e.g. a (lower, upper) pair),
    where the largest component error decides each bisection; the result is
    then a float, else an array of shape (c,).

    Raises RuntimeError when more than `max_bisections` bisections would be
    needed or when `f` returns a non-finite value.
    """
    if b < a:
        raise ValueError("integration bounds out of order")
    if a == b:
        return 0.0
    x = np.array((a, 0.5 * (a + b), b), dtype=float)
    fx = _values(f, x)
    vector = fx.ndim == 2
    fx = np.atleast_2d(fx)
    # the open panels [a, b] with midpoint m, one per column
    a, m, b = x[:1], x[1:2], x[2:]
    fa, fm, fb = fx[:, :1], fx[:, 1:2], fx[:, 2:]
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    levels = []  # per depth: (which panels were accepted, their values)
    bisections = 0
    while a.size:
        n = a.size
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        fx = np.atleast_2d(_values(f, np.concatenate((lm, rm))))
        flm, frm = fx[:, :n], fx[:, n:]
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        err = left + right - whole
        done = np.max(np.abs(err), axis=0) <= 15.0 * tol
        levels.append((done, left + right + err / 15.0))
        split = ~done
        bisections += int(split.sum())
        if bisections > max_bisections:
            raise RuntimeError("adaptive_simpson: more than %d bisections needed on [%r, %r]"
                               % (max_bisections, float(x[0]), float(x[-1])))
        a, m, b = _halves(a, m, split), _halves(lm, rm, split), _halves(m, b, split)
        fa, fm, fb = _halves(fa, fm, split), _halves(flm, frm, split), _halves(fm, fb, split)
        whole = _halves(left, right, split)
        tol = 0.5 * tol
    # a split panel's value is the sum of its two halves, as in the recursion
    below = None
    for done, value in reversed(levels):
        if below is not None:
            value[:, ~done] = below[:, 0::2] + below[:, 1::2]
        below = value
    return below[:, 0] if vector else float(below[0, 0])
