"""Adaptive Simpson quadrature for smooth 1-D integrands, refined level by level.

The panels still open at one bisection depth are held as the columns of one
state array, and all of their new midpoints go to the integrand in one array
call, so an integral costs one call per depth instead of one per node.  The
halves of the panels that must be split are carried to the next depth by one
gather of that array.  The panels, the nodes and the acceptance test are
those of the classic depth-first recursion, and the accepted panel values are
summed back up the same bisection tree, so the result is the recursion's to
the last bit whenever f's value at a node does not depend on the other nodes
of the call.  The recursion itself is kept as the test oracle
`tests/simpson_oracle.py`.
"""

from __future__ import annotations

import math

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

    Raises ValueError when an end of the interval is not finite, b < a or
    `tol` is not finite and positive, and RuntimeError when more than
    `max_bisections` bisections would be needed or when `f` returns a
    non-finite value.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integration bounds must be finite, got [%r, %r]" % (a, b))
    if b < a:
        raise ValueError("integration bounds out of order")
    if not 0 < tol < math.inf:  # NaN fails too
        raise ValueError("tol must be positive and finite, got %r" % (tol,))
    if a == b:
        return 0.0
    x = np.array((a, 0.5 * (a + b), b), dtype=float)
    fx = _values(f, x)
    vector = fx.ndim == 2
    c = fx.shape[0] if vector else 1
    # One column per open panel.  Its first 3(1 + c) rows are triples (value
    # at the left end, at the midpoint, at the right end): first of the node
    # itself, then of each of the c components of f; its last c rows hold the
    # components of the panel's one-panel Simpson estimate.
    q = 1 + c
    state = np.empty((3 * q + c, 1))
    state[:3 * q, 0] = np.vstack((x, fx)).ravel()
    fx = np.atleast_2d(fx)
    state[3 * q:] = (x[2] - x[0]) / 6.0 * (fx[:, :1] + 4.0 * fx[:, 1:2] + fx[:, 2:])
    levels = []  # per depth: (which panels were accepted, their values)
    bisections = 0
    while state.shape[1]:
        n = state.shape[1]
        # the two halves of every panel, left halves in columns :n, right ones in n:
        ends = state[:3 * q].reshape(q, 3, n)
        kids = np.empty((3 * q + c, 2 * n))
        tri = kids[:3 * q].reshape(q, 3, 2 * n)
        tri[:, 0] = ends[:, :2].reshape(q, 2 * n)  # [a | m], [f(a) | f(m)]
        tri[:, 2] = ends[:, 1:].reshape(q, 2 * n)  # [m | b], [f(m) | f(b)]
        tri[0, 1] = 0.5 * (tri[0, 0] + tri[0, 2])  # the new nodes
        tri[1:, 1] = _values(f, tri[0, 1])
        one = kids[3 * q:]
        one[...] = (tri[0, 2] - tri[0, 0]) / 6.0 * (tri[1:, 0] + 4.0 * tri[1:, 1] + tri[1:, 2])
        two = one[:, :n] + one[:, n:]  # each panel's two-panel estimate
        err = two - state[3 * q:]
        done = np.max(np.abs(err), axis=0) <= 15.0 * tol
        levels.append((done, two + err / 15.0))
        split = np.flatnonzero(~done)
        bisections += split.size
        if bisections > max_bisections:
            raise RuntimeError("adaptive_simpson: more than %d bisections needed on [%r, %r]"
                               % (max_bisections, float(x[0]), float(x[-1])))
        # each split panel's left half next to its right half
        state = kids[:, (split[:, None] + (0, n)).ravel()]
        tol = 0.5 * tol
    # a split panel's value is the sum of its two halves, as in the recursion
    below = None
    for done, value in reversed(levels):
        if below is not None:
            value[:, ~done] = below[:, 0::2] + below[:, 1::2]
        below = value
    return below[:, 0] if vector else float(below[0, 0])
