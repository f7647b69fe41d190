"""Adaptive Gauss–Kronrod (G7/K15) quadrature of smooth 1-D integrands, refined level by level.

Each panel is integrated by the 15-point Kronrod rule, and its error is
estimated from the difference to the embedded 7-point Gauss rule, scaled as
in QUADPACK's QK15 (Piessens et al., *QUADPACK*, 1983, the rule behind
`scipy.integrate.quad`).  Several intervals are integrated in one run: the
panels still open at one refinement level, of every interval, are held side
by side, and all of their nodes go to the integrand in one array call, so a
run costs one call per level instead of one per panel or per interval.
Every decision about a panel reads only its own interval's panels, and each
interval's accepted panel values are summed in its own panel order, so an
interval's result is the same to the last bit whether it is integrated alone
or with others, whenever f's value at a node does not depend on the other
nodes of the call.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# Kronrod abscissae on [-1, 1], ascending, and their weights; the Gauss nodes are
# every second one (index 1, 3, ..., 13), with the 7-point Gauss weights
_X = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
      0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
      0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
      0.207784955007898467600689403773245)
_WK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
       0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
       0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
       0.204432940075298892414161999234649)
_WK0 = 0.209482141084727828012999174891714
_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
       0.381830050505118944950369775488975)
_WG0 = 0.417959183673469387755102040816327
NODES = np.concatenate((np.negative(_X), [0.0], _X[::-1]))
KRONROD = np.concatenate((_WK, [_WK0], _WK[::-1]))
GAUSS = np.zeros(15)
GAUSS[1::2] = np.concatenate((_WG, [_WG0], _WG[::-1]))
_EPS50 = 50.0 * np.finfo(float).eps


def _values(fx, x):
    """fx, the integrand's values at the nodes x, as a float array of shape (n,) or (c, n); a non-finite value raises."""
    fx = np.asarray(fx, dtype=float)
    if fx.ndim not in (1, 2) or fx.shape[-1] != x.size:
        raise ValueError("integrand must map n nodes to shape (n,) or (c, n), got %r" % (fx.shape,))
    if not np.isfinite(fx).all():
        bad = ~np.all(np.isfinite(fx.reshape(-1, x.size)), axis=0)
        raise RuntimeError("integrand is not finite at x=%r" % (float(x[bad][0]),))
    return fx


def _panels(fx, half):
    """(Kronrod value, error estimate) of each panel from its 15 values fx, shape (c, panels, 15).

    The error is QK15's: |K15 - G7| scaled down by the panel's spread about
    its mean, with a floor of 50 ulp of the panel's absolute integral.
    """
    weighted = fx * KRONROD
    resk = np.add.reduce(weighted, axis=-1)
    err = np.abs(resk - np.add.reduce(fx * GAUSS, axis=-1)) * half
    resasc = np.add.reduce(np.abs(fx - 0.5 * resk[..., None]) * KRONROD, axis=-1) * half
    floor = np.add.reduce(np.abs(weighted), axis=-1) * (_EPS50 * half)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
    return resk * half, np.maximum(err, floor)


def _halves(lo, hi):
    """The two halves of each panel [lo, hi], each left half next to its right half."""
    mid = 0.5 * (lo + hi)
    # interleaved by strided assignment: np.stack costs more than the copy at a few panels
    left, right = np.empty(2 * lo.size), np.empty(2 * lo.size)
    left[0::2], left[1::2] = lo, mid
    right[0::2], right[1::2] = mid, hi
    return left, right


class Level(NamedTuple):
    """The first refinement level of `gauss_kronrod` over some intervals, read-only.

    `ends` holds the intervals, `part` each panel's interval, `lo` and `hi`
    its ends, `half` its half width, `x` the 15 nodes of every panel, panel
    by panel, and `at` each node's interval.
    """

    ends: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    part: np.ndarray
    half: np.ndarray
    x: np.ndarray
    at: np.ndarray


def _nodes(lo, hi):
    """(half width, the 15 nodes of each panel, panel by panel) of the panels [lo, hi]."""
    centre, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return half, (centre[:, None] + half[:, None] * NODES).ravel()


def first_level(intervals) -> Level:
    """The first level of `gauss_kronrod` over `intervals`: the quarters of every non-empty interval.

    Raises ValueError when an end of an interval is not finite or b < a.
    """
    ends = np.array(intervals, dtype=float).reshape(-1, 2)
    if not np.isfinite(ends).all():
        raise ValueError("integration bounds must be finite, got %r" % (ends.tolist(),))
    if (ends[:, 1] < ends[:, 0]).any():
        raise ValueError("integration bounds out of order")
    part = np.flatnonzero(ends[:, 1] > ends[:, 0])
    # each interval starts as its quarters, so that most of them need one level
    lo, hi = _halves(*_halves(*ends[part].T))
    part = np.repeat(part, 4)
    level = Level(ends, lo, hi, part, *_nodes(lo, hi), np.repeat(part, NODES.size))
    for array in level:
        array.setflags(write=False)
    return level


def gauss_kronrod(f, intervals, tol=1e-8, max_panels: int = 1000):
    """Integrate f over each (a, b) of `intervals`, each to its absolute tolerance.

    `f(x, part)` gets a 1-D array of nodes and, for each node, the index of
    the interval it lies in, and returns an array of shape (n,), or (c, n)
    for c components sharing the nodes (e.g. a (lower, upper) pair).  It is
    called once per refinement level on the 15 nodes of every open panel of
    every interval.  Each interval starts as its four quarters.  `tol` is
    one absolute tolerance for every interval or one per interval.  An
    interval is done when the error estimates of its panels sum to at most
    its tolerance; until then each level keeps the panels whose error is
    within their width's share of the tolerance and bisects the others, so
    the largest component error decides.  The result has one row per
    interval, shape (m,) or (m, c); an empty interval's row is 0, and when
    every interval is empty f is not called and the shape is (m,).

    `intervals` may also be their first level (`first_level`), built once
    for intervals integrated many times; f then gets that level's own `x`.

    Raises ValueError when an end of an interval is not finite, b < a or a
    tolerance is not finite and positive, and RuntimeError when an interval
    would need more than `max_panels` panels or when `f` returns a non-finite
    value.
    """
    level = intervals if isinstance(intervals, Level) else first_level(intervals)
    m = len(level.ends)
    tols = np.asarray(tol, dtype=float) * np.ones(m)
    if not ((tols > 0) & (tols < math.inf)).all():  # NaN fails too
        raise ValueError("tol must be positive and finite, got %r" % (tol,))
    if not level.part.size:
        return np.zeros(m)
    lo, hi, part, half, x = level.lo, level.hi, level.part, level.half, level.x
    fx = _values(f(x, level.at), x)
    width = level.ends[:, 1] - level.ends[:, 0]
    share = tols / np.where(width > 0, width, 1.0)  # tolerance per unit length
    panels = np.bincount(part, minlength=m)  # panels evaluated so far, per interval
    spent = np.zeros(m)  # error estimates of the accepted panels, per interval
    out = None
    while True:
        value, err = _panels(fx.reshape(-1, part.size, NODES.size), half)
        if out is None:
            out = np.zeros((len(value), m))
        err = err.max(axis=0)
        total = spent + np.bincount(part, weights=err, minlength=m)
        keep = (total[part] <= tols[part]) | (err <= share[part] * (hi - lo))
        accepted = part[keep]
        # each interval's accepted panels are added in their order, whatever the other intervals hold
        for row, v in zip(out, value):
            row += np.bincount(accepted, weights=v[keep], minlength=m)
        if accepted.size == part.size:
            return out.T if fx.ndim == 2 else out[0]
        spent += np.bincount(accepted, weights=err[keep], minlength=m)
        split = ~keep
        part = np.repeat(part[split], 2)
        panels += np.bincount(part, minlength=m)
        if (panels > max_panels).any():
            i = int(np.argmax(panels > max_panels))
            raise RuntimeError("gauss_kronrod: more than %d panels needed on [%r, %r]"
                               % (max_panels, float(level.ends[i, 0]), float(level.ends[i, 1])))
        lo, hi = _halves(lo[split], hi[split])
        half, x = _nodes(lo, hi)
        fx = _values(f(x, np.repeat(part, NODES.size)), x)
