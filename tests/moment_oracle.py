"""The means of d_SH^2 + d_HD^2 and of y^2 over a helper-tier region, by quadrature from the geometry alone: a test oracle.

A helper at distance rho from the source S, at angle theta from the S-D
axis, lies d_HD = sqrt(rho^2 + r^2 - 2 rho r cos theta) from the
destination, so q = d_SH^2 + d_HD^2 = 2 rho^2 + r^2 - 2 rho r cos theta,
and y = rho sin theta from the S-D line.  Tier t's region is the set of
points whose two hop lengths lie in its two hop bands, in either order.  In
polar coordinates about S it is, for each order, rho in the S-hop band and
theta between the angles at which d_HD crosses the edges of the other band.
`region_moments` integrates 1, q and y^2 over that set with
`scipy.integrate.dblquad` (the upper half-plane; the lower one is its
mirror image) and returns the area and the means.  `lens_moments` is the
area and the second moment about the line of the centres of one lens of two
circles, in Cartesian coordinates.  Both read the band table and nothing
else of the package, so they check the areas of
`stochastic_geometry.tier_areas` and the moments J and I of
`stochastic_geometry.tier_moments` and `_lens_moments` independently.

`region_fourth_moments` integrates rho^4, rho^2 y^2 and y^4 over the same
set in the same way, rho = |H - M| the distance from the S-D midpoint M,
with rho^2 = d_SH^2 - r d_SH cos theta + r^2 / 4, and returns their means;
`lens_fourth_moments` is the same three integrals over one lens about the
midpoint of its centres and their line, in Cartesian coordinates.  Both
check the fourth moments of `stochastic_geometry.tier_moments` and
`_lens_moments`.

`region_area_within` is the area of the same region within distance t of the
S-D midpoint M: at distance rho from S, the points nearer than t to M are
those at angles below the one where |H - M| = t, so for each order it
integrates rho times the span of theta left between the two limits with
`scipy.integrate.quad`.  It checks `stochastic_geometry.tier_area_within`
the same way.
"""

from __future__ import annotations

import math

from scipy.integrate import dblquad, quad

from coopmac.stochastic_geometry import BAND_EDGES, TIER_BANDS


def _theta(x, rho, r):
    """Angle at S at which a point rho from S lies x from D, clipped to [0, pi]."""
    cos = (rho * rho + r * r - x * x) / (2.0 * rho * r)
    return math.acos(min(1.0, max(-1.0, cos)))


def _order(r, s_band, h_band, functions):
    """The integrals of each f(rho, theta) of `functions` over rho in band s_band and d_HD in band h_band, upper half-plane."""
    a, b = BAND_EDGES[s_band:s_band + 2]
    c, d = BAND_EDGES[h_band:h_band + 2]
    lo, hi = max(a, r - d), min(b, r + d)
    if lo >= hi:
        return (0.0,) * len(functions)
    # the theta limits bend where d_HD's band edges meet the axis: split rho there
    cuts = sorted({lo, hi} | {x for e in (c, d) for x in (r - e, e - r, r + e) if lo < x < hi})
    total = [0.0] * len(functions)
    for left, right in zip(cuts[:-1], cuts[1:]):
        for i, f in enumerate(functions):
            total[i] += dblquad(lambda t, rho: rho * f(rho, t), left, right, lambda rho: _theta(c, rho, r),
                                lambda rho: _theta(d, rho, r), epsabs=0.0, epsrel=1e-13)[0]
    return tuple(total)


def _region(tier, r, functions):
    """(area, the mean of each f(rho, theta) of `functions`) over tier `tier`'s region of a link of length r."""
    i, j = TIER_BANDS[tier - 1]
    functions = (lambda rho, t: 1.0, *functions)
    parts = [_order(r, i, j, functions)] + ([_order(r, j, i, functions)] if i != j else [])
    area, *integrals = (2.0 * sum(p[m] for p in parts) for m in range(len(functions)))
    return (area, *(x / area if area > 0 else math.nan for x in integrals))


def region_moments(tier, r):
    """(area, mean of d_SH^2 + d_HD^2, mean of y^2) over tier `tier`'s region of a link of length r."""
    return _region(tier, r, (lambda rho, t: 2.0 * rho * rho + r * r - 2.0 * rho * r * math.cos(t),
                             lambda rho, t: (rho * math.sin(t)) ** 2))


def region_fourth_moments(tier, r):
    """(area, means of rho^4, rho^2 y^2 and y^4) over tier `tier`'s region of a link of length r, rho = |H - M|."""

    def rho2(rho, t):
        return rho * rho - r * rho * math.cos(t) + r * r / 4.0

    return _region(tier, r, (lambda rho, t: rho2(rho, t) ** 2, lambda rho, t: rho2(rho, t) * (rho * math.sin(t)) ** 2,
                             lambda rho, t: (rho * math.sin(t)) ** 4))


def lens_moments(r1, r2, d):
    """(area, second moment about the line of the centres) of the lens of circles of radii r1 and r2 whose centres lie d apart."""
    lo, hi = max(-r1, d - r2), min(r1, d + r2)
    if lo >= hi:
        return 0.0, 0.0

    def height(x):
        return math.sqrt(max(0.0, min(r1 * r1 - x * x, r2 * r2 - (x - d) ** 2)))

    # the upper boundary changes circle at the chord
    chord = (d * d + r1 * r1 - r2 * r2) / (2.0 * d) if d > 0 else lo
    cuts = sorted({lo, hi} | ({chord} if lo < chord < hi else set()))
    area = moment = 0.0
    for left, right in zip(cuts[:-1], cuts[1:]):
        area += 2.0 * quad(height, left, right, epsabs=0.0, epsrel=1e-13)[0]
        moment += 2.0 * quad(lambda x: height(x) ** 3 / 3.0, left, right, epsabs=0.0, epsrel=1e-13)[0]
    return area, moment


def lens_fourth_moments(r1, r2, d):
    """(integrals of rho^4, rho^2 y^2 and y^4) over the lens of circles of radii r1 and r2 whose centres lie d apart, about the midpoint of the centres."""
    lo, hi = max(-r1, d - r2), min(r1, d + r2)
    if lo >= hi:
        return 0.0, 0.0, 0.0

    def height(x):
        return math.sqrt(max(0.0, min(r1 * r1 - x * x, r2 * r2 - (x - d) ** 2)))

    # the upper boundary changes circle at the chord; the powers of y are integrated over |y| < height
    chord = (d * d + r1 * r1 - r2 * r2) / (2.0 * d) if d > 0 else lo
    cuts = sorted({lo, hi} | ({chord} if lo < chord < hi else set()))
    integrands = (lambda x, y: (x * x) ** 2 * 2.0 * y + 2.0 * x * x * 2.0 * y ** 3 / 3.0 + 2.0 * y ** 5 / 5.0,
                  lambda x, y: x * x * 2.0 * y ** 3 / 3.0 + 2.0 * y ** 5 / 5.0,
                  lambda x, y: 2.0 * y ** 5 / 5.0)
    return tuple(sum(quad(lambda x: f(x - d / 2.0, height(x)), left, right, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                     for left, right in zip(cuts[:-1], cuts[1:])) for f in integrands)


def _theta_m(t, rho, r):
    """Angle at S below which a point rho from S lies nearer than t to the S-D midpoint, clipped to [0, pi]."""
    cos = (rho * rho + r * r / 4.0 - t * t) / (rho * r)
    return math.acos(min(1.0, max(-1.0, cos)))


def _order_within(r, t, s_band, h_band):
    """Area of rho in band s_band, d_HD in band h_band and |H - M| < t, upper half-plane."""
    a, b = BAND_EDGES[s_band:s_band + 2]
    c, d = BAND_EDGES[h_band:h_band + 2]
    lo, hi = max(a, r - d, r / 2.0 - t), min(b, r + d, r / 2.0 + t)
    if lo >= hi:
        return 0.0
    # the limits bend where d_HD's band edges meet the axis, where the disk about M does, and where
    # the disk's angle crosses an edge's: rho^2 = r^2 / 2 + 2 t^2 - e^2
    bends = {x for e in (c, d) for x in (r - e, e - r, r + e)} | {r / 2.0 + t, abs(r / 2.0 - t)}
    bends |= {math.sqrt(x) for e in (c, d) for x in (r * r / 2.0 + 2.0 * t * t - e * e,) if x > 0.0}
    cuts = sorted({lo, hi} | {x for x in bends if lo < x < hi})

    def span(rho):
        return rho * max(0.0, min(_theta(d, rho, r), _theta_m(t, rho, r)) - _theta(c, rho, r))

    return sum(quad(span, left, right, epsabs=0.0, epsrel=1e-13, limit=200)[0] for left, right in zip(cuts[:-1], cuts[1:]))


def region_area_within(tier, r, t):
    """Area of tier `tier`'s region of a link of length r within distance t of the S-D midpoint."""
    i, j = TIER_BANDS[tier - 1]
    orders = [(i, j)] + ([(j, i)] if i != j else [])
    return 2.0 * sum(_order_within(r, t, s, h) for s, h in orders)
