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
mirror image) and returns the area and the means; rho runs over each piece
in a cosine map, which takes the square root of an angle's limit at the
piece's ends to a smooth function, so that the quadrature meets its
tolerance.  `lens_moments` is the area and the second moment about the line
of the centres of one lens of two circles, integrated along each arc of its
boundary in that circle's own angle, where its height has no square root
either.  Both read the band table and nothing
else of the package, so they check the areas of
`stochastic_geometry.tier_areas` and the moments J and I of
`stochastic_geometry.tier_moments` and `_lens_moments` independently.

`region_fourth_moments` integrates rho^4, rho^2 y^2 and y^4 over the same
set in the same way, rho = |H - M| the distance from the S-D midpoint M,
with rho^2 = (d_SH cos theta - r / 2)^2 + (d_SH sin theta)^2, and returns
their means;
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


def _half_angle(x, end, offset, r):
    """`_theta` at rho = end + offset, from tan(theta / 2) = sqrt((x - rho + r)(x + rho - r) / ((rho + r - x)(rho + r + x))).

    Each factor that vanishes at a cut of `_order`, r + x, r - x or x - r,
    is taken as (the cut less end) plus or minus offset, exact where end is
    that cut, so that a thin region's angles keep their digits.
    """
    a = (r + x - end) - offset
    b = (end - (r - x)) + offset
    c = (end - (x - r)) + offset
    return 2.0 * math.atan2(math.sqrt(max(0.0, a * b)), math.sqrt(max(0.0, c * (end + offset + r + x))))


def _order(r, s_band, h_band, functions):
    """The integrals of each f(end, offset, theta) of `functions` over rho = end + offset in band s_band and d_HD in band h_band, upper half-plane."""
    a, b = BAND_EDGES[s_band:s_band + 2]
    c, d = BAND_EDGES[h_band:h_band + 2]
    lo, hi = max(a, r - d), min(b, r + d)
    if lo >= hi:
        return (0.0,) * len(functions)
    # the theta limits bend where d_HD's band edges meet the axis: split rho there
    cuts = sorted({lo, hi} | {x for e in (c, d) for x in (r - e, e - r, r + e) if lo < x < hi})
    total = [0.0] * len(functions)
    for left, right in zip(cuts[:-1], cuts[1:]):
        # rho = left + (right - left) (1 - cos phi) / 2 takes the square root of an angle's limit at either end to a
        # smooth function of phi; rho is carried as (end, offset) from the nearer end, so that the angle's factors
        # that vanish there keep their digits (`_half_angle`)
        half = 0.5 * (right - left)

        def at(phi, left=left, right=right, half=half):
            return (left, 2.0 * half * math.sin(0.5 * phi) ** 2) if phi < 0.5 * math.pi else \
                (right, -2.0 * half * math.cos(0.5 * phi) ** 2)

        for i, f in enumerate(functions):
            total[i] += dblquad(lambda t, phi: half * math.sin(phi) * sum(at(phi)) * f(*at(phi), t), 0.0, math.pi,
                                lambda phi: _half_angle(c, *at(phi), r), lambda phi: _half_angle(d, *at(phi), r),
                                epsabs=0.0, epsrel=1e-13)[0]
    return tuple(total)


def _region(tier, r, functions):
    """(area, the mean of each f(end, offset, theta) of `functions`, at rho = end + offset) over tier `tier`'s region of a link of length r."""
    i, j = TIER_BANDS[tier - 1]
    functions = (lambda end, offset, t: 1.0, *functions)
    parts = [_order(r, i, j, functions)] + ([_order(r, j, i, functions)] if i != j else [])
    area, *integrals = (2.0 * sum(p[m] for p in parts) for m in range(len(functions)))
    return (area, *(x / area if area > 0 else math.nan for x in integrals))


def region_moments(tier, r):
    """(area, mean of d_SH^2 + d_HD^2, mean of y^2) over tier `tier`'s region of a link of length r."""
    def q(end, offset, t):
        rho = end + offset
        return 2.0 * rho * rho + r * r - 2.0 * rho * r * math.cos(t)

    return _region(tier, r, (q, lambda end, offset, t: ((end + offset) * math.sin(t)) ** 2))


def region_fourth_moments(tier, r):
    """(area, means of rho^4, rho^2 y^2 and y^4) over tier `tier`'s region of a link of length r, rho = |H - M|."""

    def rho2(end, offset, t):
        # |H - M|^2 from H - M = (rho cos theta - r / 2, rho sin theta), its first term taken as
        # (end - r / 2) + offset - 2 rho sin^2(theta / 2) so that it keeps its digits next to M
        rho = end + offset
        return ((end - 0.5 * r) + offset - 2.0 * rho * math.sin(0.5 * t) ** 2) ** 2 + (rho * math.sin(t)) ** 2

    def y2(end, offset, t):
        return ((end + offset) * math.sin(t)) ** 2

    return _region(tier, r, (lambda *at: rho2(*at) ** 2, lambda *at: rho2(*at) * y2(*at), lambda *at: y2(*at) ** 2))


def _lens_arcs(r1, r2, d):
    """(centre, radius, psi_lo, psi_hi) of each arc of the upper boundary of the lens of circles of radii r1 and r2 whose centres lie d apart.

    The arc is x = centre + radius cos psi, y = radius sin psi for psi in
    [psi_lo, psi_hi].  The arcs meet at the chord, whose half-length h comes
    from the kite's factors and whose angle on each circle from atan2, so
    that a thin lens's arcs keep their digits; a circle's extreme point is
    at psi = 0 or pi exactly.
    """
    kite = (r1 + r2 - d) * (d + r1 - r2) * (d - r1 + r2) * (d + r1 + r2)
    if d <= abs(r1 - r2) or kite <= 0.0:
        # one circle inside the other, or none: the smaller circle whole, or nothing
        return [] if d >= r1 + r2 else [(0.0, r1, 0.0, math.pi)] if r1 <= r2 else [(d, r2, 0.0, math.pi)]
    h = math.sqrt(kite) / (2.0 * d)
    chord = (d * d + r1 * r1 - r2 * r2) / (2.0 * d)
    # circle 1 bounds the lens right of the chord, up to its extreme at psi = 0; circle 2 left of it, from pi
    return [(0.0, r1, 0.0, math.atan2(h, chord)), (d, r2, math.atan2(h, chord - d), math.pi)]


def _over_lens(r1, r2, d, f):
    """The integral of f(x, height) dx over the lens's upper boundary, each arc in its own angle, which has no square root."""
    return sum(quad(lambda psi: f(c + radius * math.cos(psi), radius * math.sin(psi)) * radius * math.sin(psi),
                    lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0] for c, radius, lo, hi in _lens_arcs(r1, r2, d))


def lens_moments(r1, r2, d):
    """(area, second moment about the line of the centres) of the lens of circles of radii r1 and r2 whose centres lie d apart."""
    return (2.0 * _over_lens(r1, r2, d, lambda x, y: y), 2.0 * _over_lens(r1, r2, d, lambda x, y: y ** 3 / 3.0))


def lens_fourth_moments(r1, r2, d):
    """(integrals of rho^4, rho^2 y^2 and y^4) over the lens of circles of radii r1 and r2 whose centres lie d apart, about the midpoint of the centres."""
    # the powers of y integrated over |y| < height, at x from the midpoint
    integrands = (lambda x, y: (x * x) ** 2 * 2.0 * y + 2.0 * x * x * 2.0 * y ** 3 / 3.0 + 2.0 * y ** 5 / 5.0,
                  lambda x, y: x * x * 2.0 * y ** 3 / 3.0 + 2.0 * y ** 5 / 5.0,
                  lambda x, y: 2.0 * y ** 5 / 5.0)
    return tuple(_over_lens(r1, r2, d, lambda x, y: f(x - d / 2.0, y)) for f in integrands)


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
