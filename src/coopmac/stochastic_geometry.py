"""Helper-tier geometry.

The helper tiers of a source-destination (S-D) link are defined by distance
bands on the two hop lengths (d_SH, d_HD).  The band edges 48.2 / 67.1 /
74.7 m are the rate breakpoints of the 11/5.5/2 Mbps link classes; each
tier region is an intersection of two annuli centered on S and D, so its
area reduces to differences of two-circle lens areas.

The band edges, their rates, the tiers and the regimes are declared once
below; the other modules derive their tables from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Distance band edges shared by link classification and tier geometry (m).
BAND_11 = 48.2   # below: 11 Mbps hop
BAND_55 = 67.1   # below: 5.5 Mbps hop
BAND_2 = 74.7    # below: 2 Mbps hop
MAX_RANGE = 100.0
# Source-destination separation beyond which the tier-1 region (both hops
# under 48.2 m) is empty.
TIER1_MAX_SEPARATION = 2 * BAND_11  # 96.4 m

# The model's one table; every other band, class, tier and rate table is
# derived from it.  Hop band i spans [BAND_EDGES[i], BAND_EDGES[i + 1]) m at
# BAND_RATES[i] Mbps, and a link whose length lies in band i has class
# CLASS_NAMES[i].
BAND_EDGES = (0.0, BAND_11, BAND_55, BAND_2, MAX_RANGE)
BAND_RATES = (11.0, 5.5, 2.0, 1.0)
CLASS_NAMES = "ABCD"
# Hop bands of tier t's (S-H, H-D) hops, in either order, and the tier's
# cooperative rate: the two hops share the airtime, so r_SH*r_HD/(r_SH+r_HD)
# Mbps.  Class C links use tiers 1-3, class D links all five.
TIER_BANDS = ((0, 0), (0, 1), (1, 1), (0, 2), (1, 2))
TIER_RATES = tuple(BAND_RATES[i] * BAND_RATES[j] / (BAND_RATES[i] + BAND_RATES[j]) for i, j in TIER_BANDS)
CLASS_TIERS = {"C": 3, "D": 5}
# regime -> (link-length band in m, link class).  The bounds and the
# simulation split class D at 96.4 m, beyond which no tier-1 helper exists;
# "all" is every in-range link.
REGIMES = {
    "A": (0.0, BAND_11, "A"),
    "B": (BAND_11, BAND_55, "B"),
    "C": (BAND_55, BAND_2, "C"),
    "D1": (BAND_2, TIER1_MAX_SEPARATION, "D"),
    "D2": (TIER1_MAX_SEPARATION, MAX_RANGE, "D"),
    "all": (0.0, MAX_RANGE, "all"),
}

CLASS_RATES = dict(zip(CLASS_NAMES, BAND_RATES))
DIRECT_CLASSES = tuple(c for c in CLASS_NAMES if c not in CLASS_TIERS)  # no helper tiers
CLASS_REGIMES = {c: tuple(r for r, band in REGIMES.items() if band[2] == c) for c in (*CLASS_NAMES, "all")}
HELPER_REGIMES = tuple(r for r, band in REGIMES.items() if band[2] in CLASS_TIERS)
# outer hop edge of each tier: tier t lies in the lens of two circles of
# radius TIER_REACH[t - 1] around S and D
TIER_REACH = tuple(BAND_EDGES[max(bands) + 1] for bands in TIER_BANDS)
# per tier, as columns: the hop-band edges [a, b) of d_SH, in the tier's higher
# hop band, and [c, d) of d_HD, and the number of hop orders, 2 for two bands
TIER_BOXES = np.array([(*BAND_EDGES[s:s + 2], *BAND_EDGES[h:h + 2], 2.0 if s > h else 1.0)
                       for h, s in map(sorted, TIER_BANDS)]).T
TIER_BOXES.setflags(write=False)
_BAND_OF = {c: BAND_EDGES[i:i + 2] for i, c in enumerate(CLASS_NAMES)}
_BAND_OF.update((r, band[:2]) for r, band in REGIMES.items())
_INNER_EDGES = np.array(BAND_EDGES[1:-1])


def _tier_table(n_tiers):
    """Tier index by (hop band, hop band); 0 = helper not beneficial."""
    table = np.zeros((len(BAND_RATES),) * 2, dtype=np.int8)
    for t, (i, j) in enumerate(TIER_BANDS[:n_tiers], 1):
        table[i, j] = table[j, i] = t
    return table


_TIER_TABLES = {c: _tier_table(n) for c, n in CLASS_TIERS.items()}


def check_band(name, allowed, r_k=None):
    """(lo, hi) link-length band of the link class or regime `name`.

    `allowed` holds the names the caller accepts; with `r_k` given, it must
    also lie in the closed band [lo, hi].  Every class and regime argument
    of the package is checked here; a failed check raises ValueError.
    """
    if not isinstance(name, str) or name not in allowed:
        raise ValueError("expected one of %s, got %r" % (", ".join(allowed), name))
    lo, hi = _BAND_OF[name]
    if r_k is not None and not lo <= r_k <= hi:
        raise ValueError("r_k=%r outside the %s range [%s, %s]" % (r_k, name, lo, hi))
    return lo, hi


# largest neighbor order: numpy and scipy take k as an int64
MAX_K = int(np.iinfo(np.int64).max)
# the types a density may have; a bool is an int, and is excluded separately
_REAL_TYPES = (int, float, np.integer, np.floating)


def check_integer(name, value, least, most=None):
    """Check that the argument `name` is an integer in [least, most], a bool not counting as one.

    Every count, seed and neighbor order of the package is checked here; a
    failed check raises ValueError.
    """
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least
            or (most is not None and value > most)):
        upper = "" if most is None else " and <= %d" % most
        raise ValueError("%s must be an integer >= %d%s, got %r" % (name, least, upper, value))


def check_conditioning(density, k=None, density_optional=False):
    """Check a PPP density (nodes/m^2) and a neighbor order k.

    `density` must be a finite positive real number: a Python or numpy int
    or float, or a 0-d numpy array of one, but not a bool, a string or a
    sequence.  With `density_optional`, for the views that take a density
    (the PPP) or k, exactly one of the two must be given.  `k` must be None
    (the PPP) or an integer in [1, MAX_K].  Every density and k argument of
    the package is checked here; a failed check raises ValueError.
    """
    if isinstance(density, np.ndarray) and density.ndim == 0:
        density = density[()]  # a 0-d array is checked as its numpy scalar
    if density_optional and (density is None) == (k is None):
        raise ValueError("give exactly one of density (ppp) or k (k-nearest)")
    if density is None and density_optional:
        pass  # a k-nearest form that takes no density
    # the type test comes first, so that a string or a list cannot reach the comparison
    elif isinstance(density, bool) or not isinstance(density, _REAL_TYPES) or not 0 < density < np.inf:
        raise ValueError("density must be positive and finite, got %r" % (density,))
    if k is not None:
        check_integer("k", k, 1, MAX_K)


@dataclass(frozen=True)
class RegionAreas:
    """Per-tier region areas (m^2) for one link, indexed by tier."""

    link_class: str
    r_k: float
    areas: tuple  # areas[i] is the tier-(i+1) region area

    def area(self, tier: int) -> float:
        return self.areas[tier - 1]


def lens_area(r1, r2, separation):
    """Intersection area of two circles of radii r1, r2 (m^2).

    Uses the standard lens formula, or near external tangency, where its
    terms cancel, and near internal tangency and for radii more than
    _UNEQUAL apart, where the larger circle's arccos loses its thin segment,
    the segments' own forms (`_lens`); separations beyond r1+r2 give 0 and
    separations below |r1-r2| give the full smaller circle.  `separation`
    may be an array.
    Each radius must lie in _LENS_RADII, 1e-60 to 1e75 m, where the formula
    neither overflows nor underflows, and each separation must be
    non-negative; a separation so much smaller than equal radii that the
    formula would give NaN is rejected too.  A failed check raises
    ValueError.
    """
    r1 = float(r1)
    r2 = float(r2)
    lo, hi = _LENS_RADII
    if not (lo <= r1 <= hi and lo <= r2 <= hi):  # NaN and infinite radii fail too
        raise ValueError("circle radii must lie in [%g, %g] m, got %r and %r" % (lo, hi, r1, r2))
    d = np.asarray(separation, dtype=float)
    if not np.all(d >= 0):
        raise ValueError("separation must be non-negative")
    out = _lens(r1, r2, np.atleast_1d(d))
    if np.isnan(out).any():
        raise ValueError("the lens formula underflows at radii %r and %r and these separations" % (r1, r2))
    return float(out[0]) if d.ndim == 0 else out


# the kite of `_lens`, (r1 + r2 - d)(d + r1 - r2)(d - r1 + r2)(d + r1 + r2), is 16 times the squared area of the
# triangle of sides r1, r2 and d: at most (r1 + r2)^4 / 4, finite up to r1 + r2 of 1.6e77 m, and at a relative
# 1e-16 from tangency still a normal float from radii of 1e-73 m on
_LENS_RADII = (1e-60, 1e75)


# the limits overwrite whatever d = 0 (a division by 0) and d = inf (inf - inf) give the formula
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _lens(r1, r2, d):
    """Lens areas of circles of radii r1, r2 at separations d >= 0 (an array), broadcast over all three.

    The lens formula, then its two limits: 0 from d = r1 + r2 on, where
    arccos(1 - eps) would leave a sliver, and the smaller circle up to
    d = |r1 - r2|.  Near external tangency the formula's terms cancel, and
    arccos near 1 loses digits: its area keeps about
    1e-16 (r / (r1 + r2 - d))^2 of itself, so it would be off by a relative
    1e-3 at 2e-5 m from tangency.  The area is taken there from its two
    segments' series, which have no cancellation (`_segment_area`): where
    0 < r1 + r2 - d < _THIN min(r1, r2), the segments' chords lying
    a1 = (d^2 + r1^2 - r2^2) / (2 d) and d - a1 from their centres.  Where
    one radius exceeds _UNEQUAL times the other, the larger circle's segment
    is thin at every separation, and its arccos loses it: the formula's
    error grows like the cube of the radii's ratio, and it gave 46.02 m^2
    for the 1.5708 m^2 of radii 1 and 1e6 m at 1e6 m.  So is it next to
    internal tangency, where 0 < d - |r1 - r2| < _THIN min(r1, r2) for
    unequal radii: radii 74.7 and 30 m at 44.700000000001 m gave 1.4e-9 more
    than the smaller circle.  Those lenses are taken segment by segment
    (`_unequal_lens`), which never gives more than the smaller circle.  No
    tier lens at a link length, whose radii lie within a factor 1.55 of
    each other and whose centres lie at least 67.1 m apart, takes that
    path.  Apart or tangent circles have 0.  No validation.
    """
    # a1 + a2 - tri with
    #   a1 = r1^2 arccos((d^2 + r1^2 - r2^2) / (2 d r1)), a2 the same with r1, r2 swapped,
    #   tri = sqrt((-d + r1 + r2)(d + r1 - r2)(d - r1 + r2)(d + r1 + r2)) / 2,
    # in that order of operations but in place: at the thousands of links of a
    # Monte Carlo chunk, a temporary per operation costs more than the math
    sq1, sq2, d2, twice_d = r1 ** 2, r2 ** 2, d ** 2, 2 * d
    arcs = []
    for ra, sa, sb in ((r1, sq1, sq2), (r2, sq2, sq1)):
        x = d2 + sa
        x -= sb
        x /= twice_d * ra
        # clip guards the arccos arguments against round-off at the tangency edges
        np.arccos(np.clip(x, -1.0, 1.0, out=x), out=x)
        x *= sa
        arcs.append(x)
    area, a2 = arcs
    area += a2
    tri = -d + r1
    tri += r2
    # both segments are thin where the circles are this close to external tangency
    thin = np.flatnonzero(tri < _THIN * np.minimum(r1, r2))
    side = d + r1
    tri *= side - r2
    side += r2
    gap = d - r1
    gap += r2
    tri *= gap
    tri *= side
    np.sqrt(np.maximum(tri, 0.0, out=tri), out=tri)
    tri *= 0.5
    area -= tri
    # floored at 0: just below tangency the three terms cancel to round-off of either sign
    np.maximum(area, 0.0, out=area)
    outside, inside = d >= r1 + r2, d <= abs(r1 - r2)
    np.copyto(area, 0.0, where=outside)
    np.copyto(area, np.pi * np.minimum(r1, r2) ** 2, where=inside)
    # apart or tangent circles, below the threshold too, have no lens: dropped from the few below it
    thin = thin[~outside.ravel()[thin]]
    if thin.size:
        at = np.unravel_index(thin, area.shape)
        ra, rb, sep, kite = (np.broadcast_to(x, area.shape)[at] for x in (r1, r2, d, tri))
        a1 = (sep * sep + ra * ra - rb * rb) / (2.0 * sep)
        kite /= sep
        area[at] = _segment_area(ra, a1, kite) + _segment_area(rb, sep - a1, kite)
    big, small = np.maximum(r1, r2), np.minimum(r1, r2)
    segments = big > _UNEQUAL * small
    # and the lenses next to internal tangency, 0 < d - (big - small) < _THIN small, where the larger circle's segment
    # is thin too; circles of equal radii have none, their segments being half-discs as d -> 0.  The tier lenses lie
    # far from it, which one comparison of the least d shows
    ring = big - small
    if np.size(d) and np.min(d) < np.max(ring + _THIN * small):
        segments = segments | ((d > ring) & (d - ring < _THIN * small) & (ring > 0))
    if np.any(segments):
        at = np.nonzero(np.broadcast_to(segments, area.shape))
        area[at] = _unequal_lens(*(np.broadcast_to(x, area.shape)[at] for x in (big, small, d)))
    return area


# `_lens` takes a lens's area from its segments' series where r1 + r2 - d is positive and below this share of the
# smaller radius, where each segment's half-angle is below sqrt(2 _THIN), and from `_unequal_lens` where
# d - |r1 - r2| is so for unequal radii, and where one radius is more than _UNEQUAL times the other, where the larger
# circle's segment has a half-angle below arcsin(1 / _UNEQUAL)
_THIN = 0.0025
_UNEQUAL = 4.0


def _unequal_lens(big, small, d):
    """The area of `_lens` at lenses of radii big > small whose larger circle's segment is thin, segment by segment (1-D arrays).

    With e = d - big, exact where big > _UNEQUAL small, as d lies within a
    factor 2 of big wherever the circles meet, the circles are apart from
    e >= small on and the smaller lies inside the larger up to e <= -small,
    tests that neither radius's rounding can tip.  Next to internal
    tangency of closer radii, e can carry the rounding of d - big, which
    moves the area by far less than its own rounding.  Between them the
    half-chord h is taken from the kite's factors
    (small - e)(small + e)(d + big - small)(d + big + small),
    and each chord's distance from its centre,
    ((d - small)(d + small) + big^2) / (2 d) and
    (e (d + big) + small^2) / (2 d), with no difference of nearly equal
    terms, so that both segments keep their digits (`_segment_area`), and
    the sum is capped at the smaller circle.
    """
    e = d - big
    area = np.where(e <= -small, np.pi * small * small, 0.0)
    lens = np.flatnonzero(np.abs(e) < small)
    big, small, d, e = big[lens], small[lens], d[lens], e[lens]
    h = np.sqrt((small - e) * (small + e) * (d + big - small) * (d + big + small)) / (2.0 * d)
    area[lens] = np.minimum(_segment_area(big, ((d - small) * (d + small) + big * big) / (2.0 * d), h)
                            + _segment_area(small, (e * (d + big) + small * small) / (2.0 * d), h), np.pi * small * small)
    return area


def _segment_area(r, a, h):
    """Area of the segments of circles of radii r cut off by chords of half-length h that lie a from their centres (arrays).

    A segment of half-angle alpha = arctan2(h, a), exact to rounding near 0
    where arccos is not, has the area r^2 (phi - sin phi) / 2 in
    phi = 2 alpha.  It is taken as its series where alpha lies below 0.1,
    where the series is exact to rounding and the closed form
    r^2 alpha - a h would cancel, and as that closed form above.
    """
    phi = 2.0 * np.arctan2(h, a)
    f2 = phi * phi
    series = r * r * phi ** 3 * (1 / 12 - f2 * (1 / 240 - f2 * (1 / 10080 - f2 * (1 / 725760 - f2 / 79833600))))
    return np.where(phi < 0.2, series, r * r * (0.5 * phi) - a * h)


# the radii of tier t's lens, its outer hop edges, in row t - 1 of two (tiers, 1) columns
_LENS_R1, _LENS_R2 = (np.array([[BAND_EDGES[b + 1]] for b in bands]) for bands in zip(*TIER_BANDS))


def tier_areas(r):
    """(5, n) tier-1..5 region areas of links of lengths r > 0 (a 1-D array); no validation.

    lens[t - 1] is the lens of tier t's outer hop edges.  It holds tier t and
    the tiers inside it, which are subtracted; a tier whose hops lie in two
    different bands counts both hop orders, hence the factors of 2.  A class
    C link (r < 74.7 m) has no tiers 4 and 5, whose areas are 0, and tier 1
    is empty from 96.4 m on.  Only the lenses some link needs are evaluated:
    tier 1's when a link lies below 96.4 m, tiers 4 and 5's when one lies
    from 74.7 m on.  The choice is for all of r, not per link: on the mixed
    links of a Monte Carlo chunk of the "all" regime, gathering each link's
    lenses costs more than it saves.  Near its 96.4 m tangency, for r in
    (96.28, 96.4) m, the tier-1 lens is thin, and its area is taken without
    cancellation (`_lens`).  The areas alone: the moments of a link's own
    region come from `tier_moments`.
    """
    first = 0 if np.any(r < TIER1_MAX_SEPARATION) else 1
    class_c = r < BAND_2
    last = CLASS_TIERS["C"] if class_c.all() else CLASS_TIERS["D"]
    return _regions(_lens(_LENS_R1[first:last], _LENS_R2[first:last], r), first, class_c)


def _regions(lens, first, class_c):
    """The (5, n) tier regions' values of an additive measure from its values on the tier lenses.

    lens holds the rows of the lenses from tier `first` on; a lens not
    evaluated is 0 (tier 1's from 96.4 m on, tiers 4 and 5's for class C
    alone).  The rows are combined in place, in lens's own buffer when it
    holds all five, as a new array of a chunk's size costs more than the
    arithmetic.  Class C links' tiers 4 and 5 are set to 0.
    """
    if len(lens) < len(TIER_BANDS):
        full = np.zeros((len(TIER_BANDS), class_c.size))
        full[first:first + len(lens)] = lens
        lens = full
    s1, s2, s3, s4, s5 = lens
    # s2 = 2 (l2 - s1), s4 = 2 (l4 - s1) - s2, s5 = 2 (l5 - l3) - s4 and s3 = l3 - s2 - s1, s3 last
    s2 -= s1
    s2 *= 2.0
    s4 -= s1
    s4 *= 2.0
    s4 -= s2
    s5 -= s3
    s5 *= 2.0
    s5 -= s4
    s3 -= s2
    s3 -= s1
    # copyto broadcasts the mask over both rows at a fraction of the cost of a boolean index
    np.copyto(lens[CLASS_TIERS["C"]:], 0.0, where=class_c)
    return lens


# tier region i's coefficient on tier lens j in row i - 1, column j - 1: `_regions` applied to unit rows, so
# that the combination is declared once
_REGION_COEF = _regions(np.eye(len(TIER_BANDS)), 0, np.zeros(len(TIER_BANDS), dtype=bool))
_REGION_COEF.setflags(write=False)


def _own_regions(rows, measure, r, tier, *more):
    """(rows, n): each link's own tier region's values of an additive measure, for 1-D arrays r and tier (1-based).

    measure(a, b, r, *more) gives the measure's (rows, m) values on the
    tier lens of radii a about S and b about D at m links of lengths r, with
    the matching slices of the per-link arrays `more`.  A region's values are the combination
    of `_regions` of its lenses', which holds for any additive measure that
    a lens's mirror image about the perpendicular bisector of S-D shares.
    Each lens is evaluated only at the links whose tier's region holds it,
    and tier 1's not where every such link lies from 96.4 m on, where it is
    empty: sorted into the tier order `_TIER_ORDER`, each lens's links are
    one slice.  The lenses are added in order, each times its coefficient,
    to rows of 0.
    """
    order = np.argsort(_TIER_RANK.take(tier - 1), kind="stable")
    length, *more = (x[order] for x in (r, *more))
    # each tier's slice of the sorted links
    counts = np.bincount(tier - 1, minlength=len(TIER_BANDS))[_TIER_ORDER]
    ends = np.cumsum(counts)
    start, stop = dict(zip(_TIER_ORDER, (ends - counts).tolist())), dict(zip(_TIER_ORDER, ends.tolist()))
    values = np.zeros((rows, r.size))
    for lens, tiers in enumerate(_LENS_TIERS):
        first, last = start[tiers[0]], stop[tiers[-1]]
        if first == last or (lens == 0 and length[first:last].min() >= TIER1_MAX_SEPARATION):
            continue
        lens_values = measure(_LENS_R1[lens, 0], _LENS_R2[lens, 0], length[first:last], *(x[first:last] for x in more))
        for t in tiers:
            values[:, start[t]:stop[t]] += _REGION_COEF[t, lens] * lens_values[:, start[t] - first:stop[t] - first]
    out = np.empty((rows, r.size))
    out[:, order] = values
    return out


# the tiers (0-based) in an order in which those whose regions hold a lens are consecutive, for every lens; each
# tier's rank in it, as 8-bit keys, which numpy's stable sort takes in one counting pass; and each lens's tiers in it
_TIER_ORDER = [0, 1, 2, 4, 3]
_TIER_RANK = np.argsort(_TIER_ORDER).astype(np.int8)
_LENS_TIERS = tuple(tuple(t for t in _TIER_ORDER if _REGION_COEF[t, lens]) for lens in range(len(TIER_BANDS)))


def tier_area_within(r, tier, t):
    """Area of each link's tier region within distance t of its S-D midpoint, for 1-D arrays r, tier and t.

    This is B_i(s; r), the area of tier i's region where
    d_SH^2 + d_HD^2 = 2 |H - M|^2 + r^2 / 2 lies below s = 2 t^2 + r^2 / 2,
    about the midpoint M.  Each tier lens cut by the disk about M is a
    triple overlap (`_disk_lens`), and the tier's region is the combination
    of `_regions` of those overlaps, as the disk is its own mirror image
    about the perpendicular bisector of S-D; only each link's own tier's
    lenses are evaluated (`_own_regions`).  No validation: r is a class C or
    D link length, at least 74.7 m for tiers 4 and 5, and t >= 0.
    """
    return _own_regions(1, _disk_lens, r, tier, t)[0]


def tier_moments(r, tier, rows=5):
    """(rows, n): the integrals of rho^2, y^2, rho^4, rho^2 y^2 and y^4 over each link's tier region, for 1-D arrays r and tier.

    rho = |H - M| is the distance from the S-D midpoint and y from the S-D
    line, so the first two are the region's second moments J about M and I
    about the line.  Each comes from the closed forms and thin segments'
    series of the region's lenses (`_lens_moments`), evaluated only at each
    link's own tier (`_own_regions`).  A helper uniform in region j of area
    S_j has the mean rho^2 J_j / S_j, so the mean d_SH^2 + d_HD^2
    2 J_j / S_j + r^2 / 2, as d_SH^2 + d_HD^2 = 2 rho^2 + r^2 / 2, the mean
    y^2 I_j / S_j, and the mean rho^4 P / S_j, and so on.  Tier 1's region,
    a sliver for r in (96.28, 96.4) m, has its moments without
    cancellation there.  rows = 2 takes J and I alone, with the same bits.
    No validation: r is a class C or D link length, at least 74.7 m for
    tiers 4 and 5.
    """
    return _own_regions(rows, lambda r1, r2, d: _lens_moments(r1, r2, d, rows), r, tier)


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _lens_moments(r1, r2, d, rows=5):
    """(rows, n): the first rows of the integrals of rho^2, y^2, rho^4, rho^2 y^2 and y^4 over the lenses of circles of radii r1 and r2 whose centres lie d apart (a 1-D array).

    rho is the distance from the centres' midpoint and y from their line.
    The common chord splits a lens into two circular segments, each its
    sector less the triangle of its centre and the chord.  The sector of
    half-angle alpha of a circle of radius R whose centre lies d / 2 from
    the midpoint adds alpha R^2 (2 R^2 + d^2) / 4, alpha R^4 / 4,
    alpha R^2 (16 R^4 + 24 R^2 d^2 + 3 d^4) / 48,
    alpha R^4 (8 R^2 + 3 d^2) / 48 and alpha R^6 / 8, and the two triangles
    sum, with s = r1^2 + r2^2, t = r1^2 - r2^2 and the kite T = d h of the
    half-chord h, to
        -T 3 s / 4,
        -T (5 s / 24 - d^2 / 24 + t^2 / (12 d^2)),
        -T (5 (3 s^2 + 2 t^2) / 36 + 7 s d^2 / 36 + d^4 / 144),
        -T ((18 s^2 + 11 t^2) / 144 - 5 s d^2 / 288 + d^4 / 288 + s t^2 / (24 d^2)),
        -T ((33 s^2 + 14 t^2) / 480 - 13 s d^2 / 480 + d^4 / 240 + 9 s t^2 / (160 d^2) - t^4 / (160 d^4)).
    The half-angles are arccos((d^2 +- t) / (2 d r_i)), one for equal
    radii, whose segments are mirror images.  The terms cancel like
    alpha^6 as a segment thins, so a lens with a segment of half-angle
    below _THIN_SEGMENT is taken segment by segment (`_segment_moments`).
    Apart or tangent circles give 0, and an enclosed one the whole smaller
    circle, its sector with alpha = pi.  Each row is taken by its own
    arithmetic, so rows = 2 gives J and I the bits of rows = 5.  No
    validation; r1 and r2 are numbers.
    """
    r1, r2 = float(r1), float(r2)
    sq1, sq2 = r1 * r1, r2 * r2
    s, t = sq1 + sq2, sq1 - sq2
    dd = d * d
    kite = 2.0 * s - dd
    kite *= dd
    if t:
        kite -= t * t
    np.maximum(kite, 0.0, out=kite)
    np.sqrt(kite, out=kite)
    kite *= -0.5
    out = np.empty((rows, d.size))
    fourth = rows > 2
    j, i, p, q, y = out if fourth else (*out, None, None, None)
    # the triangles: -T times a polynomial in d^2 and, for unequal radii, 1 / d^2
    j.fill(0.75 * s)
    np.multiply(dd, -1 / 24, out=i)
    i += 5 * s / 24
    for row, (c2, c1, c0) in zip(out[2:], ((1 / 144, 7 * s / 36, 5 * (3 * s * s + 2 * t * t) / 36),
                                           (1 / 288, -5 * s / 288, (18 * s * s + 11 * t * t) / 144),
                                           (1 / 240, -13 * s / 480, (33 * s * s + 14 * t * t) / 480))):
        np.multiply(dd, c2, out=row)
        row += c1
        row *= dd
        row += c0
    if t:
        inv = 1.0 / dd
        i += inv * (t * t / 12)
        if fourth:
            q += inv * (s * t * t / 24)
            low = inv * (-t ** 4 / 160)
            low += 9 * s * t * t / 160
            low *= inv
            y += low
    out *= kite
    # the sectors, twice the one for equal radii
    angles = []
    for radius, shift in ((r1, t), (r2, -t)) if t else ((r1, 0.0),):
        # (d^2 + shift) / (2 d r), d / (2 r) for equal radii
        alpha = np.multiply(d, 0.5 / radius)
        if shift:
            alpha += shift * 0.5 / radius / d
        np.minimum(alpha, 1.0, out=alpha)
        np.maximum(alpha, -1.0, out=alpha)
        angles.append(np.arccos(alpha, out=alpha))
        sq = radius * radius
        weight = 1.0 if t else 2.0
        part = dd * (weight * sq / 4)
        part += weight * sq * sq / 2
        part *= alpha
        j += part
        np.multiply(alpha, weight * sq * sq / 4, out=part)
        i += part
        if not fourth:
            continue
        np.multiply(dd, weight * sq / 16, out=part)
        part += weight * sq * sq / 2
        part *= dd
        part += weight * sq ** 3 / 3
        part *= alpha
        p += part
        np.multiply(dd, weight * sq * sq / 16, out=part)
        part += weight * sq ** 3 / 6
        part *= alpha
        q += part
        np.multiply(alpha, weight * sq ** 3 / 8, out=part)
        y += part
    alpha1, alpha2 = angles[0], angles[-1]
    apart = d >= r1 + r2
    thin = np.flatnonzero((np.minimum(alpha1, alpha2) < _THIN_SEGMENT) & ~apart)
    if thin.size:
        out[:, thin] = _segment_moments(r1, r2, d[thin], alpha1[thin], alpha2[thin])[:rows]
    np.copyto(out, 0.0, where=apart)
    inside = d <= abs(r1 - r2)
    if inside.any():
        sq = min(r1, r2) ** 2
        np.copyto(out, np.pi * np.stack((sq * (0.5 * sq + 0.25 * dd), np.full(dd.shape, 0.25 * sq * sq),
                                         sq * (16 * sq * sq + dd * (24 * sq + 3 * dd)) / 48,
                                         sq * sq * (8 * sq + 3 * dd) / 48, np.full(dd.shape, sq ** 3 / 8))[:rows]),
                  where=inside)
    return out


# `_lens_moments` takes a lens segment by segment where a segment's half-angle lies below this, and a thin segment
# from its series (`_thin_segment`), whose terms in eps = sin^2(alpha / 2) < 0.023 run to eps^8, past which they sum
# to below 3e-18 of the first; above it the closed form keeps about 1e-16 / alpha^6 of itself, 2e-11 or better
_THIN_SEGMENT = 0.3
_SERIES_TERMS = 9
# the (k, m) of the integrals of v^k y^m over a segment that `_thin_segment` takes, v the distance from its chord
_SEGMENT_POWERS = ((0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (0, 2), (1, 2), (2, 2), (0, 4))
# the rows of v^2, y^2, v^4, v^2 y^2 and y^4, all that a segment whose chord passes through the midpoint needs
_CENTRED = [2, 5, 4, 7, 8]


def _series_table():
    """`_thin_segment`'s coefficients binom(nu, j) (-1)^j B(k + 1, nu + j + 1), nu = (m + 1) / 2, one row per (k, m), j = 0.._SERIES_TERMS - 1."""
    table = np.zeros((len(_SEGMENT_POWERS), _SERIES_TERMS))
    for row, (k, m) in enumerate(_SEGMENT_POWERS):
        nu, binom = (m + 1) / 2.0, 1.0
        for j in range(_SERIES_TERMS):
            table[row, j] = binom * math.exp(math.lgamma(k + 1) + math.lgamma(nu + j + 1) - math.lgamma(k + nu + j + 2))
            binom *= (j - nu) / (j + 1)
    table.setflags(write=False)
    return table


_SERIES = _series_table()


def _segment_moments(r1, r2, d, alpha1, alpha2):
    """`_lens_moments` at lenses of half-angles alpha1 and alpha2, one segment at a time: from its series where its half-angle lies below _THIN_SEGMENT (`_thin_segment`), else from its closed form.

    The closed form of a segment of a circle of radius R whose centre lies
    d / 2 from the midpoint, cut by the chord at the signed distance a from
    the centre, with the half-chord h and H = h^2, is
        alpha R^2 (2 R^2 + d^2) / 4 - h (2 a (3 a^2 + H) + 3 d^2 a + 8 d H) / 12,
        alpha R^4 / 4 - a h (3 a^2 + 5 H) / 12,
        alpha R^2 (16 R^4 + 24 R^2 d^2 + 3 d^4) / 48
            - h (a (a^2 (240 a^2 + 360 d^2 + 160 H) + d^2 (45 d^2 - 120 H) + 48 H^2)
                 + d H (960 a^2 + 240 d^2 + 576 H)) / 720,
        alpha R^4 (8 R^2 + 3 d^2) / 48
            - h (a (a^2 (120 a^2 + 45 d^2 + 320 H) + H (75 d^2 + 168 H)) + 96 d H^2) / 720,
        alpha R^6 / 8 - a h (a^2 (15 a^2 + 40 H) + 33 H^2) / 120.
    h is taken from the factors of the kite, the small ones as (big - d) +
    small and (d - big) + small, whose terms lie within a factor 2 of each
    other next to either tangency, where they are exact.  Equal radii take
    one segment twice.
    """
    big, small = max(r1, r2), min(r1, r2)
    h = (big - d + small) * (d - big + small) * (d + big - small) * (d + big + small)
    h = np.sqrt(np.maximum(h, 0.0)) / (2.0 * d)
    # the chord's position from the midpoint, toward the centre of r2
    chord = (r1 * r1 - r2 * r2) / (2.0 * d)
    total = np.zeros((5, d.size))
    segments = ((r1, 0.5 * d + chord, alpha1, 1.0), (r2, 0.5 * d - chord, alpha2, -1.0))
    for radius, a, alpha, sign in segments if r1 != r2 else segments[:1]:
        thin = alpha < _THIN_SEGMENT
        if thin.all():
            total += _thin_segment(radius, a, h, chord, sign)
            continue
        total[:, thin] += _thin_segment(radius, a[thin], h[thin], chord[thin], sign)
        wide = ~thin
        sq, a, h_w, d_w, alpha = radius * radius, a[wide], h[wide], d[wide], alpha[wide]
        aa, hh, dd = a * a, h_w * h_w, d_w * d_w
        total[:, wide] += np.stack((
            alpha * sq * (2 * sq + dd) / 4 - h_w * (2 * a * (3 * aa + hh) + 3 * dd * a + 8 * d_w * hh) / 12,
            alpha * sq * sq / 4 - a * h_w * (3 * aa + 5 * hh) / 12,
            alpha * sq * (sq * (16 * sq + 24 * dd) + 3 * dd * dd) / 48
            - h_w * (a * (aa * (240 * aa + 360 * dd + 160 * hh) + dd * (45 * dd - 120 * hh) + 48 * hh * hh)
                     + d_w * hh * (960 * aa + 240 * dd + 576 * hh)) / 720,
            alpha * sq * sq * (8 * sq + 3 * dd) / 48
            - h_w * (a * (aa * (120 * aa + 45 * dd + 320 * hh) + hh * (75 * dd + 168 * hh)) + 96 * d_w * hh * hh) / 720,
            alpha * sq ** 3 / 8 - a * h_w * (aa * (15 * aa + 40 * hh) + 33 * hh * hh) / 120))
    if r1 == r2:
        total *= 2.0
    return total


def _thin_segment(radius, a, h, chord, sign):
    """(5, n) of `_lens_moments` for one thin segment of each lens, without cancellation.

    The segment of a circle of radius R beyond its chord, at the distance a
    from its centre, spans v = 0..w from the chord, w = R - a = h^2 / (R + a),
    with the half-height sqrt((w - v)(2 R - w + v)), so with v = w (1 - p)
    the integral of v^k y^m over it is
        2 / (m + 1) w^(k+1) (2 R w)^nu  integral of (1 - p)^k p^nu (1 - eps p)^nu dp,  nu = (m + 1) / 2,
    over p in [0, 1], eps = w / (2 R): the sum over j of
    binom(nu, j) (-eps)^j B(k + 1, nu + j + 1) (`_SERIES`).  The segment's
    points lie at x = chord + sign v along the line of the centres from
    their midpoint, and rho^2, y^2, rho^4, rho^2 y^2 and y^4 follow from
    x^2, y^2, x^4, x^2 y^2 and y^4.
    """
    w = h * h / (radius + a)
    eps = w / (2.0 * radius)
    # with the chord through the midpoint, as for equal radii, x = v, and only the rows of `_CENTRED` are needed
    centred = not np.any(chord)
    series = _SERIES[_CENTRED] if centred else _SERIES
    value = np.multiply.outer(series[:, -1], eps)
    for column in series[:, -2:0:-1].T:
        value += column[:, None]
        value *= eps
    value += series[:, :1]
    # 2 / (m + 1) w^(k+1) (2 R w)^nu = 2 w sqrt(2 R w) (2 R)^(m / 2) / (m + 1) w^(k + m / 2)
    powers = np.empty((5, w.size))
    powers[0] = 2.0 * w * np.sqrt(2.0 * radius * w)
    for i in range(1, 5):
        np.multiply(powers[i - 1], w, out=powers[i])
    power, half_m = (x[_CENTRED] if centred else x for x in (_SEGMENT_POWER, _SEGMENT_HALF_M))
    value *= powers.take(power, axis=0)
    value *= ((2.0 * radius) ** half_m / (2.0 * half_m + 1.0))[:, None]
    if centred:
        x2, y2, x4, x2y2, y4 = value
    else:
        v0, v1, v2, v3, v4, y2, y1, y2v2, y4 = value
        x = sign * chord
        x2 = (x * v0 + 2.0 * v1) * x + v2
        x4 = (((x * v0 + 4.0 * v1) * x + 6.0 * v2) * x + 4.0 * v3) * x + v4
        x2y2 = (x * y2 + 2.0 * y1) * x + y2v2
    return np.stack((x2 + y2, y2, x4 + 2.0 * x2y2 + y4, x2y2 + y4, y4))


# each (k, m) of `_SEGMENT_POWERS` as its power k + m / 2 of w and its m / 2
_SEGMENT_POWER = np.array([k + m // 2 for k, m in _SEGMENT_POWERS])
_SEGMENT_HALF_M = np.array([m // 2 for _, m in _SEGMENT_POWERS], dtype=float)


def _disk_lens(a, b, r, t):
    """(1, n): area of the overlap of a tier lens, of radii a about S and b about D, with the disk of radius t about M, the S-D midpoint.

    a and b are numbers, and r and t 1-D arrays of the same length.
    Positions x are taken on the S-D axis from M, with S at -r / 2 and D at
    r / 2.  The overlap's boundary above the axis is the lowest of the
    three circles.  The squared heights of any two
    differ by a linear function of x, so the lowest one changes at most
    twice: from D's circle to M's at the radical line x_DM, and from M's to
    S's at x_SM, or, where x_DM >= x_SM, from D's to S's at
    x_SD = (x_DM + x_SM) / 2.  Over the overlap's span [lo, hi] the area is
    the sum of at most three pieces, each twice the area under one circle:
    R^2 (theta(x0) - theta(x1)) + [u y] between the piece's ends, with u
    the position from the circle's centre, y the height and
    theta = atan2(y, u).  y is 0 at lo and hi, where theta is pi on D's
    circle and 0 on S's, so the [u y] terms meet only at the breaks, where
    they sum to -r / 2 y each.  Angles from atan2 keep their digits where
    arccos near -1 or 1 would not.

    For a <= b and b - a < r, as for every tier lens that `tier_area_within`
    evaluates: the span is then [max(r / 2 - b, -t), min(a - r / 2, t)],
    and D's circle starts it and S's ends it.  From r >= a + b on, where
    the circles are apart, the span is empty and the area exactly 0, with
    no warning; `tier_area_within` relies on it, as it evaluates tier 1's
    lens at the links from 96.4 m on whose tier holds it, beside those
    below.  Worked in place, as `_lens` is; no validation.
    """
    a2, b2 = a * a, b * b
    sd = 0.5 * (a2 - b2)
    half = 0.5 * r
    t2 = t * t
    lo = half - np.sqrt(b2)
    np.maximum(lo, -t, out=lo)
    hi = np.sqrt(a2)
    hi -= half
    np.minimum(hi, t, out=hi)
    # the radical lines: x_SD = (a^2 - b^2) / (2 r), x_SM = (a^2 - t^2 - r^2 / 4) / r and x_DM = 2 x_SD - x_SM
    inv = 1.0 / r
    x_sd = sd * inv
    x_sm = a2 - t2
    x_sm -= half * half
    x_sm *= inv
    x_dm = 2.0 * x_sd
    x_dm -= x_sm
    # the breaks, clipped into the span, and the height at each, 0 where the clip moved it
    x1 = np.minimum(x_dm, x_sd, out=x_dm)
    x2 = np.maximum(x_sm, x_sd, out=x_sm)
    heights = []
    for x, centre, sq in ((x1, half, b2), (x2, -half, a2)):
        inner = x > lo
        inner &= x < hi
        np.maximum(x, lo, out=x)
        np.minimum(x, hi, out=x)
        y = x - centre
        np.square(y, out=y)
        np.subtract(sq, y, out=y)
        np.maximum(y, 0.0, out=y)
        np.sqrt(y, out=y)
        y *= inner
        heights.append(y)
    y1, y2 = heights
    area = y1 + y2
    area *= -half
    theta = np.arctan2(y1, x1 - half)
    np.subtract(np.pi, theta, out=theta)
    theta *= b2
    area += theta
    theta = np.arctan2(y1, x1)
    theta -= np.arctan2(y2, x2)
    theta *= t2
    area += theta
    x2 += half
    theta = np.arctan2(y2, x2, out=x2)
    theta *= a2
    area += theta
    np.copyto(area, 0.0, where=hi <= lo)
    return area[None]


def tier_arc(r, tier, t):
    """(lo, hi): the cosines of the angle w at the S-D midpoint that bound each link's tier region on the circle of radius t about it.

    On the circle |H - M| = t, at the angle w from the S-D axis,
    d_SH^2 = t^2 + r^2 / 4 + t r cos w and d_HD^2 = t^2 + r^2 / 4 - t r cos w,
    so the hop box of the tier's placed order (`TIER_BOXES`: d_SH in [a, b),
    d_HD in [c, d)) is the one interval lo <= cos w < hi, clipped into
    [-1, 1].  The other hop order and the lower half-plane are its mirror
    images.  Where t is 0 the circle is the point M, and the interval is
    any in [-1, 1].  For 1-D arrays r, tier and t; no validation.
    """
    a2, b2, c2, d2 = _BOX_SQUARES.take(tier - 1, axis=1)
    base = t * t + 0.25 * r * r
    # t r at least 1e-100, so that t = 0 leaves no 0 / 0 and no quotient overflows
    tr = t * r
    np.maximum(tr, _TINY, out=tr)
    lo = np.subtract(a2, base, out=a2)
    np.maximum(lo, np.subtract(base, d2, out=d2), out=lo)
    hi = np.subtract(b2, base, out=b2)
    np.minimum(hi, np.subtract(base, c2, out=c2), out=hi)
    for x in (lo, hi):
        x /= tr
        np.clip(x, -1.0, 1.0, out=x)
    return lo, np.maximum(hi, lo, out=hi)


# the squares of the hop-box edges a, b, c and d of each tier (`TIER_BOXES`), and the floor of t r in `tier_arc`
_BOX_SQUARES = np.square(TIER_BOXES[:4])
_BOX_SQUARES.setflags(write=False)
_TINY = 1e-100


def tier_arc_y2(r, tier, t):
    """Mean of y^2, the squared distance from the S-D line, over each link's tier region on the circle of radius t about its S-D midpoint.

    The region's arc is lo <= cos w < hi on the upper half-circle
    (`tier_arc`), and its mirror images have the same mean.  y^2 =
    t^2 sin^2 w, and the mean of sin^2 w over w in [w1, w2] is
    (1 - cos(w1 + w2) sin(D) / D) / 2 with D = w2 - w1, taken from the
    cosines hi = cos w1 and lo = cos w2 with no difference of nearly equal
    angles; it is sin^2 w1 where the arc is a point.  Given r, the tier and
    its helpers' least d_SH^2 + d_HD^2 = 2 t^2 + r^2 / 2, the helper that
    holds it is uniform on this arc, so this is its y^2's exact mean.
    """
    lo, hi = tier_arc(r, tier, t)
    s_lo = np.sqrt(1.0 - lo * lo)
    s_hi = np.sqrt(1.0 - hi * hi)
    # sin D and cos D, D = arccos(lo) - arccos(hi) in [0, pi], and cos(w1 + w2)
    sin_d = s_lo * hi
    sin_d -= lo * s_hi
    np.maximum(sin_d, 0.0, out=sin_d)
    cos_d = lo * hi
    cos_sum = cos_d - s_lo * s_hi
    cos_d += s_lo * s_hi
    span = np.arctan2(sin_d, cos_d)
    ratio = np.divide(sin_d, span, out=np.ones(span.shape), where=span > 0.0)
    ratio *= cos_sum
    np.subtract(1.0, ratio, out=ratio)
    ratio *= 0.5 * t * t
    return ratio


def cumulative_areas(areas):
    """S_1 + ... + S_i for i = 1..tiers, one row per tier, as a new float array.

    A running sum of rows: the same additions in the same order as
    np.cumsum(areas, axis=0), hence the same bits, but np.cumsum along this
    short axis is several times slower.
    """
    cum = np.array(areas, dtype=float)
    for i in range(1, len(cum)):
        cum[i] += cum[i - 1]
    return cum


def tier_void_law(areas, r, density, k):
    """P{tiers 1..i all empty} for i = 0..tiers, shape (tiers + 1, n).

    `areas` holds the tier-region areas of links of lengths r (a 1-D array),
    one row per tier.  Helper selection settles on tier i with probability
    term i-1 minus term i, and the last term is the probability that no tier
    holds a helper.  The tier law of both the bounds and the Monte Carlo;
    vectorized, no validation.
    """
    cum = cumulative_areas(areas)
    return np.concatenate((np.ones_like(cum[:1]), void_probability(cum, r, density, k)))


def void_probability(cum_area, r, density, k):
    """P{no node in helper regions of total area cum_area} for a link of length r.

    With cum_area = S_1 + ... + S_i this is P{tiers 1..i all empty}.  Under
    the PPP (k None) it is exp(-density * cum_area).  When the destination is
    the source's kth nearest neighbor, the k-1 nearer nodes are uniform in the
    disk of radius r, which holds every tier region of a class C or D link:
    (1 - cum_area / (pi r^2))^(k-1).  Vectorized; no validation.
    """
    if k is None:
        return np.exp(-density * cum_area)
    return (1.0 - cum_area / (np.pi * r ** 2)) ** (k - 1)


def choice_law(scheme, areas, r, density, k):
    """(law, void, cum) of a selection scheme's choice among the tier regions `areas` of links of lengths r.

    law, one row per tier, is the probability that a link settles on each
    tier or region and void that it has no helper; cum is what the choice
    is drawn against.  The proposed scheme settles on the lowest non-empty
    tier: cum is P{tiers 1..i all empty}, i = 0..tiers (`tier_void_law`),
    law its differences and void its last term.  The conventional scheme
    picks a helper uniform in the union of the regions: cum is
    S_1 + ... + S_i (`cumulative_areas`), void the union's void probability
    and law (1 - void) S_i / S_total.  The law of the Monte Carlo's draw and
    of its controls' mean; vectorized, no validation.
    """
    if scheme == "proposed":
        cum = tier_void_law(areas, r, density, k)
        return cum[:-1] - cum[1:], cum[-1], cum
    cum = cumulative_areas(areas)
    void = void_probability(cum[-1], r, density, k)
    return areas * ((1.0 - void) / cum[-1]), void, cum


def tier_load(areas, tier, at, r, density, k):
    """(area, load) of the tiers `tier` (1-based) that the links `at`, of lengths r, chose among the regions `areas`.

    load is the parameter of the chosen tier's helper count given that it
    is the lowest non-empty one: the mean count density x area under the
    PPP (k None), and under k-nearest conditioning the chance that one of
    the k - 1 nearer nodes, which avoids tiers 1..i-1, lies in tier i,
    S_i / (pi r^2 - S_1 - ... - S_(i-1)).
    """
    area = areas[tier - 1, at]
    if k is None:
        return area, density * area
    return area, area / (np.pi * r ** 2 - (cumulative_areas(areas)[tier - 1, at] - area))


def tier_region_areas(link_class: str, r_k: float) -> RegionAreas:
    """Analytic tier-region areas for a class C or D link of length r_k.

    Type C returns three areas, Type D five; the tier-1 area of a Type-D
    link vanishes for r_k > 96.4 m (the two 48.2 m circles no longer
    intersect).
    """
    check_band(link_class, CLASS_TIERS, r_k)
    areas = tier_areas(np.array([float(r_k)]))[:CLASS_TIERS[link_class], 0]
    return RegionAreas(link_class=link_class, r_k=float(r_k), areas=tuple(map(float, areas)))


def hop_band(d):
    """Hop band index of distance(s) d: 0 below 48.2 m, ..., 3 from 74.7 m on."""
    return np.searchsorted(_INNER_EDGES, np.asarray(d, dtype=float), side="right")


def hop_angle(x, rho, r):
    """Angle at S between the S-D axis and the point at distance rho from S and x from D.

    The points at distance rho from S nearer than x to D are those at angles
    below it; where there are none it is 0, where all are it is pi.  At
    rho = 0 it is the limit rho -> 0: 0 for r > x, pi for r < x, pi/2 for
    r = x.  Vectorized; no validation.
    """
    num = rho * rho + r * r - x * x
    cos = np.divide(num, 2.0 * rho * r, out=np.sign(num), where=rho > 0)
    return np.arccos(np.clip(cos, -1.0, 1.0))


def tier_index(d_sh, d_hd, link_class: str):
    """Vectorized tier lookup; 0 means the helper is not beneficial."""
    check_band(link_class, CLASS_TIERS)
    return _TIER_TABLES[link_class][hop_band(d_sh), hop_band(d_hd)]


def nn_distance_band(a, b, density, k):
    """The kth-NN distance law on the band [a, b] m, as (lo, hi, inverse).

    density*pi*R^2 is Gamma(k, 1) distributed.  lo and hi are its
    distribution function at the band ends, or its upper tail when the band
    lies beyond the median, so that neither end rounds to 1.  The band's mass
    is |hi - lo|, and inverse(k, u) maps u between lo and hi to
    density*pi*R^2 on the band.  A band whose mass is 0 in double precision
    raises ValueError; no other validation.
    """
    from scipy.special import gammainc, gammaincc, gammainccinv, gammaincinv

    x = density * np.pi * np.array([a * a, b * b])
    upper = gammaincc(k, x[0]) < 0.5
    lo, hi = gammaincc(k, x) if upper else gammainc(k, x)
    if lo == hi:
        raise ValueError(
            "the link band [%g, %g] m holds no probability in double precision "
            "under the k=%d nearest-neighbor law at density %g" % (a, b, k, density)
        )
    return lo, hi, gammainccinv if upper else gammaincinv


def nn_distance_pdf(k: int, density: float, r):
    """PDF of the distance to the kth nearest PPP neighbor.

    f(r) = 2 * exp(-lam*pi*r^2) * (lam*pi*r^2)^k / (r * (k-1)!), with
    f(r) = 0 for r <= 0, and its limit 0 where lam*pi*r^2 overflows; a NaN r
    raises ValueError.  Vectorized in r; uses log-gamma for stability at
    large k.
    """
    check_conditioning(density, k)
    r = np.asarray(r, dtype=float)
    scalar = r.ndim == 0
    r = np.atleast_1d(r)
    out = np.zeros_like(r)
    pos = r > 0  # False at NaN too
    if not pos.all() and np.isnan(r).any():
        raise ValueError("distance must not be NaN")
    out[pos] = nn_distance_law(k, density)(r[pos])
    return float(out[0]) if scalar else out


def nn_distance_law(k: int, density: float):
    """`nn_distance_pdf` as a function of an array of distances r > 0, for one k and density.

    log Gamma(k) and density*pi are computed once, so a caller that takes
    the pdf at many nodes builds this once.  No validation.
    """
    from scipy.special import gammaln

    lam_pi, log_gamma_k = density * np.pi, gammaln(k)

    def pdf(r):
        # from x = 1e300 on the pdf is 0 in double precision at any k, so an overflow is capped there
        with np.errstate(over="ignore"):
            x = np.minimum(lam_pi * r ** 2, 1e300)
        return 2.0 * np.exp(-x + k * np.log(x) - log_gamma_k) / r

    return pdf
