"""Poisson point process sampling and helper-tier geometry.

The helper tiers of a source-destination (S-D) link are defined by distance
bands on the two hop lengths (d_SH, d_HD).  The band edges 48.2 / 67.1 /
74.7 m are the rate breakpoints of the 11/5.5/2 Mbps link classes; each
tier region is an intersection of two annuli centered on S and D, so its
area reduces to differences of two-circle lens areas.

The band edges, their rates, the tiers and the regimes are declared once
below; the other modules derive their tables from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import gammainc, gammaincc, gammainccinv, gammaincinv, gammaln

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
class NetworkRealization:
    """One sampled PPP: density, observation window, node coordinates.

    `window` is (xmin, ymin, xmax, ymax) in meters; `nodes` is an (n, 2)
    float array.  Immutable after construction.
    """

    density: float
    window: tuple
    nodes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=float).reshape(-1, 2))
        self.nodes.setflags(write=False)


@dataclass(frozen=True)
class RegionAreas:
    """Per-tier region areas (m^2) for one link, indexed by tier."""

    link_class: str
    r_k: float
    areas: tuple  # areas[i] is the tier-(i+1) region area

    def area(self, tier: int) -> float:
        return self.areas[tier - 1]


def sample_ppp(density: float, window, seed) -> NetworkRealization:
    """Sample a homogeneous PPP of the given density on a rectangle.

    Parameters
    ----------
    density : nodes per square meter (> 0)
    window : (xmin, ymin, xmax, ymax) in meters
    seed : int or numpy Generator

    The node count is Poisson(density * area) and positions are i.i.d.
    uniform; the draw is deterministic for a fixed integer seed.
    """
    check_conditioning(density)
    xmin, ymin, xmax, ymax = map(float, window)
    if not (xmax > xmin and ymax > ymin):
        raise ValueError("window must be a non-degenerate rectangle")
    rng = np.random.default_rng(seed)
    area = (xmax - xmin) * (ymax - ymin)
    n = rng.poisson(density * area)
    xy = np.column_stack(
        (rng.uniform(xmin, xmax, n), rng.uniform(ymin, ymax, n))
    )
    return NetworkRealization(density=density, window=(xmin, ymin, xmax, ymax), nodes=xy)


def lens_area(r1, r2, separation):
    """Intersection area of two circles of radii r1, r2 (m^2).

    Uses the standard lens formula; separations beyond r1+r2 give 0 and
    separations below |r1-r2| give the full smaller circle.  `separation`
    may be an array.
    """
    r1 = float(r1)
    r2 = float(r2)
    if not (r1 > 0 and r2 > 0):  # NaN radii fail too
        raise ValueError("circle radii must be positive")
    d = np.asarray(separation, dtype=float)
    if not np.all(d >= 0):
        raise ValueError("separation must be non-negative")
    out = _lens(r1, r2, np.atleast_1d(d))
    return float(out[0]) if d.ndim == 0 else out


# the limits overwrite whatever d = 0 (a division by 0) and d = inf (inf - inf) give the formula
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _lens(r1, r2, d):
    """Lens areas of circles of radii r1, r2 at separations d >= 0 (an array), broadcast over all three.

    The lens formula, then its two limits: 0 from d = r1 + r2 on, where
    arccos(1 - eps) would leave a sliver, and the smaller circle up to
    d = |r1 - r2|.  No validation.
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
    np.copyto(area, 0.0, where=d >= r1 + r2)
    np.copyto(area, np.pi * np.minimum(r1, r2) ** 2, where=d <= abs(r1 - r2))
    return area


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
    lenses costs more than it saves.
    """
    first = 0 if np.any(r < TIER1_MAX_SEPARATION) else 1
    class_c = r < BAND_2
    last = CLASS_TIERS["C"] if class_c.all() else CLASS_TIERS["D"]
    lens = np.zeros((len(TIER_BANDS), r.size))
    lens[first:last] = _lens(_LENS_R1[first:last], _LENS_R2[first:last], r)
    s1, l2, l3, l4, l5 = lens
    s2 = 2.0 * (l2 - s1)
    s4 = 2.0 * (l4 - s1) - s2
    areas = np.array((s1, s2, l3 - s2 - s1, s4, 2.0 * (l5 - l3) - s4))
    areas[CLASS_TIERS["C"]:, class_c] = 0.0
    return areas


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


def tier_index(d_sh, d_hd, link_class: str):
    """Vectorized tier lookup; 0 means the helper is not beneficial."""
    check_band(link_class, CLASS_TIERS)
    return _TIER_TABLES[link_class][hop_band(d_sh), hop_band(d_hd)]


def classify_helper_tier(d_sh: float, d_hd: float, link_class: str) -> Optional[int]:
    """Tier of a helper with hop distances (d_sh, d_hd), or None.

    Distance bands are half-open ([0,48.2), [48.2,67.1), [67.1,74.7)), so a
    hop of exactly 48.2 m falls in the 5.5 Mbps band.
    """
    if not (d_sh >= 0 and d_hd >= 0):  # NaN hops fail too
        raise ValueError("hop distances must be non-negative")
    t = int(tier_index(d_sh, d_hd, link_class))
    return t if t else None


def nn_distance_band(a, b, density, k):
    """The kth-NN distance law on the band [a, b] m, as (lo, hi, inverse).

    density*pi*R^2 is Gamma(k, 1) distributed.  lo and hi are its
    distribution function at the band ends, or its upper tail when the band
    lies beyond the median, so that neither end rounds to 1.  The band's mass
    is |hi - lo|, and inverse(k, u) maps u between lo and hi to
    density*pi*R^2 on the band.  A band whose mass is 0 in double precision
    raises ValueError; no other validation.
    """
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
    lam_pi, log_gamma_k = density * np.pi, gammaln(k)

    def pdf(r):
        # from x = 1e300 on the pdf is 0 in double precision at any k, so an overflow is capped there
        with np.errstate(over="ignore"):
            x = np.minimum(lam_pi * r ** 2, 1e300)
        return 2.0 * np.exp(-x + k * np.log(x) - log_gamma_k) / r

    return pdf
