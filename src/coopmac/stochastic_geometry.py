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
from scipy.special import gammaln
from scipy.stats import gamma as _gamma_dist

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

    @property
    def total(self) -> float:
        return float(sum(self.areas))


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
    if not density > 0:
        raise ValueError("density must be positive, got %r" % (density,))
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
    if r1 <= 0 or r2 <= 0:
        raise ValueError("circle radii must be positive")
    d = np.asarray(separation, dtype=float)
    scalar = d.ndim == 0
    d = np.atleast_1d(d)
    if np.any(d < 0):
        raise ValueError("separation must be non-negative")

    out = np.empty_like(d)
    full = d <= abs(r1 - r2)
    none = d >= r1 + r2
    mid = ~(full | none)
    out[full] = np.pi * min(r1, r2) ** 2
    out[none] = 0.0
    dm = d[mid]
    # clip guards the arccos arguments against round-off at the tangency edges
    a1 = r1 ** 2 * np.arccos(np.clip((dm ** 2 + r1 ** 2 - r2 ** 2) / (2 * dm * r1), -1.0, 1.0))
    a2 = r2 ** 2 * np.arccos(np.clip((dm ** 2 + r2 ** 2 - r1 ** 2) / (2 * dm * r2), -1.0, 1.0))
    tri = 0.5 * np.sqrt(
        np.maximum((-dm + r1 + r2) * (dm + r1 - r2) * (dm - r1 + r2) * (dm + r1 + r2), 0.0)
    )
    # floored at 0: just below tangency the three terms cancel to round-off of either sign
    out[mid] = np.maximum(a1 + a2 - tri, 0.0)
    return float(out[0]) if scalar else out


def tier_areas(r, n_tiers: int = 5):
    """Tier-1..n_tiers region areas for link length(s) r (no validation).

    lens[t - 1] is the lens of tier t's outer hop edges.  It holds tier t and
    the tiers inside it, which are subtracted; a tier whose hops lie in two
    different bands counts both hop orders, hence the factors of 2.
    """
    lens = [lens_area(BAND_EDGES[i + 1], BAND_EDGES[j + 1], r) for i, j in TIER_BANDS[:n_tiers]]
    s1 = lens[0]  # 0 for r > 96.4
    s2 = 2.0 * (lens[1] - s1)
    s3 = lens[2] - s2 - s1
    if n_tiers == 3:
        return (s1, s2, s3)
    s4 = 2.0 * (lens[3] - s1) - s2
    s5 = 2.0 * (lens[4] - lens[2]) - s4
    return (s1, s2, s3, s4, s5)


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
    areas = tier_areas(float(r_k), CLASS_TIERS[link_class])
    return RegionAreas(link_class=link_class, r_k=float(r_k), areas=areas)


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
    if d_sh < 0 or d_hd < 0:
        raise ValueError("hop distances must be non-negative")
    t = int(tier_index(d_sh, d_hd, link_class))
    return t if t else None


def nn_distance_band(a, b, density, k):
    """The kth-NN distance law on the band [a, b] m, as (lo, hi, inverse).

    density*pi*R^2 is Gamma(k, 1) distributed.  lo and hi are its
    distribution function at the band ends, or its upper tail when the band
    lies beyond the median, so that neither end rounds to 1.  The band's mass
    is |hi - lo|, and inverse(u, k) maps u between lo and hi to
    density*pi*R^2 on the band.  No validation.
    """
    x = density * np.pi * np.array([a * a, b * b])
    upper = _gamma_dist.sf(x[0], k) < 0.5
    lo, hi = _gamma_dist.sf(x, k) if upper else _gamma_dist.cdf(x, k)
    return lo, hi, _gamma_dist.isf if upper else _gamma_dist.ppf


def nn_distance_pdf(k: int, density: float, r):
    """PDF of the distance to the kth nearest PPP neighbor.

    f(r) = 2 * exp(-lam*pi*r^2) * (lam*pi*r^2)^k / (r * (k-1)!), with
    f(r) = 0 for r <= 0.  Vectorized in r; uses log-gamma for stability at
    large k.
    """
    if not (isinstance(k, (int, np.integer)) and k >= 1):
        raise ValueError("k must be an integer >= 1, got %r" % (k,))
    if not density > 0:
        raise ValueError("density must be positive")
    r = np.asarray(r, dtype=float)
    scalar = r.ndim == 0
    r = np.atleast_1d(r)
    out = np.zeros_like(r)
    pos = r > 0
    x = density * np.pi * r[pos] ** 2
    out[pos] = 2.0 * np.exp(-x + k * np.log(x) - gammaln(k)) / r[pos]
    return float(out[0]) if scalar else out
