"""The conventional scheme's exact mean, by quadrature from the geometry and the channel model alone: a test oracle.

A conventional link of class C or D with a helper picks one node uniformly
from the union of its tier regions, so the helper lies in region j with
probability S_j / S_tot and is uniform in it, and a link scores
E[T | r] = (1 - V) sum_j (S_j / S_tot) h_j(r) + V rate_D Ps(r), with
h_j(r) = rate_j E[G | region j, r] and V = P{no node in the regions}: under
the PPP exp(-lambda S_tot), and with the k - 1 nodes nearer than the
destination uniform in the disk of radius r, (1 - S_tot / (pi r^2))^(k-1).
Classes A and B have no helpers and score rate Ps(r).

`region_g` integrates 1 and G over region j in polar coordinates about the
source, one hop order at a time, with `scipy.integrate.quad` and
`scipy.integrate.dblquad`, and `region_mean` is h_j.  `conditional_mean` is
E[T | r], and `scheme_mean` averages it over a regime's band under the
link-length law (2 r / (b^2 - a^2) under the PPP, the kth-nearest-neighbour
law given the band under k) by Gauss-Legendre in r; regime "all" weights
the classes by their band masses.  The oracle reads the band table of
`stochastic_geometry`, `channel_model.p_success_direct` and
`moment_oracle`'s angle, and nothing of the Monte Carlo or its tables.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.integrate import dblquad, quad

from coopmac.channel_model import ChannelParams, p_success_direct
from coopmac.stochastic_geometry import BAND_EDGES, BAND_RATES, CLASS_TIERS, REGIMES, TIER_BANDS, TIER_RATES
from moment_oracle import _theta

PARAMS = ChannelParams()
# Gauss-Legendre nodes in r per helper regime: D1's tier 1 vanishes at 96.4 m like a power of the gap, which
# takes more nodes than the smooth C and D2 bands
_R_NODES = {"C": 4, "D1": 12, "D2": 4}


@lru_cache(maxsize=None)
def _ps(d, params):
    """Ps(d) as a float."""
    return float(p_success_direct(d, params))


@lru_cache(maxsize=None)
def region_g(tier, r, params=PARAMS):
    """(area, integral of G) over tier `tier`'s region of a link of length r, both hop orders and half-planes."""
    i, j = TIER_BANDS[tier - 1]
    area = total = 0.0
    for s_band, h_band in {(i, j), (j, i)}:
        a, b = BAND_EDGES[s_band:s_band + 2]
        c, d = BAND_EDGES[h_band:h_band + 2]
        lo, hi = max(a, r - d), min(b, r + d)
        if lo >= hi:
            continue
        # the angle limits bend where d_HD's band edges meet the axis: split rho there
        cuts = sorted({lo, hi} | {x for e in (c, d) for x in (r - e, e - r, r + e) if lo < x < hi})
        for left, right in zip(cuts[:-1], cuts[1:]):
            area += 2.0 * quad(lambda rho: rho * (_theta(d, rho, r) - _theta(c, rho, r)), left, right,
                               epsabs=0.0, epsrel=1e-12)[0]
            total += 2.0 * dblquad(
                lambda t, rho: rho * _ps(rho, params) * _ps(math.sqrt(rho * rho + r * r - 2.0 * rho * r * math.cos(t)),
                                                            params),
                left, right, lambda rho: _theta(c, rho, r), lambda rho: _theta(d, rho, r), epsabs=0.0, epsrel=1e-10)[0]
    return area, total


def region_mean(tier, r, params=PARAMS):
    """h_j(r) = rate_j E[G | region j, r]; nan where the region is empty."""
    area, total = region_g(tier, r, params)
    return TIER_RATES[tier - 1] * total / area if area > 0.0 else math.nan


def conditional_mean(r, density, k, params=PARAMS):
    """E[T | r] of the conventional scheme at a class C or D link length r."""
    link_class = "C" if r < BAND_EDGES[3] else "D"
    parts = [region_g(tier, r, params) for tier in range(1, CLASS_TIERS[link_class] + 1)]
    total = sum(area for area, _ in parts)
    if k is None:
        void = math.exp(-density * total)
    else:
        void = (1.0 - total / (math.pi * r * r)) ** (k - 1)
    helped = sum(rate * g for rate, (_, g) in zip(TIER_RATES, parts)) / total
    return (1.0 - void) * helped + void * BAND_RATES[3 if link_class == "D" else 2] * _ps(r, params)


def _law(density, k):
    """The link-length density on (0, 100] m, unnormalized under k: 2 r / 100^2, or the kth-NN distance pdf."""
    if k is None:
        return lambda r: 2.0 * r / BAND_EDGES[-1] ** 2
    lam_pi = density * math.pi
    return lambda r: 2.0 * math.exp(k * math.log(lam_pi * r * r) - lam_pi * r * r - math.lgamma(k)) / r


def _partial(regime, density, k, params):
    """(mass, integral of E[T | r] times the link-length law) over the regime's band."""
    a, b, link_class = REGIMES[regime]
    law = _law(density, k)
    mass = quad(law, a, b, epsabs=0.0, epsrel=1e-12)[0]
    if link_class not in CLASS_TIERS:
        rate = BAND_RATES["ABCD".index(link_class)]
        return mass, quad(lambda r: rate * _ps(r, params) * law(r), a, b, epsabs=0.0, epsrel=1e-12)[0]
    x, w = np.polynomial.legendre.leggauss(_R_NODES[regime])
    r = a + (b - a) * (x + 1.0) / 2.0
    return mass, sum(wi * (b - a) / 2.0 * law(ri) * conditional_mean(ri, density, k, params) for ri, wi in zip(r, w))


def scheme_mean(regime, density, k=None, params=PARAMS):
    """The conventional scheme's mean throughput over the regime's band, given that the link lies in it."""
    parts = [_partial(name, density, k, params) for name in (("A", "B", "C", "D1", "D2") if regime == "all" else (regime,))]
    return sum(p for _, p in parts) / sum(m for m, _ in parts)
