"""Log-distance path loss with log-normal shadowing, in the dB domain.

Received power over a d-meter hop is

    P_rec = P_t + K - 10 * alpha * log10(d) + psi   [dBm]

with psi a zero-mean Gaussian of standard deviation sigma_sh (dB).  A hop
succeeds when P_rec clears the receive threshold, which reduces to the
Gaussian tail probability Q(nu + mu * log10(d)) with

    nu = (pth - pt - k_const) / sigma_sh,   mu = 10 * alpha / sigma_sh.

The two-hop success G at each helper tier's worst position is tabulated
once per parameter set (`worst_tier_g`).  `tier_bracket` adds G at each
tier's best position, which moves with the link length, and returns both
times the tier rate: the per-tier bracket that the bounds reduce with the
tier law and the Monte Carlo's control variate centres on, one kernel for
both.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import erfc

from .stochastic_geometry import BAND_11, BAND_55, BAND_EDGES, CLASS_TIERS, TIER1_MAX_SEPARATION, TIER_BANDS, TIER_RATES

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class ChannelParams:
    """Link-budget parameters (all powers in dBm, sigma/K in dB).

    Defaults are the reference parameter set: 1 mW transmit power (0 dBm),
    -98 dBm receive threshold, path-loss exponent 3, 6 dB shadowing
    deviation, -40 dB antenna constant.  pt, pth and k_const must be finite,
    sigma_sh positive and finite and alpha in [2, 7]; else ValueError.
    """

    pt: float = 0.0
    pth: float = -98.0
    k_const: float = -40.0
    alpha: float = 3.0
    sigma_sh: float = 6.0

    def __post_init__(self):
        for name in ("pt", "pth", "k_const"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError("%s must be finite, got %r" % (name, getattr(self, name)))
        if not 0 < self.sigma_sh < np.inf:
            raise ValueError("sigma_sh must be positive and finite, got %r" % (self.sigma_sh,))
        if not 2.0 <= self.alpha <= 7.0:
            raise ValueError("alpha must lie in [2, 7], got %r" % (self.alpha,))

    @property
    def nu(self) -> float:
        return (self.pth - self.pt - self.k_const) / self.sigma_sh

    @property
    def mu(self) -> float:
        return 10.0 * self.alpha / self.sigma_sh

    def mean_rx_power(self, distance):
        """Deterministic part of the received power (dBm) at `distance` m."""
        return self.pt + self.k_const - 10.0 * self.alpha * np.log10(distance)


def q_function(x):
    """Gaussian tail probability Q(x) = P{N(0,1) > x}.

    Evaluated through the complementary error function, accurate to well
    below 1e-12 in absolute terms.  Accepts scalars or arrays.
    """
    return 0.5 * erfc(np.asarray(x, dtype=float) / _SQRT2)


def _check_distance(distance):
    d = np.asarray(distance, dtype=float)
    if not np.all(d > 0):  # a NaN distance fails too
        raise ValueError("distance must be positive")
    return d


def p_success_direct(distance, params: ChannelParams = ChannelParams()):
    """Success probability of a single hop of length `distance` meters.

    Equals Q(nu + mu*log10(d)); strictly decreasing in d.
    """
    return _p_success(_check_distance(distance), params)


def _p_success(d, params: ChannelParams):
    """`p_success_direct` without its check, for distances d already known to be positive."""
    return q_function(params.nu + params.mu * np.log10(d))


def g_joint(l1, l2, params: ChannelParams = ChannelParams()):
    """Joint success probability of a two-hop relay path.

    The two shadowing draws are independent, so the probability factors as
    the product of the per-hop success probabilities.  Symmetric in
    (l1, l2).
    """
    return p_success_direct(l1, params) * p_success_direct(l2, params)


@lru_cache(maxsize=64)
def worst_tier_g(params: ChannelParams = ChannelParams()):
    """G at each helper tier's worst position, and the tier rate times it, once per ChannelParams.

    A tier's worst position has both hops at the outer edges of its hop
    bands (`stochastic_geometry.TIER_BANDS`), where G is least over the tier
    region, as Ps falls with the hop length.  Returns two read-only (5,)
    arrays, tier 1 first: G, and rate x G, the lower end of each tier's
    bracket (`tier_bracket`).
    """
    g = g_joint(*np.take(BAND_EDGES[1:], np.transpose(TIER_BANDS)), params)
    terms = g * np.array(TIER_RATES)
    for table in (g, terms):
        table.setflags(write=False)
    return g, terms


@lru_cache(maxsize=64)
def _fixed_ps(params: ChannelParams):
    """Ps at 48.2 m and at 67.1 m, the fixed hop of tiers 2 and 4 at their best positions, once per ChannelParams."""
    return float(p_success_direct(BAND_11, params)), float(p_success_direct(BAND_55, params))


def tier_bracket(link_class: str, r, params: ChannelParams):
    """(worst, best): each tier's rate times G at its worst and at its best helper position, for link lengths r.

    G over a tier region lies between its values at the region's worst and
    best positions.  worst is the read-only (n,) table of `worst_tier_g`,
    which r does not move; best is an (n, len(r)) array for the n tiers of
    the link class (`CLASS_TIERS`) at the 1-D array r.  A tier-1 helper is
    best at the S-D midpoint, tiers 2 and 4 with the hop of the higher band
    at its inner edge (48.2 m, 67.1 m) and the other hop closing the gap to
    r, tier 3 at its inner corner (both hops 48.2 m) while S and D are within
    96.4 m of each other and at the midpoint beyond, and tier 5 at its inner
    corner (48.2 m and 67.1 m).
    No validation: r must be positive, and at least 67.1 m for the 5-tier
    class; a class C link read through the 5-tier kernel gets finite tier-4
    and tier-5 entries, a hop of 0 m succeeding with probability 1.
    """
    n = CLASS_TIERS[link_class]
    worst_g, worst = worst_tier_g(params)
    ps_11, ps_55 = _fixed_ps(params)
    corner, inner = worst_g[:2]
    # Ps of the r-dependent hops: to the midpoint, and the far hops of tiers 2 and 4
    with np.errstate(divide="ignore"):
        ps_mid, ps_2, *ps_4 = _p_success(np.array([r / 2, r - BAND_11, r - BAND_55][:n - 1]), params)
    mid = ps_mid * ps_mid
    best_g = [mid, ps_11 * ps_2, np.where(r > TIER1_MAX_SEPARATION, mid, corner)]
    if n == 5:
        best_g += [ps_55 * ps_4[0], inner]
    best = np.empty((n, len(r)))
    for row, g, rate in zip(best, best_g, TIER_RATES):
        np.multiply(g, rate, out=row)
    return worst[:n], best


def shadowing_sample(distance, params: ChannelParams, rng, size=None):
    """Draw received power(s) in dBm for a hop of length `distance`.

    Path-loss mean plus a fresh zero-mean Gaussian of std sigma_sh per
    draw.  `rng` is a numpy Generator; `size` follows numpy conventions.
    """
    d = _check_distance(distance)
    mean = params.mean_rx_power(d)
    return mean + rng.normal(0.0, params.sigma_sh, size=size if size is not None else np.shape(mean) or None)
