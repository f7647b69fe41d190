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
tier law and that the Monte Carlo's sampled mode and control tables read,
one kernel for both.  The best positions are G's maxima only while log Ps is concave in
the hop length, which `log_ps_concave` checks once per parameter set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import erfc, erfcx

from .stochastic_geometry import BAND_11, BAND_55, BAND_EDGES, CLASS_TIERS, TIER1_MAX_SEPARATION, TIER_BANDS, TIER_RATES

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class ChannelParams:
    """Link-budget parameters (all powers in dBm, sigma/K in dB).

    Defaults are the reference parameter set: 1 mW transmit power (0 dBm),
    -98 dBm receive threshold, path-loss exponent 3, 6 dB shadowing
    deviation, -40 dB antenna constant.  pt, pth and k_const must be finite,
    sigma_sh positive and finite, alpha in [2, 7], and nu and mu, the link
    budget and path-loss slope over sigma_sh, finite; else ValueError.
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
        # a subnormal sigma_sh overflows them, and Q(nu + mu log10 d) would be NaN at d = 1 m
        if not (np.isfinite(self.nu) and np.isfinite(self.mu)):
            raise ValueError("nu and mu must be finite: sigma_sh %r is too small for this link budget" % (self.sigma_sh,))

    @property
    def nu(self) -> float:
        return (self.pth - self.pt - self.k_const) / self.sigma_sh

    @property
    def mu(self) -> float:
        return 10.0 * self.alpha / self.sigma_sh


def check_channel(params):
    """Check that `params` is a `ChannelParams`, whose fields its construction checked.

    Every public entry point that takes channel parameters checks them
    here; anything else, None among it, raises ValueError.
    """
    if not isinstance(params, ChannelParams):
        raise ValueError("channel parameters must be a ChannelParams, got %r" % (params,))


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
    check_channel(params)
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
def log_ps_concave(params: ChannelParams = ChannelParams()) -> bool:
    """Whether log Ps(d) is concave in d for every hop up to 100 m, once per ChannelParams.

    With x = nu + mu log10(d), the second derivative of log Q(x) in d has
    the sign of lambda(x) - c lambda'(x), with lambda the Gaussian hazard
    phi/Q and c = mu / ln 10.  As lambda' = lambda (lambda - x), log Ps is
    concave wherever c (lambda(x) - x) >= 1, and lambda(x) - x falls as x
    grows, so the check at d = 100 m, the largest x, holds for every shorter
    hop.  lambda(x) < x + 1/x for x > 0, so x >= c fails without the
    difference, which cancels for large x: from x = 1e4 on it is taken from
    its series 1/x - 2/x^3 + 10/x^5, whose next term is below the rounding,
    and it is compared with 1 / c, which a tiny sigma_sh cannot overflow.
    An x that overflows fails.  The reference parameters pass; a loose link
    budget (alpha = 2 with pt = -30 dBm, or sigma_sh = 12 dB) does not.
    """
    with np.errstate(over="ignore"):
        x = params.nu + params.mu * np.log10(BAND_EDGES[-1])
    c = params.mu / np.log(10.0)
    if not x < c:
        return False
    if x > 1e4:
        z = 1.0 / x
        gap = z * (1.0 - z * z * (2.0 - 10.0 * z * z))
    else:
        gap = np.sqrt(2.0 / np.pi) / erfcx(x / _SQRT2) - x
    return bool(gap >= 1.0 / c)


def _at_best(r, n, hop, pair):
    """pair(hop(d_SH), hop(d_HD)) at each of the first n tiers' best helper positions, for link lengths r: an (n, len(r)) array.

    The tiers' best (d_SH, d_HD) are declared here alone: tier 1 at the S-D
    midpoint (r / 2, r / 2), tiers 2 and 4 with the hop of the higher band
    at its inner edge and the other closing the gap to r, (48.2, r - 48.2)
    and (67.1, r - 67.1), tier 3 at its inner corner (48.2, 48.2) while S
    and D are within 96.4 m of each other and at the midpoint beyond, and
    tier 5 at its inner corner (48.2, 67.1).  hop maps a hop length, a band
    edge or an array like r, and is taken once per distinct hop.
    """
    mid, edge_11 = hop(0.5 * r), hop(BAND_11)
    best = np.empty((n, len(r)))
    best[0] = pair(mid, mid)
    best[1] = pair(edge_11, hop(r - BAND_11))
    best[2] = np.where(r > TIER1_MAX_SEPARATION, best[0], pair(edge_11, edge_11))
    if n == 5:
        edge_55 = hop(BAND_55)
        best[3] = pair(edge_55, hop(r - BAND_55))
        best[4] = pair(edge_11, edge_55)
    return best


def tier_bracket(link_class: str, r, params: ChannelParams):
    """(worst, best): each tier's rate times G at its worst and at its best helper position, for link lengths r.

    G over a tier region lies between its values at the region's worst and
    best positions (`_at_best`), the upper end while log Ps is concave
    (below).  worst is the read-only (n,) table of `worst_tier_g`, which r
    does not move; best is an (n, len(r)) array for the n tiers of the link
    class (`CLASS_TIERS`) at the 1-D array r.
    Ps falls with the hop length, so for any ChannelParams worst is G's
    least value over its tier, and the inner corners of tier 3 (r <= 96.4 m)
    and tier 5 are its greatest.  The other best positions split r between
    the two hops as evenly as their bands allow, which maximises G only
    while log Ps is concave in the hop length (`log_ps_concave`); past
    that, a helper may beat the tabulated best.
    No validation: r must be positive, and at least 67.1 m for the 5-tier
    class; a class C link read through the 5-tier kernel gets finite tier-4
    and tier-5 entries, a hop of 0 m succeeding with probability 1.
    """
    n = CLASS_TIERS[link_class]
    with np.errstate(divide="ignore"):
        best = _at_best(r, n, lambda d: _p_success(d, params), np.multiply)
    for row, rate in zip(best, TIER_RATES):
        row *= rate
    return worst_tier_g(params)[1][:n], best


# d_SH^2 + d_HD^2 at each tier's worst position of `worst_tier_g`, both hops at the outer edges of its bands
_WORST_Q = np.square(np.take(BAND_EDGES[1:], np.transpose(TIER_BANDS))).sum(axis=0)
_WORST_Q.setflags(write=False)


def tier_q_bracket(r):
    """(worst, best): d_SH^2 + d_HD^2 at each tier's worst and best helper positions of `tier_bracket`, for link lengths r.

    worst is a read-only (5,) table and best a (5, len(r)) array for all
    five tiers at the 1-D array r.  Over a tier region d_SH^2 + d_HD^2 is
    largest at the worst position, the outer corner of the hop bands, and
    least at the best one (`_at_best`), the evenest split of r that the
    bands allow.  No validation.
    """
    return _WORST_Q, _at_best(r, len(_WORST_Q), np.square, np.add)
