"""Closed-form throughput expressions and lower/upper bounds.

For a class C or D link the average cooperative throughput is a mixture
over helper tiers: with probability P_i the best available helper sits in
tier i (contributing tier-rate x joint success probability), and with the
residual probability no beneficial helper exists and the link falls back
to direct transmission.  The per-tier success probability is bracketed by
evaluating the two-hop success G at the extremal helper positions inside
the tier region, which yields computable lower/upper bounds on the mean
throughput.

The tier probabilities are differences of the void probabilities of the
tier regions (`stochastic_geometry.void_probability`, which the Monte Carlo
shares) under one of two conditionings: ``ppp`` (default), an unconditioned
PPP helper field, or ``k``-nearest, the destination being the source's kth
nearest neighbor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channel_model import ChannelParams, g_joint, p_success_direct
from .quadrature import adaptive_simpson
from .stochastic_geometry import (
    BAND_11,
    BAND_2,
    BAND_55,
    CLASS_RATES,
    CLASS_TIERS,
    DIRECT_CLASSES,
    HELPER_REGIMES,
    MAX_RANGE,
    REGIMES,
    check_band,
    nn_distance_pdf,
    tier_areas,
    void_probability,
)
from .protocol import TIER_RATES


@dataclass(frozen=True)
class BoundPair:
    """Lower/upper throughput bounds in Mbps, with provenance context."""

    lower: float
    upper: float
    context: tuple = ()

    def __post_init__(self):
        if not (0.0 <= self.lower <= self.upper + 1e-12):
            raise ValueError("bounds out of order: %r > %r" % (self.lower, self.upper))


@dataclass(frozen=True)
class TierProbabilityVector:
    """Probability that helper selection settles on each tier.

    `probs` maps tier index to probability; `residual` is the
    no-beneficial-helper (direct transmission) probability.  Entries and
    residual sum to 1.
    """

    link_class: str
    r_k: float
    probs: dict
    residual: float
    conditioning: tuple  # ("ppp", density) or ("k", k)


def h_integral(r_min: float, r_max: float, k: int, density: float, params: ChannelParams = ChannelParams()) -> float:
    """Integral of Q(nu + mu*log10 r) against the kth-NN distance PDF.

    The building block of the Type A/B throughput expressions: the
    probability that the kth neighbor lies in [r_min, r_max] *and* a
    direct transmission to it succeeds.
    """
    if r_min < 0 or r_max < r_min:
        raise ValueError("need 0 <= r_min <= r_max")
    if r_min == r_max:
        return 0.0

    def integrand(r):
        if r <= 0.0:
            return 0.0
        return float(p_success_direct(r, params)) * nn_distance_pdf(k, density, r)

    return adaptive_simpson(integrand, r_min, r_max)


def type_ab_throughput(link_class: str, k: int, density: float, params: ChannelParams = ChannelParams()) -> float:
    """Average direct throughput (Mbps) of a class A or B link.

    Class A: H(0, 48.2) x 11; class B: H(48.2, 67.1) x 5.5, where H
    weighs the direct success probability by the kth-NN distance law.
    """
    lo, hi = check_band(link_class, DIRECT_CLASSES)
    return h_integral(lo, hi, k, density, params) * CLASS_RATES[link_class]


def tier_probabilities(
    link_class: str,
    r_k: float,
    density: Optional[float] = None,
    k: Optional[int] = None,
) -> TierProbabilityVector:
    """Selection probability of each helper tier for a link of length r_k.

    Exactly one of `density` (PPP void-probability form) or `k` (k-nearest
    conditioning: k-1 nodes uniform in the disk of radius r_k) must be
    given.  Tiers are claimed greedily in priority order, so the tier-i
    probability is the probability that regions 1..i-1 are empty and
    region i is not.
    """
    check_band(link_class, CLASS_TIERS, r_k)
    if (density is None) == (k is None):
        raise ValueError("give exactly one of density (ppp) or k (k-nearest)")

    if density is not None:
        if not density > 0:
            raise ValueError("density must be positive")
        conditioning = ("ppp", float(density))
    else:
        if not (isinstance(k, (int, np.integer)) and k >= 1):
            raise ValueError("k must be an integer >= 1")
        conditioning = ("k", int(k))
    areas = tier_areas(float(r_k), CLASS_TIERS[link_class])
    cum = np.concatenate(([0.0], np.cumsum(areas)))
    empty = void_probability(cum, r_k, density, k)  # P{regions 1..i all void}
    p = empty[:-1] - empty[1:]
    probs = {t: float(pi) for t, pi in enumerate(p, 1)}
    return TierProbabilityVector(
        link_class=link_class,
        r_k=float(r_k),
        probs=probs,
        residual=float(empty[-1]),
        conditioning=conditioning,
    )


def tier_bound_pair(regime: str, tier: int, r_k: float, params: ChannelParams = ChannelParams()) -> BoundPair:
    """Lower/upper throughput bounds (Mbps) for one tier of a given link.

    The bounds evaluate the joint success probability G at the worst and
    best helper positions admitted by the tier region: e.g. a tier-1
    helper is best at the S-D midpoint and worst at a corner where both
    hops stretch to 48.2 m.  Tier 1 does not exist in the D2 regime
    (r_k > 96.4 m).
    """
    check_band(regime, HELPER_REGIMES, r_k)
    if tier not in range(1, CLASS_TIERS[REGIMES[regime][2]] + 1):
        raise ValueError("tier %r is not defined for regime %s" % (tier, regime))
    r = float(r_k)
    g = lambda a, b: float(g_joint(a, b, params))
    if tier == 1:
        if regime == "D2":
            raise ValueError("tier 1 is infeasible for D2 links (r_k > 96.4)")
        pair = (g(BAND_11, BAND_11), g(r / 2, r / 2))
    elif tier == 2:
        pair = (g(BAND_11, BAND_55), g(BAND_11, r - BAND_11))
    elif tier == 3:
        best = g(r / 2, r / 2) if regime == "D2" else g(BAND_11, BAND_11)
        pair = (g(BAND_55, BAND_55), best)
    elif tier == 4:
        pair = (g(BAND_11, BAND_2), g(BAND_55, r - BAND_55))
    else:
        pair = (g(BAND_55, BAND_2), g(BAND_11, BAND_55))
    rate = TIER_RATES[tier]
    return BoundPair(pair[0] * rate, pair[1] * rate, context=(regime, tier, r))


def link_bounds_at_distance(
    regime: str,
    r_k: float,
    density: Optional[float] = None,
    k: Optional[int] = None,
    params: ChannelParams = ChannelParams(),
) -> BoundPair:
    """Throughput bounds for a single link of length r_k.

    Probability-weighted mixture of the per-tier bound pairs plus the
    residual direct-transmission term Ps(r_k) x direct rate.
    """
    check_band(regime, HELPER_REGIMES, r_k)
    link_class = REGIMES[regime][2]
    vec = tier_probabilities(link_class, r_k, density=density, k=k)
    lower = upper = vec.residual * float(p_success_direct(r_k, params)) * CLASS_RATES[link_class]
    for tier, p in vec.probs.items():
        if p == 0.0:
            continue
        if tier == 1 and regime == "D2":
            # geometry guarantees p == 0 here up to round-off
            continue
        pair = tier_bound_pair(regime, tier, r_k, params)
        lower += p * pair.lower
        upper += p * pair.upper
    return BoundPair(lower, upper, context=(regime, "mixture", float(r_k), vec.conditioning))


def averaged_bounds(
    regime: str,
    density: float,
    k: Optional[int] = None,
    params: ChannelParams = ChannelParams(),
    tol: float = 1e-8,
) -> BoundPair:
    """Class-averaged throughput bounds over the regime's distance band.

    With the default PPP conditioning the link distance is weighted by
    the uniform-area law 2r/(b^2-a^2) on the band (normalized, i.e. the
    average is conditional on the link falling in this class).  With
    k-nearest conditioning the weight is the kth-NN distance PDF as
    printed in the closed-form expressions (unnormalized partial
    expectation over the band).
    """
    a, b = check_band(regime, HELPER_REGIMES)

    if k is None:
        weight = lambda r: 2.0 * r / (b * b - a * a)
    else:
        weight = lambda r: nn_distance_pdf(k, density, r)

    def make(which):
        def f(r):
            pair = link_bounds_at_distance(regime, r, density=None if k is not None else density, k=k, params=params)
            return getattr(pair, which) * weight(r)

        return f

    lower = adaptive_simpson(make("lower"), a, b, tol=tol)
    upper = adaptive_simpson(make("upper"), a, b, tol=tol)
    conditioning = ("k", k) if k is not None else ("ppp", density)
    return BoundPair(lower, upper, context=(regime, "averaged", conditioning))


def total_throughput_bounds(
    density: float,
    k: Optional[int] = None,
    params: ChannelParams = ChannelParams(),
) -> BoundPair:
    """Network-total bound: D2 + D1 + C class averages plus A/B throughput.

    With k-nearest conditioning this is the literal closed-form sum of the
    per-band partial expectations under the kth-NN distance law.  With PPP
    conditioning the same sum is taken under the uniform-area law
    2r/100^2 over the whole 100 m disk, i.e. the unconditional mean
    throughput of a random in-range pair.
    """
    if k is not None:
        lower = upper = 0.0
        for regime in HELPER_REGIMES[::-1]:
            pair = averaged_bounds(regime, density, k=k, params=params)
            lower += pair.lower
            upper += pair.upper
        for link_class in DIRECT_CLASSES:
            direct = type_ab_throughput(link_class, k, density, params)
            lower += direct
            upper += direct
        return BoundPair(lower, upper, context=("total", ("k", k)))

    weight = lambda r: 2.0 * r / MAX_RANGE ** 2

    def band(which, regime, a, b):
        def f(r):
            pair = link_bounds_at_distance(regime, r, density=density, params=params)
            return getattr(pair, which) * weight(r)

        return adaptive_simpson(f, a, b)

    def direct(a, b, rate):
        return adaptive_simpson(lambda r: float(p_success_direct(r, params)) * rate * weight(r), max(a, 1e-9), b)

    lower = upper = sum(direct(*REGIMES[c][:2], CLASS_RATES[c]) for c in DIRECT_CLASSES)
    for regime in HELPER_REGIMES:
        a, b = REGIMES[regime][:2]
        lower += band("lower", regime, a, b)
        upper += band("upper", regime, a, b)
    return BoundPair(lower, upper, context=("total", ("ppp", density)))
