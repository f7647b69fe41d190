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
tier regions, `stochastic_geometry.tier_void_law`, the tier law the Monte
Carlo draws from too, under one of two conditionings: ``ppp`` (default), an
unconditioned PPP helper field, or ``k``-nearest, the destination being the
source's kth nearest neighbor.  Every density and k argument is checked by
`stochastic_geometry.check_conditioning`, so a density that is not finite
and positive raises ValueError.  Tier rates come from the band table
(`stochastic_geometry.TIER_RATES`).

Every average is one band integral (`_law_integral`) of a per-link value,
the (lower, upper) bound pair in one joint pass or the direct success
probability, against the link-length law: 2r/100^2 under the PPP, the kth-NN
distance PDF under k-nearest conditioning.  The per-link pair comes from one
array kernel, `_link_bounds`, which maps a 1-D array of link lengths to a
(2, n) lower/upper array: the tier law of the link class's tier-region areas
(`stochastic_geometry.tier_areas`, the areas the Monte Carlo draws from too),
and G at each tier's extremal helper positions (`_extremal_g`, keyed by link
class).  The worst positions, at the outer edges of each tier's hop bands,
do not depend on the link length; their G is computed once per
`ChannelParams` (`_fixed_g`).  Everything else the kernel needs but the tier
law depends on the link length alone: the tier areas, Ps(r) and each tier's
rate times its best-position G.  A node store per link class and
`ChannelParams` (`_NodeStore`) keeps these rows for every link length seen
and finds them by exact equality, so only the tier law and the mixture are
computed per call.  Adaptive Simpson builds every node by repeated
midpoints from the band ends, so the integrals of all densities and
conditionings land on the same node floats (a pass over `DENSITY_GRID` x
C/D1/D2/total x {ppp, k=1, k=10} sees 33 class-C and 225 class-D nodes).
A stored row comes from the same floats by the same element-wise
operations as a fresh one, so it is the same float, and every bound keeps
its bits.  A store holds at most `_STORE_CAP` link lengths; a call that
would pass the cap empties it first.  Inside the kernel and the integrands every
hop length is known to be positive, so Ps is taken unchecked
(`channel_model._p_success`); the public functions keep their checks.
The quadrature calls the kernel once per bisection depth on all of that
depth's nodes.  `link_bounds_at_distance`, `tier_probabilities` and
`tier_bound_pair` are scalar views of the same code.  `band_mass` is closed
form, from the kth-NN band law the Monte Carlo inverts
(`stochastic_geometry.nn_distance_band`); a k-nearest band whose mass is 0
in double precision raises ValueError, for the bounds as for the Monte
Carlo.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .channel_model import ChannelParams, _p_success, g_joint, p_success_direct
from .quadrature import adaptive_simpson
from .stochastic_geometry import (
    BAND_11,
    BAND_55,
    BAND_EDGES,
    CLASS_RATES,
    CLASS_TIERS,
    DIRECT_CLASSES,
    HELPER_REGIMES,
    MAX_RANGE,
    REGIMES,
    TIER1_MAX_SEPARATION,
    TIER_BANDS,
    TIER_RATES,
    check_band,
    check_conditioning,
    check_integer,
    nn_distance_band,
    nn_distance_pdf,
    tier_areas,
    tier_void_law,
)


@dataclass(frozen=True)
class BoundPair:
    """Lower/upper throughput bounds in Mbps."""

    lower: float
    upper: float

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

    probs: dict
    residual: float


def h_integral(
    r_min: float, r_max: float, k: Optional[int], density: float, params: ChannelParams = ChannelParams()
) -> float:
    """Integral of Q(nu + mu*log10 r) against the link-length law on [r_min, r_max].

    The building block of the Type A/B throughput expressions: the
    probability that the link length lies in [r_min, r_max] *and* a direct
    transmission over it succeeds.  The law is the kth-NN distance PDF, or
    with k None the PPP's uniform-area law 2r/100^2 (see `_law_integral`).
    """
    if not 0 <= r_min <= r_max:
        raise ValueError("need 0 <= r_min <= r_max, got %r and %r" % (r_min, r_max))
    return _law_integral("A", r_min, r_max, density, k, params)


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
    check_conditioning(density, k, density_optional=True)
    r = np.array([float(r_k)])
    empty = tier_void_law(tier_areas(r)[:CLASS_TIERS[link_class]], r, density, k)[:, 0]
    return TierProbabilityVector(
        probs={t: float(pi) for t, pi in enumerate(empty[:-1] - empty[1:], 1)},
        residual=float(empty[-1]),
    )


@lru_cache(maxsize=64)
def _fixed_g(params: ChannelParams):
    """The parts of `_extremal_g` that do not depend on the link length, once per ChannelParams.

    G at each tier's worst helper position, where both hops reach the outer
    edges of the tier's hop bands (one `g_joint` call for all five tiers),
    and Ps at 48.2 m and at 67.1 m, the fixed hop of tiers 2 and 4 at their
    best positions.
    """
    worst = g_joint(*np.take(BAND_EDGES[1:], np.transpose(TIER_BANDS)), params)
    return tuple(worst), float(p_success_direct(BAND_11, params)), float(p_success_direct(BAND_55, params))


def _extremal_g(link_class: str, r, params: ChannelParams):
    """(worst, best) joint success G of each tier of the link class at link length(s) r.

    G at the worst and best helper positions the tier region admits; e.g. a
    tier-1 helper is worst at a corner where both hops stretch to 48.2 m
    (`_fixed_g`) and best at the S-D midpoint.  Entries that do not depend on
    r are scalars.  No validation: every hop length must be positive, which
    holds for any r in a class C or D band.
    """
    n = CLASS_TIERS[link_class]
    worst, ps_11, ps_55 = _fixed_g(params)
    corner, inner = worst[:2]
    # Ps of the r-dependent hops: to the midpoint, and the far hops of tiers 2 and 4
    ps_mid, ps_2, *ps_4 = _p_success(np.array([r / 2, r - BAND_11, r - BAND_55][:n - 1]), params)
    mid = ps_mid * ps_mid
    # tier 3 is best at its inner corner (both hops 48.2 m) while S and D are
    # within 96.4 m of each other, and at the midpoint beyond
    best = [mid, ps_11 * ps_2, np.where(r > TIER1_MAX_SEPARATION, mid, corner)]
    if n == 5:
        best += [ps_55 * ps_4[0], inner]
    return list(zip(worst[:n], best))


def tier_bound_pair(regime: str, tier: int, r_k: float, params: ChannelParams = ChannelParams()) -> BoundPair:
    """Lower/upper throughput bounds (Mbps) for one tier of a given link.

    The tier rate times G at the tier region's worst and best helper
    positions (`_extremal_g`).  Tier 1 does not exist in the D2 regime
    (r_k > 96.4 m).
    """
    check_band(regime, HELPER_REGIMES, r_k)
    check_integer("tier", tier, 1, CLASS_TIERS[REGIMES[regime][2]])
    if tier == 1 and REGIMES[regime][0] >= TIER1_MAX_SEPARATION:
        raise ValueError("tier 1 is infeasible for %s links (r_k > 96.4)" % regime)
    r = float(r_k)
    worst, best = _extremal_g(REGIMES[regime][2], r, params)[tier - 1]
    rate = TIER_RATES[tier - 1]
    return BoundPair(float(worst) * rate, float(best) * rate)


# link lengths a node store holds before it starts over
_STORE_CAP = 4096


def _node_rows(link_class: str, r, params: ChannelParams):
    """(2n + 1, len(r)) kernel rows of a class C or D link that depend on its length r alone.

    The n tier-region areas (`tier_areas`), Ps(r), and the n tier rates
    times G at each tier's best helper position (`_extremal_g`).
    """
    n = CLASS_TIERS[link_class]
    rows = np.empty((2 * n + 1, len(r)))
    rows[:n] = tier_areas(r)[:n]
    rows[n] = _p_success(r, params)
    for row, (_, best), rate in zip(rows[n + 1:], _extremal_g(link_class, r, params), TIER_RATES):
        row[...] = best * rate
    return rows


class _NodeStore:
    """`_node_rows` of every link length the kernel has seen, for one link class and ChannelParams.

    Nodes are looked up by exact equality in a sorted key array.  When a
    call's new nodes would take the store past `_STORE_CAP` it starts over,
    and a call with more distinct nodes than that computes them without
    storing any.
    """

    def __init__(self, link_class: str, params: ChannelParams):
        self.link_class, self.params = link_class, params
        n = CLASS_TIERS[link_class]
        # the tier rates times G at each tier's worst helper position, which r does not move
        self.worst = np.array(_fixed_g(params)[0][:n]) * TIER_RATES[:n]
        # keys and rows swap together, so a reader never pairs one with the other's old value
        self.table = np.empty(0), np.empty((2 * n + 1, 0))

    def rows(self, r):
        """`_node_rows` at link lengths r (a 1-D array), computing and storing the missing ones."""
        keys, rows = self.table
        at = np.searchsorted(keys, r)
        found = keys[np.minimum(at, len(keys) - 1)] == r if len(keys) else np.zeros(len(r), bool)
        if found.all():
            return rows[:, at]
        new = np.unique(r[~found])
        if len(keys) + len(new) > _STORE_CAP:
            keys, rows = np.empty(0), rows[:, :0]
            new = np.unique(r)
        new_rows = _node_rows(self.link_class, new, self.params)
        if len(new) > _STORE_CAP:
            self.table = keys, rows
            return new_rows[:, np.searchsorted(new, r)]
        keys = np.concatenate((keys, new))
        order = np.argsort(keys)
        keys, rows = keys[order], np.concatenate((rows, new_rows), axis=1)[:, order]
        self.table = keys, rows
        return rows[:, np.searchsorted(keys, r)]


@lru_cache(maxsize=8)
def _node_store(link_class: str, params: ChannelParams) -> _NodeStore:
    return _NodeStore(link_class, params)


def _link_bounds(regime: str, r, density, k, params: ChannelParams):
    """(2, n) lower/upper throughput bounds of links of lengths r (a 1-D array).

    The array kernel behind `link_bounds_at_distance` and every bound
    integral: the residual direct term Ps(r) x direct rate plus the tier
    mixture of `_extremal_g`, whose r-only rows come from the link class's
    `_NodeStore`; only the tier law depends on the density.  The mixture's
    terms are stacked and summed over the tier axis in one ordered reduction,
    the direct term first.  It depends on the regime only through its link
    class.  No validation; under k-nearest conditioning `density` is not used.
    """
    link_class = REGIMES[regime][2]
    n = CLASS_TIERS[link_class]
    store = _node_store(link_class, params)
    rows = store.rows(r)
    empty = tier_void_law(rows[:n], r, density, k)
    # a tier of probability exactly 0 adds exactly 0 (e.g. tier 1 of a D2 link:
    # the two 48.2 m circles no longer meet)
    p = empty[:-1] - empty[1:]
    terms = np.empty((n + 1, 2, len(r)))
    terms[0] = empty[-1] * rows[n] * CLASS_RATES[link_class]
    terms[1:, 0] = p * store.worst[:, None]
    terms[1:, 1] = p * rows[n + 1:]
    return np.add.reduce(terms, axis=0)


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
    check_conditioning(density, k, density_optional=True)
    lower, upper = _link_bounds(regime, np.array([float(r_k)]), density, k, params)[:, 0]
    return BoundPair(float(lower), float(upper))


def _law_integral(regime: str, a: float, b: float, density, k: Optional[int], params: ChannelParams,
                  tol: float = 1e-8):
    """Integral over [a, b] of a link's value in the regime times the link-length law, to `tol` in each component.

    The value is Ps(r) for a class A or B link (direct only; times the class
    rate after the integral), the (2, n) bound pair of `_link_bounds` for a
    class C or D link, which is integrated jointly.  The law is 2r/100^2 under
    the PPP (k None), else the kth-NN distance PDF; both vanish at r = 0,
    where the value is not taken, so Ps needs no check.
    """
    check_conditioning(density, k)
    direct = REGIMES[regime][2] in DIRECT_CLASSES

    def integrand(r):
        pos = r > 0.0
        rp = r[pos]
        weight = 2.0 * rp / MAX_RANGE ** 2 if k is None else nn_distance_pdf(k, density, rp)
        part = (_p_success(rp, params) if direct else _link_bounds(regime, rp, density, k, params)) * weight
        out = np.zeros(part.shape[:-1] + r.shape)
        out[..., pos] = part
        return out

    return adaptive_simpson(integrand, a, b, tol=tol)


def band_mass(regime: str, density: float, k: Optional[int] = None) -> float:
    """Probability that a link's length lies in the regime's band.

    The band's area share (b^2 - a^2)/100^2 under the PPP (k None), else
    P{kth-NN distance in [a, b]} in closed form (`nn_distance_band`, the law
    the Monte Carlo draws link lengths from); regime "all" is the whole 100 m
    range.  Under k-nearest conditioning `averaged_bounds` is a partial
    expectation; divided by this mass it bounds the mean throughput of the
    links in the band, the quantity `estimate_throughput` reports.  A band
    whose mass is 0 in double precision raises ValueError.
    """
    a, b = check_band(regime, REGIMES)
    check_conditioning(density, k)
    if k is None:
        return (b * b - a * a) / MAX_RANGE ** 2
    lo, hi, _ = nn_distance_band(a, b, density, k)
    return float(abs(hi - lo))


def averaged_bounds(
    regime: str,
    density: float,
    k: Optional[int] = None,
    params: ChannelParams = ChannelParams(),
    tol: float = 1e-8,
) -> BoundPair:
    """Class-averaged throughput bounds over the regime's distance band.

    One joint quadrature of the per-link bound pair against the link-length
    law.  Under the PPP the band's partial expectation (law 2r/100^2) is
    divided by the band's area share (b^2-a^2)/100^2, giving the average
    conditional on the link falling in this class; it is integrated to
    tol x share, so `tol` is the absolute tolerance of the returned average.
    Under k-nearest conditioning it is the unnormalized partial expectation
    under the kth-NN distance PDF, as in the closed-form expressions; divide
    by `band_mass` for bounds on the mean given the band; a band that holds
    no probability in double precision raises ValueError.  There `tol` stays
    absolute, so a band of tiny mass is integrated far too coarsely: at k=10
    and density 0.004 the D1 partial expectation is about 1e-19 against tol
    1e-8, and divided by its mass 4.55e-20 it gives [8.23, 10.48] Mbps, above
    the 5.5 Mbps ceiling, where `scipy.integrate.quad` gives [2.92, 3.73].
    """
    check_band(regime, HELPER_REGIMES)
    a, b, _ = REGIMES[regime]
    mass = band_mass(regime, density, k)
    share = mass if k is None else 1.0
    lower, upper = _law_integral(regime, a, b, density, k, params, tol * share) / share
    return BoundPair(lower, upper)


def total_throughput_bounds(
    density: float,
    k: Optional[int] = None,
    params: ChannelParams = ChannelParams(),
) -> BoundPair:
    """Network-total bound: the sum of the A, B, C, D1 and D2 partial expectations.

    Each part is integrated to absolute tolerance 1e-8.  Under k-nearest
    conditioning the parts are the very integrals of `averaged_bounds` and
    `type_ab_throughput`, as in the closed-form sum; the 100 m range must
    hold probability (`band_mass`).  Under the PPP it is the unconditional
    mean throughput of a random in-range pair: the A/B parts plus share x
    `averaged_bounds` of each helper regime.
    """
    band_mass("all", density, k)

    def part(regime):
        a, b, link_class = REGIMES[regime]
        value = _law_integral(regime, a, b, density, k, params)
        return value * CLASS_RATES[link_class] if link_class in DIRECT_CLASSES else value

    lower, upper = sum(part(regime) for regime in DIRECT_CLASSES + HELPER_REGIMES)
    return BoundPair(lower, upper)
