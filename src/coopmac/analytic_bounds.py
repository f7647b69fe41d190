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

Every average is a band integral (`_law_integral`) of a per-link value,
the (lower, upper) bound pair in one joint pass or the class rate times the
direct success probability, against the link-length law: 2r/100^2 under
the PPP, the kth-NN distance PDF under k-nearest conditioning.  The network
total integrates its five bands in one run of the Gauss–Kronrod integrator
(`quadrature.gauss_kronrod`), which hands the nodes of every band's open
panels to one integrand call per refinement level.  The D1 band ends at
the 96.4 m tangency of the two tier-1 circles, where the tier-1 area
vanishes like (96.4 - r)^(3/2); it is integrated in s = sqrt(96.4 - r),
in which every integrand is smooth, and split where the tier law switches
to tier 1 whenever that layer lies inside it (`_law_integral`).  The
per-link pair comes from one array kernel, `_link_bounds`, which maps a
1-D array of link lengths to a (2, n) lower/upper array: the tier law of
the link class's tier-region areas (`stochastic_geometry.tier_areas`, the
areas the Monte Carlo draws from too, whose thin tier-1 lens next to the
tangency has no cancellation at any density), and each tier's rate times
G at its worst and best helper positions, the per-tier bracket of
`channel_model.tier_bracket`, keyed by link class, which the Monte
Carlo's control variate reads too.  The worst positions, at the
outer edges of each tier's hop bands, do not depend on the link length;
their G is tabulated once per `ChannelParams` (`channel_model.worst_tier_g`).
Everything else the kernel needs but the tier law depends on the link length
alone: the tier areas, Ps(r) and each tier's rate times its best-position G.
A node store per link class and `ChannelParams` (`_NodeStore`) keeps these
rows for every link length seen and finds them by exact equality, so only
the tier law and the mixture are computed per call; the class-D nodes of
the D1 and D2 bands of one level go to it in one call.  The integrator's
panels come from repeated bisection of the band ends, so the integrals of
all densities and conditionings land on the same node floats.  A stored
row comes from the same floats by the same element-wise operations as a
fresh one, so it is the same float, and every bound keeps its bits.  A
store holds at most `_STORE_CAP` link lengths; a call that would pass the
cap empties it first.  Inside the kernel and the integrands every hop
length is known to be positive, so Ps is taken unchecked
(`channel_model._p_success`); the public functions keep their checks, and
check their inputs once.  `link_bounds_at_distance`, `tier_probabilities`
and `tier_bound_pair` are scalar views of the same code, on the same
areas as the integrals.  `band_mass` is closed form, from the kth-NN band
law the Monte Carlo inverts (`stochastic_geometry.nn_distance_band`); a
k-nearest band whose mass is 0 in double precision raises ValueError, for
the bounds as for the Monte Carlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

# g_joint, p_success_direct and nn_distance_pdf are not called here; the
# benchmark's tracer (bench/tracing.py) wraps them by these names
from .channel_model import (  # noqa: F401
    ChannelParams,
    _p_success,
    g_joint,
    p_success_direct,
    tier_bracket,
    worst_tier_g,
)
# the benchmark's tracer (bench/tracing.py) wraps the integrator by this name,
# that of the quadrature it replaced
from .quadrature import gauss_kronrod as adaptive_simpson
from .stochastic_geometry import (
    CLASS_RATES,
    CLASS_TIERS,
    DIRECT_CLASSES,
    HELPER_REGIMES,
    MAX_RANGE,
    REGIMES,
    TIER1_MAX_SEPARATION,
    check_band,
    check_conditioning,
    check_integer,
    nn_distance_band,
    nn_distance_law,
    nn_distance_pdf,  # noqa: F401
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
    check_conditioning(density, k)
    return float(_law_integral([(r_min, r_max, 1.0)], density, k, params)[0, 0])


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


def tier_bound_pair(regime: str, tier: int, r_k: float, params: ChannelParams = ChannelParams()) -> BoundPair:
    """Lower/upper throughput bounds (Mbps) for one tier of a given link.

    The tier rate times G at the tier region's worst and best helper
    positions (`channel_model.tier_bracket`).  Tier 1 does not exist in the
    D2 regime (r_k > 96.4 m).
    """
    check_band(regime, HELPER_REGIMES, r_k)
    check_integer("tier", tier, 1, CLASS_TIERS[REGIMES[regime][2]])
    if tier == 1 and REGIMES[regime][0] >= TIER1_MAX_SEPARATION:
        raise ValueError("tier 1 is infeasible for %s links (r_k > 96.4)" % regime)
    worst, best = tier_bracket(REGIMES[regime][2], np.array([float(r_k)]), params)
    return BoundPair(float(worst[tier - 1]), float(best[tier - 1, 0]))


# link lengths a node store holds before it starts over
_STORE_CAP = 4096


def _node_rows(link_class: str, r, params: ChannelParams):
    """(2n + 1, len(r)) kernel rows of a class C or D link that depend on its length r alone.

    The n tier-region areas (`tier_areas`), Ps(r), and
    the n tier rates times G at each tier's best helper position
    (`tier_bracket`).
    """
    n = CLASS_TIERS[link_class]
    rows = np.empty((2 * n + 1, len(r)))
    rows[:n] = tier_areas(r)[:n]
    rows[n] = _p_success(r, params)
    rows[n + 1:] = tier_bracket(link_class, r, params)[1]
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
        # the tier rates times G at each tier's worst helper position, the lower end of
        # `tier_bracket`, which r does not move
        self.worst = worst_tier_g(params)[1][:n]
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


@lru_cache(maxsize=16)
def _node_store(link_class: str, params: ChannelParams) -> _NodeStore:
    return _NodeStore(link_class, params)


def _link_bounds(regime: str, r, density, k, params: ChannelParams):
    """(2, n) lower/upper throughput bounds of links of lengths r (a 1-D array).

    The array kernel behind `link_bounds_at_distance` and every bound
    integral: the residual direct term Ps(r) x direct rate plus the tier
    mixture of the per-tier bracket (`tier_bracket`), whose r-only rows come
    from the link class's `_NodeStore`; only the tier law depends on the
    density.  The mixture's terms are stacked and summed over the tier axis
    in one ordered reduction, the direct term first.  It depends on the
    regime only through its link class.  No validation; under k-nearest
    conditioning `density` is not used.
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


def _law_integral(parts, density, k: Optional[int], params: ChannelParams, tol=1e-8):
    """(len(parts), 2) integrals of a link's value times the link-length law, each to its `tol`.

    A part is (a, b, value): a band [a, b] in m and either a helper regime,
    whose (lower, upper) pair of `_link_bounds` is integrated jointly, or a
    rate, which multiplies the direct success probability Ps(r) (the same
    value in both columns).  `tol` is the absolute tolerance of every part
    or one per part.  The law is 2r/100^2 under the PPP (k None), else the
    kth-NN distance PDF, built once per call.  A helper part that ends at
    the tier-1 tangency (96.4 m) is integrated in s = sqrt(96.4 - r), with
    Jacobian 2s.  Its tier law switches to tier 1 in a layer at about
    s = rho^(-1/3), where the tier-1 area, about 9.26 s^3 m^2, holds about
    nine expected helpers at the tier law's density rho (`_tier1_layer`);
    where that layer lies inside the band, the band is split there into two
    intervals of half its tolerance each, so that the integrator's first
    panels see it.  The layer's tier-1 lens is thin, and its area is taken
    without the cancellation of the plain lens terms, which would be off by
    a relative 1e-3 at 2e-5 m from tangency (`stochastic_geometry._lens`).
    Every part goes to one integrator run; the integrator takes no node at
    an end of an interval, so r > 0 and Ps needs no check.  When every band
    is empty the rows hold a single 0.  No validation.
    """
    law = (lambda r: 2.0 * r / MAX_RANGE ** 2) if k is None else nn_distance_law(k, density)
    spans, s_form, rate, kind, regime_of, split = [], [], [], [], {}, []
    for a, b, value in parts:
        link_class = REGIMES[value][2] if isinstance(value, str) else None
        s_form.append(link_class is not None and b == TIER1_MAX_SEPARATION)
        spans.append((0.0, math.sqrt(b - a)) if s_form[-1] else (a, b))
        if s_form[-1] and _tier1_layer(density, k) < spans[-1][1]:
            split.append(len(spans) - 1)
        rate.append(0.0 if link_class else value)
        # the nodes of one link class go to one `_link_bounds` call, which reads the regime only for its class
        regime_of.setdefault(link_class, value)
        kind.append(list(regime_of).index(link_class))
    s_form, rate, kind = np.array(s_form), np.array(rate), np.array(kind)
    # a band split at the tier-1 layer keeps its first interval in its place and appends its second
    if split:
        layer = _tier1_layer(density, k)
        tol = np.broadcast_to(np.asarray(tol, dtype=float), (len(parts),)).copy()
        tol[split] /= 2.0
        tol = np.concatenate((tol, tol[split]))
        spans += [(layer, spans[p][1]) for p in split]
        for p in split:
            spans[p] = (0.0, layer)
        owner = np.concatenate((np.arange(len(parts)), split))

    def integrand(x, part):
        if split:
            part = owner[part]
        r, jacobian = x, None
        in_s = s_form[part]
        if in_s.any():
            r = np.where(in_s, TIER1_MAX_SEPARATION - x * x, x)
            jacobian = np.where(in_s, 2.0 * x, 1.0)
        weight = law(r) if jacobian is None else law(r) * jacobian
        out = np.empty((2, x.size))
        for g, (link_class, regime) in enumerate(regime_of.items()):
            at = kind[part] == g if len(regime_of) > 1 else slice(None)
            if link_class is None:
                out[:, at] = rate[part[at]] * _p_success(r[at], params)
            else:
                out[:, at] = _link_bounds(regime, r[at], density, k, params)
        return out * weight

    out = adaptive_simpson(integrand, spans, tol).reshape(len(spans), -1)
    if not split:
        return out
    for i, p in enumerate(split):
        out[p] += out[len(parts) + i]
    return out[:len(parts)]


def _tier1_layer(density, k: Optional[int]) -> float:
    """s = sqrt(96.4 - r) at which the tier-1 region holds about nine expected helpers, rho^(-1/3).

    rho is the density of the tier law: the PPP's, or under k-nearest
    conditioning that of the k - 1 nodes in the disk of radius 96.4 m.  inf
    where rho is 0 (k = 1).
    """
    rho = density if k is None else (k - 1) / (math.pi * TIER1_MAX_SEPARATION ** 2)
    return rho ** (-1.0 / 3.0) if rho > 0 else math.inf


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
    conditional on the link falling in this class.  Under k-nearest
    conditioning it is the unnormalized partial expectation under the kth-NN
    distance PDF, as in the closed-form expressions; divide by `band_mass`
    for bounds on the mean given the band; a band that holds no probability
    in double precision raises ValueError.  Under both conditionings the
    partial expectation is integrated to tol x `band_mass`, so `tol` is the
    absolute tolerance of the band's mean, however small its mass.
    """
    check_band(regime, HELPER_REGIMES)
    a, b, _ = REGIMES[regime]
    mass = band_mass(regime, density, k)
    share = mass if k is None else 1.0
    lower, upper = _law_integral([(a, b, regime)], density, k, params, tol * mass)[0] / share
    return BoundPair(lower, upper)


def total_throughput_bounds(
    density: float,
    k: Optional[int] = None,
    params: ChannelParams = ChannelParams(),
) -> BoundPair:
    """Network-total bound: the sum of the A, B, C, D1 and D2 partial expectations.

    The five parts are integrated in one run, each to absolute tolerance
    1e-8 Mbps; the A and B parts carry their class rate inside the integral.
    Under k-nearest conditioning the parts are the partial expectations of
    `averaged_bounds` and `type_ab_throughput`, as in the closed-form sum;
    the 100 m range must hold probability (`band_mass`).  Under the PPP it
    is the unconditional mean throughput of a random in-range pair: the A/B
    parts plus share x `averaged_bounds` of each helper regime.
    """
    band_mass("all", density, k)
    parts = []
    for regime in DIRECT_CLASSES + HELPER_REGIMES:
        a, b, link_class = REGIMES[regime]
        parts.append((a, b, CLASS_RATES[link_class] if link_class in DIRECT_CLASSES else regime))
    lower, upper = _law_integral(parts, density, k, params).sum(axis=0)
    return BoundPair(lower, upper)
