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
alone: the cumulative tier areas, Ps(r) and each tier's rate times its
best-position G (`_node_rows`).  Every band integral is split into a
density-free plan and a per-call part.  The plan (`_BandPlan`, built by
`_band_plan` once per parts, conditioning kind, `ChannelParams` and tier-1
split) holds the integrator's first level (`quadrature.first_level`: the
quartered panels, their nodes and each node's interval) and, at its nodes,
the s form's r and Jacobian, the kernel's r-only rows, the direct parts'
rate times Ps and, under the PPP, the law weights 2r/100^2 times the
Jacobian.  The same rows at the deeper levels of at most 128 nodes are
held by `_plan_level`, one `functools.lru_cache` of the 512 levels met
last over all plans, keyed by the plan's key and the level's bytes, and a
larger level is computed at each call.  A call computes only the band mass, the kth-NN pdf, the tier
law, the mixture and the integrator's panel sums and accept test.  The plan pays because one
process integrates one band at several densities (a sweep over
`DENSITY_GRID`, `bounds --class all`, a `reproduce` figure's bound
columns): the integrator's panels come from repeated bisection of the band
ends, so every density and conditioning lands on the same node floats, and
a held value comes from the same floats by the same element-wise operations
as a fresh one, so it is the same float, and every bound keeps its bits.
At most 32 plans are kept, the least recently used dropped first.
Inside the kernel and the integrands every hop
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
import weakref
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

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
from .quadrature import first_level
from .quadrature import gauss_kronrod as adaptive_simpson
from .stochastic_geometry import (
    BAND_RATES,
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
    cumulative_areas,
    nn_distance_band,
    nn_distance_law,
    nn_distance_pdf,  # noqa: F401
    tier_areas,
    tier_void_law,
    void_probability,
)

# the fastest rate, above which no throughput lies
TOP_RATE = max(BAND_RATES)
# the most nodes of a deeper level that `_plan_level` holds, which holds 512 levels, at most the
# 32 plans of `_band_plan` x 2048 nodes
_LEVEL_NODES = 128


@dataclass(frozen=True)
class BoundPair:
    """Lower/upper throughput bounds in Mbps.

    Every public bound is clipped to [0, 11] Mbps, the fastest rate
    (`_bound_pair`): a bound is an integral to an absolute tolerance, so
    where a band's whole mass sits at one rate it may land a few ulp outside
    that rate (`total_throughput_bounds(0.5, k=2)` gave 11.000000000000002).
    """

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


def _bound_pair(lower, upper) -> BoundPair:
    """`BoundPair` of lower and upper, each clipped to [0, TOP_RATE]; a value inside keeps its bits, a NaN stays NaN."""
    return BoundPair(min(max(lower, 0.0), TOP_RATE), min(max(upper, 0.0), TOP_RATE))


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
    return _bound_pair(float(worst[tier - 1]), float(best[tier - 1, 0]))


def _node_rows(link_class: str, r, params: ChannelParams):
    """(2n + 1, len(r)) kernel rows of a class C or D link that depend on its length r alone.

    The n cumulative tier-region areas S_1 + ... + S_i (`tier_areas`),
    Ps(r), and the n tier rates times G at each tier's best helper position
    (`tier_bracket`).
    """
    n = CLASS_TIERS[link_class]
    rows = np.empty((2 * n + 1, len(r)))
    rows[:n] = cumulative_areas(tier_areas(r)[:n])
    rows[n] = _p_success(r, params)
    rows[n + 1:] = tier_bracket(link_class, r, params)[1]
    return rows


def _mixture(link_class: str, rows, r, density, k, worst):
    """(2, len(r)) lower/upper throughput bounds of class C or D links of lengths r from their `_node_rows`.

    The residual direct term Ps(r) x direct rate plus the tier mixture of
    the per-tier bracket (`tier_bracket`), whose lower ends, the column
    `worst`, r does not move (`worst_tier_g`); only the tier law
    (`tier_void_law`, here from the cumulative areas) depends on the
    density.  The mixture's terms are stacked and summed over the tier axis
    in one ordered reduction, the direct term first.  No validation; under
    k-nearest conditioning `density` is not used.
    """
    n = CLASS_TIERS[link_class]
    empty = np.concatenate((np.ones_like(rows[:1]), void_probability(rows[:n], r, density, k)))
    # a tier of probability exactly 0 adds exactly 0 (e.g. tier 1 of a D2 link:
    # the two 48.2 m circles no longer meet)
    p = empty[:-1] - empty[1:]
    terms = np.empty((n + 1, 2, len(r)))
    terms[0] = empty[-1] * rows[n] * CLASS_RATES[link_class]
    terms[1:, 0] = p * worst
    terms[1:, 1] = p * rows[n + 1:]
    return np.add.reduce(terms, axis=0)


def _link_bounds(regime: str, r, density, k, params: ChannelParams):
    """(2, n) lower/upper throughput bounds of links of lengths r (a 1-D array).

    The array kernel behind `link_bounds_at_distance` and every bound
    integral, `_mixture` of the link class's `_node_rows`; it depends on the
    regime only through its link class.  No validation.
    """
    link_class = REGIMES[regime][2]
    worst = worst_tier_g(params)[1][:CLASS_TIERS[link_class], None]
    return _mixture(link_class, _node_rows(link_class, r, params), r, density, k, worst)


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
    return _bound_pair(float(lower), float(upper))


class _Nodes(NamedTuple):
    """What a band integral's integrand needs at some nodes that no density or k moves.

    r, the link lengths; jacobian, dr/dx of the nodes (None where no node
    is in the s form); weight, under the PPP, the law 2r/100^2 times the
    jacobian; and per link class, the nodes it holds (`at`), their link
    lengths and either their `_node_rows` or, for the direct parts, their
    rate times Ps(r).
    """

    r: np.ndarray
    jacobian: Optional[np.ndarray]
    weight: Optional[np.ndarray]
    groups: tuple


class _BandPlan:
    """The density-free part of a band integral, its band plan (see the module docstring).

    `nodes` gives the `_Nodes` of one level, the first one's or a held deeper
    one's, and computes the others; `values` the integrand at them.  The
    deeper levels of at most _LEVEL_NODES nodes are held by `_plan_level`
    under the plan's `key` and the bytes of their nodes and intervals, read
    back into the same floats.  A plan holds itself only weakly (`ref`), so
    one dropped from `_band_plan` is freed at once.  `lru_cache` is thread-safe
    and every held array is read-only, so threads can share a plan.
    """

    def __init__(self, parts, ppp: bool, params: ChannelParams, layer: float):
        self.key = parts, ppp, params, layer
        self.ppp, self.params = ppp, params
        spans, s_form, rate, kind, classes = [], [], [], [], {}
        for a, b, value in parts:
            link_class = REGIMES[value][2] if isinstance(value, str) else None
            s_form.append(link_class is not None and b == TIER1_MAX_SEPARATION)
            spans.append((0.0, math.sqrt(b - a)) if s_form[-1] else (a, b))
            rate.append(0.0 if link_class else value)
            # the nodes of one link class go to one `_mixture` call
            kind.append(classes.setdefault(link_class, len(classes)))
        self.s_form, self.rate, self.kind, self.classes = np.array(s_form), np.array(rate), np.array(kind), tuple(classes)
        self.worst = {c: worst_tier_g(params)[1][:CLASS_TIERS[c], None] for c in classes if c}
        # the highest s at which a band in the s form ends: a tier-1 layer below it splits that band
        self.top = max([hi for (_, hi), s in zip(spans, s_form) if s], default=0.0)
        # a band split at the tier-1 layer keeps its first interval in its place and appends its second
        self.split = [p for p, ((_, hi), s) in enumerate(zip(spans, s_form)) if s and layer < hi]
        spans += [(layer, spans[p][1]) for p in self.split]
        for p in self.split:
            spans[p] = (0.0, layer)
        self.owner = np.concatenate((np.arange(len(parts)), self.split)).astype(int)
        self.level = first_level(spans)
        self.first = self._nodes(self.level.x, self.level.at)
        self.ref = _PlanRef(self)

    def nodes(self, x, interval) -> _Nodes:
        """The `_Nodes` of nodes x in the intervals `interval`, the integrator's nodes of one level."""
        if x is self.level.x:
            return self.first
        if x.size > _LEVEL_NODES:
            return self._nodes(x, interval)
        return _plan_level(self.ref, x.tobytes(), interval.tobytes())

    def _nodes(self, x, interval) -> _Nodes:
        part = self.owner[interval] if self.split else interval
        r, jacobian, weight = x, None, None
        in_s = self.s_form[part]
        if in_s.any():
            r = np.where(in_s, TIER1_MAX_SEPARATION - x * x, x)
            jacobian = np.where(in_s, 2.0 * x, 1.0)
        if self.ppp:
            weight = 2.0 * r / MAX_RANGE ** 2 if jacobian is None else 2.0 * r / MAX_RANGE ** 2 * jacobian
        groups = []
        for g, link_class in enumerate(self.classes):
            at = self.kind[part] == g if len(self.classes) > 1 else slice(None)
            if link_class is None:
                groups.append((at, None, None, self.rate[part[at]] * _p_success(r[at], self.params)))
            else:
                groups.append((at, link_class, r[at], _node_rows(link_class, r[at], self.params)))
        for array in (r, jacobian, weight, *(a for group in groups for a in group[2:])):
            if isinstance(array, np.ndarray):
                array.setflags(write=False)
        return _Nodes(r, jacobian, weight, tuple(groups))

    def values(self, nodes: _Nodes, law, density, k):
        """(2, n) integrand values at the nodes: the (lower, upper) pair times the link-length law and jacobian."""
        weight = nodes.weight
        if weight is None:
            weight = law(nodes.r) if nodes.jacobian is None else law(nodes.r) * nodes.jacobian
        out = np.empty((2, nodes.r.size))
        for at, link_class, r, data in nodes.groups:
            out[:, at] = data if link_class is None else _mixture(link_class, data, r, density, k, self.worst[link_class])
        return out * weight


class _PlanRef(weakref.ref):
    """A weak reference to a band plan that hashes and compares as the plan's key.

    `_plan_level` is keyed by it, so it holds no plan, and a plan rebuilt
    under the same key finds the levels of the one it replaces.
    """

    __slots__ = ("key", "hash")

    def __init__(self, plan):
        super().__init__(plan)
        self.key = plan.key
        self.hash = hash(self.key)

    def __hash__(self):
        return self.hash

    def __eq__(self, other):
        return self.key == other.key


@lru_cache(maxsize=512)
def _plan_level(plan: _PlanRef, x: bytes, interval: bytes) -> _Nodes:
    """The `_Nodes` of a deeper level of a band plan, from the bytes of its nodes x and their intervals."""
    return plan()._nodes(np.frombuffer(x), np.frombuffer(interval, dtype=np.intp))


@lru_cache(maxsize=32)
def _band_plan(parts, ppp: bool, params: ChannelParams, layer: float = math.inf) -> _BandPlan:
    return _BandPlan(parts, ppp, params, layer)


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
    Every part goes to one integrator run, on the parts' band plan
    (`_band_plan`); the integrator takes no node at an end of an interval,
    so r > 0 and Ps needs no check.  When every band is empty the rows hold
    a single 0.  No validation.
    """
    parts = tuple(parts)
    plan = _band_plan(parts, k is None, params)
    layer = _tier1_layer(density, k)
    if layer < plan.top:
        plan = _band_plan(parts, k is None, params, layer)
        tol = np.broadcast_to(np.asarray(tol, dtype=float), (len(parts),)).copy()
        tol[plan.split] /= 2.0
        tol = np.concatenate((tol, tol[plan.split]))
    law = None if k is None else nn_distance_law(k, density)

    def integrand(x, part):
        return plan.values(plan.nodes(x, part), law, density, k)

    out = adaptive_simpson(integrand, plan.level, tol).reshape(len(plan.level.ends), -1)
    for i, p in enumerate(plan.split):
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
    return _bound_pair(lower, upper)


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
    return _bound_pair(lower, upper)
