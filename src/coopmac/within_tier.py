"""Both schemes' control variates: what each scheme's control is, its table, and how a chunk reads it.

Every class C or D link of the Monte Carlo reports t - c + m(r), in both
estimator modes (a control variate: Asmussen & Glynn, Stochastic
Simulation, 2007, ch. V).  t is its score; c is a centre h(r) of the tier
or region it chose, plus the scheme's term of mean 0 where its helpers were
placed, or its direct score rate x Ps(r) without a helper; and m(r), c's
exact mean given r, is void x rate x Ps(r) plus the mixture of the centres
under the scheme's choice law (`stochastic_geometry.choice_law`,
`_mixture`).  c - m(r) has mean 0 given r whatever the tables hold, so the
estimate keeps its mean, and their accuracy sets only its variance
(Glasserman, Monte Carlo Methods in Financial Engineering, 2004, 4.1).
Which links are placed, in sampled mode those the squeeze leaves open,
depends on the choice and the draw v, not on where the helpers lie, so each
term keeps mean 0 there too, and as the controls draw nothing, sampled mode
keeps its Bernoulli draw.  A score need not lie near m(r): only its mean
given r is m(r)'s.  In regime `all` the mean score steps where the link
class changes, and each table holds that step at the cell's class edges
(`_with_class_edges`), which `monte_carlo._edge_term` takes off the
stratum that holds each edge.  Both tables are read at each link's nearest
node (`table_nodes`) by one function, `control`.

A conventional link has one helper, uniform in the region it chose
whatever the density or k, and rate x G is a smooth function of r, the
helper's q = d_SH^2 + d_HD^2 and its squared distance y^2 from the S-D
line.  In analytic mode its control is the quadratic
c = h_j(r) + b dq + g dy + c_qq (dq^2 - V_qq) + c_qy (dq dy - V_qy)
+ c_yy (dy^2 - V_yy) in dq = q - Qbar_j(r) and dy = y^2 - Ybar^2_j(r)
(`_quadratic`; multiple control variates, Glasserman, 4.1).
Qbar_j = 2 J_j / S_j + r^2 / 2 and Ybar^2_j = I_j / S_j are the exact
means of q and y^2 over the region (`_region_means`), from its second
moments J_j and I_j about the S-D midpoint and line, and the V are its
exact covariances of q and y^2 (`_quadratic`), from its fourth moments in
rho = |H - M| and y.  All five moments are taken in one pass per placed
link, at its own r and region, from the closed forms and thin segments'
series of the region's lenses (`stochastic_geometry.tier_moments`), and
the area S_j from the lens pass of the choice
(`stochastic_geometry.tier_areas`), so every term has mean 0 given r
whatever its coefficient.  Against the
linear control in (q, y^2), which the square and product terms extend,
this cuts the variance of conventional analytic cells 30-50 times at
0.005 nodes/m^2 (`BENCH_conventional_quadratic.json`).  Sampled mode keeps
that linear control, c = h_j(r) + b_j(r) dq + g_j(r) dy, whose coefficients
are a sub-block of the same normal equations.  `region_table` holds h_j,
the region's mean of rate x G, (b_j, g_j) and the five coefficients of the
quadratic, least-squares fits of rate x G over the region, which depend on
r and the ChannelParams alone, so one fit serves every cell.

A proposed link keeps the best of the chosen tier's helpers, and what is
left of its score's variance is the spread of max G inside the tier, which
q_min, the least q of the tier's helpers, explains for the most part.
Given r and the tier, q_min has a law known in closed form up to one area
function: a helper uniform in tier i's region of area S_i lies where q < s
with probability B_i(s; r) / S_i, B_i the area of the region within
sqrt((s - r^2 / 2) / 2) of the S-D midpoint
(`stochastic_geometry.tier_area_within`), and the helper count is Poisson
or Binomial given at least one (the void probabilities of Haenggi,
Stochastic Geometry for Wireless Networks, 2012, ch. 2).  U = F(q_min) at
the drawn value (`least_q_uniform`) is exactly Uniform(0, 1) given r and
the tier, so c = h_i(r) + phi_i(r; U) keeps the mean h_i(r) for any phi of
mean 0 over U.  The best such phi is E[rate x max G | U] less its mean
(Glasserman, 4.1), and U fixes q_min = Q_i(U), Q_i the inverse of F, and
so t = sqrt((q_min - r^2 / 2) / 2), the distance from the S-D midpoint of
the helper that holds q_min.  Given r, the tier and q_min, that helper is
uniform on the arc of the circle |H - M| = t that lies in the tier (the
independence property of the PPP, which holds for the Binomial count too),
and the other helpers lie in the tier beyond the arc, so the void
probabilities give E_i(r; t), the conditional mean of rate x max G, up to
areas (`_conditional_means`).  phi_i is E_i at t(Q_i(U)) less its mean over
U, and h_i that mean (`control_table`).  In analytic mode the control has
a third term, gamma_i(r) (y^2 - Ybar^2_i(r, t)).  y^2 is the squared
distance from the S-D line of the helper that holds q_min, whose exact
mean over its arc is Ybar^2_i(r, t) (`stochastic_geometry.tier_arc_y2`),
taken per link at its own r and t.  gamma_i is the slope of rate x max G
on y^2 along the arcs, pooled over q_min's law and discounted by the
chance that no other helper beats the least-q one, with G taken linear in
q along the secant between the tier's best and worst positions
(`_arc_slope`); sampled mode, which gains 1-4% from it, leaves it out.
`control_table` tabulates h, phi and gamma once per cell, phi at knots in
U, read between them linearly in U (`control_term`).

In sampled mode a link with a helper scores lo + (rate - lo) 1{x < rate x
max G}, with x = lo + (rate - lo) v above its tier's sure share lo
(`monte_carlo._chunk_throughput`), and most of what the terms above leave
of its variance is that Bernoulli draw, which no term in the helpers'
positions reaches.  So both schemes add, at every link with a helper,
beta_i (rate - lo) (1{x < psi(U)} - p_i(r)), the indicator of the same
draw against the table's own model of rate x max G,
psi(U) = min(h_i + phi_i(U), cap_i) at the link's node (`_indicator`).
Given r and the tier, U is Uniform(0, 1) and independent of v, so the
indicator's mean is p_i = integral of
clip((psi(U) - lo) / (rate - lo), 0, 1) over U, which each (tier, node)
row holds exactly (`_indicator_mean`): psi is linear in U between the
knots but where the clip starts.  cap_i is rate x G_best at the far end
of the node's cell, at or below the bracket's upper end for every link
the row serves, as G_best falls with r; so a link the squeeze settles as
a failure has an indicator of 0 without a placement, and the term places
no helper.  beta_i is fixed per tier, the same for both schemes
(`_INDICATOR_BETA`), and never fitted on a chunk's own samples; at
beta = 1 the term can add variance.  The proposed scheme reads psi from
its own table.  The conventional one reads it from the proposed table at
a vanishing density, where a tier's helper count given one is one: the
mean of rate x G over the region's arc through its one helper, at
U = B_j(q) / S_j, which is exactly Uniform(0, 1) given r and the region;
its q and y^2 terms stay.  Dropping those terms and the lens moments in
sampled mode instead gains less in variance x time in every sampled cell of
the benchmark (`BENCH_sampled_indicator.json`).  The module is loaded by the
first chunk that needs a table, so that a process that runs only the
bounds builds none.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .channel_model import g_joint, p_success_direct, tier_bracket, tier_q_bracket
from .stochastic_geometry import (
    BAND_2,
    BAND_55,
    BAND_EDGES,
    BAND_RATES,
    CLASS_TIERS,
    MAX_RANGE,
    TIER1_MAX_SEPARATION,
    TIER_BOXES,
    TIER_RATES,
    choice_law,
    hop_angle,
    hop_band,
    nn_distance_band,
    tier_arc,
    tier_arc_y2,
    tier_area_within,
    tier_areas,
    tier_load,
    tier_moments,
)

# both control tables: link-length nodes at most _TABLE_STEP m apart, in segments split where tiers 4 and 5
# appear (74.7 m) and tier 1 empties (96.4 m); the proposed scheme's (`control_table`) takes _TABLE_POINTS
# midpoints in t = |H - M| for each node's integrals over q, and the conventional scheme's (`region_table`)
# _GAUSS_POINTS Gauss-Legendre points in each of d_SH and the angle at S per panel of a region
_TABLE_STEP = 0.25
_TABLE_POINTS = 32
_GAUSS_POINTS = 8
# nodes per block of the conventional table's fit (`_region_fit`)
_FIT_BLOCK = 16
# the proposed scheme's control at _KNOTS + 1 knots in U per (tier, node), u_j = 1 - (1 - j / _KNOTS)^2: dense
# near U = 1, where the quantile of q_min climbs to q_worst
_KNOTS = 32
_KNOT_U = 1.0 - (1.0 - np.arange(_KNOTS + 1) / _KNOTS) ** 2
_KNOT_U.flags.writeable = False
# the proposed scheme's y^2 slope (`_arc_slope`): groups of the table's midpoints in t, and Gauss-Legendre points
# along each arc
_ARC_GROUPS = 4
_ARC_POINTS = 6
# the proposed scheme's conditional mean of rate x max G (`_conditional_means`): levels of rate x G per (tier, node),
# and (tier, node) rows per block
_LEVELS = 32
_MEAN_BLOCK = 64


def least_q_law(f, load, k):
    """F(q_min) at f = B_i(q_min) / S_i: the law of the least q of a tier's helpers, given at least one.

    A helper of a tier region of area S_i lies where q < s with probability
    f(s) = B_i(s) / S_i (`stochastic_geometry.tier_area_within`).  The count
    is Poisson(mu) given >= 1 under the PPP, mu = load, so
    P{q_min > s} = (e^(-mu f) - e^(-mu)) / (1 - e^(-mu)) and
    F = (1 - e^(-mu f)) / (1 - e^(-mu)); under k-nearest conditioning it is
    Binomial(k - 1, p) given >= 1, p = load, and
    F = (1 - (1 - p f)^(k-1)) / (1 - (1 - p)^(k-1)).  Both are taken as a
    ratio of expm1 terms, and F = f in their common limit load -> 0.  f is
    clipped into [0, 1] in place.
    """
    np.clip(f, 0.0, 1.0, out=f)
    if k is None:
        num, den = np.expm1(-load * f), np.expm1(-load)
    else:
        num, den = np.expm1((k - 1) * np.log1p(-load * f)), np.expm1((k - 1) * np.log1p(-load))
    return np.divide(num, den, out=f, where=den != 0.0)


def least_q_distance(r, q):
    """t = |H - M|: the distance from the S-D midpoint M of links of lengths r at which d_SH^2 + d_HD^2 is q.

    q = 2 |H - M|^2 + r^2 / 2; a q that rounds below r^2 / 2 gives t = 0.
    """
    t = 0.5 * r * r
    np.subtract(q, t, out=t)
    t *= 0.5
    return np.sqrt(np.maximum(t, 0.0, out=t), out=t)


def least_q_uniform(r, tier, area, load, t, k):
    """U = F(q_min) of links of lengths r whose chosen tier's least helper d_SH^2 + d_HD^2 lies t from the S-D midpoint (`least_q_law`).

    t = |H - M| of the least helper (`least_q_distance`), and B_i(q_min) is
    the area of the tier's region within t of the midpoint.  Given r and the
    tier, U is exactly Uniform(0, 1): the probability integral transform of
    q_min's continuous law.
    """
    f = tier_area_within(r, tier, t)
    f /= area
    return least_q_law(f, load, k)


class ControlTable(NamedTuple):
    """A scheme's control at the nodes of a link-length grid (`control_table`, `region_table`), read by `control`.

    The grid has one segment per band between the edges `splits`; segment i
    runs from start[i] with scale[i] intervals per metre, and its first node
    is node offset[i].  h holds each tier's or region's centre at every
    node, one row per tier, and slope_y, shaped as h, the slope of the y^2
    term.  within is the scheme's own term: for the proposed scheme phi, of
    shape (tiers, nodes, _KNOTS + 1), each tier's term at the knots
    u_j = 1 - (1 - j / _KNOTS)^2 of U (`control_term`), and for the
    conventional one the slope b of its q term, shaped as h.  A proposed
    table holds two more rows shaped as h for sampled mode's indicator term
    (`_indicator`): cap, the cap of psi, and hit, the indicator's exact
    mean (`_indicator_mean`); a conventional table leaves them empty.
    edges are the class edges inside the cell's band, edge_u the link-length
    uniform u at each and jump the step of the link's mean score there
    (`monte_carlo._edge_term`).  quadratic holds, for the conventional
    scheme, the five coefficients of its analytic-mode term, shaped
    (5, tiers, nodes) (`_region_fit`); a proposed table leaves it empty.
    """

    splits: np.ndarray
    start: np.ndarray
    scale: np.ndarray
    offset: np.ndarray
    h: np.ndarray
    within: np.ndarray
    slope_y: np.ndarray
    cap: np.ndarray
    hit: np.ndarray
    edges: np.ndarray
    edge_u: np.ndarray
    jump: np.ndarray
    quadratic: np.ndarray


# each table builder keeps one more table than a pass over both Monte Carlo bench workloads builds: 26 proposed ones,
# the two one-helper tables of the conventional indicator among them (`monte_carlo._chunk_throughput`), and 24
# conventional ones; the largest, regime `all`'s, hold 201,440 B (proposed) and 43,680 B (conventional), 6.3 MB at
# most together
@lru_cache(maxsize=26)
def control_table(lo, hi, density, k, params):
    """Centre h_i(r), within-tier term phi_i(r; U) and y^2 slope gamma_i(r) of the proposed scheme's control, at the nodes of a link-length grid.

    h and phi come from E_i(r; t), the mean of rate x max G given that the
    tier's least-q helper lies t = |H - M| from the S-D midpoint
    (`_conditional_means`), taken at _TABLE_POINTS midpoints in t between
    the tier's best and worst positions (`channel_model.tier_q_bracket`).
    Their (F, E) pairs, with the ends (0, rate G_best) and (1, rate G_worst),
    give E at the knots u_j = 1 - (1 - j / 32)^2, j = 0..32, that is at
    t(Q_i(u_j)), Q_i the inverse of F, dense near U = 1, where q_min climbs
    to q_worst (`_quantiles`).  h_i is E's trapezoid mean over the knots and
    phi_i(r; U) = E - h_i there, read between the knots linearly in U
    (`control_term`), so that each row integrates to 0 over U exactly, as U
    is Uniform(0, 1) given r and the tier.  h, phi and gamma (`_arc_slope`)
    depend on r, the tier and the cell alone (its band lo..hi, density, k
    and params).  A tier with no area there gets h = rate G_best and
    phi = gamma = 0.  The indicator rows are the module docstring's: cap is
    rate G_best at the far end of each node's cell, and hit the indicator's
    exact mean.  The nodes are at most _TABLE_STEP m apart, in segments
    split at 74.7 and 96.4 m within the band's class C and D part; the table
    is built once per cell and is read-only.
    """
    band = lo, hi
    r, grid = _grid(max(lo, BAND_55), hi)
    rows = CLASS_TIERS["C"] if hi <= BAND_2 else CLASS_TIERS["D"]
    areas = tier_areas(r)
    worst, best = tier_bracket("D", r, params)
    q_worst, q_best = tier_q_bracket(r)
    # the integrals over t, where the region has an area
    tier, node = np.nonzero(areas[:rows] > 0.0)
    link = r[node]
    floor = 0.5 * link ** 2
    t_best, t_worst = (np.sqrt(np.maximum(x - floor, 0.0) / 2.0) for x in (q_best[tier, node], q_worst[tier]))
    step = (t_worst - t_best) / _TABLE_POINTS
    t = t_best[:, None] + step[:, None] * (np.arange(_TABLE_POINTS) + 0.5)
    area, load = tier_load(areas, tier + 1, node, link, density, k)
    f = tier_area_within(np.repeat(link, _TABLE_POINTS), np.repeat(tier + 1, _TABLE_POINTS), t.ravel())
    f /= np.repeat(area, _TABLE_POINTS)
    f = np.clip(f, 0.0, 1.0, out=f).reshape(t.shape)
    law = least_q_law(f.copy(), load[:, None], k)
    h = best[:rows].copy()
    phi = np.zeros((*h.shape, _KNOTS + 1))
    means = _conditional_means(link, tier + 1, t, f, load, k, params)
    h[tier, node], phi[tier, node] = _quantiles(law, means, best[tier, node], worst[tier])
    slope_y = np.zeros(h.shape)
    # helpers per m^2 of the tier, and the secant of rate x G in q between the tier's best and worst positions
    crowd = density if k is None else (k - 1) * load / area
    fall = q_best[tier, node] - q_worst[tier]
    b = np.divide(best[tier, node] - worst[tier], fall, out=np.zeros(tier.size), where=fall < 0.0)
    slope_y[tier, node] = _arc_slope(link, tier + 1, t_best, step, law, b, crowd, params)
    # each node's cell reaches halfway to the next node of its segment; the last node of a segment is its end
    right = np.append(0.5 * (r[:-1] + r[1:]), r[-1])
    cap = tier_bracket("D", right, params)[1][:rows]
    table = ControlTable(*grid, h, phi, slope_y, cap, _indicator_mean(h, phi, worst[:rows], cap, rows),
                         *(np.empty(0),) * 4)
    return _with_class_edges(table, band, density, k, params, "proposed")


def _indicator_mean(h, phi, lo, cap, rows):
    """The exact mean of sampled mode's indicator 1{x < min(h + phi(U), cap)}, for each (tier, node) row of a proposed table.

    x = lo + (rate - lo) v is uniform on [lo, rate) and independent of U,
    which is Uniform(0, 1) given r and the tier, so the mean is the
    integral over U of w(U) = clip((min(h + phi(U), cap) - lo) / (rate - lo), 0, 1).
    phi is linear in U between its knots, and so is w but where it crosses
    0 or the cap, which `_clipped_means` takes exactly in each knot interval.
    """
    span = (np.asarray(TIER_RATES[:rows]) - lo)[:, None]
    w = phi + h[..., None]
    w -= lo[:, None, None]
    # a tier whose worst position is a sure success has no draw above its sure share, and an indicator of 0
    np.divide(w, span[..., None], out=w, where=span[..., None] > 0.0)
    top = np.divide(cap - lo[:, None], span, out=np.zeros(cap.shape), where=span > 0.0)
    np.clip(top, 0.0, 1.0, out=top)
    return (_clipped_means(w[..., :-1], w[..., 1:], top[..., None]) * np.diff(_KNOT_U)).sum(axis=-1)


def _clipped_means(a, b, top):
    """The mean over t in [0, 1] of clip(a + (b - a) t, 0, top), elementwise, for top >= 0.

    The mean is the same with a and b swapped, so it is taken from the
    larger end y1 down to the smaller y0: a share f_hi of the interval lies
    above top, a share f_lo below 0, and the rest runs linearly from
    min(y1, top) to max(y0, 0).
    """
    y1, y0 = np.maximum(a, b), np.minimum(a, b)
    fall = y1 - y0
    flat = fall == 0.0
    f_hi = np.divide(y1 - top, fall, out=(y1 > top).astype(float), where=~flat)
    f_lo = np.divide(-y0, fall, out=(y0 < 0.0).astype(float), where=~flat)
    np.clip(f_hi, 0.0, 1.0, out=f_hi)
    np.clip(f_lo, 0.0, 1.0, out=f_lo)
    middle = 1.0 - f_hi - f_lo
    return f_hi * top + middle * 0.5 * (np.minimum(y1, top) + np.maximum(y0, 0.0))


def _arc_slope(r, tier, t_best, step, law, b, crowd, params):
    """gamma: the slope of a proposed link's rate x max G on y^2 of its least-q helper, given q_min, pooled over q_min's law.

    Rows of links of lengths r and tiers `tier`, with the midpoints in
    t = |H - M| of `control_table` (`step` apart from t_best on), q_min's law
    F at each, the secant b of rate x G in q and `crowd` helpers per m^2 of
    the tier.  Given q_min = 2 t^2 + r^2 / 2, the least-q helper H is
    uniform on the tier's arc at t (`stochastic_geometry.tier_arc`) and the
    others lie beyond it; the score's slope in G(H) is the chance that none
    of them does better, exp(-crowd x A), with A the area beyond the arc
    where G exceeds G(H).  G falls outward at 4 t b / rate per metre, so A
    is, over the arc's mirror images, the sum of
    rate (G - G(H))+ / (4 |b|) per unit angle.  The midpoints are taken in
    _ARC_GROUPS groups, each at its centre and weighted by the rise of F
    across it, and each arc at _ARC_POINTS Gauss-Legendre points in the
    angle.  gamma is the pooled covariance of that chance times the point's
    rate x G about the arc's mean with y^2 = t^2 sin^2 w, over the pooled
    variance of y^2; 0 where y^2 does not vary.
    """
    width = law.shape[1] // _ARC_GROUPS
    rise = np.concatenate((np.zeros((law.shape[0], 1)), 0.5 * (law[:, width - 1:-1:width] + law[:, width::width]),
                           np.ones((law.shape[0], 1))), axis=1)
    t = (t_best[:, None] + step[:, None] * (width * np.arange(_ARC_GROUPS) + 0.5 * width)).ravel()
    u, w = _gauss_legendre(_ARC_POINTS)
    span, cos, g = _arc_points(np.repeat(r, _ARC_GROUPS), np.repeat(tier, _ARC_GROUPS), t, u, params)
    # crowd x A per unit of rate x G above a point's, and the chance that no other helper beats each point
    pieces = 2.0 * TIER_BOXES[4, tier - 1]
    # at most 1e300, which a secant b of almost 0 would pass, overflowing: exp(-beyond x) is then 0 but at x = 0
    beyond = np.divide(crowd * pieces, np.maximum(4.0 * np.abs(b), 1e-300 * crowd * pieces), out=np.zeros(b.shape),
                       where=b < 0.0)
    beyond = np.repeat(beyond, _ARC_GROUPS) * span
    alone = np.stack([np.exp(-beyond * (w * np.maximum(g - g[:, [j]], 0.0)).sum(axis=1)) for j in range(u.size)],
                     axis=1)
    g -= (w * g).sum(axis=1, keepdims=True)
    g *= alone
    y2 = (t * t)[:, None] * (1.0 - cos * cos)
    y2 -= (w * y2).sum(axis=1, keepdims=True)
    weight = np.diff(rise, axis=1).ravel()[:, None] * w
    cov, var = ((weight * y2 * x).reshape(r.size, -1).sum(axis=1) for x in (g, y2))
    return np.divide(cov, var, out=np.zeros(r.size), where=var > 0.0)


def _arc_points(r, tier, t, u, params):
    """(span, cos, rate x G) at the points u in [0, 1] of each link's tier arc at t from its S-D midpoint (`stochastic_geometry.tier_arc`).

    span is each arc's angle, cos the cosine of the angle w from the S-D
    axis at each point, one row per arc, and rate x G the tier's rate times
    G there, with d_SH^2 and d_HD^2 = t^2 + r^2 / 4 +- t r cos w.
    """
    lo, hi = tier_arc(r, tier, t)
    first = np.arccos(hi)
    span = np.arccos(lo) - first
    cos = np.cos(first[:, None] + span[:, None] * u)
    base = (t * t + 0.25 * r * r)[:, None]
    tr = (t * r)[:, None]
    g = g_joint(np.sqrt(base + tr * cos), np.sqrt(np.maximum(base - tr * cos, 0.0)), params)
    g *= np.take(TIER_RATES, tier - 1)[:, None]
    return span, cos, g


def _conditional_means(r, tier, t, f, load, k, params):
    """E_i(r; t): the mean of rate x max G over a tier's helpers given that the least-q one lies t from the S-D midpoint.

    Rows of links of lengths r and tiers `tier`, at increasing t, with
    f = B_i(t) / S_i at each and the helper count's `load`
    (`stochastic_geometry.tier_load`).  Given q_min, the least-q helper H is
    uniform on the tier's arc at t and the others lie beyond it, so with X
    its rate x G and Y the largest of theirs,
        E_i = E max(X, Y) = E X + E integral from X up of (1 - V(g)) dg,
    V(g) the chance that no other helper lies beyond t where rate x G > g:
    exp(-load a) under the PPP and (1 - load a / (1 - load f))^(k - 2)
    under k-nearest conditioning, a the share of the tier's area beyond t
    where rate x G > g (the void probabilities of the module docstring).
    Each arc is taken at _ARC_POINTS Gauss-Legendre points in the angle, and
    the tier's area beyond t as the arcs of the row's points beyond it, each
    with the share of the tier between the edges of its cell, halfway to the
    next points, and the part of the arc's own cell beyond t (`_excess`).
    With no other helper, at a load of 0 or k <= 2, E_i is the arc's mean
    of rate x G.  Rows are taken in blocks of _MEAN_BLOCK.
    """
    n, size = t.shape
    u, w = _gauss_legendre(_ARC_POINTS)
    edge = np.concatenate((np.zeros((n, 1)), 0.5 * (f[:, 1:] + f[:, :-1]), np.ones((n, 1))), axis=1)
    cell = np.maximum(np.diff(edge, axis=1), 0.0)
    # the own cell's share below t, which a leaves out
    inner = np.maximum(f - edge[:, :-1], 0.0)
    # a's factor: the count's load, or the share that a is of the region the k - 2 other nodes lie in
    scale = np.broadcast_to(load[:, None], f.shape) if k is None else load[:, None] / (1.0 - load[:, None] * f)
    crowded = (k is None or k > 2) and np.any(load > 0.0)
    mean = np.empty((n, size))
    for block in np.array_split(np.arange(n), max(1, -(-n // _MEAN_BLOCK))):
        value = _arc_points(np.repeat(r[block], size), np.repeat(tier[block], size), t[block].ravel(), u, params)[2]
        value = value.reshape(block.size, size, _ARC_POINTS)
        mean[block] = (value * w).sum(axis=2)
        if crowded:
            mean[block] += _excess(value, w, *(np.ascontiguousarray(x[block].T) for x in (cell, inner, scale)), k)
    return mean


def _excess(value, w, cell, inner, scale, k):
    """E of the integral from X up of (1 - V(g)) dg of `_conditional_means`, for a block of rows.

    value holds rate x G at each row's arc points, (rows, arcs, points), and
    cell, inner and scale the arcs' shares and factors, (arcs, rows).  Level
    l of a row lies l spacings of (hi - lo) / _LEVELS below its largest
    value hi, lo its least, and a point x spacings below hi lies above the
    levels l > x, so the share W of each arc above each level is a count of
    its points' weights by floor(x), summed from the top level down.  a at
    an arc is the sum of cell x W over the arcs from it outward, less its
    inner x W.  With D = 1 - V at each level, 0 at the top, the trapezoid
    rule's integral from level l to the top is (D_0 + ... + D_l - D_l / 2)
    spacings, read at each point of the arc linearly between the levels.
    The running sums go one level or arc at a time, each step a whole
    (arcs, rows) or (levels, rows) slice.
    """
    rows, size, _ = value.shape
    slab = size * rows
    hi = value.max(axis=(1, 2))
    spread = hi - value.min(axis=(1, 2))
    x = np.subtract(hi[:, None, None], value)
    np.divide(x, spread[:, None, None], out=x, where=spread[:, None, None] > 0.0)
    x *= _LEVELS
    np.clip(x, 0.0, _LEVELS, out=x)
    # each point's arc and row in an (arcs, rows) slab, and its flat index in (levels, arcs, rows)
    at = (np.arange(size) * rows + np.arange(rows)[:, None])[..., None]
    level = np.floor(x).astype(np.intp)
    index = level * slab
    index += at
    counts = np.bincount(index.ravel(), weights=np.broadcast_to(w, index.shape).ravel(),
                         minlength=(_LEVELS + 1) * slab)
    # W at levels 1.._LEVELS
    share = counts.reshape(_LEVELS + 1, size, rows)[:-1]
    for i in range(1, _LEVELS):
        share[i] += share[i - 1]
    a = share * cell
    for arc in range(size - 2, -1, -1):
        a[:, arc] += a[:, arc + 1]
    share *= inner
    a -= share
    a *= scale
    if k is None:
        np.negative(a, out=a)
    else:
        np.log1p(np.negative(a, out=a), out=a)
        a *= k - 2
    np.expm1(a, out=a)
    np.negative(a, out=a)
    above = np.zeros((_LEVELS + 1, size, rows))
    above[1:] = a
    for i in range(2, _LEVELS + 1):
        above[i] += above[i - 1]
    a *= 0.5
    above[1:] -= a
    np.minimum(level, _LEVELS - 1, out=level)
    x -= level
    level *= slab
    level += at
    low = above.take(level)
    high = above.take(level + slab)
    high -= low
    high *= x
    high += low
    high *= w
    high = high.sum(axis=2)
    high *= (spread / _LEVELS)[:, None]
    return high


def _quantiles(law, y, first, last):
    """(mean, y at the knots less it) for rows of pairs (F, y): y at the quantiles Q(u_j) of a law F, and its trapezoid mean over the knots u_j.

    F = law at the pairs' y, 0 at y = `first` and 1 at y = `last`.  y is
    taken linear between the pairs in the knots' own coordinate
    x = _KNOTS (1 - sqrt(1 - F)), in which knot j is x = j, and which opens
    up the square-root rise of Q to its end near F = 1.  Rounding that
    leaves x a little lower at a later pair is lifted to the running
    maximum.  The pair at or below knot j is one less than the number of
    pairs with ceil(x) <= j, counted for every row at once.  y less `first`
    is centred, so that rounding is relative to y's spread.
    """
    n, size = law.shape[0], law.shape[1] + 2
    x = np.empty((n, size))
    x[:, 0], x[:, -1] = 0.0, _KNOTS
    inner = np.subtract(1.0, law, out=x[:, 1:-1])
    np.sqrt(inner, out=inner)
    inner *= -_KNOTS
    inner += _KNOTS
    np.maximum.accumulate(x, axis=1, out=x)
    y = np.concatenate((first[:, None], y, last[:, None]), axis=1)
    cell = np.ceil(x).astype(np.intp)
    cell += (_KNOTS + 1) * np.arange(n)[:, None]
    below = np.bincount(cell.ravel(), minlength=n * (_KNOTS + 1)).reshape(n, _KNOTS + 1).cumsum(axis=1)
    pair = np.minimum(below - 1, size - 2)
    x0, x1, y0, y1 = (np.take_along_axis(z, pair + i, axis=1) for z in (x, y) for i in (0, 1))
    x1 -= x0
    # x0 <= j < x1 at knot j, but at the last knot, where x0 = x1 = _KNOTS leaves j - x0 = 0 in place
    w = np.subtract(np.arange(_KNOTS + 1), x0, out=x0)
    np.divide(w, x1, out=w, where=x1 > 0.0)
    # y - y(0) at the knots, then less its trapezoid mean
    y1 -= y0
    y1 *= w
    y0 -= first[:, None]
    y1 += y0
    mean = (0.5 * (y1[:, 1:] + y1[:, :-1]) * np.diff(_KNOT_U)).sum(axis=1)
    y1 -= mean[:, None]
    return first + mean, y1


def control_term(table, flat, u):
    """phi at each link's U = u, from the knots of the (tier, node) row at `flat` of a proposed table's phi (`within`), linearly in U.

    With x = _KNOTS (1 - sqrt(1 - u)), the knot below u is j = floor(x),
    at most _KNOTS - 1, and with f = x - j and a = _KNOTS - j the weight of
    the knot above is (u - u_j) / (u_(j+1) - u_j) = f (2 a - f) / (2 a - 1).
    u is overwritten.
    """
    x = np.subtract(1.0, u, out=u)
    np.sqrt(x, out=x)
    x *= -_KNOTS
    x += _KNOTS
    j = np.minimum(x.astype(np.intp), _KNOTS - 1)
    x -= j
    twice_a = 2 * (_KNOTS - j)
    w = twice_a - x
    w *= x
    w /= twice_a - 1
    flat = flat * (_KNOTS + 1)
    flat += j
    lo = table.within.take(flat)
    flat += 1
    hi = table.within.take(flat)
    hi -= lo
    hi *= w
    hi += lo
    return hi


@lru_cache(maxsize=24)
def region_table(lo, hi, density, k, params):
    """The conventional scheme's control table: h_j, b_j (`within`) and g_j (`slope_y`) of `_region_fit`, with the class edges of the cell's band lo..hi.

    A helper is uniform in its region whatever the density or k, so the fit
    is built once per ChannelParams and shared by the cells; the class
    edges, and the step of the conventional mean score across each, are the
    cell's (`_with_class_edges`).  Built once per cell, read-only.
    """
    return _with_class_edges(_region_fit(params), (lo, hi), density, k, params, "conventional")


# each scheme's table builder
TABLES = {"proposed": control_table, "conventional": region_table}


# one more than the k = 1 cells of a pass over both Monte Carlo bench workloads
@lru_cache(maxsize=4)
def class_edges(lo, hi, density, k, params):
    """A table that holds only the class edges of the cell's band lo..hi, for k = 1 (`_with_class_edges`).

    With k = 1 the destination is the source's nearest node, so no link has
    a helper and no row of a scheme's table is read; the step of the mean
    score at each edge is that of the direct scores alone (`_mean_score`).
    """
    return _with_class_edges(ControlTable(*(np.empty(0),) * len(ControlTable._fields)), (lo, hi), density, k, params,
                             None)


@lru_cache(maxsize=8)
def _region_fit(params):
    """`ControlTable` of `params` without class edges: each region's mean of rate x G and its fits in (q, y^2), at every node.

    The nodes are those of `_grid` over [67.1, 100] m.  Each region is
    integrated over one hop order and the upper half-plane, whose mirror
    images give it whole with the same law of G, q and y^2: in polar
    coordinates (rho, theta) about S, rho = d_SH in the region's higher hop
    band [a, b) from r - d on, and theta between the angles at which
    d_HD = c and d_HD = d (`stochastic_geometry.hop_angle`), by a
    _GAUSS_POINTS x _GAUSS_POINTS Gauss-Legendre rule per panel of rho,
    split at r - c, where the lower angle leaves 0, with the area element
    rho d(rho) d(theta).  An angle limit that leaves 0 inside the band does
    so like the square root of rho's distance from the panel's left end, so
    the rule runs in s with rho = left + (right - left) s^2, which makes the
    integrand smooth there and keeps h within 2e-8 of a quadrature oracle
    (5e-5 with the rule in rho itself).  h is the rule's mean of rate x G.
    Sampled mode's (b, g) solve the normal equations of its centred moments
    in dq = q - Qbar and dy = y^2 - Ybar^2, and analytic mode's five
    coefficients (`quadratic`) those of dq, dy and the centred dq^2, dq dy
    and dy^2 (`_solve`), of which (b, g)'s are a sub-block.  A region with
    no area at a node (tier 1 from 96.4 m on, tiers 4 and 5 of class C)
    gets h = rate G_best, the limit of a region that shrinks to its best
    position, and coefficients of 0.
    """
    r, grid = _grid(BAND_55, MAX_RANGE)
    rule = _gauss_legendre(_GAUSS_POINTS)
    areas = tier_areas(r)
    h = tier_bracket("D", r, params)[1]
    slope_q, slope_y, quadratic = np.zeros(h.shape), np.zeros(h.shape), np.zeros((5, *h.shape))
    for tier, box in enumerate(TIER_BOXES.T):
        at = np.flatnonzero(areas[tier] > 0.0)
        # in blocks of nodes, so that the rule's points, about 2k a block, stay small beside a chunk's arrays
        for block in np.array_split(at, max(1, -(-at.size // _FIT_BLOCK))):
            (h[tier, block], slope_q[tier, block], slope_y[tier, block],
             quadratic[:, tier, block]) = _fit(r[block], box, TIER_RATES[tier], params, *rule)
    return ControlTable(*grid, h, slope_q, slope_y, *(np.empty(0),) * 5, quadratic)


def _fit(r, box, rate, params, u, w):
    """(h, b, g, quadratic) of `_region_fit` at link lengths r, for the region of the hop box (a, b, c, d, orders) and tier rate `rate`, by the rule of nodes u and weights w on [0, 1]."""
    a, b, c, d, _ = box
    link = r[:, None]
    lo = np.maximum(a, link - d)
    cuts = [lo, np.minimum(np.maximum(link - c, lo), b), b] if c > 0 else [lo, b]
    rho = np.concatenate([left + (right - left) * u * u for left, right in zip(cuts[:-1], cuts[1:])], axis=1)
    weight = np.concatenate([(right - left) * 2.0 * u * w for left, right in zip(cuts[:-1], cuts[1:])], axis=1)
    low, span = hop_angle(c, rho, link), hop_angle(d, rho, link)
    span -= low
    weight *= rho * span
    # the points, (nodes, rho points, theta points), and their weights
    theta = low[..., None] + span[..., None] * u
    weight = weight[..., None] * w
    rho, link = rho[..., None], link[..., None]
    d_hd2 = (rho - link) ** 2 + 4.0 * rho * link * np.sin(0.5 * theta) ** 2
    y2 = (rho * np.sin(theta)) ** 2
    q = rho * rho + d_hd2
    f = rate * p_success_direct(rho, params) * p_success_direct(np.sqrt(d_hd2), params)
    weight /= weight.sum(axis=(1, 2), keepdims=True)
    dq, dy, df = (z - (weight * z).sum(axis=(1, 2), keepdims=True) for z in (q, y2, f))
    qq, qy, yy, qf, yf = ((weight * s * t).sum(axis=(1, 2)) for s, t in ((dq, dq), (dq, dy), (dy, dy), (dq, df), (dy, df)))
    det = qq * yy - qy * qy
    fit = det > 1e-12 * qq * yy
    slope_q = np.divide(yy * qf - qy * yf, det, out=np.zeros(r.size), where=fit)
    slope_y = np.divide(qq * yf - qy * qf, det, out=np.zeros(r.size), where=fit)
    # the five terms, flat in the points: dq, dy and the centred squares and product
    z = np.stack((dq, dy, dq * dq, dq * dy, dy * dy)).reshape(5, r.size, -1)
    weight = weight.reshape(r.size, -1)
    z[2:] -= (weight * z[2:]).sum(axis=2, keepdims=True)
    wz = weight * z
    return ((weight * f.reshape(r.size, -1)).sum(axis=1), slope_q, slope_y,
            _solve(np.einsum("inp,jnp->ijn", wz, z), np.einsum("inp,np->in", wz, df.reshape(r.size, -1))))


def _solve(a, b):
    """x with a x = b in each column of the (m, m, n) symmetric positive semi-definite a and the (m, n) b.

    Gaussian elimination without row exchanges, which a positive definite
    matrix does not need, written out rather than a LAPACK call, whose
    first call in a process allocates the BLAS buffers (`_gauss_legendre`).
    An unknown whose pivot, the share of its term's variance that the terms
    before it leave, falls to 1e-10 or below is a combination of them: it
    gets 0, and its equation is dropped, so the others fit without it.
    """
    a, b = a.copy(), b.copy()
    m = b.shape[0]
    kept = np.empty(b.shape, dtype=bool)
    # each term's variance, the diagonal before elimination, one row per term
    variance = np.diagonal(a).T.copy()
    for k in range(m):
        kept[k] = a[k, k] > 1e-10 * variance[k]
        factor = a[k + 1:, k] / np.where(kept[k], a[k, k], np.inf)
        a[k + 1:, k:] -= factor[:, None] * a[k, k:]
        b[k + 1:] -= factor * b[k]
    x = np.zeros(b.shape)
    for k in range(m - 1, -1, -1):
        rest = b[k] - (a[k, k + 1:] * x[k + 1:]).sum(axis=0)
        np.divide(rest, a[k, k], out=x[k], where=kept[k])
    return x


def _gauss_legendre(n):
    """Nodes and weights of the n-point Gauss-Legendre rule on [0, 1].

    The nodes are the roots of the Legendre polynomial P_n, found by
    Newton's method from x_i = cos(pi (i + 3/4) / (n + 1/2)) with P_n and
    its derivative from the three-term recurrence, and the weights are
    2 / ((1 - x^2) P_n'(x)^2), both mapped from [-1, 1].  Seven steps from
    that start settle every node of a rule this small to rounding.  No
    LAPACK call: the first one a process makes allocates the BLAS buffers,
    most of a megabyte of resident memory.
    """
    x = np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(7):
        before, p = np.ones(n), x
        for k in range(2, n + 1):
            before, p = p, ((2 * k - 1) * x * p - (k - 1) * before) / k
        slope = n * (x * p - before) / (x * x - 1.0)
        x = x - p / slope
    return 0.5 * (1.0 - x), 1.0 / ((1.0 - x * x) * slope * slope)


def _grid(lo, hi):
    """(r, grid): nodes at most _TABLE_STEP m apart over [lo, hi], split at 74.7 and 96.4 m, and the grid's layout.

    Each segment between the splits inside the band has its own equally
    spaced nodes, both its ends included.  The layout, (splits, start,
    scale, offset), is that of `ControlTable` and `table_nodes`.
    """
    edges = [lo, *(x for x in (BAND_2, TIER1_MAX_SEPARATION) if lo < x < hi), hi]
    counts = [max(1, math.ceil((b - a) / _TABLE_STEP)) for a, b in zip(edges[:-1], edges[1:])]
    r = np.concatenate([a + (b - a) / n * np.arange(n + 1) for a, b, n in zip(edges[:-1], edges[1:], counts)])
    starts = np.cumsum([0] + [n + 1 for n in counts[:-1]])
    return r, (np.array(edges[1:-1]), np.array(edges[:-1]), np.array(counts) / np.diff(edges), starts)


def _with_class_edges(table, band, density, k, params, scheme):
    """`table` with the class edges inside the band, the uniform u of each and the step of the mean score there, read-only.

    The mean score is the scheme's, as its control's centre has it
    (`_mean_score`); `monte_carlo._edge_term` takes its step off the trials
    of the u-slice that holds each edge.
    """
    edges = np.array([e for e in BAND_EDGES[1:-1] if band[0] < e < band[1]])
    below, above = (_mean_score(x, density, k, params, table, scheme) for x in (np.nextafter(edges, 0.0), edges))
    table = table._replace(edges=edges, edge_u=_band_uniform(edges, band, density, k), jump=above - below)
    for array in table:
        array.flags.writeable = False
    return table


def _mean_score(r, density, k, params, table, scheme):
    """A scheme's mean score at link lengths r, as its control's centre has it: m(r) of `control` for class C and D, rate x Ps(r) below and at k = 1, where no link has a helper."""
    direct = np.take(BAND_RATES, hop_band(r)) * p_success_direct(r, params)
    helped = r >= BAND_55
    if np.any(helped) and k != 1:
        x = r[helped]
        law, void, _ = choice_law(scheme, tier_areas(x), x, density, k)
        direct[helped] = _mixture(law, void, direct[helped], np.take(table.h, table_nodes(table, x), axis=1))
    return direct


def _mixture(law, void, direct, centre):
    """m(r) = void x direct + sum_i law_i x centre_i: a control's mean given r, summed one tier at a time.

    centre holds each tier's centre at each link, one row per tier.  A
    class C centre has three rows, and the law's rows for tiers 4 and 5 are
    then exact zeros, which the sum skips.
    """
    m = void * direct
    for p, row in zip(law, centre):
        m += p * row
    return m


def _band_uniform(r, band, density, k):
    """The uniform u that `monte_carlo._link_distance` maps to each link length r of the band."""
    a, b = band
    if k is None:
        return (r * r - a * a) / (b * b - a * a)
    from scipy.special import gammainc, gammaincc

    lo, hi, _ = nn_distance_band(a, b, density, k)
    x = density * np.pi * r * r
    return ((gammaincc if hi < lo else gammainc)(k, x) - lo) / (hi - lo)


def table_nodes(table, r):
    """The index of each link's nearest node on the grid of a `ControlTable` of either scheme."""
    # the number of splits at or below r; two comparisons cost less than a search
    seg = 0
    for split in table.splits:
        seg = seg + (r >= split)
    x = r - table.start[seg]
    x *= table.scale[seg]
    j = np.rint(x, out=x).astype(np.intp)
    j += table.offset[seg]
    return j


def control(table, scheme, r, choice, direct, q, y2, k, which, draw=None, single=None):
    """(c, m) of the control variate of the module docstring, for links of lengths r scored `direct` = rate x Ps(r) without a helper.

    `choice` is the links' tier or region choice (`monte_carlo._TierChoice`):
    c is, at the links choice.has with a helper, the centre h of the tier or
    region each chose, read at its nearest node of the scheme's `table`, and
    the direct score at the others.  The links choice.has[which] had their
    helpers placed, with least d_SH^2 + d_HD^2 q and y^2 y2 of the helper
    that holds it, and add the scheme's term: phi(U), U = F(q)
    (`least_q_uniform`) read between the knots of its node's row
    (`control_term`), for the proposed scheme, and b (q - Qbar) about the
    region's exact mean (`_region_means`) for the conventional one, whose
    placed links take their regions' moments in one pass
    (`stochastic_geometry.tier_moments`).  Both
    add gamma (y^2 - Ybar^2), y^2 about its exact mean over the tier's arc
    through the helper (`stochastic_geometry.tier_arc_y2`) or over the
    region, which is left out where y2 is None; in analytic mode the
    conventional scheme's term is instead the quadratic of `_quadratic`.  In sampled mode
    draw = (x, span) holds the links' draws x = lo + span v above their sure
    share, and c adds the indicator term (`_indicator`): the proposed
    scheme's psi is h + phi(U) of its own table, the conventional one's that
    of `single`, the table of one helper uniform in the region, where it is
    given.  m is c's mean given r (`_mixture`).  q and y2 may be
    overwritten.
    """
    j = table_nodes(table, r)
    centre = np.take(table.h, j, axis=1)
    chosen = centre[choice.tier - 1, choice.has]
    at, tier = choice.has[which], choice.tier[which]
    flat = (tier - 1) * table.h.shape[1]
    flat += j[at]
    link = r[at]
    if scheme == "proposed":
        t = least_q_distance(link, q)
        term = control_term(table, flat, least_q_uniform(link, tier, choice.area[which], choice.load[which], t, k))
        mean_y2 = None if y2 is None else tier_arc_y2(link, tier, t)
        if draw is not None:
            chosen += _indicator(table, j[choice.has], choice.tier, which, chosen[which] + term, draw)
    else:
        if single is not None:
            # the helper's U = B_j(q) / S_j, Uniform(0, 1) given r and the region, as the one-helper law has it
            u = tier_area_within(link, tier, least_q_distance(link, q))
            u /= choice.area[which]
            np.clip(u, 0.0, 1.0, out=u)
            nodes = table_nodes(single, r[choice.has])
            at_single = (tier - 1) * single.h.shape[1]
            at_single += nodes[which]
            psi = control_term(single, at_single, u)
            psi += single.h.take(at_single)
            chosen += _indicator(single, nodes, choice.tier, which, psi, draw)
        # the chosen regions' means of rho^2, y^2, rho^4, rho^2 y^2 and y^4, rho = |H - M|; sampled mode reads the
        # first two alone
        means = tier_moments(link, tier, 5 if draw is None else 2)
        means /= choice.area[which]
        mean_q, mean_y2 = _region_means(link, means)
        term = np.subtract(q, mean_q, out=q)
        if draw is None:
            term = _quadratic(table, flat, means, term, np.subtract(y2, mean_y2, out=y2))
            y2 = None
        else:
            term *= table.within.take(flat)
    if y2 is not None:
        y2 -= mean_y2
        y2 *= table.slope_y.take(flat)
        term += y2
    c = direct.copy()
    chosen[which] += term
    c[choice.has] = chosen
    return c, _mixture(choice.law, choice.void, direct, centre)


# sampled mode's indicator coefficient beta of tiers 1-5, both schemes (`_indicator`): the least-squares coefficients
# of the pair differences of the scores on those of each tier's term, over classes C, D1 and D2 under the PPP and
# k = 10 at 0.001 nodes/m^2, pooled and rounded
_INDICATOR_BETA = np.array([0.5, 0.55, 0.6, 0.3, 0.4])
_INDICATOR_BETA.flags.writeable = False


def _indicator(table, nodes, tier, which, psi, draw):
    """beta span (1{x < min(psi, cap)} - hit): sampled mode's indicator term at the links with a helper, of tiers `tier`.

    nodes is each link's nearest node of the proposed-form `table`, whose
    (tier, node) rows hold cap and hit, the indicator's exact mean
    (`_indicator_mean`); psi is h + phi(U) at the placed links `which`, and
    draw = (x, span) each link's draw lo + span v and span rate - lo.  A
    link the squeeze settled has x at or above its bracket's upper end, and
    so above cap, and an indicator of 0 without a placement.  beta is fixed
    per tier (`_INDICATOR_BETA`).  psi is overwritten.
    """
    x, span = draw
    every = (tier - 1) * table.h.shape[1]
    every += nodes
    hit = np.zeros(every.size)
    hit[which] = x[which] < np.minimum(psi, table.cap.take(every[which]), out=psi)
    hit -= table.hit.take(every)
    hit *= span
    hit *= _INDICATOR_BETA.take(tier - 1)
    return hit


def _quadratic(table, flat, means, dq, dy):
    """The conventional control's analytic-mode term at the placed links, in dq = q - Qbar and dy = y^2 - Ybar^2.

    b dq + g dy + c_qq (dq^2 - V_qq) + c_qy (dq dy - V_qy) + c_yy (dy^2 - V_yy),
    with the five coefficients at each link's (region, node) row `flat` of
    the table's `quadratic`, and V the region's exact central moments at the
    link's own r: with rho = |H - M|, q = 2 rho^2 + r^2 / 2, so
    V_qq = 4 var(rho^2), V_qy = 2 cov(rho^2, y^2) and V_yy = var(y^2), from
    `means`, the region's means of rho^2, y^2, rho^4, rho^2 y^2 and y^4
    (`stochastic_geometry.tier_moments` over its area):
    var(rho^2) = E rho^4 - (E rho^2)^2, and so on.  Each term has mean 0
    given r and the region whatever the coefficients.  means, dq and dy may
    be overwritten.
    """
    rho2, y2, p4, p2y2, y4 = means
    b, g, c_qq, c_qy, c_yy = table.quadratic.reshape(5, -1).take(flat, axis=1)
    term = b * dq
    term += g * dy
    p4 -= rho2 * rho2
    term += c_qq * (dq * dq - 4.0 * p4)
    p2y2 -= rho2 * y2
    term += c_qy * (dq * dy - 2.0 * p2y2)
    y4 -= y2 * y2
    dy *= dy
    dy -= y4
    dy *= c_yy
    term += dy
    return term


def _region_means(r, means):
    """(Qbar, Ybar^2): the exact means of d_SH^2 + d_HD^2 and of y^2 over the regions of conventional links of lengths r.

    means holds the regions' means of rho^2 and y^2 in its first two rows,
    J / S and I / S from their second moments about the S-D midpoint and
    line (`stochastic_geometry.tier_moments`) over their areas, and
    Qbar = 2 J / S + r^2 / 2.  Where tier 1's region is a sliver, near its
    96.4 m tangency, both moments and the area come without cancellation,
    so both means lie in the region's ranges unclipped.
    """
    mean_q = means[0] * 2.0
    mean_q += 0.5 * r ** 2
    return mean_q, means[1]
