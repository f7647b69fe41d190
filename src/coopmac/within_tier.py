"""The proposed scheme's within-tier control: the law of the best helper's least q, and a table of centres and slopes.

A proposed link keeps the best of the chosen tier's helpers, and what is
left of its score's variance is the spread of max G inside the tier, which
q_min, the least d_SH^2 + d_HD^2 of the tier's helpers, explains for the
most part.  Given the link length r and the tier, q_min has a law known in
closed form up to one area function: a helper uniform in tier i's region of
area S_i lies where q < s with probability B_i(s; r) / S_i, B_i the area of
the region within sqrt((s - r^2 / 2) / 2) of the S-D midpoint
(`stochastic_geometry.tier_area_within`), and the helper count is Poisson
or Binomial given at least one (the void probabilities of Haenggi,
Stochastic Geometry for Wireless Networks, 2012, ch. 2).  U = F(q_min) at
the drawn value (`least_q_uniform`) is exactly Uniform(0, 1) given r and
the tier, so the Monte Carlo's control c = h_i(r) + beta_i(r) (U - 1/2) has
the mean h_i(r) for any h and beta fixed by r, the tier and the cell
(Glasserman, Monte Carlo Methods in Financial Engineering, 2004, 4.1).
`control_table` tabulates h and beta once per cell; `monte_carlo` reads
them at each link's nearest node (`table_nodes`) and applies the control.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.special import gammainc, gammaincc

from .channel_model import p_success_direct, tier_bracket, tier_q_bracket
from .stochastic_geometry import (
    BAND_2,
    BAND_55,
    BAND_EDGES,
    BAND_RATES,
    CLASS_TIERS,
    TIER1_MAX_SEPARATION,
    cumulative_areas,
    hop_band,
    nn_distance_band,
    tier_area_within,
    tier_areas,
    tier_void_law,
)

# the proposed scheme's control table (`control_table`): link-length nodes at most _TABLE_STEP m apart, in
# segments split where tiers 4 and 5 appear (74.7 m) and tier 1 empties (96.4 m), and _TABLE_POINTS
# midpoints in t = |H - M| for each node's integrals over q
_TABLE_STEP = 0.25
_TABLE_POINTS = 32


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


def least_q_uniform(r, tier, area, load, q, k):
    """U = F(q) of links of lengths r whose chosen tier's least helper d_SH^2 + d_HD^2 is q (`least_q_law`).

    q = 2 |H - M|^2 + r^2 / 2 puts the least helper at t = |H - M| from the
    S-D midpoint, and B_i(q) is the area of the tier's region within t of it.
    Given r and the tier, U is exactly Uniform(0, 1): the probability
    integral transform of q_min's continuous law.
    """
    t = 0.5 * r * r
    np.subtract(q, t, out=t)
    t *= 0.5
    np.sqrt(np.maximum(t, 0.0, out=t), out=t)
    f = tier_area_within(r, tier, t)
    f /= area
    return least_q_law(f, load, k)


class ControlTable(NamedTuple):
    """The proposed scheme's control at the nodes of a link-length grid (`control_table`).

    The grid has one segment per band between the edges `splits`; segment i
    runs from start[i] with scale[i] intervals per metre, and its first node
    is node offset[i].  h and beta hold each tier's centre and slope at
    every node, one row per tier.  edges are the class edges inside the
    cell's band, edge_u the link-length uniform u at each and jump the
    step of the link's mean score there (`monte_carlo._edge_term`).
    """

    splits: np.ndarray
    start: np.ndarray
    scale: np.ndarray
    offset: np.ndarray
    h: np.ndarray
    beta: np.ndarray
    edges: np.ndarray
    edge_u: np.ndarray
    jump: np.ndarray


@lru_cache(maxsize=64)
def control_table(lo, hi, density, k, params):
    """Centre h_i(r) and slope beta_i(r) of the proposed scheme's control, at the nodes of a link-length grid.

    The control of a link that chose tier i is
    c = h_i(r) + beta_i(r) (U - 1/2), with U = F(q_min) of
    `least_q_uniform`.  Both come from a model of rate x max G linear in
    q_min through the bracket's best and worst positions: its slope b_i is
    the secant of `monte_carlo._secant`, and with S_i(s) = 1 - F(s) the
    survival of q_min from q_best on,
        h_i = rate G_best,i(r) + b_i integral S_i(s) ds,
        beta_i = 12 b_i Cov(q_min, U) = 6 b_i integral S_i (1 - S_i) ds,
    the model's mean and its regression slope on U, whose variance is
    1/12.  The integrals run over t = |H - M| in s = 2 t^2 + r^2 / 2 by the
    midpoint rule.  h and beta depend on r, the tier and the cell alone
    (its band lo..hi, density, k and params), so c keeps its exact mean
    whatever their accuracy; their accuracy sets only the variance cut.  A
    tier with no area there gets h = rate G_best and beta = 0.  The nodes are
    at most _TABLE_STEP m apart, in segments split at 74.7 and 96.4 m within
    the band's class C and D part; the table is built once per cell and is
    read-only.
    """
    band = lo, hi
    lo = max(lo, BAND_55)
    edges = [lo, *(x for x in (BAND_2, TIER1_MAX_SEPARATION) if lo < x < hi), hi]
    counts = [max(1, math.ceil((b - a) / _TABLE_STEP)) for a, b in zip(edges[:-1], edges[1:])]
    r = np.concatenate([a + (b - a) / n * np.arange(n + 1) for a, b, n in zip(edges[:-1], edges[1:], counts)])
    rows = CLASS_TIERS["C"] if hi <= BAND_2 else CLASS_TIERS["D"]
    areas = tier_areas(r)
    worst, best = tier_bracket("D", r, params)
    q_worst, q_best = tier_q_bracket(r)
    slope = np.divide(best - worst[:, None], q_best - q_worst[:, None], out=np.zeros(best.shape),
                      where=q_best < q_worst[:, None])
    # the integrals over t, where the region has an area
    tier, node = np.nonzero(areas[:rows] > 0.0)
    floor = 0.5 * r[node] ** 2
    t_best, t_worst = (np.sqrt(np.maximum(x - floor, 0.0) / 2.0) for x in (q_best[tier, node], q_worst[tier]))
    step = (t_worst - t_best) / _TABLE_POINTS
    t = t_best[:, None] + step[:, None] * (np.arange(_TABLE_POINTS) + 0.5)
    area = areas[tier, node]
    if k is None:
        load = density * area
    else:
        load = area / (np.pi * r[node] ** 2 - (cumulative_areas(areas)[tier, node] - area))
    points = t.size // max(tier.size, 1)
    f = tier_area_within(np.repeat(r[node], points), np.repeat(tier + 1, points), t.ravel())
    f /= np.repeat(area, points)
    survival = 1.0 - least_q_law(f, np.repeat(load, points), k).reshape(t.shape)
    # ds = 4 t dt
    weight = 4.0 * t * step[:, None]
    h = best[:rows].copy()
    beta = np.zeros(h.shape)
    h[tier, node] += slope[tier, node] * (weight * survival).sum(axis=1)
    beta[tier, node] = 6.0 * slope[tier, node] * (weight * survival * (1.0 - survival)).sum(axis=1)
    starts = np.cumsum([0] + [n + 1 for n in counts[:-1]])
    out = ControlTable(np.array(edges[1:-1]), np.array(edges[:-1]), np.array(counts) / np.diff(edges), starts, h,
                       beta, *(np.empty(0),) * 3)
    # the class edges inside the band, and the step of the mean score across each
    class_edges = np.array([e for e in BAND_EDGES[1:-1] if band[0] < e < band[1]])
    below, above = (_mean_score(x, density, k, params, out) for x in (np.nextafter(class_edges, 0.0), class_edges))
    out = out._replace(edges=class_edges, edge_u=_band_uniform(class_edges, band, density, k), jump=above - below)
    for array in out:
        array.flags.writeable = False
    return out


def _mean_score(r, density, k, params, table):
    """The proposed scheme's mean score at link lengths r, as its control's centre has it: m(r) of `monte_carlo._control` for class C and D, rate x Ps(r) below."""
    direct = np.take(BAND_RATES, hop_band(r)) * p_success_direct(r, params)
    helped = r >= BAND_55
    if np.any(helped):
        x = r[helped]
        empty = tier_void_law(tier_areas(x), x, density, k)
        centre = np.take(table.h, table_nodes(table, x), axis=1)
        m = empty[-1] * direct[helped]
        for p, row in zip(empty[:-1] - empty[1:], centre):
            m += p * row
        direct[helped] = m
    return direct


def _band_uniform(r, band, density, k):
    """The uniform u that `monte_carlo._link_distance` maps to each link length r of the band."""
    a, b = band
    if k is None:
        return (r * r - a * a) / (b * b - a * a)
    lo, hi, _ = nn_distance_band(a, b, density, k)
    x = density * np.pi * r * r
    return ((gammaincc if hi < lo else gammainc)(k, x) - lo) / (hi - lo)


def table_nodes(table, r):
    """The index of each link's nearest node on the grid of `control_table`."""
    seg = np.searchsorted(table.splits, r, side="right") if table.splits.size else 0
    x = r - table.start[seg]
    x *= table.scale[seg]
    j = np.rint(x, out=x).astype(np.intp)
    j += table.offset[seg]
    return j
