"""Both schemes' within-tier controls, recomputed from their closed forms: test references.

A proposed link that chose tier i with helpers has the control
c = h_i(r) + phi_i(r; U), where h is read from a table at the link's nearest
node, phi from the same node's row of values at the knots
u_j = 1 - (1 - j / 32)^2 (`KNOTS`), linearly in U between them (`term`), and
U = F(q_min) is the law of the least d_SH^2 + d_HD^2 of the tier's helpers
at its drawn value.  h + phi is the mean of rate x max G given q_min, which
at density 0 is the mean of rate x G over the tier's arc through the
least-q helper (`arc_mean_g`, by quad over the arc's angle).
`nearest_node` finds the node from the table's grid alone (`node_lengths`),
and `uniform` writes F in its plain exponential and power forms, with the
tier's load taken from the tier areas and the conditioning, not from the
chunk's tier choice.  Only the area of the region within reach of the S-D
midpoint comes from the package (`stochastic_geometry.tier_area_within`),
which `tests/moment_oracle.py` checks.  A conventional link whose helper was placed adds
b (q - Qbar) + g (y^2 - Ybar^2) to its region's centre in sampled mode, about
the exact means of `region_means`, written here from the region moments of
`stochastic_geometry.tier_areas`, which `tests/moment_oracle.py` checks too;
in analytic mode it adds a quadratic in (q - Qbar, y^2 - Ybar^2) whose
square and product terms are centred on the region's exact covariances
(`region_covariances`).
In sampled mode both add beta (rate - lo) (1{x < min(psi, cap)} - hit) at
every link with a helper (`indicator`), psi = h + phi(U) where its helpers
were placed; the conventional scheme's psi and U are those of one helper
uniform in the region (`region_uniform`).
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad

from coopmac.channel_model import g_joint
from coopmac.stochastic_geometry import cumulative_areas, tier_area_within, tier_areas, tier_moments

# each tier's worst position, both hops at the outer edges of its bands, by hand
_WORST_HOPS = ((48.2, 48.2), (48.2, 67.1), (67.1, 67.1), (48.2, 74.7), (67.1, 74.7))
# each tier's hop bands, by hand: d_SH in the higher one, d_HD in the lower
_HOP_BOXES = (((0, 48.2), (0, 48.2)), ((48.2, 67.1), (0, 48.2)), ((48.2, 67.1), (48.2, 67.1)),
              ((67.1, 74.7), (0, 48.2)), ((67.1, 74.7), (48.2, 67.1)))
# the knots in U of the proposed control's table
KNOTS = 1.0 - (1.0 - np.arange(33) / 32) ** 2
# sampled mode's indicator coefficient of tiers 1-5, both schemes
BETA = np.array([0.5, 0.55, 0.6, 0.3, 0.4])


def node_lengths(table):
    """The link length of every node of a control table."""
    bounds = list(table.offset) + [table.h.shape[1]]
    return np.concatenate([start + np.arange(stop - first) / scale
                           for start, scale, first, stop in zip(table.start, table.scale, bounds[:-1], bounds[1:])])


def q_range(r, tier):
    """(q_best, q_worst): the least and largest d_SH^2 + d_HD^2 over the regions `tier` of links of lengths r, by hand."""
    half = r * r / 2
    best = np.choose(tier - 1, [half, 48.2 ** 2 + (r - 48.2) ** 2, np.where(r <= 96.4, 2 * 48.2 ** 2, half),
                                67.1 ** 2 + (r - 67.1) ** 2, np.full(r.shape, 48.2 ** 2 + 67.1 ** 2)])
    return best, np.array([a * a + b * b for a, b in _WORST_HOPS])[tier - 1]


def region_means(r, tier):
    """(Qbar, Ybar^2) of links of lengths r over their regions `tier`: the means of d_SH^2 + d_HD^2 and of y^2.

    Qbar = 2 J / S + r^2 / 2 and Ybar^2 = I / S from the regions' area S
    and moments J and I about the S-D midpoint and line, clipped into the
    region's range of q, [q_best, q_worst] (`q_range`), and into
    [0, (Qbar - r^2 / 2) / 2].
    """
    areas = tier_areas(r)[tier - 1, np.arange(r.size)]
    j, i = tier_moments(r, tier)[:2]
    half = r * r / 2
    mean_q = np.clip(2 * j / areas + half, *q_range(r, tier))
    return mean_q, np.clip(i / areas, 0.0, (mean_q - half) / 2)


def region_covariances(r, tier):
    """(V_qq, V_qy, V_yy): the variances of d_SH^2 + d_HD^2 and of y^2 over the regions `tier` of links of lengths r, and their covariance.

    With rho = |H - M|, q = 2 rho^2 + r^2 / 2, so V_qq = 4 var(rho^2) and
    V_qy = 2 cov(rho^2, y^2), written from the regions' area S
    (`stochastic_geometry.tier_areas`), moments J and I and fourth moments
    P, Q and Y (`stochastic_geometry.tier_moments`), which
    `tests/moment_oracle.py` checks.
    """
    areas = tier_areas(r)[tier - 1, np.arange(r.size)]
    rho2, y2, p4, p2y2, y4 = tier_moments(r, tier) / areas
    return 4 * (p4 - rho2 ** 2), 2 * (p2y2 - rho2 * y2), y4 - y2 ** 2


def nearest_node(table, r):
    """Index of the node of `table`'s grid nearest to each link length r, found by search over the segment's nodes."""
    bounds = list(table.offset) + [table.h.shape[1]]
    out = np.empty(r.size, dtype=int)
    segment = np.searchsorted(table.splits, r, side="right")
    for i, (first, stop) in enumerate(zip(bounds[:-1], bounds[1:])):
        nodes = table.start[i] + np.arange(stop - first) / table.scale[i]
        mine = segment == i
        out[mine] = first + np.abs(r[mine, None] - nodes).argmin(axis=1)
    return out


def uniform(r, tier, q, density, k):
    """F(q): the probability that the least d_SH^2 + d_HD^2 of a tier's helpers lies below q, given one.

    A helper uniform in tier i's region of area S lies below q with the
    probability f = B_i(q) / S, B_i the region's area within
    t = sqrt((q - r^2 / 2) / 2) of the S-D midpoint.  Under the PPP the
    count is Poisson(lambda S) given >= 1; with k - 1 nearer nodes, each in
    the tier with p = S / (pi r^2 - S_1 - ... - S_(i-1)), it is
    Binomial(k - 1, p) given >= 1.
    """
    areas = tier_areas(r)
    links = np.arange(r.size)
    area = areas[tier - 1, links]
    t = np.sqrt(np.maximum(q - r * r / 2, 0.0) / 2)
    f = np.clip(tier_area_within(r, tier, t) / area, 0.0, 1.0)
    if k is None:
        mu = density * area
        return (1 - np.exp(-mu * f)) / (1 - np.exp(-mu))
    inner = cumulative_areas(areas)[tier - 1, links] - area
    p = area / (np.pi * r * r - inner)
    return (1 - (1 - p * f) ** (k - 1)) / (1 - (1 - p) ** (k - 1))


def _arc_angles(r, tier, t):
    """(w1, w2): the angles from the S-D axis that bound a link's tier region on the circle |H - M| = t.

    On that circle d_SH^2 = t^2 + r^2 / 4 + t r cos w and
    d_HD^2 = t^2 + r^2 / 4 - t r cos w, so the hop bands (`_HOP_BOXES`)
    bound cos w.
    """
    (a, b), (c, d) = _HOP_BOXES[tier - 1]
    base, cross = t ** 2 + r ** 2 / 4, t * r
    lo = max(-1.0, (a * a - base) / cross, (base - d * d) / cross)
    hi = min(1.0, (b * b - base) / cross, (base - c * c) / cross)
    return np.arccos(hi), np.arccos(lo)


def arc_mean_y2(r, tier, t):
    """The mean of y^2 = t^2 sin^2 w over the arc of the circle |H - M| = t that lies in each link's tier region.

    With F(w) = w / 2 - sin(2 w) / 4 the mean over the arc's angles
    [w1, w2] (`_arc_angles`) is t^2 (F(w2) - F(w1)) / (w2 - w1).
    """
    out = np.empty(r.size)
    for n, (length, i, radius) in enumerate(zip(r, tier, t)):
        w1, w2 = _arc_angles(length, i, radius)
        area = lambda w: w / 2 - np.sin(2 * w) / 4  # noqa: E731
        out[n] = radius ** 2 * ((area(w2) - area(w1)) / (w2 - w1) if w2 > w1 else np.sin(w1) ** 2)
    return out


def arc_mean_g(r, tier, t, params):
    """The mean of the tier's rate x G over the arc of the circle |H - M| = t that lies in a link's tier region, by quad over the angle."""
    w1, w2 = _arc_angles(r, tier, t)
    base, cross = t ** 2 + r ** 2 / 4, t * r

    def g(w):
        return g_joint(np.sqrt(base + cross * np.cos(w)), np.sqrt(base - cross * np.cos(w)), params)

    return RATES[tier - 1] * quad(g, w1, w2, epsabs=0.0, epsrel=1e-12, limit=200)[0] / (w2 - w1)


def term(table, tier, node, u):
    """phi at U = u of each link's (tier, node) row of a proposed control table, linear in U between the `KNOTS`."""
    return np.array([np.interp(x, KNOTS, table.within[t - 1, j]) for t, j, x in zip(tier, node, u)])



def region_uniform(r, tier, q):
    """U = B(q) / S: the share of each link's region `tier` where d_SH^2 + d_HD^2 lies below q."""
    area = tier_areas(r)[tier - 1, np.arange(r.size)]
    t = np.sqrt(np.maximum(q - r * r / 2, 0.0) / 2)
    return np.clip(tier_area_within(r, tier, t) / area, 0.0, 1.0)


def indicator(table, tier, node, x, span, placed, psi):
    """beta span (1{x < min(psi, cap)} - hit) of links of (tier, node) rows of a proposed-form table.

    psi is given at the links `placed`; every other link's indicator is 0.
    """
    at = tier - 1, node
    hit = np.zeros(tier.size)
    hit[placed] = x[placed] < np.minimum(psi, table.cap[at][placed])
    return BETA[tier - 1] * span * (hit - table.hit[at])


# each tier's cooperative rate, its hops' rates a and b sharing the airtime: a b / (a + b), by hand
RATES = np.array([11 * 11 / 22, 11 * 5.5 / 16.5, 5.5 * 5.5 / 11, 11 * 2 / 13, 5.5 * 2 / 7.5])


def sure_share(params):
    """Each tier's rate times G at its worst position, the sure share lo of sampled mode, from the worst hops by hand."""
    d_sh, d_hd = np.transpose(_WORST_HOPS)
    return RATES * g_joint(d_sh, d_hd, params)
