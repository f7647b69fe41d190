"""Both schemes' within-tier controls, recomputed from their closed forms: test references.

A proposed link that chose tier i with helpers has the control
c = h_i(r) + beta_i(r) (U - 1/2), where h and beta are read from a table at
the link's nearest node and U = F(q_min) is the law of the least
d_SH^2 + d_HD^2 of the tier's helpers at its drawn value.  `nearest_node`
finds the node from the table's grid alone (`node_lengths`), and `uniform`
writes F in its plain exponential and power forms, with the tier's load
taken from the tier areas and the conditioning, not from the chunk's tier
choice.  Only the area of the region within reach of the S-D midpoint comes
from the package (`stochastic_geometry.tier_area_within`), which
`tests/moment_oracle.py` checks.  A conventional link whose helper was
placed adds b (q - Qbar) + g (y^2 - Ybar^2) to its region's centre, about
the exact means of `region_means`, written here from the region moments of
`stochastic_geometry.tier_areas`, which `tests/moment_oracle.py` checks too.
"""

from __future__ import annotations

import numpy as np

from coopmac.stochastic_geometry import cumulative_areas, tier_area_within, tier_areas

# each tier's worst position, both hops at the outer edges of its bands, by hand
_WORST_HOPS = ((48.2, 48.2), (48.2, 67.1), (67.1, 67.1), (48.2, 74.7), (67.1, 74.7))


def node_lengths(table):
    """The link length of every node of a control table."""
    bounds = list(table.offset) + [table.h.shape[1]]
    return np.concatenate([start + np.arange(stop - first) / scale
                           for start, scale, first, stop in zip(table.start, table.scale, bounds[:-1], bounds[1:])])


def region_means(r, tier):
    """(Qbar, Ybar^2) of links of lengths r over their regions `tier`: the means of d_SH^2 + d_HD^2 and of y^2.

    Qbar = 2 J / S + r^2 / 2 and Ybar^2 = I / S from the regions' area S
    and moments J and I about the S-D midpoint and line, clipped into the
    region's range of q, [q_best, q_worst] written out by hand, and into
    [0, (Qbar - r^2 / 2) / 2].
    """
    areas, j, i = (x[tier - 1, np.arange(r.size)] for x in tier_areas(r, moments=True))
    half = r * r / 2
    best = np.choose(tier - 1, [half, 48.2 ** 2 + (r - 48.2) ** 2, np.where(r <= 96.4, 2 * 48.2 ** 2, half),
                                67.1 ** 2 + (r - 67.1) ** 2, np.full(r.shape, 48.2 ** 2 + 67.1 ** 2)])
    worst = np.array([a * a + b * b for a, b in _WORST_HOPS])[tier - 1]
    mean_q = np.clip(2 * j / areas + half, best, worst)
    return mean_q, np.clip(i / areas, 0.0, (mean_q - half) / 2)


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
