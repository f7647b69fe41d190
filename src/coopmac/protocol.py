"""Link classification, helper selection, and the score of one exchange.

A link is classed A/B/C/D by its length, with direct rates 11/5.5/2/1
Mbps.  For the slow classes (C and D) a helper relays the frame over two
faster hops, at its tier's cooperative rate (`stochastic_geometry.TIER_RATES`,
the table the simulator and the bounds read too).

The proposed selection scheme tries helpers tier by tier (ascending tier
index) and inside each tier in order of decreasing joint success
probability; the conventional baseline picks uniformly at random among all
beneficial helpers.  `run_exchange` scores the first helper of an order
as rate x success probability, the metric of the simulator's analytic
mode; it is the object-level oracle of the vectorized kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .channel_model import ChannelParams, g_joint, p_success_direct
from .stochastic_geometry import (
    BAND_RATES,
    CLASS_NAMES,
    CLASS_TIERS,
    MAX_RANGE,
    TIER_RATES,
    NetworkRealization,
    hop_band,
    tier_index,
)


@dataclass(frozen=True)
class LinkClass:
    label: str
    rate: float  # direct transmission rate, Mbps


LINK_CLASSES = tuple(LinkClass(label, rate) for label, rate in zip(CLASS_NAMES, BAND_RATES))


def classify_link(distance: float) -> LinkClass:
    """Map an S-D distance to its link class (A/B/C/D).

    Bands are half-open except the last, which includes the 100 m maximum
    effective range; anything beyond raises.
    """
    if not distance >= 0:  # a NaN distance fails too
        raise ValueError("distance must be non-negative, got %r" % (distance,))
    if distance > MAX_RANGE:
        raise ValueError("distance %r exceeds the 100 m maximum transmission range" % (distance,))
    return LINK_CLASSES[int(hop_band(distance))]


@dataclass(frozen=True)
class HelperCandidate:
    """A beneficial helper: position, hop distances, tier, joint success."""

    position: tuple
    d_sh: float
    d_hd: float
    tier: int
    g_score: float
    index: int = 0  # node index in the realization; deterministic tie-break


@dataclass(frozen=True)
class SelectionOutcome:
    """Result of one medium-access exchange.

    mode is 'cooperative' or 'direct'; `rate` is the effective
    transmission rate (tier rate or direct rate) and `success_prob` the
    probability that the data frame gets through (G of the helper, or
    Ps of the S-D hop).
    """

    mode: str
    helper: Optional[HelperCandidate]
    rate: float
    success_prob: float


def enumerate_candidates(
    realization: NetworkRealization,
    source,
    dest,
    params: ChannelParams = ChannelParams(),
) -> List[HelperCandidate]:
    """All nodes whose hop distances land in a helper tier of the link.

    Links of class A or B gain nothing from relaying and return an empty
    list.  Each candidate carries its tier and g_score = joint two-hop
    success probability.
    """
    sx, sy = float(source[0]), float(source[1])
    dx, dy = float(dest[0]), float(dest[1])
    link = classify_link(float(np.hypot(dx - sx, dy - sy)))
    if link.label not in CLASS_TIERS:
        return []
    nodes = realization.nodes
    d_sh = np.hypot(nodes[:, 0] - sx, nodes[:, 1] - sy)
    d_hd = np.hypot(nodes[:, 0] - dx, nodes[:, 1] - dy)
    tiers = tier_index(d_sh, d_hd, link.label)
    idx = np.flatnonzero(tiers)
    if idx.size == 0:
        return []
    g = g_joint(d_sh[idx], d_hd[idx], params)
    return [
        HelperCandidate(
            position=(nodes[i, 0], nodes[i, 1]),
            d_sh=float(d_sh[i]),
            d_hd=float(d_hd[i]),
            tier=int(tiers[i]),
            g_score=float(gi),
            index=int(i),
        )
        for i, gi in zip(idx, g)
    ]


def select_helper_proposed(candidates: Sequence[HelperCandidate]) -> List[HelperCandidate]:
    """Tier-priority attempt order: ascending tier, descending g_score.

    This is the exact order in which the proposed scheme polls helpers:
    tier 1 is exhausted before tier 2, and within a tier the helper with
    the largest joint success probability goes first.  Ties break on
    smaller d_sh, then node index, for reproducibility.
    """
    return sorted(candidates, key=lambda c: (c.tier, -c.g_score, c.d_sh, c.index))


def select_helper_conventional(candidates: Sequence[HelperCandidate], rng) -> List[HelperCandidate]:
    """Baseline order: uniformly random permutation, position-blind."""
    candidates = list(candidates)
    order = rng.permutation(len(candidates))
    return [candidates[i] for i in order]


def run_exchange(
    order: Sequence[HelperCandidate],
    d_sd: float,
    params: ChannelParams = ChannelParams(),
) -> SelectionOutcome:
    """Score one exchange given a helper attempt order.

    The first helper in the order is selected; the outcome carries its tier
    rate and g_score as the success probability (rate x success_prob is the
    expected throughput).  With an empty order the link falls back to
    direct transmission at the Table-1 class rate and success probability
    Ps(d_sd).
    """
    direct = classify_link(d_sd)
    if order:
        c = order[0]
        return SelectionOutcome("cooperative", c, TIER_RATES[c.tier - 1], c.g_score)
    return SelectionOutcome("direct", None, direct.rate, float(p_success_direct(d_sd, params)))
