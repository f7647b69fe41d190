"""The object-level oracle of helper selection: one sampled network, node by node.

A link is classed A/B/C/D by its length, with direct rates 11/5.5/2/1
Mbps.  For the slow classes (C and D) a helper relays the frame over two
faster hops, at its tier's cooperative rate (`stochastic_geometry.TIER_RATES`,
the table the simulator and the bounds read too).

The proposed selection scheme tries helpers tier by tier (ascending tier
index) and inside each tier in order of decreasing joint success
probability; the conventional baseline picks uniformly at random among all
beneficial helpers.  `run_exchange` scores the first helper of an order
as rate x success probability, the metric of the simulator's analytic
mode.  The nodes come from `sample_ppp`, a PPP on a rectangle, or from any
point set wrapped in a `NetworkRealization`; `shadowing_sample` draws the
received power of a hop, whose threshold crossing `p_success_direct` gives
in closed form.

This module is an oracle of the vectorized simulator in `monte_carlo`,
which does the same selection as a tier-first draw and a max-G reduction.
It is kept independent of it: it reads only the public names of
`channel_model` and `stochastic_geometry` (`tests/test_layers.py` checks
this), and no module of the package imports it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from coopmac.channel_model import ChannelParams, g_joint, p_success_direct
from coopmac.stochastic_geometry import (
    BAND_RATES,
    CLASS_NAMES,
    CLASS_TIERS,
    MAX_RANGE,
    TIER_RATES,
    check_conditioning,
    hop_band,
    tier_index,
)


# ------------------------------------------------------------------ the network

@dataclass(frozen=True)
class NetworkRealization:
    """One sampled PPP: density, observation window, node coordinates.

    `window` is (xmin, ymin, xmax, ymax) in meters; `nodes` is an (n, 2)
    float array.  Immutable after construction.
    """

    density: float
    window: tuple
    nodes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=float).reshape(-1, 2))
        self.nodes.setflags(write=False)


def sample_ppp(density: float, window, seed) -> NetworkRealization:
    """Sample a homogeneous PPP of the given density on a rectangle.

    Parameters
    ----------
    density : nodes per square meter (> 0)
    window : (xmin, ymin, xmax, ymax) in meters
    seed : int or numpy Generator

    The node count is Poisson(density * area) and positions are i.i.d.
    uniform; the draw is deterministic for a fixed integer seed.
    """
    check_conditioning(density)
    xmin, ymin, xmax, ymax = map(float, window)
    if not (xmax > xmin and ymax > ymin):
        raise ValueError("window must be a non-degenerate rectangle")
    rng = np.random.default_rng(seed)
    area = (xmax - xmin) * (ymax - ymin)
    n = rng.poisson(density * area)
    xy = np.column_stack(
        (rng.uniform(xmin, xmax, n), rng.uniform(ymin, ymax, n))
    )
    return NetworkRealization(density=density, window=(xmin, ymin, xmax, ymax), nodes=xy)


def classify_helper_tier(d_sh: float, d_hd: float, link_class: str) -> Optional[int]:
    """Tier of a helper with hop distances (d_sh, d_hd), or None.

    Distance bands are half-open ([0,48.2), [48.2,67.1), [67.1,74.7)), so a
    hop of exactly 48.2 m falls in the 5.5 Mbps band.
    """
    if not (d_sh >= 0 and d_hd >= 0):  # NaN hops fail too
        raise ValueError("hop distances must be non-negative")
    t = int(tier_index(d_sh, d_hd, link_class))
    return t if t else None


# ------------------------------------------------------------------ the channel

def mean_rx_power(distance, params: ChannelParams):
    """Deterministic part of the received power (dBm) at `distance` m."""
    return params.pt + params.k_const - 10.0 * params.alpha * np.log10(distance)


def shadowing_sample(distance, params: ChannelParams, rng, size=None):
    """Draw received power(s) in dBm for a hop of length `distance`.

    Path-loss mean plus a fresh zero-mean Gaussian of std sigma_sh per
    draw.  `rng` is a numpy Generator; `size` follows numpy conventions.
    """
    d = np.asarray(distance, dtype=float)
    if not np.all(d > 0):  # a NaN distance fails too
        raise ValueError("distance must be positive")
    mean = mean_rx_power(d, params)
    return mean + rng.normal(0.0, params.sigma_sh, size=size if size is not None else np.shape(mean) or None)


# ----------------------------------------------------------------- the protocol

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
