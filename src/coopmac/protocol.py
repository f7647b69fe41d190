"""Link classification, cooperative rates, and helper selection.

A link is classed A/B/C/D by its length, with direct rates 11/5.5/2/1
Mbps.  For the slow classes (C and D) a helper relays the frame over two
faster hops; the effective cooperative rate of a (r_SH, r_HD) hop-rate
pair is the harmonic combination r_SH*r_HD/(r_SH+r_HD), since the two
transmissions share the airtime.

The proposed selection scheme tries helpers tier by tier (ascending tier
index) and inside each tier in order of decreasing joint success
probability; the conventional baseline picks uniformly at random among all
beneficial helpers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .channel_model import ChannelParams, g_joint, p_success_direct, shadowing_sample
from .stochastic_geometry import (
    BAND_RATES,
    CLASS_NAMES,
    CLASS_TIERS,
    MAX_RANGE,
    TIER_BANDS,
    TIER_RATES as _TIER_RATES,
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
    if distance < 0:
        raise ValueError("distance must be non-negative")
    if distance > MAX_RANGE:
        raise ValueError("distance %r exceeds the 100 m maximum transmission range" % (distance,))
    return LINK_CLASSES[int(hop_band(distance))]


def coop_rate(r_sh: float, r_hd: float) -> float:
    """Effective rate of a two-hop relay path: r_sh*r_hd/(r_sh+r_hd)."""
    if r_sh <= 0 or r_hd <= 0:
        raise ValueError("hop rates must be positive")
    return r_sh * r_hd / (r_sh + r_hd)


@dataclass(frozen=True)
class TierSpec:
    """One helper tier: hop rates and cooperative rate."""

    link_class: str
    tier: int
    r_sh: float
    r_hd: float

    @property
    def coop_rate(self) -> float:
        return coop_rate(self.r_sh, self.r_hd)


TIER_SPECS = {
    link_class: tuple(
        TierSpec(link_class, t, BAND_RATES[i], BAND_RATES[j])
        for t, (i, j) in enumerate(TIER_BANDS[:n_tiers], 1)
    )
    for link_class, n_tiers in CLASS_TIERS.items()
}

# Cooperative rate by tier (shared by C and D tables), from the band table.
TIER_RATES = dict(enumerate(_TIER_RATES, 1))


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

    mode is 'cooperative', 'direct', or 'failed'; `rate` is the effective
    transmission rate (tier rate, direct rate, or 0); `success_prob` is
    filled in analytic mode only.
    """

    mode: str
    helper: Optional[HelperCandidate]
    rate: float
    attempts: int
    backoffs: int
    success_prob: Optional[float] = None


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


def _hop_succeeds(distance: float, params: ChannelParams, rng) -> bool:
    return bool(shadowing_sample(distance, params, rng) >= params.pth)


def run_exchange(
    order: Sequence[HelperCandidate],
    d_sd: float,
    params: ChannelParams = ChannelParams(),
    mode: str = "analytic",
    rng=None,
    max_backoffs: int = 3,
) -> SelectionOutcome:
    """Run one exchange given a helper attempt order.

    Analytic mode (default): the first helper in the order is selected;
    the outcome carries its tier rate and g_score as the success
    probability (rate x success_prob is the expected throughput).  With an
    empty order the link falls back to direct transmission at the Table-1
    class rate.

    Sampled mode walks the handshake with fresh shadowing draws: the
    CoopRTS/HTS poll visits each helper in order (one S-H draw each) and
    the first surviving helper carries the data phase, drawn on both of
    its hops; with no surviving helper the data goes direct over the S-D
    hop.  A failed data phase costs a backoff and restarts the poll, up to
    `max_backoffs` retries, after which the outcome is 'failed'.  Control
    frames (RTS/CTS/ACK) are assumed delivered - the throughput metric
    only scores the data transmission.
    """
    direct = classify_link(d_sd)
    if mode == "analytic":
        if order:
            c = order[0]
            return SelectionOutcome("cooperative", c, TIER_RATES[c.tier], 1, 0, c.g_score)
        return SelectionOutcome("direct", None, direct.rate, 1, 0, float(p_success_direct(d_sd, params)))
    if mode != "sampled":
        raise ValueError("mode must be 'analytic' or 'sampled', got %r" % (mode,))
    if rng is None:
        raise ValueError("sampled mode requires an rng")

    attempts = 0
    backoffs = 0
    while True:
        helper = None
        for c in order:
            attempts += 1  # CoopRTS
            if _hop_succeeds(c.d_sh, params, rng):
                helper = c
                break
        if helper is not None:
            if _hop_succeeds(helper.d_sh, params, rng) and _hop_succeeds(helper.d_hd, params, rng):
                return SelectionOutcome("cooperative", helper, TIER_RATES[helper.tier], attempts, backoffs)
        else:
            attempts += 1  # plain RTS
            if _hop_succeeds(d_sd, params, rng):
                return SelectionOutcome("direct", None, direct.rate, attempts, backoffs)
        if backoffs == max_backoffs:
            return SelectionOutcome("failed", None, 0.0, attempts, backoffs)
        backoffs += 1
