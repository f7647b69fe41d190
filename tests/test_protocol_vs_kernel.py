"""The object-level protocol path against the vectorized point-classification kernel.

The k-nearest branch of the oracle in `box_ppp_oracle.py` places each link's
k-1 nearer neighbors in the disk of radius r and picks the helper for every
link at once.  The same disk points are replayed here, and each link goes
through `enumerate_candidates` -> `select_helper_proposed` ->
`run_exchange` on its own.  The proposed pick must agree
exactly (tier, rate and G); the conventional pick must be one of the link's
candidates.
"""

import numpy as np
import pytest

from box_ppp_oracle import _helper_points, _select_helpers
from coopmac.channel_model import ChannelParams, p_success_direct
from coopmac.stochastic_geometry import BAND_RATES, TIER_RATES, check_band, hop_band
from protocol_oracle import NetworkRealization, enumerate_candidates, run_exchange, select_helper_proposed

PARAMS = ChannelParams()
N_LINKS = 300


def _links(link_class, seed):
    lo, hi = check_band(link_class, ("C", "D"))
    return np.random.default_rng(1000 + seed).uniform(lo, hi, N_LINKS)


def _kernel_picks(r, k, seed, scheme):
    """The kernel's pick of each link from rng(seed), and each link's disk points."""
    rng = np.random.default_rng(seed)
    tid, x, y = _helper_points(rng, r, None, k)
    links, tiers, gs = _select_helpers(rng, r, tid, x, y, scheme, PARAMS)
    picked = {int(j): (int(t), float(g)) for j, t, g in zip(links, tiers, gs)}
    xy = np.column_stack((x, y))
    return picked, [xy[tid == j] for j in range(r.size)]


def _candidates(points, r_j):
    realization = NetworkRealization(density=1.0, window=(-r_j, -r_j, r_j, r_j), nodes=points)
    return enumerate_candidates(realization, (0.0, 0.0), (r_j, 0.0), PARAMS)


@pytest.mark.parametrize("k", [3, 10])
@pytest.mark.parametrize("link_class", ["C", "D"])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_proposed_protocol_path_matches_kernel(link_class, k, seed):
    r = _links(link_class, seed)
    picked, points_of = _kernel_picks(r, k, seed, "proposed")
    cooperative = 0
    for j, points in enumerate(points_of):
        out = run_exchange(select_helper_proposed(_candidates(points, r[j])), r[j], PARAMS)
        if j in picked:
            tier, g = picked[j]
            cooperative += 1
            assert out.mode == "cooperative"
            assert out.helper.tier == tier
            assert out.rate == TIER_RATES[tier - 1]
            assert out.success_prob == g
        else:
            assert out.mode == "direct"
            assert out.rate == BAND_RATES[hop_band(r[j])]
            assert out.success_prob == float(p_success_direct(r[j], PARAMS))
    # both outcomes occur, so neither branch above is vacuous
    assert 0 < cooperative < N_LINKS


@pytest.mark.parametrize("k", [3, 10])
@pytest.mark.parametrize("link_class", ["C", "D"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_conventional_kernel_pick_is_a_candidate(link_class, k, seed):
    r = _links(link_class, seed)
    picked, points_of = _kernel_picks(r, k, seed, "conventional")
    for j, points in enumerate(points_of):
        candidates = {(c.tier, c.g_score) for c in _candidates(points, r[j])}
        if j in picked:
            assert picked[j] in candidates
        else:
            assert not candidates
