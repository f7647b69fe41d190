"""The Monte Carlo without its control variate: plain trial scores, as a test oracle.

`plain_chunk` is `monte_carlo._chunk_throughput` with each trial scored as
the rate times G of its helper, or times Ps(r) for a direct link (one
Bernoulli draw of it in sampled mode, against the same stratified v), and
no control subtracted or added.
It draws from a chunk's stream exactly as the package does, so on one seed
the two see the same links, helpers and draws.  `plain_estimate` runs
`estimate_throughput` with it in place of the package's chunk.
"""

from __future__ import annotations

import numpy as np
import pytest

from coopmac import monte_carlo
from coopmac.channel_model import p_success_direct
from coopmac.stochastic_geometry import BAND_55, BAND_RATES, REGIMES, TIER_RATES, hop_band


def plain_chunk(regime, density, scheme, n, params, estimator_mode, k, rng):
    """n plain trial scores of one chunk, drawn from `rng` as `_chunk_throughput` draws them."""
    columns = monte_carlo._grid_columns(n, estimator_mode)
    r = monte_carlo._draw_link_distance(rng, n, REGIMES[regime][:2], density, k, columns)
    rate = np.take(BAND_RATES, hop_band(r))
    success_p = p_success_direct(r, params)
    elig = np.flatnonzero(r >= BAND_55)
    if elig.size and k != 1:
        has, tier, g, _, _ = monte_carlo._tier_first_helpers(rng, r[elig], density, k, scheme, params)
        rate[elig[has]] = np.take(TIER_RATES, tier - 1)
        success_p[elig[has]] = g
    if estimator_mode == "sampled":
        return rate * (monte_carlo._stratified_columns(rng, n, columns) < success_p)
    return rate * success_p


def plain_estimate(config):
    """`estimate_throughput(config)` with every chunk scored by `plain_chunk`."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(monte_carlo, "_chunk_throughput", plain_chunk)
        return monte_carlo.estimate_throughput(config)
