"""The Monte Carlo without its control variate, and with the lower-bound one: test oracles.

`plain_chunk` is `monte_carlo._chunk_throughput` with each trial scored as
the rate times G of its helper, or times Ps(r) for a direct link (one
Bernoulli draw of it in sampled mode, against the same stratified v), and
no control subtracted or added.  `lower_control_chunk` centres the control
on the lower end of each choice's bracket instead of its midpoint: c is the
chosen tier's rate times G at its worst position (`worst_tier_g`), and m(r)
its mean under the choice law, which for the proposed scheme is the link's
lower bound.
Both draw from a chunk's stream exactly as the package does, so on one seed
they see the same links, helpers and draws.  `plain_estimate` runs
`estimate_throughput` with one of them in place of the package's chunk.
"""

from __future__ import annotations

import numpy as np
import pytest

from coopmac import monte_carlo
from coopmac.channel_model import p_success_direct, worst_tier_g
from coopmac.stochastic_geometry import BAND_55, BAND_RATES, REGIMES, TIER_RATES, hop_band


def _lower_control(has, tier, law, void, direct, params):
    """(c, m) of the control on each choice's lower-bound term."""
    terms = worst_tier_g(params)[1]
    c = direct.copy()
    c[has] = terms[tier - 1]
    return c, np.dot(terms, law) + void * direct


def _chunk(regime, density, scheme, n, params, estimator_mode, k, rng, control=None):
    """n trial scores of one chunk, drawn from `rng` as `_chunk_throughput` draws them, with `control` or none."""
    columns = monte_carlo._grid_columns(n, estimator_mode)
    r = monte_carlo._draw_link_distance(rng, n, REGIMES[regime][:2], density, k, columns)
    rate = np.take(BAND_RATES, hop_band(r))
    success_p = p_success_direct(r, params)
    elig = np.flatnonzero(r >= BAND_55)
    helped = elig.size > 0 and k != 1
    if helped:
        has, tier, g, law, void = monte_carlo._tier_first_helpers(rng, r[elig], density, k, scheme, params)
        if control:
            c, m = control(has, tier, law, void, (rate * success_p)[elig], params)
        rate[elig[has]] = np.take(TIER_RATES, tier - 1)
        success_p[elig[has]] = g
    if estimator_mode == "sampled":
        t = rate * (monte_carlo._stratified_columns(rng, n, columns) < success_p)
    else:
        t = rate * success_p
    if helped and control:
        t[elig] = (t[elig] - c) + m
    return t


def plain_chunk(regime, density, scheme, n, params, estimator_mode, k, rng):
    """n plain trial scores of one chunk."""
    return _chunk(regime, density, scheme, n, params, estimator_mode, k, rng)


def lower_control_chunk(regime, density, scheme, n, params, estimator_mode, k, rng):
    """n trial scores of one chunk with the control on each choice's lower-bound term."""
    return _chunk(regime, density, scheme, n, params, estimator_mode, k, rng, _lower_control)


def plain_estimate(config, chunk=plain_chunk):
    """`estimate_throughput(config)` with every chunk scored by `chunk`."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(monte_carlo, "_chunk_throughput", chunk)
        return monte_carlo.estimate_throughput(config)
