"""The Monte Carlo without its control variate, and with simpler ones: test oracles.

`plain_chunk` is `monte_carlo._chunk_throughput` with each trial scored as
the rate times G of its helper, or times Ps(r) for a direct link (one
Bernoulli draw of it in sampled mode, against the same stratified v), and
no control subtracted or added.  `lower_control_chunk` centres the control
on the lower end of each choice's bracket instead of its midpoint: c is the
chosen tier's rate times G at its worst position (`worst_tier_g`), and m(r)
its mean under the choice law, which for the proposed scheme is the link's
lower bound.  `midpoint_control_chunk` keeps the midpoint of each choice's
bracket alone: the package's control without its within-tier term, the
conventional scheme's b (q - Qbar) in the helper's d_SH^2 + d_HD^2 and the
proposed scheme's centre h and phi(U), the secant model at the quantile of
the best helper's q_min, in place of the midpoint.
In analytic mode both draw from a chunk's stream exactly as the package
does, so on one seed they see the same links and helpers.  In sampled mode
they place the helpers of every link, then draw v and score
rate x 1{v < G}.  The package draws v first, scores a link with a
helper as its chosen tier's sure share rate x G_worst plus a Bernoulli
draw above it, and places only the links whose outcome its squeeze
(`monte_carlo._squeeze`) leaves open: the same mean from another stream,
and so an independent check of both.
`plain_estimate` runs `estimate_throughput` with one of them in place of
the package's chunk, and `cell_seeds` gives a z-test cell two base seeds of
its own, so that the cells of a grid draw independent streams.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from coopmac import monte_carlo
from coopmac.channel_model import p_success_direct, tier_bracket, worst_tier_g
from coopmac.stochastic_geometry import BAND_55, BAND_RATES, REGIMES, TIER_RATES, hop_band


def _lower_control(choice, direct, params, r):
    """(c, m) of the control on each choice's lower-bound term."""
    terms = worst_tier_g(params)[1]
    c = direct.copy()
    c[choice.has] = terms[choice.tier - 1]
    return c, np.dot(terms, choice.law) + choice.void * direct


def _midpoint_control(choice, direct, params, r):
    """(c, m) of the control on each choice's bracket midpoint, rate x (G_worst + G_best(r)) / 2."""
    worst, best = tier_bracket("D", r, params)
    # a class C link's tiers 4 and 5 have law 0, and finite midpoints
    mid = (best + worst[:, None]) / 2
    c = direct.copy()
    c[choice.has] = mid[choice.tier - 1, choice.has]
    return c, np.sum(choice.law * mid, axis=0) + choice.void * direct


def _chunk(regime, density, scheme, n, params, estimator_mode, k, rng, control=None):
    """n trial scores of one chunk, every helper placed, with `control` or none."""
    columns = monte_carlo._grid_columns(n, estimator_mode)
    r = monte_carlo._draw_link_distance(rng, n, REGIMES[regime][:2], density, k, columns)
    rate = np.take(BAND_RATES, hop_band(r))
    success_p = p_success_direct(r, params)
    elig = np.flatnonzero(r >= BAND_55)
    helped = elig.size > 0 and k != 1
    if helped:
        choice = monte_carlo._tier_choice(rng, r[elig], density, k, scheme)
        g = monte_carlo._best_g(rng, r[elig], choice, k, params)[0]
        if control:
            c, m = control(choice, (rate * success_p)[elig], params, r[elig])
        rate[elig[choice.has]] = np.take(TIER_RATES, choice.tier - 1)
        success_p[elig[choice.has]] = g
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


def midpoint_control_chunk(regime, density, scheme, n, params, estimator_mode, k, rng):
    """n trial scores of one chunk with the control on each choice's bracket midpoint alone."""
    return _chunk(regime, density, scheme, n, params, estimator_mode, k, rng, _midpoint_control)


def plain_estimate(config, chunk=plain_chunk):
    """`estimate_throughput(config)` with every chunk scored by `chunk`."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(monte_carlo, "_chunk_throughput", chunk)
        return monte_carlo.estimate_throughput(config)


def cell_seeds(*cell):
    """Two base seeds of a test cell, from a digest of its parameters: one for the package, one for the oracle."""
    digest = hashlib.sha256(repr(cell).encode()).digest()
    return int.from_bytes(digest[:4], "little"), int.from_bytes(digest[4:8], "little")
