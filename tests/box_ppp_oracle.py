"""Reference sampler for the Monte Carlo: every point of the helper field + global lexsort.

This is the simulator's earlier sampling path, kept as a test oracle for the
tier-first sampler in `coopmac.monte_carlo`.  Under the PPP every trial fills
the bounding box of the two 74.7 m reach disks with a PPP; under k-nearest
conditioning it places the k-1 nearer neighbors uniformly in the disk of
radius r.  It classifies every point into its tier and selects the helper
with one lexsort over all points of the chunk.  It is exact but slow (cost
grows with the density or with k), and it draws a different rng stream, so
it is compared with the package in distribution, not bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from coopmac.channel_model import g_joint, p_success_direct
from coopmac.monte_carlo import _link_distance
from coopmac.stochastic_geometry import BAND_2, BAND_55, BAND_RATES, REGIMES, TIER_RATES, hop_band, tier_index

# helpers are only useful within 74.7 m of both endpoints
_HELPER_REACH = BAND_2


def _helper_points(rng, r_elig, density, k):
    """Candidate-helper positions for each eligible trial.

    PPP conditioning restricts the process to the bounding box of the two
    74.7 m reach disks (exact: a PPP restricted to a box is a PPP).
    k-nearest conditioning places the k-1 nearer neighbors uniformly in
    the disk of radius r around the source.
    """
    W = _HELPER_REACH
    if k is None:
        box_area = (r_elig + 2 * W) * (2 * W)
        counts = rng.poisson(density * box_area)
        tid = np.repeat(np.arange(r_elig.size), counts)
        total = int(counts.sum())
        x = rng.uniform(size=total) * (r_elig[tid] + 2 * W) - W
        y = (rng.uniform(size=total) * 2.0 - 1.0) * W
    else:
        counts = np.full(r_elig.size, k - 1)
        tid = np.repeat(np.arange(r_elig.size), counts)
        total = tid.size
        rad = r_elig[tid] * np.sqrt(rng.uniform(size=total))
        ang = rng.uniform(size=total) * 2.0 * np.pi
        x = rad * np.cos(ang)
        y = rad * np.sin(ang)
    return tid, x, y


def _select_helpers(rng, r_elig, tid, x, y, scheme, params):
    """Classify the points (x, y) of trials tid and pick each trial's helper.

    Returns (index into r_elig of the trials with a helper, its tier, its G).
    """
    d_sh = np.hypot(x, y)
    d_hd = np.hypot(x - r_elig[tid], y)
    tier = tier_index(d_sh, d_hd, "D")
    # Type-C links have no tier-4/5 rows
    tier[(r_elig[tid] < BAND_2) & (tier > 3)] = 0
    keep = tier > 0
    tid_k = tid[keep]
    tier_k = tier[keep]
    d_sh_k = d_sh[keep]
    g = g_joint(d_sh_k, d_hd[keep], params)
    if scheme == "proposed":
        order = np.lexsort((d_sh_k, -g, tier_k, tid_k))
    elif scheme == "conventional":
        order = np.lexsort((rng.uniform(size=g.size), tid_k))
    else:
        raise ValueError("unknown scheme %r" % (scheme,))
    winners, first = np.unique(tid_k[order], return_index=True)
    sel = order[first]
    return winners, tier_k[sel], g[sel]


def _chunk_throughput(regime, density, scheme, n, params, estimator_mode, k, rng):
    """Vectorized simulation of n trials; returns the throughput samples."""
    # independent uniforms, not the strata of the package, so the plain stderr below holds
    r = _link_distance(rng.uniform(size=n), REGIMES[regime][:2], density, k)
    ps_r = p_success_direct(r, params)
    rate = np.take(BAND_RATES, hop_band(r))
    success_p = ps_r.copy()

    elig = np.flatnonzero(r >= BAND_55)  # classes C and D benefit from helpers
    if elig.size:
        tid, x, y = _helper_points(rng, r[elig], density, k)
        winners, tier, g = _select_helpers(rng, r[elig], tid, x, y, scheme, params)
        chosen = elig[winners]
        rate[chosen] = np.take(TIER_RATES, tier - 1)
        success_p[chosen] = g

    if estimator_mode == "sampled":
        return rate * (rng.uniform(size=n) < success_p)
    return rate * success_p


def oracle_estimate(config, density, scheme):
    """(mean, stderr) of one cell of `config`, computed with the oracle sampler.

    Chunks are seeded like `estimate_throughput` seeds them, with a cell
    index of 0, and reduced the same way.
    """
    sums, sqs = [], []
    left, chunk = config.trials, 0
    while left > 0:
        n = min(config.chunk_size, left)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=config.base_seed, spawn_key=(0, chunk)))
        t = _chunk_throughput(config.regime, density, scheme, n, config.channel,
                              config.estimator_mode, config.k, rng)
        sums.append(float(t.sum()))
        sqs.append(float(np.dot(t, t)))
        left -= n
        chunk += 1
    n = config.trials
    mean = math.fsum(sums) / n
    var = max(math.fsum(sqs) - n * mean * mean, 0.0) / (n - 1)
    return mean, math.sqrt(var / n)
