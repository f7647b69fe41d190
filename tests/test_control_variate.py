"""The Monte Carlo's control variate: each trial's lower-bound term, recentred on its exact mean.

A class C or D link scores t - c + m(r): c is rate x G at the worst position
of the tier or region the trial chose (rate x Ps(r) for a direct link), and
m(r) is c's mean given the link length.  These tests pin c and m to
references built here from the geometry and `channel_model`, check that
every analytic-mode trial lies in its bracket, that the means agree with the
plain scores of `plain_scoring`, and that the control cuts the stderr.
"""

import math

import numpy as np
import pytest

from coopmac import monte_carlo as mc
from coopmac.analytic_bounds import _link_bounds, _node_store
from coopmac.channel_model import ChannelParams, g_joint, p_success_direct, worst_tier_g
from coopmac.monte_carlo import ExperimentConfig, estimate_throughput
from coopmac.stochastic_geometry import BAND_RATES, CLASS_TIERS, REGIMES, hop_band, tier_areas, void_probability
from plain_scoring import plain_estimate

PARAMS = ChannelParams()
# tier t's worst helper position, both hops at the outer edges of its hop
# bands, and its cooperative rate r1 r2 / (r1 + r2), written out by hand
_WORST = ((48.2, 48.2, 11 * 11 / 22), (48.2, 67.1, 11 * 5.5 / 16.5), (67.1, 67.1, 5.5 * 5.5 / 11),
          (48.2, 74.7, 11 * 2 / 13), (67.1, 74.7, 5.5 * 2 / 7.5))
_CELLS = [(regime, density, k) for regime in ("C", "D1", "D2") for density, k in ((0.005, None), (0.0005, 10))]


def _worst_g(params):
    return np.array([float(g_joint(a, b, params)) for a, b, _ in _WORST])


def _worst_terms(params):
    return np.array([rate for _, _, rate in _WORST]) * _worst_g(params)


def _control_parts(regime, density, k, scheme, n, seed):
    """(r, has, tier, c, m) of a chunk's links, from the chunk's own stream."""
    rng = np.random.default_rng(seed)
    r = mc._draw_link_distance(rng, n, REGIMES[regime][:2], density, k)
    has, tier, _, bound, void = mc._tier_first_helpers(rng, r, density, k, scheme, PARAMS)
    direct = np.take(BAND_RATES, hop_band(r)) * p_success_direct(r, PARAMS)
    return (r, has, tier) + mc._control(has, tier, bound, void, direct, PARAMS)


@pytest.mark.parametrize("params", [PARAMS, ChannelParams(pt=3.0, alpha=3.5, sigma_sh=8.0)])
def test_one_worst_position_table(params):
    # the bounds' per-tier lower terms and the Monte Carlo's control come from one table, bit for bit
    g, terms = worst_tier_g(params)
    assert worst_tier_g(params)[1] is terms and not g.flags.writeable and not terms.flags.writeable
    assert g == pytest.approx(_worst_g(params), rel=1e-15)
    assert terms == pytest.approx(_worst_terms(params), rel=1e-15)
    for link_class, n in CLASS_TIERS.items():
        assert _node_store(link_class, params).worst.tobytes() == terms[:n].tobytes()
    has, tier = np.arange(5), np.arange(1, 6)
    c, _ = mc._control(has, tier, np.zeros(5), np.zeros(5), np.zeros(5), params)
    assert c.tobytes() == terms.tobytes()


@pytest.mark.parametrize("scheme", ["proposed", "conventional"])
@pytest.mark.parametrize("regime,density,k", _CELLS)
def test_every_trial_lies_above_its_control_mean(regime, density, k, scheme):
    n, seed = 4000, 51
    t = mc._chunk_throughput(regime, density, scheme, n, PARAMS, "analytic", k, np.random.default_rng(seed))
    r, has, tier, c, m = _control_parts(regime, density, k, scheme, n, seed)
    # c is the chosen tier's worst-position term, or the direct score
    direct = np.take(BAND_RATES, hop_band(r)) * p_success_direct(r, PARAMS)
    want_c = direct.copy()
    want_c[has] = _worst_terms(PARAMS)[tier - 1]
    assert c == pytest.approx(want_c, rel=1e-15)
    # m is c's mean given r: the lower bound of the link for the proposed
    # scheme, the region mixture for the conventional one
    if scheme == "proposed":
        want_m = _link_bounds(regime, r, density, k, PARAMS)[0]
    else:
        areas = tier_areas(r)
        void = void_probability(areas.sum(axis=0), r, density, k)
        want_m = (1.0 - void) * (_worst_terms(PARAMS) @ areas) / areas.sum(axis=0) + void * direct
    assert m == pytest.approx(want_m, rel=1e-12)
    # G is at least G_worst anywhere in a tier, and a link without a helper scores m exactly
    assert np.all(t >= m - 1e-12)
    none = np.setdiff1d(np.arange(n), has)
    assert np.array_equal(t[none], m[none])


@pytest.mark.parametrize("mode", ["analytic", "sampled"])
@pytest.mark.parametrize("density,k", [(0.002, None), (0.0005, 10)])
def test_means_agree_with_plain_scoring(density, k, mode):
    # independent seeds, both schemes, every class of the 100 m range
    kw = dict(densities=(density,), scheme="both", regime="all", trials=200_000, estimator_mode=mode, k=k)
    for est, plain in zip(estimate_throughput(ExperimentConfig(base_seed=71, **kw)),
                          plain_estimate(ExperimentConfig(base_seed=72, **kw))):
        z = (est.mean - plain.mean) / math.hypot(est.stderr, plain.stderr)
        assert abs(z) <= 4, (est.scheme, est.mean, plain.mean, z)


@pytest.mark.parametrize("regime", ["C", "D1"])
def test_control_cuts_the_conventional_stderr(regime):
    # on one seed the two see the same trials; only the control differs
    config = ExperimentConfig(densities=(0.005,), scheme="conventional", regime=regime, trials=20_000, base_seed=61)
    est, plain = estimate_throughput(config)[0], plain_estimate(config)[0]
    assert 3 * est.stderr <= plain.stderr, (est.stderr, plain.stderr)
