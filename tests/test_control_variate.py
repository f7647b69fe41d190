"""The Monte Carlo's control variate: the midpoint of each trial's bracket, recentred on its exact mean.

A class C or D link scores t - c + m(r): c is half the rate times G at the
worst plus the best position of the tier or region the trial chose (rate x
Ps(r) for a direct link), and m(r) is c's mean given the link length.  These
tests pin c and m to references built here from the geometry and
`channel_model`, check that the bounds and the Monte Carlo read one bracket
table, that every analytic-mode trial lies in its bracket, that the means
agree with the plain scores of `plain_scoring`, and that the control cuts
the stderr, against plain scoring and against the control on the lower end
of the bracket (`plain_scoring.lower_control_chunk`).
"""

import math

import numpy as np
import pytest

from coopmac import monte_carlo as mc
from coopmac.analytic_bounds import _link_bounds, _node_store, tier_bound_pair
from coopmac.channel_model import ChannelParams, g_joint, p_success_direct, tier_bracket, worst_tier_g
from coopmac.monte_carlo import ExperimentConfig, estimate_throughput
from coopmac.stochastic_geometry import BAND_RATES, CLASS_TIERS, REGIMES, hop_band, tier_areas, void_probability
from plain_scoring import lower_control_chunk, plain_estimate

PARAMS = ChannelParams()
# tier t's worst helper position, both hops at the outer edges of its hop
# bands, and its cooperative rate r1 r2 / (r1 + r2), written out by hand
_WORST = ((48.2, 48.2, 11 * 11 / 22), (48.2, 67.1, 11 * 5.5 / 16.5), (67.1, 67.1, 5.5 * 5.5 / 11),
          (48.2, 74.7, 11 * 2 / 13), (67.1, 74.7, 5.5 * 2 / 7.5))
_RATES = np.array([rate for _, _, rate in _WORST])
_CELLS = [(regime, density, k) for regime in ("C", "D1", "D2") for density, k in ((0.005, None), (0.0005, 10))]


def _worst_g(params):
    return np.array([float(g_joint(a, b, params)) for a, b, _ in _WORST])


def _worst_terms(params):
    return _RATES * _worst_g(params)


def _best_terms(r, params):
    """(5, len(r)) rate x G at each tier's best position, by hand."""
    def ps(d):
        # a hop of 0 m (tier 4 of a class C link at r = 67.1, which has no area) succeeds
        d = np.asarray(d)
        return np.where(d > 0, p_success_direct(np.where(d > 0, d, 1.0), params), 1.0)

    mid = ps(r / 2) ** 2
    best = [mid, ps(48.2) * ps(r - 48.2), np.where(r <= 96.4, ps(48.2) ** 2, mid), ps(67.1) * ps(r - 67.1),
            np.full(r.shape, ps(48.2) * ps(67.1))]
    return _RATES[:, None] * np.array(best)


def _control_parts(regime, density, k, scheme, n, seed):
    """(r, has, tier, c, m) of an analytic-mode chunk's links, from the chunk's own stream."""
    rng = np.random.default_rng(seed)
    r = mc._draw_link_distance(rng, n, REGIMES[regime][:2], density, k)
    has, tier, _, law, void = mc._tier_first_helpers(rng, r, density, k, scheme, PARAMS)
    direct = np.take(BAND_RATES, hop_band(r)) * p_success_direct(r, PARAMS)
    return (r, has, tier) + mc._control(r, has, tier, law, void, direct, PARAMS)


@pytest.mark.parametrize("params", [PARAMS, ChannelParams(pt=3.0, alpha=3.5, sigma_sh=8.0)])
def test_one_bracket_table(params):
    # the bounds' per-tier terms and the Monte Carlo's control come from one kernel, bit for bit
    g, terms = worst_tier_g(params)
    assert worst_tier_g(params)[1] is terms and not g.flags.writeable and not terms.flags.writeable
    assert g == pytest.approx(_worst_g(params), rel=1e-15)
    assert terms == pytest.approx(_worst_terms(params), rel=1e-15)
    r = np.concatenate(([67.1, 74.7, 96.4, 100.0], np.random.default_rng(4).uniform(67.1, 100.0, 40)))
    worst, best = tier_bracket("D", r, params)
    assert worst.tobytes() == terms.tobytes()
    assert best == pytest.approx(_best_terms(r, params), rel=1e-15)
    for link_class, n in CLASS_TIERS.items():
        store = _node_store(link_class, params)
        assert store.worst.tobytes() == terms[:n].tobytes()
        keep = r >= REGIMES["D1"][0] if link_class == "D" else r <= REGIMES["C"][1]
        assert store.rows(r[keep])[n + 1:].tobytes() == best[:n, keep].tobytes()
    # the Monte Carlo's c at a chosen tier is the midpoint of that tier's row
    has, tier = np.arange(r.size), np.arange(r.size) % 5 + 1
    c, _ = mc._control(r, has, tier, np.zeros((5, r.size)), np.zeros(r.size), np.zeros(r.size), params)
    assert c.tobytes() == (0.5 * (terms[tier - 1] + best[tier - 1, has])).tobytes()
    # and the scalar view of the bounds reads the same entries
    for regime in ("C", "D1", "D2"):
        lo, hi, link_class = REGIMES[regime]
        x = (lo + hi) / 2
        for t in range(1 + (regime == "D2"), CLASS_TIERS[link_class] + 1):
            pair = tier_bound_pair(regime, t, x, params)
            want = tier_bracket(link_class, np.array([x]), params)
            assert (pair.lower, pair.upper) == (want[0][t - 1], want[1][t - 1, 0])


@pytest.mark.parametrize("scheme", ["proposed", "conventional"])
@pytest.mark.parametrize("regime,density,k", _CELLS)
def test_every_trial_lies_in_its_bracket(regime, density, k, scheme):
    n, seed = 4000, 51
    t = mc._chunk_throughput(regime, density, scheme, n, PARAMS, "analytic", k, np.random.default_rng(seed))
    r, has, tier, c, m = _control_parts(regime, density, k, scheme, n, seed)
    # c is the midpoint of the chosen tier's bracket, or the direct score
    worst, best = _worst_terms(PARAMS)[:, None], _best_terms(r, PARAMS)
    mid = (worst + best) / 2
    direct = np.take(BAND_RATES, hop_band(r)) * p_success_direct(r, PARAMS)
    want_c = direct.copy()
    want_c[has] = mid[tier - 1, has]
    assert c == pytest.approx(want_c, rel=1e-14)
    # m is c's mean given r: the mean of the link's lower and upper bounds for
    # the proposed scheme, the region mixture of the midpoints for the conventional one
    if scheme == "proposed":
        want_m = _link_bounds(regime, r, density, k, PARAMS).mean(axis=0)
    else:
        areas = tier_areas(r)
        void = void_probability(areas.sum(axis=0), r, density, k)
        want_m = (1.0 - void) * (areas * mid).sum(axis=0) / areas.sum(axis=0) + void * direct
    assert m == pytest.approx(want_m, rel=1e-12)
    # G lies between G_worst and G_best anywhere in a tier, so an adjusted score is within
    # half the chosen bracket's width of m, and a link without a helper scores m exactly
    half = (best - worst)[tier - 1, has] / 2
    assert np.all(half >= 0)
    assert np.all(np.abs(t[has] - m[has]) <= half + 1e-12)
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


@pytest.mark.parametrize("regime", ["C", "D1", "D2", "all"])
def test_midpoint_cuts_the_stderr_of_the_lower_control(regime):
    # on one seed the two see the same trials; only the centre of the control differs
    config = ExperimentConfig(densities=(0.005,), scheme="both", regime=regime, trials=20_000, base_seed=62)
    for est, lower in zip(estimate_throughput(config), plain_estimate(config, lower_control_chunk)):
        ratio = lower.stderr / est.stderr
        assert ratio >= 0.97, (est.scheme, ratio)
        if est.scheme == "proposed" and regime in ("D1", "all"):
            assert ratio >= 1.3, (est.scheme, ratio)
