"""The Monte Carlo's control variates, recentred on their exact means.

A class C or D link scores t - c + m(r), with m(r) c's exact mean given the
link length.  A conventional link's c is the chosen region's centre h_j(r),
the mean of rate x G over it (rate x Ps(r) for a direct link); one whose
helper was placed adds b_j(r) (q - Qbar) + g_j(r) (y^2 - Ybar^2), with q its
helper's d_SH^2 + d_HD^2, y^2 its squared distance from the S-D line, Qbar
and Ybar^2 the region's exact means of both and b, g a least-squares fit,
all but the means read from a table at the link's nearest node.  A proposed
link's c is the chosen tier's centre h_i(r) plus phi_i(r; U), U the law of
the least q of the tier's helpers at its drawn value, both read from a table
of the cell at the link's nearest node, phi linearly in U between knots, and
in analytic mode gamma_i(r) (y^2 - Ybar^2), y^2 of the helper with that
least q and Ybar^2 its exact mean over the tier's arc through it.
These tests pin c and m to references built here from the geometry,
`channel_model` and `within_tier_reference`, check that the bounds and the
Monte Carlo read one bracket table, that every analytic-mode trial's plain
score lies in its bracket, that the means agree with the plain scores of
`plain_scoring` on a seed pair of each cell's own, and that the controls cut
the stderr: against plain scoring, against the control on the lower end of
the bracket (`plain_scoring.lower_control_chunk`), against the bracket
midpoint alone (`plain_scoring.midpoint_control_chunk`) and against the
proposed scheme's former within-tier term, the secant model's projection
beta (U - 1/2) on U.
"""

import math

import numpy as np
import pytest

from coopmac import monte_carlo as mc
from coopmac import within_tier
from coopmac.analytic_bounds import _node_rows, tier_bound_pair
from coopmac.channel_model import ChannelParams, g_joint, p_success_direct, tier_bracket, worst_tier_g
from coopmac.monte_carlo import ExperimentConfig, estimate_throughput
from coopmac.stochastic_geometry import (
    BAND_RATES,
    CLASS_TIERS,
    REGIMES,
    TIER_RATES,
    hop_band,
    tier_areas,
    tier_void_law,
    void_probability,
)
from plain_scoring import cell_seeds, lower_control_chunk, midpoint_control_chunk, plain_estimate
from within_tier_reference import (arc_mean_y2, nearest_node, node_lengths, region_covariances, region_means, term,
                                   uniform)

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
    """(r, has, tier, g, q, y2, c, m) of an analytic-mode chunk's links, from the chunk's own stream.

    g and q are the largest G and least d_SH^2 + d_HD^2 of each link's
    helpers, y2 the squared distance from the S-D line of the helper with
    that q, and c the control with its terms.
    """
    rng = np.random.default_rng(seed)
    r = mc._draw_link_distance(rng, n, REGIMES[regime][:2], density, k)
    choice = mc._tier_choice(rng, r, density, k, scheme)
    g, q, y2 = mc._best_g(rng, r, choice, k, PARAMS)
    direct = np.take(BAND_RATES, hop_band(r)) * p_success_direct(r, PARAMS)
    table = within_tier.TABLES[scheme](*REGIMES[regime][:2], density, k, PARAMS)
    c, m = within_tier.control(table, scheme, r, choice, direct, q.copy(), y2.copy(), k, slice(None))
    return r, choice.has, choice.tier, g, q, y2, c, m


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
        assert worst_tier_g(params)[1][:n].tobytes() == terms[:n].tobytes()
        keep = r >= REGIMES["D1"][0] if link_class == "D" else r <= REGIMES["C"][1]
        assert _node_rows(link_class, r[keep], params)[n + 1:].tobytes() == best[:n, keep].tobytes()
    # the conventional c at a chosen region is the midpoint of that tier's row, read from a table whose h is
    # the bracket midpoint at its nodes and whose terms are 0
    table = within_tier.region_table(*REGIMES["all"][:2], 0.001, None, params)
    nodes = node_lengths(table)
    worst, best = tier_bracket("D", nodes, params)
    table = table._replace(h=(best + worst[:, None]) * 0.5, within=np.zeros(table.h.shape),
                           slope_y=np.zeros(table.h.shape), quadratic=np.zeros(table.quadratic.shape))
    has, tier = np.arange(nodes.size), np.arange(nodes.size) % 5 + 1
    zeros = np.zeros(nodes.size)
    choice = mc._TierChoice(has, tier, np.ones(nodes.size), None, np.zeros((5, nodes.size)), zeros, (zeros, zeros))
    c, _ = within_tier.control(table, "conventional", nodes, choice, zeros, zeros.copy(), zeros.copy(), None,
                               slice(None))
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
    r, has, tier, g, q, y2, c, m = _control_parts(regime, density, k, scheme, n, seed)
    worst, best = _worst_terms(PARAMS)[:, None], _best_terms(r, PARAMS)
    direct = np.take(BAND_RATES, hop_band(r)) * p_success_direct(r, PARAMS)
    none = np.setdiff1d(np.arange(n), has)
    if scheme == "proposed":
        # c is the chosen tier's centre h plus phi(U) + gamma (y^2 - Ybar^2), h and gamma read at the link's
        # nearest node of the cell's table, phi linearly in U between the knots of that node's row, U
        # recomputed from the helpers' least q and Ybar^2 the mean of y^2 over the tier's arc at that q; m is
        # the choice law's mixture of the centres
        table = within_tier.control_table(*REGIMES[regime][:2], density, k, PARAMS)
        node = nearest_node(table, r)
        h = table.h[:, node]
        radius = np.sqrt(np.maximum(q - r[has] ** 2 / 2, 0.0) / 2)
        line = table.slope_y[tier - 1, node[has]] * (y2 - arc_mean_y2(r[has], tier, radius))
        np.testing.assert_allclose(c[has] - h[tier - 1, has],
                                   term(table, tier, node[has], uniform(r[has], tier, q, density, k)) + line,
                                   rtol=0, atol=1e-12)
        # phi falls from U = 0, the tier's best position, to U = 1, its worst, though not at every knot
        assert np.all(table.within[tier - 1, node[has], 0] > table.within[tier - 1, node[has], -1])
        empty = tier_void_law(tier_areas(r), r, density, k)
        want_m = empty[-1] * direct + ((empty[:-1] - empty[1:])[:len(h)] * h).sum(axis=0)
    else:
        # c is the chosen region's centre h plus c_q dq + c_y dy + c_qq (dq^2 - V_qq) + c_qy (dq dy - V_qy)
        # + c_yy (dy^2 - V_yy) in dq = q - Qbar and dy = y^2 - Ybar^2, with h and the five coefficients read at
        # the link's nearest node of the parameter set's table, Qbar, Ybar^2 the region's exact means, clipped
        # into their ranges, and V its exact covariances; m is the region mixture of the centres
        table = within_tier.region_table(*REGIMES[regime][:2], density, k, PARAMS)
        node = nearest_node(table, r)
        h = table.h[:, node]
        mean_q, mean_y2 = region_means(r[has], tier)
        at = tier - 1, node[has]
        dq, dy = q - mean_q, y2 - mean_y2
        c_q, c_y, c_qq, c_qy, c_yy = table.quadratic[(slice(None), *at)]
        v_qq, v_qy, v_yy = region_covariances(r[has], tier)
        np.testing.assert_allclose(c[has] - h[tier - 1, has],
                                   c_q * dq + c_y * dy + c_qq * (dq * dq - v_qq) + c_qy * (dq * dy - v_qy)
                                   + c_yy * (dy * dy - v_yy), rtol=0, atol=1e-11)
        # G falls with q at fixed y^2 and rises with y^2 at fixed q, where the hops are more even: so the
        # two-term fit of sampled mode has it
        assert np.all(table.within[at] < 0) and np.all(table.slope_y[at] > 0)
        # y^2 lies in [0, |H - M|^2], and |H - M|^2 = (q - r^2 / 2) / 2
        assert np.all(y2 >= -1e-9) and np.all(y2 <= (q - r[has] ** 2 / 2) / 2 + 1e-9)
        areas = tier_areas(r)
        void = void_probability(areas.sum(axis=0), r, density, k)
        want_m = (1.0 - void) * (areas * h).sum(axis=0) / areas.sum(axis=0) + void * direct
    np.testing.assert_array_equal(c[none], direct[none])
    assert m == pytest.approx(want_m, rel=1e-12)
    # the chunk scores its best helper's rate x G with the control applied, and that plain score lies in
    # the chosen tier's bracket, as G does anywhere in the tier; a link without a helper scores m
    plain = np.take(TIER_RATES, tier - 1) * g
    np.testing.assert_array_equal(t[has], (plain - c[has]) + m[has])
    assert np.all(plain >= worst[tier - 1, 0] - 1e-12) and np.all(plain <= best[tier - 1, has] + 1e-12)
    assert np.array_equal(t[none], m[none])


@pytest.mark.parametrize("mode", ["analytic", "sampled"])
@pytest.mark.parametrize("density,k", [(0.002, None), (0.0005, 10)])
def test_means_agree_with_plain_scoring(density, k, mode):
    # both schemes, every class of the 100 m range, on the cell's own seed pair
    kw = dict(densities=(density,), scheme="both", regime="all", trials=200_000, estimator_mode=mode, k=k)
    seed, plain_seed = cell_seeds("both", "all", density, k, mode)
    for est, plain in zip(estimate_throughput(ExperimentConfig(base_seed=seed, **kw)),
                          plain_estimate(ExperimentConfig(base_seed=plain_seed, **kw))):
        z = (est.mean - plain.mean) / math.hypot(est.stderr, plain.stderr)
        assert abs(z) <= 4, (est.scheme, est.mean, plain.mean, z)


@pytest.mark.parametrize("regime", ["C", "D1"])
def test_control_cuts_the_conventional_stderr(regime):
    # on one seed the two see the same trials; only the control differs
    config = ExperimentConfig(densities=(0.005,), scheme="conventional", regime=regime, trials=20_000, base_seed=61)
    est, plain = estimate_throughput(config)[0], plain_estimate(config)[0]
    assert 3 * est.stderr <= plain.stderr, (est.stderr, plain.stderr)


@pytest.mark.parametrize("mode,regime,density,k", [("analytic", regime, density, k) for regime in ("C", "D1", "D2")
                                                   for density, k in ((0.005, None), (0.001, 3))]
                         + [("sampled", "D1", 0.001, None)])
def test_conventional_means_agree_with_plain_scoring(mode, regime, density, k):
    # the cell's own seed pair; the q term has mean 0 in every region it is added in
    kw = dict(densities=(density,), scheme="conventional", regime=regime, trials=200_000, estimator_mode=mode, k=k)
    seed, plain_seed = cell_seeds("conventional", regime, density, k, mode)
    est = estimate_throughput(ExperimentConfig(base_seed=seed, **kw))[0]
    plain = plain_estimate(ExperimentConfig(base_seed=plain_seed, **kw))[0]
    z = (est.mean - plain.mean) / math.hypot(est.stderr, plain.stderr)
    assert abs(z) <= 4, (est.mean, plain.mean, z)


# the least stderr cut of the conventional control against the midpoint oracle at 0.005 nodes/m^2, analytic
# mode: 4x the cuts of the control that centred on the midpoint and added the secant's b (q - Qbar) alone
# (1.99, 2.29, 3.21 and 1.76 on this seed); the region-mean control measures 11.7-12.0, 16.0-16.4, 27.8-28.3
# and 14.8-15.8 over five seeds
_CONVENTIONAL_FLOOR = {"C": 8.0, "D1": 9.2, "D2": 12.8, "all": 7.0}


@pytest.mark.parametrize("regime", ["C", "D1", "D2", "all"])
def test_region_control_cuts_the_conventional_stderr_of_the_midpoint(regime):
    # on one seed the two see the same trials; only the control differs
    config = ExperimentConfig(densities=(0.005,), scheme="conventional", regime=regime, trials=20_000, base_seed=63)
    est, mid = estimate_throughput(config)[0], plain_estimate(config, midpoint_control_chunk)[0]
    assert _CONVENTIONAL_FLOOR[regime] * est.stderr <= mid.stderr, (est.stderr, mid.stderr)


@pytest.mark.parametrize("mode,regime,density,k",
                         [("analytic", regime, density, k) for regime in ("C", "D1", "D2", "all")
                          for density, k in ((0.005, None), (0.001, 3), (0.0005, 10))]
                         + [("sampled", regime, density, k) for regime in ("D1", "all")
                            for density, k in ((0.005, None), (0.001, 3), (0.0005, 10))])
def test_proposed_means_agree_with_plain_scoring(mode, regime, density, k):
    # the cell's own seed pair; the U term has mean 0 given the link and its tier
    kw = dict(densities=(density,), scheme="proposed", regime=regime, trials=200_000, estimator_mode=mode, k=k)
    seed, plain_seed = cell_seeds("proposed", regime, density, k, mode)
    est = estimate_throughput(ExperimentConfig(base_seed=seed, **kw))[0]
    plain = plain_estimate(ExperimentConfig(base_seed=plain_seed, **kw))[0]
    z = (est.mean - plain.mean) / math.hypot(est.stderr, plain.stderr)
    assert abs(z) <= 4, (est.mean, plain.mean, z)


# the least variance cut of the proposed control against the midpoint oracle at 0.005 nodes/m^2, analytic
# mode: below the cuts the within-tier term beta (U - 1/2) measured over eight seeds of 5000 trials
# (2.3-2.9x for C, D2 and the class mix, 6.7-7.8x for D1); phi, the whole secant model, measures 5.6-6.2x
# (C), 21.7-29.0x (D1), 7.3-7.9x (D2) and 16.8-19.8x (the class mix)
_PROPOSED_FLOOR = {"C": 2.3, "D1": 6.7, "D2": 2.3, "all": 2.3}


@pytest.mark.parametrize("regime", ["C", "D1", "D2", "all"])
def test_control_cuts_the_proposed_stderr_of_the_midpoint(regime):
    # on one seed the two see the same trials; only the control differs
    config = ExperimentConfig(densities=(0.005,), scheme="proposed", regime=regime, trials=20_000, base_seed=64)
    est, mid = estimate_throughput(config)[0], plain_estimate(config, midpoint_control_chunk)[0]
    assert mid.stderr >= math.sqrt(_PROPOSED_FLOOR[regime]) * est.stderr, (est.stderr, mid.stderr)


# the proposed stderr of the cells below (0.005 nodes/m^2, PPP, analytic, 20,000 trials, seed 65) with the
# within-tier term beta (U - 1/2), the linear-in-U projection of the secant model that phi once held whole; phi is
# now the conditional mean of rate x max G given U
_LINEAR_TERM_STDERR = {"C": 0.00028445546705601547, "D1": 0.0002480622277480357, "D2": 0.00023314285991718733}


@pytest.mark.parametrize("regime", ["C", "D1", "D2"])
def test_secant_model_cuts_the_proposed_stderr_of_its_linear_term(regime):
    # the same seed draws the same trials as it did under the linear term; only the within-tier term differs
    config = ExperimentConfig(densities=(0.005,), scheme="proposed", regime=regime, trials=20_000, base_seed=65)
    est = estimate_throughput(config)[0]
    assert est.stderr <= 0.75 * _LINEAR_TERM_STDERR[regime], (est.stderr, _LINEAR_TERM_STDERR[regime])


@pytest.mark.parametrize("regime", ["C", "D1", "D2", "all"])
def test_midpoint_cuts_the_stderr_of_the_lower_control(regime):
    # on one seed the two see the same trials; only the centre of the control differs
    config = ExperimentConfig(densities=(0.005,), scheme="both", regime=regime, trials=20_000, base_seed=62)
    for est, lower in zip(estimate_throughput(config), plain_estimate(config, lower_control_chunk)):
        ratio = lower.stderr / est.stderr
        assert ratio >= 0.97, (est.scheme, ratio)
        if est.scheme == "proposed" and regime in ("D1", "all"):
            assert ratio >= 1.3, (est.scheme, ratio)
