"""Sampled mode's squeeze: a Bernoulli draw its bracket settles is the draw full placement gives.

Sampled mode scores a link with a helper as lo + (rate - lo) 1{x < rate x
max G}, where lo is the chosen tier's rate times G_worst, a sure share, and
x = lo + (rate - lo) v.  G of any helper of the chosen tier lies in the
tier's bracket, so an x at or above its upper end settles the draw as a
failure without placing a helper (`monte_carlo._squeeze`).  These tests run
the package's chunk, record what the squeeze saw and which links it placed,
then place the helpers of every link with a helper, the settled ones too,
and check that each settled outcome is 1{x < rate x max G} of that
placement.  The upper end is G's maximum only while log Ps is concave in
the hop length; under a loose link budget that fails it, every link with a
helper is placed.  The conventional control's c is the chosen region's
centre h, plus b (q - Qbar) + g (y^2 - Ybar^2) where its helper was placed;
the proposed one's is the chosen tier's centre h, plus phi(U) where its
helpers were placed (`within_tier_reference`).
"""

import numpy as np
import pytest

from coopmac import monte_carlo as mc
from coopmac import within_tier
from coopmac.channel_model import ChannelParams, g_joint, log_ps_concave, p_success_direct, tier_bracket
from coopmac.stochastic_geometry import BAND_55, REGIMES, TIER_RATES
from within_tier_reference import nearest_node, region_means, term, uniform

PARAMS = ChannelParams()
# a loose link budget, under which log Ps is not concave and a helper can beat the best position
LOOSE = ChannelParams(alpha=2.0, pt=-30.0)
_CONDITIONS = [(0.005, None), (0.001, None), (0.001, 10), (0.0005, 3)]
# the sampled cells of the bench's `mc_sparse_k` workload, where the squeeze must settle failures
_SPARSE_K = [(regime, 0.001, k) for regime in ("C", "D1", "D2") for k in (None, 10)]


def _recorded_chunk(regime, density, k, scheme, n, seed, params, monkeypatch):
    """The sampled chunk's scores, and the squeeze's inputs and outputs, the control and the placements, as recorded."""
    seen = {}

    def tier_choice(rng, r, *args):
        seen["r"] = r
        seen["choice"] = choice = tier_choice.real(rng, r, *args)
        return choice

    def squeeze(x, upper):
        seen["x"], seen["upper"] = x.copy(), upper
        seen["open"] = out = squeeze.real(x, upper)
        return out

    def control(*args):
        seen["c"], seen["m"] = out = control.real(*args)
        return out

    def best_g(rng, r, choice, k, params, which):
        seen["placed"] = which
        out = best_g.real(rng, r, choice, k, params, which)
        seen["g"], seen["q"], seen["y2"] = out[0], out[1].copy(), out[2].copy()
        return out

    for module, name, fake in ((mc, "_tier_choice", tier_choice), (mc, "_squeeze", squeeze),
                               (within_tier, "control", control), (mc, "_best_g", best_g)):
        fake.real = getattr(module, name)
        monkeypatch.setattr(module, name, fake)
    t = mc._chunk_throughput(regime, density, scheme, n, params, "sampled", k, np.random.default_rng(seed))
    monkeypatch.undo()
    return t, seen


@pytest.mark.parametrize("scheme", ["proposed", "conventional"])
@pytest.mark.parametrize("density,k", _CONDITIONS)
@pytest.mark.parametrize("regime", ["C", "D1", "D2", "all"])
@pytest.mark.parametrize("params", [PARAMS, LOOSE], ids=["reference", "loose"])
def test_settled_draws_are_those_of_full_placement(params, regime, density, k, scheme, monkeypatch):
    n, seed = 10_000, 81
    t, seen = _recorded_chunk(regime, density, k, scheme, n, seed, params, monkeypatch)
    assert np.all(np.isfinite(t))
    choice, r = seen["choice"], seen["r"]
    has, tier = choice.has, choice.tier
    # v is drawn right after the link lengths, from the chunk's own stream
    rng = np.random.default_rng(seed)
    columns = mc._grid_columns(n, "sampled")
    link = mc._draw_link_distance(rng, n, REGIMES[regime][:2], density, k, columns)
    elig = np.flatnonzero(link >= BAND_55)
    v = mc._stratified_columns(rng, n, columns)[elig][has]
    assert np.array_equal(r, link[elig])
    # the squeeze saw x = lo + (rate - lo) v in the units of the chosen tier's bracket: the 5-tier
    # kernel's entries, whose first three rows are the class C kernel's, byte for byte
    rate = np.take(TIER_RATES, tier - 1)
    worst, best = tier_bracket("D", r, params)
    lo = worst[tier - 1]
    x = lo + (rate - lo) * v
    assert seen["x"].tobytes() == x.tobytes()
    concave = log_ps_concave(params)
    assert concave == (params == PARAMS)
    upper = best[tier - 1, has] if concave else np.inf
    if concave:
        assert seen["upper"].tobytes() == upper.tobytes()
    else:
        assert seen["upper"] == np.inf
    # the placed set is exactly the draws below the upper end, margin included
    placed = np.flatnonzero(x < upper * (1 + mc._SQUEEZE_MARGIN))
    assert np.array_equal(seen["open"], placed)
    assert np.array_equal(seen["placed"], placed)
    # each link with a helper scores its sure share plus (rate - lo) times its outcome, control applied
    hit = np.zeros(has.size, dtype=bool)
    hit[placed] = x[placed] < rate[placed] * seen["g"]
    c, m = seen["c"][has], seen["m"][has]
    want = np.zeros(n)
    want[elig[has]] = ((lo + (rate - lo) * hit) - c) + m
    # the class edges of regime "all" take their mean-0 term off the trials of the u-slices that hold them
    table = within_tier.TABLES[scheme](*REGIMES[regime][:2], density, k, params)
    mc._edge_term(want, link, columns, table)
    assert t[elig[has]].tobytes() == want[elig[has]].tobytes()
    # c is the chosen tier's centre h at the link's nearest node of the table; a proposed link whose helpers
    # were placed adds phi(U), U the law of their least d_SH^2 + d_HD^2 at its value, and a
    # conventional one b (q - Qbar) + g (y^2 - Ybar^2), its one helper's q and y^2 against the region's means
    settled = np.setdiff1d(np.arange(has.size), placed)
    node = nearest_node(table, r[has])
    moved = c - table.h[tier - 1, node]
    np.testing.assert_array_equal(moved[settled], 0.0)
    at = tier[placed] - 1, node[placed]
    if scheme == "proposed":
        u = uniform(r[has[placed]], tier[placed], seen["q"], density, k)
        np.testing.assert_allclose(moved[placed], term(table, tier[placed], node[placed], u), rtol=0, atol=1e-12)
    else:
        mean_q, mean_y2 = region_means(r[has[placed]], tier[placed])
        np.testing.assert_allclose(moved[placed], table.within[at] * (seen["q"] - mean_q)
                                   + table.slope_y[at] * (seen["y2"] - mean_y2), rtol=0, atol=1e-12)
    # place every link's helpers on another stream: each settled draw is a failure of that placement
    g = mc._best_g(np.random.default_rng(seed + 1), r, choice, k, params)[0]
    mismatches = np.count_nonzero(x[settled] < rate[settled] * g[settled])
    assert mismatches == 0, (mismatches, settled.size)
    # and it is so because every placed G lies inside its bracket, margin included
    margin = mc._SQUEEZE_MARGIN
    assert np.all(g * rate > lo * (1 - margin)) and np.all(g * rate < upper * (1 + margin))
    if not concave:
        # no failure is settled where the upper end is not proved
        assert placed.size == has.size
    elif (regime, density, k) in _SPARSE_K:
        # a fallback to full placement fails here
        assert settled.size >= 0.2 * has.size, (settled.size, has.size)


def test_squeeze_settles_only_outside_the_margin():
    eps = mc._SQUEEZE_MARGIN
    x = np.array([0.0, 3.0, 4.0, 4.0 * (1 + eps / 2), 4.0 * (1 + 2 * eps), 5.0])
    assert mc._squeeze(x, np.full(6, 4.0)).tolist() == [0, 1, 2, 3]
    # an upper end of inf settles nothing
    assert mc._squeeze(x, np.inf).tolist() == list(range(6))


def test_best_position_bounds_g_only_under_concave_log_ps():
    r = 90.0
    tier1 = tier_bracket("D", np.array([r]), PARAMS)[1][0, 0] / TIER_RATES[0]
    # tier 1 at r = 90 m: both hops at most 48.2 m and summing to at least r
    d_sh = np.linspace(r - 48.2, 48.2, 4001)
    assert np.max(g_joint(d_sh, r - d_sh, PARAMS)) <= tier1 * (1 + 1e-12)
    # under the loose budget a helper off the midpoint beats the tabulated best by 0.19%
    loose = tier_bracket("D", np.array([r]), LOOSE)[1][0, 0] / TIER_RATES[0]
    assert g_joint(48.1, 41.9, LOOSE) > loose * 1.0015


@pytest.mark.parametrize(
    "params",
    [PARAMS, LOOSE, ChannelParams(alpha=2.0), ChannelParams(alpha=7.0), ChannelParams(sigma_sh=12.0),
     ChannelParams(pt=-10.0), ChannelParams(sigma_sh=0.5), ChannelParams(sigma_sh=1e-4)],
)
def test_concavity_check_agrees_with_second_differences(params):
    d = np.linspace(1.0, 100.0, 9901)
    with np.errstate(divide="ignore"):
        log_ps = np.log(p_success_direct(d, params))
    finite = np.isfinite(log_ps)
    # a bend above rounding marks a convex stretch
    bend = np.diff(log_ps[finite], 2) / np.maximum(1.0, np.abs(log_ps[finite][1:-1]))
    assert log_ps_concave(params) == (not np.any(bend > 1e-12))
