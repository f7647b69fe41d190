"""Sampled mode's squeeze: a Bernoulli draw its bracket settles is the draw full placement gives.

Sampled mode scores a link with a helper as its tier rate times 1{v < max G}.
G of any helper of the chosen tier lies in the tier's bracket, so a v below
its lower end, or at or above its upper end, settles the draw without
placing a helper (`monte_carlo._squeeze`).  These tests run the package's
chunk, record what the squeeze saw and settled and which links it placed,
then place the helpers of every link with a helper, the settled ones too,
and check that each settled outcome is 1{v < max G} of that placement.
The upper end is G's maximum only while log Ps is concave in the hop
length; under a loose link budget that fails it, the squeeze settles
successes only.
"""

import numpy as np
import pytest

from coopmac import monte_carlo as mc
from coopmac.channel_model import ChannelParams, g_joint, log_ps_concave, p_success_direct, tier_bracket
from coopmac.stochastic_geometry import BAND_55, REGIMES, TIER_RATES

PARAMS = ChannelParams()
# a loose link budget, under which log Ps is not concave and a helper can beat the best position
LOOSE = ChannelParams(alpha=2.0, pt=-30.0)
_CONDITIONS = [(0.005, None), (0.001, None), (0.001, 10), (0.0005, 3)]
# the sampled cells of the bench's `mc_sparse_k` workload, where the squeeze must place few links
_SPARSE_K = [(regime, 0.001, k) for regime in ("C", "D1", "D2") for k in (None, 10)]


def _recorded_chunk(regime, density, k, scheme, n, seed, params, monkeypatch):
    """The sampled chunk's scores, and the squeeze's inputs and outputs and the links placed, as recorded."""
    seen = {}

    def tier_choice(rng, r, *args):
        seen["r"] = r
        seen["choice"] = choice = tier_choice.real(rng, r, *args)
        return choice

    def squeeze(x, lower, upper):
        seen["x"], seen["lower"], seen["upper"] = x, lower, upper
        seen["hit"], seen["open"] = out = squeeze.real(x, lower, upper)
        return out[0].copy(), out[1]

    def best_g(rng, r, choice, k, params, which=None):
        seen["placed"] = which
        return best_g.real(rng, r, choice, k, params, which)

    for name, fake in (("_tier_choice", tier_choice), ("_squeeze", squeeze), ("_best_g", best_g)):
        fake.real = getattr(mc, name)
        monkeypatch.setattr(mc, name, fake)
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
    v = mc._stratified_columns(rng, n, columns)[link >= BAND_55][has]
    assert np.array_equal(r, link[link >= BAND_55])
    # the squeeze saw v in the units of the chosen tier's bracket: the 5-tier kernel's entries,
    # whose first three rows are the class C kernel's, byte for byte
    rate = np.take(TIER_RATES, tier - 1)
    worst, best = tier_bracket("D", r, params)
    concave = log_ps_concave(params)
    assert concave == (params == PARAMS)
    assert seen["x"].tobytes() == (v * rate).tobytes()
    assert seen["lower"].tobytes() == worst[tier - 1].tobytes()
    if concave:
        assert seen["upper"].tobytes() == best[tier - 1, has].tobytes()
    else:
        assert seen["upper"] == np.inf
    # only the links it left open were placed
    hit, placed = seen["hit"], seen["open"]
    assert np.array_equal(seen["placed"], placed)
    settled = np.setdiff1d(np.arange(has.size), placed)
    assert not np.any(hit[placed])
    # place every link's helpers on another stream: each settled outcome is 1{v < max G}
    g = mc._best_g(np.random.default_rng(seed + 1), r, choice, k, params)
    mismatches = np.count_nonzero(hit[settled] != (v[settled] < g[settled]))
    assert mismatches == 0, (mismatches, settled.size)
    # and it is so because every placed G lies inside its bracket, margin included
    margin = mc._SQUEEZE_MARGIN
    assert np.all(g * rate > seen["lower"] * (1 - margin)) and np.all(g * rate < seen["upper"] * (1 + margin))
    if not concave:
        # no failure is settled where the upper end is not proved
        assert np.all(hit[settled])
    elif (regime, density, k) in _SPARSE_K:
        # a fallback to full placement fails here
        assert placed.size < 0.3 * has.size, (placed.size, has.size)


def test_squeeze_settles_only_outside_the_margin():
    lower, upper = np.full(6, 2.0), np.full(6, 4.0)
    eps = mc._SQUEEZE_MARGIN
    x = np.array([0.0, 2.0 * (1 - 2 * eps), 2.0, 3.0, 4.0 * (1 + eps / 2), 4.0 * (1 + 2 * eps)])
    hit, placed = mc._squeeze(x, lower, upper)
    assert hit.tolist() == [True, True, False, False, False, False]
    assert placed.tolist() == [2, 3, 4]


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
