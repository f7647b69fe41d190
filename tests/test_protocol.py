import numpy as np
import pytest

from coopmac.channel_model import ChannelParams, g_joint, p_success_direct
from coopmac.stochastic_geometry import TIER_RATES
from protocol_oracle import (
    HelperCandidate,
    NetworkRealization,
    classify_link,
    enumerate_candidates,
    run_exchange,
    select_helper_conventional,
    select_helper_proposed,
)

PARAMS = ChannelParams()


def _cand(tier, g, d_sh=30.0, d_hd=30.0, index=0):
    return HelperCandidate(position=(0.0, 0.0), d_sh=d_sh, d_hd=d_hd, tier=tier, g_score=g, index=index)


# -------------------------------------------------------------- classify_link

def test_classify_link_examples():
    assert classify_link(30.0).label == "A"
    assert classify_link(30.0).rate == 11.0
    assert classify_link(70.0).label == "C"
    assert classify_link(70.0).rate == 2.0
    assert classify_link(100.0).label == "D"


def test_classify_link_boundaries():
    assert classify_link(48.2).label == "B"
    assert classify_link(67.1).label == "C"
    assert classify_link(74.7).label == "D"
    assert classify_link(0.0).label == "A"


def test_classify_link_out_of_range():
    with pytest.raises(ValueError):
        classify_link(100.01)
    with pytest.raises(ValueError):
        classify_link(-1.0)
    with pytest.raises(ValueError):
        classify_link(float("nan"))


# ----------------------------------------------------------------- tier rates

def test_tier_rates_are_the_papers_printed_table():
    # the one rate table (stochastic_geometry), read by the simulator, the
    # bounds and run_exchange: r_SH*r_HD/(r_SH+r_HD) of each tier's hop rates
    assert TIER_RATES == pytest.approx((5.5, 11.0 / 3.0, 2.75, 22.0 / 13.0, 22.0 / 15.0))
    assert [round(r, 2) for r in TIER_RATES] == [5.5, 3.67, 2.75, 1.69, 1.47]


def test_tier_rates_nonincreasing_with_tier():
    assert all(a >= b for a, b in zip(TIER_RATES, TIER_RATES[1:]))


# ------------------------------------------------------- enumerate_candidates

def _realization(nodes):
    return NetworkRealization(density=0.001, window=(-200, -200, 300, 200), nodes=np.asarray(nodes, float))


def test_enumerate_empty_when_no_tier_nodes():
    real = _realization(np.empty((0, 2)))
    assert enumerate_candidates(real, (0, 0), (70, 0), PARAMS) == []


def test_enumerate_midpoint_helper_is_tier1():
    real = _realization([[35.0, 0.0]])
    cands = enumerate_candidates(real, (0, 0), (70, 0), PARAMS)
    assert len(cands) == 1
    assert cands[0].tier == 1
    assert cands[0].g_score == pytest.approx(float(g_joint(35, 35, PARAMS)))


def test_enumerate_fast_links_get_no_helpers():
    real = _realization([[20.0, 0.0]])
    assert enumerate_candidates(real, (0, 0), (40, 0), PARAMS) == []
    assert enumerate_candidates(real, (0, 0), (60, 0), PARAMS) == []


def test_enumerate_long_type_d_has_no_tier1():
    rng = np.random.default_rng(2)
    real = _realization(rng.uniform(-80, 180, size=(400, 2)))
    cands = enumerate_candidates(real, (0, 0), (97, 0), PARAMS)
    assert cands  # plenty of nodes: some helpers exist
    assert all(c.tier != 1 for c in cands)


def test_enumerate_rejects_over_range_links():
    real = _realization([[35.0, 0.0]])
    with pytest.raises(ValueError):
        enumerate_candidates(real, (0, 0), (120, 0), PARAMS)
    with pytest.raises(ValueError):
        enumerate_candidates(real, (0, 0), (np.nan, 0), PARAMS)


# --------------------------------------------------------------- selectors

def test_proposed_order_tier_priority():
    order = select_helper_proposed([_cand(2, 0.9), _cand(1, 0.7)])
    assert [c.tier for c in order] == [1, 2]


def test_proposed_order_descending_g_within_tier():
    order = select_helper_proposed([_cand(1, 0.80), _cand(1, 0.85)])
    assert [c.g_score for c in order] == [0.85, 0.80]


def test_proposed_order_tie_breaks():
    a = _cand(1, 0.8, d_sh=30.0, index=4)
    b = _cand(1, 0.8, d_sh=25.0, index=9)
    c = _cand(1, 0.8, d_sh=25.0, index=2)
    assert select_helper_proposed([a, b, c]) == [c, b, a]


def test_proposed_order_invariant_under_monotone_transform():
    rng = np.random.default_rng(5)
    cands = [_cand(int(t), float(g), d_sh=float(d), index=i)
             for i, (t, g, d) in enumerate(zip(rng.integers(1, 4, 30), rng.uniform(0.1, 0.99, 30), rng.uniform(1, 60, 30)))]
    base = select_helper_proposed(cands)
    squashed = [HelperCandidate(c.position, c.d_sh, c.d_hd, c.tier, c.g_score**3, c.index) for c in cands]
    assert [c.index for c in select_helper_proposed(squashed)] == [c.index for c in base]


def test_conventional_single_and_empty():
    rng = np.random.default_rng(0)
    only = _cand(2, 0.5)
    assert select_helper_conventional([only], rng) == [only]
    assert select_helper_conventional([], rng) == []


def test_conventional_uniform_first_pick():
    rng = np.random.default_rng(1)
    cands = [_cand(1, 0.9, index=0), _cand(2, 0.5, index=1), _cand(3, 0.2, index=2)]
    firsts = np.zeros(3)
    n = 10**4
    for _ in range(n):
        firsts[select_helper_conventional(cands, rng)[0].index] += 1
    assert np.all(np.abs(firsts / n - 1 / 3) < 4 * np.sqrt((1 / 3) * (2 / 3) / n))


# ---------------------------------------------------------------- run_exchange

def test_exchange_direct_fallback():
    out = run_exchange([], 70.0, PARAMS)
    assert out.mode == "direct"
    assert out.helper is None
    assert out.rate == 2.0
    assert out.success_prob == float(p_success_direct(70.0, PARAMS))


def test_exchange_picks_first():
    c = _cand(1, float(g_joint(35, 35, PARAMS)), d_sh=35, d_hd=35)
    out = run_exchange([c, _cand(1, 0.5)], 70.0, PARAMS)
    assert out.mode == "cooperative"
    assert out.helper == c
    assert out.rate == pytest.approx(5.5)
    assert out.success_prob == pytest.approx(0.9490505, abs=1e-6)


@pytest.mark.parametrize("tier", [1, 2, 3, 4, 5])
def test_exchange_rate_comes_from_the_tier_table(tier):
    assert run_exchange([_cand(tier, 0.7)], 80.0, PARAMS).rate == TIER_RATES[tier - 1]


def test_exchange_rejects_over_range_links():
    with pytest.raises(ValueError):
        run_exchange([_cand(1, 0.7)], 100.5, PARAMS)
    for order in ([], [_cand(1, 0.7)]):
        with pytest.raises(ValueError):
            run_exchange(order, float("nan"), PARAMS)
