"""The proposed scheme's within-tier control: the area kernel, the uniform U and the table of centres and terms.

A link that chose tier i scores with the control c = h_i(r) + phi_i(r; U),
phi_i = b_i (Q_i(U) - mean) the secant model at the quantile Q_i of q_min,
where U = F(q_min) is the law of the least d_SH^2 + d_HD^2 of the tier's
helpers at its drawn value.  F needs B_i(s; r), the area of the tier's region
within t = sqrt((s - r^2 / 2) / 2) of the S-D midpoint
(`stochastic_geometry.tier_area_within`).  These tests check B against an
oracle written from the geometry alone (`moment_oracle.region_area_within`)
and for its shape, U for its uniformity given (r, tier) and against its
closed form (`within_tier_reference.uniform`), the table's h and phi's mean
of Q against quadrature by `scipy.integrate.quad` and its Q against a
bisection of F, phi's mean over U and its sign, and all of it next to the
96.4 m tangency where tier 1 empties.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import chi2

from coopmac import monte_carlo as mc
from coopmac import within_tier
from coopmac.channel_model import ChannelParams, tier_bracket, tier_q_bracket
from coopmac.stochastic_geometry import REGIMES, cumulative_areas, tier_area_within, tier_areas
from moment_oracle import region_area_within
from within_tier_reference import KNOTS, node_lengths, q_range, quantile, uniform

PARAMS = ChannelParams()
TANGENCY = 96.4


def _tiers(r):
    """The tiers whose regions have an area at link length r."""
    return [t for t in range(1, 6) if tier_areas(np.array([r]))[t - 1, 0] > 0]


@pytest.mark.parametrize("r", [67.2, 70.0, 74.6, 74.8, 85.0, 96.3, 96.5, 99.9])
def test_area_within_matches_the_geometry_oracle(r):
    # from t = 0, through the region, to a disk that holds all of it
    for tier in _tiers(r):
        area = tier_areas(np.array([r]))[tier - 1, 0]
        cases = [(t, region_area_within(tier, r, t)) for t in (0.0, 2.0, 8.0, 15.0, 22.0, 30.0, 40.0, 80.0)]
        ts, want = (np.array(x) for x in zip(*cases))
        got = tier_area_within(np.full(ts.size, r), np.full(ts.size, tier), ts)
        assert got[0] == 0.0 == want[0]
        # 1e-9 relative; where the disk misses the region, the lens combination leaves rounding of
        # order 1e-16 of the region's area in place of 0
        np.testing.assert_allclose(got[1:], want[1:], rtol=1e-9, atol=1e-12 * area)
        # past the region the disk holds all of it
        assert got[-1] == pytest.approx(area, rel=1e-9)


@settings(max_examples=200, deadline=None)
@given(r=st.floats(67.1, 99.99), tier=st.integers(1, 5), t1=st.floats(0.0, 60.0), t2=st.floats(0.0, 60.0))
def test_area_within_grows_with_t_and_stays_in_the_region(r, tier, t1, t2):
    area = tier_areas(np.array([r]))[tier - 1, 0]
    assume(area > 0 and (tier < 4 or r >= REGIMES["D1"][0]))
    lo, hi = sorted((t1, t2))
    b = tier_area_within(np.full(2, r), np.full(2, tier), np.array([lo, hi]))
    # up to the rounding of the lens combination, 1e-9 of the region
    slack = 1e-9 * area
    assert -slack <= b[0] <= b[1] + slack
    assert b[1] <= area + slack


def _forced_choice(r, tier, density, k):
    """A `_TierChoice` whose every link chose `tier`, with the count load `_tier_choice` gives it."""
    areas = tier_areas(r)
    links = np.arange(r.size)
    area = areas[tier - 1, links]
    if k is None:
        load = density * area
    else:
        load = area / (np.pi * r * r - (cumulative_areas(areas)[tier - 1, links] - area))
    return mc._TierChoice(links, tier, area, load, np.zeros((5, r.size)), np.zeros(r.size))


@pytest.mark.parametrize("r", [70.9, 85.55, 98.2])
@pytest.mark.parametrize("density,k", [(0.002, None), (0.001, 3), (0.0005, 10)])
def test_u_is_uniform_given_the_link_and_tier(r, density, k):
    # 20 equal bins of U for each tier at a fixed link length; a p-value below 1e-5 fails
    n = 20_000
    for tier in _tiers(r):
        links = np.full(n, r)
        choice = _forced_choice(links, np.full(n, tier), density, k)
        _, q, _ = mc._best_g(np.random.default_rng(int(10 * r) + tier), links, choice, k, PARAMS)
        u = within_tier.least_q_uniform(links, choice.tier, choice.area, choice.load, q, k)
        assert np.all((u >= 0) & (u <= 1))
        np.testing.assert_allclose(u, uniform(links, choice.tier, q, density, k), rtol=0, atol=1e-12)
        counts = np.bincount(np.minimum((u * 20).astype(int), 19), minlength=20)
        stat = np.sum((counts - n / 20) ** 2 / (n / 20))
        assert chi2.sf(stat, 19) > 1e-5, (tier, counts)


@pytest.mark.parametrize("density,k", [(0.005, None), (0.0005, 10)])
def test_control_is_finite_next_to_the_tangency(density, k):
    # within 0.12 m of 96.4 m, where tier 1 empties: U in [0, 1] for every tier's links
    for r in np.linspace(TANGENCY - 0.12, TANGENCY + 0.12, 13):
        for tier in _tiers(r):
            links = np.full(500, r)
            choice = _forced_choice(links, np.full(links.size, tier), density, k)
            _, q, _ = mc._best_g(np.random.default_rng(tier), links, choice, k, PARAMS)
            u = within_tier.least_q_uniform(links, choice.tier, choice.area, choice.load, q, k)
            assert np.all(np.isfinite(u) & (u >= 0) & (u <= 1)), (r, tier)
    # and phi finite and non-increasing in U at every node there, falling for tiers 2-5, and 0 for tier 1 at
    # the tangency itself
    for regime in ("D1", "D2", "all"):
        table = within_tier.control_table(*REGIMES[regime][:2], density, k, PARAMS)
        assert np.all(np.isfinite(table.h)) and np.all(np.isfinite(table.phi))
        assert np.all(np.diff(table.phi, axis=2) <= 0)
        near = np.abs(node_lengths(table) - TANGENCY) <= 0.12
        assert near.any()
        at = np.flatnonzero(node_lengths(table) == TANGENCY)
        assert at.size and np.all(table.phi[0, at] == 0.0)
        assert np.all(table.phi[1:, near, 0] > table.phi[1:, near, -1])


def _survival(r, tier, s, density, k):
    """P{q_min > s} of tier `tier`'s helpers at link length r, for an array s."""
    links = np.full(s.size, r)
    return 1.0 - uniform(links, np.full(s.size, tier), s, density, k)


def _secant(r, tier):
    """b: the secant of rate x G against q between the tier's worst and best positions at link length r."""
    worst, best = tier_bracket("D", np.array([r]), PARAMS)
    q_worst, q_best = tier_q_bracket(np.array([r]))
    lo, hi = q_best[tier - 1, 0], q_worst[tier - 1]
    return (best[tier - 1, 0] - worst[tier - 1]) / (lo - hi) if lo < hi else 0.0


@pytest.mark.parametrize("regime,density,k", [("C", 0.005, None), ("D1", 0.001, None), ("D2", 0.0005, 10)])
def test_table_matches_quadrature(regime, density, k):
    # h = rate G_best + b int S ds by quad over s, and phi = b (Q(U) - E q_min) at the knots: Q from
    # Q(0) = q_best on against a bisection of F's closed form, and E q_min = q_best + int S ds, the table's
    # trapezoid mean of Q, by quad; the table integrates in t by the midpoint rule and takes Q between its
    # points, whose errors move the variance cut and not the mean
    table = within_tier.control_table(*REGIMES[regime][:2], density, k, PARAMS)
    nodes = node_lengths(table)
    for j in (0, nodes.size // 2):
        r = nodes[j]
        worst, best = tier_bracket("D", np.array([r]), PARAMS)
        for tier in _tiers(r):
            if tier > table.h.shape[0]:
                continue
            lo, hi = (x[0] for x in q_range(np.array([r]), np.array([tier])))
            slope = _secant(r, tier)
            mean = quad(lambda s: _survival(r, tier, np.array([s]), density, k)[0], lo, hi, limit=200)[0]
            assert table.h[tier - 1, j] == pytest.approx(best[tier - 1, 0] + slope * mean, abs=2e-4), (r, tier)
            phi = table.phi[tier - 1, j]
            q = lo + (phi - phi[0]) / slope
            np.testing.assert_allclose(q, [quantile(r, tier, u, density, k) for u in KNOTS], rtol=2e-3)
            assert q[0] - phi[0] / slope == pytest.approx(lo + mean, rel=2e-3), (r, tier)


@pytest.mark.parametrize("regime", ["C", "D1", "D2", "all"])
@pytest.mark.parametrize("density,k", [(0.005, None), (0.0005, 10)])
def test_phi_has_mean_0_and_falls_in_u(regime, density, k):
    # U is Uniform(0, 1) given r and the tier, and phi is linear in U between the knots, so each row's mean is
    # its trapezoid sum, 0 up to rounding; Q rises with U and b <= 0, so phi falls
    table = within_tier.control_table(*REGIMES[regime][:2], density, k, PARAMS)
    phi = table.phi
    assert phi.shape == (*table.h.shape, KNOTS.size) and not phi.flags.writeable
    mean = (0.5 * (phi[..., 1:] + phi[..., :-1]) * np.diff(KNOTS)).sum(axis=-1)
    assert np.all(np.abs(mean) <= 1e-12 * np.abs(phi).max(axis=-1))
    assert np.all(np.diff(phi, axis=-1) <= 0)
    # 0 where the tier has no area (tier 1 from 96.4 m on, tiers 4 and 5 of class C) or b = 0 (tier 1 at
    # 96.4 m, where its best and worst positions meet); a tier with an area and b < 0 falls
    nodes = node_lengths(table)
    areas = tier_areas(nodes)[:phi.shape[0]]
    b = np.array([[_secant(r, tier) for r in nodes] for tier in range(1, phi.shape[0] + 1)])
    flat = (areas == 0.0) | (b == 0.0)
    assert flat.any() == (regime != "C")
    assert np.all(phi[flat] == 0.0)
    assert np.all(phi[~flat][:, 0] > phi[~flat][:, -1])


@pytest.mark.parametrize("k", [None, 3, 10])
def test_band_uniform_inverts_the_link_length_draw(k):
    # the class edges of regime "all" sit where the link-length draw puts their uniforms
    table = within_tier.control_table(*REGIMES["all"][:2], 0.0005, k, PARAMS)
    assert table.edges.tolist() == [48.2, 67.1, 74.7]
    assert np.all((table.edge_u > 0) & (table.edge_u < 1))
    r = mc._link_distance(table.edge_u, REGIMES["all"][:2], 0.0005, k)
    np.testing.assert_allclose(r, table.edges, rtol=1e-10)
    # the rate halves at 48.2 m, where both sides score their direct links
    assert table.jump[0] < 0
