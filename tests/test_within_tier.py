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
from coopmac.channel_model import ChannelParams, g_joint, tier_bracket, tier_q_bracket
from coopmac.stochastic_geometry import (
    BAND_2,
    BAND_EDGES,
    REGIMES,
    classify_helper_tier,
    cumulative_areas,
    tier_arc,
    tier_arc_y2,
    tier_area_within,
    tier_areas,
)
from moment_oracle import region_area_within
from plain_scoring import plain_chunk
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
        u = within_tier.least_q_uniform(links, choice.tier, choice.area, choice.load,
                                          within_tier.least_q_distance(links, q), k)
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
            u = within_tier.least_q_uniform(links, choice.tier, choice.area, choice.load,
                                          within_tier.least_q_distance(links, q), k)
            assert np.all(np.isfinite(u) & (u >= 0) & (u <= 1)), (r, tier)
    # and phi finite and non-increasing in U at every node there, falling for tiers 2-5, and 0 for tier 1 at
    # the tangency itself
    for regime in ("D1", "D2", "all"):
        table = within_tier.control_table(*REGIMES[regime][:2], density, k, PARAMS)
        assert np.all(np.isfinite(table.h)) and np.all(np.isfinite(table.within))
        assert np.all(np.diff(table.within, axis=2) <= 0)
        near = np.abs(node_lengths(table) - TANGENCY) <= 0.12
        assert near.any()
        at = np.flatnonzero(node_lengths(table) == TANGENCY)
        assert at.size and np.all(table.within[0, at] == 0.0)
        assert np.all(table.within[1:, near, 0] > table.within[1:, near, -1])


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
            phi = table.within[tier - 1, j]
            q = lo + (phi - phi[0]) / slope
            np.testing.assert_allclose(q, [quantile(r, tier, u, density, k) for u in KNOTS], rtol=2e-3)
            assert q[0] - phi[0] / slope == pytest.approx(lo + mean, rel=2e-3), (r, tier)


@pytest.mark.parametrize("regime", ["C", "D1", "D2", "all"])
@pytest.mark.parametrize("density,k", [(0.005, None), (0.0005, 10)])
def test_phi_has_mean_0_and_falls_in_u(regime, density, k):
    # U is Uniform(0, 1) given r and the tier, and phi is linear in U between the knots, so each row's mean is
    # its trapezoid sum, 0 up to rounding; Q rises with U and b <= 0, so phi falls
    table = within_tier.control_table(*REGIMES[regime][:2], density, k, PARAMS)
    phi = table.within
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


def test_table_cache_is_bounded_by_bytes():
    # a sweep of 70 "all" cells, more than the 64 tables a bound by count kept, holds at most the byte budget,
    # keeps the most recent tables and rebuilds an evicted one bit for bit
    within_tier.control_table.cache_clear()
    densities = [0.0005 + 1e-5 * i for i in range(70)]
    first = within_tier.control_table(*REGIMES["all"][:2], densities[0], None, PARAMS)
    for density in densities[1:]:
        newest = within_tier.control_table(*REGIMES["all"][:2], density, None, PARAMS)
        info = within_tier.control_table.cache_info()
        assert info.nbytes <= within_tier._CACHE_BYTES
    assert 1 < info.currsize < len(densities)
    assert within_tier.control_table(*REGIMES["all"][:2], densities[-1], None, PARAMS) is newest
    again = within_tier.control_table(*REGIMES["all"][:2], densities[0], None, PARAMS)
    assert again is not first and all(a.tobytes() == b.tobytes() for a, b in zip(first, again))
    within_tier.control_table.cache_clear()
    assert within_tier.control_table.cache_info() == (0, 0)


def test_table_cache_keeps_a_bench_pass():
    # every table of one pass over the sparse and dense Monte Carlo cells of the benchmark stays cached
    for make in (within_tier.control_table, within_tier.region_table):
        make.cache_clear()
    cells = ([(regime, density, k) for density, k in ((0.0005, None), (0.001, None), (0.0005, 10), (0.001, 10),
                                                      (0.0005, 1)) for regime in ("C", "D1", "D2")]
             + [(regime, density, None) for density in (0.004, 0.005) for regime in ("C", "D1", "D2", "all")])
    tables = [make(*REGIMES[regime][:2], density, k, PARAMS) for regime, density, k in cells
              for make in (within_tier.control_table, within_tier.region_table)]
    again = [make(*REGIMES[regime][:2], density, k, PARAMS) for regime, density, k in cells
             for make in (within_tier.control_table, within_tier.region_table)]
    assert all(a is b for a, b in zip(tables, again))


def _arc_oracle(r, tier, t):
    """The mean of y^2 over the points of the circle |H - M| = t in tier `tier`, by quad over the angle.

    The circle is cut where a hop crosses a band edge, and each piece's tier
    is that of its midpoint by `classify_helper_tier`.
    """
    base, cross = t * t + r * r / 4, t * r
    cuts = {0.0, np.pi}
    for edge in BAND_EDGES[1:-1]:
        for cos in ((edge * edge - base) / cross, (base - edge * edge) / cross):
            if -1.0 < cos < 1.0:
                cuts.add(float(np.arccos(cos)))
    cuts = sorted(cuts)
    y2 = lambda w: (t * np.sin(w)) ** 2  # noqa: E731
    total = length = 0.0
    for w1, w2 in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (w1 + w2)
        d_sh, d_hd = np.hypot(t * np.cos(mid) + r / 2, t * np.sin(mid)), np.hypot(t * np.cos(mid) - r / 2, t * np.sin(mid))
        if classify_helper_tier(d_sh, d_hd, "C" if r < BAND_2 else "D") == tier:
            total += quad(y2, w1, w2, epsabs=0.0, epsrel=1e-13)[0]
            length += w2 - w1
    return total / length


# (r, tier, t): arcs that straddle cos w = 0 (tiers 1 and 3), arcs clipped at cos w = 1 (an end on the S-D
# line), whole circles (clipped at both -1 and 1), and arcs of the two-band tiers inside (-1, 1)
_ARCS = [(70.0, 1, 5.0), (80.0, 1, 10.0), (99.0, 3, 5.0), (85.0, 3, 30.0), (70.0, 3, 45.0), (70.0, 2, 20.0),
         (85.0, 4, 30.0), (85.0, 2, 15.0), (99.0, 5, 41.0), (85.0, 5, 48.0), (74.8, 4, 40.0), (96.5, 2, 24.0)]


@pytest.mark.parametrize("r,tier,t", _ARCS)
def test_arc_mean_of_y2_matches_quadrature(r, tier, t):
    lo, hi = tier_arc(np.array([r]), np.array([tier]), np.array([t]))
    assert -1.0 <= lo[0] < hi[0] <= 1.0
    got = tier_arc_y2(np.array([r]), np.array([tier]), np.array([t]))[0]
    assert got == pytest.approx(_arc_oracle(r, tier, t), rel=1e-9)


def test_arc_means_cover_straddled_and_clipped_arcs():
    lo, hi = tier_arc(*(np.array(x) for x in zip(*_ARCS)))
    assert np.any((lo < 0.0) & (hi > 0.0)) and np.any(hi == 1.0) and np.any(lo == -1.0)
    assert np.any((lo > -1.0) & (hi < 1.0))
    # a circle of radius 0 is the midpoint, on the S-D line
    assert tier_arc_y2(np.array([70.0]), np.array([1]), np.array([0.0]))[0] == 0.0


def _recorded_y2(regime, density, k, scheme, seed, n=3000):
    """`_best_g`'s (g, q, y2) for each link of `plain_scoring.plain_chunk`, and the same recomputed from its placed helpers.

    The helpers are recorded as `_place_in_tier` returns them, each with its
    link.  Each link's largest G and least q are the last and first of its
    helpers in a lexsort by (G, link) and by (q, link), and y^2 of the
    least-q one comes from Heron's formula for the triangle S, D, H:
    y = 2 x area / r.  Returns (got, want, twice_t2), got and want each a
    (g, q, y2).
    """
    seen = {}

    def place(rng, r, tier, area, count):
        seen["links"] = r
        out = place.real(rng, r, tier, area, count)
        seen["points"] = tuple(x.copy() for x in out)
        return out

    def best_g(*args, **kw):
        seen["out"] = out = best_g.real(*args, **kw)
        return out

    with pytest.MonkeyPatch.context() as patch:
        for name, fake in (("_place_in_tier", place), ("_best_g", best_g)):
            fake.real = getattr(mc, name)
            patch.setattr(mc, name, fake)
        plain_chunk(regime, density, scheme, n, PARAMS, "analytic", k, np.random.default_rng(seed))
    link, d_sh, d_hd = seen["points"]
    r = seen["links"][link]
    g, q = g_joint(d_sh, d_hd, PARAMS), d_sh ** 2 + d_hd ** 2
    order = np.lexsort((q, link))
    least = order[np.flatnonzero(np.diff(link[order], prepend=-1))]
    order = np.lexsort((g, link))
    most = order[np.flatnonzero(np.diff(link[order], append=-1))]
    s = (r + d_sh + d_hd) / 2
    area2 = s * (s - r) * (s - d_sh) * (s - d_hd)
    size = seen["links"].size
    want_g, want_q, want_y2 = np.zeros(size), np.full(size, np.inf), np.zeros(size)
    want_g[link[most]] = g[most]
    want_q[link[least]] = q[least]
    want_y2[link[least]] = 4.0 * np.maximum(area2[least], 0.0) / r[least] ** 2
    return seen["out"], (want_g, want_q, want_y2), seen["out"][1] - seen["links"] ** 2 / 2


_Y2_CELLS = [("C", 0.005, None), ("D1", 0.002, 10), ("all", 0.004, None)]


@pytest.mark.parametrize("regime,density,k,scheme",
                         [pytest.param(*cell, "proposed", id="-".join(map(str, cell))) for cell in _Y2_CELLS]
                         + [pytest.param(*cell, "conventional", id="-".join(map(str, (*cell, "conventional"))))
                            for cell in _Y2_CELLS])
def test_y2_is_that_of_the_least_q_helper(regime, density, k, scheme):
    (g, q, y2), (want_g, want_q, want_y2), twice_t2 = _recorded_y2(regime, density, k, scheme, seed=17)
    # the one scatter of `_best_g` is the reduction of a sort by link, bit for bit, over every rejection round
    assert g.tobytes() == want_g.tobytes() and q.tobytes() == want_q.tobytes()
    # Heron's form loses digits where the triangle is flat; both lie in [0, t^2]
    np.testing.assert_allclose(y2, want_y2, rtol=1e-9, atol=1e-9 * twice_t2.max())
    assert np.all(y2 >= -1e-9) and np.all(y2 <= twice_t2 / 2 + 1e-9)


@pytest.mark.parametrize("r", [70.9, 85.55, 98.2])
@pytest.mark.parametrize("density,k", [(0.005, None), (0.0005, 10)])
def test_y2_term_has_mean_0_given_the_link_and_tier(r, density, k):
    # y^2 of the least-q helper less its mean over the tier's arc at that q: |z| <= 4 for each tier
    n = 20_000
    for tier in _tiers(r):
        links = np.full(n, r)
        choice = _forced_choice(links, np.full(n, tier), density, k)
        _, q, y2 = mc._best_g(np.random.default_rng(int(10 * r) + 7 * tier), links, choice, k, PARAMS)
        x = y2 - tier_arc_y2(links, choice.tier, within_tier.least_q_distance(links, q))
        z = x.mean() / (x.std(ddof=1) / np.sqrt(n))
        assert abs(z) <= 4, (tier, z)
