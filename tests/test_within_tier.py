"""The proposed scheme's within-tier control: the area kernel, the uniform U and the table of centres and terms.

A link that chose tier i scores with the control c = h_i(r) + phi_i(r; U),
where U = F(q_min) is the law of the least d_SH^2 + d_HD^2 of the tier's
helpers at its drawn value, and h + phi at U is E_i(r; t), the mean of
rate x max G given that the least-q helper lies at t = t(Q_i(U)) from the
S-D midpoint, h its mean over U.  F needs B_i(s; r), the area of the tier's
region within t = sqrt((s - r^2 / 2) / 2) of the S-D midpoint
(`stochastic_geometry.tier_area_within`).  These tests check B against an
oracle written from the geometry alone (`moment_oracle.region_area_within`)
and for its shape, U for its uniformity given (r, tier) and against its
closed form (`within_tier_reference.uniform`), E at density 0, where it is
the mean of rate x G over the tier's arc, against `scipy.integrate.quad`
over the arc's angle (`within_tier_reference.arc_mean_g`), the table's h and
h + phi against the same table at a finer quadrature under both
conditionings and against the mean score of placed helpers in each decile
of U, phi's mean over U and its fall from U = 0 to U = 1, the table's build
time, and all of it next to the 96.4 m tangency where tier 1 empties.  Sampled mode's indicator term reads two more rows: each row's
indicator mean is checked against an integral over U by
`scipy.integrate.quad`, and its cap against the upper end of the bracket of
every link length the row serves.
"""

import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import chi2

from coopmac import monte_carlo as mc
from coopmac import within_tier
from coopmac.channel_model import ChannelParams, g_joint, tier_bracket
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
from test_conventional_oracle import _yardstick
from within_tier_reference import KNOTS, RATES, arc_mean_g, nearest_node, node_lengths, sure_share, uniform

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
    # and phi finite at every node there, falling from U = 0 to U = 1 for tiers 2-5, and 0 for tier 1 at the
    # tangency itself
    for regime in ("D1", "D2", "all"):
        table = within_tier.control_table(*REGIMES[regime][:2], density, k, PARAMS)
        assert np.all(np.isfinite(table.h)) and np.all(np.isfinite(table.within))
        near = np.abs(node_lengths(table) - TANGENCY) <= 0.12
        assert near.any()
        at = np.flatnonzero(node_lengths(table) == TANGENCY)
        assert at.size and np.all(table.within[0, at] == 0.0)
        assert np.all(table.within[1:, near, 0] > table.within[1:, near, -1])


# (r, tier, t): arcs that straddle cos w = 0 (tiers 1 and 3), arcs clipped at cos w = 1 (an end on the S-D
# line), whole circles (clipped at both -1 and 1), and arcs of the two-band tiers inside (-1, 1)
_ARCS = [(70.0, 1, 5.0), (80.0, 1, 10.0), (99.0, 3, 5.0), (85.0, 3, 30.0), (70.0, 3, 45.0), (70.0, 2, 20.0),
         (85.0, 4, 30.0), (85.0, 2, 15.0), (99.0, 5, 41.0), (85.0, 5, 48.0), (74.8, 4, 40.0), (96.5, 2, 24.0)]
# arcs within 0.1 m of the 96.4 m tangency: tier 1's, a sliver about cos w = 0, and tier 2's, clipped at cos w = 1
_TANGENT_ARCS = [(96.3, 1, 1.0), (96.35, 1, 0.5), (96.3, 2, 10.0)]


@pytest.mark.parametrize("r,tier,t", _ARCS + _TANGENT_ARCS)
def test_conditional_mean_at_density_0_is_the_arc_mean(r, tier, t):
    # with no other helper the least-q one holds max G, uniform on its tier's arc: E is the arc's mean of rate x G
    got = within_tier._conditional_means(np.array([r]), np.array([tier]), np.array([[t]]), np.array([[0.5]]),
                                         np.zeros(1), None, PARAMS)[0, 0]
    assert got == pytest.approx(arc_mean_g(r, tier, t, PARAMS), rel=1e-8)


@pytest.mark.parametrize("regime,density,k", [("C", 0.005, None), ("D1", 0.001, None), ("D2", 0.0005, 10),
                                              ("C", 0.001, 3)])
def test_table_matches_quadrature(regime, density, k, monkeypatch):
    # h and h + phi at the knots against the same table at 4x the midpoints in t, 2x the points on each arc
    # and 4x the levels of rate x G; over these cells they differ by at most 1.34e-2 Mbps at a knot, 2.6e-3 in
    # the root mean square over U of a row and 1.7e-3 in h, most of it from reading E linearly between the
    # midpoints in t
    table = within_tier.control_table(*REGIMES[regime][:2], density, k, PARAMS)
    for name, factor in (("_TABLE_POINTS", 4), ("_ARC_POINTS", 2), ("_LEVELS", 4)):
        monkeypatch.setattr(within_tier, name, factor * getattr(within_tier, name))
    fine = within_tier.control_table.__wrapped__(*REGIMES[regime][:2], density, k, PARAMS)
    np.testing.assert_allclose(table.h, fine.h, rtol=0, atol=2.5e-3)
    gap = (table.h[..., None] + table.within) - (fine.h[..., None] + fine.within)
    assert np.abs(gap).max() <= 1.6e-2
    rms = np.sqrt((0.5 * (gap[..., 1:] ** 2 + gap[..., :-1] ** 2) * np.diff(KNOTS)).sum(axis=-1))
    assert rms.max() <= 3e-3


@pytest.mark.parametrize("regime,density,k", [("C", 0.005, None), ("D1", 0.004, None), ("D1", 0.001, 10),
                                              ("C", 0.001, 3), ("D2", 0.002, 10)])
def test_table_is_the_mean_score_given_u(regime, density, k):
    # 20,000 links at the table's middle node forced into each tier, their helpers placed as the chunk places
    # them: in each decile of U from the second on, the mean of rate x max G less h + phi(U) lies within
    # 2e-3 Mbps plus 4 standard errors (at most 0.55 of that here; a void chance of twice or half the load,
    # or none, reads 2.5-7.7), and in the first decile, where the table reads E linearly from the tier's best
    # position to its first midpoint in t, within 0.02 (at most 0.0147)
    table = within_tier.control_table(*REGIMES[regime][:2], density, k, PARAMS)
    j = table.h.shape[1] // 2
    r = node_lengths(table)[j]
    n = 20_000
    for tier in _tiers(r):
        links = np.full(n, r)
        choice = _forced_choice(links, np.full(n, tier), density, k)
        g, q, _ = mc._best_g(np.random.default_rng(tier + 10 * j), links, choice, k, PARAMS)
        u = within_tier.least_q_uniform(links, choice.tier, choice.area, choice.load,
                                        within_tier.least_q_distance(links, q), k)
        gap = RATES[tier - 1] * g - table.h[tier - 1, j] - np.interp(u, KNOTS, table.within[tier - 1, j])
        decile = np.minimum((u * 10).astype(int), 9)
        count = np.bincount(decile, minlength=10)
        mean = np.bincount(decile, gap, 10) / count
        stderr = np.sqrt((np.bincount(decile, gap * gap, 10) / count - mean ** 2) / count)
        assert np.all(np.abs(mean[1:]) <= 2e-3 + 4 * stderr[1:]), (tier, mean, stderr)
        assert abs(mean[0]) <= 0.02, (tier, mean[0])


@pytest.mark.parametrize("regime", ["C", "D1", "D2", "all"])
@pytest.mark.parametrize("density,k", [(0.005, None), (0.0005, 10)])
def test_phi_has_mean_0_and_falls_in_u(regime, density, k):
    # U is Uniform(0, 1) given r and the tier, and phi is linear in U between the knots, so each row's mean is
    # its trapezoid sum, 0 up to rounding; from U = 0, where the least-q helper holds the tier's best
    # position, to U = 1, where it holds the worst, phi falls, though not at every knot
    table = within_tier.control_table(*REGIMES[regime][:2], density, k, PARAMS)
    phi = table.within
    assert phi.shape == (*table.h.shape, KNOTS.size) and not phi.flags.writeable
    mean = (0.5 * (phi[..., 1:] + phi[..., :-1]) * np.diff(KNOTS)).sum(axis=-1)
    assert np.all(np.abs(mean) <= 1e-12 * np.abs(phi).max(axis=-1))
    # 0 where the tier has no area (tier 1 from 96.4 m on, tiers 4 and 5 of class C)
    areas = tier_areas(node_lengths(table))[:phi.shape[0]]
    flat = areas == 0.0
    assert flat.any() == (regime != "C")
    assert np.all(phi[flat] == 0.0)
    assert np.all(phi[~flat][:, 0] > phi[~flat][:, -1])


# the proposed tables of the bench's sampled cells, regime `all`, and a one-helper table of the conventional indicator
_INDICATOR_TABLES = ([(regime, 0.001, k) for regime in ("C", "D1", "D2") for k in (None, 10)]
                     + [("all", 0.005, None), ("D1", 0.0, None)])


@pytest.mark.parametrize("regime,density,k", _INDICATOR_TABLES)
def test_indicator_mean_is_an_integral_over_u(regime, density, k):
    # x is uniform on [lo, rate) and independent of U, so 1{x < min(h + phi(U), cap)} has the mean of
    # clip((min(h + phi(U), cap) - lo) / (rate - lo), 0, 1) over U, phi linear in U between the knots
    table = within_tier.control_table(*REGIMES[regime][:2], density, k, PARAMS)
    assert table.hit.shape == table.cap.shape == table.h.shape and not table.hit.flags.writeable
    lo = sure_share(PARAMS)
    for tier in range(table.h.shape[0]):
        span = RATES[tier] - lo[tier]
        for node in range(0, table.h.shape[1], 2):
            h, phi, cap = table.h[tier, node], table.within[tier, node], table.cap[tier, node]

            def w(u):
                return min(max((min(h + np.interp(u, KNOTS, phi), cap) - lo[tier]) / span, 0.0), 1.0)

            # quad is told of the knots and of the kinks where the clip starts, between them
            at_knots = (h + phi - lo[tier]) / span
            kinks = [a + (c - y0) / (y1 - y0) * (b - a) for c in (0.0, (cap - lo[tier]) / span)
                     for a, b, y0, y1 in zip(KNOTS[:-1], KNOTS[1:], at_knots[:-1], at_knots[1:]) if (y0 - c) * (y1 - c) < 0]
            points = sorted({*KNOTS[1:-1], *kinks})
            want = quad(w, 0.0, 1.0, points=points, limit=400, epsabs=1e-13, epsrel=1e-13)[0]
            assert abs(table.hit[tier, node] - want) <= 1e-9, (tier + 1, node, table.hit[tier, node], want)


@pytest.mark.parametrize("regime,density,k", _INDICATOR_TABLES)
def test_indicator_cap_settles_every_link_its_row_serves(regime, density, k):
    # the squeeze settles a link whose x is at or above rate G_best(r) (1 + margin), so the cap of the row the
    # link reads must lie at or below that, for every link length of the row's cell; G_best falls with r, so the
    # cap is G_best at the cell's far end
    table = within_tier.control_table(*REGIMES[regime][:2], density, k, PARAMS)
    lo, hi = max(REGIMES[regime][0], 67.1), REGIMES[regime][1]
    r = np.concatenate((np.linspace(lo, hi, 40_001), node_lengths(table) + 0.125, node_lengths(table) - 0.125))
    r = r[(r >= lo) & (r <= hi)]
    node = nearest_node(table, r)
    best = tier_bracket("D", r, PARAMS)[1][:table.h.shape[0]]
    assert np.all(table.cap[:, node] <= best * (1 + mc._SQUEEZE_MARGIN))
    # and it is attained: each cap is the bracket's upper end at a link length the row serves, up to rounding
    nodes = node_lengths(table)
    ends = np.minimum(nodes + 0.5 / table.scale[np.searchsorted(table.splits, nodes, side="right")], hi)
    served = nearest_node(table, np.nextafter(ends, 0.0)) == np.arange(nodes.size)
    np.testing.assert_allclose(table.cap[:, served], tier_bracket("D", ends, PARAMS)[1][:best.shape[0], served], rtol=1e-9)


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


def test_table_is_built_quickly():
    # the best of three builds of the largest table, regime `all` at 0.005 nodes/m^2, each timed beside the numpy
    # yardstick of the conventional table's build test, so that a slow or busy host slows both; it took 3.1-3.2
    # yardsticks on 2 cores (28-29 ms), idle or with the other core busy, against 1.3-1.4 (12 ms) for the secant
    # model it replaced
    seconds = {"table": [], "yardstick": []}
    for _ in range(3):
        for name, run in (("table", lambda: within_tier.control_table.__wrapped__(*REGIMES["all"][:2], 0.005, None,
                                                                                 PARAMS)),
                          ("yardstick", _yardstick)):
            start = time.perf_counter()
            run()
            seconds[name].append(time.perf_counter() - start)
    assert min(seconds["table"]) <= 5.0 * min(seconds["yardstick"]), seconds


def test_table_cache_is_bounded_by_count():
    # a sweep of 70 "all" cells, more than the 26 tables the cache keeps, holds at most 26 tables, at most 26 "all"
    # tables' bytes, keeps the most recent tables and rebuilds an evicted one bit for bit
    within_tier.control_table.cache_clear()

    def table(density):
        return within_tier.control_table(*REGIMES["all"][:2], density, None, PARAMS)

    densities = [0.0005 + 1e-5 * i for i in range(70)]
    built = []
    for density in densities:
        built.append(table(density))
        info = within_tier.control_table.cache_info()
        assert info.currsize <= info.maxsize == 26
    assert info.currsize == 26
    # newest first, each held table is found again, up to the newest evicted one, which is rebuilt bit for bit
    kept = []
    for density, old in zip(densities[::-1], built[::-1]):
        again = table(density)
        if again is not old:
            break
        kept.append(again)
    assert len(kept) == 26 and kept[0] is built[-1]
    assert sum(array.nbytes for held in kept for array in held) <= 26 * sum(array.nbytes for array in built[0])
    assert all(a.tobytes() == b.tobytes() for a, b in zip(old, again))
    again = table(densities[0])
    assert again is not built[0] and all(a.tobytes() == b.tobytes() for a, b in zip(built[0], again))
    within_tier.control_table.cache_clear()
    assert within_tier.control_table.cache_info().currsize == 0


def test_table_cache_keeps_a_bench_pass():
    # every table of one pass over the sparse and dense Monte Carlo cells of the benchmark stays cached
    for make in (within_tier.control_table, within_tier.region_table):
        make.cache_clear()
    cells = ([(regime, density, k) for density, k in ((0.0005, None), (0.001, None), (0.0005, 10), (0.001, 10),
                                                      (0.0005, 1)) for regime in ("C", "D1", "D2")]
             + [(regime, density, None) for density in (0.004, 0.005) for regime in ("C", "D1", "D2", "all")])
    # the conventional indicator's one-helper tables of the sampled D1 and D2 cells
    single = [(regime, 0.0, None) for regime in ("D1", "D2")]
    tables = [make(*REGIMES[regime][:2], density, k, PARAMS) for regime, density, k in cells
              for make in (within_tier.control_table, within_tier.region_table)]
    tables += [within_tier.control_table(*REGIMES[regime][:2], density, k, PARAMS) for regime, density, k in single]
    again = [make(*REGIMES[regime][:2], density, k, PARAMS) for regime, density, k in cells
             for make in (within_tier.control_table, within_tier.region_table)]
    again += [within_tier.control_table(*REGIMES[regime][:2], density, k, PARAMS) for regime, density, k in single]
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
