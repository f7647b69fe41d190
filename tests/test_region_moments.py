"""The tier regions' moments about the S-D midpoint and the S-D line, and the conventional control's means.

`stochastic_geometry.tier_moments` returns, for each link's own region, its
moments J about the midpoint and I about the S-D line, and its fourth
moments, from the lens closed forms and the thin segments' series of
`_lens_moments`; a helper uniform in region j has the mean
d_SH^2 + d_HD^2 Qbar_j = 2 J_j / S_j + r^2 / 2 and the mean squared
distance from the S-D line Ybar^2_j = I_j / S_j.  These tests pin Qbar and
Ybar^2 against a quadrature of the geometry alone (`moment_oracle`), and
the lens's I itself; check the limits of I and that 0 <= I <= J; that the
areas keep their bits and the moments warn of nothing; that apart and
tangent circles have no lens; that the thin-lens series of the areas and
the lens moments are exact to rounding near the 96.4 m tangency where the
plain lens terms cancel, in the kernel and in the scalar views of areas,
tier law and bounds; that the Monte Carlo's means
(`within_tier._region_means`) stay in the region's ranges there unclipped;
that Ybar^2 is the mean of the y^2 of helpers the package places; and that
Qbar lies in the region's range of q.  The regions' fourth moments are
pinned against the same oracle, to 1e-9, in every table segment and across
the 96.4 m tangency layer, with their apart, tangent and enclosed limits,
and the analytic-mode conventional control's square and product terms,
centred on the covariances they give, have mean 0 over placed helpers.
"""

import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coopmac import monte_carlo as mc
from coopmac import within_tier
from coopmac.analytic_bounds import _link_bounds, link_bounds_at_distance, tier_probabilities
from coopmac.channel_model import ChannelParams, tier_q_bracket
from coopmac.stochastic_geometry import (BAND_2, TIER1_MAX_SEPARATION, _lens, _lens_moments, lens_area, tier_areas,
                                        tier_moments, tier_region_areas)
from moment_oracle import lens_fourth_moments, lens_moments, region_fourth_moments, region_moments
from test_stochastic_geometry import _ulps_around
from within_tier_reference import region_covariances

PARAMS = ChannelParams()
# each tier's worst position, both hops at the outer edges of its bands, by hand
_WORST_HOPS = ((48.2, 48.2), (48.2, 67.1), (67.1, 67.1), (48.2, 74.7), (67.1, 74.7))
# sha256 of `_area_digests`' tier areas, which the moments' move out of the lens pass of the areas kept, and of its
# lenses, re-recorded when two lenses of radii 67.1 and 48.2 m at 18.9 and 19 m, next to internal tangency, were
# taken segment by segment (the first was 1.4e-9 above the smaller circle)
_TIER_AREA_DIGEST = "a45b9947fc56d319105f0f2c527d82e16b7cf2a023fd5029437576666d16aa61"
_LENS_AREA_DIGEST = "b27065e3f1facf52df0aa14614d43324bdf84cc0f76e812883b5ed203df82b5d"


def _moments(r):
    """(areas, J, I) of the five regions at link lengths r, (5, len(r)) each, J and I 0 where a region has no area."""
    areas = tier_areas(r)
    j, i = np.zeros(areas.shape), np.zeros(areas.shape)
    tier, link = np.nonzero(areas)
    j[tier, link], i[tier, link] = tier_moments(r[link], tier + 1)[:2]
    return areas, j, i


def _means(r):
    """(areas, Qbar, Ybar^2) of the five regions at link lengths r, from the package's kernel."""
    areas, j, i = _moments(r)
    with np.errstate(divide="ignore", invalid="ignore"):
        return areas, 2.0 * j / areas + 0.5 * r * r, i / areas


def _best_q(r):
    """(5, len(r)) d_SH^2 + d_HD^2 at each tier's best position of `tier_bracket`, by hand."""
    return np.array([r * r / 2, 48.2 ** 2 + (r - 48.2) ** 2, np.where(r <= 96.4, 2 * 48.2 ** 2, r * r / 2),
                     67.1 ** 2 + (r - 67.1) ** 2, np.full(r.shape, 48.2 ** 2 + 67.1 ** 2)])


def _exact_lens(r1, r2, d):
    """(area, moment about the centres' midpoint, moment about the line of the centres) of a lens, in 50-digit arithmetic."""
    # mpmath comes with the scientific stack but is not a declared dependency
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        r1, r2, d = mpmath.mpf(r1), mpmath.mpf(r2), mpmath.mpf(d)
        a1 = (d * d + r1 * r1 - r2 * r2) / (2 * d)
        h = mpmath.sqrt(r1 * r1 - a1 * a1)
        area = moment = axis = 0
        for r, a in ((r1, a1), (r2, d - a1)):
            alpha = mpmath.atan2(h, a)
            area += r * r * alpha - a * h
            # the segment's polar moment about its centre, moved to the midpoint d / 2 along its axis
            polar = r ** 4 * alpha / 2 - a * h * (3 * a * a + h * h) / 6
            moment += polar - d * (2 * h ** 3 / 3) + d * d / 4 * (r * r * alpha - a * h)
            # the sector's r^4 (alpha - s c) / 4 less the triangle's a h^3 / 6 (s = h / r, c = a / r)
            axis += r ** 4 * alpha / 4 - r * r * a * h / 4 - a * h ** 3 / 6
        return float(area), float(moment), float(axis)


def _area_digests():
    """sha256 of the areas of `tier_areas`, and of `_lens`, over link lengths and separations of every kind."""
    r = np.concatenate([np.linspace(67.1, 100.0, 3291)]
                       + [_ulps_around(x, 32) for x in (67.1, BAND_2, TIER1_MAX_SEPARATION, 100.0)])
    r = r[(r >= 67.1) & (r <= 100.0)]
    tiers = hashlib.sha256()
    for links in (r, r[r < BAND_2], r[(r >= BAND_2) & (r < TIER1_MAX_SEPARATION)], r[r >= TIER1_MAX_SEPARATION]):
        tiers.update(tier_areas(links).tobytes())
    r1, r2 = np.array([[48.2], [67.1], [74.7], [30.0]]), np.array([[48.2], [48.2], [67.1], [74.7]])
    d = np.concatenate([np.linspace(0.0, 150.0, 1501), 96.4 - np.logspace(-12, 0, 25)])
    return tiers.hexdigest(), hashlib.sha256(_lens(r1, r2, d).tobytes()).hexdigest()


@pytest.mark.parametrize("r", [67.2, 70.0, 74.6, 74.8, 85.0, 96.3, 96.5, 99.9])
def test_region_means_match_polar_oracle(r):
    # the thin-lens path where tier 1's lens is near tangency (96.3 m), the plain one elsewhere
    areas, mean_q, mean_y2 = _means(np.array([r]))
    for tier in range(1, 6):
        if tier > 3 and r < BAND_2 or tier == 1 and r >= TIER1_MAX_SEPARATION:
            assert areas[tier - 1, 0] == 0.0
            continue
        area, want_q, want_y2 = region_moments(tier, r)
        assert areas[tier - 1, 0] == pytest.approx(area, rel=1e-11), tier
        assert mean_q[tier - 1, 0] == pytest.approx(want_q, rel=1e-9), tier
        assert mean_y2[tier - 1, 0] == pytest.approx(want_y2, rel=1e-9), tier


@pytest.mark.parametrize("radii", [(48.2, 48.2), (48.2, 67.1), (67.1, 74.7), (48.2, 74.7), (74.7, 30.0)])
def test_lens_axis_moment_matches_the_oracle(radii):
    # away from tangency, from a lens that holds most of the smaller circle to a thin one; nearer to external
    # tangency the plain terms cancel (`test_thin_lens_is_exact_near_tangency`)
    r1, r2 = radii
    d = np.linspace(abs(r1 - r2) + 0.5, r1 + r2 - 2.0, 9)
    area = _lens(r1, r2, d)
    j, axis = _lens_moments(r1, r2, d)[:2]
    for x, got_area, got in zip(d, area, axis):
        want_area, want = lens_moments(r1, r2, x)
        assert got_area == pytest.approx(want_area, rel=1e-11)
        assert got == pytest.approx(want, rel=1e-9), x
    # the moment about the line lies below the one about the midpoint, which adds the squared distance along it
    assert np.all((axis >= 0) & (axis <= j))


def test_lens_axis_moment_limits():
    # an enclosed circle has pi r^4 / 4 about a diameter, wherever it sits; apart or tangent, 0
    d = np.array([0.0, 5.0, 20.0, 39.0, 40.0, 50.0])
    j, axis = _lens_moments(10.0, 30.0, d)[:2]
    np.testing.assert_allclose(axis[:3], np.pi * 10.0 ** 4 / 4, rtol=1e-15)
    assert axis[4:].tolist() == [0.0, 0.0]
    assert 0.0 <= axis[3] <= j[3]
    # equal circles at d = 0 are one circle
    assert _lens_moments(48.2, 48.2, np.array([0.0]))[1][0] == pytest.approx(np.pi * 48.2 ** 4 / 4, rel=1e-15)


def test_region_moments_lie_between_0_and_j():
    r = np.concatenate([np.linspace(67.1, 100.0, 3301)] + [_ulps_around(x, 64) for x in (BAND_2, TIER1_MAX_SEPARATION)])
    areas, j, axis = _moments(r)
    # up to the rounding of the lens combination, 1e-12 of the region's J
    slack = 1e-12 * np.abs(j) + 1e-9
    assert np.all(axis >= -slack) and np.all(axis <= j + slack)
    assert np.all(axis[areas == 0.0] == 0.0)


def test_moment_pass_keeps_the_area_bits():
    # the areas have the bits they had when the lens pass of the areas took J and I too
    assert _area_digests() == (_TIER_AREA_DIGEST, _LENS_AREA_DIGEST)


def test_second_moments_alone_keep_their_bits():
    # J and I taken without the fourth moments, as sampled conventional chunks take them, have the bits of all five:
    # every tier over the class C and D lengths, the thin tier-1 sliver near 96.4 m included, and lenses apart,
    # thin, enclosed and at d = 0
    r = np.concatenate([np.linspace(67.1, 100.0, 2001)] + [_ulps_around(x, 16) for x in (BAND_2, TIER1_MAX_SEPARATION)])
    r = r[(r >= 67.1) & (r <= 100.0)]
    for tier in range(1, 6):
        links = r[r >= BAND_2] if tier > 3 else r
        tiers = np.full(links.size, tier)
        assert tier_moments(links, tiers, 2).tobytes() == tier_moments(links, tiers)[:2].tobytes()
    d = np.concatenate([np.linspace(0.0, 150.0, 1501), 96.4 - np.logspace(-12, 0, 25)])
    for r1, r2 in ((48.2, 48.2), (48.2, 67.1), (30.0, 74.7), (10.0, 30.0)):
        assert _lens_moments(r1, r2, d, 2).tobytes() == _lens_moments(r1, r2, d)[:2].tobytes()


def test_moment_kernel_emits_no_runtime_warning():
    r = np.concatenate([np.linspace(67.1, 100.0, 5001)]
                       + [_ulps_around(x, 64) for x in (67.1, BAND_2, TIER1_MAX_SEPARATION, 100.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        areas, j, axis = _moments(r)
        assert np.isfinite(j).all() and np.isfinite(axis).all()
        # near tangency the thin-lens series gives the moments their sign
        assert (j >= 0).all() and (axis >= 0).all()
        # the limits: apart, tangent, one circle inside the other, and d = 0
        moment, axis = _lens_moments(10.0, 30.0, np.array([0.0, 5.0, 20.0, 39.0, 40.0, 50.0]))[:2]
    assert np.isfinite(moment).all() and np.isfinite(axis).all()
    np.testing.assert_allclose(moment[:3], np.pi * 100 * (50 + np.array([0.0, 5.0, 20.0]) ** 2 / 4), rtol=1e-15)
    assert moment[4:].tolist() == [0.0, 0.0]


@pytest.mark.parametrize("radii", [(48.2, 48.2), (48.2, 67.1), (30.0, 74.7), (10.0, 30.0)])
def test_apart_and_tangent_lenses_are_exactly_0(radii):
    # tangent, one and two ulps apart, well apart and up to infinity, where d^2 overflows; the thin-lens series
    # takes none of them
    r1, r2 = radii
    tangent = r1 + r2
    d = np.array([tangent, np.nextafter(tangent, np.inf), np.nextafter(np.nextafter(tangent, np.inf), np.inf),
                  tangent + 1e-9, tangent + 1.0, 1e100, 1e200, 1e300, np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (_lens(r1, r2, d), *_lens_moments(r1, r2, d)[:2]):
            assert x.tolist() == [0.0] * d.size
    assert lens_area(r1, r2, d).tolist() == [0.0] * d.size
    # tier 1's region from 96.4 m on, evaluated beside links that have one
    r = np.array([80.0, TIER1_MAX_SEPARATION, np.nextafter(TIER1_MAX_SEPARATION, np.inf), 97.0, 100.0])
    for x in (tier_areas(r)[0], *tier_moments(r, np.ones(r.size, dtype=int))[:2]):
        assert x[1:].tolist() == [0.0] * 4 and x[0] > 0.0


@pytest.mark.parametrize("radii", [(48.2, 48.2), (48.2, 67.1), (30.0, 74.7)])
def test_thin_lens_is_exact_near_tangency(radii):
    # the plain lens terms cancel near external tangency, where the thin-lens series takes over
    r1, r2 = radii
    gaps = np.array([1e-12, 1e-9, 1e-6, 2e-5, 1e-3, 0.05, 0.1, 1.0, 10.0])
    d = r1 + r2 - gaps
    got_all = (_lens(r1, r2, d), *_lens_moments(r1, r2, d)[:2])
    want = np.array([_exact_lens(r1, r2, x) for x in d])
    # the area exact to rounding where the circles are this close to tangency, and the lens formula's outside; the
    # moments, from the thin segments' series and the closed forms, at every gap
    thin = gaps < 0.0025 * min(radii)
    np.testing.assert_allclose(got_all[0][thin], want[thin, 0], rtol=1e-13)
    np.testing.assert_allclose(got_all[0][~thin], want[~thin, 0], rtol=1e-8)
    for got, exact in zip(got_all[1:], want.T[1:]):
        np.testing.assert_allclose(got, exact, rtol=1e-12)
    # the public view has the kernel's bits
    assert lens_area(r1, r2, d).tobytes() == got_all[0].tobytes()


@pytest.mark.parametrize("gap", [1e-6, 2e-5])
def test_scalar_views_take_the_thin_lens_at_the_tangency(gap):
    # the areas, the tier law and the bounds of one link 1e-6 and 2e-5 m below 96.4 m, where the lens formula's
    # tier-1 area would be off by 12% and 1e-3, have the 50-digit area, and the bounds are their kernel's row
    r = TIER1_MAX_SEPARATION - gap
    area = _exact_lens(48.2, 48.2, r)[0]
    assert lens_area(48.2, 48.2, r) == pytest.approx(area, rel=1e-12)
    assert tier_region_areas("D", r).area(1) == pytest.approx(area, rel=1e-12)
    density = 1e6
    assert tier_probabilities("D", r, density=density).probs[1] == pytest.approx(-np.expm1(-density * area), rel=1e-12)
    for conditioning in ({"density": density}, {"k": 10}):
        pair = link_bounds_at_distance("D1", r, **conditioning)
        row = _link_bounds("D1", np.array([r]), conditioning.get("density"), conditioning.get("k"), PARAMS)[:, 0]
        assert [pair.lower, pair.upper] == row.tolist()


def _tier1_means(r):
    """The means over tier 1's region of the moments of `tier_moments`, at every link of length r."""
    return tier_moments(r, np.ones(r.size, dtype=int)) / tier_areas(r)[0]


def test_tier1_means_near_tangency():
    r = np.array([96.3, 96.39, 96.3997, np.nextafter(96.4, 0.0)])
    _, mean_q, mean_y2 = _means(r)
    for i, x in enumerate(r):
        area, moment, axis = _exact_lens(48.2, 48.2, x)
        assert mean_q[0, i] == pytest.approx(2 * moment / area + x * x / 2, rel=1e-13)
        assert mean_y2[0, i] == pytest.approx(axis / area, rel=1e-12)
    # the Monte Carlo's means, unclipped, are these, stay in tier 1's ranges and warn of nothing; one ulp below
    # the tangency, where the region holds 1e-20 m^2, too
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got_q, got_y2 = within_tier._region_means(r, _tier1_means(r))
    np.testing.assert_allclose(got_q, mean_q[0], rtol=1e-15)
    np.testing.assert_allclose(got_y2, mean_y2[0], rtol=1e-15)
    assert np.all((got_q >= r * r / 2) & (got_q <= 2 * 48.2 ** 2))
    r = r[:-1]
    got_q, got_y2 = got_q[:-1], got_y2[:-1]
    assert np.all((got_y2 >= 0) & (got_y2 <= (got_q - r * r / 2) / 2))


def test_means_are_finite_and_in_range_at_every_link_length():
    # every tier, at every length where its region has an area: a grid, 200k random lengths, 6k within 1 m of
    # the 96.4 m tangency and the doubles around 67.1, 74.7, 96.4 and 100 m; so the means need no clip
    rng = np.random.default_rng(29)
    r = np.concatenate([np.linspace(67.1, 100.0, 3301), rng.uniform(67.1, 100.0, 200_000),
                        TIER1_MAX_SEPARATION - np.logspace(-14, 0, 6000)]
                       + [_ulps_around(x, 64) for x in (67.1, BAND_2, TIER1_MAX_SEPARATION, 100.0)])
    r = r[(r >= 67.1) & (r <= 100.0)]
    areas = tier_areas(r)
    q_worst, q_best = tier_q_bracket(r)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for tier in range(1, 6):
            links = np.flatnonzero(areas[tier - 1] > 0.0)
            moments = tier_moments(r[links], np.full(links.size, tier))
            j, i = moments[:2]
            mean_q, mean_y2 = within_tier._region_means(r[links], moments / areas[tier - 1, links])
            assert np.isfinite(mean_q).all() and np.isfinite(mean_y2).all(), tier
            assert np.all((mean_q >= q_best[tier - 1, links]) & (mean_q <= q_worst[tier - 1])), tier
            # 0 <= I <= J; y^2 <= |H - M|^2 = (q - r^2 / 2) / 2 at every point, up to Qbar's rounding, half an
            # ulp of r^2 / 2, which cancels next to the tangency
            floor = r[links] ** 2 / 2
            assert np.all((mean_y2 >= 0) & (i <= j)), tier
            assert np.all(mean_y2 <= (mean_q - floor) / 2 + np.spacing(floor) / 2), tier


@pytest.mark.parametrize("r,tier", [(70.0, 2), (85.0, 1), (98.0, 5)])
def test_mean_y2_matches_placed_helpers(r, tier):
    # 400k helpers placed as the conventional scheme places them, in batches of 100k; the mean of their
    # y^2 and q within 4 sigma of the region's Ybar^2 and Qbar
    n = 100_000
    links = np.full(n, r)
    areas = tier_areas(links[:1])
    area = areas[tier - 1, 0]
    choice = mc._TierChoice(np.arange(n), np.full(n, tier), np.full(n, area), None, np.zeros((5, n)), np.zeros(n))
    q, y2 = [], []
    for seed in range(4):
        _, q_batch, y2_batch = mc._best_g(np.random.default_rng(seed), links, choice, None, PARAMS)
        q.append(q_batch)
        y2.append(y2_batch)
    _, mean_q, mean_y2 = (x[tier - 1, 0] for x in _means(links[:1]))
    for sample, want in ((np.concatenate(y2), mean_y2), (np.concatenate(q), mean_q)):
        z = (sample.mean() - want) / (sample.std() / np.sqrt(sample.size))
        assert abs(z) <= 4, (want, sample.mean(), z)


def test_q_bracket_is_the_range_of_each_region():
    r = np.linspace(67.1, 100.0, 3301)
    q_worst, q_best = tier_q_bracket(r)
    assert q_worst == pytest.approx([a * a + b * b for a, b in _WORST_HOPS], rel=1e-15)
    np.testing.assert_allclose(q_best, _best_q(r), rtol=1e-14)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.floats(67.1, 100.0, exclude_max=True))
@example(96.4)
def test_region_mean_q_lies_in_the_region_q_range(x):
    r = np.array([x, np.nextafter(x, 0.0)])
    r = r[r >= 67.1]
    areas, mean_q, _ = _means(r)
    q_worst, q_best = tier_q_bracket(r)
    present = areas > 0
    assert np.all(mean_q[present] >= q_best[present])
    assert np.all(mean_q[present] <= np.broadcast_to(q_worst[:, None], present.shape)[present])
    # Ybar^2 <= J / S, the mean of |H - M|^2; next to the tangency tier 1's sliver lies across the axis, where
    # y^2 is nearly all of it, and the two moments' series agree to rounding
    areas, j, axis = _moments(r)
    assert np.all(axis[present] <= j[present] * (1 + 1e-9))


# link lengths of the fourth-moment checks: the three table segments with their ends 74.7 and 100 m, and the
# 96.28-96.4 m layer where tier 1's lens is thin
_FOURTH_LENGTHS = (67.2, 70.9, 74.6, 74.7, 80.0, 85.55, 92.0, 95.0, 96.2, 96.28, 96.3, 96.35, 96.39, 96.399, 96.3999,
                   96.5, 98.2, 100.0)


@pytest.mark.parametrize("r", _FOURTH_LENGTHS)
def test_fourth_moments_match_polar_oracle(r):
    # the means of rho^4, rho^2 y^2 and y^4 over every region with an area, rho = |H - M|, against dblquad of the
    # band table alone, and no warning from the closed forms or their series
    tiers = [t for t in range(1, 6) if not (t > 3 and r < BAND_2 or t == 1 and r >= TIER1_MAX_SEPARATION)]
    want = {t: region_fourth_moments(t, r) for t in tiers}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = tier_moments(np.full(len(tiers), r), np.array(tiers))[2:]
    for column, t in enumerate(tiers):
        area, *means = want[t]
        np.testing.assert_allclose(got[:, column] / area, means, rtol=1e-9, err_msg="tier %d" % t)


def _exact_lens_fourth(r1, r2, d):
    """The integrals of rho^4, rho^2 y^2 and y^4 over a lens, about the midpoint of its centres, in 50-digit arithmetic.

    Each segment of the circle of radius R beyond the chord, at the distance
    a from its centre, is integrated over its axis, with the half-height
    sqrt(R^2 - u^2) at u from the centre.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        r1, r2, d = mpmath.mpf(r1), mpmath.mpf(r2), mpmath.mpf(d)
        a1 = (d * d + r1 * r1 - r2 * r2) / (2 * d)
        total = [0, 0, 0]
        for radius, a, centre, sign in ((r1, a1, -d / 2, 1), (r2, d - a1, d / 2, -1)):
            def height(u, radius=radius):
                return mpmath.sqrt(radius * radius - u * u)

            def x(u, centre=centre, sign=sign):
                return centre + sign * u

            for i, f in enumerate((lambda u: x(u) ** 4 * 2 * height(u) + x(u) ** 2 * 4 * height(u) ** 3 / 3
                                   + 2 * height(u) ** 5 / 5,
                                   lambda u: x(u) ** 2 * 2 * height(u) ** 3 / 3 + 2 * height(u) ** 5 / 5,
                                   lambda u: 2 * height(u) ** 5 / 5)):
                total[i] += mpmath.quad(f, [a, radius])
        return [float(x) for x in total]


@pytest.mark.parametrize("radii", [(48.2, 48.2), (48.2, 67.1), (67.1, 67.1), (48.2, 74.7), (67.1, 74.7), (30.0, 74.7)])
def test_lens_fourth_moments_match_the_oracle(radii):
    # from nearly enclosed to nearly tangent, through the closed form and the thin segments' series; within
    # 1e-3 m of either tangency the oracle's own heights cancel, and 50-digit quadrature takes over
    r1, r2 = radii
    low, high = abs(r1 - r2), r1 + r2
    d = np.concatenate([low + np.array([1e-6, 1e-3, 0.1]), np.linspace(low + 1.0, high - 1.0, 7),
                        high - np.array([0.1, 1e-3, 1e-6])])
    d = d[d > 0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _lens_moments(r1, r2, d)[2:]
    for column, x in enumerate(d):
        near = min(x - low, high - x) <= 1e-3
        want = _exact_lens_fourth(r1, r2, x) if near else lens_fourth_moments(r1, r2, x)
        np.testing.assert_allclose(got[:, column], want, rtol=1e-9, err_msg=str(x))


@pytest.mark.parametrize("radii", [(48.2, 48.2), (10.0, 30.0), (30.0, 10.0)])
def test_lens_fourth_moment_limits(radii):
    # apart, tangent, and up to infinity: 0; enclosed, at any separation: the smaller circle about the midpoint
    r1, r2 = radii
    tangent, small = r1 + r2, min(radii)
    apart = np.array([tangent, np.nextafter(tangent, np.inf), tangent + 1.0, 1e100, 1e200, np.inf])
    inside = np.array([0.0, 0.5 * abs(r1 - r2), abs(r1 - r2)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _lens_moments(r1, r2, apart)[2:].tolist() == [[0.0] * apart.size] * 3
        got = _lens_moments(r1, r2, inside)[2:]
    # a disk of radius R whose centre lies e = d / 2 from the midpoint: pi R^2 (e^4 + 2 e^2 R^2 + R^4 / 3),
    # pi R^4 (e^2 / 4 + R^2 / 6) and pi R^6 / 8
    e, sq = inside / 2, small * small
    want = np.pi * np.array([sq * (e ** 4 + 2 * e * e * sq + sq * sq / 3), sq * sq * (e * e / 4 + sq / 6),
                             np.full(e.shape, sq ** 3 / 8)])
    np.testing.assert_allclose(got, want, rtol=1e-14)


@pytest.mark.parametrize("r,tier", [(70.0, 3), (85.0, 1), (96.3, 2), (98.0, 5)])
def test_covariances_match_placed_helpers(r, tier):
    # the analytic-mode control's square and product terms have mean 0 over helpers placed as the conventional
    # scheme places them: 400k helpers in batches of 100k, each mean within 4 sigma of 0
    n = 100_000
    links = np.full(n, r)
    areas, j, i = (x[tier - 1, :1] for x in _moments(links[:1]))
    choice = mc._TierChoice(np.arange(n), np.full(n, tier), np.full(n, areas[0]), None, np.zeros((5, n)), np.zeros(n))
    q, y2 = (np.concatenate(x) for x in zip(*(mc._best_g(np.random.default_rng(seed), links, choice, None, PARAMS)[1:]
                                              for seed in range(4))))
    dq, dy = q - (2 * j[0] / areas[0] + r * r / 2), y2 - i[0] / areas[0]
    v_qq, v_qy, v_yy = region_covariances(links[:1], np.array([tier]))
    for sample in (dq * dq - v_qq, dq * dy - v_qy, dy * dy - v_yy):
        z = sample.mean() / (sample.std() / np.sqrt(sample.size))
        assert abs(z) <= 4, z
