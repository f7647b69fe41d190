"""The tier regions' second moments about the S-D midpoint and the S-D line, and the conventional control's means.

`stochastic_geometry.tier_areas(r, moments=True)` returns each region's
moments J about the midpoint and I about the S-D line from the lens pass of
its area, and a helper uniform in region j has the mean d_SH^2 + d_HD^2
Qbar_j = 2 J_j / S_j + r^2 / 2 and the mean squared distance from the S-D
line Ybar^2_j = I_j / S_j.  These tests pin Qbar and Ybar^2 against a
quadrature of the geometry alone (`moment_oracle`), and the lens's I
itself; check the limits of I and that 0 <= I <= J; that the moment pass
keeps the areas' and J's bits and warns of nothing; that the thin-lens path
(`exact`) is exact to rounding near the 96.4 m tangency where the plain
lens terms cancel; that the Monte Carlo's clipped means
(`monte_carlo._region_means`) stay in the region's ranges there; that Ybar^2
is the mean of the y^2 of helpers the package places; and that Qbar lies in
the region's range of q.
"""

import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coopmac import monte_carlo as mc
from coopmac.channel_model import ChannelParams, tier_q_bracket
from coopmac.stochastic_geometry import BAND_2, TIER1_MAX_SEPARATION, _lens, tier_areas
from moment_oracle import lens_moments, region_moments
from test_stochastic_geometry import _ulps_around

PARAMS = ChannelParams()
# each tier's worst position, both hops at the outer edges of its bands, by hand
_WORST_HOPS = ((48.2, 48.2), (48.2, 67.1), (67.1, 67.1), (48.2, 74.7), (67.1, 74.7))
# sha256 of the areas and J of the digest in `_area_and_j_digest`, before I was added to the moment pass
_AREA_AND_J_DIGEST = "c06e7b083aa33cd726de07bc3a73151fe4509ad94710a12f8ab2d08077418a0d"


def _means(r, exact=False):
    """(areas, Qbar, Ybar^2) of the five regions at link lengths r, from the package's kernel."""
    areas, j, i = tier_areas(r, moments=True, exact=exact)
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


def _area_and_j_digest():
    """sha256 of the areas and J of `tier_areas` and `_lens`, plain and exact, over link lengths and separations of every kind."""
    r = np.concatenate([np.linspace(67.1, 100.0, 3291)]
                       + [_ulps_around(x, 32) for x in (67.1, BAND_2, TIER1_MAX_SEPARATION, 100.0)])
    r = r[(r >= 67.1) & (r <= 100.0)]
    digest = hashlib.sha256()
    for links in (r, r[r < BAND_2], r[(r >= BAND_2) & (r < TIER1_MAX_SEPARATION)], r[r >= TIER1_MAX_SEPARATION]):
        for exact in (False, True):
            for x in tier_areas(links, moments=True, exact=exact)[:2]:
                digest.update(x.tobytes())
    r1, r2 = np.array([[48.2], [67.1], [74.7], [30.0]]), np.array([[48.2], [48.2], [67.1], [74.7]])
    d = np.concatenate([np.linspace(0.0, 150.0, 1501), 96.4 - np.logspace(-12, 0, 25)])
    for exact in (False, True):
        for x in _lens(r1, r2, d, moment=True, exact=exact)[:2]:
            digest.update(x.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("r", [67.2, 70.0, 74.6, 74.8, 85.0, 96.3, 96.5, 99.9])
def test_region_means_match_polar_oracle(r):
    # the thin-lens path where tier 1's lens is near tangency (96.3 m), the plain one elsewhere
    areas, mean_q, mean_y2 = _means(np.array([r]), exact=True)
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
    area, j, axis = _lens(r1, r2, d, moment=True)
    for x, got_area, got in zip(d, area, axis):
        want_area, want = lens_moments(r1, r2, x)
        assert got_area == pytest.approx(want_area, rel=1e-11)
        assert got == pytest.approx(want, rel=1e-9), x
    # the moment about the line lies below the one about the midpoint, which adds the squared distance along it
    assert np.all((axis >= 0) & (axis <= j))


def test_lens_axis_moment_limits():
    # an enclosed circle has pi r^4 / 4 about a diameter, wherever it sits; apart or tangent, 0
    d = np.array([0.0, 5.0, 20.0, 39.0, 40.0, 50.0])
    for exact in (False, True):
        _, j, axis = _lens(10.0, 30.0, d, moment=True, exact=exact)
        np.testing.assert_allclose(axis[:3], np.pi * 10.0 ** 4 / 4, rtol=1e-15)
        assert axis[4:].tolist() == [0.0, 0.0]
        assert 0.0 <= axis[3] <= j[3]
    # equal circles at d = 0 are one circle
    assert _lens(48.2, 48.2, np.array([0.0]), moment=True)[2][0] == pytest.approx(np.pi * 48.2 ** 4 / 4, rel=1e-15)


def test_region_moments_lie_between_0_and_j():
    r = np.concatenate([np.linspace(67.1, 100.0, 3301)] + [_ulps_around(x, 64) for x in (BAND_2, TIER1_MAX_SEPARATION)])
    areas, j, axis = tier_areas(r, moments=True, exact=True)
    # up to the rounding of the lens combination, 1e-12 of the region's J
    slack = 1e-12 * np.abs(j) + 1e-9
    assert np.all(axis >= -slack) and np.all(axis <= j + slack)
    assert np.all(axis[areas == 0.0] == 0.0)


def test_moment_pass_keeps_the_area_bits():
    r = np.concatenate([np.random.default_rng(21).uniform(67.1, 100.0, 20_000)]
                       + [_ulps_around(x, 32) for x in (67.1, BAND_2, TIER1_MAX_SEPARATION, 100.0)])
    r = r[(r >= 67.1) & (r <= 100.0)]
    for links in (r, r[r < BAND_2], r[(r >= BAND_2) & (r < TIER1_MAX_SEPARATION)], r[r >= TIER1_MAX_SEPARATION]):
        assert tier_areas(links, moments=True)[0].tobytes() == tier_areas(links).tobytes()
    r1, r2 = np.array([[48.2], [67.1], [74.7]]), np.array([[48.2], [48.2], [67.1]])
    assert _lens(r1, r2, r, moment=True)[0].tobytes() == _lens(r1, r2, r).tobytes()
    # and the areas and J have the bits they had before the pass took I too
    assert _area_and_j_digest() == _AREA_AND_J_DIGEST


def test_moment_kernel_emits_no_runtime_warning():
    r = np.concatenate([np.linspace(67.1, 100.0, 5001)]
                       + [_ulps_around(x, 64) for x in (67.1, BAND_2, TIER1_MAX_SEPARATION, 100.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for exact in (False, True):
            areas, j, axis = tier_areas(r, moments=True, exact=exact)
            assert np.isfinite(j).all() and np.isfinite(axis).all()
        # near tangency only the exact path gives the moments their sign
        assert (j >= 0).all() and (axis >= 0).all()
        # the limits: apart, tangent, one circle inside the other, and d = 0
        area, moment, axis = _lens(10.0, 30.0, np.array([0.0, 5.0, 20.0, 39.0, 40.0, 50.0]), moment=True, exact=True)
    assert np.isfinite(moment).all() and np.isfinite(axis).all()
    np.testing.assert_allclose(moment[:3], np.pi * 100 * (50 + np.array([0.0, 5.0, 20.0]) ** 2 / 4), rtol=1e-15)
    assert moment[4:].tolist() == [0.0, 0.0]


@pytest.mark.parametrize("radii", [(48.2, 48.2), (48.2, 67.1), (30.0, 74.7)])
def test_thin_lens_is_exact_near_tangency(radii):
    # the plain lens terms cancel near external tangency; the thin-lens path does not
    r1, r2 = radii
    gaps = np.array([1e-12, 1e-9, 1e-6, 2e-5, 1e-3, 0.05, 0.1, 1.0, 10.0])
    d = r1 + r2 - gaps
    got_all = _lens(r1, r2, d, moment=True, exact=True)
    want = np.array([_exact_lens(r1, r2, x) for x in d])
    # exact moves the bits only where the circles are this close to tangency, and is exact there; just
    # outside that zone the plain I, whose terms cancel to the fifth power of the segment's angle, keeps 1e-6
    plain = _lens(r1, r2, d, moment=True)
    thin = gaps < 0.0025 * min(radii)
    for got, old, exact, rtol in zip(got_all, plain, want.T, (1e-8, 1e-8, 1e-6)):
        np.testing.assert_allclose(got[thin], exact[thin], rtol=1e-13)
        np.testing.assert_allclose(got[~thin], exact[~thin], rtol=rtol)
        assert got[~thin].tobytes() == old[~thin].tobytes()
    # where the plain terms are off by more than that
    assert abs(plain[1][2] / want[2, 1] - 1) > 1e-3
    assert abs(plain[2][2] / want[2, 2] - 1) > 1e-3


def _tier1_choice(r, exact=False):
    """A conventional `_TierChoice` whose every link of length r chose tier 1, with its moments."""
    areas, j, i = tier_areas(r, moments=True, exact=exact)
    links = np.arange(r.size)
    return mc._TierChoice(links, np.ones(r.size, dtype=int), areas[0], None, areas, np.zeros(r.size), (j[0], i[0]))


def test_tier1_means_near_tangency():
    r = np.array([96.3, 96.39, 96.3997, np.nextafter(96.4, 0.0)])
    for i, x in enumerate(r):
        area, moment, axis = _exact_lens(48.2, 48.2, x)
        # the exact kernel is accurate where the plain one is not ...
        _, mean_q, mean_y2 = _means(r, exact=True)
        assert mean_q[0, i] == pytest.approx(2 * moment / area + x * x / 2, rel=1e-13)
        assert mean_y2[0, i] == pytest.approx(axis / area, rel=1e-12)
    # ... and the Monte Carlo's plain means, clipped, stay in tier 1's ranges wherever the region has an
    # area, which the last length's plain one has not, and warn of nothing
    r = r[:-1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mean_q, mean_y2 = mc._region_means(_tier1_choice(r), r, slice(None))
    assert np.all((mean_q >= r * r / 2) & (mean_q <= 2 * 48.2 ** 2))
    assert np.all((mean_y2 >= 0) & (mean_y2 <= (mean_q - r * r / 2) / 2))
    _, exact_q, exact_y2 = _means(r, exact=True)
    error = np.abs(mean_q / exact_q[0] - 1)
    assert np.all(error <= [1e-10, 1e-8, 1e-5]), error
    # the plain y^2 moment loses more to cancellation: 13% of it at 3e-4 m from tangency, in a region of
    # 4e-6 m^2, which the clip keeps inside [0, |H - M|^2]
    error = np.abs(mean_y2 / exact_y2[0] - 1)
    assert np.all(error <= [1e-8, 1e-4, 0.5]), error


def test_means_are_finite_and_in_range_at_every_link_length():
    # every tier, at every length where its region has an area, the doubles around 74.7 and 96.4 m included
    r = np.concatenate([np.linspace(67.1, 100.0, 3301)] + [_ulps_around(x, 64) for x in (BAND_2, TIER1_MAX_SEPARATION)])
    areas, *moments = tier_areas(r, moments=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for tier in range(1, 6):
            links = np.flatnonzero(areas[tier - 1] > 0.0)
            choice = mc._TierChoice(links, np.full(links.size, tier), areas[tier - 1, links], None, areas,
                                    np.zeros(r.size), tuple(x[tier - 1, links] for x in moments))
            mean_q, mean_y2 = mc._region_means(choice, r, slice(None))
            worst, best = tier_q_bracket(r[links], choice.tier)
            assert np.all((mean_q >= best) & (mean_q <= worst)), tier
            assert np.all((mean_y2 >= 0) & (mean_y2 <= (mean_q - r[links] ** 2 / 2) / 2)), tier


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
    # each link's own tier, as the Monte Carlo reads it, has the table's bits
    tier = np.arange(r.size) % 5 + 1
    worst, best = tier_q_bracket(r, tier)
    assert worst.tobytes() == q_worst[tier - 1].tobytes()
    assert best.tobytes() == q_best[tier - 1, np.arange(r.size)].tobytes()


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.floats(67.1, 100.0, exclude_max=True))
@example(96.4)
def test_region_mean_q_lies_in_the_region_q_range(x):
    r = np.array([x, np.nextafter(x, 0.0)])
    r = r[r >= 67.1]
    areas, mean_q, _ = _means(r, exact=True)
    q_worst, q_best = tier_q_bracket(r)
    present = areas > 0
    assert np.all(mean_q[present] >= q_best[present])
    assert np.all(mean_q[present] <= np.broadcast_to(q_worst[:, None], present.shape)[present])
    # Ybar^2 <= J / S, the mean of |H - M|^2; next to the tangency tier 1's sliver lies across the axis, where
    # y^2 is nearly all of it, and the two moments' series agree to rounding
    areas, j, axis = tier_areas(r, moments=True, exact=True)
    assert np.all(axis[present] <= j[present] * (1 + 1e-9))
