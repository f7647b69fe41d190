"""The tier regions' second moments about the S-D midpoint, and the conventional control built on them.

`stochastic_geometry.tier_areas(r, moments=True)` returns each region's
moment J about the midpoint from the lens pass of its area, and a helper
uniform in region j has the mean d_SH^2 + d_HD^2 Qbar_j = 2 J_j / S_j +
r^2 / 2.  These tests pin Qbar against a quadrature of the geometry alone
(`moment_oracle`), check that the moment pass keeps the areas' bits and
warns of nothing, that the thin-lens path (`exact`) is exact to rounding
near the 96.4 m tangency where the plain lens terms cancel, that the
secant slope b of the control (`monte_carlo._secant`) is finite at every
link length, and that Qbar lies in the region's range of q.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopmac import monte_carlo as mc
from coopmac.channel_model import ChannelParams, tier_bracket, tier_q_bracket
from coopmac.stochastic_geometry import BAND_2, TIER1_MAX_SEPARATION, _lens, tier_areas
from moment_oracle import region_mean_q
from test_stochastic_geometry import _ulps_around

PARAMS = ChannelParams()
# each tier's worst position, both hops at the outer edges of its bands, by hand
_WORST_HOPS = ((48.2, 48.2), (48.2, 67.1), (67.1, 67.1), (48.2, 74.7), (67.1, 74.7))


def _mean_q(r, exact=False):
    """(areas, Qbar) of the five regions at link lengths r, from the package's kernel."""
    areas, moments = tier_areas(r, moments=True, exact=exact)
    with np.errstate(divide="ignore", invalid="ignore"):
        return areas, 2.0 * moments / areas + 0.5 * r * r


def _best_q(r):
    """(5, len(r)) d_SH^2 + d_HD^2 at each tier's best position of `tier_bracket`, by hand."""
    return np.array([r * r / 2, 48.2 ** 2 + (r - 48.2) ** 2, np.where(r <= 96.4, 2 * 48.2 ** 2, r * r / 2),
                     67.1 ** 2 + (r - 67.1) ** 2, np.full(r.shape, 48.2 ** 2 + 67.1 ** 2)])


def _exact_lens(r1, r2, d):
    """(area, moment about the centres' midpoint) of a lens, in 50-digit arithmetic."""
    # mpmath comes with the scientific stack but is not a declared dependency
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        r1, r2, d = mpmath.mpf(r1), mpmath.mpf(r2), mpmath.mpf(d)
        a1 = (d * d + r1 * r1 - r2 * r2) / (2 * d)
        h = mpmath.sqrt(r1 * r1 - a1 * a1)
        area = moment = 0
        for r, a in ((r1, a1), (r2, d - a1)):
            alpha = mpmath.atan2(h, a)
            area += r * r * alpha - a * h
            # the segment's polar moment about its centre, moved to the midpoint d / 2 along its axis
            polar = r ** 4 * alpha / 2 - a * h * (3 * a * a + h * h) / 6
            moment += polar - d * (2 * h ** 3 / 3) + d * d / 4 * (r * r * alpha - a * h)
        return float(area), float(moment)


@pytest.mark.parametrize("r", [67.2, 70.0, 74.6, 74.8, 85.0, 96.3, 96.5, 99.9])
def test_region_mean_q_matches_polar_oracle(r):
    areas, mean_q = _mean_q(np.array([r]))
    for tier in range(1, 6):
        if tier > 3 and r < BAND_2 or tier == 1 and r >= TIER1_MAX_SEPARATION:
            assert areas[tier - 1, 0] == 0.0
            continue
        area, want = region_mean_q(tier, r)
        assert areas[tier - 1, 0] == pytest.approx(area, rel=1e-11), tier
        assert mean_q[tier - 1, 0] == pytest.approx(want, rel=1e-9), tier


def test_moment_pass_keeps_the_area_bits():
    r = np.concatenate([np.random.default_rng(21).uniform(67.1, 100.0, 20_000)]
                       + [_ulps_around(x, 32) for x in (67.1, BAND_2, TIER1_MAX_SEPARATION, 100.0)])
    r = r[(r >= 67.1) & (r <= 100.0)]
    for links in (r, r[r < BAND_2], r[(r >= BAND_2) & (r < TIER1_MAX_SEPARATION)], r[r >= TIER1_MAX_SEPARATION]):
        assert tier_areas(links, moments=True)[0].tobytes() == tier_areas(links).tobytes()
    r1, r2 = np.array([[48.2], [67.1], [74.7]]), np.array([[48.2], [48.2], [67.1]])
    assert _lens(r1, r2, r, moment=True)[0].tobytes() == _lens(r1, r2, r).tobytes()


def test_moment_kernel_emits_no_runtime_warning():
    r = np.concatenate([np.linspace(67.1, 100.0, 5001)]
                       + [_ulps_around(x, 64) for x in (67.1, BAND_2, TIER1_MAX_SEPARATION, 100.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for exact in (False, True):
            areas, moments = tier_areas(r, moments=True, exact=exact)
            assert np.isfinite(moments).all()
        # near tangency only the exact path gives the moment its sign
        assert (moments >= 0).all()
        # the limits: apart, tangent, one circle inside the other, and d = 0
        area, moment = _lens(10.0, 30.0, np.array([0.0, 5.0, 20.0, 39.0, 40.0, 50.0]), moment=True, exact=True)
    assert np.isfinite(moment).all()
    np.testing.assert_allclose(moment[:3], np.pi * 100 * (50 + np.array([0.0, 5.0, 20.0]) ** 2 / 4), rtol=1e-15)
    assert moment[4:].tolist() == [0.0, 0.0]


@pytest.mark.parametrize("radii", [(48.2, 48.2), (48.2, 67.1), (30.0, 74.7)])
def test_thin_lens_is_exact_near_tangency(radii):
    # the plain lens terms cancel near external tangency; the thin-lens path does not
    r1, r2 = radii
    gaps = np.array([1e-12, 1e-9, 1e-6, 2e-5, 1e-3, 0.05, 0.1, 1.0, 10.0])
    d = r1 + r2 - gaps
    area, moment = _lens(r1, r2, d, moment=True, exact=True)
    want = np.array([_exact_lens(r1, r2, x) for x in d])
    # exact moves the bits only where the circles are this close to tangency, and is exact there
    plain = _lens(r1, r2, d, moment=True)
    thin = gaps < 0.0025 * min(radii)
    for got, old, exact in zip((area, moment), plain, want.T):
        np.testing.assert_allclose(got[thin], exact[thin], rtol=1e-13)
        np.testing.assert_allclose(got[~thin], exact[~thin], rtol=1e-8)
        assert got[~thin].tobytes() == old[~thin].tobytes()
    # where the plain terms are off by more than that
    assert abs(plain[1][2] / want[2, 1] - 1) > 1e-3


def test_tier1_mean_q_near_tangency():
    r = np.array([96.3, 96.39, 96.3997, np.nextafter(96.4, 0.0)])
    for i, x in enumerate(r):
        area, moment = _exact_lens(48.2, 48.2, x)
        want = 2 * moment / area + x * x / 2
        # the exact kernel is accurate where the plain one is not ...
        assert _mean_q(r, exact=True)[1][0, i] == pytest.approx(want, rel=1e-13)
    # ... and the Monte Carlo's plain moments, clipped, stay in tier 1's range of q wherever
    # the region has an area, which the last length's plain one has not
    r = r[:-1]
    plain = _mean_q(r)[1][0]
    worst, best = tier_bracket("D", r, PARAMS)
    slope, mean_q = mc._secant(worst, best[0], np.ones(r.size, dtype=int), r, plain)
    assert np.all((mean_q >= r * r / 2) & (mean_q <= 2 * 48.2 ** 2))
    error = np.abs(mean_q / _mean_q(r, exact=True)[1][0] - 1)
    assert np.all(error <= [1e-10, 1e-8, 1e-5]), error
    assert np.isfinite(slope).all() and (slope <= 0).all()


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


def test_secant_is_finite_at_every_link_length():
    r = np.concatenate([np.linspace(67.1, 100.0, 3301)] + [_ulps_around(x, 64) for x in (BAND_2, TIER1_MAX_SEPARATION)])
    worst, best = tier_bracket("D", r, PARAMS)
    _, mean_q = _mean_q(r)
    for tier in range(1, 6):
        t = np.full(r.size, tier)
        slope, _ = mc._secant(worst, best[tier - 1], t, r, np.nan_to_num(mean_q[tier - 1]))
        assert np.isfinite(slope).all() and (slope <= 0).all(), tier
        # b is the secant of rate x G between the best and worst positions
        q_worst, q_best = tier_q_bracket(r)
        gap = q_best[tier - 1] - q_worst[tier - 1]
        ok = gap < -1e-6
        np.testing.assert_allclose(slope[ok], (best[tier - 1] - worst[tier - 1])[ok] / gap[ok], rtol=1e-12)
    # tier 1 at its tangency, where both positions meet, has slope 0
    slope, _ = mc._secant(worst, best[0], np.ones(r.size, dtype=int), r, np.full(r.size, 2 * 48.2 ** 2))
    assert slope[r == TIER1_MAX_SEPARATION].tolist() == [0.0]


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.floats(67.1, 100.0, exclude_max=True))
def test_region_mean_q_lies_in_the_region_q_range(x):
    r = np.array([x, np.nextafter(x, 0.0)])
    r = r[r >= 67.1]
    areas, mean_q = _mean_q(r, exact=True)
    q_worst, q_best = tier_q_bracket(r)
    present = areas > 0
    assert np.all(mean_q[present] >= q_best[present])
    assert np.all(mean_q[present] <= np.broadcast_to(q_worst[:, None], present.shape)[present])
