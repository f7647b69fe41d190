"""Property tests of the tier law and the per-link bounds over random links, and of every public bound and the Monte Carlo over their whole domain.

Over the whole domain each call gives finite values in [0, 11] Mbps with
lower <= upper (a finite stderr for an estimate), or raises ValueError; it
never raises RuntimeError and never warns.  Each property is checked on a
small, fixed set of examples (derandomized), so the suite stays fast and
reproducible.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coopmac.analytic_bounds import (
    _link_bounds,
    averaged_bounds,
    band_mass,
    link_bounds_at_distance,
    tier_probabilities,
    total_throughput_bounds,
)
from coopmac.channel_model import ChannelParams
from coopmac.monte_carlo import ExperimentConfig, estimate_throughput
from coopmac.stochastic_geometry import REGIMES, TIER1_MAX_SEPARATION, void_probability

SETTINGS = settings(derandomize=True, database=None, max_examples=30, deadline=None)


@st.composite
def links(draw):
    """(regime, link length, conditioning) with the conditioning as keyword arguments."""
    regime = draw(st.sampled_from(["C", "D1", "D2"]))
    a, b = REGIMES[regime][:2]
    r = a + (b - a) * draw(st.floats(0.0, 1.0))
    conditioning = draw(
        st.one_of(
            st.builds(lambda lam: {"density": lam}, st.floats(1e-5, 0.1)),
            st.builds(lambda k: {"k": k}, st.integers(1, 200)),
        )
    )
    return regime, r, conditioning


@st.composite
def link_batches(draw):
    """(regime, array of link lengths, conditioning): lengths anywhere in the band,
    with its edges and the floats next to 96.4 m mixed in."""
    regime, _, conditioning = draw(links())
    a, b = REGIMES[regime][:2]
    special = [x for x in (a, b, np.nextafter(TIER1_MAX_SEPARATION, 0.0), TIER1_MAX_SEPARATION,
                           np.nextafter(TIER1_MAX_SEPARATION, np.inf)) if a <= x <= b]
    r = draw(st.lists(st.one_of(st.floats(a, b), st.sampled_from(special)), min_size=1, max_size=40))
    return regime, np.array(r), conditioning


@SETTINGS
@given(link_batches())
def test_link_bound_kernel_columns_equal_single_links(batch):
    regime, r, conditioning = batch
    got = _link_bounds(regime, r, conditioning.get("density"), conditioning.get("k"), ChannelParams())
    assert got.shape == (2, r.size)
    for j, rj in enumerate(r):
        pair = link_bounds_at_distance(regime, float(rj), **conditioning)
        assert (got[0, j], got[1, j]) == (pair.lower, pair.upper), rj


@SETTINGS
@given(links())
def test_tier_probabilities_and_residual_are_a_distribution(link):
    regime, r, conditioning = link
    vec = tier_probabilities(REGIMES[regime][2], r, **conditioning)
    parts = list(vec.probs.values()) + [vec.residual]
    assert all(p >= 0.0 for p in parts)
    assert abs(sum(parts) - 1.0) <= 1e-12


@SETTINGS
@given(links())
def test_link_bounds_are_ordered(link):
    regime, r, conditioning = link
    pair = link_bounds_at_distance(regime, r, **conditioning)
    assert 0.0 <= pair.lower <= pair.upper


@SETTINGS
@given(links(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_void_probability_non_increasing_in_area(link, u, v):
    _, r, conditioning = link
    disk = np.pi * r**2  # every tier region lies in the disk of radius r
    small, large = sorted((u * disk, v * disk))
    density, k = conditioning.get("density"), conditioning.get("k")
    assert void_probability(large, r, density, k) <= void_probability(small, r, density, k)


@SETTINGS
@given(st.floats(1e-5, 0.05), st.floats(1e-5, 0.05))
def test_ppp_bounds_non_decreasing_in_density(lam1, lam2):
    """More helpers never lower a bound under the PPP: the tier law moves towards faster
    tiers.  Each bound is a quadrature to 1e-8 absolute per band, hence the slack.  (Under
    k-nearest conditioning the bounds are partial expectations over a band whose mass moves
    with the density, so they are not monotone.)"""
    small, large = sorted((lam1, lam2))
    for regime in ("C", "D1", "D2"):
        lo, hi = averaged_bounds(regime, small), averaged_bounds(regime, large)
        assert hi.lower >= lo.lower - 2e-8 and hi.upper >= lo.upper - 2e-8, (regime, small, large)
    lo, hi = total_throughput_bounds(small), total_throughput_bounds(large)
    assert hi.lower >= lo.lower - 1e-7 and hi.upper >= lo.upper - 1e-7, (small, large)


# the whole input domain of the public bound functions: the density log-uniform over
# [1e-9, 1e6] (D1 is split at its tier-1 layer above about 0.0099), k up to 10^6, and
# any channel: pt, pth and k_const at +-200 dB, sigma in (0, 1e3], alpha in [2, 7]
DENSITIES = st.floats(-9.0, 6.0).map(lambda e: 10.0 ** e)
KS = st.one_of(st.none(), st.integers(1, 10 ** 6))
DB = st.floats(-200.0, 200.0)
# a channel's fields, as `ChannelParams` takes them: one that it rejects is a ValueError of the call
CHANNELS = st.one_of(st.just({}), st.fixed_dictionaries(
    {"pt": DB, "pth": DB, "k_const": DB, "alpha": st.floats(2.0, 7.0), "sigma_sh": st.floats(0.0, 1e3, exclude_min=True)}))
REGIME = st.sampled_from(["C", "D1", "D2"])


def _checked(call):
    """call's values, each finite in [0, 11], lower <= upper; None if it raises ValueError; never a RuntimeError or RuntimeWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            got = call()
        except ValueError:
            return None
    if hasattr(got, "probs"):
        values = [*got.probs.values(), got.residual]
    else:
        values = [got.lower, got.upper] if hasattr(got, "lower") else [got]
        assert not hasattr(got, "lower") or got.lower <= got.upper, got
    assert all(math.isfinite(v) and 0.0 <= v <= 11.0 for v in values), got
    return values


@st.composite
def conditioned(draw):
    """(density, k) with k None under the PPP."""
    return draw(DENSITIES), draw(KS)


@SETTINGS
@given(REGIME, conditioned(), CHANNELS)
@example("D1", (0.5, None), {})
@example("D1", (1e3, 1000), {"sigma_sh": 1e-3})
def test_averaged_bounds_over_the_whole_domain(regime, conditioning, channel):
    pair = _checked(lambda: averaged_bounds(regime, *conditioning, params=ChannelParams(**channel)))
    if pair and conditioning[1] is not None:
        # a k-nearest partial expectation over its band's mass bounds the band's mean
        mass = band_mass(regime, *conditioning)
        assert 0.0 <= pair[0] / mass <= pair[1] / mass <= 11.0, (pair, mass)


@SETTINGS
@given(conditioned(), CHANNELS)
@example((0.5, 2), {})  # once 11.000000000000002
@example((1e3, 10), {})  # once 11.000000000000002
def test_total_bounds_over_the_whole_domain(conditioning, channel):
    _checked(lambda: total_throughput_bounds(*conditioning, params=ChannelParams(**channel)))


@SETTINGS
@given(st.sampled_from(["A", "B", "C", "D1", "D2", "all"]), conditioned())
def test_band_mass_over_the_whole_domain(regime, conditioning):
    _checked(lambda: band_mass(regime, *conditioning))


@SETTINGS
@given(links(), conditioned(), CHANNELS)
def test_link_views_over_the_whole_domain(link, conditioning, channel):
    regime, r, _ = link
    density, k = conditioning
    given_one = {"density": density} if k is None else {"k": k}
    _checked(lambda: link_bounds_at_distance(regime, r, **given_one, params=ChannelParams(**channel)))
    _checked(lambda: tier_probabilities(REGIMES[regime][2], r, **given_one))


# the Monte Carlo's domain: the density log-uniform over [1e-9, 0.05], k None or 1..100, and any channel
MC_DENSITIES = st.floats(-9.0, math.log10(0.05)).map(lambda e: 10.0 ** e)
MC_KS = st.one_of(st.none(), st.integers(1, 100))


@pytest.mark.parametrize("mode", ["analytic", "sampled"])
@SETTINGS
@given(st.sampled_from(["A", "B", "C", "D1", "D2", "all"]), MC_DENSITIES, MC_KS, CHANNELS)
# a secant of almost 0 once overflowed the y^2 slope's crowding term
@example("D1", 0.01, None, {"pt": 0.0, "pth": 150.0, "k_const": 0.0, "alpha": 3.5, "sigma_sh": 8.0})
# a conventional mean of about 0 once came out at -3.6e-296
@example("C", 0.01, None, {"pt": 0.0, "pth": 0.0, "k_const": 0.0, "alpha": 2.0, "sigma_sh": 1.0})
# a tiny sigma once overflowed the concavity check of sampled mode's squeeze
@example("C", 0.01, None, {"pt": 0.0, "pth": 0.0, "k_const": 36.0, "alpha": 2.0, "sigma_sh": 2.5063390312842447e-245})
def test_estimate_throughput_over_the_whole_domain(mode, regime, density, k, channel):
    """Both schemes at 200 trials: a finite mean in [0, 11] Mbps with a finite stderr, or ValueError.

    This is not yet the bounds' whole domain.  A chunk's memory grows
    linearly in the density, and in k under k-nearest conditioning, so
    densities above 0.05 and k above 100 wait for a cap on a chunk's memory
    (ROADMAP item 3) and are not swept.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            config = ExperimentConfig(densities=(density,), scheme="both", regime=regime, trials=200, chunk_size=200,
                                      estimator_mode=mode, k=k, channel=ChannelParams(**channel))
            estimates = estimate_throughput(config)
        except ValueError:
            return
    for est in estimates:
        assert math.isfinite(est.mean) and 0.0 <= est.mean <= 11.0, est
        assert math.isfinite(est.stderr) and est.stderr >= 0.0, est


def test_a_subnormal_sigma_is_rejected():
    # mu = 10 alpha / sigma overflows, and Ps(1 m) would be Q(nan)
    for sigma in (5e-324, 1e-310):
        with pytest.raises(ValueError, match="nu and mu"):
            ChannelParams(sigma_sh=sigma)
    assert _checked(lambda: total_throughput_bounds(0.003, params=ChannelParams(sigma_sh=1e-300)))
