"""Property tests of the tier law and the per-link bounds over random links.

Each property is checked on a small, fixed set of examples (derandomized),
so the suite stays fast and reproducible.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from coopmac.analytic_bounds import (
    _link_bounds,
    averaged_bounds,
    link_bounds_at_distance,
    tier_probabilities,
    total_throughput_bounds,
)
from coopmac.channel_model import ChannelParams
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
