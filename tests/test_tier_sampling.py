"""Tier-first helper sampling of the Monte Carlo, under PPP and k-nearest conditioning.

The sampler is checked piece by piece (zero-truncated Poisson and Binomial
counts, rejection placement, tier and region choice against the analytic
probabilities) and as a whole against the oracle in `box_ppp_oracle.py`,
which samples every point of the helper field (every point of a box-PPP,
or all k-1 nearer neighbors) and classifies each one.
"""

import numpy as np
import pytest

import coopmac.monte_carlo as mc
from box_ppp_oracle import _helper_points, oracle_estimate
from coopmac.analytic_bounds import tier_probabilities
from coopmac.channel_model import ChannelParams
from coopmac.monte_carlo import (
    DENSITY_GRID,
    ExperimentConfig,
    _lens_box,
    _place_in_tier,
    _tier_first_helpers,
    _zero_truncated_binomial,
    _zero_truncated_poisson,
    estimate_throughput,
)
from coopmac.stochastic_geometry import TIER_REACH, tier_areas, tier_index

PARAMS = ChannelParams()
# one link length per regime, and the tiers whose regions are non-empty there
LINKS = {"C": (70.9, "C", (1, 2, 3)), "D1": (85.55, "D", (1, 2, 3, 4, 5)), "D2": (98.2, "D", (2, 3, 4, 5))}


def _under_k(cases, ks):
    """pytest params of each case under each conditioning k; the PPP case (k None) keeps the case's own id."""
    return [pytest.param(*case, k, id="-".join(map(str, case)) + ("" if k is None else "-k%d" % k))
            for case in cases for k in ks]


def _within(got, want, sigma, n_sigma=4.0):
    return abs(got - want) <= n_sigma * sigma


def _frequency_ok(freq, p, n):
    """An observed frequency of n draws against probability p, within 4 sigma.

    A probability of 0 must never be drawn.  The variance is floored at one
    count's worth, where the normal approximation fails for tiny p.
    """
    if p == 0.0:
        return freq == 0.0
    return _within(freq, p, np.sqrt(max(p * (1 - p), 1.0 / n) / n))


@pytest.mark.parametrize("mu", [1e-6, 0.1, 3.0, 60.0])
def test_zero_truncated_poisson_law(mu):
    n = 100_000
    draws = _zero_truncated_poisson(np.random.default_rng(11), np.full(n, mu))
    assert draws.min() >= 1
    mean = mu / -np.expm1(-mu)
    var = mean * (1.0 + mu - mean)
    assert _within(draws.mean(), mean, np.sqrt(var / n))


@pytest.mark.parametrize("p", [1e-6, 0.1, 0.5, 1.0])
@pytest.mark.parametrize("trials", [1, 9, 29])
def test_zero_truncated_binomial_law(trials, p):
    n = 100_000
    draws = _zero_truncated_binomial(np.random.default_rng(16), trials, np.full(n, p))
    assert draws.min() >= 1 and draws.max() <= trials
    mass = 1.0 if p == 1.0 else -np.expm1(trials * np.log1p(-p))  # P{Binomial >= 1}
    mean = trials * p / mass
    var = (trials * p * (1 - p) + (trials * p) ** 2) / mass - mean * mean
    # floored for round-off: with one trial or p = 1 the law is a point mass
    assert _within(draws.mean(), mean, np.sqrt(max(var, 1e-20) / n))


@pytest.mark.parametrize("regime", sorted(LINKS))
def test_placed_points_lie_in_the_requested_tier(regime):
    r_k, _, tiers = LINKS[regime]
    rng = np.random.default_rng(12)
    tier = np.repeat(np.array(tiers), 500)
    r = np.full(tier.size, r_k)
    count = rng.integers(1, 6, size=tier.size)
    area = np.array(tier_areas(r))[tier - 1, np.arange(tier.size)]
    tid, d_sh, d_hd = _place_in_tier(rng, r, tier, area, count)
    assert np.all(np.diff(tid) >= 0)
    assert np.array_equal(np.bincount(tid, minlength=tier.size), count)
    assert np.array_equal(tier_index(d_sh, d_hd, "D"), tier[tid])


@pytest.mark.parametrize("regime", sorted(LINKS))
def test_accepted_share_of_box_candidates(regime, monkeypatch):
    """Every candidate the sampler classifies is uniform in the lens's bounding box,
    so the accepted share estimates region area / box area."""
    r_k, _, tiers = LINKS[regime]
    seen = []

    def recording_tier_index(d_sh, d_hd, link_class):
        seen.append((d_sh, d_hd))
        return tier_index(d_sh, d_hd, link_class)

    monkeypatch.setattr(mc, "tier_index", recording_tier_index)
    for t in tiers:
        seen.clear()
        n = 20_000
        r = np.full(n, r_k)
        tier = np.full(n, t)
        area = tier_areas(r)[t - 1]
        _place_in_tier(np.random.default_rng(13 + t), r, tier, area, np.ones(n, dtype=np.int64))
        d_sh = np.concatenate([s for s, _ in seen])
        d_hd = np.concatenate([h for _, h in seen])
        accepted = np.mean(tier_index(d_sh, d_hd, "D") == t)
        _, width, half = _lens_box(r_k, TIER_REACH[t - 1])
        share = area[0] / (2.0 * width * half)
        assert _within(accepted, share, np.sqrt(share * (1 - share) / d_sh.size)), (regime, t)


@pytest.mark.parametrize("regime,density,k",
                         _under_k([(regime, d) for regime in sorted(LINKS) for d in (0.0005, 0.002, 0.005)], (None, 10)))
def test_first_tier_frequencies_match_tier_probabilities(regime, density, k):
    r_k, link_class, _ = LINKS[regime]
    n = 50_000
    has, tier, g = _tier_first_helpers(np.random.default_rng(14), np.full(n, r_k), density, k, "proposed", PARAMS)
    assert np.all((g > 0) & (g <= 1))
    tp = tier_probabilities(link_class, r_k, density=None if k else density, k=k)
    freq = np.bincount(tier, minlength=6)[1:] / n
    for t in range(1, 6):
        p = tp.probs.get(t, 0.0)
        assert _frequency_ok(freq[t - 1], p, n), (regime, density, t)
    assert _frequency_ok(1 - has.size / n, tp.residual, n)


@pytest.mark.parametrize("regime", sorted(LINKS))
def test_k_nearest_tier_counts_match_disk_points(regime, monkeypatch):
    """Under k-nearest conditioning, the helper count drawn for the selected tier has
    the mean of the count of disk points in the lowest non-empty tier, tier by tier."""
    r_k, link_class, tiers = LINKS[regime]
    n, k = 40_000, 10
    r = np.full(n, r_k)
    drawn = []

    def recording_place_in_tier(rng, r, tier, area, count):
        drawn.append((tier, count))
        return _place_in_tier(rng, r, tier, area, count)

    monkeypatch.setattr(mc, "_place_in_tier", recording_place_in_tier)
    _tier_first_helpers(np.random.default_rng(17), r, 0.001, k, "proposed", PARAMS)
    (tier, count), = drawn
    # the k-1 disk points of each link, classified
    tid, x, y = _helper_points(np.random.default_rng(18), r, None, k)
    point_tier = tier_index(np.hypot(x, y), np.hypot(x - r_k, y), link_class)
    lowest = np.full(n, 99)
    np.minimum.at(lowest, tid, np.where(point_tier > 0, point_tier, 99))
    ref_count = np.bincount(tid[point_tier == lowest[tid]], minlength=n)
    for t in tiers:
        got, want = count[tier == t], ref_count[lowest == t]
        assert got.size > 100 and want.size > 100, (regime, t)
        sigma = np.sqrt(got.var() / got.size + want.var() / want.size)
        assert _within(got.mean(), want.mean(), sigma), (regime, t, got.mean(), want.mean())


@pytest.mark.parametrize("regime,k", _under_k([(regime,) for regime in sorted(LINKS)], (None, 10)))
def test_conventional_region_choice_follows_areas(regime, k):
    r_k, _, _ = LINKS[regime]
    n, density = 50_000, 0.0003
    has, tier, _ = _tier_first_helpers(np.random.default_rng(15), np.full(n, r_k), density, k, "conventional", PARAMS)
    areas = np.where(np.isin(np.arange(1, 6), LINKS[regime][2]), tier_areas(r_k), 0.0)
    if k is None:
        p_any = -np.expm1(-density * areas.sum())
    else:
        p_any = 1.0 - (1.0 - areas.sum() / (np.pi * r_k ** 2)) ** (k - 1)
    assert _frequency_ok(has.size / n, p_any, n)
    freq = np.bincount(tier, minlength=6)[1:] / has.size
    for t in range(1, 6):
        assert _frequency_ok(freq[t - 1], areas[t - 1] / areas.sum(), has.size), (regime, t)


@pytest.mark.parametrize("regime,k", _under_k([("C",), ("D1",), ("D2",), ("all",)], (None, 3, 10, 30)))
def test_means_match_box_ppp_oracle(regime, k):
    densities = (DENSITY_GRID[0], DENSITY_GRID[4], DENSITY_GRID[-1])  # 0.0005, 0.0025, 0.005
    assert densities[0] == 0.0005 and densities[-1] == 0.005
    for density in densities:
        trials = 20_000 if density < 0.001 else 8_000
        for scheme in ("proposed", "conventional"):
            new = estimate_throughput(
                ExperimentConfig(densities=(density,), scheme=scheme, regime=regime, trials=trials, base_seed=31, k=k)
            )[0]
            # a different seed, so the two estimates are independent
            ref = ExperimentConfig(densities=(density,), scheme=scheme, regime=regime, trials=trials, base_seed=32,
                                   k=k)
            mean, stderr = oracle_estimate(ref, density, scheme)
            assert _within(new.mean, mean, np.hypot(new.stderr, stderr)), (density, scheme, new.mean, mean)
