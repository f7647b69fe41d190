"""Tier-first helper sampling of the Monte Carlo, under PPP and k-nearest conditioning.

The sampler is checked piece by piece (zero-truncated Poisson and Binomial
counts, bipolar rejection placement, tier and region choice against the
analytic probabilities) and as a whole against the oracle in `box_ppp_oracle.py`,
which samples every point of the helper field (every point of a box-PPP,
or all k-1 nearer neighbors) and classifies each one.
"""

import numpy as np
import pytest

import coopmac.monte_carlo as mc
from box_ppp_oracle import _helper_points, oracle_estimate
from coopmac.analytic_bounds import tier_probabilities
from coopmac.channel_model import ChannelParams, g_joint
from coopmac.monte_carlo import (
    DENSITY_GRID,
    ExperimentConfig,
    _draw_polar,
    _place_in_tier,
    _polar_box,
    _zero_truncated_binomial,
    _zero_truncated_poisson,
    estimate_throughput,
)
from coopmac.stochastic_geometry import BAND_EDGES, TIER_BANDS, TIER_REACH, hop_band, tier_areas, tier_index
from test_stochastic_geometry import geometric_tier_areas

PARAMS = ChannelParams()
# one link length per regime, and the tiers whose regions are non-empty there
LINKS = {"C": (70.9, "C", (1, 2, 3)), "D1": (85.55, "D", (1, 2, 3, 4, 5)), "D2": (98.2, "D", (2, 3, 4, 5))}


def _selected_helpers(rng, r, density, k, scheme):
    """(links with a helper, tier, best G) of the package's tier choice and placement, every link placed."""
    choice = mc._tier_choice(rng, r, density, k, scheme)
    return choice.has, choice.tier, mc._best_g(rng, r, choice, k, PARAMS)[0]


def _placed_points(rng, r, tier, area, count):
    """(trial index, d_SH, d_HD) of every point `_place_in_tier` places over all its rounds, sorted by trial."""
    tid, d_sh, d_hd = _place_in_tier(rng, r, tier, area, count)
    order = np.argsort(tid, kind="stable")
    return tid[order], d_sh[order], d_hd[order]


def _under_k(cases, ks):
    """pytest params of each case under each conditioning k; the PPP case (k None) keeps the case's own id."""
    return [pytest.param(*case, k, id="-".join(map(str, case)) + ("" if k is None else "-k%d" % k))
            for case in cases for k in ks]


def _within(got, want, sigma, n_sigma=4.0):
    return abs(got - want) <= n_sigma * sigma


def _in_one_hop_order(tier, d_sh, d_hd):
    """Every point has d_SH in its tier's higher hop band and d_HD in the lower one."""
    hops = np.take(TIER_BANDS, tier - 1, axis=0)
    return np.array_equal(hop_band(d_sh), hops.max(axis=1)) and np.array_equal(hop_band(d_hd), hops.min(axis=1))


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
    """Each trial gets its count of points, each in its tier and in the one hop order placed."""
    r_k, _, tiers = LINKS[regime]
    rng = np.random.default_rng(12)
    tier = np.repeat(np.array(tiers), 500)
    r = np.full(tier.size, r_k)
    count = rng.integers(1, 6, size=tier.size)
    area = tier_areas(r)[tier - 1, np.arange(tier.size)]
    tid, d_sh, d_hd = _placed_points(rng, r, tier, area, count)
    assert np.all(np.diff(tid) >= 0)
    assert np.array_equal(np.bincount(tid, minlength=tier.size), count)
    assert np.array_equal(tier_index(d_sh, d_hd, "D"), tier[tid])
    assert _in_one_hop_order(tier[tid], d_sh, d_hd)


def _band_edge_links():
    """Link lengths on and one ulp either side of the band edges 67.1, 74.7 and 96.4 m, and 1 mm below 96.4 m."""
    edges = (67.1, 74.7, 96.4)
    return [*edges[:2], 96.4 - 1e-3, *(np.nextafter(e, e + side) for e in edges for side in (-1.0, 1.0))]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("r_k", _band_edge_links(), ids=lambda r: repr(float(r)))
def test_placement_at_band_edges(r_k):
    """On a band edge the link length equals a hop edge x, so a hop order whose d_SH range starts
    at 0 takes its angle bound there from the limit rho -> 0 (pi/2 for r = x); every point must
    still classify into its tier and hop order, and no warning may be raised.  Tiers 4 and 5 are
    placed at class C lengths too, by their geometric areas."""
    areas = geometric_tier_areas(r_k)
    tiers = np.flatnonzero(areas > 0) + 1
    rng = np.random.default_rng(19)
    tier = np.repeat(tiers, 400)
    count = rng.integers(1, 6, size=tier.size)
    tid, d_sh, d_hd = _placed_points(rng, np.full(tier.size, r_k), tier, areas[tier - 1], count)
    assert np.array_equal(np.bincount(tid, minlength=tier.size), count)
    assert np.array_equal(tier_index(d_sh, d_hd, "D"), tier[tid])
    assert _in_one_hop_order(tier[tid], d_sh, d_hd)


class _TopDrawRng:
    """A generator whose first draws of d_SH^2 and of the angle are all the largest double below 1."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self._draws = 0

    def random(self, size):
        self._draws += 1
        return np.full(size, np.nextafter(1.0, 0.0)) if self._draws <= 2 else self._rng.random(size)


@pytest.mark.parametrize("r_k", [70.9, 85.55, 98.2, *_band_edge_links()], ids=lambda r: repr(float(r)))
def test_last_ulp_draws_keep_their_bands(r_k, monkeypatch):
    """A draw of d_SH^2 just below hi^2 can round to d_SH = hi, a band edge; such a point
    must be rejected, so that every returned point classifies into its tier."""
    first = []

    def recording_draw_polar(rng, lo, hi, t_lo, t_span, r):
        d_sh, d_hd = _draw_polar(rng, lo, hi, t_lo, t_span, r)
        first.append(np.any(d_sh == hi))
        return d_sh, d_hd

    monkeypatch.setattr(mc, "_draw_polar", recording_draw_polar)
    areas = geometric_tier_areas(r_k)
    tier = np.repeat(np.flatnonzero(areas > 0) + 1, 3)
    count = np.full(tier.size, 2)
    tid, d_sh, d_hd = _placed_points(_TopDrawRng(21), np.full(tier.size, r_k), tier, areas[tier - 1], count)
    assert first[0], "no draw landed on the edge"
    assert np.array_equal(np.bincount(tid, minlength=tier.size), count)
    assert np.array_equal(tier_index(d_sh, d_hd, "D"), tier[tid])


@pytest.mark.parametrize("r_k", [67.1, 70.9, 74.7, 85.55, 96.4 - 1e-3, 98.2, 100.0])
def test_polar_box_holds_its_region(r_k):
    """At every d_SH of the order's band, the angles whose d_HD lies in the other band fall in the box."""
    for s_band, d_band in {(i, j) for bands in TIER_BANDS for i, j in (bands, bands[::-1])}:
        (a, b), (c, d) = BAND_EDGES[s_band:s_band + 2], BAND_EDGES[d_band:d_band + 2]
        lo, hi, t_lo, t_hi = _polar_box(np.array([r_k]), a, b, c, d)
        rho = np.linspace(max(a, 1e-6), b, 20_001)[:-1]
        # the nearest and farthest points from D at distance rho from S lie on the axis
        inside = (np.abs(r_k - rho) < d) & (rho + r_k >= c)
        assert np.all((rho[inside] >= lo) & (rho[inside] < hi)), (r_k, s_band, d_band)
        rho = rho[inside]
        angle = lambda x: np.arccos(np.clip((rho ** 2 + r_k ** 2 - x ** 2) / (2 * rho * r_k), -1.0, 1.0))  # noqa: E731
        assert np.all(angle(d) <= t_hi + 1e-12) and np.all(angle(c) >= t_lo - 1e-12), (r_k, s_band, d_band)


def _recording_boxes(monkeypatch):
    """Patch `_draw_polar` to record (lo, hi, t_span, r, d_SH, d_HD) of every candidate; returns the record."""
    seen = []

    def recording_draw_polar(rng, lo, hi, t_lo, t_span, r):
        d_sh, d_hd = _draw_polar(rng, lo, hi, t_lo, t_span, r)
        seen.append((lo, hi, t_span, r, d_sh, d_hd))
        return d_sh, d_hd

    monkeypatch.setattr(mc, "_draw_polar", recording_draw_polar)
    return seen


def _region_share(t, area, lo, hi, t_span):
    """The placed hop order's share of its polar box: its region is half the upper half-plane
    part of the tier's when the tier's hops lie in two bands (two mirror orders), all of it else."""
    orders = len(set(TIER_BANDS[t - 1]))
    return area / (2 * orders) / (0.5 * (hi ** 2 - lo ** 2) * t_span)


@pytest.mark.parametrize("regime", sorted(LINKS))
def test_accepted_share_of_polar_box_candidates(regime, monkeypatch):
    """Every candidate the sampler draws is uniform in area over the polar box of the one hop
    order placed, one box per tier at a given link length, so the accepted share estimates the
    order's region area / box area."""
    r_k, _, tiers = LINKS[regime]
    seen = _recording_boxes(monkeypatch)
    for t in tiers:
        seen.clear()
        n = 20_000
        area = geometric_tier_areas(r_k)[t - 1]
        _placed_points(np.random.default_rng(13 + t), np.full(n, r_k), np.full(n, t), np.full(n, area),
                       np.ones(n, dtype=np.int64))
        lo, hi, t_span, _, d_sh, d_hd = (np.concatenate(column) for column in zip(*seen))
        (box,) = np.unique(np.column_stack((lo, hi, t_span)), axis=0)
        accepted = np.mean(tier_index(d_sh, d_hd, "D") == t)
        share = _region_share(t, area, *box)
        assert _within(accepted, share, np.sqrt(share * (1 - share) / d_sh.size)), (regime, t, box)


@pytest.mark.parametrize("t", range(1, 6))
def test_polar_boxes_are_mostly_filled(t, monkeypatch):
    """Over a grid of class C and D link lengths, the region fills at least 0.45 of the box the
    tier is placed from: the higher hop band at S.  The other order of tier 4 fills 0.20 near 74.7 m."""
    r = np.linspace(67.1, 100.0, 330)
    areas = tier_areas(r)
    seen = _recording_boxes(monkeypatch)
    placed = areas[t - 1] > 0
    _placed_points(np.random.default_rng(22 + t), r[placed], np.full(placed.sum(), t), areas[t - 1, placed],
                   np.ones(placed.sum(), dtype=np.int64))
    lo, hi, t_span, r_box, _, _ = (np.concatenate(column) for column in zip(*seen))
    share = _region_share(t, tier_areas(r_box)[t - 1], lo, hi, t_span)
    assert share.min() >= 0.45, (t, share.min(), r_box[share.argmin()])


def _tier_points(rng, r_k, t, n):
    """n points uniform in the tier-t region of a link of length r_k, as (d_SH, d_HD): Cartesian
    rejection from the rectangle around the tier's lens, each point classified by `tier_index`."""
    reach = TIER_REACH[t - 1]
    d_sh, d_hd = np.empty(0), np.empty(0)
    while d_sh.size < n:
        x = rng.uniform(r_k - reach, reach, n)
        y = rng.uniform(-reach, reach, n)
        s, d = np.hypot(x, y), np.hypot(x - r_k, y)
        mine = tier_index(s, d, "D") == t
        d_sh, d_hd = np.concatenate((d_sh, s[mine])), np.concatenate((d_hd, d[mine]))
    return d_sh[:n], d_hd[:n]


@pytest.mark.parametrize("regime,t",
                         [(regime, t) for regime in sorted(LINKS) for t in (2, 4, 5) if t in LINKS[regime][2]])
def test_one_order_gives_the_law_of_g_over_the_tier(regime, t):
    """G of points placed in one hop order has the law of G of points uniform in the whole tier
    region, found without `_polar_box`: the means, and the shares of each sample below the
    reference's 10, 50 and 90% quantiles, agree within 4 sigma."""
    r_k = LINKS[regime][0]
    n = 20_000
    _, d_sh, d_hd = _placed_points(np.random.default_rng(23 + t), np.full(n, r_k), np.full(n, t),
                                   np.full(n, geometric_tier_areas(r_k)[t - 1]), np.ones(n, dtype=np.int64))
    placed = g_joint(d_sh, d_hd, PARAMS)
    ref = g_joint(*_tier_points(np.random.default_rng(24 + t), r_k, t, n), PARAMS)
    assert _within(placed.mean(), ref.mean(), np.sqrt((placed.var() + ref.var()) / n)), (regime, t)
    for p, q in zip((0.1, 0.5, 0.9), np.quantile(ref, (0.1, 0.5, 0.9))):
        assert _within(np.mean(placed <= q), p, np.sqrt(2 * p * (1 - p) / n)), (regime, t, p)


@pytest.mark.parametrize("regime,density,k",
                         _under_k([(regime, d) for regime in sorted(LINKS) for d in (0.0005, 0.002, 0.005)], (None, 10)))
def test_first_tier_frequencies_match_tier_probabilities(regime, density, k):
    r_k, link_class, _ = LINKS[regime]
    n = 50_000
    has, tier, g = _selected_helpers(np.random.default_rng(14), np.full(n, r_k), density, k, "proposed")
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
    _selected_helpers(np.random.default_rng(17), r, 0.001, k, "proposed")
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
    has, tier, _ = _selected_helpers(np.random.default_rng(15), np.full(n, r_k), density, k, "conventional")
    areas = np.where(np.isin(np.arange(1, 6), LINKS[regime][2]), geometric_tier_areas(r_k), 0.0)
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
