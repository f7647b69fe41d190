import hashlib

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import gamma

from coopmac.analytic_bounds import tier_probabilities
from coopmac.stochastic_geometry import (
    BAND_2,
    BAND_EDGES,
    TIER1_MAX_SEPARATION,
    TIER_BANDS,
    cumulative_areas,
    lens_area,
    nn_distance_band,
    nn_distance_pdf,
    tier_areas,
    tier_index,
    tier_region_areas,
)
from protocol_oracle import classify_helper_tier, sample_ppp


# ---------------------------------------------------------------- sample_ppp

def test_sample_ppp_deterministic():
    a = sample_ppp(0.001, (0, 0, 1000, 1000), seed=5)
    b = sample_ppp(0.001, (0, 0, 1000, 1000), seed=5)
    assert np.array_equal(a.nodes, b.nodes)


def test_sample_ppp_nodes_inside_window():
    r = sample_ppp(0.002, (-50, -20, 150, 80), seed=1)
    assert np.all(r.nodes[:, 0] >= -50) and np.all(r.nodes[:, 0] <= 150)
    assert np.all(r.nodes[:, 1] >= -20) and np.all(r.nodes[:, 1] <= 80)


def test_sample_ppp_mean_count():
    # mean node count over many seeds stays within 3 sigma of the Poisson mean
    counts = [sample_ppp(0.001, (0, 0, 1000, 1000), seed=s).nodes.shape[0] for s in range(200)]
    mean = np.mean(counts)
    sigma = np.sqrt(1000.0 / len(counts))
    assert abs(mean - 1000.0) < 3 * sigma


def test_sample_ppp_validation():
    with pytest.raises(ValueError):
        sample_ppp(0.0, (0, 0, 10, 10), seed=0)
    with pytest.raises(ValueError):
        sample_ppp(0.001, (0, 0, 0, 10), seed=0)


def test_subregion_counts_are_poisson():
    # counts in a fixed disk are Poisson(density * area): check mean and
    # variance agreement across realizations
    density, radius = 0.003, 30.0
    expected = density * np.pi * radius**2
    counts = []
    for s in range(300):
        r = sample_ppp(density, (-100, -100, 100, 100), seed=1000 + s)
        inside = np.hypot(r.nodes[:, 0], r.nodes[:, 1]) < radius
        counts.append(int(inside.sum()))
    counts = np.asarray(counts)
    assert abs(counts.mean() - expected) < 3 * np.sqrt(expected / counts.size)
    assert counts.var() == pytest.approx(expected, rel=0.25)


# ----------------------------------------------------------------- lens_area

def test_lens_full_overlap():
    assert lens_area(48.2, 48.2, 0.0) == pytest.approx(np.pi * 48.2**2)


def test_lens_tangent_and_beyond():
    assert lens_area(48.2, 48.2, 96.4) == 0.0
    assert lens_area(48.2, 48.2, 150.0) == 0.0


def test_lens_contained_circle():
    assert lens_area(10.0, 100.0, 5.0) == pytest.approx(np.pi * 100.0)


def test_lens_value_against_point_counting():
    # independent oracle: uniform rejection sampling over the bounding box
    rng = np.random.default_rng(0)
    n = 10**6
    x = rng.uniform(-48.2, 70 + 48.2, n)
    y = rng.uniform(-48.2, 48.2, n)
    box = (70 + 96.4) * 96.4
    inside = (np.hypot(x, y) < 48.2) & (np.hypot(x - 70, y) < 48.2)
    mc = inside.mean() * box
    assert lens_area(48.2, 48.2, 70.0) == pytest.approx(mc, rel=0.005)
    assert lens_area(48.2, 48.2, 70.0) == pytest.approx(1202.73458, abs=1e-4)


def test_lens_symmetry_monotonicity_bounds():
    rng = np.random.default_rng(3)
    for _ in range(200):
        r1, r2 = rng.uniform(5, 100, 2)
        seps = np.sort(rng.uniform(0, r1 + r2 + 20, 8))
        a = lens_area(r1, r2, seps)
        b = lens_area(r2, r1, seps)
        assert np.allclose(a, b)
        assert np.all(np.diff(a) <= 1e-9)  # non-increasing in separation
        assert np.all(a <= np.pi * min(r1, r2) ** 2 + 1e-9)
        assert np.all(a >= 0)


def test_lens_area_not_negative_just_below_tangency():
    # the terms of the lens formula cancel to round-off here; it was -7.98e-5 m^2,
    # and the tier-1 probability of the bounds -3.99e-7
    r = np.nextafter(96.4, 0)
    assert lens_area(48.2, 48.2, r) >= 0.0
    assert tier_probabilities("D", r, density=0.005).probs[1] >= 0.0


def test_cumulative_areas_is_the_cumsum_bit_for_bit():
    areas = np.array(tier_areas(np.random.default_rng(3).uniform(67.1, 100.0, 8000)))
    assert np.array_equal(cumulative_areas(areas), np.cumsum(areas, axis=0))


def _ulps_around(x, n=64):
    """The n doubles below x, x itself and the n doubles above it."""
    below, above = [x], [x]
    for _ in range(n):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return below[:0:-1] + above


def _tier_regions(s1, l2, l3, l4, l5):
    """The five tier regions' values of an additive measure from its values on the five tier lenses."""
    s2 = 2.0 * (l2 - s1)
    s4 = 2.0 * (l4 - s1) - s2
    return np.array((s1, s2, l3 - s2 - s1, s4, 2.0 * (l5 - l3) - s4))


def geometric_tier_areas(r):
    """The five tier-region areas at link length(s) r from one `lens_area` call per tier.

    Shape (5,) for a scalar r and (5, n) for a 1-D one; no class trim, so a
    class C length (r < 74.7 m) keeps its geometric tier-4 and tier-5 areas.
    """
    return _tier_regions(*(lens_area(BAND_EDGES[i + 1], BAND_EDGES[j + 1], r) for i, j in TIER_BANDS))


def class_tier_areas(r):
    """`geometric_tier_areas` of a 1-D r with tiers 4 and 5 of the class C lengths set to 0."""
    areas = geometric_tier_areas(r)
    areas[3:, r < BAND_2] = 0.0
    return areas


def test_tier_areas_are_lens_area_bit_for_bit():
    # the lenses of all tiers in one broadcast call against one lens_area call per tier,
    # over (0, 100] m and the doubles around the band edges, the tier-1 tangency
    # (96.4 m) and the separations below which one circle holds the other
    r = np.concatenate(
        [np.linspace(0.0, 100.0, 40_001)[1:], np.random.default_rng(5).uniform(0.0, 100.0, 20_000)]
        + [_ulps_around(x) for x in (48.2, 67.1, 74.7, 96.4, 100.0, 18.9, 26.5, 7.6)]
    )
    r = r[(r > 0.0) & (r <= 100.0)]
    got, want = tier_areas(r), class_tier_areas(r)
    for t in range(5):
        assert got[t].tobytes() == want[t].tobytes(), "tier %d" % (t + 1)


def test_tier_areas_trim_is_bit_for_bit():
    # only the lenses the links need, against all five lenses with class C's tiers 4-5
    # zeroed, on links of one regime and of all three, over the eligible lengths and the
    # doubles around 67.1, 74.7, 96.4 and 100 m
    r = np.concatenate([np.random.default_rng(6).uniform(67.1, 100.0, 20_000)]
                       + [_ulps_around(x, 32) for x in (67.1, BAND_2, TIER1_MAX_SEPARATION, 100.0)])
    r = r[r >= 67.1]
    for links in (r, r[r < BAND_2], r[(r >= BAND_2) & (r < TIER1_MAX_SEPARATION)], r[r >= TIER1_MAX_SEPARATION]):
        assert tier_areas(links).tobytes() == class_tier_areas(links).tobytes()


def test_tier_region_areas_are_floats():
    for link_class, r, n in (("C", 70.0, 3), ("D", 85.0, 5)):
        areas = tier_region_areas(link_class, r).areas
        assert all(type(a) is float for a in areas)
        assert areas == tuple(tier_areas(np.array([r]))[:n, 0])


def test_lens_rejects_bad_inputs():
    with pytest.raises(ValueError):
        lens_area(-1.0, 5.0, 2.0)
    with pytest.raises(ValueError):
        lens_area(5.0, 5.0, -0.1)
    with pytest.raises(ValueError):
        lens_area(48.2, 48.2, np.nan)
    with pytest.raises(ValueError):
        lens_area(48.2, 48.2, np.array([10.0, np.nan]))
    with pytest.raises(ValueError):
        lens_area(np.nan, 48.2, 10.0)
    assert lens_area(48.2, 48.2, np.inf) == 0.0
    # the limits, with no warning from the formula they replace
    assert lens_area(48.2, 30.0, [0.0, np.inf]).tolist() == [np.pi * 30.0 ** 2, 0.0]
    assert lens_area(48.2, 48.2, [0.0, 1e200]).tolist() == [np.pi * 48.2 ** 2, 0.0]


@pytest.mark.parametrize("r1,r2,d", [
    (np.inf, np.inf, 5.0),  # was a silent NaN
    (np.inf, 48.2, 10.0),
    (1e200, 1e200, 1.0),  # was an OverflowError from r1 ** 2
    (1e150, 1e150, 1e150),  # the kite's product of four lengths overflowed: a silent 0
    (1e-150, 1e-150, 1e-150),  # ... and underflowed: the sectors alone, 2 pi r^2 / 3 for 1.23 r^2
])
def test_lens_rejects_radii_out_of_range(r1, r2, d):
    with pytest.raises(ValueError, match="circle radii must lie in"):
        lens_area(r1, r2, d)


def test_lens_rejects_a_separation_whose_formula_underflows():
    # equal radii 1e-60 m apart by 1e-300 m: the arccos argument is 0 / 0
    with pytest.raises(ValueError, match="underflows"):
        lens_area(1e-60, 1e-60, 1e-300)
    # at the ends of the range, the lens of two equal circles a radius apart is r^2 (2 pi / 3 - sqrt(3) / 2)
    for r in (1e-60, 1e75):
        assert lens_area(r, r, r) == pytest.approx(r * r * (2 * np.pi / 3 - np.sqrt(3) / 2), rel=1e-12)


def _lens_grid():
    """(r1, r2, separations) over radii from 1 mm to 1000 km: both limits, the formula, and the thin series."""
    radii = (1e-3, 0.5, 10.0, 30.0, 48.2, 67.1, 74.7, 100.0, 1e3, 1e6)
    for r1 in radii:
        for r2 in radii:
            reach = r1 + r2
            yield r1, r2, np.concatenate(([0.0, abs(r1 - r2), reach, np.inf], reach * np.linspace(0.02, 1.2, 60),
                                          reach * (1.0 - np.logspace(-12, -1, 23))))


def _exact_lens_area(r1, r2, d):
    """The lens area in 60-digit arithmetic, r1^2 alpha1 + r2^2 alpha2 - d h with the half-angles alpha_i = atan2(h, a_i)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        r1, r2, d = mpmath.mpf(r1), mpmath.mpf(r2), mpmath.mpf(d)
        if d >= r1 + r2:
            return 0.0
        if d <= abs(r1 - r2):
            return float(mpmath.pi * min(r1, r2) ** 2)
        a1 = (d * d + r1 * r1 - r2 * r2) / (2 * d)
        h = mpmath.sqrt(r1 * r1 - a1 * a1)
        return float(r1 * r1 * mpmath.atan2(h, a1) + r2 * r2 * mpmath.atan2(h, d - a1) - d * h)


def test_lens_area_matches_the_exact_lens_over_the_grid():
    # every finite separation of the grid, radii up to 1e9 apart among them, within 1e-9 of the 60-digit area or
    # 1e-12 of the smaller circle; a lens of very unequal radii, whose larger circle's segment is thin, too
    for r1, r2, d in _lens_grid():
        d = d[np.isfinite(d)]
        got = lens_area(r1, r2, d)
        want = np.array([_exact_lens_area(r1, r2, x) for x in d])
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12 * np.pi * min(r1, r2) ** 2,
                                   err_msg="radii %r and %r" % (r1, r2))
    # one radius below the rounding of the other: half the small circle, not all of it
    assert lens_area(1e-60, 1e75, 1e75) == pytest.approx(np.pi * 1e-120 / 2, rel=1e-12)
    # next to internal tangency, where the larger circle's segment is thin: within rounding of the 60-digit area,
    # and never above the smaller circle
    radii = (0.5, 10.0, 30.0, 44.7, 48.2, 67.1, 74.7, 100.0)
    for r1 in radii:
        for r2 in radii:
            if r1 != r2:
                small = min(r1, r2)
                d = abs(r1 - r2) + small * np.concatenate((np.logspace(-14, -1, 27), [0.00249, 0.00251]))
                got = lens_area(r1, r2, d)
                want = np.array([_exact_lens_area(r1, r2, x) for x in d])
                np.testing.assert_allclose(got, want, rtol=1e-13, err_msg="radii %r and %r" % (r1, r2))
                assert np.all(got <= np.pi * small * small)
    for r1, r2, d in ((74.7, 30.0, 44.700000000001005), (74.7, 48.2, 26.500000000001)):
        assert lens_area(r1, r2, d) == pytest.approx(_exact_lens_area(r1, r2, d), rel=2e-16)
        assert lens_area(r1, r2, d) <= np.pi * min(r1, r2) ** 2


def test_lens_area_keeps_its_bits_in_range():
    # the range checks move no result: the digest and selftest's three lenses are those from before them; the
    # digest is that of the lenses of radii more than `_UNEQUAL` apart taken segment by segment, none of them above
    # the smaller circle
    digest = hashlib.sha256()
    for r1, r2, d in _lens_grid():
        digest.update(lens_area(r1, r2, d).tobytes())
    assert digest.hexdigest() == "c3b29108a7a7b35b6c48a5cbb433195b26f28388eedd73dd01bad18bdb4dda9d"
    assert [lens_area(48.2, 48.2, d).hex() for d in (0.0, 96.4, 70.0)] == [
        "0x1.c82ac78afadbdp+12", "0x0.0p+0", "0x1.2caf035d0cb28p+10"]


# ---------------------------------------------------------- tier region areas

def test_type_c_region_areas_at_70():
    areas = tier_region_areas("C", 70.0)
    assert areas.area(1) == pytest.approx(lens_area(48.2, 48.2, 70.0))
    assert areas.area(2) == pytest.approx(2 * (lens_area(67.1, 48.2, 70.0) - areas.area(1)))
    assert areas.area(1) == pytest.approx(1202.7, abs=0.1)


def test_type_c_regions_partition_the_small_lens():
    for r in (67.5, 70.0, 74.0):
        areas = tier_region_areas("C", r)
        assert sum(areas.areas) == pytest.approx(lens_area(67.1, 67.1, r))


def test_type_d_tier1_vanishes_past_96_4():
    assert tier_region_areas("D", 97.0).area(1) == 0.0
    assert tier_region_areas("D", 96.0).area(1) > 0.0


def test_region_areas_validation():
    with pytest.raises(ValueError):
        tier_region_areas("C", 80.0)
    with pytest.raises(ValueError):
        tier_region_areas("D", 60.0)
    with pytest.raises(ValueError):
        tier_region_areas("A", 30.0)


def test_region_areas_nonnegative_and_inside_disk():
    rng = np.random.default_rng(4)
    for _ in range(50):
        r = rng.uniform(67.1, 74.7)
        areas = tier_region_areas("C", r)
        assert all(a >= -1e-9 for a in areas.areas)
        assert sum(areas.areas) <= np.pi * r**2
    for _ in range(50):
        r = rng.uniform(74.7, 100.0)
        areas = tier_region_areas("D", r)
        assert all(a >= -1e-9 for a in areas.areas)
        assert sum(areas.areas) <= np.pi * r**2


def _mc_region_areas(link_class, r, n, seed):
    """Monte-Carlo membership counting oracle over the disk around S."""
    rng = np.random.default_rng(seed)
    radius = 80.0 if link_class == "C" else 110.0
    # sample uniformly in a box covering both reach disks
    x = rng.uniform(-radius, r + radius, n)
    y = rng.uniform(-radius, radius, n)
    area_box = (r + 2 * radius) * 2 * radius
    tiers = tier_index(np.hypot(x, y), np.hypot(x - r, y), link_class)
    ntiers = 3 if link_class == "C" else 5
    return [np.count_nonzero(tiers == t) / n * area_box for t in range(1, ntiers + 1)]


@pytest.mark.parametrize("link_class,r", [("C", 70.0), ("D", 80.0), ("D", 90.0), ("D", 98.0)])
def test_region_areas_match_membership_counting(link_class, r):
    analytic = tier_region_areas(link_class, r).areas
    mc = _mc_region_areas(link_class, r, 2 * 10**6, seed=int(r))
    for a, m in zip(analytic, mc):
        if a == 0.0:
            assert m == 0.0
        else:
            assert m == pytest.approx(a, rel=0.02)


# -------------------------------------------------------- classify_helper_tier

def test_tier_classification_examples():
    assert classify_helper_tier(40, 40, "C") == 1
    assert classify_helper_tier(50, 40, "D") == 2
    assert classify_helper_tier(70, 70, "C") is None
    assert classify_helper_tier(70, 40, "D") == 4
    assert classify_helper_tier(50, 70, "D") == 5
    assert classify_helper_tier(70, 40, "C") is None


def test_tier_classification_rejects_bad_hops():
    for d_sh, d_hd in ((-1.0, 10.0), (10.0, -1.0), (np.nan, 10.0), (10.0, np.nan)):
        with pytest.raises(ValueError):
            classify_helper_tier(d_sh, d_hd, "C")


def _tier_oracle(d_sh, d_hd, link_class):
    """Literal transcription of the tier tables, one row at a time."""
    lo, mid, hi = 48.2, 67.1, 74.7
    rows_c = [
        (1, (0, lo), (0, lo)),
        (2, (0, lo), (lo, mid)),
        (2, (lo, mid), (0, lo)),
        (3, (lo, mid), (lo, mid)),
    ]
    rows_d = rows_c + [
        (4, (0, lo), (mid, hi)),
        (4, (mid, hi), (0, lo)),
        (5, (lo, mid), (mid, hi)),
        (5, (mid, hi), (lo, mid)),
    ]
    for tier, (a1, b1), (a2, b2) in (rows_c if link_class == "C" else rows_d):
        if a1 <= d_sh < b1 and a2 <= d_hd < b2:
            return tier
    return None


def test_tier_classification_against_table_oracle():
    rng = np.random.default_rng(8)
    for _ in range(10**4):
        d_sh, d_hd = rng.uniform(0, 120, 2)
        for link_class in ("C", "D"):
            assert classify_helper_tier(d_sh, d_hd, link_class) == _tier_oracle(d_sh, d_hd, link_class)


def test_tier_half_open_boundaries():
    # a hop of exactly 48.2 m falls in the 5.5 Mbps band
    assert classify_helper_tier(48.2, 40.0, "C") == 2
    assert classify_helper_tier(48.2, 48.2, "C") == 3
    assert classify_helper_tier(67.1, 40.0, "D") == 4


# ------------------------------------------------------------- nn_distance_pdf

def test_nn_pdf_k1_closed_form():
    lam = 0.001
    r = np.linspace(0.1, 60, 100)
    expected = 2 * lam * np.pi * r * np.exp(-lam * np.pi * r**2)
    assert np.allclose(nn_distance_pdf(1, lam, r), expected)


@pytest.mark.parametrize("k", [1, 5, 20])
@pytest.mark.parametrize("lam", [0.0005, 0.005])
def test_nn_pdf_normalization(k, lam):
    total, _ = quad(lambda r: nn_distance_pdf(k, lam, r), 0, 2000, limit=200)
    assert total == pytest.approx(1.0, abs=1e-6)


def test_nn_pdf_zero_for_nonpositive_r():
    assert nn_distance_pdf(3, 0.001, 0.0) == 0.0
    assert nn_distance_pdf(3, 0.001, -5.0) == 0.0
    # the limit 0 where density*pi*r^2 overflows, with no warning
    for r in (np.inf, 1e200, -np.inf):
        assert nn_distance_pdf(10, 0.001, r) == 0.0
    assert nn_distance_pdf(10, 0.001, np.array([1e200, 1e155, np.inf])).tolist() == [0.0, 0.0, 0.0]


def test_nn_pdf_validation():
    with pytest.raises(ValueError):
        nn_distance_pdf(0, 0.001, 10.0)
    with pytest.raises(ValueError):
        nn_distance_pdf(2, -0.001, 10.0)
    # a NaN distance used to give 0.0
    for r in (np.nan, np.array([10.0, np.nan])):
        with pytest.raises(ValueError, match="NaN"):
            nn_distance_pdf(10, 0.001, r)


def test_nn_pdf_matches_empirical_kth_neighbor_distances():
    # empirical distances to the 5th nearest neighbor of the window center
    k, lam = 5, 0.001
    dists = []
    for s in range(2000):
        real = sample_ppp(lam, (-150, -150, 150, 150), seed=20000 + s)
        d = np.sort(np.hypot(real.nodes[:, 0], real.nodes[:, 1]))
        dists.append(d[k - 1])
    dists = np.asarray(dists)
    mean_analytic, _ = quad(lambda r: r * nn_distance_pdf(k, lam, r), 0, 1000, limit=200)
    stderr = dists.std() / np.sqrt(dists.size)
    assert abs(dists.mean() - mean_analytic) < 4 * stderr
    # the empirical mode should sit near the analytic mode as well
    grid = np.linspace(1, 100, 2000)
    mode = grid[np.argmax(nn_distance_pdf(k, lam, grid))]
    hist, edges = np.histogram(dists, bins=30)
    emp_mode = 0.5 * (edges[np.argmax(hist)] + edges[np.argmax(hist) + 1])
    assert abs(emp_mode - mode) < 8.0


# ------------------------------------------------------------ nn_distance_band

@pytest.mark.parametrize("k", [1, 2, 3, 10, 30, 100])
def test_nn_distance_band_is_the_gamma_law_bit_for_bit(k):
    # scipy.special's incomplete gamma functions against scipy.stats.gamma, whose
    # import is slow; at density 1/pi, density*pi*R^2 = R^2 is Gamma(k, 1)
    density = 1.0 / np.pi
    x = np.concatenate([np.geomspace(1e-30, 1e3, 300), np.linspace(0.0, 3.0 * k + 30.0, 300)])
    ends = np.unique(np.sqrt(x))
    u = np.concatenate([np.geomspace(1e-300, 1.0, 2000), 1.0 - np.geomspace(1e-16, 1.0, 2000)])
    tails = set()
    for a, b in zip(ends[:-1], ends[1:]):
        x_ab = density * np.pi * np.array([a * a, b * b])
        upper = gamma.sf(x_ab[0], k) < 0.5
        want = gamma.sf(x_ab, k) if upper else gamma.cdf(x_ab, k)
        if want[0] == want[1]:
            with pytest.raises(ValueError, match="holds no probability"):
                nn_distance_band(a, b, density, k)
            continue
        lo, hi, inverse = nn_distance_band(a, b, density, k)
        assert (lo, hi) == tuple(want)
        if upper not in tails:
            tails.add(upper)
            assert inverse(k, u).tobytes() == (gamma.isf if upper else gamma.ppf)(u, k).tobytes()
    assert tails == {False, True}

