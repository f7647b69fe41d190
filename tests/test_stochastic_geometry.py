import numpy as np
import pytest
from scipy.integrate import quad

from coopmac.analytic_bounds import tier_probabilities
from coopmac.stochastic_geometry import (
    classify_helper_tier,
    cumulative_areas,
    lens_area,
    nn_distance_pdf,
    sample_ppp,
    tier_areas,
    tier_index,
    tier_region_areas,
)


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


def test_lens_rejects_bad_inputs():
    with pytest.raises(ValueError):
        lens_area(-1.0, 5.0, 2.0)
    with pytest.raises(ValueError):
        lens_area(5.0, 5.0, -0.1)


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


def test_nn_pdf_validation():
    with pytest.raises(ValueError):
        nn_distance_pdf(0, 0.001, 10.0)
    with pytest.raises(ValueError):
        nn_distance_pdf(2, -0.001, 10.0)


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
