import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import gamma as gamma_dist

from coopmac.analytic_bounds import (
    BoundPair,
    averaged_bounds,
    band_mass,
    h_integral,
    link_bounds_at_distance,
    tier_bound_pair,
    tier_probabilities,
    total_throughput_bounds,
    type_ab_throughput,
)
from coopmac.channel_model import ChannelParams, g_joint, p_success_direct
from coopmac.monte_carlo import DENSITY_GRID
from coopmac.stochastic_geometry import REGIMES, TIER1_MAX_SEPARATION, nn_distance_pdf, tier_region_areas

PARAMS = ChannelParams()


# ------------------------------------------------------------------ BoundPair

def test_bound_pair_orders_fields():
    with pytest.raises(ValueError):
        BoundPair(lower=2.0, upper=1.0)
    with pytest.raises(ValueError):
        BoundPair(lower=-0.5, upper=1.0)


# ------------------------------------------------------------------ h_integral

def test_h_integral_empty_interval():
    assert h_integral(10.0, 10.0, 1, 0.005) == 0.0


def test_h_integral_validation():
    with pytest.raises(ValueError):
        h_integral(-1.0, 10.0, 1, 0.005)
    with pytest.raises(ValueError):
        h_integral(10.0, 5.0, 1, 0.005)
    for r_min, r_max in ((0.0, np.nan), (np.nan, 10.0), (0.0, np.inf)):
        with pytest.raises(ValueError):
            h_integral(r_min, r_max, None, 0.001)


def test_h_integral_bracketed_by_endpoint_probabilities():
    # the integrand is Ps(r) * f(r) with Ps decreasing, so the value lies
    # between Ps(r_max) and Ps(r_min) times the interval mass
    k, lam = 1, 0.005
    mass = gamma_dist.cdf(lam * np.pi * 48.2**2, k)
    val = h_integral(0.0, 48.2, k, lam)
    assert float(p_success_direct(48.2)) * mass < val < mass


def test_h_integral_against_trapezoid_oracle():
    k, lam = 3, 0.002
    r = np.linspace(1e-6, 67.1, 100_001)
    integrand = p_success_direct(r) * nn_distance_pdf(k, lam, r)
    expected = np.trapezoid(integrand, r)
    assert h_integral(0.0, 67.1, k, lam) == pytest.approx(expected, abs=1e-6)


def test_degenerate_channel_reduces_to_interval_mass():
    # with the success probability replaced by 1, the integral is just the
    # kth-neighbor interval probability; emulate by integrating the pdf
    k, lam = 4, 0.001
    from coopmac.quadrature import gauss_kronrod

    mass = gauss_kronrod(lambda r, part: nn_distance_pdf(k, lam, r), [(48.2, 67.1)])[0]
    expected = gamma_dist.cdf(lam * np.pi * 67.1**2, k) - gamma_dist.cdf(lam * np.pi * 48.2**2, k)
    assert mass == pytest.approx(expected, abs=1e-8)


# ---------------------------------------------------------- type_ab_throughput

def test_type_ab_throughput_is_h_times_rate():
    k, lam = 2, 0.003
    assert type_ab_throughput("A", k, lam) == pytest.approx(h_integral(0, 48.2, k, lam) * 11.0)
    assert type_ab_throughput("B", k, lam) == pytest.approx(h_integral(48.2, 67.1, k, lam) * 5.5)
    with pytest.raises(ValueError):
        type_ab_throughput("C", k, lam)


# --------------------------------------------------------- tier_probabilities

def test_tier_probs_sum_to_one_random_tuples():
    rng = np.random.default_rng(6)
    for _ in range(100):
        link_class = "C" if rng.random() < 0.5 else "D"
        lo, hi = (67.1, 74.7) if link_class == "C" else (74.7, 100.0)
        r_k = rng.uniform(lo, hi)
        if rng.random() < 0.5:
            vec = tier_probabilities(link_class, r_k, density=float(rng.uniform(1e-4, 1e-2)))
        else:
            vec = tier_probabilities(link_class, r_k, k=int(rng.integers(1, 40)))
        total = sum(vec.probs.values()) + vec.residual
        assert total == pytest.approx(1.0, abs=1e-12)
        assert all(0.0 <= p <= 1.0 for p in vec.probs.values())


def test_tier_probs_k1_all_zero():
    vec = tier_probabilities("C", 70.0, k=1)
    assert all(p == 0.0 for p in vec.probs.values())
    assert vec.residual == 1.0


def test_tier_probs_ppp_value():
    areas = tier_region_areas("C", 70.0)
    vec = tier_probabilities("C", 70.0, density=0.005)
    expected = 1.0 - np.exp(-0.005 * areas.area(1))
    assert vec.probs[1] == pytest.approx(expected, abs=1e-12)
    assert vec.probs[1] == pytest.approx(0.9976, abs=5e-4)


def test_tier_probs_d_tier1_zero_past_96_4():
    # the two 48.2 m circles meet at most tangentially, so the tier-1 area and
    # probability are exactly 0 and link_bounds_at_distance skips the tier
    for r in (96.4, 97.0, 100.0):
        for conditioning in ({"density": 0.005}, {"k": 10}):
            vec = tier_probabilities("D", r, **conditioning)
            assert vec.probs[1] == 0.0, (r, conditioning)


def test_tier_probs_validation():
    with pytest.raises(ValueError):
        tier_probabilities("C", 80.0, density=0.001)
    with pytest.raises(ValueError):
        tier_probabilities("C", 70.0)
    with pytest.raises(ValueError):
        tier_probabilities("C", 70.0, density=0.001, k=3)


def test_tier_probs_match_simulation_frequency():
    # independent oracle: greedy tier-priority selection over PPP draws
    from coopmac.stochastic_geometry import sample_ppp, tier_index

    lam, r_k = 0.002, 70.0
    hits = np.zeros(4)  # tiers 1..3 plus residual
    n = 4000
    for s in range(n):
        real = sample_ppp(lam, (-70, -70, 140, 70), seed=31000 + s)
        tiers = tier_index(
            np.hypot(real.nodes[:, 0], real.nodes[:, 1]),
            np.hypot(real.nodes[:, 0] - r_k, real.nodes[:, 1]),
            "C",
        )
        present = tiers[tiers > 0]
        hits[int(present.min()) - 1 if present.size else 3] += 1
    vec = tier_probabilities("C", r_k, density=lam)
    for tier in (1, 2, 3):
        p = vec.probs[tier]
        stderr = np.sqrt(max(p * (1 - p), 1e-6) / n)
        assert abs(hits[tier - 1] / n - p) < 4 * stderr


# ------------------------------------------------------------ tier_bound_pair

def test_c_tier1_bounds_at_70():
    pair = tier_bound_pair("C", 1, 70.0, PARAMS)
    assert pair.lower == pytest.approx(float(g_joint(48.2, 48.2)) * 5.5, abs=1e-12)
    assert pair.lower == pytest.approx(4.4018, abs=1e-4)
    assert pair.upper == pytest.approx(float(g_joint(35, 35)) * 5.5, abs=1e-12)
    assert pair.upper == pytest.approx(5.2198, abs=1e-4)


def test_c_tier3_bounds():
    pair = tier_bound_pair("C", 3, 72.0, PARAMS)
    assert pair.lower == pytest.approx(float(g_joint(67.1, 67.1)) * 2.75, abs=1e-12)
    assert pair.lower == pytest.approx(1.3591, abs=1e-4)
    assert pair.upper == pytest.approx(float(g_joint(48.2, 48.2)) * 2.75, abs=1e-12)
    assert pair.upper == pytest.approx(2.2009, abs=1e-4)


def test_d1_tier5_bounds():
    pair = tier_bound_pair("D1", 5, 90.0, PARAMS)
    rate = 5.5 * 2 / 7.5
    assert pair.lower == pytest.approx(float(g_joint(67.1, 74.7)) * rate, abs=1e-12)
    assert pair.upper == pytest.approx(float(g_joint(48.2, 67.1)) * rate, abs=1e-12)


def test_d2_tier3_upper_uses_midpoint():
    pair = tier_bound_pair("D2", 3, 98.0, PARAMS)
    assert pair.upper == pytest.approx(float(g_joint(49, 49)) * 2.75, abs=1e-12)


def test_tier_bound_pair_errors():
    with pytest.raises(ValueError):
        tier_bound_pair("D2", 1, 98.0, PARAMS)
    with pytest.raises(ValueError):
        tier_bound_pair("C", 4, 70.0, PARAMS)
    with pytest.raises(ValueError):
        tier_bound_pair("C", 1, 80.0, PARAMS)
    # a tier is an integer: not a float, a bool, a string or None
    for tier in (1.0, True, "1", None):
        with pytest.raises(ValueError):
            tier_bound_pair("C", tier, 70.0, PARAMS)


def test_tier2_upper_dominates_lower_everywhere():
    for r in np.linspace(67.2, 74.6, 20):
        pair = tier_bound_pair("C", 2, float(r), PARAMS)
        assert pair.lower <= pair.upper


# ---------------------------------------------------- link_bounds_at_distance

def test_link_bounds_collapse_without_helpers():
    pair = link_bounds_at_distance("C", 70.0, k=1)
    expected = float(p_success_direct(70.0)) * 2.0
    assert pair.lower == pytest.approx(expected)
    assert pair.upper == pytest.approx(expected)


def test_link_bounds_dense_limit_is_tier1_pair():
    pair = link_bounds_at_distance("C", 70.0, density=10.0)
    tier1 = tier_bound_pair("C", 1, 70.0, PARAMS)
    assert pair.lower == pytest.approx(tier1.lower, abs=1e-9)
    assert pair.upper == pytest.approx(tier1.upper, abs=1e-9)


def test_link_bounds_ordered_random():
    rng = np.random.default_rng(13)
    for _ in range(30):
        regime = rng.choice(["C", "D1", "D2"])
        lo, hi = {"C": (67.1, 74.7), "D1": (74.7, 96.4), "D2": (96.4, 100.0)}[regime]
        pair = link_bounds_at_distance(regime, float(rng.uniform(lo, hi)), density=float(rng.uniform(1e-4, 6e-3)))
        assert 0.0 <= pair.lower <= pair.upper


# ------------------------------------------------------------- averaged_bounds

BANDS = {"C": (67.1, 74.7), "D1": (74.7, 96.4), "D2": (96.4, 100.0)}


def test_averaged_bounds_against_scipy_quad():
    lam = 0.005
    for regime, (a, b) in BANDS.items():  # D1 ends at the 96.4 m tier-1 tangency
        w = lambda r: 2 * r / (b * b - a * a)
        lo_expected, _ = quad(lambda r: link_bounds_at_distance(regime, r, density=lam).lower * w(r), a, b)
        hi_expected, _ = quad(lambda r: link_bounds_at_distance(regime, r, density=lam).upper * w(r), a, b)
        pair = averaged_bounds(regime, lam)
        assert pair.lower == pytest.approx(lo_expected, abs=1e-6), regime
        assert pair.upper == pytest.approx(hi_expected, abs=1e-6), regime


def test_averaged_bounds_quadrature_self_check():
    lam = 0.002
    coarse = averaged_bounds("D1", lam, tol=1e-8)
    fine = averaged_bounds("D1", lam, tol=5e-9)
    assert abs(coarse.lower - fine.lower) < 1e-6
    assert abs(coarse.upper - fine.upper) < 1e-6


def test_averaged_bounds_monotone_in_density():
    grid = [0.0005 * i for i in range(1, 11)]
    for regime in ("C", "D1", "D2"):
        pairs = [averaged_bounds(regime, lam) for lam in grid]
        lowers = [p.lower for p in pairs]
        uppers = [p.upper for p in pairs]
        assert all(a <= b + 1e-9 for a, b in zip(lowers, lowers[1:]))
        assert all(a <= b + 1e-9 for a, b in zip(uppers, uppers[1:]))


def test_averaged_bounds_k_conditioning_partial_expectation():
    # with k-nearest conditioning the average is weighted by the literal
    # kth-neighbor distance pdf (unnormalized over the class band)
    k, lam = 25, 0.001
    for regime in ("C", "D1"):
        a, b = BANDS[regime]
        lo_expected, _ = quad(
            lambda r: link_bounds_at_distance(regime, r, k=k).lower * nn_distance_pdf(k, lam, r), a, b
        )
        hi_expected, _ = quad(
            lambda r: link_bounds_at_distance(regime, r, k=k).upper * nn_distance_pdf(k, lam, r), a, b
        )
        pair = averaged_bounds(regime, lam, k=k)
        assert pair.lower == pytest.approx(lo_expected, abs=1e-6), regime
        assert pair.upper == pytest.approx(hi_expected, abs=1e-6), regime


@pytest.mark.parametrize("k", [3, 10, 30])
def test_band_conditional_bounds_match_quad_at_every_band_mass(k):
    # under k the band's partial expectation is integrated to tol x band_mass,
    # so divided by the mass it is right at a mass far below tol (down to 1e-50 here)
    for lam in DENSITY_GRID:
        for regime, (a, b) in BANDS.items():
            try:
                mass = band_mass(regime, lam, k=k)
            except ValueError:  # the band holds no probability in double precision
                continue
            pair = averaged_bounds(regime, lam, k=k)
            for side in ("lower", "upper"):
                want, _ = quad(lambda r: getattr(link_bounds_at_distance(regime, r, k=k), side)
                               * nn_distance_pdf(k, lam, r), a, b, epsabs=0.0, epsrel=1e-10, limit=200)
                got = getattr(pair, side) / mass
                assert got == pytest.approx(want / mass, rel=1e-6), (regime, lam, side, mass)
                assert 0.0 <= got <= 11.0


@pytest.mark.parametrize("regime, lam", [("C", 0.005), ("D1", 0.003), ("D1", 0.004), ("D1", 0.005)])
def test_tol_is_the_absolute_tolerance_of_the_band_mean(regime, lam):
    # band masses 1.5e-13 to 8.0e-27 at k=10: an absolute tol on the partial
    # expectation would accept the first level there, whatever its error
    k, tol = 10, 1e-12
    a, b = BANDS[regime]
    mass = band_mass(regime, lam, k=k)
    pair = averaged_bounds(regime, lam, k=k, tol=tol)
    for side in ("lower", "upper"):
        want, _ = quad(lambda r: getattr(link_bounds_at_distance(regime, r, k=k), side) * nn_distance_pdf(k, lam, r),
                       a, b, epsabs=0.0, epsrel=1e-13, limit=200)
        assert abs(getattr(pair, side) / mass - want / mass) <= 10 * tol, side


@pytest.mark.parametrize("regime, lam", [("C", 0.005), ("D1", 0.003), ("D1", 0.004), ("D1", 0.005)])
def test_simulation_within_band_conditional_bracket(regime, lam):
    # band masses 2.7e-20, 1.5e-13, 4.6e-20 and 8.0e-27: the cells where the
    # bracket of a partial expectation integrated to an absolute tol missed
    from coopmac.monte_carlo import ExperimentConfig, estimate_throughput

    k = 10
    est = estimate_throughput(ExperimentConfig(densities=(lam,), regime=regime, k=k, trials=20000, base_seed=3))[0]
    mass = band_mass(regime, lam, k=k)
    pair = averaged_bounds(regime, lam, k=k)
    assert pair.lower / mass - 4 * est.stderr <= est.mean <= pair.upper / mass + 4 * est.stderr


def test_band_mass_is_the_link_length_law_over_the_band():
    lam = 0.002
    for regime in ("C", "D1", "D2", "all"):
        a, b = REGIMES[regime][:2]
        assert band_mass(regime, lam) == pytest.approx((b * b - a * a) / 100.0**2, abs=1e-12), regime
        for k in (1, 10):
            # lam*pi*r^2 of the kth-NN distance r is Gamma(k, 1) distributed
            expected = gamma_dist.cdf(lam * np.pi * b * b, k) - gamma_dist.cdf(lam * np.pi * a * a, k)
            assert band_mass(regime, lam, k=k) == pytest.approx(expected, abs=1e-8), (regime, k)
    with pytest.raises(ValueError):
        band_mass("E", lam)
    with pytest.raises(ValueError):
        band_mass("C", lam, k=0)


def test_band_mass_is_a_probability_exact_in_the_deep_tail():
    """Under k the band mass is P{a <= R <= b} with lam*pi*R^2 ~ Gamma(k, 1): never above 1,
    and equal to the better-conditioned of scipy's two tail differences even where it is
    far below the quadrature tolerance."""
    for lam in DENSITY_GRID:
        for k in (1, 3, 10, 30):
            for regime in ("C", "D1", "D2", "all"):
                a, b = REGIMES[regime][:2]
                x = lam * np.pi * np.array([a * a, b * b])
                cdf, sf = gamma_dist.cdf(x, k), gamma_dist.sf(x, k)
                # the difference of the two smaller tail values cancels least
                expected = sf[0] - sf[1] if sf.sum() < cdf.sum() else cdf[1] - cdf[0]
                mass = band_mass(regime, lam, k=k)
                assert 0.0 <= mass <= 1.0, (regime, lam, k, mass)
                assert mass == pytest.approx(expected, rel=1e-12, abs=0.0), (regime, lam, k)


# ----------------------------------------------------- total_throughput_bounds

def test_total_bounds_ppp_against_quad_oracle():
    lam = 0.005
    w = lambda r: 2 * r / 100.0**2

    def direct(a, b, rate):
        v, _ = quad(lambda r: float(p_success_direct(r)) * rate * w(r), max(a, 1e-9), b)
        return v

    expected_lo = direct(0, 48.2, 11.0) + direct(48.2, 67.1, 5.5)
    expected_hi = expected_lo
    for regime, (a, b) in BANDS.items():
        lo, _ = quad(lambda r: link_bounds_at_distance(regime, r, density=lam).lower * w(r), a, b)
        hi, _ = quad(lambda r: link_bounds_at_distance(regime, r, density=lam).upper * w(r), a, b)
        expected_lo += lo
        expected_hi += hi
    pair = total_throughput_bounds(lam)
    assert pair.lower == pytest.approx(expected_lo, abs=1e-5)
    assert pair.upper == pytest.approx(expected_hi, abs=1e-5)


def test_total_bounds_k_conditioning_is_sum_of_parts():
    k, lam = 10, 0.001
    parts_lo = parts_hi = 0.0
    for regime in ("C", "D1", "D2"):
        p = averaged_bounds(regime, lam, k=k)
        parts_lo += p.lower
        parts_hi += p.upper
    ta = type_ab_throughput("A", k, lam)
    tb = type_ab_throughput("B", k, lam)
    pair = total_throughput_bounds(lam, k=k)
    assert pair.lower == pytest.approx(parts_lo + ta + tb, abs=1e-9)
    assert pair.upper == pytest.approx(parts_hi + ta + tb, abs=1e-9)


def test_total_bounds_ppp_is_sum_of_parts():
    # under the PPP each helper regime contributes its area share of the
    # network times its class average
    lam = 0.002
    parts_lo = parts_hi = 0.0
    for regime, (a, b) in BANDS.items():
        share = (b * b - a * a) / 100.0**2
        p = averaged_bounds(regime, lam)
        parts_lo += share * p.lower
        parts_hi += share * p.upper
    for (a, b), rate in (((1e-9, 48.2), 11.0), ((48.2, 67.1), 5.5)):
        direct, _ = quad(lambda r: float(p_success_direct(r)) * rate * 2 * r / 100.0**2, a, b)
        parts_lo += direct
        parts_hi += direct
    pair = total_throughput_bounds(lam)
    assert pair.lower == pytest.approx(parts_lo, abs=1e-7)
    assert pair.upper == pytest.approx(parts_hi, abs=1e-7)


@pytest.mark.parametrize("lam", [200.0, 1e3, 1e4])
def test_bounds_at_large_density_match_quad(lam):
    # D1 ends at the 96.4 m tier-1 tangency; at large density the tier law
    # switches from direct to tier 1 in a layer about lam^(-2/3) m wide below
    # it, which quad in r resolves only when told where it lies
    layer = TIER1_MAX_SEPARATION - np.array([1.0, 3.0, 10.0, 30.0]) * lam ** (-2.0 / 3.0)

    def band(regime):
        a, b = BANDS[regime]
        return [quad(lambda r: getattr(link_bounds_at_distance(regime, r, density=lam), side) * 2 * r / 100.0**2,
                     a, b, points=layer if regime == "D1" else None, epsabs=1e-12, epsrel=1e-11, limit=1000)[0]
                for side in ("lower", "upper")]

    parts = {regime: band(regime) for regime in BANDS}
    direct = sum(quad(lambda r: rate * float(p_success_direct(r)) * 2 * r / 100.0**2, a, b, epsabs=1e-13)[0]
                 for a, b, rate in ((0.0, 48.2, 11.0), (48.2, 67.1, 5.5)))
    share = band_mass("D1", lam)
    for pair, want in ((averaged_bounds("D1", lam), [v / share for v in parts["D1"]]),
                       (total_throughput_bounds(lam), [direct + sum(p[i] for p in parts.values()) for i in (0, 1)])):
        assert np.isfinite([pair.lower, pair.upper]).all()
        assert 0.0 <= pair.lower <= pair.upper <= 11.0
        np.testing.assert_allclose([pair.lower, pair.upper], want, rtol=0.0, atol=1e-8)
