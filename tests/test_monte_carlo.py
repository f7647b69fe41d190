import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import gamma as gamma_dist

from coopmac import monte_carlo
from coopmac.analytic_bounds import averaged_bounds, band_mass
from coopmac.channel_model import ChannelParams, g_joint, p_success_direct
from coopmac.monte_carlo import (
    CONTOUR_DEFAULT_RK,
    DENSITY_GRID,
    ExperimentConfig,
    SimEstimate,
    _draw_link_distance,
    contour_grid,
    estimate_throughput,
)
from coopmac.stochastic_geometry import REGIMES, nn_distance_band
from test_stochastic_geometry import class_tier_areas

PARAMS = ChannelParams()


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(densities=(-0.001,))
    with pytest.raises(ValueError):
        ExperimentConfig(scheme="greedy")
    with pytest.raises(ValueError):
        ExperimentConfig(regime="E")
    with pytest.raises(ValueError):
        ExperimentConfig(estimator_mode="exact")
    with pytest.raises(ValueError):
        ExperimentConfig(k=0)
    with pytest.raises(ValueError, match="k must be an integer"):
        ExperimentConfig(k=True)
    with pytest.raises(ValueError, match="empty"):
        ExperimentConfig(densities=())
    for density in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="finite"):
            ExperimentConfig(densities=(0.001, density))
    with pytest.raises(ValueError, match="base_seed"):
        ExperimentConfig(base_seed=-1)
    # constructed only: a chunk size below 1 would never finish the job loop
    for chunk_size in (0, -5):
        with pytest.raises(ValueError, match="chunk_size"):
            ExperimentConfig(chunk_size=chunk_size)
    # counts must be integers: a bool ran as 1 trial, a float failed inside numpy
    for name, value in (("trials", True), ("trials", 2.5), ("chunk_size", 2.5), ("base_seed", 1.5)):
        with pytest.raises(ValueError, match="%s must be an integer" % name):
            ExperimentConfig(**{name: value})


def test_density_grid_matches_sweep():
    assert DENSITY_GRID[0] == 0.0005
    assert DENSITY_GRID[-1] == 0.005
    assert len(DENSITY_GRID) == 10


@pytest.mark.parametrize("workers", [0, -2, 1.5, True])
def test_worker_count_must_be_a_positive_integer(workers):
    # 0 and -2 used to run serially without a word; the check comes before any process starts
    with pytest.raises(ValueError, match="workers must be an integer >= 1"):
        estimate_throughput(ExperimentConfig(trials=10), workers=workers)


def test_determinism_across_runs_and_workers():
    config = ExperimentConfig(densities=(0.002, 0.004), scheme="both", regime="C", trials=6000, base_seed=17)
    a = estimate_throughput(config)
    b = estimate_throughput(config)
    c = estimate_throughput(config, workers=2)
    assert a == b == c


@pytest.mark.parametrize("k", [None, 10])
def test_determinism_all_links_both_schemes_sampled(k):
    # every draw of a chunk, the variable-length rejection rounds included,
    # comes from the chunk's own stream
    config = ExperimentConfig(densities=(0.001, 0.005), scheme="both", regime="all", trials=3000,
                              estimator_mode="sampled", base_seed=23, k=k, chunk_size=700)
    a = estimate_throughput(config)
    b = estimate_throughput(config)
    c = estimate_throughput(config, workers=2)
    assert a == b == c


def test_chunk_size_does_not_change_uncached_layout():
    # same seed, different chunking -> different but statistically equal
    base = ExperimentConfig(densities=(0.002,), regime="C", trials=8000, base_seed=3)
    alt = ExperimentConfig(densities=(0.002,), regime="C", trials=8000, base_seed=3, chunk_size=2000)
    ea = estimate_throughput(base)[0]
    eb = estimate_throughput(alt)[0]
    assert abs(ea.mean - eb.mean) < 3 * np.hypot(ea.stderr, eb.stderr)


def test_stderr_scaling():
    small = estimate_throughput(ExperimentConfig(densities=(0.002,), regime="C", trials=5000, base_seed=1))[0]
    big = estimate_throughput(ExperimentConfig(densities=(0.002,), regime="C", trials=20000, base_seed=2))[0]
    assert big.stderr == pytest.approx(small.stderr / 2, rel=0.2)


def test_analytic_and_sampled_means_agree():
    an = estimate_throughput(ExperimentConfig(densities=(0.003,), regime="C", trials=40000, base_seed=5))[0]
    sa = estimate_throughput(
        ExperimentConfig(densities=(0.003,), regime="C", trials=40000, base_seed=6, estimator_mode="sampled")
    )[0]
    assert abs(an.mean - sa.mean) < 3 * np.hypot(an.stderr, sa.stderr)


def _direct_average(a, b, rate):
    w = lambda r: 2 * r / (b * b - a * a)
    v, _ = quad(lambda r: float(p_success_direct(r)) * rate * w(r), max(a, 1e-9), b)
    return v


def test_direct_only_classes_match_quadrature():
    for regime, a, b, rate in (("A", 0.0, 48.2, 11.0), ("B", 48.2, 67.1, 5.5)):
        est = estimate_throughput(
            ExperimentConfig(densities=(0.002,), regime=regime, trials=40000, base_seed=4)
        )[0]
        expected = _direct_average(a, b, rate)
        assert abs(est.mean - expected) < 4 * est.stderr


def test_vanishing_density_collapses_to_direct():
    est = estimate_throughput(
        ExperimentConfig(densities=(1e-7,), regime="C", trials=30000, base_seed=4)
    )[0]
    expected = _direct_average(67.1, 74.7, 2.0)
    assert abs(est.mean - expected) < 4 * max(est.stderr, 1e-6)


def test_proposed_beats_conventional():
    config = ExperimentConfig(densities=(0.001, 0.005), scheme="both", regime="C", trials=20000, base_seed=21)
    ests = {(e.density, e.scheme): e for e in estimate_throughput(config)}
    for lam in (0.001, 0.005):
        p = ests[(lam, "proposed")]
        c = ests[(lam, "conventional")]
        assert p.mean - c.mean > 3 * np.hypot(p.stderr, c.stderr)


def test_k_conditioned_estimates_bracketed():
    # normalize the band partial expectation to compare with the
    # band-conditional simulation mean
    k, lam = 20, 0.001
    a, b = 67.1, 74.7
    mass = gamma_dist.cdf(lam * np.pi * b * b, k) - gamma_dist.cdf(lam * np.pi * a * a, k)
    pair = averaged_bounds("C", lam, k=k)
    est = estimate_throughput(
        ExperimentConfig(densities=(lam,), regime="C", trials=30000, base_seed=8, k=k)
    )[0]
    assert pair.lower / mass - 3 * est.stderr <= est.mean <= pair.upper / mass + 3 * est.stderr


@pytest.mark.parametrize("k", [1, 10])
@pytest.mark.parametrize("regime", ["C", "D1", "D2"])
def test_k_conditioned_band_deep_in_the_tail(regime, k):
    # at this density the band lies so far in the upper tail of the kth-NN
    # law that both CDF ends round to 1; the draw must invert the tail instead
    config = ExperimentConfig(densities=(0.005,), regime=regime, trials=4000, base_seed=9, k=k)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        est = estimate_throughput(config)[0]
    assert np.isfinite(est.mean) and 0.0 < est.mean <= 11.0
    lo, hi = REGIMES[regime][:2]
    r = _draw_link_distance(np.random.default_rng(9), 1000, (lo, hi), 0.005, k)
    assert np.all((r >= lo) & (r <= hi))


class _GivenUniforms:
    """Stands in for a Generator whose next uniform draws are the given u."""

    def __init__(self, u):
        self.u = u

    def uniform(self, size):
        assert size == self.u.size
        return self.u


# every band of REGIMES at these densities, for the draw's comparison with scipy's inverse
_DRAW_DENSITIES = sorted(set(DENSITY_GRID) | {0.0001, 0.005, 0.01, 0.05})
# seeded u plus the edges: the band's near end, an x -> 0 start, the middle and the largest double below 1
_DRAW_U = np.concatenate([np.random.default_rng(14).uniform(size=10_000), [0.0, 1e-300, 0.5, 1.0 - 2.0 ** -53]])


@pytest.mark.parametrize("k", [1, 2, 3, 10, 30, 100])
def test_k_nearest_draw_is_the_exact_inverse(k):
    # the per-chunk table with its Newton polish against one scipy inverse per u,
    # the draw it replaced, on every band with mass in double precision
    worst, bands = 0.0, 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for a, b, _ in REGIMES.values():
            for density in _DRAW_DENSITIES:
                try:
                    lo, hi, inverse = nn_distance_band(a, b, density, k)
                except ValueError:
                    continue  # no mass in double precision
                r = _draw_link_distance(_GivenUniforms(_DRAW_U), _DRAW_U.size, (a, b), density, k)
                want = np.maximum(np.sqrt(inverse(k, lo + _DRAW_U * (hi - lo)) / (density * np.pi)), 1e-9)
                assert np.all((r >= a) & (r <= b)), (a, b, density)
                worst = max(worst, np.max(np.abs(r - want) / want))
                bands += 1
    assert bands >= 70
    assert worst <= 1e-12


def test_k_nearest_draw_inverts_only_the_table_on_a_smooth_band(monkeypatch):
    # class C at 0.0005 nodes/m^2 under k = 10 has no singular end: every draw is
    # certified by its Newton step, and the exact inverse sees the table's nodes alone
    calls = []

    def counted_band(*args):
        lo, hi, inverse = nn_distance_band(*args)
        return lo, hi, lambda k, v: calls.append(np.size(v)) or inverse(k, v)

    monkeypatch.setattr(monte_carlo, "nn_distance_band", counted_band)
    _draw_link_distance(np.random.default_rng(4), 10_000, REGIMES["C"][:2], 0.0005, 10)
    assert calls == [monte_carlo._TABLE_INTERVALS + 1, 0]


@pytest.mark.parametrize("k", [None, 10])
@pytest.mark.parametrize("regime", ["C", "D1", "D2", "all"])
def test_estimates_do_not_depend_on_which_lenses_are_evaluated(regime, k, monkeypatch):
    config = ExperimentConfig(densities=(0.0005, 0.005), scheme="both", regime=regime, trials=3000,
                              base_seed=12, k=k, chunk_size=1000)
    trimmed = estimate_throughput(config)
    # the reference evaluates all five lenses of every link
    monkeypatch.setattr(monte_carlo, "tier_areas", class_tier_areas)
    assert estimate_throughput(config) == trimmed


def test_k_conditioned_band_without_mass_raises():
    config = ExperimentConfig(densities=(0.05,), regime="D2", trials=100, k=1)
    with pytest.raises(ValueError, match="no probability"):
        estimate_throughput(config)


# ---------------------------------------------------------------- contour_grid

def test_contour_values_respect_rate_ceilings():
    grid = contour_grid("C", params=PARAMS)
    v = grid["throughput"]
    t = grid["tier"]
    assert np.nanmax(v) <= 5.5
    assert np.all(v[t == 2][~np.isnan(v[t == 2])] <= 11 / 3 + 1e-9)
    assert np.all(v[t == 3][~np.isnan(v[t == 3])] <= 2.75 + 1e-9)
    assert np.all(np.isnan(v[t == 0]))


def test_contour_max_at_midpoint_for_type_c():
    grid = contour_grid("C", r_k=70.0, resolution=0.25, params=PARAMS)
    v = grid["throughput"]
    i, j = np.unravel_index(np.nanargmax(v), v.shape)
    assert grid["x"][j] == pytest.approx(35.0, abs=0.5)
    assert grid["y"][i] == pytest.approx(0.0, abs=0.5)
    assert np.nanmax(v) == pytest.approx(float(g_joint(35, 35)) * 5.5, abs=1e-3)


def test_contour_default_rk_and_validation():
    grid = contour_grid("D2")
    assert grid["r_k"] == CONTOUR_DEFAULT_RK["D2"]
    with pytest.raises(ValueError):
        contour_grid("C", r_k=80.0)
    with pytest.raises(ValueError):
        contour_grid("X")
    # nan and inf used to reach numpy's arange ("cannot compute length")
    for resolution in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="resolution must be positive and finite"):
            contour_grid("C", resolution=resolution)


@pytest.mark.parametrize("regime", ["C", "D1", "D2"])
def test_k_conditioned_bounds_over_band_mass_bracket_simulation(regime):
    # under k-nearest conditioning averaged_bounds is the partial expectation
    # over the band; the simulation reports the mean given the band
    k, lam = 10, 0.0005
    est = estimate_throughput(
        ExperimentConfig(densities=(lam,), regime=regime, trials=20000, base_seed=12, k=k)
    )[0]
    pair = averaged_bounds(regime, lam, k=k)
    mass = band_mass(regime, lam, k=k)
    assert pair.lower / mass - 5 * est.stderr <= est.mean <= pair.upper / mass + 5 * est.stderr
