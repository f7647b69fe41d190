import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import gamma as gamma_dist

from coopmac import monte_carlo, within_tier
from coopmac.analytic_bounds import averaged_bounds, band_mass
from coopmac.channel_model import ChannelParams, g_joint, p_success_direct
from coopmac.monte_carlo import (
    CONTOUR_DEFAULT_RK,
    DENSITY_GRID,
    ExperimentConfig,
    SimEstimate,
    _chunk_sizes,
    _draw_link_distance,
    _link_distance,
    _run_chunk,
    _stratified_moments,
    _stratified_uniforms,
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
    # constructed only: a chunk size below 1 would never finish the job loop,
    # and a chunk of one trial has no pair to estimate its variance from
    for chunk_size in (1, 0, -5):
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


def _assert_sampled_agrees_with_analytic(**kw):
    """|z| <= 4 between analytic mode on seed 5 and sampled mode on seed 6, both schemes at 0.003 nodes/m^2."""
    kw = dict(densities=(0.003,), scheme="both", trials=200_000, **kw)
    for an, sa in zip(estimate_throughput(ExperimentConfig(base_seed=5, **kw)),
                      estimate_throughput(ExperimentConfig(base_seed=6, estimator_mode="sampled", **kw))):
        z = (an.mean - sa.mean) / np.hypot(an.stderr, sa.stderr)
        assert abs(z) <= 4, (an.scheme, an.mean, sa.mean, z)


@pytest.mark.parametrize("regime", ["C", "D1", "D2", "all"])
@pytest.mark.parametrize("k", [None, 10])
def test_analytic_and_sampled_means_agree(k, regime):
    _assert_sampled_agrees_with_analytic(regime=regime, k=k)


@pytest.mark.parametrize("regime", ["C", "D1", "D2"])
def test_analytic_and_sampled_means_agree_under_a_loose_budget(regime):
    # log Ps is not concave here, so the bracket's upper end is not proved: sampled
    # mode settles no failure and draws above the sure share of every link with a helper
    _assert_sampled_agrees_with_analytic(regime=regime, channel=ChannelParams(alpha=2.0, pt=-30.0))


@pytest.mark.parametrize("regime", ["C", "D1", "D2"])
@pytest.mark.parametrize("k", [None, 10])
def test_grid_cuts_the_sampled_stderr(k, regime, monkeypatch):
    # on one seed the two layouts see the same draws; B = 1 strata u alone and leaves v unstratified.  The grid's
    # cut of the Bernoulli draw is checked without the indicator term (beta = 0), which takes part of that same
    # variance; with the term the grid still cuts the stderr, by less
    config = ExperimentConfig(densities=(0.001,), scheme="both", regime=regime, trials=10_000,
                              estimator_mode="sampled", k=k, base_seed=41)
    with_term = estimate_throughput(config)
    monkeypatch.setattr(within_tier, "_INDICATOR_BETA", np.zeros(5))
    grid = estimate_throughput(config)
    monkeypatch.setattr(monte_carlo, "_grid_columns", lambda n, estimator_mode: 1)
    for est, flat in zip(grid, estimate_throughput(config)):
        assert 1.4 * est.stderr <= flat.stderr, (est.scheme, est.stderr, flat.stderr)
    monkeypatch.undo()
    monkeypatch.setattr(monte_carlo, "_grid_columns", lambda n, estimator_mode: 1)
    for est, flat in zip(with_term, estimate_throughput(config)):
        assert 1.25 * est.stderr <= flat.stderr, (est.scheme, est.stderr, flat.stderr)


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
    # the exact mean is the direct-only value plus a helper share of order
    # density x tier area, about 1e-3 Mbps here: the bounds bracket it, and
    # the estimate lies no farther from the direct-only value than the upper bound
    direct = _direct_average(67.1, 74.7, 2.0)
    pair = averaged_bounds("C", 1e-7)
    assert direct < pair.lower
    assert pair.lower - 4 * est.stderr <= est.mean <= pair.upper + 4 * est.stderr
    assert abs(est.mean - direct) <= pair.upper - direct


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
                r = _link_distance(_DRAW_U, (a, b), density, k)
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


# ---------------------------------------------------------------- stratified link lengths

_TOP = 1.0 - 2.0 ** -53  # the largest uniform below 1


class _GivenUniforms:
    """Stands in for a Generator whose next uniform draws are the given u."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        assert size == self.u.size
        return self.u.copy()


def _grid_cells(n, columns):
    """Each stratum's cell (u0, u1, v0, v1) of the grid, written out from its rule, and each trial's stratum."""
    s = max(n // 2, 1)
    cells = []
    for h in range(s):
        a, b = divmod(h, columns)
        width = min(columns, s - a * columns)
        cells.append((a * columns / s, (a * columns + width) / s, b / width, (b + 1) / width))
    stratum = np.arange(n) % s
    stratum[2 * s:] = s - 1
    return cells, stratum


def _grid_uniforms(rng, n, columns):
    return _stratified_uniforms(rng, n, columns), monte_carlo._stratified_columns(rng, n, columns)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 10_000, 10_001])
def test_each_slice_of_u_holds_two_trials(n):
    s = max(n // 2, 1)
    for mode, columns in (("analytic", 1), ("sampled", math.isqrt(s))):
        assert monte_carlo._grid_columns(n, mode) == columns
        cells, stratum = _grid_cells(n, columns)
        # the cells tile the unit square, each with mass 1 / S: the u-slices run
        # edge to edge over [0, 1), and each slice's columns over [0, 1)
        assert [(u1 - u0) * (v1 - v0) for u0, u1, v0, v1 in cells] == pytest.approx([1.0 / s] * s, rel=1e-12)
        slices = {}
        for u0, u1, v0, v1 in cells:
            slices.setdefault((u0, u1), []).append((v0, v1))
        edges = sorted(slices)
        assert edges[0][0] == 0.0 and edges[-1][1] == pytest.approx(1.0, rel=1e-15)
        assert all(lo[1] == pytest.approx(hi[0], rel=1e-15) for lo, hi in zip(edges, edges[1:]))
        for spans in slices.values():
            assert spans[0][0] == 0.0 and spans[-1][1] == 1.0
            assert all(lo[1] == hi[0] for lo, hi in zip(spans, spans[1:]))
        # trial i sits in the middle of its stratum's cell: stratum i mod S, and an odd chunk's trial 2S in the last
        box = np.array(cells)[stratum]
        u, v = _grid_uniforms(_GivenUniforms(np.full(n, 0.5)), n, columns)
        assert u == pytest.approx((box[:, 0] + box[:, 1]) / 2, rel=1e-15)
        assert v == pytest.approx((box[:, 2] + box[:, 3]) / 2, rel=1e-15)
        # and anywhere in it; so two trials per cell, the last three when n is odd, one trial in one cell of one
        u, v = _grid_uniforms(np.random.default_rng(n), n, columns)
        assert np.all((box[:, 0] <= u) & (u < box[:, 1]) & (box[:, 2] <= v) & (v < box[:, 3]))
        want = [1] if n == 1 else [2] * (s - 1) + [2 + n % 2]
        assert np.bincount(stratum, minlength=s).tolist() == want


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 10_000, 10_001])
def test_one_column_keeps_the_strata_of_u(n):
    # with B = 1 the grid is the pair strata of u alone, u = (h + U) / S, bit for bit
    given = np.random.default_rng(n).random(n)
    s = max(n // 2, 1)
    want = given.copy()
    slices = np.arange(s, dtype=float)
    want[:s] += slices
    want[s:2 * s] += slices[:n - s]
    want[2 * s:] += s - 1
    want *= 1.0 / s
    np.minimum(want, _TOP, out=want)
    assert _stratified_uniforms(_GivenUniforms(given), n).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 10_000, 10_001])
def test_stratified_uniforms_stay_below_one(n):
    # (S - 1 + U) / S rounds to 1.0 for U = 1 - 2^-53 and S >= 2, and so can the
    # last column's (b + V) / B_a; _gamma_quantiles would index past the end of its table
    for columns in (1, math.isqrt(max(n // 2, 1))):
        u, v = _grid_uniforms(_GivenUniforms(np.full(n, _TOP)), n, columns)
        assert u.max() < 1.0 and v.max() < 1.0
        r = _draw_link_distance(_GivenUniforms(np.full(n, _TOP)), n, REGIMES["all"][:2], 0.001, 10, columns)
        assert np.all((r > 0.0) & (r <= REGIMES["all"][1]))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 11, 12, 1001])
def test_stratified_moments_match_the_strata(n):
    t = 11.0 * np.random.default_rng(n).uniform(size=n)
    s = max(n // 2, 1)
    rows = [[h, h + s] for h in range(s)] if n > 1 else [[0]]
    if n % 2 and n > 1:
        rows[-1].append(2 * s)
    strata = [t[row] for row in rows]
    mean = np.mean([x.mean() for x in strata])
    var = sum(x.var(ddof=1) / x.size for x in strata if x.size > 1) / s ** 2
    total, spread = _stratified_moments(t)
    assert total == pytest.approx(n * mean, rel=1e-13)
    assert spread == pytest.approx(n * n * var, rel=1e-12)
    if n % 2 == 0:
        # an even chunk's n mean is the plain sum, and its n^2 var the sum of squared pair differences
        assert total == float(t.sum())
        assert spread == float(np.sum((t[:s] - t[s:]) ** 2))


@pytest.mark.parametrize("trials,chunk_size", [(1, 10_000), (1, 2), (2, 2), (3, 2), (5, 2), (7, 3),
                                               (2001, 1000), (2001, 2000), (9999, 10_000), (10_001, 10_000)])
def test_no_chunk_holds_one_trial(trials, chunk_size):
    sizes = _chunk_sizes(trials, chunk_size)
    assert sum(sizes) == trials
    assert sizes[:-1] == [chunk_size] * (len(sizes) - 1)
    if trials == 1:
        assert sizes == [1]
    else:
        # a rest of one joins the chunk before it
        assert 2 <= sizes[-1] <= chunk_size + 1


def test_estimate_reduces_the_stratified_chunks():
    # 2001 trials in chunks of 1000 are 1000 and 1001 trials, the second with a stratum of three
    config = ExperimentConfig(densities=(0.002,), regime="all", trials=2001, chunk_size=1000, base_seed=6)
    est = estimate_throughput(config)[0]
    parts = [_run_chunk((config, 0, 0.002, "proposed", chunk, n)) for chunk, n in enumerate((1000, 1001))]
    assert est.mean == math.fsum(p[0] for p in parts) / 2001
    assert est.stderr == math.sqrt(math.fsum(p[1] for p in parts)) / 2001
    assert est.stderr > 0.0


@pytest.mark.parametrize("k", [None, 10])
def test_one_trial_has_zero_stderr(k):
    for regime in ("C", "all"):
        est = estimate_throughput(ExperimentConfig(densities=(0.002,), regime=regime, trials=1, base_seed=2, k=k))[0]
        assert est.stderr == 0.0
        assert 0.0 < est.mean <= 11.0


# (regime, estimator mode, k) at 0.005 nodes/m^2, each with both schemes
_CALIBRATION_CELLS = ([(regime, mode, k) for regime in ("all", "D1") for mode in ("analytic", "sampled") for k in (None, 10)]
                      + [(regime, "sampled", k) for regime in ("C", "D2") for k in (None, 10)])
# Under k = 10 at this density the class mix is class A but for about 6e-8 of
# its links, and what variance the strata leave sits in the top slices of u,
# where r(u) runs up the Gamma tail.  Each slice's pair is one degree of
# freedom, so the stderr is right in square but skewed: the spread of the
# means over seeds is 1.3x its mean at 2000 trials.
_FEW_DEGREES = pytest.mark.xfail(strict=True, reason="stderr of a tail-dominated cell has few degrees of freedom")


@pytest.mark.parametrize("cell", [pytest.param(i, marks=_FEW_DEGREES) if c == ("all", "analytic", 10) else i
                                  for i, c in enumerate(_CALIBRATION_CELLS)])
def test_stratified_stderr_is_calibrated(cell):
    # the spread of the means over 100 seeds against the mean reported stderr; every
    # cell has its own base seeds, so the cells' streams are independent
    regime, mode, k = _CALIBRATION_CELLS[cell]
    means, stderrs = {}, {}
    for i in range(100):
        config = ExperimentConfig(densities=(0.005,), scheme="both", regime=regime, trials=2000,
                                  estimator_mode=mode, k=k, base_seed=1000 * cell + i)
        for e in estimate_throughput(config):
            means.setdefault(e.scheme, []).append(e.mean)
            stderrs.setdefault(e.scheme, []).append(e.stderr)
    for scheme in means:
        ratio = np.std(means[scheme], ddof=1) / np.mean(stderrs[scheme])
        assert 0.75 <= ratio <= 1.3, (scheme, ratio)


@pytest.mark.parametrize("k", [None, 10])
def test_class_mix_matches_the_separate_classes(k):
    # regime "all" against its classes weighted by their band masses, each on its own seed
    lam = 0.001

    def run(regime, seed):
        return estimate_throughput(ExperimentConfig(densities=(lam,), scheme="both", regime=regime, trials=20_000,
                                                    k=k, base_seed=seed))

    whole = run("all", 40)
    parts = {regime: run(regime, 41 + i) for i, regime in enumerate(("A", "B", "C", "D1", "D2"))}
    weight = {regime: band_mass(regime, lam, k) / band_mass("all", lam, k) for regime in parts}
    assert sum(weight.values()) == pytest.approx(1.0, rel=1e-12)
    for j, est in enumerate(whole):
        mix = sum(weight[r] * parts[r][j].mean for r in parts)
        se = math.sqrt(est.stderr ** 2 + sum((weight[r] * parts[r][j].stderr) ** 2 for r in parts))
        assert abs(est.mean - mix) <= 4 * se, (est.scheme, est.mean, mix, se)


def test_pool_has_at_most_one_process_per_chunk(monkeypatch):
    made = []

    class InlinePool:
        """Records the pool size asked for and runs the map in this process."""

        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize=1):
            return map(fn, jobs)

    monkeypatch.setattr(monte_carlo, "ProcessPoolExecutor", InlinePool)
    config = ExperimentConfig(densities=(0.002,), regime="C", trials=3000, chunk_size=1000, base_seed=5)
    assert estimate_throughput(config, workers=500) == estimate_throughput(config)
    assert made == [3]
    # a run of one chunk needs no pool at all
    estimate_throughput(ExperimentConfig(densities=(0.002,), regime="C", trials=100), workers=500)
    assert made == [3]


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
    # a fine grid is refused before any array is allocated: 1e-4 m used to ask for tens of TB
    for resolution in (1e-4, 1e-320):
        with pytest.raises(ValueError, match="above the cap of 1000000"):
            contour_grid("D2", resolution=resolution)
    # the finest grid in use holds 4.4e5 nodes
    assert contour_grid("C", resolution=0.25)["throughput"].size <= monte_carlo.CONTOUR_MAX_NODES


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
