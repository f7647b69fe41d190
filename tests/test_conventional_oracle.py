"""The conventional scheme's control table and estimates against an oracle from the geometry and the channel model alone.

A conventional link that chose region j scores with the control
c = h_j(r) + b_j(r) (q - Qbar_j(r)) + g_j(r) (y^2 - Ybar^2_j(r)) in sampled
mode, and in analytic mode adds the square and product terms of a
quadratic in (q, y^2), each centred on the region's exact covariances, with
h and the coefficients read from `within_tier.region_table` at the link's
nearest node.
h_j is E[rate x G | region j, r], which `conventional_oracle.region_mean`
computes by `scipy.integrate.dblquad`, and the scheme's mean over a band is
`conventional_oracle.scheme_mean`.  These tests check the table's h against
the oracle, the oracle against values found by an earlier quadrature,
`estimate_throughput` against the oracle by z-tests on seeds of each cell's
own, and that the table is built lazily: within 2.5 times a fixed numpy
yardstick timed beside it, read-only, and not by a process that runs only
the bounds.  The quadratic's stderr is held against the linear control's at
fixed seeds, and the fit's written-out solver (`within_tier._solve`)
against numpy's.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from coopmac import within_tier
from coopmac.channel_model import ChannelParams
from coopmac.monte_carlo import ExperimentConfig, estimate_throughput
from conventional_oracle import region_g, region_mean, scheme_mean
from plain_scoring import cell_seeds
from within_tier_reference import node_lengths

PARAMS = ChannelParams()
SRC = Path(__file__).parents[1] / "src"
# node lengths of the table to check, across its three segments: the class C band, 74.7-96.4 m and 96.4-100 m
_CHECKED = (67.1, 70.9, 74.45, 74.7, 80.0, 85.5, 91.0, 96.15, 96.4, 98.2, 100.0)
# rounds of the timing test's yardstick (`_yardstick`)
_YARDSTICK_ROUNDS = 320


def test_table_means_match_the_oracle():
    # about 8 link lengths per tier, every tier whose region has an area there; the table's rule
    # keeps 1e-8 of the oracle
    table = within_tier.region_table(67.1, 74.7, 0.005, None, PARAMS)
    nodes = node_lengths(table)
    checked = {tier: 0 for tier in range(1, 6)}
    for x in _CHECKED:
        # the nearest node; 74.7 m is the end of the first segment and the start of the second
        for j in np.flatnonzero(np.abs(nodes - x) < 0.13):
            r = float(nodes[j])
            for tier in range(1, 6):
                # a class C link has no tiers 4 and 5, which the table leaves at their best position
                if region_g(tier, r)[0] <= 0.0 or (tier > 3 and r < 74.7):
                    continue
                assert table.h[tier - 1, j] == pytest.approx(region_mean(tier, r), rel=1e-5), (r, tier)
                checked[tier] += 1
    assert min(checked.values()) >= 8, checked


def test_oracle_matches_an_earlier_quadrature():
    # the conventional means at 0.005 nodes/m^2 under the PPP, from a separate quadrature in r and rho^2
    for regime, want in (("C", 3.177820), ("D1", 2.132769), ("D2", 1.764607)):
        assert scheme_mean(regime, 0.005) == pytest.approx(want, abs=2e-6), regime


@pytest.mark.parametrize("density,k", [(0.005, None), (0.001, 3)])
@pytest.mark.parametrize("regime", ["C", "D1", "D2", "all"])
def test_conventional_means_agree_with_the_oracle(regime, density, k):
    seed, _ = cell_seeds("conventional oracle", regime, density, k)
    config = ExperimentConfig(densities=(density,), scheme="conventional", regime=regime, trials=200_000,
                              base_seed=seed, k=k)
    est = estimate_throughput(config)[0]
    z = (est.mean - scheme_mean(regime, density, k)) / est.stderr
    assert abs(z) <= 4, (est.mean, est.stderr, z)


def _yardstick():
    """A fixed numpy computation shaped like the table's fit: many small elementwise passes, about 9 ms on 2 cores."""
    x = np.linspace(0.0, 1.0, 2048)
    total = 0.0
    for i in range(_YARDSTICK_ROUNDS):
        y = np.sin(x + i)
        y *= y
        y += np.exp(-x)
        total += float(np.sqrt(y, out=y).sum())
    return total


def test_table_is_built_quickly_and_read_only():
    # the best of three builds for a parameter set no other test uses, each timed beside the yardstick, so
    # that a slow or busy host slows both; the fit took 0.9-1.3 yardsticks on 2 cores, idle or with the other
    # core busy, and 7-8.5 with one node per block of its rule
    params = ChannelParams(pt=1.5)
    seconds = {"fit": [], "yardstick": []}
    for _ in range(3):
        within_tier._region_fit.cache_clear()
        for name, run in (("fit", lambda: within_tier._region_fit(params)), ("yardstick", _yardstick)):
            start = time.perf_counter()
            run()
            seconds[name].append(time.perf_counter() - start)
    assert min(seconds["fit"]) <= 2.5 * min(seconds["yardstick"]), seconds
    table = within_tier.region_table(0.0, 100.0, 0.001, 10, params)
    assert table.h is within_tier._region_fit(params).h
    assert table.edges.tolist() == [48.2, 67.1, 74.7]
    for array in table:
        assert not array.flags.writeable
    assert np.all(np.isfinite(table.h)) and np.all(np.isfinite(table.within)) and np.all(np.isfinite(table.slope_y))


def test_bounds_build_no_conventional_table():
    # importing the package and running the bounds neither loads the control module nor builds its tables
    code = ("import sys, coopmac\n"
            "from coopmac.analytic_bounds import averaged_bounds, total_throughput_bounds\n"
            "averaged_bounds('D1', 0.001); averaged_bounds('C', 0.002, k=10); total_throughput_bounds(0.001)\n"
            "assert 'coopmac.within_tier' not in sys.modules\n"
            "from coopmac import within_tier\n"
            "assert within_tier._region_fit.cache_info().currsize == 0\n"
            "assert within_tier.region_table.cache_info().currsize == 0\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


# conventional analytic estimates at 0.005 nodes/m^2 under the PPP, 20,000 trials, seed 23, at commit 8dbfdb0, whose
# control was linear in (q, y^2): (mean, stderr)
_LINEAR_CONTROL = {"C": (3.1778201721710464, 0.00012113124111613447), "D1": (2.1328020531530325, 6.645667829619459e-05),
                   "D2": (1.7646232532471429, 3.161996300060346e-05), "all": (4.68645719251596, 5.682366770946985e-05)}


@pytest.mark.parametrize("regime", sorted(_LINEAR_CONTROL))
def test_quadratic_control_cuts_the_stderr(regime):
    # the same cells with the quadratic in (q, y^2): at most 0.35 of the linear control's stderr (it read
    # 0.13-0.17), and the mean within 4 of the old stderr
    mean, stderr = _LINEAR_CONTROL[regime]
    est = estimate_throughput(ExperimentConfig(densities=(0.005,), scheme="conventional", regime=regime, trials=20_000,
                                               base_seed=23))[0]
    assert est.stderr <= 0.35 * stderr, (est.stderr, stderr)
    assert abs(est.mean - mean) <= 4 * stderr, (est.mean, mean)


def test_solve_matches_numpy_and_drops_a_dependent_term():
    # the normal equations of random positive definite systems, against numpy's solver; a term that repeats
    # another is dropped, and the rest fit as they do without it
    rng = np.random.default_rng(5)
    z = rng.normal(size=(6, 5, 200)) * np.array([1.0, 1e3, 1e-2, 1e6, 3.0])[None, :, None]
    gram = np.einsum("nip,njp->ijn", z, z)
    rhs = rng.normal(size=(5, 6))
    want = np.stack([np.linalg.solve(gram[..., n], rhs[:, n]) for n in range(6)], axis=1)
    np.testing.assert_allclose(within_tier._solve(gram, rhs), want, rtol=1e-9)
    z[:, 2] = 2.0 * z[:, 0]
    gram = np.einsum("nip,njp->ijn", z, z)
    x = within_tier._solve(gram, rhs)
    assert np.all(x[2] == 0.0)
    keep = [0, 1, 3, 4]
    want = np.stack([np.linalg.solve(gram[np.ix_(keep, keep, [n])][..., 0], rhs[keep, n]) for n in range(6)], axis=1)
    np.testing.assert_allclose(x[keep], want, rtol=1e-8)
