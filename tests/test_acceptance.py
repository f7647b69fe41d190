"""Acceptance battery: one test per criterion, one PASS/FAIL line each.

The Monte-Carlo and bound computations here use the package's default PPP
conditioning and uniform-area link placement.  The reference curve values
do not state their distance-law conditioning, and several of them are not
reproducible under any self-consistent reading of the model (see the
project notes); those checks are kept at the stated tolerances and allowed
to fail rather than loosened.
"""

import time

import numpy as np
import pytest

from coopmac.analytic_bounds import averaged_bounds, total_throughput_bounds
from coopmac.channel_model import ChannelParams, g_joint, p_success_direct
from coopmac.cli import main
from coopmac.monte_carlo import DENSITY_GRID, ExperimentConfig, contour_grid, estimate_throughput
from coopmac.stochastic_geometry import lens_area, tier_index, tier_region_areas
from protocol_oracle import shadowing_sample

PARAMS = ChannelParams()


def _report(criterion, checks):
    """Print one PASS/FAIL line for the criterion, then assert."""
    failed = [f"{label}: {detail}" for label, ok, detail in checks if not ok]
    status = "FAIL" if failed else "PASS"
    print(f"\n[acceptance] criterion {criterion}: {status}")
    for label, ok, detail in checks:
        print(f"  {'ok  ' if ok else 'FAIL'} {label}: {detail}")
    assert not failed, f"criterion {criterion}: " + "; ".join(failed)


@pytest.fixture(scope="module")
def sweep():
    """Proposed/conventional estimates and bounds over the full density grid."""
    data = {}
    for regime in ("C", "D1", "D2"):
        config = ExperimentConfig(
            densities=DENSITY_GRID, scheme="both", regime=regime, trials=20000, base_seed=101
        )
        ests = {(e.density, e.scheme): e for e in estimate_throughput(config)}
        bounds = {lam: averaged_bounds(regime, lam) for lam in DENSITY_GRID}
        data[regime] = (ests, bounds)
    return data


def test_criterion_01_type_c_density_curves():
    targets = {
        ("proposed", 0.0005): 4.3301,
        ("proposed", 0.005): 5.0302,
        ("conventional", 0.0005): 2.8505,
        ("conventional", 0.005): 3.6403,
        ("upper", 0.0005): 4.4403,
        ("upper", 0.005): 5.0556,
        ("lower", 0.0005): 2.7001,
        ("lower", 0.005): 3.3605,
    }
    t0 = time.time()
    config = ExperimentConfig(
        densities=(0.0005, 0.005), scheme="both", regime="C", trials=200_000, base_seed=11
    )
    ests = {(e.density, e.scheme): e.mean for e in estimate_throughput(config)}
    values = {}
    for lam in (0.0005, 0.005):
        pair = averaged_bounds("C", lam)
        values[("upper", lam)] = pair.upper
        values[("lower", lam)] = pair.lower
        values[("proposed", lam)] = ests[(lam, "proposed")]
        values[("conventional", lam)] = ests[(lam, "conventional")]
    elapsed = time.time() - t0
    checks = [
        (f"{name} @ lam={lam}", abs(values[(name, lam)] - ref) <= 0.15,
         f"got {values[(name, lam)]:.4f}, reference {ref:.4f} (tol 0.15)")
        for (name, lam), ref in targets.items()
    ]
    checks.append(("runtime", elapsed < 120.0, f"{elapsed:.1f} s (limit 120 s)"))
    _report(1, checks)


def test_criterion_02_type_d_curves_at_peak_density():
    targets = {
        ("D1", "proposed"): 4.5505,
        ("D1", "upper"): 4.5703,
        ("D2", "proposed"): 2.5407,
        ("D2", "upper"): 2.5702,
    }
    values = {}
    for regime in ("D1", "D2"):
        est = estimate_throughput(
            ExperimentConfig(densities=(0.005,), regime=regime, trials=200_000, base_seed=12)
        )[0]
        values[(regime, "proposed")] = est.mean
        values[(regime, "upper")] = averaged_bounds(regime, 0.005).upper
    checks = [
        (f"{regime} {name}", abs(values[(regime, name)] - ref) <= 0.15,
         f"got {values[(regime, name)]:.4f}, reference {ref:.4f} (tol 0.15)")
        for (regime, name), ref in targets.items()
    ]
    _report(2, checks)


def test_criterion_03_total_throughput_at_peak_density():
    targets = {"upper": 9.1810, "proposed": 9.1404, "conventional": 7.6405, "lower": 7.3507}
    config = ExperimentConfig(densities=(0.005,), scheme="both", regime="all", trials=200_000, base_seed=13)
    ests = {e.scheme: e.mean for e in estimate_throughput(config)}
    pair = total_throughput_bounds(0.005)
    values = {"upper": pair.upper, "lower": pair.lower, **ests}
    checks = [
        (name, abs(values[name] - ref) <= 0.2, f"got {values[name]:.4f}, reference {ref:.4f} (tol 0.2)")
        for name, ref in targets.items()
    ]
    _report(3, checks)


def test_criterion_04_contour_claims():
    grid_c = contour_grid("C", params=PARAMS)
    v, t = grid_c["throughput"], grid_c["tier"]
    tier1_max = np.nanmax(v[t == 1])
    tier3_max = np.nanmax(v[t == 3])
    grid_d2 = contour_grid("D2", params=PARAMS)
    d2_max = np.nanmax(grid_d2["throughput"])
    checks = [
        ("Type-C tier-1 peak > 4.5 Mbps", tier1_max > 4.5, f"peak {tier1_max:.4f}"),
        ("tier-3 below half of tier-1 peak", tier3_max < 0.5 * tier1_max,
         f"tier-3 max {tier3_max:.4f} vs half-peak {0.5 * tier1_max:.4f}"),
        ("D2 peak ~ 2.8 Mbps", abs(d2_max - 2.8) <= 0.2, f"peak {d2_max:.4f} (ref 2.8 +/- 0.2)"),
    ]
    _report(4, checks)


def test_criterion_05_bounds_bracket_simulation(sweep):
    checks = []
    for regime, (ests, bounds) in sweep.items():
        for lam in DENSITY_GRID:
            est = ests[(lam, "proposed")]
            pair = bounds[lam]
            ok = pair.lower - 3 * est.stderr <= est.mean <= pair.upper + 3 * est.stderr
            checks.append(
                (f"{regime} lam={lam}", ok,
                 f"mean {est.mean:.4f} in [{pair.lower:.4f}, {pair.upper:.4f}] +/- 3x{est.stderr:.4f}")
            )
    _report(5, checks)


def test_criterion_06_geometry_against_point_counting():
    rng = np.random.default_rng(606)
    n = 10**7
    checks = []
    for r, link_class in ((70.0, "C"), (80.0, "D"), (90.0, "D"), (98.0, "D")):
        reach = 80.0
        x = rng.uniform(-reach, r + reach, n)
        y = rng.uniform(-reach, reach, n)
        box = (r + 2 * reach) * 2 * reach
        inside_lens = (np.hypot(x, y) < 48.2) & (np.hypot(x - r, y) < 48.2)
        mc_lens = inside_lens.mean() * box
        ana_lens = lens_area(48.2, 48.2, r)
        if ana_lens == 0.0:
            checks.append((f"lens r={r}", mc_lens == 0.0, f"empty lens, MC {mc_lens:.2f}"))
        else:
            checks.append(
                (f"lens r={r}", abs(mc_lens - ana_lens) / ana_lens < 0.01,
                 f"MC {mc_lens:.1f} vs analytic {ana_lens:.1f}")
            )
        tiers = tier_index(np.hypot(x, y), np.hypot(x - r, y), link_class)
        analytic = tier_region_areas(link_class, r).areas
        for tier, area in enumerate(analytic, start=1):
            mc = np.count_nonzero(tiers == tier) / n * box
            if area == 0.0:
                checks.append((f"tier {tier} r={r}", mc == 0.0, f"empty region, MC {mc:.2f}"))
            else:
                checks.append(
                    (f"tier {tier} r={r}", abs(mc - area) / area < 0.01,
                     f"MC {mc:.1f} vs analytic {area:.1f}")
                )
    _report(6, checks)


def test_criterion_07_extremal_helper_positions():
    step = 0.5
    checks = []
    for r in (70.0, 80.0, 90.0):
        link_class = "C" if r < 74.7 else "D"
        x = np.arange(-50.0, r + 50.0 + step, step)
        y = np.arange(-50.0, 50.0 + step, step)
        xx, yy = np.meshgrid(x, y)
        d_sh = np.maximum(np.hypot(xx, yy), 1e-9)
        d_hd = np.maximum(np.hypot(xx - r, yy), 1e-9)
        tiers = tier_index(d_sh, d_hd, link_class)
        g = g_joint(d_sh, d_hd, PARAMS)

        def extrema(tier):
            mask = tiers == tier
            vals = np.where(mask, g, np.nan)
            imax = np.unravel_index(np.nanargmax(vals), vals.shape)
            imin = np.unravel_index(np.nanargmin(vals), vals.shape)
            return (xx[imax], yy[imax]), (xx[imin], yy[imin])

        tol = step * 2.0  # within one grid step of the analytic point

        # tier 1: best at the midpoint, worst at the circle-crossing corners
        (mx, my), (nx, ny) = extrema(1)
        ky = np.sqrt(48.2**2 - (r / 2) ** 2)
        corners = [(r / 2, ky), (r / 2, -ky)]
        checks.append((f"tier-1 max r={r}", np.hypot(mx - r / 2, my) <= tol,
                       f"argmax ({mx:.1f},{my:.1f}) vs midpoint ({r/2:.1f},0)"))
        dmin = min(np.hypot(nx - cx, ny - cy) for cx, cy in corners)
        checks.append((f"tier-1 min r={r}", dmin <= tol,
                       f"argmin ({nx:.1f},{ny:.1f}) within {dmin:.2f} m of a corner"))

        # tier 2: best at the on-segment point where the slow hop touches
        # 48.2 m.  G is nearly flat along that circle, so the grid argmax
        # can drift sideways; verify the claim through the value (bounded
        # by and close to G at the on-segment point) and the binding
        # slow-hop constraint.
        (mx, my), (nx, ny) = extrema(2)
        g_max = np.nanmax(np.where(tiers == 2, g, np.nan))
        g_m = float(g_joint(r - 48.2, 48.2, PARAMS))
        slow = max(np.hypot(mx, my), np.hypot(mx - r, my))
        checks.append((f"tier-2 max r={r}",
                       # one grid step along the binding circle moves G by
                       # at most ~|dG/d_slow| * step ~ 0.004
                       g_max <= g_m + 1e-12 and g_m - g_max <= 5e-3 and slow - 48.2 <= tol,
                       f"grid max {g_max:.5f} vs on-segment value {g_m:.5f}, slow hop {slow:.2f} m"))
        ex = (r**2 + 48.2**2 - 67.1**2) / (2 * r)
        ey = np.sqrt(48.2**2 - ex**2)
        e_points = [(ex, ey), (ex, -ey), (r - ex, ey), (r - ex, -ey)]
        dmin = min(np.hypot(nx - px, ny - py) for px, py in e_points)
        checks.append((f"tier-2 min r={r}", dmin <= tol,
                       f"argmin ({nx:.1f},{ny:.1f}) within {dmin:.2f} m of a corner"))
    _report(7, checks)


def test_criterion_08_channel_sanity():
    frozen = {48.2: 0.8946, 67.1: 0.7030, 100.0: 0.3694}
    checks = []
    for d, ref in frozen.items():
        got = float(p_success_direct(d, PARAMS))
        checks.append((f"Ps({d})", abs(got - ref) < 1e-4, f"got {got:.6f}, reference {ref}"))
    rng = np.random.default_rng(808)
    for d, ref in frozen.items():
        draws = shadowing_sample(d, PARAMS, rng, size=10**6)
        freq = float(np.mean(draws >= PARAMS.pth))
        stderr = np.sqrt(ref * (1 - ref) / draws.size)
        checks.append(
            (f"empirical Ps({d})", abs(freq - ref) < 3 * stderr + 1e-4,
             f"freq {freq:.5f} vs {ref} (3 stderr = {3*stderr:.5f})")
        )
    _report(8, checks)


def test_criterion_09_proposed_outperforms_conventional(sweep):
    checks = []
    for regime, (ests, _) in sweep.items():
        for lam in DENSITY_GRID:
            p = ests[(lam, "proposed")]
            c = ests[(lam, "conventional")]
            margin = p.mean - c.mean
            need = 3 * float(np.hypot(p.stderr, c.stderr))
            checks.append(
                (f"{regime} lam={lam}", margin > need,
                 f"proposed {p.mean:.4f} vs conventional {c.mean:.4f} (margin {margin:.4f} > {need:.4f})")
            )
    _report(9, checks)


def test_criterion_10_bit_identical_reruns(tmp_path):
    args = ["simulate", "--class", "C", "--lambda", "0.002 0.004", "--trials", "5000", "--seed", "42"]
    paths = [tmp_path / f"run{i}.csv" for i in range(3)]
    assert main(args + ["--out", str(paths[0])]) == 0
    assert main(args + ["--out", str(paths[1])]) == 0
    assert main(args + ["--workers", "3", "--out", str(paths[2])]) == 0
    blobs = [p.read_bytes() for p in paths]
    checks = [
        ("rerun identical", blobs[0] == blobs[1], f"{len(blobs[0])} bytes"),
        ("worker count irrelevant", blobs[0] == blobs[2], "workers=1 vs workers=3"),
    ]
    _report(10, checks)
