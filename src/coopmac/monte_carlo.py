"""Seeded Monte-Carlo estimation of cooperative throughput.

Each trial places a source at the origin and a destination at a distance
drawn from the link-class band (uniform-area law by default), draws the
helper the selection scheme picks, and scores the trial's throughput.

Only the helpers a scheme can see are drawn (tier-first sampling), under
both conditionings.  The proposed scheme settles on the lowest non-empty
tier, whose law the void probabilities of the tier regions give exactly
(`stochastic_geometry.tier_void_law`, the tier law of the bounds too); the
trial then draws the tier's helper count (zero-truncated Poisson under the
PPP, zero-truncated Binomial over the k-1 nodes nearer than the
destination), places the helpers uniformly in the tier region, and keeps
the largest G.  The conventional scheme picks a uniform helper from the
union of the tier regions, which is non-empty unless all are void.  With
k = 1 no node is nearer than the destination, so no link has a helper.

Placement is bipolar: a helper is drawn as (d_SH^2, angle at S), uniform
in area, by rejection from the polar box that holds its hop order's region
(d_SH in one hop band, d_HD in the other), and d_HD follows from the law
of cosines, so a candidate costs no hypot and no tier lookup.

Trials are generated in fixed-size chunks whose rng streams are derived
from (base seed, cell, chunk index), and every draw of a chunk, the
variable-length rejection rounds included, comes from its own stream, so
results are bit-identical for a given seed regardless of how chunks are
distributed across workers.

Throughput scoring follows the rate-times-success-probability metric: in
analytic mode a trial contributes rate * G(d_SH, d_HD) of the selected
helper (or rate * Ps(r) for direct fallback); sampled mode replaces the
probability with a Bernoulli draw of the same mean.  Link lengths, hop
bands, tiers and rates are read from the band table of `stochastic_geometry`
(`REGIMES`, `BAND_EDGES`, `TIER_BANDS`, `BAND_RATES`, `TIER_RATES`), and a
kth-NN link length is drawn by inverting `nn_distance_band`.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .channel_model import ChannelParams, g_joint, p_success_direct
from .stochastic_geometry import (
    BAND_2,
    BAND_55,
    BAND_EDGES,
    BAND_RATES,
    CLASS_REGIMES,
    CLASS_TIERS,
    HELPER_REGIMES,
    REGIMES,
    TIER_BANDS,
    TIER_RATES,
    TIER_REACH,
    check_band,
    cumulative_areas,
    hop_band,
    nn_distance_band,
    tier_areas,
    tier_index,
    tier_void_law,
)

# rejection rounds after which a placement that never completes fails
_MAX_ROUNDS = 100

# r_k used for the contour figures when not overridden: class-range midpoint,
# written out because (74.7 + 96.4) / 2 is 85.55000000000001 in floating point
CONTOUR_DEFAULT_RK = {"C": 70.9, "D1": 85.55, "D2": 98.2}
# figure id -> regimes of its density sweep, and one contour map per helper regime
SWEEP_FIGURES = {"fig7": CLASS_REGIMES["C"], "fig9": CLASS_REGIMES["D"], "fig10": CLASS_REGIMES["all"]}
CONTOUR_FIGURES = {"contour_" + regime.lower(): regime for regime in HELPER_REGIMES}
FIGURES = (*SWEEP_FIGURES, *CONTOUR_FIGURES)

DENSITY_GRID = tuple(round(0.0005 * i, 6) for i in range(1, 11))


@dataclass(frozen=True)
class ExperimentConfig:
    """One Monte-Carlo experiment: density sweep x scheme x link regime."""

    densities: tuple = (0.001,)
    scheme: str = "proposed"  # proposed | conventional | both
    regime: str = "C"  # A | B | C | D1 | D2 | all
    trials: int = 200_000
    estimator_mode: str = "analytic"  # analytic | sampled
    base_seed: int = 0
    channel: ChannelParams = field(default_factory=ChannelParams)
    k: Optional[int] = None  # None -> ppp conditioning
    chunk_size: int = 10_000

    def __post_init__(self):
        object.__setattr__(self, "densities", tuple(float(d) for d in np.atleast_1d(self.densities)))
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not all(math.isfinite(d) and d > 0 for d in self.densities):
            raise ValueError("densities must be positive and finite")
        if self.base_seed < 0:
            raise ValueError("base_seed must be >= 0")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if self.scheme not in ("proposed", "conventional", "both"):
            raise ValueError("unknown scheme %r" % (self.scheme,))
        check_band(self.regime, REGIMES)
        if self.estimator_mode not in ("analytic", "sampled"):
            raise ValueError("estimator_mode must be 'analytic' or 'sampled'")
        if self.k is not None and not (isinstance(self.k, (int, np.integer)) and self.k >= 1):
            raise ValueError("k must be an integer >= 1 or None")


@dataclass(frozen=True)
class SimEstimate:
    mean: float
    stderr: float
    trials: int
    density: float
    scheme: str
    regime: str
    seed: int


def _draw_link_distance(rng, n, band, density, k):
    """Per-trial S-D distance: area law on the band, or truncated kth-NN law."""
    a, b = band
    u = rng.uniform(size=n)
    if k is None:
        r = np.sqrt(a * a + u * (b * b - a * a))
    else:
        lo, hi, inverse = nn_distance_band(a, b, density, k)
        if lo == hi:
            raise ValueError(
                "the link band [%g, %g] m holds no probability in double precision "
                "under the k=%d nearest-neighbor law at density %g" % (a, b, k, density)
            )
        r = np.sqrt(inverse(lo + u * (hi - lo), k) / (density * np.pi))
    return np.maximum(r, 1e-9)


def _zero_truncated_poisson(rng, mu):
    """Poisson(mu) draws conditioned on being >= 1, exactly.

    Given that a unit-rate Poisson process on [0, mu] has a point, its first
    point sits at T1 = -log(1 - u * (1 - exp(-mu))), and the points after it
    are Poisson(mu - T1).
    """
    t1 = -np.log1p(rng.uniform(size=mu.size) * np.expm1(-mu))
    return 1 + rng.poisson(np.maximum(mu - t1, 0.0))


def _zero_truncated_binomial(rng, n, p):
    """Binomial(n, p) draws conditioned on being >= 1, exactly.

    Given that n trials hold a success, the first one is trial J with
    P{J <= j} = (1 - q^j) / (1 - q^n), q = 1 - p, and the trials after it
    are Binomial(n - J, p).
    """
    with np.errstate(divide="ignore"):  # p = 1: log q = -inf, and J = 1
        log_q = np.log1p(-p)
    j = np.ceil(np.log1p(rng.uniform(size=p.size) * np.expm1(n * log_q)) / log_q)
    j = np.clip(j, 1, n).astype(np.int64)
    return 1 + rng.binomial(n - j, p)


def _theta(x, rho, r):
    """Angle at S between the S-D axis and the point at distance rho from S and x from D.

    The points at distance rho from S nearer than x to D are those at angles
    below it; where there are none it is 0, where all are it is pi.  At
    rho = 0 it is the limit rho -> 0: 0 for r > x, pi for r < x, pi/2 for
    r = x.
    """
    num = rho * rho + r * r - x * x
    cos = np.divide(num, 2.0 * rho * r, out=np.sign(num), where=rho > 0)
    return np.arccos(np.clip(cos, -1.0, 1.0))


def _polar_box(r, a, b, c, d):
    """(rho_lo, rho_hi, theta_lo, theta_hi) of the region d_SH in I = [a, b), d_HD in J = [c, d).

    In polar coordinates (rho, theta) around S, with D at angle 0, the
    region's upper half-plane part is rho in I, |r - rho| < d and
    theta(c; rho) <= theta < theta(d; rho) for J = [c, d).  The cosine of
    theta(x; rho) is (rho^2 + r^2 - x^2) / (2 rho r): convex in rho for r > x,
    with its least value at rho* = sqrt(r^2 - x^2), and increasing for r <= x.
    So theta(d; rho) is largest at rho* clipped to the rho range, and
    theta(c; rho) is smallest at an end of it (and 0 for c = 0).
    """
    lo = np.maximum(a, r - d)
    hi = np.minimum(b, r + d)
    t_hi = _theta(d, np.clip(np.sqrt(np.maximum(r * r - d * d, 0.0)), lo, hi), r)
    t_lo = np.where(c > 0, np.minimum(_theta(c, lo, r), _theta(c, hi, r)), 0.0)
    return lo, hi, t_lo, t_hi


def _draw_polar(rng, lo, hi, t_lo, t_span, r):
    """One candidate per entry, uniform in area over its polar box; returns (d_SH, d_HD).

    d_SH^2 is uniform on [lo^2, hi^2) and the angle on [t_lo, t_lo + t_span),
    and d_HD^2 = (d_SH - r)^2 + 4 d_SH r sin^2(angle / 2) is the law of
    cosines in a form that is never negative.
    """
    lo2 = lo * lo
    d_sh = np.sqrt(lo2 + (hi * hi - lo2) * rng.random(r.size))
    half = np.sin(0.5 * (t_lo + t_span * rng.random(r.size)))
    d_hd = np.sqrt((d_sh - r) ** 2 + 4.0 * d_sh * r * half * half)
    return d_sh, d_hd


def _place_in_tier(rng, r, tier, area, count):
    """count[j] >= 1 points uniform in the tier[j] region (area area[j]) of a link of length r[j].

    Bipolar placement: each point is drawn in polar coordinates around S by
    rejection from the (d_SH^2, angle) box of its hop order (`_polar_box`),
    and kept when its hop lengths lie in the order's two bands.  A tier with
    hops in two different bands has two hop orders, mirror images of equal
    area, so a Binomial(count, 1/2) draw splits each trial's points between
    them, and each order is placed as a sub-trial of its own.  Each round
    draws about need/p candidates for every unfinished sub-trial, where p is
    the region's share of its box, and keeps the first accepted ones up to
    the number still needed.  Returns (trial index, d_SH, d_HD), sorted by trial.
    """
    count = np.asarray(count, dtype=np.int64)
    hops = np.take(TIER_BANDS, tier - 1, axis=0)
    mixed = hops[:, 0] != hops[:, 1]
    in_order = count.copy()
    in_order[mixed] = rng.binomial(count[mixed], 0.5)
    # sub-trial 2j + o holds trial j's points of hop order o; order 1 swaps the bands
    split = np.column_stack((in_order, count - in_order)).ravel()
    sub = np.flatnonzero(split)
    need = split[sub]
    trial = sub >> 1
    rs = r[trial]
    # hop-band edges of each sub-trial's d_SH, [a, b), and d_HD, [c, d)
    a, b = (np.take(BAND_EDGES, hops.ravel()[sub] + i) for i in (0, 1))
    c, d = (np.take(BAND_EDGES, hops[:, ::-1].ravel()[sub] + i) for i in (0, 1))
    lo, hi, t_lo, t_hi = _polar_box(rs, a, b, c, d)
    t_span = t_hi - t_lo
    # the order's area in the upper half-plane, area / 2 / orders, over the box's, (hi^2 - lo^2) t_span / 2
    share = area[trial] / (np.where(mixed[trial], 2.0, 1.0) * (hi * hi - lo * lo) * t_span)
    parts = []
    todo = np.arange(sub.size)
    for _ in range(_MAX_ROUNDS):
        if not todo.size:
            break
        m = np.ceil(need[todo] / share[todo]).astype(np.int64)
        tid = np.repeat(todo, m)
        d_sh, d_hd = _draw_polar(rng, lo[tid], hi[tid], t_lo[tid], t_span[tid], rs[tid])
        # the returned distances themselves, so that hop_band agrees at the band edges;
        # [lo, hi) lies in the S-hop band
        ok = (d_sh >= lo[tid]) & (d_sh < hi[tid]) & (d_hd >= c[tid]) & (d_hd < d[tid])
        # keep the first min(accepted, needed) accepted candidates of each sub-trial:
        # sub-trial j's accepted ones sit at acc_start[j] onward in flatnonzero(ok)
        got = np.add.reduceat(ok, np.cumsum(m) - m, dtype=np.int64)
        take = np.minimum(got, need[todo])
        acc_start, out_start = np.cumsum(got) - got, np.cumsum(take) - take
        keep = np.flatnonzero(ok)[np.repeat(acc_start - out_start, take) + np.arange(take.sum())]
        parts.append((tid[keep], d_sh[keep], d_hd[keep]))
        need[todo] -= take
        todo = todo[need[todo] > 0]
    else:
        raise RuntimeError("rejection sampling of helper positions did not finish")
    tid, d_sh, d_hd = (np.concatenate(p) for p in zip(*parts))
    # sub-trials are in trial order, so sorting by sub-trial sorts by trial
    order = np.argsort(tid, kind="stable")
    return trial[tid[order]], d_sh[order], d_hd[order]


def _tier_first_helpers(rng, r, density, k, scheme, params):
    """Selected helper of each link, under the PPP (k None) or with k-1 nodes nearer than the destination.

    Only the helpers the scheme can see are drawn.  The proposed scheme takes
    the best helper of the lowest non-empty tier, whose law is given by the
    void probabilities of the tier regions; the conventional scheme takes one
    helper uniformly from the union of the regions.  Returns (index into r of
    the links with a helper, its tier, its G).
    """
    # (5, n) tier-region areas of links r >= 67.1 m; a class C link has no tiers 4 and 5
    areas = np.array(tier_areas(r))
    areas[CLASS_TIERS["C"]:, r < BAND_2] = 0.0
    u = rng.uniform(size=r.size)
    if scheme == "proposed":
        # the lowest non-empty tier is the number of terms of P{tiers 1..i all
        # empty}, i = 0..5, above u; 6 is none
        tier = np.sum(tier_void_law(areas, r, density, k) > u, axis=0)
        has = np.flatnonzero(tier <= areas.shape[0])
        tier = tier[has]
        area = areas[tier - 1, has]
        if k is None:
            count = _zero_truncated_poisson(rng, density * area)
        else:
            # each of the k-1 nodes avoids tiers 1..i-1, so it lies in tier i
            # with probability S_i / (disk area - S_1 - ... - S_(i-1))
            rest = np.pi * r[has] ** 2 - (cumulative_areas(areas)[tier - 1, has] - area)
            count = _zero_truncated_binomial(rng, k - 1, area / rest)
    elif scheme == "conventional":
        cum = cumulative_areas(areas)
        # a helper exists unless the union of the regions, taken as one tier, is empty
        has = np.flatnonzero(u < 1.0 - tier_void_law(cum[-1:], r, density, k)[-1])
        # region j with probability S_j / S_total; w < S_total, so S_j > 0
        w = rng.uniform(size=has.size) * cum[-1, has]
        tier = 1 + np.sum(cum[:, has] <= w, axis=0)
        area = areas[tier - 1, has]
        count = np.ones(has.size, dtype=np.int64)
    else:
        raise ValueError("unknown scheme %r" % (scheme,))
    if not has.size:
        return has, tier, np.empty(0)
    _, d_sh, d_hd = _place_in_tier(rng, r[has], tier, area, count)
    g = g_joint(d_sh, d_hd, params)
    # best G of each link's points (one point per link for the conventional scheme)
    return has, tier, np.maximum.reduceat(g, np.cumsum(count) - count)


def _chunk_throughput(regime, density, scheme, n, params, estimator_mode, k, rng):
    """Vectorized simulation of n trials; returns the throughput samples."""
    r = _draw_link_distance(rng, n, REGIMES[regime][:2], density, k)
    ps_r = p_success_direct(r, params)
    rate = np.take(BAND_RATES, hop_band(r))
    success_p = ps_r.copy()

    elig = np.flatnonzero(r >= BAND_55)  # classes C and D benefit from helpers
    # with k = 1 the destination is the source's nearest node: no helper is nearer
    if elig.size and k != 1:
        has, tier, g = _tier_first_helpers(rng, r[elig], density, k, scheme, params)
        chosen = elig[has]
        rate[chosen] = np.take(TIER_RATES, tier - 1)
        success_p[chosen] = g

    if estimator_mode == "sampled":
        return rate * (rng.uniform(size=n) < success_p)
    return rate * success_p


def _run_chunk(job):
    config, cell, density, scheme, chunk, n = job
    rng = np.random.default_rng(np.random.SeedSequence(entropy=config.base_seed, spawn_key=(cell, chunk)))
    t = _chunk_throughput(config.regime, density, scheme, n, config.channel, config.estimator_mode, config.k, rng)
    return float(t.sum()), float(np.dot(t, t))


def estimate_throughput(config: ExperimentConfig, workers: int = 1) -> List[SimEstimate]:
    """Run the experiment and return one estimate per (density, scheme) cell.

    Deterministic for a fixed base seed at any worker count: every chunk's
    rng stream depends only on (seed, cell index, chunk index) and the
    reduction is exactly-rounded summation in chunk order.
    """
    schemes = ("proposed", "conventional") if config.scheme == "both" else (config.scheme,)
    cells = [(d, s) for d in config.densities for s in schemes]
    sizes = [min(config.chunk_size, config.trials - start) for start in range(0, config.trials, config.chunk_size)]
    jobs = [(config, cell, density, scheme, chunk, n)
            for cell, (density, scheme) in enumerate(cells) for chunk, n in enumerate(sizes)]

    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_chunk, jobs, chunksize=4))
    else:
        results = [_run_chunk(j) for j in jobs]

    out = []
    n = config.trials
    for cell, (density, scheme) in enumerate(cells):
        sums, sqs = zip(*results[cell * len(sizes):(cell + 1) * len(sizes)])
        mean = math.fsum(sums) / n
        if n > 1:
            var = max(math.fsum(sqs) - n * mean * mean, 0.0) / (n - 1)
            stderr = math.sqrt(var / n)
        else:
            stderr = 0.0
        out.append(SimEstimate(mean=mean, stderr=stderr, trials=n, density=density, scheme=scheme,
                               regime=config.regime, seed=config.base_seed))
    return out


def contour_grid(regime: str, r_k: Optional[float] = None, resolution: float = 0.5,
                 params: ChannelParams = ChannelParams()):
    """Cooperative-throughput map over helper positions for one link.

    The source sits at (0, 0) and the destination at (r_k, 0).  Each grid
    node inside a helper-tier region gets R_coop(tier) * G(d_SH, d_HD);
    nodes outside every tier region are NaN.  Returns a dict with 1-D
    ``x``/``y`` axes and a 2-D ``throughput`` array (y rows, x columns).
    """
    if r_k is None:
        r_k = CONTOUR_DEFAULT_RK.get(regime)
    check_band(regime, HELPER_REGIMES, r_k)
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    link_class = REGIMES[regime][2]
    reach = TIER_REACH[CLASS_TIERS[link_class] - 1]
    x = np.arange(-reach, r_k + reach + resolution, resolution)
    y = np.arange(-reach, reach + resolution, resolution)
    xx, yy = np.meshgrid(x, y)
    d_sh = np.hypot(xx, yy)
    d_hd = np.hypot(xx - r_k, yy)
    tier = tier_index(d_sh, d_hd, link_class)
    value = np.full(xx.shape, np.nan)
    mask = tier > 0
    value[mask] = np.take(TIER_RATES, tier[mask] - 1) * g_joint(np.maximum(d_sh[mask], 1e-9), np.maximum(d_hd[mask], 1e-9), params)
    return {"x": x, "y": y, "throughput": value, "tier": tier, "r_k": float(r_k), "regime": regime}


def reproduce_figure(
    figure: str,
    densities=DENSITY_GRID,
    trials: int = 200_000,
    base_seed: int = 0,
    params: ChannelParams = ChannelParams(),
    k: Optional[int] = None,
    workers: int = 1,
):
    """Tabular dataset behind one of the headline figures.

    ``fig7``: Type-C density sweep (upper/proposed/conventional/lower).
    ``fig9``: Type-D sweep, one row group per regime (D1 and D2).
    ``fig10``: network-total sweep (all link classes combined).
    ``contour_c`` / ``contour_d1`` / ``contour_d2``: throughput maps.
    """
    from .analytic_bounds import averaged_bounds, total_throughput_bounds

    if figure in CONTOUR_FIGURES:
        grid = contour_grid(CONTOUR_FIGURES[figure], params=params)
        rows = []
        yy, xx = np.nonzero(~np.isnan(grid["throughput"]))
        for i, j in zip(yy, xx):
            rows.append({"x": float(grid["x"][j]), "y": float(grid["y"][i]),
                         "throughput": float(grid["throughput"][i, j]),
                         "tier": int(grid["tier"][i, j])})
        return rows
    if figure not in SWEEP_FIGURES:
        raise ValueError("unknown figure %r; valid ids: %s" % (figure, ", ".join(FIGURES)))

    rows = []
    for regime in SWEEP_FIGURES[figure]:
        config = ExperimentConfig(
            densities=tuple(densities),
            scheme="both",
            regime=regime,
            trials=trials,
            base_seed=base_seed,
            channel=params,
            k=k,
        )
        estimates = estimate_throughput(config, workers=workers)
        by_cell = {(e.density, e.scheme): e for e in estimates}
        for d in config.densities:
            if regime == "all":
                pair = total_throughput_bounds(d, k=k, params=params)
            else:
                pair = averaged_bounds(regime, d, k=k, params=params)
            row = {
                "density": d,
                "regime": regime,
                "upper": pair.upper,
                "proposed": by_cell[(d, "proposed")].mean,
                "conventional": by_cell[(d, "conventional")].mean,
                "lower": pair.lower,
                "proposed_stderr": by_cell[(d, "proposed")].stderr,
                "conventional_stderr": by_cell[(d, "conventional")].stderr,
            }
            rows.append(row)
    return rows
