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
k = 1 no node is nearer than the destination, so no link has a helper.  A
trial costs a handful of points whatever the density or k.

Placement is bipolar: a helper is drawn as (d_SH^2, angle at S), uniform
in area, by rejection from a polar box, and d_HD follows from the law of
cosines, so a candidate costs no hypot and no tier lookup.  Helpers are
placed in one hop order, d_SH in the tier's higher hop band.  That is exact:
swapping S and D maps this order's half of a two-band tier region onto the
other half and swaps the hops, of which G and the tier are symmetric, so G
has the law it has for a point uniform in the whole region.

Trials are generated in fixed-size chunks whose rng streams are derived
from (base seed, cell, chunk index), and every draw of a chunk, the
variable-length rejection rounds included, comes from its own stream, so
results are bit-identical for a given seed regardless of how chunks are
distributed across workers.

Each chunk's trials are stratified in pairs: a chunk of n_c trials has
S = n_c // 2 strata of mass 1/S, each holding two trials (the last three
when n_c is odd).  The strata are the cells of a grid over (u, v), where u
is the uniform that a link length inverts and v the one that sampled
mode's Bernoulli success compares against its probability.  Stratum h is
cell (a, b) = divmod(h, B): u-slice a spans [a B, a B + B_a) / S with
B_a = min(B, S - a B), and column b spans [b, b + 1) / B_a of v.  In
sampled mode B = isqrt(S), so both draws are stratified at no extra draw
(Glasserman, Monte Carlo Methods in Financial Engineering, 2004, 4.3); in
analytic mode, which has no v, B = 1 and the strata are S equal slices of
u.  Most of the variance of a class mix lies between link classes, and
most of that of a sampled cell in its Bernoulli draw, which the strata
remove in part.  A chunk reports its stratified mean (1/S) sum_h ybar_h and
variance (1/S^2) sum_h s_h^2 / n_h, where a pair's s_h^2 / n_h is
(t1 - t2)^2 / 4; see `SimEstimate` for the reduction.  A rest of one trial
joins the chunk before it, so no stratum holds a single trial unless the
run has one.

Throughput scoring follows the rate-times-success-probability metric: in
analytic mode a trial scores t = rate * G(d_SH, d_HD) of the selected
helper (or rate * Ps(r) for direct fallback); sampled mode replaces the
probability with a Bernoulli draw of the same mean, success when the
trial's stratified v lies below it; that draw is the one meaning of
"sampled" in the package.  Link lengths, hop bands, tiers and
rates are read from the band table of `stochastic_geometry` (`REGIMES`,
`BAND_EDGES`, `TIER_BANDS`, `BAND_RATES`, `TIER_RATES`).

A chunk draws, in order: the link lengths, in sampled mode v, each link's
tier or region choice (`_tier_choice`), and the helper counts and
positions (`_best_g`).  G anywhere in the chosen tier lies between its
values at the tier's worst and best positions, the bracket of
`channel_model.tier_bracket`.  G_worst bounds G for every ChannelParams,
as Ps falls with the hop length, so in sampled mode a link with a helper
scores its sure share lo = rate * G_worst exactly and draws its Bernoulli
only above it: it scores lo + (rate - lo) 1{x < rate * max G}, with
x = lo + (rate - lo) v uniform on [lo, rate), which has the mean
rate * max G (conditional Monte Carlo, Asmussen & Glynn, Stochastic
Simulation, 2007, ch. V).  Direct links and classes A and B keep the plain
draw v < Ps(r).  Sampled mode places helpers only where the outcome depends
on them (the squeeze: Devroye, Non-Uniform Random Variate Generation, 1986,
II.3): x >= rate * G_best(r) (1 + eps) is a failure whatever the helpers,
with eps = _SQUEEZE_MARGIN = 1e-9, far above the rounding of G and of the
bracket, so every settled outcome is the one full placement gives
(`_squeeze`).  G_best bounds G only while log Ps is concave in the hop
length (`channel_model.log_ps_concave`), so under a parameter set that
fails the check (a loose link budget) no failure is settled.  Only the
links left open draw a count and place helpers: under the reference
parameters at 0.001 nodes/m^2, 42-73% of those with a helper.  Analytic
mode has no v and places the helpers of every link with one.

In both modes a class C or D link then reports t - c + m(r), a control
variate: c is a centre for the tier or region the trial chose, plus a term
of mean 0 where its helpers were placed, and m(r) is c's exact mean given
r.  In sampled mode c also holds an indicator of the Bernoulli draw
itself, with its exact mean.  What each scheme's control is and the
tables it is read from are stated in `within_tier`, whose `control`
computes c and m for a chunk; in regime `all` the stratum of u that holds
a class edge also takes a term of mean 0 (`_edge_term`).  Analytic mode
reads no bracket per link: the tables hold what the centres need.

A kth-NN link length inverts the Gamma(k, 1) law of `nn_distance_band`
through a per-chunk table of its exact inverse, a cubic Hermite and one
Newton step on the forward law (`_gamma_quantiles`), not one scipy inverse
per trial, and agrees with the exact inverse to 1e-12 relative.

The `reproduce` figure tables, which set these estimates beside the
bounds, are built by the `cli` module; this module imports no other layer
above `channel_model` and `stochastic_geometry` but `within_tier`, the
control variates of both schemes, which itself imports those two alone and
is loaded by the first chunk that reaches class C, so that a process that
runs only the bounds builds no table.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, NamedTuple, Optional

import numpy as np
from scipy.special import gammainc, gammaincc, gammaln

from .channel_model import ChannelParams, check_channel, g_joint, log_ps_concave, p_success_direct, tier_bracket
from .stochastic_geometry import (
    BAND_2,
    BAND_55,
    BAND_RATES,
    CLASS_TIERS,
    HELPER_REGIMES,
    REGIMES,
    TIER_BOXES,
    TIER_RATES,
    TIER_REACH,
    check_band,
    check_conditioning,
    check_integer,
    choice_law,
    hop_angle,
    hop_band,
    nn_distance_band,
    tier_areas,
    tier_index,
    tier_load,
)

# rejection rounds after which a placement that never completes fails
_MAX_ROUNDS = 100

# r_k used for the contour figures when not overridden: class-range midpoint,
# written out because (74.7 + 96.4) / 2 is 85.55000000000001 in floating point
CONTOUR_DEFAULT_RK = {"C": 70.9, "D1": 85.55, "D2": 98.2}

DENSITY_GRID = tuple(round(0.0005 * i, 6) for i in range(1, 11))

# the most nodes a contour grid may hold, 8 MB per float array of the grid; the finest grid in use, class C
# at 0.25 m, holds 4.4e5 nodes, and its `contour` run peaks at 109 MB
CONTOUR_MAX_NODES = 10 ** 6

# intervals of the kth-NN inverse's table in `_gamma_quantiles` (a power of
# two), and the largest Newton step, as a fraction of x, that certifies a
# draw: a step on g, the log of a tail, from an error e leaves about
# |g''/g'| e^2 / 2, and at this bound every band of `REGIMES` is within 2e-14
_TABLE_INTERVALS = 256
_MAX_STEP = 1e-7

# the largest double below 1, the top of every stratified uniform
_BELOW_ONE = 1.0 - 2.0 ** -53

# relative margin by which sampled mode's draw x must clear the upper end of a
# link's rate x G bracket for the squeeze to settle it as a failure (`_squeeze`)
_SQUEEZE_MARGIN = 1e-9


@dataclass(frozen=True)
class ExperimentConfig:
    """One Monte-Carlo experiment: density sweep x scheme x link regime.

    Every field is checked on construction, each density and k by
    `stochastic_geometry.check_conditioning` (a density before it is
    converted to float), trials, base_seed and chunk_size by
    `stochastic_geometry.check_integer`, and channel by
    `channel_model.check_channel`; a failed check raises ValueError.
    The CLI runs its experiment fields through this class.
    """

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
        # a bare density is a sweep of one; a tuple or list is not made an array
        # first, which would turn a bool among floats into a float
        given = self.densities
        densities = tuple(given) if isinstance(given, (tuple, list)) or np.ndim(given) else (given,)
        for d in densities:
            check_conditioning(d, self.k)
        object.__setattr__(self, "densities", tuple(float(d) for d in densities))
        if not self.densities:
            raise ValueError("densities must not be empty")
        # a chunk holds its trials in strata of two, so it needs two
        for name, least in (("trials", 1), ("base_seed", 0), ("chunk_size", 2)):
            check_integer(name, getattr(self, name), least)
        if self.scheme not in ("proposed", "conventional", "both"):
            raise ValueError("unknown scheme %r" % (self.scheme,))
        check_band(self.regime, REGIMES)
        if self.estimator_mode not in ("analytic", "sampled"):
            raise ValueError("estimator_mode must be 'analytic' or 'sampled'")
        check_channel(self.channel)


@dataclass(frozen=True)
class SimEstimate:
    """One cell's mean throughput (Mbps) and its standard error.

    Each chunk of n_c trials is a stratified estimate with S = n_c // 2
    strata of mass 1/S.  The chunk's mean is (1/S) sum_h ybar_h and its
    variance (1/S^2) sum_h s_h^2 / n_h, (t1 - t2)^2 / 4 for a pair.  The
    cell's mean is sum_c n_c mean_c / trials, clipped into [0, 11] Mbps,
    and its stderr is sqrt(sum_c n_c^2 var_c) / trials.  One trial has
    stderr 0.  Every sample has the plain score's mean and is a function of
    its own trial and its stratum alone, so the stratified stderr holds as
    it stands; the module docstring states the strata, the control variates
    and the squeeze.
    """

    mean: float
    stderr: float
    trials: int
    density: float
    scheme: str
    regime: str
    seed: int


def _grid_columns(n, estimator_mode):
    """Columns B of the grid of a chunk of n trials: isqrt(S) in sampled mode, 1 in analytic mode."""
    return math.isqrt(max(n // 2, 1)) if estimator_mode == "sampled" else 1


@lru_cache(maxsize=8)
def _strata(n, columns):
    """(a B, B_a, b) of each trial's stratum on the grid of `_stratified_uniforms`, as float arrays.

    The arrays are read-only and cached, as a chunk's size and columns
    repeat over a run.
    """
    s = max(n // 2, 1)
    h = np.arange(n) % s
    h[2 * s:] = s - 1
    a, column = np.divmod(h, columns)
    start = a * columns
    grid = tuple(x.astype(float) for x in (start, np.minimum(columns, s - start), column))
    for x in grid:
        x.flags.writeable = False
    return grid


def _stratified_uniforms(rng, n, columns=1):
    """n uniforms u on [0, 1) in strata of two, laid out as cells of a grid over (u, v).

    S = max(n // 2, 1) strata hold trials h and h + S each (and trial 2S too
    in the last one when n is odd).  Stratum h is cell (a, b) = divmod(h, B)
    of a grid of B = `columns` columns (`_strata`): u-slice a spans
    [a B, a B + B_a) / S with B_a = min(B, S - a B), and column b spans
    [b, b + 1) / B_a of the uniform v of `_stratified_columns`, so every cell
    has mass 1 / S.  Here u = (U B_a + a B) (1 / S) for a uniform U of the
    rng, clamped below 1.0, which the top slice can round to; with B = 1
    that is (h + U) / S, the strata of u alone.  Trials 0..S-1 and S..2S-1
    each run through the strata in order, so `_stratified_moments` pairs
    them as two unit-stride slices.
    """
    start, width, _ = _strata(n, columns)
    u = rng.random(n)
    u *= width
    u += start
    u *= 1.0 / max(n // 2, 1)
    return np.minimum(u, _BELOW_ONE, out=u)


def _stratified_columns(rng, n, columns):
    """n uniforms v on [0, 1), each in its stratum's column of the grid of `_stratified_uniforms`.

    v = (b + V) / B_a for a uniform V of the rng, clamped below 1.0, which
    the last column can round to.
    """
    _, width, column = _strata(n, columns)
    v = rng.random(n)
    v += column
    v /= width
    return np.minimum(v, _BELOW_ONE, out=v)


def _stratified_moments(t):
    """(n mean, n^2 var) of the stratified estimate of `SimEstimate` from a chunk's samples t.

    The samples are in the strata of `_stratified_uniforms`.  For even n,
    n mean is the plain sum; a chunk of one trial reports a variance of 0.
    """
    n = t.size
    s = n // 2
    if not s:
        return float(t.sum()), 0.0
    # strata (h, h + s) are pairs, but for an odd chunk's last one, which has three trials
    odd = n % 2
    diff = t[:s - odd] - t[s:2 * s - odd]
    means = t.sum() / 2.0
    within = np.dot(diff, diff) / 4.0
    if odd:
        tail = t[[s - 1, 2 * s - 1, 2 * s]]
        means += tail.mean() - tail.sum() / 2.0
        within += tail.var(ddof=1) / 3.0
    w = n / s
    return float(w * means), float(w * w * within)


def _draw_link_distance(rng, n, band, density, k, columns=1):
    """Per-trial S-D distance from stratified uniforms (`_stratified_uniforms`) on a grid of `columns`."""
    return _link_distance(_stratified_uniforms(rng, n, columns), band, density, k)


def _link_distance(u, band, density, k):
    """S-D distance at each u in [0, 1): area law on the band, or truncated kth-NN law."""
    a, b = band
    if k is None:
        return np.maximum(np.sqrt(a * a + u * (b * b - a * a)), 1e-9)
    x = _gamma_quantiles(u, k, *nn_distance_band(a, b, density, k))
    # the exact inverse as well can land an ulp outside the band
    return np.clip(np.sqrt(x / (density * np.pi)), max(a, 1e-9), b)


@lru_cache(maxsize=32)
def _gamma_table(k, lo, hi, inverse):
    """(nodes, coef) of `_gamma_quantiles`' cubic Hermite table on the band (lo, hi), once per band.

    nodes holds the exact inverse at _TABLE_INTERVALS + 1 equally spaced u
    and coef the (4, _TABLE_INTERVALS) coefficients of each interval's cubic
    in its position t.  Both are read-only; a run's chunks share one band.
    """
    n = _TABLE_INTERVALS
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        nodes = inverse(k, lo + np.arange(n + 1) / n * (hi - lo))
        # dx/dt, t = n u - j the position in interval j; inf where f(x) is 0
        slope = abs(hi - lo) / n * np.exp(nodes - (k - 1) * np.log(nodes) + gammaln(k))
        rise = np.diff(nodes)
        m0, m1 = slope[:-1], slope[1:]
        coef = np.stack((nodes[:-1], m0, 3.0 * rise - 2.0 * m0 - m1, m0 + m1 - 2.0 * rise))
    for table in (nodes, coef):
        table.flags.writeable = False
    return nodes, coef


def _gamma_quantiles(u, k, lo, hi, inverse):
    """Gamma(k, 1) quantile x with F(x) = lo + u (hi - lo) for each u in [0, 1).

    F and (lo, hi, inverse) are the tail and band of `nn_distance_band`:
    the lower tail P(k, x) when lo < hi, the upper Q(k, x) when lo > hi.
    k = 1 is Exp(1) in closed form.  Otherwise the exact inverse is taken at
    _TABLE_INTERVALS + 1 equally spaced u, once per band (`_gamma_table`),
    each u is mapped to x by the cubic Hermite interpolant of that table
    (slope dx/du = |hi - lo| / f(x), f the Gamma(k, 1) density), and one
    Newton step on the log of the smaller tail at the target, P or Q,
    polishes it.  An entry whose step exceeds _MAX_STEP of x, or is not
    finite, or which leaves its node interval, is not certified by the step
    and goes through the exact inverse.  These are
    the entries near a singular end of the band, where no cubic in u fits:
    x -> 0, whose interval has an infinite slope at x = 0 and so no finite
    start, and a tail that decays like exp(-x).  About ten intervals next to
    such an end fall back; a band without one has next to no fallbacks.
    """
    v = lo + u * (hi - lo)
    upper = hi < lo
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if k == 1:
            return -np.log(v) if upper else -np.log1p(-v)
        n = _TABLE_INTERVALS
        nodes, coef = _gamma_table(k, lo, hi, inverse)
        log_gamma_k = gammaln(k)
        # n is a power of two and u < 1, so n u is exact and j <= n - 1
        s = u * n
        j = s.astype(np.intp)
        t = s - j
        c0, c1, c2, c3 = coef.take(j, axis=1)
        x0 = c0 + t * (c1 + t * (c2 + t * c3))
        # Newton on the log of the smaller tail at the target: Q on the upper band
        # (v <= lo < 1/2 there) and, against 1 - v, exact, where v > 1/2; P elsewhere
        past_median = v > 0.5
        in_q = past_median | upper
        target = np.where(past_median, 1.0 - v, v)
        tail = np.empty_like(x0)
        for law, rows in ((gammaincc, in_q), (gammainc, ~in_q)):
            rows = np.flatnonzero(rows)
            tail[rows] = law(k, x0[rows])
        # d log P / dx = f / P and d log Q / dx = -f / Q
        step = np.log1p((tail - target) / target) * tail * np.exp(x0 - (k - 1) * np.log(x0) + log_gamma_k)
        np.negative(step, out=step, where=in_q)
        x = x0 - step
        certified = (np.abs(step) <= _MAX_STEP * x) & (x >= c0) & (x <= nodes.take(j + 1))
    redo = np.flatnonzero(~certified)
    x[redo] = inverse(k, v[redo])
    return x


def _zero_truncated_poisson(rng, mu):
    """Poisson(mu) draws conditioned on being >= 1, exactly.

    Given that a unit-rate Poisson process on [0, mu] has a point, its first
    point sits at T1 = -log(1 - u * (1 - exp(-mu))), and the points after it
    are Poisson(mu - T1).
    """
    t1 = -np.log1p(rng.random(mu.size) * np.expm1(-mu))
    return 1 + rng.poisson(np.maximum(mu - t1, 0.0))


def _zero_truncated_binomial(rng, n, p):
    """Binomial(n, p) draws conditioned on being >= 1, exactly.

    Given that n trials hold a success, the first one is trial J with
    P{J <= j} = (1 - q^j) / (1 - q^n), q = 1 - p, and the trials after it
    are Binomial(n - J, p).
    """
    with np.errstate(divide="ignore"):  # p = 1: log q = -inf, and J = 1
        log_q = np.log1p(-p)
    j = np.ceil(np.log1p(rng.random(p.size) * np.expm1(n * log_q)) / log_q)
    j = np.clip(j, 1, n).astype(np.int64)
    return 1 + rng.binomial(n - j, p)


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
    t_hi = hop_angle(d, np.clip(np.sqrt(np.maximum(r * r - d * d, 0.0)), lo, hi), r)
    t_lo = np.zeros(lo.shape)
    rows = np.flatnonzero(np.broadcast_to(c, lo.shape) > 0)
    c, r, lo_c, hi_c = (np.broadcast_to(x, lo.shape)[rows] for x in (c, r, lo, hi))
    t_lo[rows] = np.minimum(hop_angle(c, lo_c, r), hop_angle(c, hi_c, r))
    return lo, hi, t_lo, t_hi


def _draw_polar(rng, lo, hi, t_lo, t_span, r):
    """One candidate per entry, uniform in area over its polar box; returns (d_SH, d_HD).

    d_SH^2 is uniform on [lo^2, hi^2) and the angle on [t_lo, t_lo + t_span),
    and d_HD^2 = (d_SH - r)^2 + 4 d_SH r sin^2(angle / 2) is the law of
    cosines in a form that is never negative.
    """
    # in place, and in the order of operations of the plain expressions, whose bits these keep:
    #   d_sh = sqrt(lo^2 + (hi^2 - lo^2) u), half = sin((t_lo + t_span v) / 2),
    #   d_hd = sqrt((d_sh - r)^2 + 4 d_sh r half^2)
    lo2 = lo * lo
    d_sh = hi * hi
    d_sh -= lo2
    d_sh *= rng.random(r.size)
    d_sh += lo2
    np.sqrt(d_sh, out=d_sh)
    half = rng.random(r.size)
    half *= t_span
    half += t_lo
    half *= 0.5
    np.sin(half, out=half)
    d_hd = np.multiply(d_sh, 4.0, out=lo2)
    d_hd *= r
    d_hd *= half
    d_hd *= half
    np.subtract(d_sh, r, out=half)
    np.square(half, out=half)
    d_hd += half
    np.sqrt(d_hd, out=d_hd)
    return d_sh, d_hd


def _place_in_tier(rng, r, tier, area, count):
    """count[j] >= 1 points of the tier[j] region (area area[j]) of a link of length r[j], by rejection rounds.

    Each point is uniform in the region's part with d_SH in the tier's higher
    hop band and d_HD in its lower one: exact for G (see the module
    docstring), and the order whose polar box the region fills best (about
    half or more; the other order of tier 4 fills 0.2).  It is drawn around S
    by rejection from that box (`_polar_box`) and kept when its hop lengths
    lie in the two bands.  Each round draws about need/p candidates for every
    unfinished link, where p is the region's share of its box, and keeps the
    first accepted ones up to the number still needed.  Returns (link, d_SH,
    d_HD) of every point kept, in round order and by link within a round:
    the index j of each point's link, and its hop lengths.
    """
    need = np.array(count, dtype=np.int64)
    a, b, c, d, orders = TIER_BOXES.take(tier - 1, axis=1)
    lo, hi, t_lo, t_hi = _polar_box(r, a, b, c, d)
    t_span = t_hi - t_lo
    # the order's area in the upper half-plane, area / 2 / orders, over the box's, (hi^2 - lo^2) t_span / 2; a
    # box of no area in double precision (tier 1's sliver of 1e-20 m^2 one ulp below 96.4 m) counts as filled
    box = orders * (hi * hi - lo * lo) * t_span
    share = np.divide(area, box, out=np.ones(box.shape), where=box > 0.0)
    todo = np.arange(r.size)
    points = [(todo[:0], np.empty(0), np.empty(0))]
    for _ in range(_MAX_ROUNDS):
        if not todo.size:
            return tuple(np.concatenate(x) for x in zip(*points))
        m = np.ceil(need[todo] / share[todo]).astype(np.int64)
        tid = np.repeat(todo, m)
        lo_c, hi_c = lo[tid], hi[tid]
        d_sh, d_hd = _draw_polar(rng, lo_c, hi_c, t_lo[tid], t_span[tid], r[tid])
        # the returned distances themselves, so that hop_band agrees at the band edges;
        # [lo, hi) lies in the S-hop band
        ok = d_sh >= lo_c
        ok &= d_sh < hi_c
        ok &= d_hd >= c[tid]
        ok &= d_hd < d[tid]
        # keep the first min(accepted, needed) accepted candidates of each link:
        # link j's accepted ones sit at acc_start[j] onward in flatnonzero(ok)
        got = np.add.reduceat(ok, np.cumsum(m) - m, dtype=np.int64)
        take = np.minimum(got, need[todo])
        acc_start, out_start = np.cumsum(got) - got, np.cumsum(take) - take
        keep = np.flatnonzero(ok)[np.repeat(acc_start - out_start, take) + np.arange(take.sum())]
        points.append((tid[keep], d_sh[keep], d_hd[keep]))
        need[todo] -= take
        todo = todo[need[todo] > 0]
    raise RuntimeError("rejection sampling of helper positions did not finish")


class _TierChoice(NamedTuple):
    """Each link's tier or region choice, drawn before any helper is placed (`_tier_choice`).

    has indexes the links with a helper, tier is the tier or region each
    chose and area its area; load is the parameter of the helper count, the
    mean count density x area under the PPP and each nearer node's chance to
    lie in the tier under k-nearest conditioning (None for the conventional
    scheme, whose count is 1).  law is the (5, len(r)) choice law, the
    probability that a link settles on each tier or region, and void the
    probability that it has no helper (`stochastic_geometry.choice_law`),
    the two that centre the control variate (`within_tier.control`).
    moments holds, for the conventional scheme, the second moments J and I
    of each chosen region about the S-D midpoint and line (`tier_areas`),
    from which `within_tier._region_means` takes the means that centre the
    terms of its control, and `within_tier._quadratic` the covariances of
    its analytic-mode terms (None for the proposed scheme).
    """

    has: np.ndarray
    tier: np.ndarray
    area: np.ndarray
    load: Optional[np.ndarray]
    law: np.ndarray
    void: np.ndarray
    moments: Optional[tuple] = None


def _tier_choice(rng, r, density, k, scheme):
    """Tier or region of each link's selected helper, under the PPP (k None) or with k-1 nearer nodes.

    Only the helpers the scheme can see are drawn.  The proposed scheme takes
    the best helper of the lowest non-empty tier, whose law is given by the
    void probabilities of the tier regions; the conventional scheme takes one
    helper uniformly from the union of the regions.  `_best_g` then draws the
    helpers of the chosen tier.
    """
    # the conventional regions' moments come from the same lens pass as their areas
    areas, *moments = tier_areas(r, moments=True) if scheme == "conventional" else (tier_areas(r),)
    u = rng.random(r.size)
    law, void, cum = choice_law(scheme, areas, r, density, k)
    if scheme == "proposed":
        # the lowest non-empty tier is the number of terms of P{tiers 1..i all empty}, i = 0..5, above u; 6 is none
        tier = np.sum(cum > u, axis=0)
        has = np.flatnonzero(tier <= areas.shape[0])
        tier = tier[has]
        return _TierChoice(has, tier, *tier_load(areas, tier, has, r[has], density, k), law, void)
    has = np.flatnonzero(u < 1.0 - void)
    # given a helper, region j with probability S_j / S_total; w < S_total, so S_j > 0
    w = rng.random(has.size) * cum[-1, has]
    tier = 1 + np.sum(cum[:, has] <= w, axis=0)
    # the chosen regions' moments alone, so that no (5, len(r)) array outlives the choice
    moments = tuple(x[tier - 1, has] for x in moments)
    return _TierChoice(has, tier, areas[tier - 1, has], None, law, void, moments)


def _best_g(rng, r, choice, k, params, which=slice(None)):
    """(g, q, y2): largest G and least d_SH^2 + d_HD^2 over the helpers of the chosen tier, and y^2 of the helper with that q, for the links choice.has[which].

    Draws each link's helper count (zero-truncated Poisson under the PPP,
    zero-truncated Binomial over the k-1 nearer nodes, one for the
    conventional scheme) and places the helpers (`_place_in_tier`), each
    with the index of its link.  One scatter by that index gives each
    link's largest G and least q, for both schemes and over every rejection
    round; a conventional link's one helper gives its own.  y2 is the
    least-q helper's squared distance from the S-D line, d_SH^2 - x^2 with
    x = (d_SH^2 + r^2 - d_HD^2) / (2 r) its position along it
    (`_line_distance2`); of helpers tied at the least q, the last placed
    gives it.
    """
    tier, area = choice.tier[which], choice.area[which]
    if choice.load is None:
        count = np.ones(tier.size, dtype=np.int64)
    elif k is None:
        count = _zero_truncated_poisson(rng, choice.load[which])
    else:
        count = _zero_truncated_binomial(rng, k - 1, choice.load[which])
    link = r[choice.has[which]]
    tid, d_sh, d_hd = _place_in_tier(rng, link, tier, area, count)
    g = g_joint(d_sh, d_hd, params)
    d_sh *= d_sh
    d_hd *= d_hd
    q = d_sh + d_hd
    g_max, q_min, y2 = np.zeros(count.size), np.full(count.size, np.inf), np.zeros(count.size)
    np.maximum.at(g_max, tid, g)
    np.minimum.at(q_min, tid, q)
    least = np.flatnonzero(q == q_min[tid])
    owner = tid[least]
    y2[owner] = _line_distance2(d_sh[least], d_hd[least], link[owner])
    return g_max, q_min, y2


def _line_distance2(d_sh, d_hd, link):
    """y^2 = d_SH^2 - x^2 of helpers at squared hop lengths d_sh and d_hd from links of lengths `link`, x = (d_SH^2 + r^2 - d_HD^2) / (2 r) their position along the S-D line."""
    x = d_sh - d_hd
    x /= link
    x += link
    x *= 0.5
    x *= x
    return np.subtract(d_sh, x, out=x)


def _squeeze(x, upper):
    """Indices of the draws x < rate x max G whose outcome the upper end `upper` of rate x G leaves open.

    x is each link's draw lo + (rate - lo) v above its sure share lo (see
    `_chunk_throughput`), so no draw is a success whatever the helpers; one
    at or above upper (1 + margin) is a failure whatever they are, and every
    other draw needs its link's best G.  An upper of inf settles no failure.
    The margin, _SQUEEZE_MARGIN, lies far above the rounding of G and of
    the bracket, so every settled outcome is the one full placement gives.
    """
    return np.flatnonzero(x < upper * (1.0 + _SQUEEZE_MARGIN))


def _edge_term(t, r, columns, table):
    """Take jump x (1{r >= e} - P{r >= e | u-slice}) off the scores t of the u-slice that holds each class edge e, in place.

    A link's mean score steps where its class changes, so a stratum that
    holds a class edge carries the step as variance, and its pair's
    difference with it.  The slice of u that holds the edge's uniform u_e,
    [a B, a B + B_a) / S in the grid of `_stratified_uniforms`, is
    uniform in u for each of its cells, so 1{r >= e} = 1{u >= u_e} has
    the mean P = (a B + B_a - u_e S) / B_a there, and the term has mean 0
    in every stratum whatever the jump.  The scheme's control table holds,
    fixed per cell, each edge e, its u_e and the jump, the step of the mean
    score that the control's centres give across the edge
    (`within_tier._with_class_edges`).  Up to the rounding of the
    link-length draw at u_e, 1{r >= e} is the class test of the trial
    itself.
    """
    start, _, _ = _strata(t.size, columns)
    s = max(t.size // 2, 1)
    for edge, u, jump in zip(table.edges, table.edge_u, table.jump):
        x = u * s
        first = math.floor(x / columns) * columns
        rows = np.flatnonzero(start == first)
        if rows.size:
            span = min(columns, s - first)
            t[rows] -= jump * ((r[rows] >= edge) - (first + span - x) / span)


def _chunk_throughput(regime, density, scheme, n, params, estimator_mode, k, rng):
    """Vectorized simulation of n trials; returns the throughput samples, control applied."""
    columns = _grid_columns(n, estimator_mode)
    r = _draw_link_distance(rng, n, REGIMES[regime][:2], density, k, columns)
    # sampled mode draws v before any helper, so that the squeeze can settle a draw without one
    v = _stratified_columns(rng, n, columns) if estimator_mode == "sampled" else None
    ps_r = p_success_direct(r, params)
    rate = np.take(BAND_RATES, hop_band(r))
    score = ps_r.copy() if v is None else v < ps_r

    t = rate * score
    band = REGIMES[regime][:2]
    table = None
    if band[1] > BAND_55:
        # the scheme's control table, for a band that reaches class C; its module is loaded by the first chunk
        # that needs one, so that a process that runs none (the bounds) allocates none of it
        from . import within_tier
        # with k = 1 no link has a helper (below), and the table holds the class edges alone
        table = (within_tier.TABLES[scheme] if k != 1 else within_tier.class_edges)(*band, density, k, params)
    elig = np.flatnonzero(r >= BAND_55)  # classes C and D benefit from helpers
    # with k = 1 the destination is the source's nearest node: no helper is nearer
    if elig.size and k != 1:
        r_e = r[elig]
        choice = _tier_choice(rng, r_e, density, k, scheme)
        has, tier = choice.has, choice.tier
        chosen = elig[has]
        tier_rate = np.take(TIER_RATES, tier - 1)
        # analytic mode places the helpers of every link with one, sampled mode those the squeeze leaves open
        placed, draw, single = slice(None), None, None
        if v is not None:
            # one bracket read per chunk, through the 3-tier kernel when every link is of class C: sampled
            # mode's sure share and squeeze
            worst, best = tier_bracket("C" if np.all(r_e < BAND_2) else "D", r_e, params)
            # rate x G_worst of the chosen tier is a sure success: score it exactly
            # and draw x uniform above it, a success while x < rate x max G
            lo = worst[tier - 1]
            span = tier_rate - lo
            x = lo + span * v[chosen]
            # the upper end bounds G only while log Ps is concave; without it no failure is settled
            placed = _squeeze(x, best[tier - 1, has] if log_ps_concave(params) else np.inf)
            draw = x, span
            if scheme == "conventional":
                # the conventional indicator's model of one helper uniform in the region: the proposed table
                # at a vanishing density, where a tier's helper count given one is one
                single = within_tier.control_table(*band, 0.0, None, params)
        g, q, y2 = _best_g(rng, r_e, choice, k, params, placed)
        if v is None:
            t[chosen] = tier_rate * g
        else:
            hit = np.zeros(has.size, dtype=bool)
            hit[placed] = x[placed] < tier_rate[placed] * g
            t[chosen] = lo + span * hit
            if scheme == "proposed":
                # the proposed scheme's y^2 term cuts sampled mode's variance by 1-4%, less than it costs
                y2 = None
        c, m = within_tier.control(table, scheme, r_e, choice, (rate * ps_r)[elig], q, y2, k, placed, draw, single)
        t[elig] = (t[elig] - c) + m
    if table is not None and table.edges.size:
        _edge_term(t, r, columns, table)
    return t


def _run_chunk(job):
    config, cell, density, scheme, chunk, n = job
    rng = np.random.default_rng(np.random.SeedSequence(entropy=config.base_seed, spawn_key=(cell, chunk)))
    t = _chunk_throughput(config.regime, density, scheme, n, config.channel, config.estimator_mode, config.k, rng)
    return _stratified_moments(t)


def _chunk_sizes(trials, chunk_size):
    """Trials per chunk: chunk_size each, the rest in the last chunk.

    A rest of one trial joins the chunk before it, which then holds
    chunk_size + 1, so that no chunk has a stratum of one trial unless
    trials == 1.
    """
    sizes = [min(chunk_size, trials - start) for start in range(0, trials, chunk_size)]
    if len(sizes) > 1 and sizes[-1] == 1:
        sizes[-2] += 1
        del sizes[-1]
    return sizes


def estimate_throughput(config: ExperimentConfig, workers: int = 1) -> List[SimEstimate]:
    """Run the experiment and return one estimate per (density, scheme) cell.

    Deterministic for a fixed base seed at any worker count: every chunk's
    rng stream depends only on (seed, cell index, chunk index) and the
    reduction is exactly-rounded summation, in chunk order, of each chunk's
    n_c mean_c and n_c^2 var_c (see `SimEstimate`).  `workers` must be an
    integer >= 1; the pool has at most one process per chunk, and with one
    the chunks run in this process.
    """
    check_integer("workers", workers, 1)
    schemes = ("proposed", "conventional") if config.scheme == "both" else (config.scheme,)
    cells = [(d, s) for d in config.densities for s in schemes]
    sizes = _chunk_sizes(config.trials, config.chunk_size)
    jobs = [(config, cell, density, scheme, chunk, n)
            for cell, (density, scheme) in enumerate(cells) for chunk, n in enumerate(sizes)]

    workers = min(workers, len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_chunk, jobs, chunksize=4))
    else:
        results = [_run_chunk(j) for j in jobs]

    out = []
    n = config.trials
    for cell, (density, scheme) in enumerate(cells):
        sums, variances = zip(*results[cell * len(sizes):(cell + 1) * len(sizes)])
        # where every score is 0 or the top rate, the control variates' rounding can leave the mean just outside
        mean = min(max(math.fsum(sums) / n, 0.0), max(BAND_RATES))
        out.append(SimEstimate(mean=mean, stderr=math.sqrt(math.fsum(variances)) / n, trials=n,
                               density=density, scheme=scheme, regime=config.regime, seed=config.base_seed))
    return out


def contour_grid(regime: str, r_k: Optional[float] = None, resolution: float = 0.5,
                 params: ChannelParams = ChannelParams()):
    """Cooperative-throughput map over helper positions for one link.

    The source sits at (0, 0) and the destination at (r_k, 0).  Each grid
    node inside a helper-tier region gets R_coop(tier) * G(d_SH, d_HD);
    nodes outside every tier region are NaN.  Returns a dict with 1-D
    ``x``/``y`` axes and a 2-D ``throughput`` array (y rows, x columns).
    A grid of more than CONTOUR_MAX_NODES nodes raises ValueError before
    any array is allocated.
    """
    if r_k is None:
        r_k = CONTOUR_DEFAULT_RK.get(regime)
    check_band(regime, HELPER_REGIMES, r_k)
    if not 0 < resolution < np.inf:
        raise ValueError("resolution must be positive and finite, got %r" % (resolution,))
    check_channel(params)
    link_class = REGIMES[regime][2]
    reach = TIER_REACH[CLASS_TIERS[link_class] - 1]
    axes = (-reach, r_k + reach + resolution), (-reach, reach + resolution)
    # the axes' lengths as np.arange takes them, kept as floats, so that a step too small for an int gives inf
    nodes = math.prod(np.ceil((stop - start) / float(resolution)) for start, stop in axes)
    if nodes > CONTOUR_MAX_NODES:
        raise ValueError("resolution %r gives a grid of %.3g nodes, above the cap of %d"
                         % (resolution, nodes, CONTOUR_MAX_NODES))
    x, y = (np.arange(start, stop, resolution) for start, stop in axes)
    xx, yy = np.meshgrid(x, y)
    d_sh = np.hypot(xx, yy)
    d_hd = np.hypot(xx - r_k, yy)
    tier = tier_index(d_sh, d_hd, link_class)
    value = np.full(xx.shape, np.nan)
    mask = tier > 0
    value[mask] = np.take(TIER_RATES, tier[mask] - 1) * g_joint(np.maximum(d_sh[mask], 1e-9), np.maximum(d_hd[mask], 1e-9), params)
    return {"x": x, "y": y, "throughput": value, "tier": tier, "r_k": float(r_k), "regime": regime}
