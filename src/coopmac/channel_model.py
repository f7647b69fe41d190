"""Log-distance path loss with log-normal shadowing, in the dB domain.

Received power over a d-meter hop is

    P_rec = P_t + K - 10 * alpha * log10(d) + psi   [dBm]

with psi a zero-mean Gaussian of standard deviation sigma_sh (dB).  A hop
succeeds when P_rec clears the receive threshold, which reduces to the
Gaussian tail probability Q(nu + mu * log10(d)) with

    nu = (pth - pt - k_const) / sigma_sh,   mu = 10 * alpha / sigma_sh.

Q comes from `erfc`, W. J. Cody's rational Chebyshev forms (Math. Comp. 23,
1969) in numpy, within a few ulps everywhere, so that a process that stays
under the PPP never loads scipy; the k-nearest laws import its gamma
family inside the functions that use it.

The two-hop success G at each helper tier's worst position is tabulated
once per parameter set (`worst_tier_g`).  `tier_bracket` adds G at each
tier's best position, which moves with the link length, and returns both
times the tier rate: the per-tier bracket that the bounds reduce with the
tier law and that the Monte Carlo's sampled mode and control tables read,
one kernel for both; `tier_best` reads the upper end at each link's own
tier alone.  The best positions are G's maxima only while log Ps is concave in
the hop length, which `log_ps_concave` checks once per parameter set.
`g_bracket` bounds G at any two hops by products of a per-parameter-set
table of Ps on a grid of 1/32 m, so that the Monte Carlo takes G only at
the helpers that can hold a link's largest (`monte_carlo._best_g`), about
one per link.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .stochastic_geometry import BAND_11, BAND_55, BAND_EDGES, CLASS_TIERS, TIER1_MAX_SEPARATION, TIER_BANDS, TIER_RATES

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class ChannelParams:
    """Link-budget parameters (all powers in dBm, sigma/K in dB).

    Defaults are the reference parameter set: 1 mW transmit power (0 dBm),
    -98 dBm receive threshold, path-loss exponent 3, 6 dB shadowing
    deviation, -40 dB antenna constant.  pt, pth and k_const must be finite,
    sigma_sh positive and finite, alpha in [2, 7], and nu and mu, the link
    budget and path-loss slope over sigma_sh, finite; else ValueError.
    """

    pt: float = 0.0
    pth: float = -98.0
    k_const: float = -40.0
    alpha: float = 3.0
    sigma_sh: float = 6.0

    def __post_init__(self):
        for name in ("pt", "pth", "k_const"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError("%s must be finite, got %r" % (name, getattr(self, name)))
        if not 0 < self.sigma_sh < np.inf:
            raise ValueError("sigma_sh must be positive and finite, got %r" % (self.sigma_sh,))
        if not 2.0 <= self.alpha <= 7.0:
            raise ValueError("alpha must lie in [2, 7], got %r" % (self.alpha,))
        # a subnormal sigma_sh overflows them, and Q(nu + mu log10 d) would be NaN at d = 1 m
        if not (np.isfinite(self.nu) and np.isfinite(self.mu)):
            raise ValueError("nu and mu must be finite: sigma_sh %r is too small for this link budget" % (self.sigma_sh,))

    @property
    def nu(self) -> float:
        return (self.pth - self.pt - self.k_const) / self.sigma_sh

    @property
    def mu(self) -> float:
        return 10.0 * self.alpha / self.sigma_sh


def check_channel(params):
    """Check that `params` is a `ChannelParams`, whose fields its construction checked.

    Every public entry point that takes channel parameters checks them
    here; anything else, None among it, raises ValueError.
    """
    if not isinstance(params, ChannelParams):
        raise ValueError("channel parameters must be a ChannelParams, got %r" % (params,))


def q_function(x):
    """Gaussian tail probability Q(x) = P{N(0,1) > x}.

    Evaluated as erfc(x / sqrt(2)) / 2 (`erfc`): within 6 + 1.5 x^2 ulps of
    the exact value wherever that is a normal float, erfc's 6 and the
    rounding of x / sqrt(2), which the tail magnifies about x^2-fold; 1
    exactly at -inf, and 0 from x = 37.68 on, where erfc underflows.
    Accepts scalars or arrays.
    """
    q = erfc(np.asarray(x, dtype=float) / _SQRT2)
    q *= 0.5
    return q


# W. J. Cody, Rational Chebyshev approximations for the error function, Math. Comp. 23 (1969) 631-637, the three
# forms of his CALERF: erf on |x| <= 0.46875 (A / B in x^2), exp(x^2) erfc(x) on (0.46875, 4] (C / D in x) and
# beyond (P / Q in 1 / x^2), each a pair of numerator and denominator coefficients, leading one first, that of the
# denominator 1 and left out
_THRESH, _MID_TOP = 0.46875, 4.0
_ERF_SMALL = ((1.85777706184603153e-1, 3.16112374387056560e00, 1.13864154151050156e02, 3.77485237685302021e02,
               3.20937758913846947e03),
              (2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03, 2.84423683343917062e03))
_ERFC_MID = ((2.15311535474403846e-8, 5.64188496988670089e-1, 8.88314979438837594e00, 6.61191906371416295e01,
              2.98635138197400131e02, 8.81952221241769090e02, 1.71204761263407058e03, 2.05107837782607147e03,
              1.23033935479799725e03),
             (1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02, 1.62138957456669019e03,
              3.29079923573345963e03, 4.36261909014324716e03, 3.43936767414372164e03, 1.23033935480374942e03))
_ERFC_TAIL = ((1.63153871373020978e-2, 3.05326634961232344e-1, 3.60344899949804439e-1, 1.25781726111229246e-1,
               1.60837851487422766e-2, 6.58749161529837803e-4),
              (2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1, 6.05183413124413191e-2,
               2.33520497626869185e-3))
_SQRPI = 5.6418958354775628695e-1  # 1 / sqrt(pi)
# erfc is 0 above sqrt(log(largest double)), where exp(-x^2) underflows; exp(x^2) erfc(x) is 1 / (x sqrt(pi)) to
# rounding from _XHUGE on
_ERFC_ZERO = float(np.sqrt(np.log(np.finfo(float).max)))
_XHUGE = 6.71e7


def _rational(form, t):
    """num(t) / den(t) of the coefficient pair `form` at t (a 1-D array), each by Horner's rule, in place."""
    (lead, *num), den = form
    p = t * lead
    q = t + den[0]
    p += num[0]
    for a, b in zip(num[1:], den[1:]):
        p *= t
        p += a
        q *= t
        q += b
    p /= q
    return p


def _exp_square(y):
    """exp(-y^2) for y >= 0 below _ERFC_ZERO, as exp(-s^2) exp(-(y - s)(y + s)) with s = y cut to 1/16.

    s^2 is exact, so the split loses none of the digits that exp(-y^2) would
    lose to the rounding of y^2.
    """
    s = np.multiply(y, 16.0)
    np.floor(s, out=s)
    s *= 0.0625
    head = s * s
    np.negative(head, out=head)
    np.exp(head, out=head)
    d = y - s
    s += y
    d *= s
    np.negative(d, out=d)
    np.exp(d, out=d)
    d *= head
    return d


def _tail(t):
    """exp(t^2) erfc(t) for t > 4 by Cody's third form, (1 / sqrt(pi) - w P(w) / Q(w)) / t with w = 1 / t^2."""
    w = 1.0 / (t * t)
    value = _rational(_ERFC_TAIL, w)
    value *= w
    return (_SQRPI - value) / t


def _calerf(x, scaled):
    """erfc(x), or exp(x^2) erfc(x) for x >= 0 if scaled, elementwise, by Cody's three forms, each where it occurs.

    erfc is 2 at -inf and 0 above _ERFC_ZERO and at +inf; the scaled form is
    0 at +inf and NaN below 0; NaN gives NaN.
    """
    x = np.asarray(x, dtype=float)
    z = x.reshape(-1)
    y = np.abs(z)
    out = np.where(y > (np.inf if scaled else _ERFC_ZERO), 0.0, y)  # NaN stays NaN
    small = y <= _THRESH
    rows = np.flatnonzero(small)
    if rows.size:
        t = z[rows]
        square = t * t
        erf = _rational(_ERF_SMALL, square)
        erf *= t
        out[rows] = np.exp(square) * (1.0 - erf) if scaled else 1.0 - erf
    mid = y <= _MID_TOP
    mid &= ~small
    top = _XHUGE if scaled else _ERFC_ZERO
    for rows, form in ((np.flatnonzero(mid), lambda t: _rational(_ERFC_MID, t)),
                       (np.flatnonzero((y > _MID_TOP) & (y <= top)), _tail)):
        if rows.size:
            t = y[rows]
            value = form(t)
            if not scaled:
                with np.errstate(under="ignore"):
                    value *= _exp_square(t)
            out[rows] = value
    if scaled:
        rows = np.flatnonzero(y > _XHUGE)
        out[rows] = _SQRPI / y[rows]
        out[z < 0] = np.nan  # the package takes it at positive arguments alone
    else:
        np.subtract(2.0, out, out=out, where=z < -_THRESH)
    return out.reshape(x.shape)[()]


def erfc(x):
    """The complementary error function, elementwise (`_calerf`): within 6 ulps of the exact value wherever that is a normal float."""
    return _calerf(x, False)


def erfcx(x):
    """The scaled complementary error function exp(x^2) erfc(x), elementwise, for x >= 0 (`_calerf`): within 6 ulps."""
    return _calerf(x, True)


def _check_distance(distance):
    d = np.asarray(distance, dtype=float)
    if not np.all(d > 0):  # a NaN distance fails too
        raise ValueError("distance must be positive")
    return d


def p_success_direct(distance, params: ChannelParams = ChannelParams()):
    """Success probability of a single hop of length `distance` meters.

    Equals Q(nu + mu*log10(d)); strictly decreasing in d.
    """
    check_channel(params)
    return _p_success(_check_distance(distance), params)


def _p_success(d, params: ChannelParams):
    """`p_success_direct` without its check, for distances d already known to be positive."""
    return q_function(params.nu + params.mu * np.log10(d))


def g_joint(l1, l2, params: ChannelParams = ChannelParams()):
    """Joint success probability of a two-hop relay path.

    The two shadowing draws are independent, so the probability factors as
    the product of the per-hop success probabilities.  Symmetric in
    (l1, l2).
    """
    check_channel(params)
    # both hops' Ps in one evaluation
    ps = _p_success(_check_distance(np.stack(np.broadcast_arrays(l1, l2))), params)
    return ps[0] * ps[1]


# hop lengths of `g_bracket`'s table are multiples of this power of two (m), so that a length's interval is exact
_PS_STEP = 2.0 ** -5
# a table entry below this is read as 0 in the lower ends, so that a product of two is 0 or a normal float
_PS_FLOOR = 1e-150


@lru_cache(maxsize=64)
def _ps_table(params: ChannelParams):
    """(upper, lower): Ps at i _PS_STEP and at (i + 1) _PS_STEP for i = 0 .. 100 m / _PS_STEP, once per ChannelParams.

    Ps falls with the hop length, so a hop in [i _PS_STEP, (i + 1) _PS_STEP)
    succeeds with a probability between lower[i] and upper[i]; lower is 0
    where Ps lies below _PS_FLOOR.  Both are read-only.
    """
    with np.errstate(divide="ignore"):  # Ps(0) = Q(-inf) = 1
        ps = _p_success(np.arange(int(BAND_EDGES[-1] / _PS_STEP) + 2) * _PS_STEP, params)
    upper, lower = ps[:-1], np.where(ps[1:] >= _PS_FLOOR, ps[1:], 0.0)
    for table in (upper, lower):
        table.setflags(write=False)
    return upper, lower


def g_bracket(l1, l2, params: ChannelParams):
    """(upper, lower) ends of G at hop lengths l1 and l2 in [0, 100] m (arrays of one shape), from a table of Ps.

    The ends are products of `_ps_table`'s entries at each hop's interval of
    1/32 m, up to the rounding of Ps: a relative margin far above it makes
    either a sure bound.  No validation.
    """
    upper, lower = _ps_table(params)
    i, j = (np.multiply(x, 1.0 / _PS_STEP).astype(np.intp) for x in (l1, l2))
    return upper.take(i) * upper.take(j), lower.take(i) * lower.take(j)


@lru_cache(maxsize=64)
def _edge_ps(params: ChannelParams):
    """Ps at the outer edges of the hop bands, 48.2, 67.1, 74.7 and 100 m, once per ChannelParams: a read-only (4,) array."""
    ps = _p_success(np.array(BAND_EDGES[1:]), params)
    ps.setflags(write=False)
    return ps


@lru_cache(maxsize=64)
def worst_tier_g(params: ChannelParams = ChannelParams()):
    """G at each helper tier's worst position, and the tier rate times it, once per ChannelParams.

    A tier's worst position has both hops at the outer edges of its hop
    bands (`stochastic_geometry.TIER_BANDS`), where G is least over the tier
    region, as Ps falls with the hop length.  Returns two read-only (5,)
    arrays, tier 1 first: G, and rate x G, the lower end of each tier's
    bracket (`tier_bracket`).
    """
    g = np.multiply(*_edge_ps(params).take(np.transpose(TIER_BANDS)))
    terms = g * np.array(TIER_RATES)
    for table in (g, terms):
        table.setflags(write=False)
    return g, terms


@lru_cache(maxsize=64)
def log_ps_concave(params: ChannelParams = ChannelParams()) -> bool:
    """Whether log Ps(d) is concave in d for every hop up to 100 m, once per ChannelParams.

    With x = nu + mu log10(d), the second derivative of log Q(x) in d has
    the sign of lambda(x) - c lambda'(x), with lambda the Gaussian hazard
    phi/Q and c = mu / ln 10.  As lambda' = lambda (lambda - x), log Ps is
    concave wherever c (lambda(x) - x) >= 1, and lambda(x) - x falls as x
    grows, so the check at d = 100 m, the largest x, holds for every shorter
    hop.  lambda(x) < x + 1/x for x > 0, so x >= c fails without the
    difference, which cancels for large x: from x = 1e4 on it is taken from
    its series 1/x - 2/x^3 + 10/x^5, whose next term is below the rounding,
    and it is compared with 1 / c, which a tiny sigma_sh cannot overflow.
    Below, lambda is sqrt(2 / pi) / erfcx(x / sqrt(2)) for x > 0 and phi / Q
    from erfc for x <= 0.  An x that overflows fails.  The reference
    parameters pass; a loose link budget (alpha = 2 with pt = -30 dBm, or
    sigma_sh = 12 dB) does not.
    """
    with np.errstate(over="ignore"):
        x = params.nu + params.mu * np.log10(BAND_EDGES[-1])
    c = params.mu / np.log(10.0)
    if not x < c:
        return False
    if x > 1e4:
        z = 1.0 / x
        gap = z * (1.0 - z * z * (2.0 - 10.0 * z * z))
    elif x > 0:
        gap = np.sqrt(2.0 / np.pi) / erfcx(x / _SQRT2) - x
    else:
        # Q(x) = erfc(x / sqrt(2)) / 2 lies in [1/2, 1], and where phi underflows the gap is -x
        with np.errstate(over="ignore"):
            gap = np.sqrt(2.0 / np.pi) * np.exp(-0.5 * x * x) / erfc(x / _SQRT2) - x
    return bool(gap >= 1.0 / c)


def _at_best(r, tier, hop, pair, edges):
    """pair(hop(d_SH), hop(d_HD)) at each link's tier's best helper position, for 1-D arrays r and tier (1-based).

    The tiers' best (d_SH, d_HD) are declared here alone: tier 1 at the S-D
    midpoint (r / 2, r / 2), tiers 2 and 4 with the hop of the higher band
    at its inner edge and the other closing the gap to r, (48.2, r - 48.2)
    and (67.1, r - 67.1), tier 3 at its inner corner (48.2, 48.2) while S
    and D are within 96.4 m of each other and at the midpoint beyond, and
    tier 5 at its inner corner (48.2, 67.1).  hop maps an array of hop
    lengths and is taken once per link whose position moves with r; edges
    holds hop at the edges 48.2 and 67.1 m, which the caller keeps.
    """
    edge_11, edge_55 = edges[0], edges[1]
    mid = (tier == 1) | ((tier == 3) & (r > TIER1_MAX_SEPARATION))
    closing = (tier == 2) | (tier == 4)
    moves = np.flatnonzero(mid | closing)
    x = np.where(mid, 0.5 * r, r - np.where(tier == 2, BAND_11, BAND_55))[moves]
    h = hop(x)
    best = np.where(tier == 5, pair(edge_11, edge_55), pair(edge_11, edge_11))
    best[moves] = pair(np.where(mid[moves], h, np.where(tier[moves] == 2, edge_11, edge_55)), h)
    return best


def tier_best(r, tier, params: ChannelParams):
    """Each link's tier's rate times G at its best helper position (`_at_best`), for 1-D arrays r and tier (1-based).

    The upper end of `tier_bracket` at the link's own tier alone, for the
    sampled Monte Carlo's squeeze.  No validation, as `tier_bracket`.
    """
    with np.errstate(divide="ignore"):
        best = _at_best(r, tier, lambda d: _p_success(d, params), np.multiply, _edge_ps(params))
    best *= np.take(TIER_RATES, tier - 1)
    return best


def _every_tier(r, n):
    """(r, tier) of every link of the 1-D array r at each of the first n tiers, tier by tier."""
    return np.tile(r, n), np.repeat(np.arange(1, n + 1), len(r))


def tier_bracket(link_class: str, r, params: ChannelParams):
    """(worst, best): each tier's rate times G at its worst and at its best helper position, for link lengths r.

    G over a tier region lies between its values at the region's worst and
    best positions (`_at_best`), the upper end while log Ps is concave
    (below).  worst is the read-only (n,) table of `worst_tier_g`, which r
    does not move; best is an (n, len(r)) array for the n tiers of the link
    class (`CLASS_TIERS`) at the 1-D array r (`tier_best` at every tier).
    Ps falls with the hop length, so for any ChannelParams worst is G's
    least value over its tier, and the inner corners of tier 3 (r <= 96.4 m)
    and tier 5 are its greatest.  The other best positions split r between
    the two hops as evenly as their bands allow, which maximises G only
    while log Ps is concave in the hop length (`log_ps_concave`); past
    that, a helper may beat the tabulated best.
    No validation: r must be positive, and at least 67.1 m for the 5-tier
    class; a class C link read through the 5-tier kernel gets finite tier-4
    and tier-5 entries, a hop of 0 m succeeding with probability 1.
    """
    n = CLASS_TIERS[link_class]
    return worst_tier_g(params)[1][:n], tier_best(*_every_tier(r, n), params).reshape(n, len(r))


# d_SH^2 + d_HD^2 at each tier's worst position of `worst_tier_g`, both hops at the outer edges of its bands
_WORST_Q = np.square(np.take(BAND_EDGES[1:], np.transpose(TIER_BANDS))).sum(axis=0)
_WORST_Q.setflags(write=False)


def tier_q_bracket(r):
    """(worst, best): d_SH^2 + d_HD^2 at each tier's worst and best helper positions of `tier_bracket`, for link lengths r.

    worst is a read-only (5,) table and best a (5, len(r)) array for all
    five tiers at the 1-D array r.  Over a tier region d_SH^2 + d_HD^2 is
    largest at the worst position, the outer corner of the hop bands, and
    least at the best one (`_at_best`), the evenest split of r that the
    bands allow.  No validation.
    """
    n = len(_WORST_Q)
    return _WORST_Q, _at_best(*_every_tier(r, n), np.square, np.add, np.square((BAND_11, BAND_55))).reshape(n, len(r))
