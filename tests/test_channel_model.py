import warnings

import numpy as np
import pytest

from coopmac.channel_model import ChannelParams, erfc, erfcx, g_joint, log_ps_concave, p_success_direct, q_function
from protocol_oracle import mean_rx_power, shadowing_sample

PARAMS = ChannelParams()

# frozen from a high-precision erfc evaluation (mpmath, 30 digits)
PS_FROZEN = {
    48.2: 0.89461145015,
    67.1: 0.70300192259,
    100.0: 0.369441340182,
    35.0: 0.974192230537,
    74.7: 0.617935700186,
}


def test_default_params_match_reference_set():
    assert PARAMS.pt == 0.0
    assert PARAMS.pth == -98.0
    assert PARAMS.k_const == -40.0
    assert PARAMS.nu == pytest.approx(-58.0 / 6.0)
    assert PARAMS.mu == pytest.approx(5.0)


def test_params_validation():
    with pytest.raises(ValueError):
        ChannelParams(sigma_sh=0.0)
    with pytest.raises(ValueError):
        ChannelParams(alpha=9.0)
    with pytest.raises(ValueError):
        ChannelParams(alpha=1.5)
    # a non-finite power, gain or deviation would give NaN or a flat Ps = 0.5 everywhere
    for bad in ({"pt": np.nan}, {"pth": np.inf}, {"k_const": -np.inf}, {"sigma_sh": np.inf},
                {"sigma_sh": np.nan}, {"alpha": np.nan}):
        with pytest.raises(ValueError):
            ChannelParams(**bad)


def test_q_function_at_zero():
    assert q_function(0.0) == pytest.approx(0.5, abs=1e-15)


def test_q_function_symmetry():
    for x in (0.3, 1.25, 2.04):
        assert q_function(x) + q_function(-x) == pytest.approx(1.0, abs=1e-14)


def test_q_function_reference_value():
    # frozen high-precision erfc reference
    assert q_function(-1.25143) == pytest.approx(0.89461118113843372, abs=1e-12)


def _ulps(got, exact):
    """|got - exact| in units of the spacing of doubles at exact, 0 where both are equal (the infinities too)."""
    with np.errstate(invalid="ignore"):
        return np.where(got == exact, 0.0, np.abs(got - exact) / np.spacing(np.abs(exact)))


def _exact(f, x):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        return np.array([float(f(mpmath, mpmath.mpf(float(v)))) for v in x])


# every branch of Cody's forms and their edges, both signs, and the deep tail where erfc is subnormal
_ERFC_ARGS = np.concatenate([np.linspace(-30.0, 30.0, 2401), np.random.default_rng(5).uniform(-6.0, 27.0, 1500),
                             np.linspace(26.5, 26.7, 101),
                             *(np.nextafter(e, [-np.inf, np.inf]) for e in (0.46875, -0.46875, 4.0, -4.0)),
                             [0.46875, -0.46875, 4.0, -4.0, 0.0, -0.0, 1e-300, -1e-300, 5e-324]])


def test_erfc_is_within_6_ulps_of_the_exact_value():
    exact = _exact(lambda mp, x: mp.erfc(x), _ERFC_ARGS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = erfc(_ERFC_ARGS)
    normal = exact >= np.finfo(float).tiny
    assert _ulps(got, exact)[normal].max() <= 6
    # below the smallest normal, down to where it returns 0, within two of the smallest subnormal
    subnormal = ~normal & (got > 0)
    assert subnormal.any() and np.abs(got - exact)[subnormal].max() <= 2 * 5e-324


def test_erfcx_is_within_6_ulps_of_the_exact_value():
    # its domain, x >= 0: `log_ps_concave` takes it at x / sqrt(2) for x in (0, 1e4]
    x = np.concatenate([_ERFC_ARGS[_ERFC_ARGS >= 0], 10.0 ** np.linspace(1.0, 12.0, 300)])
    exact = _exact(lambda mp, x: mp.exp(x * x) * mp.erfc(x), x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = erfcx(x)
    assert _ulps(got, exact).max() <= 6


def test_q_function_within_its_ulp_bound():
    # erfc's 6 ulps, and the rounding of x / sqrt(2), which Q magnifies about x^2-fold in its tail
    x = np.concatenate([np.linspace(-40.0, 37.6, 3001), [0.0, 1.0, -1.0, 37.67]])
    exact = _exact(lambda mp, x: mp.erfc(x / mp.sqrt(2)) / 2, x)
    got = q_function(x)
    normal = exact >= np.finfo(float).tiny
    assert np.all(_ulps(got, exact)[normal] <= 6 + 1.5 * x[normal] ** 2)


def test_erfc_ends():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ends = erfc(np.array([-np.inf, np.inf, np.nan, -1e300, 1e300]))
        assert ends[[0, 1, 3, 4]].tolist() == [2.0, 0.0, 2.0, 0.0] and np.isnan(ends[2])
        scaled = erfcx(np.array([np.inf, np.nan, 1e300, 0.0, -0.0, -np.inf, -27.0, -1.0, -0.2, -5e-324]))
        assert scaled[[0, 3, 4]].tolist() == [0.0, 1.0, 1.0] and np.isnan(scaled[[1, 5, 6, 7, 8, 9]]).all()
        assert scaled[2] == pytest.approx(1e-300 / np.sqrt(np.pi), rel=1e-15)
        # 0 exactly from where exp(-x^2) underflows, sqrt(log(largest double)), on, and nonzero below
        edge = np.sqrt(np.log(np.finfo(float).max))
        around = edge + np.arange(-3, 4) * np.spacing(edge)
        assert (erfc(around) == 0).tolist() == [False] * 4 + [True] * 3
        assert (erfc(-around) == 2).all()
        # scalars give scalars, arrays keep their shape
        assert isinstance(erfc(0.5), np.floating) and erfc(np.zeros((2, 3))).shape == (2, 3)
        assert erfc(np.empty(0)).shape == (0,)


def test_log_ps_concave_verdicts():
    # the reference set passes; a loose link budget, a steep or a deep fade, a louder transmitter do not
    sets = [{}, dict(alpha=2.0, pt=-30.0), dict(alpha=7.0), dict(sigma_sh=12.0), dict(pt=-10.0)]
    assert [log_ps_concave(ChannelParams(**kw)) for kw in sets] == [True, False, False, False, False]


def test_log_ps_concave_matches_the_exact_hazard():
    # the verdict c (lambda(x) - x) >= 1 at x = nu + 2 mu on both sides of 0, where it reads erfc and where erfcx,
    # against 50-digit phi / Q, each verdict on each side
    mpmath = pytest.importorskip("mpmath")
    seen = set()
    for alpha, sigma in ((2.0, 12.0), (3.0, 6.0)):
        for pt in np.linspace(-60.0, 60.0, 121):
            params = ChannelParams(pt=pt, alpha=alpha, sigma_sh=sigma)
            x, c = params.nu + 2.0 * params.mu, params.mu / np.log(10.0)
            with mpmath.workdps(50):
                xm = mpmath.mpf(x)
                hazard = mpmath.npdf(xm) / (mpmath.erfc(xm / mpmath.sqrt(2)) / 2)
                margin = float(c * (hazard - xm) - 1)
            if abs(margin) > 1e-9:
                assert log_ps_concave(params) == (margin > 0), (alpha, sigma, pt)
                seen.add((x > 0, margin > 0))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_p_success_frozen_values():
    for d, expected in PS_FROZEN.items():
        assert float(p_success_direct(d, PARAMS)) == pytest.approx(expected, abs=1e-9)


def test_p_success_rejects_nonpositive_distance():
    with pytest.raises(ValueError):
        p_success_direct(0.0, PARAMS)
    with pytest.raises(ValueError):
        p_success_direct(-3.0, PARAMS)
    # NaN fails every comparison, so the check must be written to reject it
    for bad in (np.nan, np.array([30.0, np.nan])):
        with pytest.raises(ValueError):
            p_success_direct(bad, PARAMS)
    with pytest.raises(ValueError):
        g_joint(np.nan, 10.0, PARAMS)
    with pytest.raises(ValueError):
        shadowing_sample(np.nan, PARAMS, np.random.default_rng(0))
    # an infinite hop keeps its limit
    assert float(p_success_direct(np.inf, PARAMS)) == 0.0


def test_p_success_strictly_decreasing():
    # below ~15 m the success probability saturates to 1 in double
    # precision, so check strict decrease where it is representable
    d = np.linspace(20.0, 120.0, 500)
    ps = p_success_direct(d, PARAMS)
    assert np.all(np.diff(ps) < 0)


def test_g_joint_values_and_symmetry():
    assert float(g_joint(48.2, 48.2, PARAMS)) == pytest.approx(0.80032964674, abs=1e-9)
    assert float(g_joint(48.2, 67.1, PARAMS)) == pytest.approx(0.628913569427, abs=1e-9)
    assert float(g_joint(35.0, 35.0, PARAMS)) == pytest.approx(0.949050502039, abs=1e-9)
    rng = np.random.default_rng(42)
    a = rng.uniform(1, 100, 50)
    b = rng.uniform(1, 100, 50)
    assert np.allclose(g_joint(a, b, PARAMS), g_joint(b, a, PARAMS))


def test_q_argument_negative_within_helper_range():
    # the concavity reasoning behind the tier bounds needs negative
    # Q-function arguments for all hop distances up to 74.7 m
    d = np.linspace(1.0, 74.7, 1000)
    assert np.all(PARAMS.nu + PARAMS.mu * np.log10(d) < 0)


def test_two_hop_product_unique_max_at_midpoint():
    for r in (70.0, 90.0):
        x = np.linspace(0.5, r - 0.5, 2001)
        h = p_success_direct(x, PARAMS) * p_success_direct(r - x, PARAMS)
        peak = x[np.argmax(h)]
        step = x[1] - x[0]
        assert abs(peak - r / 2) <= step


def test_shadowing_degenerate_sigma():
    params = ChannelParams(sigma_sh=1e-12)
    rng = np.random.default_rng(0)
    got = shadowing_sample(48.2, params, rng)
    assert got == pytest.approx(mean_rx_power(48.2, params), abs=1e-9)


def test_shadowing_mean_power_at_100m():
    rng = np.random.default_rng(7)
    draws = shadowing_sample(100.0, PARAMS, rng, size=10**6)
    stderr = PARAMS.sigma_sh / np.sqrt(draws.size)
    assert abs(draws.mean() - (-100.0)) < 3 * stderr


def test_shadowing_success_frequency_matches_analytic():
    rng = np.random.default_rng(11)
    draws = shadowing_sample(48.2, PARAMS, rng, size=10**6)
    freq = np.mean(draws >= PARAMS.pth)
    p = PS_FROZEN[48.2]
    stderr = np.sqrt(p * (1 - p) / draws.size)
    assert abs(freq - p) < 3 * stderr
