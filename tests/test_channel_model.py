import numpy as np
import pytest

from coopmac.channel_model import ChannelParams, g_joint, p_success_direct, q_function
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
