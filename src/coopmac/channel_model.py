"""Log-distance path loss with log-normal shadowing, in the dB domain.

Received power over a d-meter hop is

    P_rec = P_t + K - 10 * alpha * log10(d) + psi   [dBm]

with psi a zero-mean Gaussian of standard deviation sigma_sh (dB).  A hop
succeeds when P_rec clears the receive threshold, which reduces to the
Gaussian tail probability Q(nu + mu * log10(d)) with

    nu = (pth - pt - k_const) / sigma_sh,   mu = 10 * alpha / sigma_sh.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class ChannelParams:
    """Link-budget parameters (all powers in dBm, sigma/K in dB).

    Defaults are the reference parameter set: 1 mW transmit power (0 dBm),
    -98 dBm receive threshold, path-loss exponent 3, 6 dB shadowing
    deviation, -40 dB antenna constant.  pt, pth and k_const must be finite,
    sigma_sh positive and finite and alpha in [2, 7]; else ValueError.
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

    @property
    def nu(self) -> float:
        return (self.pth - self.pt - self.k_const) / self.sigma_sh

    @property
    def mu(self) -> float:
        return 10.0 * self.alpha / self.sigma_sh

    def mean_rx_power(self, distance):
        """Deterministic part of the received power (dBm) at `distance` m."""
        return self.pt + self.k_const - 10.0 * self.alpha * np.log10(distance)


def q_function(x):
    """Gaussian tail probability Q(x) = P{N(0,1) > x}.

    Evaluated through the complementary error function, accurate to well
    below 1e-12 in absolute terms.  Accepts scalars or arrays.
    """
    return 0.5 * erfc(np.asarray(x, dtype=float) / _SQRT2)


def _check_distance(distance):
    d = np.asarray(distance, dtype=float)
    if not np.all(d > 0):  # a NaN distance fails too
        raise ValueError("distance must be positive")
    return d


def p_success_direct(distance, params: ChannelParams = ChannelParams()):
    """Success probability of a single hop of length `distance` meters.

    Equals Q(nu + mu*log10(d)); strictly decreasing in d.
    """
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
    return p_success_direct(l1, params) * p_success_direct(l2, params)


def shadowing_sample(distance, params: ChannelParams, rng, size=None):
    """Draw received power(s) in dBm for a hop of length `distance`.

    Path-loss mean plus a fresh zero-mean Gaussian of std sigma_sh per
    draw.  `rng` is a numpy Generator; `size` follows numpy conventions.
    """
    d = _check_distance(distance)
    mean = params.mean_rx_power(d)
    return mean + rng.normal(0.0, params.sigma_sh, size=size if size is not None else np.shape(mean) or None)
