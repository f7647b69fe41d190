import numpy as np
import pytest
from scipy.integrate import quad

from coopmac import analytic_bounds
from coopmac.channel_model import ChannelParams, p_success_direct
from coopmac.monte_carlo import DENSITY_GRID
from coopmac.quadrature import gauss_kronrod
from coopmac.stochastic_geometry import CLASS_RATES, DIRECT_CLASSES, REGIMES, nn_distance_pdf


def scalar(f):
    """An integrand of gauss_kronrod's form from a function of the nodes alone."""
    return lambda x, part: f(x)


def test_polynomial_exactness():
    # one K15 panel is exact up to degree 3 * 7 + 1 = 22
    rng = np.random.default_rng(3)
    for degree in range(23):
        c = rng.normal(size=degree + 1)
        antiderivative = np.polyint(c)
        want = np.polyval(antiderivative, 1.0) - np.polyval(antiderivative, -0.5)
        got = gauss_kronrod(scalar(lambda x: np.polyval(c, x)), [(-0.5, 1.0)])
        assert got[0] == pytest.approx(want, rel=1e-13, abs=1e-14), degree


def test_empty_interval():
    calls = []
    assert gauss_kronrod(lambda x, part: (calls.append(x), np.sin(x))[1], [(1.0, 1.0)]).tolist() == [0.0]
    assert calls == []
    # an empty interval next to others is 0 too
    got = gauss_kronrod(scalar(np.sin), [(0.0, 1.0), (2.0, 2.0)])
    assert got[1] == 0.0 and got[0] == pytest.approx(1.0 - np.cos(1.0), abs=1e-14)


def test_reversed_bounds_rejected():
    with pytest.raises(ValueError):
        gauss_kronrod(scalar(np.sin), [(2.0, 1.0)])
    # a non-finite end is rejected before the integrand sees a node
    calls = []
    for a, b in ((0.0, np.nan), (np.nan, 0.0), (0.0, np.inf), (-np.inf, 0.0), (-np.inf, np.inf)):
        with pytest.raises(ValueError, match="finite"):
            gauss_kronrod(lambda x, part: (calls.append(x), np.exp(x))[1], [(0.0, 1.0), (a, b)])
    # so is a tol that is not finite and positive
    for tol in (np.nan, 0.0, -1.0, np.inf, (1e-8, 0.0)):
        with pytest.raises(ValueError, match="tol"):
            gauss_kronrod(lambda x, part: (calls.append(x), np.exp(x))[1], [(0.0, 1.0), (1.0, 2.0)], tol=tol)
        if np.ndim(tol) == 0:
            with pytest.raises(ValueError, match="tol"):
                analytic_bounds.averaged_bounds("C", 0.001, tol=tol)
    assert calls == []


def test_transcendental_against_scipy():
    f = lambda x: np.exp(-x) * np.sin(3 * x)
    expected, _ = quad(f, 0.0, 5.0, epsabs=1e-14)
    assert gauss_kronrod(scalar(f), [(0.0, 5.0)], tol=1e-10)[0] == pytest.approx(expected, abs=1e-10)


def test_gaussian_bump():
    f = lambda x: np.exp(-((x - 3.0) ** 2) / 0.02)
    expected, _ = quad(f, 0.0, 6.0, limit=200, epsabs=1e-14)
    assert gauss_kronrod(scalar(f), [(0.0, 6.0)], tol=1e-10)[0] == pytest.approx(expected, abs=1e-10)


def test_tolerance_refinement():
    f = np.sqrt
    expected = 2.0 / 3.0
    coarse = gauss_kronrod(scalar(f), [(0.0, 1.0)], tol=1e-4)[0]
    fine = gauss_kronrod(scalar(f), [(0.0, 1.0)], tol=1e-12)[0]
    assert abs(fine - expected) <= abs(coarse - expected) + 1e-15
    assert fine == pytest.approx(expected, abs=1e-12)


def test_intervals_integrated_together_give_their_bits_alone():
    # each interval's panels, their acceptance and their sum read only that interval
    f = lambda x: np.exp(-x) * np.sin(3 * x) + np.sqrt(np.abs(x - 1.3))
    intervals = [(0.0, 5.0), (-2.0, 0.5), (1.3, 1.3), (0.25, 0.26), (1.0, 9.0)]
    tols = [1e-10, 1e-6, 1e-8, 1e-12, 1e-9]
    seen = []

    def g(x, part):
        seen.append(np.unique(part))
        return f(x)

    together = gauss_kronrod(g, intervals, tol=tols)
    assert together.shape == (len(intervals),)
    assert max(map(len, seen)) > 1  # the intervals shared integrand calls
    alone = [gauss_kronrod(scalar(f), [span], tol=tol)[0] for span, tol in zip(intervals, tols)]
    assert together.tolist() == alone
    for (a, b), tol, got in zip(intervals, tols, together):
        want, _ = quad(f, a, b, points=[1.3] if a < 1.3 < b else None, epsabs=1e-14, limit=200)
        assert got == pytest.approx(want, abs=tol), (a, b)


def test_vector_integrand_refines_to_the_worst_component():
    # sin is smooth, while sqrt's infinite slope at 0 needs panels shrinking
    # towards it; jointly both components share sqrt's panels and each meets
    # the tolerance, and each sits in its own column of the result
    tol = 1e-10
    components = (np.sin, np.sqrt)
    exact = (1.0 - np.cos(6.0), 2.0 / 3.0 * 6.0**1.5)

    def run(f):
        nodes = []
        value = gauss_kronrod(lambda x, part: (nodes.append(x), f(x))[1], [(0.0, 6.0), (0.0, 1.0)], tol=tol)
        return value, np.concatenate(nodes).size

    alone = [run(f) for f in components]
    joint, joint_nodes = run(lambda x: np.array([f(x) for f in components]))
    assert joint.shape == (2, 2)
    assert alone[1][1] > 3 * alone[0][1]
    assert joint_nodes == max(n for _, n in alone)
    for column, (want, _), truth in zip(joint.T, alone, exact):
        assert column[0] == pytest.approx(truth, abs=tol)
        assert column[1] == pytest.approx(want[1], abs=tol)


def test_exhausted_panel_budget_raises():
    # sin over [0, 500] needs far more than 3 panels at the default tol
    with pytest.raises(RuntimeError, match="panels"):
        gauss_kronrod(scalar(np.sin), [(0.0, 1.0), (0.0, 500.0)], max_panels=3)


def test_non_finite_integrand_raises():
    # 0.375 is the centre node of the second of the quarters [0, 1] starts as
    with pytest.raises(RuntimeError, match="not finite"):
        gauss_kronrod(scalar(lambda x: np.where(x == 0.375, np.nan, x)), [(0.0, 1.0)])
    with pytest.raises(RuntimeError, match="not finite"):
        gauss_kronrod(scalar(lambda x: np.array([x, np.where(x > 0.9, np.inf, x)])), [(0.0, 1.0)])


@pytest.mark.parametrize("shape", [lambda n: (n + 1,), lambda n: (2, 3, n)], ids=["n+1", "2x3xn"])
def test_integrand_of_the_wrong_shape_raises(shape):
    with pytest.raises(ValueError, match=r"integrand must map n nodes to shape \(n,\) or \(c, n\), got"):
        gauss_kronrod(lambda x, part: np.zeros(shape(x.size)), [(0.0, 1.0)])


def _quad_band(regime, density, k):
    """(lower, upper) of one band integral of `_law_integral` by `scipy.integrate.quad` in r.

    The integrand is built from the public per-link views and the public
    link-length law, with no variable change.
    """
    a, b, link_class = REGIMES[regime]
    law = (lambda r: 2.0 * r / 100.0**2) if k is None else (lambda r: nn_distance_pdf(k, density, r))
    conditioning = {"density": density} if k is None else {"k": k}
    if link_class in DIRECT_CLASSES:
        sides = [lambda r: CLASS_RATES[link_class] * float(p_success_direct(r))] * 2
    else:
        sides = [lambda r, side=side: getattr(analytic_bounds.link_bounds_at_distance(regime, r, **conditioning), side)
                 for side in ("lower", "upper")]
    return [quad(lambda r: value(r) * law(r), a, b, epsabs=1e-14, epsrel=1e-12, limit=500)[0] for value in sides]


@pytest.mark.parametrize("k", [None, 1, 10], ids=["ppp", "k=1", "k=10"])
@pytest.mark.parametrize("regime", ["A", "B", "C", "D1", "D2"])
def test_band_integrals_match_quad(regime, k):
    # the network total's parts, one at a time: a direct band integrates its
    # class rate times Ps, a helper band its (lower, upper) pair; D1 is
    # integrated in s = sqrt(96.4 - r) by the package and in r by quad
    a, b, link_class = REGIMES[regime]
    value = CLASS_RATES[link_class] if link_class in DIRECT_CLASSES else regime
    for density in DENSITY_GRID:
        got = analytic_bounds._law_integral([(a, b, value)], density, k, ChannelParams())[0]
        want = _quad_band(regime, density, k)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-14, err_msg="%s at %r" % (regime, density))


@pytest.mark.parametrize("density, k", [(0.005, None), (0.0005, 10)])
def test_total_runs_its_five_bands_in_one_integrator_call(monkeypatch, density, k):
    # the total hands its five bands to one run, whose rows are the bands integrated alone
    calls = []

    def recording(f, level, tol=1e-8):
        calls.append(len(level.ends))
        return gauss_kronrod(f, level, tol)

    monkeypatch.setattr(analytic_bounds, "adaptive_simpson", recording)
    pair = analytic_bounds.total_throughput_bounds(density, k=k)
    assert calls == [5]
    parts = [(a, b, CLASS_RATES[c] if c in DIRECT_CLASSES else regime)
             for regime in ("A", "B", "C", "D1", "D2") for a, b, c in [REGIMES[regime]]]
    alone = np.array([analytic_bounds._law_integral([part], density, k, ChannelParams())[0] for part in parts])
    assert [pair.lower, pair.upper] == alone.sum(axis=0).tolist()
