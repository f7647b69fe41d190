import numpy as np
import pytest
from scipy.integrate import quad

import simpson_oracle
from coopmac import analytic_bounds
from coopmac.quadrature import adaptive_simpson
from coopmac.stochastic_geometry import REGIMES


def test_polynomial_exactness():
    # Simpson is exact for cubics
    assert adaptive_simpson(lambda x: x**3 - 2 * x + 1, 0.0, 2.0) == pytest.approx(2.0, abs=1e-12)


def test_empty_interval():
    assert adaptive_simpson(np.sin, 1.0, 1.0) == 0.0


def test_reversed_bounds_rejected():
    with pytest.raises(ValueError):
        adaptive_simpson(np.sin, 2.0, 1.0)
    # a non-finite end is rejected before the integrand sees a node
    calls = []
    for a, b in ((0.0, np.nan), (np.nan, 0.0), (0.0, np.inf), (-np.inf, 0.0), (-np.inf, np.inf)):
        with pytest.raises(ValueError, match="finite"):
            adaptive_simpson(lambda x: (calls.append(x), np.exp(x))[1], a, b)
    # so is a tol that is not finite and positive; each used to exhaust the bisection budget
    for tol in (np.nan, 0.0, -1.0, np.inf):
        with pytest.raises(ValueError, match="tol"):
            adaptive_simpson(lambda x: (calls.append(x), np.exp(x))[1], 0.0, 1.0, tol=tol)
        with pytest.raises(ValueError, match="tol"):
            analytic_bounds.averaged_bounds("C", 0.001, tol=tol)
    assert calls == []


def test_transcendental_against_scipy():
    f = lambda x: np.exp(-x) * np.sin(3 * x)
    expected, _ = quad(f, 0.0, 5.0)
    assert adaptive_simpson(f, 0.0, 5.0, tol=1e-10) == pytest.approx(expected, abs=1e-8)


def test_gaussian_bump():
    f = lambda x: np.exp(-((x - 3.0) ** 2) / 0.02)
    expected, _ = quad(f, 0.0, 6.0, limit=200)
    assert adaptive_simpson(f, 0.0, 6.0, tol=1e-10) == pytest.approx(expected, abs=1e-7)


def test_tolerance_refinement():
    f = lambda x: np.sqrt(x)
    expected = 2.0 / 3.0
    coarse = adaptive_simpson(f, 0.0, 1.0, tol=1e-4)
    fine = adaptive_simpson(f, 0.0, 1.0, tol=1e-10)
    assert abs(fine - expected) <= abs(coarse - expected) + 1e-12
    assert fine == pytest.approx(expected, abs=1e-7)


def test_vector_integrand_refines_to_the_worst_component():
    # sin needs a uniform grid of ~2^10 panels; sqrt's infinite slope at 0
    # needs ~2^57 there.  Jointly both components share the deeper grid and
    # each still meets the tolerance of its own scalar run.
    tol = 1e-10
    components = (np.sin, np.sqrt)
    exact = (1.0 - np.cos(6.0), 2.0 / 3.0 * 6.0**1.5)

    def run(f):
        nodes = []
        value = adaptive_simpson(lambda x: (nodes.append(x), f(x))[1], 0.0, 6.0, tol=tol)
        return value, np.log2(6.0 / np.diff(np.unique(np.concatenate(nodes))).min())

    alone = [run(f) for f in components]
    joint, joint_depth = run(lambda x: np.array([f(x) for f in components]))
    assert alone[1][1] > alone[0][1] + 20
    assert joint_depth == max(depth for _, depth in alone)
    for got, (want, _), truth in zip(joint, alone, exact):
        assert got == pytest.approx(want, abs=tol)
        assert got == pytest.approx(truth, abs=tol)


def test_exhausted_bisection_budget_raises():
    # sin over [0, 50] needs far more than 3 bisections at the default tol
    with pytest.raises(RuntimeError, match="bisections"):
        adaptive_simpson(np.sin, 0.0, 50.0, max_bisections=3)


def test_non_finite_integrand_raises():
    # 0.75 is a node of the second depth on [0, 1]
    with pytest.raises(RuntimeError, match="not finite"):
        adaptive_simpson(lambda x: np.where(x == 0.75, np.nan, x), 0.0, 1.0)


def _against_oracle(f, a, b, tol):
    """Run f through the package's integrator and the depth-first oracle; compare.

    f maps an array of n nodes to shape (n,) or (c, n); the oracle calls it
    one node at a time.  Both must visit the same node set and return the
    same value to 1e-14 relative.
    """
    batches, single = [], []

    def batched(x):
        batches.append(x)
        return f(x)

    def scalar(x):
        single.append(x)
        return f(np.array([x]))[..., 0]

    got = adaptive_simpson(batched, a, b, tol=tol)
    want = simpson_oracle.adaptive_simpson(scalar, a, b, tol=tol)
    nodes = np.concatenate(batches)
    assert np.unique(nodes).size == nodes.size  # no node evaluated twice
    assert np.array_equal(np.sort(nodes), np.sort(single))
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
    return nodes.size


@pytest.mark.parametrize(
    "f, a, b, tol",
    [
        (lambda x: x**3 - 2 * x + 1, 0.0, 2.0, 1e-8),
        (lambda x: np.exp(-x) * np.sin(3 * x), 0.0, 5.0, 1e-10),
        (lambda x: np.exp(-((x - 3.0) ** 2) / 0.02), 0.0, 6.0, 1e-10),
        (np.sqrt, 0.0, 1.0, 1e-4),
        (np.sqrt, 0.0, 1.0, 1e-10),
        (lambda x: np.array([np.sin(x), np.sqrt(x)]), 0.0, 6.0, 1e-10),
    ],
)
def test_matches_depth_first_oracle(f, a, b, tol):
    _against_oracle(f, a, b, tol)


@pytest.mark.parametrize("regime", ["C", "D1", "D2", "all"])
@pytest.mark.parametrize("density, k", [(0.005, None), (0.0005, 10)])
def test_bound_integrands_match_depth_first_oracle(monkeypatch, regime, density, k):
    # capture the integrands the bounds hand the integrator: the one joint
    # (lower, upper) integral of averaged_bounds, or the network total's five,
    # one per band in A, B, C, D1, D2 order (band A's also takes the r = 0 node)
    calls = []

    def recording(f, a, b, tol=1e-8):
        calls.append((f, a, b, tol))
        return adaptive_simpson(f, a, b, tol=tol)

    monkeypatch.setattr(analytic_bounds, "adaptive_simpson", recording)
    if regime == "all":
        analytic_bounds.total_throughput_bounds(density, k=k)
        bands = ("A", "B", "C", "D1", "D2")
    else:
        analytic_bounds.averaged_bounds(regime, density, k=k)
        bands = (regime,)
    assert [(a, b) for _, a, b, _ in calls] == [REGIMES[g][:2] for g in bands]
    for f, a, b, tol in calls:
        assert _against_oracle(f, a, b, tol) > 5  # 5 nodes: the first panel accepted unsplit
