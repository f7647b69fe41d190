import numpy as np
import pytest
from scipy.integrate import quad

from coopmac.quadrature import adaptive_simpson


def test_polynomial_exactness():
    # Simpson is exact for cubics
    assert adaptive_simpson(lambda x: x**3 - 2 * x + 1, 0.0, 2.0) == pytest.approx(2.0, abs=1e-12)


def test_empty_interval():
    assert adaptive_simpson(np.sin, 1.0, 1.0) == 0.0


def test_reversed_bounds_rejected():
    with pytest.raises(ValueError):
        adaptive_simpson(np.sin, 2.0, 1.0)


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
        return value, np.log2(6.0 / np.diff(np.unique(nodes)).min())

    alone = [run(f) for f in components]
    joint, joint_depth = run(lambda x: np.array([f(x) for f in components]))
    assert alone[1][1] > alone[0][1] + 20
    assert joint_depth == max(depth for _, depth in alone)
    for got, (want, _), truth in zip(joint, alone, exact):
        assert got == pytest.approx(want, abs=tol)
        assert got == pytest.approx(truth, abs=tol)
