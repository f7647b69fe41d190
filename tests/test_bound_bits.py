"""The bounds to the last bit: every `DENSITY_GRID` cell of C, D1, D2 and the
network total, under the PPP, k=1 and k=10.

`tests/golden/bound_bits.json` holds `float.hex` of each lower and upper
bound.  A speed-up of the bound kernel or the quadrature must keep them all;
a change that moves bounds on purpose regenerates the fixture with

    PYTHONPATH=src python tests/test_bound_bits.py

and says why in its description.
"""

import json
import sys
from pathlib import Path

import pytest

from coopmac.analytic_bounds import averaged_bounds, total_throughput_bounds
from coopmac.monte_carlo import DENSITY_GRID

FIXTURE = Path(__file__).parent / "golden" / "bound_bits.json"
REGIMES = ("C", "D1", "D2", "total")
CONDITIONINGS = (None, 1, 10)


def _bits(regime, density, k):
    pair = total_throughput_bounds(density, k=k) if regime == "total" else averaged_bounds(regime, density, k=k)
    return {"lower": pair.lower.hex(), "upper": pair.upper.hex()}


def _cells():
    return [(regime, density, k) for k in CONDITIONINGS for density in DENSITY_GRID for regime in REGIMES]


def _key(regime, density, k):
    return "%s|%r|%s" % (regime, density, "ppp" if k is None else "k=%d" % k)


@pytest.fixture(scope="module")
def fixture():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_cell(fixture):
    assert sorted(fixture) == sorted(_key(*cell) for cell in _cells())


@pytest.mark.parametrize("k", CONDITIONINGS, ids=lambda k: "ppp" if k is None else "k=%d" % k)
@pytest.mark.parametrize("regime", REGIMES)
def test_bounds_keep_their_bits(fixture, regime, k):
    got = {_key(regime, d, k): _bits(regime, d, k) for d in DENSITY_GRID}
    assert got == {key: fixture[key] for key in got}


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps({_key(*cell): _bits(*cell) for cell in _cells()}, indent=1, sort_keys=True) + "\n")
    print("wrote", FIXTURE, file=sys.stderr)
