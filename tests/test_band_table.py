"""One class-range rule for every public entry point that takes a link length.

The link-length band of a class or regime is closed: the band edges
themselves are accepted, and the nearest doubles outside them are rejected,
whichever function is called.
"""

import numpy as np
import pytest

from coopmac.analytic_bounds import link_bounds_at_distance, tier_bound_pair, tier_probabilities
from coopmac.monte_carlo import contour_grid
from coopmac.stochastic_geometry import check_band, tier_region_areas

# entry point -> call with (link class, regime, r_k)
ENTRY_POINTS = {
    "tier_region_areas": lambda c, regime, r: tier_region_areas(c, r),
    "tier_probabilities": lambda c, regime, r: tier_probabilities(c, r, density=0.001),
    "tier_bound_pair": lambda c, regime, r: tier_bound_pair(regime, 2, r),
    "link_bounds_at_distance": lambda c, regime, r: link_bounds_at_distance(regime, r, density=0.001),
    "contour_grid": lambda c, regime, r: contour_grid(regime, r_k=r, resolution=5.0),
}
# (link class, regime holding the edge, edge in m, direction out of the band)
EDGES = [
    ("C", "C", 67.1, -np.inf),
    ("C", "C", 74.7, np.inf),
    ("D", "D1", 74.7, -np.inf),
    ("D", "D2", 100.0, np.inf),
]


@pytest.mark.parametrize("link_class,regime,edge,outward", EDGES)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_closed_band_edges_accepted_and_outside_rejected(entry, link_class, regime, edge, outward):
    call = ENTRY_POINTS[entry]
    call(link_class, regime, edge)
    with pytest.raises(ValueError, match="outside the"):
        call(link_class, regime, float(np.nextafter(edge, outward)))


@pytest.mark.parametrize("name", ["D", "c", "E", None, ["C"]])
def test_unknown_regime_names_get_one_message(name):
    with pytest.raises(ValueError, match="expected one of C, D1, D2"):
        check_band(name, ("C", "D1", "D2"))
