"""One class-range rule for every public entry point that takes a link length,
one density and k rule for every entry point that takes those, and one
channel rule for every entry point that takes channel parameters.

The link-length band of a class or regime is closed: the band edges
themselves are accepted, and the nearest doubles outside them are rejected,
whichever function is called.  A density must be finite and positive, k
an integer >= 1 that is not a bool, and channel parameters a ChannelParams.
"""

import numpy as np
import pytest

from coopmac.analytic_bounds import (
    averaged_bounds,
    band_mass,
    h_integral,
    link_bounds_at_distance,
    tier_bound_pair,
    tier_probabilities,
    total_throughput_bounds,
    type_ab_throughput,
)
from coopmac.channel_model import ChannelParams, g_joint, p_success_direct
from coopmac.monte_carlo import ExperimentConfig, contour_grid
from coopmac.stochastic_geometry import check_band, nn_distance_pdf, tier_region_areas
from protocol_oracle import sample_ppp

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


def _one_of(density, k):
    """The keyword of an entry that takes exactly one of density (ppp) or k."""
    return {"density": density} if k is None else {"k": k}


# entry point -> call with (density, k), k None for the PPP
CONDITIONING_ENTRIES = {
    "tier_probabilities": lambda d, k: tier_probabilities("D", 98.0, **_one_of(d, k)),
    "link_bounds_at_distance": lambda d, k: link_bounds_at_distance("D2", 98.0, **_one_of(d, k)),
    "averaged_bounds": lambda d, k: averaged_bounds("C", d, k=k),
    "total_throughput_bounds": lambda d, k: total_throughput_bounds(d, k=k),
    "band_mass": lambda d, k: band_mass("C", d, k=k),
    "h_integral": lambda d, k: h_integral(0.0, 48.2, k, d),
    "type_ab_throughput": lambda d, k: type_ab_throughput("A", k, d),
    "nn_distance_pdf": lambda d, k: nn_distance_pdf(k, d, 50.0),
    "sample_ppp": lambda d, k: sample_ppp(d, (0, 0, 10, 10), seed=0),
    "ExperimentConfig": lambda d, k: ExperimentConfig(densities=(0.001, d), k=k),
}
# the entries above that take no density under k-nearest conditioning
NO_DENSITY_UNDER_K = ("tier_probabilities", "link_bounds_at_distance")


# a string, a list and a bool are not densities: the first two used to raise
# TypeError from the comparison, and True ran as a density of 1.0
@pytest.mark.parametrize("density", [np.nan, np.inf, -np.inf, 0.0, -1e-3, "0.001", [0.001], True, np.True_])
@pytest.mark.parametrize(
    "entry,k", [(e, k) for e in CONDITIONING_ENTRIES for k in (None, 10) if k is None or e not in NO_DENSITY_UNDER_K]
)
def test_non_finite_or_non_positive_density_rejected(entry, k, density):
    with pytest.raises(ValueError, match="density must be positive and finite"):
        CONDITIONING_ENTRIES[entry](density, k)


@pytest.mark.parametrize("density", [np.float64(0.001), np.float32(0.001), np.array(0.001)])
@pytest.mark.parametrize("entry", CONDITIONING_ENTRIES)
def test_numpy_scalar_and_0d_array_densities_accepted(entry, density):
    # k=10 where the entry takes a density under k (nn_distance_pdf needs a k)
    CONDITIONING_ENTRIES[entry](density, None if entry in NO_DENSITY_UNDER_K else 10)


@pytest.mark.parametrize("k", [0, True])
@pytest.mark.parametrize("entry", [e for e in CONDITIONING_ENTRIES if e != "sample_ppp"])
def test_k_below_one_or_bool_rejected(entry, k):
    with pytest.raises(ValueError, match="k must be an integer >= 1"):
        CONDITIONING_ENTRIES[entry](0.001, k)


@pytest.mark.parametrize(
    "entry", [e for e in CONDITIONING_ENTRIES if e not in NO_DENSITY_UNDER_K + ("sample_ppp",)]
)
def test_k_nearest_integrals_need_a_density(entry):
    # the band integrals, the kth-NN law and the simulator use the density under k
    # too; a missing one used to surface as a TypeError from the arithmetic (from
    # float() in ExperimentConfig)
    with pytest.raises(ValueError, match="density must be positive and finite, got None"):
        CONDITIONING_ENTRIES[entry](None, 10)


@pytest.mark.parametrize("entry", NO_DENSITY_UNDER_K)
def test_k_nearest_forms_take_no_density(entry):
    CONDITIONING_ENTRIES[entry](None, 10)


# entry point -> call with channel parameters
CHANNEL_ENTRIES = {
    "p_success_direct": lambda p: p_success_direct(50.0, p),
    "g_joint": lambda p: g_joint(30.0, 40.0, p),
    "h_integral": lambda p: h_integral(0.0, 48.2, None, 0.001, p),
    "type_ab_throughput": lambda p: type_ab_throughput("A", None, 0.001, p),
    "tier_bound_pair": lambda p: tier_bound_pair("C", 2, 70.0, p),
    "link_bounds_at_distance": lambda p: link_bounds_at_distance("C", 70.0, density=0.001, params=p),
    "averaged_bounds": lambda p: averaged_bounds("C", 0.001, params=p),
    "total_throughput_bounds": lambda p: total_throughput_bounds(0.001, params=p),
    "contour_grid": lambda p: contour_grid("C", resolution=5.0, params=p),
    "ExperimentConfig": lambda p: ExperimentConfig(channel=p),
}


# None used to fail later, with an AttributeError from the arithmetic ('NoneType' object has no attribute 'nu')
@pytest.mark.parametrize("params", [None, ChannelParams, {"sigma_sh": 6.0}, "default"],
                         ids=["None", "class", "dict", "str"])
@pytest.mark.parametrize("entry", CHANNEL_ENTRIES)
def test_channel_parameters_other_than_a_channelparams_rejected(entry, params):
    with pytest.raises(ValueError, match="channel parameters must be a ChannelParams"):
        CHANNEL_ENTRIES[entry](params)


@pytest.mark.parametrize("entry", CHANNEL_ENTRIES)
def test_a_channelparams_accepted(entry):
    CHANNEL_ENTRIES[entry](ChannelParams(sigma_sh=8.0))
