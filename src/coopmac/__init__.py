"""CoopMAC cooperative-relaying analysis for Poisson wireless networks.

Nodes form a homogeneous 2-D Poisson point process and links suffer
log-normal shadowing on top of log-distance path loss.  The package
provides:

- ``channel_model``: dB-domain link budget, Gaussian Q-function, direct and
  two-hop success probabilities.
- ``stochastic_geometry``: circle-lens areas, helper-tier region
  geometry, nearest-neighbor distance laws.
- ``analytic_bounds``: closed-form lower/upper throughput bounds per tier,
  per link distance, and averaged over a link class.
- ``monte_carlo``: seeded vectorized simulation of both selection schemes,
  the package's one implementation of helper selection, and contour grids.
- ``within_tier``: the law of the best helper's least d_SH^2 + d_HD^2, and
  the tables of both schemes' control variates, for ``monte_carlo``.
- ``cli``: command-line front end emitting CSV/JSON datasets, including the
  ``reproduce`` figure tables; not imported by the package itself.
"""

from .channel_model import ChannelParams, g_joint, p_success_direct, q_function
from .stochastic_geometry import RegionAreas, lens_area, nn_distance_pdf, tier_region_areas
from .analytic_bounds import (
    BoundPair,
    TierProbabilityVector,
    averaged_bounds,
    band_mass,
    h_integral,
    link_bounds_at_distance,
    tier_bound_pair,
    tier_probabilities,
    total_throughput_bounds,
    type_ab_throughput,
)
from .monte_carlo import ExperimentConfig, SimEstimate, contour_grid, estimate_throughput

__all__ = [
    "ChannelParams",
    "q_function",
    "p_success_direct",
    "g_joint",
    "RegionAreas",
    "lens_area",
    "tier_region_areas",
    "nn_distance_pdf",
    "BoundPair",
    "TierProbabilityVector",
    "h_integral",
    "type_ab_throughput",
    "tier_probabilities",
    "tier_bound_pair",
    "link_bounds_at_distance",
    "averaged_bounds",
    "band_mass",
    "total_throughput_bounds",
    "ExperimentConfig",
    "SimEstimate",
    "estimate_throughput",
    "contour_grid",
]

__version__ = "0.1.0"
