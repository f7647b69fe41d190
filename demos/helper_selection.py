"""One sampled network: its beneficial helpers, both schemes' attempt orders, the exchange's score.

The proposed scheme takes the lowest non-empty helper tier, then the helper
in it least affected by shadowing, the one of largest joint two-hop success
probability G; the conventional baseline tries the beneficial helpers in a
uniformly random order.

Run: python demos/helper_selection.py
"""
import numpy as np

from coopmac import ChannelParams, g_joint, p_success_direct
from coopmac.stochastic_geometry import CLASS_RATES, TIER_RATES, tier_index

params = ChannelParams()
rng = np.random.default_rng(7)

# a homogeneous PPP of 0.002 nodes/m^2: a Poisson count, then uniform positions
xmin, ymin, xmax, ymax = -100.0, -100.0, 180.0, 100.0
n = rng.poisson(0.002 * (xmax - xmin) * (ymax - ymin))
x, y = rng.uniform(xmin, xmax, n), rng.uniform(ymin, ymax, n)
r = 72.0  # S at (0, 0), D at (r, 0)
print("Sampled %d nodes; S-D link of %g m (Type C)\n" % (n, r))

d_sh, d_hd = np.hypot(x, y), np.hypot(x - r, y)
tier = tier_index(d_sh, d_hd, "C")
helpers = tier > 0  # tier 0: no gain from relaying
x, y, d_sh, d_hd, tier = (a[helpers] for a in (x, y, d_sh, d_hd, tier))
g = g_joint(d_sh, d_hd, params)
print("%d beneficial helpers found:" % tier.size)
for i in np.argsort(tier, kind="stable"):
    print("  tier %d at (%6.1f, %6.1f): d_SH=%5.1f, d_HD=%5.1f, G=%.4f" % (tier[i], x[i], y[i], d_sh[i], d_hd[i], g[i]))

# the proposed order: ascending tier, then descending G (lexsort's last key is its first)
order = np.lexsort((-g, tier))
print("\nProposed attempt order (tier priority, best G first):")
print("  " + " -> ".join("T%d/G=%.3f" % (tier[i], g[i]) for i in order))

conv = rng.permutation(tier.size)
print("Conventional order (uniformly random):")
print("  " + " -> ".join("T%d/G=%.3f" % (tier[i], g[i]) for i in conv))

# the first helper of the proposed order relays; with none, S sends directly at the class C rate
if tier.size:
    mode, rate, success = "cooperative", TIER_RATES[tier[order[0]] - 1], g[order[0]]
else:
    mode, rate, success = "direct", CLASS_RATES["C"], float(p_success_direct(r, params))
print("\nOutcome: %s at %.2f Mbps, success prob %.4f, expected throughput %.4f Mbps"
      % (mode, rate, success, rate * success))
