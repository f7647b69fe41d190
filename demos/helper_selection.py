"""One sampled network: candidate helpers, attempt orders, the exchange's score.

Run: python demos/helper_selection.py
"""
import numpy as np

from coopmac import (
    ChannelParams,
    enumerate_candidates,
    run_exchange,
    sample_ppp,
    select_helper_conventional,
    select_helper_proposed,
)

params = ChannelParams()
rng = np.random.default_rng(7)

real = sample_ppp(0.002, (-100, -100, 180, 100), seed=7)
source, dest = (0.0, 0.0), (72.0, 0.0)
print("Sampled %d nodes; S-D link of 72 m (Type C)\n" % len(real.nodes))

cands = enumerate_candidates(real, source, dest, params)
print("%d beneficial helpers found:" % len(cands))
for c in sorted(cands, key=lambda c: c.tier):
    print("  tier %d at (%6.1f, %6.1f): d_SH=%5.1f, d_HD=%5.1f, G=%.4f"
          % (c.tier, c.position[0], c.position[1], c.d_sh, c.d_hd, c.g_score))

order = select_helper_proposed(cands)
print("\nProposed attempt order (tier priority, best G first):")
print("  " + " -> ".join("T%d/G=%.3f" % (c.tier, c.g_score) for c in order))

conv = select_helper_conventional(cands, rng)
print("Conventional order (uniformly random):")
print("  " + " -> ".join("T%d/G=%.3f" % (c.tier, c.g_score) for c in conv))

out = run_exchange(order, 72.0, params)
print("\nOutcome: %s at %.2f Mbps, success prob %.4f, expected throughput %.4f Mbps"
      % (out.mode, out.rate, out.success_prob, out.rate * out.success_prob))
