"""What the network looks like from the inside.

Two perception measures over the planted graph. First, the share of
accounts for which at least a given fraction of the accounts they follow
are active deviant consumers. Second, the majority-illusion direction:
how many accounts see a neighborhood that reblogs more than they do.
"""

import numpy as np

from devgraph.diffusion import ConsumerClass, build_trees, classify_nodes, producer_nodes
from devgraph.graph import FOLLOW, REBLOG
from devgraph.perception import perception_curve, volume_paradox_fraction
from devgraph.synth import SynthConfig, paradox_fixture, planted_graph, synth_events

cfg = SynthConfig(seed=3)
g, roles = planted_graph(cfg)
producers = producer_nodes(roles)
forest = build_trees(synth_events(cfg, g, roles), producers)
classes = classify_nodes(g, forest, roles)

active = producers | {n for n, c in classes.items()
                      if c in (ConsumerClass.ACTIVE_DIRECT, ConsumerClass.ACTIVE_INDIRECT)}
curve = perception_curve(g, FOLLOW, active, exclude=producers, step=0.10)

print(f"active deviant accounts: {len(active)} of {g.n_nodes}")
print(f"eligible observers: {curve.eligible} "
      f"(skipped {curve.excluded_zero_outdegree} with nobody followed)\n")
print("threshold  share seeing at least that fraction")
for t, f in zip(curve.thresholds, curve.fraction_at_least):
    bar = "#" * round(40 * f)
    print(f"{t:9.2f}  {f:6.3f}  {bar}")

# the paradox needs heavy tails to bite; use the zipf fixture for contrast
# each reblog counts for both its actor and its source
volume = np.bincount(np.concatenate(forest.edges()), minlength=forest.n_nodes)
counts = {forest.ids[i]: c for i, c in enumerate(volume.tolist()) if c}
planted = volume_paradox_fraction(g, FOLLOW, counts, exclude=producers)
hg, hcounts = paradox_fixture(n=10_000, seed=3)
heavy = volume_paradox_fraction(hg, REBLOG, hcounts)
print(f"\nbelow their neighborhood mean: {planted:.3f} (planted graph), "
      f"{heavy:.3f} (heavy-tailed graph)")
