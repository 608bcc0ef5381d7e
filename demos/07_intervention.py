"""How fast does reach collapse when accounts are removed?

Compares three removal orders on the same cascade forest: by realized
spread volume (descendants actually reached), by reblog in-degree (a
visibility proxy), and adaptive greedy (re-rank after every removal).
Also reports the smallest removal that ends all underage exposure.
"""

from devgraph.diffusion import build_trees, producer_nodes
from devgraph.graph import id_codes, id_mask
from devgraph.intervention import (
    adaptive_greedy_ranking,
    rank_by_degree,
    rank_by_volume,
    shrinkage_curve,
    underage_exposure_threshold,
)
from devgraph.synth import SynthConfig, planted_graph, synth_demographics, synth_events

cfg = SynthConfig(seed=3)
g, roles = planted_graph(cfg)
events = synth_events(cfg, g, roles)
trees = build_trees(events, id_mask(events.ids, producer_nodes(roles)))

sizes = [0, 1, 2, 5, 10, 20, 40]
curves = [
    shrinkage_curve(trees, rank_by_volume(trees), sizes, strategy="ByVolume"),
    # the degree ranking holds graph codes; the curve reads the forest's
    shrinkage_curve(trees, id_codes(trees.ids, g.node_ids)[rank_by_degree(g)], sizes,
                    strategy="ByDegree"),
    shrinkage_curve(trees, adaptive_greedy_ranking(trees, max(sizes)), sizes,
                    strategy="Greedy"),
]

print("removed    " + "".join(f"{c.strategy:>10s}" for c in curves))
for i, k in enumerate(sizes):
    row = "".join(f"{c.reached_fraction[i]:10.3f}" for c in curves)
    print(f"{k:7d}    {row}")
for c in curves:
    for w in c.warnings:
        print(f"  {c.strategy}: {w}")

# each forest node's age, NaN where the table has none
ages = synth_demographics(cfg, roles).over(trees.ids)[0]
threshold = underage_exposure_threshold(trees, rank_by_volume(trees), ages)
if threshold.note:
    print(f"\nunderage exposure: {threshold.note}")
else:
    print(f"\nsmallest removal ending underage exposure: {threshold.k} accounts")
