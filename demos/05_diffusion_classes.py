"""From reblog cascades to consumer classes.

Generates producer-rooted cascades on the planted graph, rebuilds the
diffusion trees, and classifies every node by how the content reached it:
reblogged straight from a producer, reblogged deeper in a tree, merely
following a producer, following an active reblogger only, or untouched.
Ends with the reach summary and the spread efficiency of the producers.
"""

import numpy as np

from devgraph.diffusion import (
    bridge_nodes,
    build_trees,
    classify_nodes,
    producer_nodes,
    reach_report,
    spread_efficiency,
)
from devgraph.graph import id_codes, id_mask
from devgraph.synth import SynthConfig, planted_graph, synth_events

cfg = SynthConfig(seed=3)
g, roles = planted_graph(cfg)
events = synth_events(cfg, g, roles)
# ids become node codes once: role masks over the graph, and the graph code
# of each event node (every one is in the graph here)
producers = id_mask(g.node_ids, producer_nodes(roles))
at = id_codes(g.node_ids, events.ids)
forest = build_trees(events, producers[at])

print(f"events: {len(events)}   trees kept: {len(forest)}")
# climb every appearance to its tree's root, counting the hops
tree = np.arange(len(forest.node))
depth = np.zeros(len(forest.node), dtype=np.int64)
while (up := forest.parent[tree] >= 0).any():
    tree[up] = forest.parent[tree[up]]
    depth[up] += 1
print(f"deepest cascade: {depth.max()} hops, "
      f"largest: {np.bincount(tree).max()} nodes")

classes = classify_nodes(g, forest, at, producers, id_mask(g.node_ids, bridge_nodes(roles)))
report = reach_report(classes, forest, at)

print("\nclass              count")
for name, count in sorted(report.class_counts.items(), key=lambda kv: -kv[1]):
    print(f"{name:18s} {count:5d}")
print(f"\nconsumers per producer: {report.amplification:.2f}")

print("\nreblog flows (actor class <- source class):")
for src, row in sorted(report.flows.items()):
    for dst, n in sorted(row.items(), key=lambda kv: -kv[1]):
        print(f"  {dst:18s} <- {src:18s} {n:4d}")

eta = spread_efficiency(producers[at], int(producers.sum()), forest)
print(f"\nproducer spread efficiency: {eta:.4f} "
      f"(outside reblogs per own reblog per member)")
