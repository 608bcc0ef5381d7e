"""Community structure of the follow layer versus the planted groups.

Runs seeded Louvain on a graph generated with five planted groups and
cross-tabulates the recovered communities against the ground-truth roles.
The two producer cores are dense enough to come back as separate blocks;
the sparse outer shell tends to shatter or glue onto its neighbors.
"""

from collections import Counter

import numpy as np

from devgraph.community import louvain
from devgraph.graph import FOLLOW
from devgraph.synth import SynthConfig, planted_graph

g, roles = planted_graph(SynthConfig(seed=3))
part = louvain(g, FOLLOW, seed=3)
# each node's role and community, by node code
role = np.array([roles[n] for n in g.node_ids])
sizes = np.bincount(part.membership)

print(f"communities: {len(sizes)}   modularity: {part.modularity:.4f}")
print("\ncommunity  size  role makeup")
for c in sorted(range(len(sizes)), key=lambda c: -sizes[c]):
    makeup = Counter(role[part.membership == c].tolist())
    desc = ", ".join(f"{r}:{n}" for r, n in makeup.most_common())
    print(f"{c:9d}  {sizes[c]:4d}  {desc}")

# majority-label agreement: how much of each planted core lands in one block
for core in ("producer_one", "producer_two"):
    homes = np.bincount(part.membership[role == core])
    print(f"{core}: {homes.max()}/{homes.sum()} members share one community")
