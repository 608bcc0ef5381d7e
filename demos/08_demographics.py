"""Who the consumer classes are, demographically.

Profiles each consumer class from a partially covered demographics table
(age and gender are never known for everyone), then builds the age curve
of active engagement per gender, min-max normalized so the two genders
can be compared by shape rather than by base rate.
"""

from devgraph.demographics import class_demographics, engagement_by_age
from devgraph.diffusion import bridge_nodes, build_trees, classify_nodes, producer_nodes
from devgraph.graph import id_codes, id_mask
from devgraph.synth import (
    SynthConfig,
    engagement_fixture,
    planted_graph,
    synth_demographics,
    synth_events,
)

cfg = SynthConfig(seed=3)
g, roles = planted_graph(cfg)
events = synth_events(cfg, g, roles)
producers = id_mask(g.node_ids, producer_nodes(roles))
at = id_codes(g.node_ids, events.ids)
trees = build_trees(events, producers[at])
classes = classify_nodes(g, trees, at, producers, id_mask(g.node_ids, bridge_nodes(roles)))
# each graph node's age (NaN where the table has none) and gender code
ages, genders = synth_demographics(cfg, roles).over(g.node_ids)

stats = class_demographics(classes, ages, genders)
print("class              size  covered  median age  share male")
for name, st in sorted(stats.items(), key=lambda kv: -kv[1].size):
    med = f"{st.median_age:10.1f}" if st.median_age is not None else "         -"
    male = f"{st.male_fraction:10.2f}" if st.male_fraction is not None else "         -"
    print(f"{name:18s} {st.size:4d}  {st.covered:7d}  {med}  {male}")

# the planted rates put the male peak around 40 and the female peak mid-20s
# its class codes are over the table's rows
eclasses, edemo = engagement_fixture(per_cell=40)
curves = engagement_by_age(eclasses, edemo.age, edemo.gender)
print("\nage band   male   female   (normalized active share)")
male, female = curves["male"], curves["female"]
for (lo, hi), m, f in zip(male.bands, male.normalized, female.normalized):
    m_s = f"{m:5.2f}" if m is not None else "    -"
    f_s = f"{f:5.2f}" if f is not None else "    -"
    print(f"{lo:3d}-{hi - 1:3d}   {m_s}   {f_s}")
