"""The per-id stage code that node codes replaced, kept verbatim as
oracles for `test_node_codes_oracle.py`: consumer classes, the reach
report and spread efficiency over id sets, the perception curve and
volume paradox over id sets and count dicts, the death rank behind the
shrinkage curve and underage threshold over id rankings, the role-pair
edge counts over a roles dict, modularity over an assignment dict, and
the demographics tables over a classes dict and a dict of
`DemographicRecord`s, with `classes_by_id`, which built that classes dict
from the class codes.

They look ids up with `has_node` and `index_of` on the graph and `index`
on the forest, which the library no longer has; `IdGraph` and `IdForest`
supply them.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from devgraph.community import _projection, _q
from devgraph.demographics import (
    ACTIVE_CLASSES,
    DEFAULT_BANDS,
    ClassDemographics,
    EngagementCurve,
    min_max_normalize,
)
from devgraph.diffusion import (
    _CLASSES,
    _RANK,
    ConsumerClass,
    DiffusionForest,
    ReachReport,
    bridge_nodes,
    producer_nodes,
)
from devgraph.graph import FOLLOW, LayeredGraph
from devgraph.intervention import (
    _NEVER,
    BY_VOLUME,
    DEFAULT_SIZES,
    ShrinkageCurve,
    UnderageThreshold,
    _check_sizes,
)
from devgraph.perception import PerceptionCurve, _check_step


class IdGraph(LayeredGraph):
    """A graph with the per-id lookups the oracles make."""

    def __init__(self, g: LayeredGraph):
        super().__init__(g.node_ids, g._layers)
        self._index = {b: i for i, b in enumerate(g.node_ids)}

    def has_node(self, node: str) -> bool:
        return node in self._index

    def index_of(self, node: str) -> int:
        try:
            return self._index[node]
        except KeyError:
            raise ValueError(f"unknown node: {node!r}") from None


class IdForest:
    """A forest with the id -> code map the oracles read."""

    def __init__(self, forest: DiffusionForest):
        self._forest = forest
        self.index = {n: i for i, n in enumerate(forest.ids)}

    def __getattr__(self, name):
        return getattr(self._forest, name)

    def __len__(self) -> int:
        return len(self._forest)


# -- diffusion ------------------------------------------------------------------

def classify_nodes(g: LayeredGraph, forest: DiffusionForest,
                   roles: dict[str, str]) -> dict[str, ConsumerClass]:
    """Assign every graph node to exactly one consumer class.

    Precedence: producer > bridge > active-direct (reblogged a producer's
    instance) > active-indirect (in a tree otherwise) > passive (follows a
    producer, in no tree) > involuntary (follows an active consumer only)
    > unexposed.
    """
    producers = producer_nodes(roles)
    nodes = g.node_ids
    above, below = forest.edges()
    is_producer = np.fromiter((x in producers for x in forest.ids), dtype=bool,
                              count=forest.n_nodes)
    # the graph index of each forest node, -1 outside the graph
    at = np.fromiter((g.index_of(x) if g.has_node(x) else -1 for x in forest.ids),
                     dtype=np.int64, count=forest.n_nodes)
    # set in reverse precedence order (the enum's), so the first class wins
    code = np.full(len(nodes), _RANK[ConsumerClass.UNEXPOSED], dtype=np.int64)
    for cls, members in ((ConsumerClass.ACTIVE_INDIRECT, forest.node),
                         (ConsumerClass.ACTIVE_DIRECT, below[is_producer[above]])):
        hit = at[members]
        code[hit[hit >= 0]] = _RANK[cls]
    for cls, members in ((ConsumerClass.BRIDGE, bridge_nodes(roles)),
                         (ConsumerClass.PRODUCER, producers)):
        code[np.fromiter((n in members for n in nodes), dtype=bool, count=len(nodes))] = \
            _RANK[cls]

    follow = g.layer(FOLLOW)

    def follows(mask: np.ndarray) -> np.ndarray:
        return np.bincount(follow.src[mask[follow.dst]], minlength=len(nodes)) > 0

    rest = code == _RANK[ConsumerClass.UNEXPOSED]
    passive = rest & follows(code == _RANK[ConsumerClass.PRODUCER])
    involuntary = rest & follows((code == _RANK[ConsumerClass.ACTIVE_DIRECT])
                                 | (code == _RANK[ConsumerClass.ACTIVE_INDIRECT]))
    code[involuntary] = _RANK[ConsumerClass.INVOLUNTARY]
    code[passive] = _RANK[ConsumerClass.PASSIVE]
    # those classed by role or tree first, then the rest, each in graph order
    order = np.argsort(code >= _RANK[ConsumerClass.PASSIVE], kind="stable").tolist()
    return {nodes[i]: _CLASSES[c] for i, c in zip(order, code[order].tolist())}


def reach_report(classes: dict[str, ConsumerClass], forest: DiffusionForest) -> ReachReport:
    """Class cardinalities, reblog-action flows between classes, and the
    consumers-per-producer amplification ratio."""
    counts = Counter(c.value for c in classes.values())
    for cls in ConsumerClass:
        counts.setdefault(cls.value, 0)
    names = [cls.value for cls in _CLASSES] + ["unknown"]
    kind = np.fromiter((_RANK[classes[x]] if x in classes else len(_CLASSES)
                        for x in forest.ids), dtype=np.int64, count=forest.n_nodes)
    above, below = forest.edges()
    pairs = np.bincount(kind[above] * len(names) + kind[below], minlength=len(names) ** 2)
    flows: dict[str, dict[str, int]] = {}
    for pair in np.flatnonzero(pairs).tolist():
        src, dst = divmod(pair, len(names))
        flows.setdefault(names[src], {})[names[dst]] = int(pairs[pair])
    consumers = (counts[ConsumerClass.ACTIVE_DIRECT.value]
                 + counts[ConsumerClass.ACTIVE_INDIRECT.value]
                 + counts[ConsumerClass.PASSIVE.value]
                 + counts[ConsumerClass.INVOLUNTARY.value])
    n_producers = counts[ConsumerClass.PRODUCER.value]
    amplification = consumers / n_producers if n_producers else None
    return ReachReport(class_counts=dict(counts), flows=flows,
                       amplification=amplification)


def spread_efficiency(U: set[str], forest: DiffusionForest, inverse: bool = False) -> float:
    """eta = r_r / (r_d * |U|): reblogs received from outside U on instances
    held by U, per reblog done by U, per member. inverse=True returns the
    reciprocal reading (reblogs done per received, size-weighted)."""
    if not U:
        raise ValueError("empty node set")
    inside = np.fromiter((x in U for x in forest.ids), dtype=bool, count=forest.n_nodes)
    above, below = forest.edges()
    r_d = int(np.count_nonzero(inside[below]))
    r_r = int(np.count_nonzero(inside[above] & ~inside[below]))
    if r_d == 0:
        raise ValueError("set did no reblogging")
    eta = r_r / (r_d * len(U))
    if inverse:
        if r_r == 0:
            raise ValueError("set received no outside reblogs")
        return (r_d * len(U)) / r_r
    return eta


# -- perception ----------------------------------------------------------------

def _mask(g: LayeredGraph, nodes) -> np.ndarray:
    """Boolean mask over node indices of the nodes in `nodes`."""
    return np.fromiter((node in nodes for node in g.node_ids), dtype=bool, count=g.n_nodes)


def perception_curve(g: LayeredGraph, layer: str, deviant_active: set[str],
                     exclude: set[str] | None = None,
                     step: float = 0.01) -> PerceptionCurve:
    """ICDF over nodes of the fraction of out-neighbors (the accounts a node
    observes) that are in deviant_active; `step` in (0, 1] spaces the
    thresholds.

    Nodes in `exclude` (typically the producers themselves) and nodes with
    no out-neighbors are left out of the population; the zero-out-degree
    count is reported on the curve. The counts are one bincount over the
    layer's edge arrays.
    """
    _check_step(step)
    lay = g.layer(layer)
    degree = g.out_degrees(layer)
    hits = np.bincount(lay.src[_mask(g, deviant_active)[lay.dst]], minlength=g.n_nodes)
    kept = ~_mask(g, exclude or set())
    eligible = kept & (degree > 0)
    if not eligible.any():
        raise ValueError("no eligible nodes: every node lacks out-neighbors")
    n_steps = round(1.0 / step)
    # integer grid keeps thresholds like 0.30 exactly equal to the literal
    thresholds = np.arange(n_steps + 1) / n_steps
    fracs = np.sort(hits[eligible] / degree[eligible])
    at_least = 1.0 - np.searchsorted(fracs, thresholds, side="left") / len(fracs)
    return PerceptionCurve(thresholds=tuple(float(t) for t in thresholds),
                           fraction_at_least=tuple(float(v) for v in at_least),
                           layer=layer, eligible=len(fracs),
                           excluded_zero_outdegree=int(np.count_nonzero(kept & (degree == 0))))


def volume_paradox_fraction(g: LayeredGraph, layer: str,
                            reblog_counts: dict[str, int],
                            exclude: set[str] | None = None) -> float:
    """Fraction of nodes whose own deviant reblog count falls strictly below
    the mean count of their out-neighbors.

    Presence in reblog_counts marks a neighbor as eligible (posted or
    reblogged at least once); nodes without any eligible neighbor are
    excluded from the denominator. Neighbor counts and sums are bincounts
    over the layer's edge arrays, added in out-neighbor order.
    """
    lay = g.layer(layer)
    count = np.fromiter((reblog_counts.get(node, 0) for node in g.node_ids),
                        dtype=np.float64, count=g.n_nodes)
    sel = _mask(g, reblog_counts)[lay.dst]
    src, dst = lay.src[sel], lay.dst[sel]
    n_eligible = np.bincount(src, minlength=g.n_nodes)
    total = np.bincount(src, weights=count[dst], minlength=g.n_nodes)
    considered = ~_mask(g, exclude or set()) & (n_eligible > 0)
    if not considered.any():
        raise ValueError("no nodes with eligible out-neighbors")
    below = count[considered] < total[considered] / n_eligible[considered]
    return int(np.count_nonzero(below)) / int(np.count_nonzero(considered))


# -- intervention --------------------------------------------------------------

def _death_rank(forest: DiffusionForest, ranking: Sequence[str]) -> np.ndarray:
    """D(n) per node: the largest, over n's non-root appearances, of the
    smallest ranking position on the root path (root and n included).
    Erasing ranking[:k] leaves n reached iff D(n) >= k. Unranked nodes
    sit at position _NEVER; duplicates keep their first position; nodes
    with no non-root appearance get -1."""
    pos = np.full(forest.n_nodes, _NEVER, dtype=np.int64)
    for i in range(len(ranking) - 1, -1, -1):
        j = forest.index.get(ranking[i])
        if j is not None:
            pos[j] = i
    # pointer doubling: least[a] covers ever more of a's root path
    least = pos[forest.node]
    jump = forest.parent.copy()
    while (has := np.flatnonzero(jump >= 0)).size:
        least[has] = np.minimum(least[has], least[jump[has]])
        jump[has] = jump[jump[has]]
    death = np.full(forest.n_nodes, -1, dtype=np.int64)
    below = forest.parent >= 0
    np.maximum.at(death, forest.node[below], least[below])
    return death


def shrinkage_curve(forest: DiffusionForest, ranking: Sequence[str],
                    sizes: Iterable[int] = DEFAULT_SIZES,
                    strategy: str = BY_VOLUME) -> ShrinkageCurve:
    """Fraction of baseline consumers still reached when the top-k ranked
    nodes are erased, for each requested k. One pass over the forest: a
    consumer stays reached at k iff its death rank is at least k."""
    sizes = list(sizes)
    _check_sizes(sizes)
    death = _death_rank(forest, ranking)
    baseline = death[death >= 0]
    if not baseline.size:
        raise ValueError("no baseline consumers: trees are empty")
    warnings: list[str] = []
    fractions: list[float] = []
    for k in sizes:
        if k > len(ranking):
            warnings.append(f"size {k} exceeds ranking length {len(ranking)}; truncated")
        # the prefix ranking[:k] erases, with slice semantics for negative k
        removed = len(range(len(ranking))[:k])
        fractions.append(int(np.count_nonzero(baseline >= removed)) / baseline.size)
    return ShrinkageCurve(sizes=tuple(sizes), reached_fraction=tuple(fractions),
                          strategy=strategy, warnings=tuple(warnings))


def underage_exposure_threshold(forest: DiffusionForest, ranking: Sequence[str],
                                ages: dict[str, int], cutoff: int = 18) -> UnderageThreshold:
    """Smallest removal prefix after which no known-underage consumer remains
    reached: one more than the largest death rank among underage baseline
    consumers, found in one pass over the forest."""
    underage = {n for n, a in ages.items() if a < cutoff}
    death = _death_rank(forest, ranking)
    exposed = death[[forest.index[n] for n in underage if n in forest.index]]
    exposed = exposed[exposed >= 0]
    if not exposed.size:
        return UnderageThreshold(0, note="no underage consumers in baseline")
    last = int(exposed.max())
    if last == _NEVER:
        raise ValueError("underage nodes remain reached even after removing "
                         "every ranked node")
    return UnderageThreshold(last + 1)


# -- connectivity --------------------------------------------------------------

def _edge_counts(g: LayeredGraph, layer: str, roles: dict[str, str],
                 groups: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Unweighted E(A->B) counts and group sizes."""
    unassigned = [n for n in g.node_ids if n not in roles]
    if unassigned:
        raise ValueError(f"{len(unassigned)} nodes lack a role, e.g. {unassigned[0]!r}")
    gi = {grp: i for i, grp in enumerate(groups)}
    role_idx = np.array([gi[roles[n]] for n in g.node_ids], dtype=np.int64)
    sizes = np.bincount(role_idx, minlength=len(groups)).astype(np.int64)
    lay = g.layer(layer)
    counts = np.zeros((len(groups), len(groups)), dtype=np.int64)
    np.add.at(counts, (role_idx[lay.src], role_idx[lay.dst]), 1)
    return counts, sizes


# -- community -----------------------------------------------------------------

def modularity(g: LayeredGraph, layer: str, assignment: dict[str, int]) -> float:
    """Weighted undirected modularity of a node -> community assignment
    over the full node set."""
    if g.n_nodes == 0:
        raise ValueError("empty graph")
    missing = [node for node in g.node_ids if node not in assignment]
    if missing:
        raise ValueError(f"partition misses {len(missing)} nodes, e.g. {missing[0]!r}")
    adj, m = _projection(g, layer)
    if m == 0:
        raise ValueError("no edges")
    return _q(adj, [0.0] * g.n_nodes, m, [assignment[node] for node in g.node_ids])


# -- demographics --------------------------------------------------------------

# the known genders
GENDERS = ("male", "female")


@dataclass(frozen=True)
class DemographicRecord:
    node: str
    age: int
    gender: str  # male / female / unknown


def classes_by_id(ids: Sequence[str], classes: np.ndarray) -> dict[str, ConsumerClass]:
    """The class of each of `ids` by id, for the id-keyed demographics: those
    classed by role or tree first, then the rest, each in `ids` order."""
    order = np.argsort(classes >= _RANK[ConsumerClass.PASSIVE], kind="stable").tolist()
    return {ids[i]: _CLASSES[c] for i, c in zip(order, classes[order].tolist())}


def class_demographics(classes: dict[str, ConsumerClass],
                       demo: dict[str, DemographicRecord]) -> dict[str, ClassDemographics]:
    """Per-class age/gender statistics over the demographically covered
    members; population (not sample) standard deviation."""
    members: dict[str, list[str]] = {}
    for node, cls in classes.items():
        members.setdefault(cls.value, []).append(node)
    out: dict[str, ClassDemographics] = {}
    for cls in ConsumerClass:
        nodes = members.get(cls.value, [])
        covered = [demo[n] for n in nodes if n in demo]
        known = [r for r in covered if r.gender in GENDERS]
        if covered:
            ages = np.array([r.age for r in covered], dtype=np.float64)
            males = sum(r.gender == "male" for r in known)
            stats = dict(
                mean_age=float(ages.mean()),
                median_age=float(np.median(ages)),
                std_age=float(ages.std(ddof=0)),
                under_18=float((ages < 18).mean()),
                male_fraction=males / len(known) if known else None,
                female_fraction=(len(known) - males) / len(known) if known else None,
            )
        else:
            stats = dict(mean_age=None, median_age=None, std_age=None,
                         under_18=None, male_fraction=None, female_fraction=None)
        out[cls.value] = ClassDemographics(
            class_name=cls.value, size=len(nodes), covered=len(covered),
            coverage=len(covered) / len(nodes) if nodes else 0.0,
            unknown_gender=len(covered) - len(known), **stats)
    return out


def age_histogram(classes: dict[str, ConsumerClass],
                  demo: dict[str, DemographicRecord]) -> dict[str, list[int]]:
    """Per-class covered-user counts per age band of DEFAULT_BANDS."""
    hist = {cls.value: [0] * len(DEFAULT_BANDS) for cls in ConsumerClass}
    for node, cls in classes.items():
        rec = demo.get(node)
        if rec is None:
            continue
        for i, (lo, hi) in enumerate(DEFAULT_BANDS):
            if lo <= rec.age < hi:
                hist[cls.value][i] += 1
                break
    return hist


def engagement_by_age(classes: dict[str, ConsumerClass],
                      demo: dict[str, DemographicRecord]) -> dict[str, EngagementCurve]:
    """Per gender: the share of covered users in each age band of
    DEFAULT_BANDS who are active consumers (ACTIVE_CLASSES), min-max
    normalized per gender. Bands with no covered users carry None and stay
    out of the normalization."""
    curves: dict[str, EngagementCurve] = {}
    for gender in GENDERS:
        totals = [0] * len(DEFAULT_BANDS)
        active = [0] * len(DEFAULT_BANDS)
        for node, rec in demo.items():
            if rec.gender != gender or node not in classes:
                continue
            for i, (lo, hi) in enumerate(DEFAULT_BANDS):
                if lo <= rec.age < hi:
                    totals[i] += 1
                    if classes[node] in ACTIVE_CLASSES:
                        active[i] += 1
                    break
        raw: list[float | None] = [a / t if t else None for a, t in zip(active, totals)]
        present = [x for x in raw if x is not None]
        if len(present) < 2:
            raise ValueError(f"need at least 2 bands with data for {gender}")
        norm_present = min_max_normalize(present)
        it = iter(norm_present)
        normalized = [next(it) if x is not None else None for x in raw]
        curves[gender] = EngagementCurve(gender=gender, bands=DEFAULT_BANDS,
                                         raw=tuple(raw), normalized=tuple(normalized))
    return curves
