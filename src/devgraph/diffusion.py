"""Diffusion trees from reblog events, the consumer-class taxonomy, reach
flows between classes, and spreading efficiency."""

from __future__ import annotations

import enum
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from .graph import FOLLOW, LayeredGraph
from .ingest import decoded_lines


@dataclass(frozen=True)
class ReblogEvent:
    actor: str
    source: str
    post_id: str
    timestamp: float


@dataclass
class DiffusionTree:
    """One post's reblog cascade: parent[child] is whose instance the child
    reblogged; depth[root] = 0."""
    root: str
    post_id: str
    parent: dict[str, str]
    depth: dict[str, int]
    children: dict[str, list[str]] = field(default_factory=dict)

    def nodes(self) -> set[str]:
        return {self.root, *self.parent}

    def edges(self) -> Iterable[tuple[str, str]]:
        for child, par in self.parent.items():
            yield par, child


class ConsumerClass(enum.Enum):
    PRODUCER = "producer"
    BRIDGE = "bridge"
    ACTIVE_DIRECT = "active_direct"
    ACTIVE_INDIRECT = "active_indirect"
    PASSIVE = "passive"
    INVOLUNTARY = "involuntary"
    UNEXPOSED = "unexposed"


def producer_nodes(roles: dict[str, str]) -> set[str]:
    """Role values starting with "producer" (case-insensitive) mark producers."""
    return {n for n, r in roles.items() if r.lower().startswith("producer")}


def bridge_nodes(roles: dict[str, str]) -> set[str]:
    return {n for n, r in roles.items() if r.lower().startswith("bridge")}


def read_events_tsv(path: str, diagnostics: Counter | None = None) -> list[ReblogEvent]:
    """actor<TAB>source<TAB>post_id<TAB>timestamp rows; self-reblogs and
    malformed rows are dropped and tallied, and so are lines that are not
    valid UTF-8 (see `decoded_lines`)."""
    if diagnostics is None:
        diagnostics = Counter()
    events: list[ReblogEvent] = []
    for line in decoded_lines(path, diagnostics):
        try:
            actor, source, post_id, ts_text = line.split("\t")
            ts = float(ts_text)
        except ValueError:
            diagnostics["malformed_events"] += 1
            continue
        if not actor or not source or actor == source:
            diagnostics["malformed_events"] += 1
            continue
        events.append(ReblogEvent(actor, source, post_id, ts))
    return events


def write_events_tsv(events: Iterable[ReblogEvent], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for ev in events:
            fh.write(f"{ev.actor}\t{ev.source}\t{ev.post_id}\t{ev.timestamp:g}\n")


def build_trees(events: Iterable[ReblogEvent], producers: set[str],
                diagnostics: Counter | None = None) -> list[DiffusionTree]:
    """Resolve per-post reblog chains into trees; only producer-rooted posts
    yield trees. Repeat reblogs by the same actor keep the earliest event.
    A post whose chain has a cycle or more than one origin is skipped and
    tallied as cyclic_posts or multi_origin_posts."""
    if diagnostics is None:
        diagnostics = Counter()
    by_post: dict[str, list[ReblogEvent]] = {}
    for ev in events:
        by_post.setdefault(ev.post_id, []).append(ev)
    trees: list[DiffusionTree] = []
    for post_id in sorted(by_post):
        evs = sorted(by_post[post_id], key=lambda e: (e.timestamp, e.actor))
        parent: dict[str, str] = {}
        for ev in evs:
            if ev.actor not in parent:
                parent[ev.actor] = ev.source
        sources = set(parent.values())
        roots = sources - parent.keys()
        if not roots:
            diagnostics["cyclic_posts"] += 1
            continue
        if len(roots) > 1:
            diagnostics["multi_origin_posts"] += 1
            continue
        root = roots.pop()
        children: dict[str, list[str]] = {}
        for child, par in parent.items():
            children.setdefault(par, []).append(child)
        for kids in children.values():
            kids.sort()
        depth = {root: 0}
        frontier = [root]
        while frontier:
            nxt = []
            for u in frontier:
                for ch in children.get(u, ()):
                    depth[ch] = depth[u] + 1
                    nxt.append(ch)
            frontier = nxt
        unreachable = parent.keys() - depth.keys()
        if unreachable:
            diagnostics["cyclic_posts"] += 1
            continue
        if root in producers:
            trees.append(DiffusionTree(root=root, post_id=post_id, parent=parent,
                                       depth=depth, children=children))
    return trees


def classify_nodes(g: LayeredGraph, trees: Sequence[DiffusionTree],
                   roles: dict[str, str]) -> dict[str, ConsumerClass]:
    """Assign every graph node to exactly one consumer class.

    Precedence: producer > bridge > active-direct (reblogged a producer's
    instance) > active-indirect (in a tree otherwise) > passive (follows a
    producer, in no tree) > involuntary (follows an active consumer only)
    > unexposed.
    """
    producers = producer_nodes(roles)
    bridges = bridge_nodes(roles)
    in_tree: set[str] = set()
    direct: set[str] = set()
    for tree in trees:
        in_tree |= tree.nodes()
        for par, child in tree.edges():
            if par in producers:
                direct.add(child)

    classes: dict[str, ConsumerClass] = {}
    actives: set[str] = set()
    for node in g.node_ids:
        if node in producers:
            classes[node] = ConsumerClass.PRODUCER
        elif node in bridges:
            classes[node] = ConsumerClass.BRIDGE
        elif node in direct:
            classes[node] = ConsumerClass.ACTIVE_DIRECT
            actives.add(node)
        elif node in in_tree:
            classes[node] = ConsumerClass.ACTIVE_INDIRECT
            actives.add(node)

    for node in g.node_ids:
        if node in classes:
            continue
        followees = g.out_neighbors(FOLLOW, node)
        if any(f in producers for f in followees):
            classes[node] = ConsumerClass.PASSIVE
        elif any(f in actives for f in followees):
            classes[node] = ConsumerClass.INVOLUNTARY
        else:
            classes[node] = ConsumerClass.UNEXPOSED
    return classes


@dataclass(frozen=True)
class ReachReport:
    class_counts: dict[str, int]
    flows: dict[str, dict[str, int]]
    amplification: float | None

    def as_dict(self) -> dict:
        return {"class_counts": dict(self.class_counts),
                "flows": {k: dict(v) for k, v in self.flows.items()},
                "amplification": self.amplification}


def reach_report(classes: dict[str, ConsumerClass],
                 trees: Sequence[DiffusionTree]) -> ReachReport:
    """Class cardinalities, reblog-action flows between classes, and the
    consumers-per-producer amplification ratio."""
    counts = Counter(c.value for c in classes.values())
    for cls in ConsumerClass:
        counts.setdefault(cls.value, 0)
    flows: dict[str, dict[str, int]] = {}
    for tree in trees:
        for par, child in tree.edges():
            src = classes[par].value if par in classes else "unknown"
            dst = classes[child].value if child in classes else "unknown"
            row = flows.setdefault(src, {})
            row[dst] = row.get(dst, 0) + 1
    consumers = (counts[ConsumerClass.ACTIVE_DIRECT.value]
                 + counts[ConsumerClass.ACTIVE_INDIRECT.value]
                 + counts[ConsumerClass.PASSIVE.value]
                 + counts[ConsumerClass.INVOLUNTARY.value])
    n_producers = counts[ConsumerClass.PRODUCER.value]
    amplification = consumers / n_producers if n_producers else None
    return ReachReport(class_counts=dict(counts), flows=flows,
                       amplification=amplification)


def spread_efficiency(U: set[str], trees: Sequence[DiffusionTree],
                      inverse: bool = False) -> float:
    """eta = r_r / (r_d * |U|): reblogs received from outside U on instances
    held by U, per reblog done by U, per member. inverse=True returns the
    reciprocal reading (reblogs done per received, size-weighted)."""
    if not U:
        raise ValueError("empty node set")
    r_d = 0
    r_r = 0
    for tree in trees:
        for par, child in tree.edges():
            if child in U:
                r_d += 1
            if par in U and child not in U:
                r_r += 1
    if r_d == 0:
        raise ValueError("set did no reblogging")
    eta = r_r / (r_d * len(U))
    if inverse:
        if r_r == 0:
            raise ValueError("set received no outside reblogs")
        return (r_d * len(U)) / r_r
    return eta


def write_classes_csv(classes: dict[str, ConsumerClass], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("node,class\n")
        for node in sorted(classes):
            fh.write(f"{node},{classes[node].value}\n")


def read_classes_csv(path: str) -> dict[str, ConsumerClass]:
    out: dict[str, ConsumerClass] = {}
    with open(path, encoding="utf-8") as fh:
        for i, line in enumerate(fh):
            line = line.strip()
            if not line or (i == 0 and line == "node,class"):
                continue
            node, sep, value = line.partition(",")
            if not sep:
                raise ValueError(f"bad class row: {line!r}")
            out[node] = ConsumerClass(value)
    return out
