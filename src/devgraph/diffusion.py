"""Diffusion trees from reblog events, the consumer-class taxonomy, reach
flows between classes, and spreading efficiency."""

from __future__ import annotations

import enum
import itertools
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .graph import FOLLOW, LayeredGraph
from .ingest import decoded_lines


@dataclass(frozen=True)
class ReblogEvent:
    actor: str
    source: str
    post_id: str
    timestamp: float


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


class _CodedEvents(Sequence):
    """A reblog event log encoded once into arrays; as a sequence it is
    still the events it was built from, in input order.

    `ids` holds every actor and source id in sorted order and `posts` every
    post id in sorted order, so ordering by code breaks ties the way sorting
    by id does. actor, source and post hold the codes, ts the timestamps."""

    def __init__(self, chunks: Iterable[tuple[list[str], list[str], list[str], np.ndarray]]):
        node_code: dict[str, int] = {}
        post_code: dict[str, int] = {}

        def coded(code: dict[str, int], names: list[str]) -> np.ndarray:
            return np.fromiter(map(code.__getitem__, names), dtype=np.int64, count=len(names))

        columns: list[list[np.ndarray]] = [[np.empty(0, dtype=np.int64)] for _ in range(3)]
        times = [np.empty(0, dtype=np.float64)]
        for actors, sources, posts, ts in chunks:
            # codes in first-seen order for now, ranked once all are seen
            for code, names in ((node_code, itertools.chain(actors, sources)), (post_code, posts)):
                new = dict.fromkeys(names).keys() - code.keys()
                code.update(zip(new, itertools.count(len(code))))
            for column, code, names in zip(columns, (node_code, node_code, post_code),
                                           (actors, sources, posts)):
                column.append(coded(code, names))
            times.append(ts)
            del actors, sources, posts, ts
        self.ids, self.posts = sorted(node_code), sorted(post_code)
        node_rank = np.empty(len(self.ids), dtype=np.int64)
        node_rank[coded(node_code, self.ids)] = np.arange(len(self.ids))
        post_rank = np.empty(len(self.posts), dtype=np.int64)
        post_rank[coded(post_code, self.posts)] = np.arange(len(self.posts))
        self.actor, self.source, self.post = (
            rank[np.concatenate(column)]
            for rank, column in zip((node_rank, node_rank, post_rank), columns))
        self.ts = np.concatenate(times)

    @classmethod
    def of(cls, events: Iterable[ReblogEvent]) -> _CodedEvents:
        if isinstance(events, cls):
            return events
        events = list(events)
        return cls([([e.actor for e in events], [e.source for e in events],
                     [e.post_id for e in events],
                     np.array([e.timestamp for e in events], dtype=np.float64))])

    def __len__(self) -> int:
        return len(self.ts)

    def __getitem__(self, i: int) -> ReblogEvent:
        return ReblogEvent(self.ids[self.actor[i]], self.ids[self.source[i]],
                           self.posts[self.post[i]], float(self.ts[i]))


# lines parsed at a time: about 1 MB of a typical events file
_BATCH = 1 << 15


def read_events_tsv(path: str, diagnostics: Counter | None = None) -> _CodedEvents:
    """actor<TAB>source<TAB>post_id<TAB>timestamp rows; self-reblogs, rows
    with an empty actor or source, a NaN timestamp or the wrong number of
    fields are dropped and tallied as malformed_events, and so are lines
    that are not valid UTF-8 (see `decoded_lines`)."""
    if diagnostics is None:
        diagnostics = Counter()
    lines = decoded_lines(path, diagnostics)
    batches = iter(lambda: list(itertools.islice(lines, _BATCH)), [])
    return _CodedEvents(_parse_events(batch, diagnostics) for batch in batches)


def _parse_events(lines: list[str], diagnostics: Counter):
    """The columns of a batch of lines, split and parsed in bulk; a batch
    with any malformed row is parsed line by line instead, which keeps the
    rows in order and counts each malformed one."""
    if set(map(str.count, lines, itertools.repeat("\t"))) == {3}:
        fields = "\t".join(lines).split("\t")
        actors, sources = fields[0::4], fields[1::4]
        try:
            ts = np.fromiter(map(float, fields[3::4]), dtype=np.float64, count=len(lines))
        except ValueError:
            ts = None
        if (ts is not None and not np.isnan(ts).any() and "" not in actors
                and "" not in sources and not any(map(str.__eq__, actors, sources))):
            return actors, sources, fields[2::4], ts
    rows: list[tuple[str, str, str, float]] = []
    for line in lines:
        try:
            actor, source, post_id, ts_text = line.split("\t")
            t = float(ts_text)
        except ValueError:
            diagnostics["malformed_events"] += 1
            continue
        if t != t or not actor or not source or actor == source:
            diagnostics["malformed_events"] += 1
            continue
        rows.append((actor, source, post_id, t))
    actors, sources, posts, ts = (list(col) for col in zip(*rows)) if rows else ([], [], [], [])
    return actors, sources, posts, np.array(ts, dtype=np.float64)


def write_events_tsv(events: Iterable[ReblogEvent], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for ev in events:
            fh.write(f"{ev.actor}\t{ev.source}\t{ev.post_id}\t{ev.timestamp:g}\n")


class DiffusionForest:
    """Every kept post's reblog tree, integer-coded, in post-id order; its
    length is the number of trees.

    Node codes index `ids`, the event log's actors and sources in sorted
    order, so code order is tie-break order. Appearance t is the root of
    tree t; the non-root appearances follow, ordered by tree and then by
    node. node[a] is the node at appearance a and parent[a] the appearance
    it hangs from, -1 at a root."""

    def __init__(self, events: _CodedEvents, producers: set[str], diagnostics: Counter):
        self.ids = events.ids
        self.index = {n: i for i, n in enumerate(self.ids)}
        n, n_posts = max(len(self.ids), 1), len(events.posts)
        # each (post, actor)'s earliest event, ties to the earlier row
        key = events.post * n + events.actor
        order = np.lexsort((events.ts, key))
        key = key[order]
        first = np.flatnonzero(np.diff(key, prepend=-1))
        key, source = key[first], events.source[order[first]]
        post, actor = np.divmod(key, n)
        # the source's own appearance in the post, if it has one
        want = post * n + source
        up = np.minimum(np.searchsorted(key, want), max(len(key) - 1, 0))
        found = key[up] == want
        roots = np.unique(want[~found])
        n_roots = np.bincount(roots // n, minlength=n_posts)
        root_of = np.full(n_posts, -1, dtype=np.int64)
        root_of[roots // n] = roots % n
        # pointer doubling: jump[w] ends at -1 iff w's chain reaches the root
        jump = np.where(found, up, -1)
        pending = np.flatnonzero(jump >= 0)
        while pending.size:
            jump[pending] = jump[jump[pending]]
            left = pending[jump[pending] >= 0]
            # every round settles some chain unless only cycles are left
            if left.size == pending.size:
                break
            pending = left
        cyclic = np.bincount(post[jump >= 0], minlength=n_posts) > 0
        for reason, skip in (("cyclic_posts", (n_roots == 0) | ((n_roots == 1) & cyclic)),
                             ("multi_origin_posts", n_roots > 1)):
            if skip.any():
                diagnostics[reason] += int(np.count_nonzero(skip))
        is_producer = np.fromiter((x in producers for x in self.ids), dtype=bool,
                                  count=len(self.ids))
        keep = (n_roots == 1) & ~cyclic
        keep[keep] = is_producer[root_of[keep]]
        tree_posts = np.flatnonzero(keep)
        n_trees = len(tree_posts)
        tree_of = np.full(n_posts, -1, dtype=np.int64)
        tree_of[tree_posts] = np.arange(n_trees)
        below = np.flatnonzero(keep[post])
        app = np.full(len(post), -1, dtype=np.int64)
        app[below] = n_trees + np.arange(len(below))
        hang = tree_of[post[below]]
        inner = found[below]
        hang[inner] = app[up[below][inner]]
        self.node = np.concatenate((root_of[tree_posts], actor[below]))
        self.parent = np.concatenate((np.full(n_trees, -1, dtype=np.int64), hang))

    @property
    def n_nodes(self) -> int:
        return len(self.ids)

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Node codes of (parent, child) for every tree edge."""
        below = self.parent >= 0
        return self.node[self.parent[below]], self.node[below]

    def __len__(self) -> int:
        return int(np.count_nonzero(self.parent < 0))


def build_trees(events: Iterable[ReblogEvent], producers: set[str],
                diagnostics: Counter | None = None) -> DiffusionForest:
    """Resolve per-post reblog chains into trees; only producer-rooted posts
    yield trees. Repeat reblogs by the same actor keep the earliest event,
    ties going to the earlier row. A post whose chain has a cycle or more
    than one origin is skipped and tallied as cyclic_posts or
    multi_origin_posts."""
    if diagnostics is None:
        diagnostics = Counter()
    return DiffusionForest(_CodedEvents.of(events), producers, diagnostics)


_CLASSES = tuple(ConsumerClass)
_RANK = {cls: i for i, cls in enumerate(_CLASSES)}


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


@dataclass(frozen=True)
class ReachReport:
    class_counts: dict[str, int]
    flows: dict[str, dict[str, int]]
    amplification: float | None

    def as_dict(self) -> dict:
        return {"class_counts": dict(self.class_counts),
                "flows": {k: dict(v) for k, v in self.flows.items()},
                "amplification": self.amplification}


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


def write_classes_csv(classes: dict[str, ConsumerClass], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("node,class\n")
        for node in sorted(classes):
            fh.write(f"{node},{classes[node].value}\n")


def read_classes_csv(path: str, diagnostics: Counter | None = None) -> dict[str, ConsumerClass]:
    """node,class rows; a row without a comma or with an unknown class is
    skipped and counted as malformed_rows, and a line that is not valid
    UTF-8 as undecodable_lines (see `decoded_lines`)."""
    if diagnostics is None:
        diagnostics = Counter()
    out: dict[str, ConsumerClass] = {}
    for line in decoded_lines(path, diagnostics, header="node,class"):
        node, _, value = line.partition(",")
        try:
            out[node] = ConsumerClass(value)
        except ValueError:
            diagnostics["malformed_rows"] += 1
    return out
