"""Diffusion trees from reblog events, the consumer-class taxonomy, reach
flows between classes, and spreading efficiency."""

from __future__ import annotations

import enum
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .graph import FOLLOW, LayeredGraph
from .ingest import (
    _BATCH,
    _coded_rows,
    _csv_rows,
    _distinct,
    _encoded,
    _float_text,
    _ranked,
    _tsv_rows,
    _used,
    _write_lines,
    _write_rows,
)


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


class _CodedEvents:
    """A reblog event log encoded into arrays, in input order; its length
    is the number of events.

    `ids` holds every actor and source id in sorted order and `posts` every
    post id in sorted order, so ordering by code breaks ties the way sorting
    by id does. actor, source and post hold the codes, ts the timestamps.
    The constructor takes the columns coded into vocabularies of distinct
    names in any order; names no event uses are left out."""

    def __init__(self, ids: list[str], posts: list[str], actor: np.ndarray,
                 source: np.ndarray, post: np.ndarray, ts: np.ndarray):
        self.ids, node_rank = _ranked(ids, np.concatenate((actor, source)))
        self.posts, post_rank = _ranked(posts, post)
        self.actor, self.source, self.post = node_rank[actor], node_rank[source], post_rank[post]
        self.ts = ts

    def __len__(self) -> int:
        return len(self.ts)


def read_events_tsv(path: str, diagnostics: Counter | None = None) -> _CodedEvents:
    """actor<TAB>source<TAB>post_id<TAB>timestamp rows; self-reblogs, rows
    with an empty actor or source, a NaN timestamp or the wrong number of
    fields are dropped and tallied as malformed_events, and so are lines
    that are not valid UTF-8 (see `decoded_lines`).

    The file is read in chunks (see `ingest._coded_rows`) into codes into
    its distinct values; each distinct timestamp of the file is parsed
    once."""
    if diagnostics is None:
        diagnostics = Counter()
    codes, values = _coded_rows(path, 4, "malformed_events", diagnostics)
    stamps = np.full(len(values), np.nan)
    for i in _used(codes[:, 3], len(values)).tolist():
        try:
            stamps[i] = float(values[i])
        except ValueError:
            pass
    actor, source, ts = codes[:, 0], codes[:, 1], stamps[codes[:, 3]]
    bad = np.isnan(ts) | (actor == source)
    if "" in values:
        bad |= (actor == values.index("")) | (source == values.index(""))
    if bad.any():
        diagnostics["malformed_events"] += int(np.count_nonzero(bad))
        codes, ts = codes[~bad], ts[~bad]
    # the ids and posts share the file's vocabulary; _CodedEvents ranks the
    # ones each column uses
    return _CodedEvents(values, values, codes[:, 0], codes[:, 1], codes[:, 2], ts)


def write_events_tsv(events: _CodedEvents, path: str) -> None:
    """One actor, source, post, time row per event, written in slices of
    _BATCH rows, each slice's bytes joined from the encoded ids and posts
    (see `ingest._tsv_rows`); each distinct timestamp of a slice is
    formatted once, by `ingest._float_text`."""
    ids, posts = _encoded(events.ids, b"\t"), _encoded(events.posts, b"\t")

    def slices():
        for lo in range(0, len(events), _BATCH):
            rows = slice(lo, lo + _BATCH)
            # unique bit patterns, so 0.0 and -0.0 keep their own text
            bits, stamp = np.unique(events.ts[rows].view(np.int64), return_inverse=True)
            stamps = _encoded(map(_float_text, bits.view(np.float64).tolist()), b"\n")
            yield _tsv_rows([ids[events.actor[rows]], ids[events.source[rows]],
                             posts[events.post[rows]], stamps[stamp]])

    _write_lines(path, slices())


class DiffusionForest:
    """Every kept post's reblog tree, integer-coded, in post-id order; its
    length is the number of trees.

    Node codes index `ids`, the event log's actors and sources in sorted
    order, so code order is tie-break order. Appearance t is the root of
    tree t; the non-root appearances follow, ordered by tree and then by
    node. node[a] is the node at appearance a and parent[a] the appearance
    it hangs from, -1 at a root."""

    def __init__(self, events: _CodedEvents, producers: np.ndarray, diagnostics: Counter):
        self.ids = events.ids
        n, n_posts = max(len(self.ids), 1), len(events.posts)
        # each (post, actor)'s earliest event, ties to the earlier row; each
        # event-length temporary is freed once dead, and an array is narrowed
        # by rebinding, so that few of them are alive at once
        key = events.post * n + events.actor
        order = np.lexsort((events.ts, key))
        key = key[order]
        first = np.flatnonzero(np.diff(key, prepend=-1))
        source = events.source[order[first]]
        del order
        key = key[first]
        del first
        post = key // n
        # the source's own appearance in the post, if it has one
        want = post * n
        want += source
        del source
        up = np.searchsorted(key, want)
        np.minimum(up, max(len(key) - 1, 0), out=up)
        found = key[up] == want
        roots = _distinct(want[~found])
        del want
        actor = key % n
        del key
        n_roots = np.bincount(roots // n, minlength=n_posts)
        root_of = np.full(n_posts, -1, dtype=np.int64)
        root_of[roots // n] = roots % n
        # post ascends, so its run lengths restore it once the loop is done
        runs = np.bincount(post, minlength=n_posts)
        del post
        # pointer doubling: jump[w] ends at -1 iff w's chain reaches the root
        jump = np.where(found, up, -1)
        pending = np.flatnonzero(jump >= 0)
        while pending.size:
            hop = jump[jump[pending]]
            jump[pending] = hop
            settled = hop < 0
            del hop
            # every round settles some chain unless only cycles are left
            if not settled.any():
                break
            pending = pending[~settled]
        del pending
        post = np.repeat(np.arange(n_posts), runs)
        cyclic = np.bincount(post[jump >= 0], minlength=n_posts) > 0
        del jump
        for reason, skip in (("cyclic_posts", (n_roots == 0) | ((n_roots == 1) & cyclic)),
                             ("multi_origin_posts", n_roots > 1)):
            if skip.any():
                diagnostics[reason] += int(np.count_nonzero(skip))
        keep = (n_roots == 1) & ~cyclic
        keep[keep] = producers[root_of[keep]]
        tree_posts = np.flatnonzero(keep)
        n_trees = len(tree_posts)
        tree_of = np.full(n_posts, -1, dtype=np.int64)
        tree_of[tree_posts] = np.arange(n_trees)
        # kept events, in order, become the appearances after the roots: a
        # kept event's is n_trees plus its index less the events of the
        # dropped posts up to its own
        up -= np.cumsum(np.where(keep, 0, runs))[post]
        up += n_trees
        below = np.flatnonzero(keep[post])
        up = up[below]
        post = post[below]
        inner = found[below]
        del found
        size = n_trees + len(below)
        self.parent = np.full(size, -1, dtype=np.int64)
        hang = self.parent[n_trees:]
        # mode "clip" (the indices are in range) writes to out unbuffered
        np.take(tree_of, post, out=hang, mode="clip")
        del post
        # an appearance whose source appears in the post hangs from it
        hang[inner] = up[inner]
        del up
        self.node = np.empty(size, dtype=np.int64)
        self.node[:n_trees] = root_of[tree_posts]
        np.take(actor, below, out=self.node[n_trees:], mode="clip")

    @property
    def n_nodes(self) -> int:
        return len(self.ids)

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Node codes of (parent, child) for every tree edge."""
        below = self.parent >= 0
        return self.node[self.parent[below]], self.node[below]

    def __len__(self) -> int:
        return int(np.count_nonzero(self.parent < 0))


def build_trees(events: _CodedEvents, producers: np.ndarray,
                diagnostics: Counter | None = None) -> DiffusionForest:
    """Resolve per-post reblog chains into trees; only posts rooted at a
    producer, masked in `producers` over `events.ids`, yield trees. Repeat
    reblogs by the same actor keep the earliest event, ties going to the
    earlier row. A post whose chain has a cycle or more
    than one origin is skipped and tallied as cyclic_posts or
    multi_origin_posts."""
    if diagnostics is None:
        diagnostics = Counter()
    return DiffusionForest(events, producers, diagnostics)


_CLASSES = tuple(ConsumerClass)
_RANK = {cls: i for i, cls in enumerate(_CLASSES)}


def classify_nodes(g: LayeredGraph, forest: DiffusionForest, at: np.ndarray,
                   producers: np.ndarray, bridges: np.ndarray) -> np.ndarray:
    """Each graph node's class code, its position in ConsumerClass; `at` is
    each forest node's graph code (-1 outside g), and the role masks are g's.

    Precedence: producer > bridge > active-direct (reblogged a producer's
    instance) > active-indirect (in a tree otherwise) > passive (follows a
    producer, in no tree) > involuntary (follows an active consumer only)
    > unexposed.
    """
    above, below = forest.edges()
    is_producer = np.zeros(forest.n_nodes, dtype=bool)
    is_producer[at >= 0] = producers[at[at >= 0]]
    # set in reverse precedence order (the enum's), so the first class wins
    code = np.full(g.n_nodes, _RANK[ConsumerClass.UNEXPOSED], dtype=np.int64)
    for cls, members in ((ConsumerClass.ACTIVE_INDIRECT, forest.node),
                         (ConsumerClass.ACTIVE_DIRECT, below[is_producer[above]])):
        hit = at[members]
        code[hit[hit >= 0]] = _RANK[cls]
    code[bridges] = _RANK[ConsumerClass.BRIDGE]
    code[producers] = _RANK[ConsumerClass.PRODUCER]

    follow = g.layer(FOLLOW)

    def follows(mask: np.ndarray) -> np.ndarray:
        return np.bincount(follow.src[mask[follow.dst]], minlength=g.n_nodes) > 0

    rest = code == _RANK[ConsumerClass.UNEXPOSED]
    passive = rest & follows(code == _RANK[ConsumerClass.PRODUCER])
    involuntary = rest & follows(class_mask(code, (ConsumerClass.ACTIVE_DIRECT,
                                                   ConsumerClass.ACTIVE_INDIRECT)))
    code[involuntary] = _RANK[ConsumerClass.INVOLUNTARY]
    code[passive] = _RANK[ConsumerClass.PASSIVE]
    return code


def class_mask(classes: np.ndarray, members: Iterable[ConsumerClass]) -> np.ndarray:
    """Mask of the nodes whose class code is that of one of `members`."""
    return np.isin(classes, [_RANK[cls] for cls in members])


@dataclass(frozen=True)
class ReachReport:
    class_counts: dict[str, int]
    flows: dict[str, dict[str, int]]
    amplification: float | None


def reach_report(classes: np.ndarray, forest: DiffusionForest, at: np.ndarray) -> ReachReport:
    """Class cardinalities, reblog-action flows between classes, and the
    consumers-per-producer amplification ratio; `at` is each forest node's
    graph code, -1 (its flows "unknown") outside the graph."""
    names = [cls.value for cls in _CLASSES] + ["unknown"]
    counts = dict(zip(names, np.bincount(classes, minlength=len(_CLASSES)).tolist()))
    kind = np.full(len(at), len(_CLASSES))
    kind[at >= 0] = classes[at[at >= 0]]
    above, below = forest.edges()
    pairs = np.bincount(kind[above] * len(names) + kind[below], minlength=len(names) ** 2)
    flows: dict[str, dict[str, int]] = {}
    for pair in np.flatnonzero(pairs).tolist():
        src, dst = divmod(pair, len(names))
        flows.setdefault(names[src], {})[names[dst]] = int(pairs[pair])
    consumers = int(np.count_nonzero(class_mask(classes, (
        ConsumerClass.ACTIVE_DIRECT, ConsumerClass.ACTIVE_INDIRECT,
        ConsumerClass.PASSIVE, ConsumerClass.INVOLUNTARY))))
    n_producers = counts[ConsumerClass.PRODUCER.value]
    amplification = consumers / n_producers if n_producers else None
    return ReachReport(class_counts=counts, flows=flows, amplification=amplification)


def spread_efficiency(inside: np.ndarray, size: int, forest: DiffusionForest,
                      inverse: bool = False) -> float:
    """eta = r_r / (r_d * |U|) for a set U of `size` nodes, those in the
    forest masked in `inside`: reblogs received from outside U on instances
    held by U, per reblog done by U, per member. inverse=True returns the
    reciprocal reading (reblogs done per received, size-weighted)."""
    if not size:
        raise ValueError("empty node set")
    above, below = forest.edges()
    r_d = int(np.count_nonzero(inside[below]))
    r_r = int(np.count_nonzero(inside[above] & ~inside[below]))
    if r_d == 0:
        raise ValueError("set did no reblogging")
    eta = r_r / (r_d * size)
    if inverse:
        if r_r == 0:
            raise ValueError("set received no outside reblogs")
        return (r_d * size) / r_r
    return eta


def write_classes_csv(ids: Sequence[str], classes: np.ndarray, path: str) -> None:
    _write_rows(path, "node,class", sorted(zip(ids, [_CLASSES[c].value for c in classes.tolist()])))


def read_classes_csv(path: str, diagnostics: Counter | None = None) -> dict[str, ConsumerClass]:
    """node,class rows (see `_csv_rows`); a row with an unknown class is
    skipped and counted as malformed_rows."""
    return dict(_csv_rows(path, "node,class", "malformed_rows",
                          lambda node, value: (node, ConsumerClass(value)), diagnostics))
