"""The array-coded event log and forest against the list-based reader,
tree builder and tree-walking consumers they replaced, kept here verbatim
as oracles.

Hypothesis writes random event logs (repeat reblogs, timestamp ties with
0.0 against -0.0 and inf, cycles, several origins, empty fields,
self-reblogs, bad bytes, CR and CRLF line ends, rows of 3 or 5 fields) and
checks that the coded reader yields the same events and counters, that the
forest holds the same trees (root, parents, depths, children, in post
order, rebuilt from its arrays by `tree_helpers.trees_of`) and counters,
and that every consumer gives the same result. The one intended
difference: the old reader kept NaN timestamps, which made trees depend on
row order; they are now skipped and counted as malformed_events.

The column-wise `write_events_tsv` is checked byte for byte against the
row-by-row f-string writer it replaced, with each timestamp written by
`log_helpers.stamp_text`: `%g` where it reads back exactly, `repr` where
it would round.
"""

import itertools
import math
from collections import Counter
from collections.abc import Iterable, Sequence

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from devgraph import diffusion, ingest, intervention
from devgraph.diffusion import (
    ConsumerClass,
    ReachReport,
    bridge_nodes,
    producer_nodes,
)
from devgraph.graph import FOLLOW, LayeredGraph, build_graph
from devgraph.ingest import decoded_lines
from devgraph.synth import SynthConfig, planted_graph, synth_events

import id_helpers as ids
from id_helpers import graph_edges
from log_helpers import ReblogEvent, coded_events, event_rows, stamp_text
from tree_helpers import DiffusionTree, forest_of, trees_of
from test_intervention_oracle import (
    oracle_adaptive_greedy_ranking,
    oracle_shrinkage_curve,
    oracle_underage_exposure_threshold,
    outcome,
)

# -- the tree-walking implementation, verbatim ------------------------------------------


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


def write_events_tsv(events, path: str) -> None:
    ids, posts = events.ids, events.posts
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"{ids[a]}\t{ids[s]}\t{posts[p]}\t{stamp_text(t)}\n"
                      for a, s, p, t in zip(events.actor.tolist(), events.source.tolist(),
                                            events.post.tolist(), events.ts.tolist()))


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
            trees.append(DiffusionTree(root=root, parent=parent, depth=depth,
                                       children=children))
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

    follows: dict[str, list[str]] = {node: [] for node in g.node_ids}
    for src, dst, _ in graph_edges(g, FOLLOW):
        follows[src].append(dst)
    for node in g.node_ids:
        if node in classes:
            continue
        followees = follows[node]
        if any(f in producers for f in followees):
            classes[node] = ConsumerClass.PASSIVE
        elif any(f in actives for f in followees):
            classes[node] = ConsumerClass.INVOLUNTARY
        else:
            classes[node] = ConsumerClass.UNEXPOSED
    return classes


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



def rank_by_volume(trees: Sequence[DiffusionTree]) -> list[str]:
    """Roots and spreaders ordered by how many distinct blogs sit strictly
    below them across all trees; ties break by node id."""
    reach: dict[str, set[str]] = {}
    candidates: set[str] = set()
    for tree in trees:
        candidates.add(tree.root)
        candidates.update(tree.parent.values())
        for node in tree.parent:
            cur = tree.parent[node]
            while True:
                reach.setdefault(cur, set()).add(node)
                if cur == tree.root:
                    break
                cur = tree.parent[cur]
    return sorted(candidates, key=lambda n: (-len(reach.get(n, ())), n))


_NEVER = np.iinfo(np.int64).max


class _Forest:
    """Every tree appearance of every node, integer-coded.

    Nodes are indexed in sorted id order, so index order is tie-break order.
    Appearance t is the root of trees[t]; the non-root appearances follow,
    tree by tree, in the order of each tree's `children`.
    parent[a] is the appearance a hangs from, -1 at a root."""

    def __init__(self, trees: Sequence[DiffusionTree]):
        roots = [tree.root for tree in trees]
        kids: list[str] = []
        above: list[str] = []
        fan: list[int] = []
        ends: list[int] = []
        for tree in trees:
            kids.extend(itertools.chain.from_iterable(tree.children.values()))
            above.extend(tree.children)
            fan.extend(map(len, tree.children.values()))
            ends.append(len(kids))
        self.ids = sorted(set(roots).union(kids))
        self.index = {n: i for i, n in enumerate(self.ids)}
        code = self.index.__getitem__
        self.node = np.fromiter(map(code, itertools.chain(roots, kids)),
                                dtype=np.int64, count=len(roots) + len(kids))
        up = np.repeat(np.fromiter(map(code, above), dtype=np.int64, count=len(above)),
                       np.array(fan, dtype=np.int64))
        tree_of = np.arange(len(trees))
        sizes = np.diff(np.array(ends, dtype=np.int64), prepend=0)
        tree_of = np.concatenate((tree_of, np.repeat(tree_of, sizes)))
        # a node appears at most once per tree, so (tree, node) keys are unique
        key = tree_of * len(self.ids) + self.node
        order = np.argsort(key)
        hang = order[np.searchsorted(key[order], tree_of[len(trees):] * len(self.ids) + up)]
        self.parent = np.concatenate((np.full(len(trees), -1), hang))

    @property
    def n_nodes(self) -> int:
        return len(self.ids)

    def candidates(self) -> np.ndarray:
        """Mask of roots and internal nodes, the removable posters."""
        mask = np.zeros(self.n_nodes, dtype=bool)
        mask[self.node[self.parent == -1]] = True
        mask[self.node[self.parent[self.parent >= 0]]] = True
        return mask

    def death_rank(self, ranking: Sequence[str]) -> np.ndarray:
        """D(n) per node: the largest, over n's non-root appearances, of the
        smallest ranking position on the root path (root and n included).
        Erasing ranking[:k] leaves n reached iff D(n) >= k. Unranked nodes
        sit at position _NEVER; duplicates keep their first position; nodes
        with no non-root appearance get -1."""
        pos = np.full(self.n_nodes, _NEVER, dtype=np.int64)
        for i in range(len(ranking) - 1, -1, -1):
            j = self.index.get(ranking[i])
            if j is not None:
                pos[j] = i
        # pointer doubling: least[a] covers ever more of a's root path
        least = pos[self.node]
        jump = self.parent.copy()
        while (has := np.flatnonzero(jump >= 0)).size:
            least[has] = np.minimum(least[has], least[jump[has]])
            jump[has] = jump[jump[has]]
        death = np.full(self.n_nodes, -1, dtype=np.int64)
        below = self.parent >= 0
        np.maximum.at(death, self.node[below], least[below])
        return death




# -- random event logs ------------------------------------------------------

# ids of mixed length, so string order differs from numeric order; "" is an
# empty field and "é" a valid non-ASCII id
POOL = ["n0", "n1", "n2", "n3", "n10", "n11", "n100", "p", "q", "é"]
POSTS = ["p0", "p1", "p2", "p10", ""]
STAMPS = [0.0, -0.0, 1.0, 2.0, 1e16, math.inf, -math.inf]
STAMP_TEXTS = ["0", "-0.0", "1", "1.0", "2", "1e16", "inf", "-inf", " 3 ", "1_0",
               "nan", "NaN", "x", ""]


@st.composite
def cascades(draw, stamps=st.sampled_from(STAMPS)):
    """Events of a few rooted cascades, so that most posts make trees, plus
    rows that repeat actors, close cycles, add origins, reblog oneself or
    leave a field empty."""
    events = []
    for post in draw(st.lists(st.sampled_from(POSTS), max_size=4, unique=True)):
        placed = [draw(st.sampled_from(POOL))]
        for member in draw(st.lists(st.sampled_from(POOL), max_size=7, unique=True)):
            if member not in placed:
                src = placed[draw(st.integers(0, len(placed) - 1))]
                events.append(ReblogEvent(member, src, post, draw(stamps)))
                placed.append(member)
    noise = st.builds(ReblogEvent, st.sampled_from(POOL + [""]), st.sampled_from(POOL + [""]),
                      st.sampled_from(POSTS), stamps)
    events += draw(st.lists(noise, max_size=6))
    return draw(st.permutations(events))


@st.composite
def event_files(draw):
    """The bytes of an events file: cascade rows with any of the timestamp
    spellings, some with 3 or 5 fields, a bad byte or a blank line, ended by
    LF, CRLF or CR."""
    out = []
    for ev in draw(cascades()):
        fields = [ev.actor, ev.source, ev.post_id, draw(st.sampled_from(STAMP_TEXTS))]
        width = draw(st.sampled_from([4] * 8 + [3, 5]))
        line = "\t".join((fields + ["extra"])[:width]).encode("utf-8")
        if draw(st.integers(0, 9)) == 0:
            cut = draw(st.integers(0, len(line)))
            line = line[:cut] + b"\xff" + line[cut:]
        out.append(line + draw(st.sampled_from([b"\n"] * 4 + [b"\r\n", b"\r", b"\n\n"])))
    return b"".join(out)


producer_sets = st.sets(st.sampled_from(POOL), max_size=5)


def shape(trees) -> list[tuple]:
    return [(t.root, t.parent, t.depth, t.children) for t in trees]


def exact(events) -> list[tuple]:
    """Events with their timestamps' signs and spellings told apart."""
    return [(e.actor, e.source, e.post_id, repr(e.timestamp)) for e in events]


def nonzero(counter: Counter) -> dict:
    return {k: v for k, v in counter.items() if v}


def read_both(data: bytes, batch: int):
    """(the old reader's events with NaN rows dropped, its counters with them
    counted as malformed_events), and the coded reader's events and
    counters, read in chunks of about `batch` bytes."""
    import tempfile
    from pathlib import Path
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "events.tsv")
        Path(path).write_bytes(data)
        old_diag, new_diag = Counter(), Counter()
        old = read_events_tsv(path, old_diag)
        saved, ingest._CHUNK = ingest._CHUNK, batch
        try:
            new = diffusion.read_events_tsv(path, new_diag)
        finally:
            ingest._CHUNK = saved
    kept = [e for e in old if not math.isnan(e.timestamp)]
    old_diag["malformed_events"] += len(old) - len(kept)
    return (kept, old_diag), (new, new_diag)


@settings(max_examples=300, deadline=None)
@given(event_files(), st.integers(1, 5), producer_sets)
def test_reader_and_trees_match_oracle(data, batch, producers):
    (old, old_diag), (new, new_diag) = read_both(data, batch)
    assert exact(event_rows(new)) == exact(old)
    assert len(new) == len(old)
    assert dict(new_diag) == nonzero(old_diag)
    old_diag, new_diag = Counter(), Counter()
    old_trees = build_trees(old, producers, old_diag)
    new_trees = ids.build_trees(new, producers, new_diag)
    assert shape(trees_of(new_trees)) == shape(old_trees)
    assert len(new_trees) == len(old_trees)
    assert dict(new_diag) == nonzero(old_diag)


@settings(max_examples=300, deadline=None)
@given(cascades(), producer_sets)
def test_trees_of_event_lists_match_oracle(events, producers):
    """build_trees on events given directly, self-reblogs and empty fields
    included, as `pipeline` passes the synthesized ones."""
    old_diag, new_diag = Counter(), Counter()
    old = build_trees(events, producers, old_diag)
    new = ids.build_trees(coded_events(events), producers, new_diag)
    assert shape(trees_of(new)) == shape(old)
    assert dict(new_diag) == nonzero(old_diag)


def consumers_agree(g: LayeredGraph, roles: dict[str, str], old: list, new, node_sets,
                    rankings):
    old_classes = classify_nodes(g, old, roles)
    new_classes = ids.classify_nodes(g, new, roles)
    assert list(new_classes.items()) == list(old_classes.items())
    assert ids.reach_report(new_classes, new) == reach_report(old_classes, old)
    for U, inverse in itertools.product(node_sets, (False, True)):
        assert outcome(ids.spread_efficiency, U, new, inverse) \
            == outcome(spread_efficiency, U, old, inverse)
    volume = ids.rank_by_volume(new)
    assert volume == rank_by_volume(old)
    candidates = intervention._candidates(new)
    for ranking in [volume, volume[::-1], *rankings]:
        old_forest = _Forest(old)
        old_death = dict(zip(old_forest.ids, old_forest.death_rank(ranking).tolist()))
        new_death = intervention._death_rank(new, ids.ranking_codes(new, ranking)).tolist()
        assert {x: d for x, d in zip(new.ids, new_death) if x in old_death
                or d != -1} == old_death
        assert {new.ids[i] for i in np.flatnonzero(candidates)} \
            == {old_forest.ids[i] for i in np.flatnonzero(old_forest.candidates())}
        sizes = [0, 1, 2, 5, len(ranking), len(ranking) + 3]
        assert outcome(ids.shrinkage_curve, new, ranking, sizes) \
            == outcome(oracle_shrinkage_curve, old, ranking, sizes)
        ages = {x: 17 for x in ranking[::3]}
        assert outcome(ids.underage_exposure_threshold, new, ranking, ages) \
            == outcome(oracle_underage_exposure_threshold, old, ranking, ages)
    assert ids.adaptive_greedy_ranking(new, 6) \
        == oracle_adaptive_greedy_ranking(old, 6)


ROLES = ["producer_one", "Producer_two", "bridge_one", "outer"]


@settings(max_examples=200, deadline=None)
@given(event_files(), st.sets(st.sampled_from(POOL), min_size=3),
       st.dictionaries(st.sampled_from(POOL + ["x1", "x2"]), st.sampled_from(ROLES)),
       st.lists(st.tuples(st.sampled_from(POOL + ["x1", "x2"]),
                          st.sampled_from(POOL + ["x1", "x2"])), max_size=25),
       st.lists(st.sets(st.sampled_from(POOL + ["x1"]), max_size=4), max_size=3),
       st.lists(st.lists(st.sampled_from(POOL + ["x1"]), max_size=8), max_size=2))
def test_consumers_match_oracle(data, producers, roles, follows, node_sets, rankings):
    # most roots are producers, so that most posts make trees
    roles = {**roles, **{x: "producer_one" for x in producers}}
    (old_events, _), (new_events, _) = read_both(data, 3)
    producers = producer_nodes(roles)
    old = build_trees(old_events, producers)
    new = ids.build_trees(new_events, producers)
    g = build_graph([(u, v, 1.0, FOLLOW) for u, v in follows]
                    + [(x, x, 1.0, FOLLOW) for x in sorted(roles)])
    consumers_agree(g, roles, old, new, node_sets, rankings)
    # and on the forest that the test helper builds from the oracle's trees
    rebuilt = forest_of(old)
    assert shape(trees_of(rebuilt)) == shape(old)
    assert ids.classify_nodes(g, rebuilt, roles) == classify_nodes(g, old, roles)
    assert ids.rank_by_volume(rebuilt) == rank_by_volume(old)


def test_consumers_match_oracle_on_default_fixture():
    cfg = SynthConfig(seed=11)
    g, roles = planted_graph(cfg)
    events = synth_events(cfg, g, roles)
    producers = producer_nodes(roles)
    old, new = build_trees(event_rows(events), producers), ids.build_trees(events, producers)
    assert len(new) == len(old) == 120
    assert shape(trees_of(new)) == shape(old)
    ranking = sorted(new.ids, reverse=True)[:40]
    consumers_agree(g, roles, old, new, [producers, bridge_nodes(roles), {ranking[0]}],
                    [ranking])


# -- the reader on arbitrary bytes --------------------------------------------

ATOMS = [b"a", b"b", b"\t", b"\n", b"\r", b"\r\n", b"\xff", b"\xc3\xa9", b"\xc3", b"1",
         b"-0", b"nan", b"inf", b" ", b"\x85", b"\xe2\x80\xa8"]


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.binary(max_size=200),
                 st.lists(st.sampled_from(ATOMS), max_size=80).map(b"".join)),
       st.integers(1, 4))
def test_reader_accounts_for_every_line(data, batch):
    (_, _), (events, diagnostics) = read_both(data, batch)
    # a leading byte order mark is skipped and counted, and starts no line
    bom = data.startswith(b"\xef\xbb\xbf")
    text = data[3 * bom:].decode("utf-8", "surrogateescape")
    lines = sum(1 for line in text.replace("\r\n", "\n").replace("\r", "\n").split("\n") if line)
    assert set(diagnostics) <= {"malformed_events", "undecodable_lines", "byte_order_mark"}
    assert diagnostics["byte_order_mark"] == bom
    assert len(events) + diagnostics["malformed_events"] \
        + diagnostics["undecodable_lines"] == lines
    assert all(not math.isnan(e.timestamp) and e.actor and e.source and e.actor != e.source
               for e in event_rows(events))


# -- the events writer ----------------------------------------------------------

# timestamps whose text tells signs, exponents and rounding apart, and
# some that %g would round
WRITE_STAMPS = STAMPS + [math.nan, 0.1, 1 / 3, 1e-7, 123456.5, 1234567.0, 2.0**60, -1e300]


def written(writer, events) -> bytes:
    import tempfile
    from pathlib import Path
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "events.tsv")
        writer(events, path)
        return Path(path).read_bytes()


@settings(max_examples=200, deadline=None)
@given(cascades(st.sampled_from(WRITE_STAMPS)))
def test_events_writer_matches_oracle(events):
    coded = coded_events(events)
    assert written(diffusion.write_events_tsv, coded) == written(write_events_tsv, coded)


def test_events_writer_matches_oracle_on_default_fixture():
    cfg = SynthConfig(seed=11)
    g, roles = planted_graph(cfg)
    events = synth_events(cfg, g, roles)
    assert written(diffusion.write_events_tsv, events) == written(write_events_tsv, events)


@settings(max_examples=200, deadline=None)
@given(cascades(st.sampled_from(WRITE_STAMPS)), st.integers(1, 4))
def test_events_writer_matches_oracle_in_small_slices(events, batch):
    """Slices of a few rows, so that rows and timestamps meet slice ends."""
    coded = coded_events(events)
    saved, diffusion._BATCH = diffusion._BATCH, batch
    try:
        got = written(diffusion.write_events_tsv, coded)
    finally:
        diffusion._BATCH = saved
    assert got == written(write_events_tsv, coded)
