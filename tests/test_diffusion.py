"""Diffusion tree construction, consumer classification, reach, efficiency."""

import itertools
import random
from collections import Counter

import pytest

from devgraph.diffusion import (
    ConsumerClass,
    ReblogEvent,
    build_trees,
    classify_nodes,
    producer_nodes,
    reach_report,
    read_events_tsv,
    spread_efficiency,
    write_events_tsv,
)
from devgraph.graph import FOLLOW, build_graph

from tree_helpers import trees_of


def F(u, v):
    return (u, v, 1.0, FOLLOW)


def ev(actor, source, post="p1", ts=0.0):
    return ReblogEvent(actor, source, post, ts)


class TestBuildTrees:
    def test_chain_depths(self):
        trees = trees_of(build_trees([ev("a", "p", ts=1), ev("b", "a", ts=2)], {"p"}))
        assert len(trees) == 1
        t = trees[0]
        assert t.root == "p"
        assert t.depth == {"p": 0, "a": 1, "b": 2}
        assert t.parent == {"a": "p", "b": "a"}

    def test_no_events(self):
        assert trees_of(build_trees([], {"p"})) == []

    def test_non_producer_root_excluded(self):
        assert trees_of(build_trees([ev("a", "q", ts=1)], {"p"})) == []

    def test_multiple_posts_sorted(self):
        events = [ev("a", "p", post="z", ts=1), ev("b", "p", post="m", ts=1)]
        trees = trees_of(build_trees(events, {"p"}))
        assert [(t.root, t.parent) for t in trees] == [("p", {"b": "p"}), ("p", {"a": "p"})]

    def test_cyclic_posts_skipped_and_counted(self):
        events = [ev("a", "b", post="bad", ts=1), ev("b", "a", post="bad", ts=2),
                  # a rooted chain with a detached cycle beside it
                  ev("x", "p", post="loop", ts=1), ev("y", "z", post="loop", ts=2),
                  ev("z", "y", post="loop", ts=3),
                  ev("c", "p", post="good", ts=1)]
        diagnostics = Counter()
        trees = trees_of(build_trees(events, {"a", "p"}, diagnostics=diagnostics))
        assert [(t.root, t.parent) for t in trees] == [("p", {"c": "p"})]
        assert diagnostics == Counter(cyclic_posts=2)

    def test_multiple_origins_skipped_and_counted(self):
        events = [ev("a", "p", ts=1), ev("b", "q", ts=1), ev("c", "p", post="ok", ts=1)]
        diagnostics = Counter()
        trees = trees_of(build_trees(events, {"p"}, diagnostics=diagnostics))
        assert [(t.root, t.parent) for t in trees] == [("p", {"c": "p"})]
        assert diagnostics == Counter(multi_origin_posts=1)
        assert [(t.root, t.parent) for t in trees_of(build_trees(events, {"p"}))] \
            == [("p", {"c": "p"})]

    def test_repeat_actor_keeps_earliest(self):
        events = [ev("a", "q", ts=5), ev("a", "p", ts=1), ev("q", "p", ts=0)]
        trees = trees_of(build_trees(events, {"p"}))
        assert trees[0].parent["a"] == "p"

    def test_order_invariance(self):
        events = [ev("a", "p", ts=1), ev("b", "a", ts=2), ev("c", "a", ts=2.5)]
        rng = random.Random(3)
        base = trees_of(build_trees(events, {"p"}))
        for _ in range(5):
            shuffled = events[:]
            rng.shuffle(shuffled)
            other = trees_of(build_trees(shuffled, {"p"}))
            assert [(t.root, t.parent, t.depth) for t in other] \
                == [(t.root, t.parent, t.depth) for t in base]


def taxonomy_fixture():
    """p,q producers; br bridge; a direct; b indirect; s passive; i involuntary;
    u unexposed; m mid-tree producer child."""
    g = build_graph([
        F("s", "p"),           # passive: follows a producer, never reblogs
        F("i", "a"),           # involuntary: follows only an active consumer
        F("u", "i"),           # unexposed: follows nobody relevant
        F("q", "p"),           # producer following (and reblogging) a producer
        F("both", "p"), F("both", "a"),  # follows producer and active: passive
        F("br", "u"), F("b", "u"), F("m", "u"),  # tree actors joining the universe
    ])
    events = [
        ev("a", "p", post="x", ts=1),
        ev("b", "a", post="x", ts=2),
        ev("br", "b", post="x", ts=3),
        ev("q", "p", post="x", ts=4),      # producer reblogging a producer
        ev("m", "q", post="x", ts=5),      # direct via mid-tree producer parent
    ]
    roles = {"p": "producer_one", "q": "producer_two", "br": "bridge_one"}
    return g, build_trees(events, producer_nodes(roles)), roles


class TestClassify:
    def test_taxonomy(self):
        g, trees, roles = taxonomy_fixture()
        classes = classify_nodes(g, trees, roles)
        assert classes["p"] is ConsumerClass.PRODUCER
        assert classes["q"] is ConsumerClass.PRODUCER
        assert classes["br"] is ConsumerClass.BRIDGE
        assert classes["a"] is ConsumerClass.ACTIVE_DIRECT
        assert classes["b"] is ConsumerClass.ACTIVE_INDIRECT
        assert classes["m"] is ConsumerClass.ACTIVE_DIRECT
        assert classes["s"] is ConsumerClass.PASSIVE
        assert classes["i"] is ConsumerClass.INVOLUNTARY
        assert classes["u"] is ConsumerClass.UNEXPOSED
        assert classes["both"] is ConsumerClass.PASSIVE

    def test_partition_of_node_set(self):
        g, trees, roles = taxonomy_fixture()
        classes = classify_nodes(g, trees, roles)
        assert set(classes) == set(g.node_ids)

    def test_isolated_unexposed(self):
        g = build_graph([F("x", "y")])
        classes = classify_nodes(g, build_trees([], set()), {})
        assert classes["x"] is ConsumerClass.UNEXPOSED
        assert classes["y"] is ConsumerClass.UNEXPOSED

    def test_tree_nodes_are_active_or_role_classed(self):
        g, trees, roles = taxonomy_fixture()
        classes = classify_nodes(g, trees, roles)
        allowed = {ConsumerClass.PRODUCER, ConsumerClass.BRIDGE,
                   ConsumerClass.ACTIVE_DIRECT, ConsumerClass.ACTIVE_INDIRECT}
        for t in trees_of(trees):
            for node in t.nodes():
                if node in classes:
                    assert classes[node] in allowed


class TestReach:
    def test_empty_trees(self):
        rep = reach_report({"p": ConsumerClass.PRODUCER}, build_trees([], set()))
        assert rep.flows == {}
        assert rep.class_counts["producer"] == 1
        assert rep.class_counts["passive"] == 0

    def test_single_chain_flows(self):
        g = build_graph([F("a", "p")])
        trees = build_trees([ev("a", "p", ts=1), ev("b", "a", ts=2)], {"p"})
        classes = classify_nodes(g, trees, {"p": "producer"})
        # b reblogs within the tree but is outside the graph: unknown target
        rep = reach_report(classes, trees)
        assert rep.flows["producer"]["active_direct"] == 1
        assert rep.flows["active_direct"]["unknown"] == 1

    def test_amplification_arithmetic(self):
        classes = {}
        for i in range(2):
            classes[f"p{i}"] = ConsumerClass.PRODUCER
        for i in range(4):
            classes[f"a{i}"] = ConsumerClass.ACTIVE_DIRECT
        for i in range(6):
            classes[f"s{i}"] = ConsumerClass.PASSIVE
        for i in range(8):
            classes[f"i{i}"] = ConsumerClass.INVOLUNTARY
        rep = reach_report(classes, build_trees([], set()))
        assert rep.amplification == (4 + 6 + 8) / 2

    def test_no_producers_amplification_none(self):
        rep = reach_report({"x": ConsumerClass.UNEXPOSED}, build_trees([], set()))
        assert rep.amplification is None


class TestEfficiency:
    def _trees(self):
        events = []
        for post, root in (("pa", "p"), ("pb", "q")):
            events += [ev("u one", root, post, 1), ev("u two", root, post, 1)]
        for i, x in enumerate(["x1", "x2", "x3"]):
            events.append(ev(x, "u one", "pa", 2 + i))
        for i, x in enumerate(["x4", "x5", "x6"]):
            events.append(ev(x, "u two", "pa", 2 + i))
        return build_trees(events, {"p", "q"})

    def test_formula(self):
        trees = self._trees()
        # r_d=4 member reblogs, r_r=6 outside reblogs of member instances
        assert spread_efficiency({"u one", "u two"}, trees) == 6 / (4 * 2)

    def test_no_downstream_zero(self):
        trees = self._trees()
        assert spread_efficiency({"x1"}, trees) == 0.0

    def test_no_reblogging_error(self):
        trees = self._trees()
        with pytest.raises(ValueError, match="did no reblogging"):
            spread_efficiency({"p"}, trees)

    def test_empty_set_error(self):
        with pytest.raises(ValueError, match="empty"):
            spread_efficiency(set(), build_trees([], set()))

    def test_inverse_flag(self):
        trees = self._trees()
        eta = spread_efficiency({"u one", "u two"}, trees)
        inv = spread_efficiency({"u one", "u two"}, trees, inverse=True)
        assert inv == pytest.approx(1 / eta)


class TestEventsIO:
    def test_round_trip(self, tmp_path):
        events = [ev("a", "p", ts=1.5), ev("b", "a", ts=2)]
        p = tmp_path / "events.tsv"
        write_events_tsv(events, str(p))
        assert list(read_events_tsv(str(p))) == events

    def test_malformed_dropped(self, tmp_path):
        p = tmp_path / "events.tsv"
        p.write_text("a\tp\tx\t1\nself\tself\tx\t2\nshort\trow\n a\tb\tx\tnan-ish\n")
        diags = Counter()
        events = read_events_tsv(str(p), diagnostics=diags)
        assert len(events) == 1
        assert diags["malformed_events"] == 3

    def test_nan_timestamp_skipped_in_any_row_order(self, tmp_path):
        """A NaN timestamp sorts against nothing, so a tree built with it
        would depend on row order; the row is skipped and counted instead."""
        rows = ["a\tp\tx\t2", "a\tq\tx\tnan", "q\tp\tx\t1", "a\tr\tx\t0.5", "r\tp\tx\t0.1"]
        p = tmp_path / "events.tsv"
        for order in itertools.permutations(rows):
            p.write_text("\n".join(order) + "\n")
            diags = Counter()
            trees = trees_of(build_trees(read_events_tsv(str(p), diagnostics=diags), {"p"}))
            assert [t.parent for t in trees] == [{"a": "r", "q": "p", "r": "p"}]
            assert diags == Counter(malformed_events=1)
