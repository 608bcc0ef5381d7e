"""Removal rankings, shrinkage curves, and the underage exposure threshold."""

import random

import pytest

from devgraph.diffusion import ReblogEvent, build_trees
from devgraph.graph import FOLLOW, REBLOG, build_graph
from devgraph.intervention import (
    BY_DEGREE,
    BY_VOLUME,
    adaptive_greedy_ranking,
    rank_by_degree,
    rank_by_volume,
    shrinkage_curve,
    underage_exposure_threshold,
    write_shrinkage_csv,
)

from test_intervention_oracle import baseline_consumers, reached_consumers
from tree_helpers import trees_of


def ev(actor, source, post="p1", ts=0.0):
    return ReblogEvent(actor, source, post, ts)


def chain_trees():
    """p1 reaches {a,b,c}; p2 reaches {a} (in its own post)."""
    events = [
        ev("a", "p1", post="x", ts=1),
        ev("b", "a", post="x", ts=2),
        ev("c", "b", post="x", ts=3),
        ev("a", "p2", post="y", ts=1),
    ]
    return build_trees(events, {"p1", "p2"})


class TestRankByVolume:
    def test_reach_ordering(self):
        ranking = rank_by_volume(chain_trees())
        assert ranking[0] == "p1"          # reaches a,b,c
        assert ranking.index("p1") < ranking.index("p2")

    def test_distinct_blogs_across_trees(self):
        # a reaches b in two different posts: counted once
        events = [ev("a", "p", post="x", ts=1), ev("b", "a", post="x", ts=2),
                  ev("a", "p", post="y", ts=1), ev("b", "a", post="y", ts=2)]
        trees = build_trees(events, {"p"})
        ranking = rank_by_volume(trees)
        assert ranking == ["p", "a"]       # p reaches {a,b}, a reaches {b}

    def test_empty(self):
        assert rank_by_volume(build_trees([], set())) == []

    def test_tie_breaks_by_id(self):
        events = [ev("x1", "n7", post="a", ts=1), ev("x2", "n3", post="b", ts=1)]
        trees = build_trees(events, {"n7", "n3"})
        ranking = rank_by_volume(trees)
        assert ranking.index("n3") < ranking.index("n7")

    def test_childless_root_included(self):
        events = [ev("a", "p", post="x", ts=1)]
        trees = build_trees(events, {"p", "q"})
        assert "p" in rank_by_volume(trees)


class TestRankByDegree:
    def test_hub_first(self):
        edges = [(f"n{i}", "hub", 1.0, REBLOG) for i in range(5)]
        edges.append(("hub", "n0", 1.0, REBLOG))
        g = build_graph(edges)
        assert rank_by_degree(g)[0] == "hub"

    def test_edgeless_error(self):
        g = build_graph([("a", "b", 1.0, FOLLOW)])
        with pytest.raises(ValueError, match="no edges"):
            rank_by_degree(g)

    def test_tie_by_id(self):
        g = build_graph([("x", "b", 1.0, REBLOG), ("y", "a", 1.0, REBLOG)])
        ranking = rank_by_degree(g)
        assert ranking.index("a") < ranking.index("b")


class TestShrinkage:
    def test_endpoints(self):
        trees = chain_trees()
        curve = shrinkage_curve(trees, rank_by_volume(trees), sizes=[0, 1, 2, 5])
        assert curve.value(0) == 1.0
        # removing p1 and p2 erases every root
        assert curve.value(5) == 0.0

    def test_shared_node_subtree_walked_in_every_tree(self):
        # a is a leaf under p1 in post x but has a child in post y; the
        # second tree's subtree below a must still be traversed
        events = [
            ev("a", "p1", post="x", ts=1),
            ev("a", "p2", post="y", ts=1),
            ev("b", "a", post="y", ts=2),
        ]
        trees = build_trees(events, {"p1", "p2"})
        assert reached_consumers(trees_of(trees), set()) == {"a", "b"}
        curve = shrinkage_curve(trees, ["p1", "p2"], sizes=[0, 2])
        assert curve.reached_fraction == (1.0, 0.0)

    def test_internal_removal_cuts_subtree(self):
        events = [ev("a", "p", ts=1), ev("b", "a", ts=2)]
        trees = build_trees(events, {"p"})
        curve = shrinkage_curve(trees, ["a", "p"], sizes=[0, 1])
        # C={a}: a erased, b only reachable through a -> nothing reached
        assert curve.reached_fraction == (1.0, 0.0)

    def test_monotone_and_truncation_warning(self):
        trees = chain_trees()
        curve = shrinkage_curve(trees, rank_by_volume(trees), sizes=[0, 1, 2, 99])
        for a, b in zip(curve.reached_fraction, curve.reached_fraction[1:]):
            assert a >= b
        assert any("truncated" in w for w in curve.warnings)

    def test_unsorted_sizes_error(self):
        with pytest.raises(ValueError, match="ascending"):
            shrinkage_curve(chain_trees(), [], sizes=[5, 0])

    def test_empty_trees_error(self):
        with pytest.raises(ValueError, match="baseline"):
            shrinkage_curve(build_trees([], set()), [], sizes=[0])

    def test_superset_monotonicity_random(self):
        rng = random.Random(13)
        for _ in range(10):
            events = []
            for post in range(4):
                members = [f"n{i}" for i in rng.sample(range(20), rng.randint(2, 8))]
                root = f"r{rng.randint(0, 2)}"
                prev = [root]
                for t, m in enumerate(members):
                    events.append(ev(m, rng.choice(prev), post=f"p{post}", ts=t))
                    prev.append(m)
            trees = trees_of(build_trees(events, {"r0", "r1", "r2"}))
            if not trees:
                continue
            nodes = sorted({n for t in trees for n in t.nodes()})
            small = set(rng.sample(nodes, min(3, len(nodes))))
            big = small | set(rng.sample(nodes, min(5, len(nodes))))
            assert reached_consumers(trees, big) <= reached_consumers(trees, small)


class TestUnderage:
    def test_no_underage(self):
        trees = chain_trees()
        res = underage_exposure_threshold(trees, rank_by_volume(trees), {"a": 30})
        assert res.k == 0
        assert res.note is not None

    def test_single_underage_under_top_root(self):
        events = [ev("kid", "p", ts=1)]
        trees = build_trees(events, {"p"})
        res = underage_exposure_threshold(trees, ["p"], {"kid": 15})
        assert res.k == 1 and res.note is None

    def test_matches_linear_scan(self):
        trees = chain_trees()
        ranking = rank_by_volume(trees)
        ages = {"c": 14, "a": 25}
        res = underage_exposure_threshold(trees, ranking, ages)
        underage = {n for n, a in ages.items() if a < 18}
        for k in range(res.k):
            assert reached_consumers(trees_of(trees), set(ranking[:k])) & underage
        assert not reached_consumers(trees_of(trees), set(ranking[:res.k])) & underage

    def test_removing_the_minor_itself_suffices(self):
        events = [ev("kid", "p", ts=1)]
        trees = build_trees(events, {"p"})
        res = underage_exposure_threshold(trees, ["kid"], {"kid": 12})
        assert res.k == 1

    def test_unattainable_raises(self):
        events = [ev("kid", "p", ts=1)]
        trees = build_trees(events, {"p"})
        # the ranking never touches the exposing chain
        with pytest.raises(ValueError, match="remain reached"):
            underage_exposure_threshold(trees, ["unrelated"], {"kid": 12})


class TestAdaptiveGreedy:
    def test_prefers_high_coverage(self):
        trees = chain_trees()
        picks = adaptive_greedy_ranking(trees, 2)
        # erasing the shared conduit a kills every consumer in one move
        assert picks[0] == "a"
        assert reached_consumers(trees_of(trees), {"a"}) == set()

    def test_never_worse_than_static_on_fixture(self):
        trees = chain_trees()
        static = rank_by_volume(trees)
        greedy = adaptive_greedy_ranking(trees, len(static))
        walked = trees_of(trees)
        base = len(baseline_consumers(walked))
        for k in range(len(greedy) + 1):
            g_left = len(reached_consumers(walked, set(greedy[:k])))
            s_left = len(reached_consumers(walked, set(static[:k])))
            assert g_left <= s_left or k > len(static)
        assert base > 0


def test_shrinkage_csv(tmp_path):
    trees = chain_trees()
    curves = [shrinkage_curve(trees, rank_by_volume(trees), sizes=[0, 2], strategy=BY_VOLUME),
              shrinkage_curve(trees, rank_by_volume(trees), sizes=[0, 2], strategy=BY_DEGREE)]
    p = tmp_path / "shrinkage.csv"
    write_shrinkage_csv(curves, str(p))
    lines = p.read_text().splitlines()
    assert lines[0] == "removed,reached_fraction,strategy"
    assert lines[1] == "0,1,ByVolume"
    assert lines[3] == "0,1,ByDegree"
