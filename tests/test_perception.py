"""Majority-illusion curve and the volume friendship paradox."""

import random

import pytest

from devgraph.graph import FOLLOW, REBLOG, build_graph
from devgraph.perception import write_curves_csv

from id_helpers import graph_edges, perception_curve, volume_paradox_fraction


def F(u, v):
    return (u, v, 1.0, FOLLOW)


class TestCurve:
    def test_no_deviant_nodes(self):
        g = build_graph([F("a", "b"), F("b", "a")])
        c = perception_curve(g, FOLLOW, set())
        assert c.fraction_at_least[c.thresholds.index(0.0)] == 1.0
        assert c.fraction_at_least[c.thresholds.index(0.01)] == 0.0
        assert c.fraction_at_least[c.thresholds.index(1.0)] == 0.0

    def test_all_neighbors_deviant(self):
        g = build_graph([F("a", "b"), F("b", "a")])
        c = perception_curve(g, FOLLOW, {"a", "b"})
        assert all(v == 1.0 for v in c.fraction_at_least)

    def test_star_hub_threshold(self):
        edges = [F("hub", f"leaf{i}") for i in range(9)]
        g = build_graph(edges)
        deviant = {"leaf0", "leaf1", "leaf2"}
        c = perception_curve(g, FOLLOW, deviant)
        # hub is the only node with out-neighbors: fraction 3/9
        assert c.eligible == 1
        assert c.excluded_zero_outdegree == 9
        assert c.fraction_at_least[c.thresholds.index(0.30)] == 1.0
        assert c.fraction_at_least[c.thresholds.index(0.34)] == 0.0

    def test_exclude_producers(self):
        g = build_graph([F("p", "a"), F("b", "p")])
        c = perception_curve(g, FOLLOW, {"p"}, exclude={"p"})
        # only b remains eligible; its single neighbor is deviant
        assert c.eligible == 1
        assert c.fraction_at_least[c.thresholds.index(1.0)] == 1.0

    def test_monotone_non_increasing(self):
        rng = random.Random(5)
        edges = []
        for u in range(40):
            for v in rng.sample(range(40), 5):
                if u != v:
                    edges.append((f"n{u}", f"n{v}", 1.0, FOLLOW))
        g = build_graph(edges)
        deviant = {f"n{i}" for i in rng.sample(range(40), 10)}
        c = perception_curve(g, FOLLOW, deviant)
        for a, b in zip(c.fraction_at_least, c.fraction_at_least[1:]):
            assert a >= b
        assert all(0.0 <= v <= 1.0 for v in c.fraction_at_least)
        assert c.thresholds[0] == 0.0 and c.thresholds[-1] == 1.0

    def test_all_zero_outdegree_error(self):
        g = build_graph([("a", "b", 1.0, REBLOG)])
        with pytest.raises(ValueError, match="eligible"):
            perception_curve(g, FOLLOW, set())

    def test_custom_step(self):
        g = build_graph([F("a", "b")])
        c = perception_curve(g, FOLLOW, set(), step=0.25)
        assert c.thresholds == (0.0, 0.25, 0.5, 0.75, 1.0)

    def test_random_attribute_concentration(self):
        # regular-ish graph, deviant probability p: at t=p the curve sits
        # near one half as degree grows
        rng = random.Random(11)
        n, deg, p = 2000, 100, 0.3
        edges = []
        for u in range(n):
            for v in rng.sample(range(n), deg + 1):
                if v != u:
                    edges.append((f"n{u}", f"n{v}", 1.0, FOLLOW))
        g = build_graph(edges)
        deviant = {f"n{i}" for i in range(n) if rng.random() < p}
        c = perception_curve(g, FOLLOW, deviant)
        assert abs(c.fraction_at_least[c.thresholds.index(0.3)] - 0.5) < 0.15


class TestParadox:
    def test_equal_counts_zero(self):
        g = build_graph([F("a", "b"), F("b", "c"), F("c", "a")])
        counts = {"a": 5, "b": 5, "c": 5}
        assert volume_paradox_fraction(g, FOLLOW, counts) == 0.0

    def test_star_all_leaves_below(self):
        edges = [F(f"leaf{i}", "hub") for i in range(9)]
        g = build_graph(edges)
        counts = {"hub": 100}
        # hub has no out-neighbors: excluded; every leaf sits below the mean
        assert volume_paradox_fraction(g, FOLLOW, counts) == 1.0

    def test_eligibility_is_mapping_presence(self):
        g = build_graph([F("a", "b"), F("a", "c")])
        # c never posted: not in the mapping, so only b counts for a
        counts = {"a": 3, "b": 10}
        assert volume_paradox_fraction(g, FOLLOW, counts) == 1.0
        counts_low = {"a": 30, "b": 10}
        assert volume_paradox_fraction(g, FOLLOW, counts_low) == 0.0

    def test_strictness(self):
        g = build_graph([F("a", "b")])
        assert volume_paradox_fraction(g, FOLLOW, {"a": 10, "b": 10}) == 0.0

    def test_no_eligible_neighbors_error(self):
        g = build_graph([F("a", "b")])
        with pytest.raises(ValueError, match="eligible"):
            volume_paradox_fraction(g, FOLLOW, {})

    def test_brute_force_agreement(self):
        rng = random.Random(7)
        for trial in range(10):
            n = rng.randint(5, 60)
            edges = []
            for u in range(n):
                for v in rng.sample(range(n), min(n - 1, rng.randint(0, 6))):
                    if u != v:
                        edges.append((f"n{u}", f"n{v}", 1.0, FOLLOW))
            if not edges:
                continue
            g = build_graph(edges)
            counts = {f"n{i}": rng.randint(0, 20) for i in range(n) if rng.random() < 0.7}
            followees = {node: [] for node in g.node_ids}
            for u, v, _ in graph_edges(g, FOLLOW):
                followees[u].append(v)
            considered = below = 0
            for node in g.node_ids:
                neigh = [v for v in followees[node] if v in counts]
                if not neigh:
                    continue
                considered += 1
                if counts.get(node, 0) < sum(counts[v] for v in neigh) / len(neigh):
                    below += 1
            if considered == 0:
                continue
            assert volume_paradox_fraction(g, FOLLOW, counts) == below / considered


def test_curves_csv(tmp_path):
    g = build_graph([F("a", "b")])
    c = perception_curve(g, FOLLOW, {"b"}, step=0.5)
    p = tmp_path / "curves.csv"
    write_curves_csv([c], str(p))
    lines = p.read_text().splitlines()
    assert lines[0] == "threshold,fraction,layer"
    assert lines[1] == "0,1,F"
    assert lines[-1] == "1,1,F"
