"""Layered graph construction and structural statistics."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devgraph.graph import (
    FOLLOW,
    REBLOG,
    LayeredGraph,
    build_graph,
    id_codes,
    id_mask,
    load_graph,
    mean_degree_and_density,
    network_stats,
    read_labels_csv,
    write_edge_tsv,
    write_labels_csv,
)

from devgraph.synth import SynthConfig, planted_graph

from id_helpers import graph_edges, gwcc


def F(src, dst):
    return (src, dst, 1.0, FOLLOW)


def R(src, dst, w=1.0):
    return (src, dst, w, REBLOG)


class TestBuild:
    def test_first_seen_indexing(self):
        g = build_graph([F("b", "a"), F("c", "b")])
        assert g.node_ids == ("b", "a", "c")
        assert g.node_ids.index("b") == 0 and g.node_ids[2] == "c"

    def test_follow_dedup_reblog_accumulate(self):
        g = build_graph([F("a", "b"), F("a", "b"), R("a", "b", 2.0), R("a", "b", 3.0)])
        assert g.n_edges(FOLLOW) == 1
        assert g.n_edges(REBLOG) == 1
        assert graph_edges(g, REBLOG) == [("a", "b", 5.0)]

    def test_self_loops_dropped_and_counted(self):
        diagnostics = Counter()
        g = build_graph([F("a", "a"), R("b", "b"), F("a", "b")], diagnostics)
        assert g.n_edges(FOLLOW) == 1
        assert diagnostics["self_loops_dropped"] == 2
        # loop endpoints still join the node universe
        assert "b" in g.node_ids

    def test_malformed_skipped(self):
        diagnostics = Counter()
        g = build_graph([F("a", "b"), ("a",), ("a", "b", "x", FOLLOW), ("a", "b", 1.0, "Z")],
                        diagnostics)
        assert g.n_edges(FOLLOW) == 1
        assert diagnostics["malformed_edges"] == 3

    def test_ids_no_table_can_hold_skipped(self):
        """An edge with an id that holds a comma, or whitespace at either
        end, is malformed; its other end does not join the node universe."""
        diagnostics = Counter()
        g = build_graph([F("a,b", "c"), R("d", " e", 2.0), F("f ", "f "), F("x", "y"),
                         F("c", "a,b")], diagnostics)
        assert g.node_ids == ("x", "y")
        assert diagnostics == Counter(malformed_edges=4)

    def test_unknown_node_has_code_minus_one(self):
        g = build_graph([F("a", "b")])
        assert id_codes(g.node_ids, ["zzz", "b", "a"]).tolist() == [-1, 1, 0]
        assert id_mask(g.node_ids, {"zzz", "b"}).tolist() == [False, True]

    def test_unknown_layer_raises(self):
        g = build_graph([F("a", "b")])
        with pytest.raises(ValueError, match="layer"):
            g.n_edges("Q")

    def test_neighbors_and_degrees(self):
        g = build_graph([F("a", "b"), F("a", "c"), F("b", "c"), R("c", "a", 2.0)])
        lay = g.layer(FOLLOW)
        assert lay.src.tolist() == [0, 0, 1]
        assert lay.dst.tolist() == [1, 2, 2]
        assert g.out_degrees(FOLLOW).tolist() == [2, 1, 0]
        assert g.in_degrees(FOLLOW).tolist() == [0, 1, 2]
        assert g.in_degrees(REBLOG).tolist() == [1, 0, 0]

    def test_adjacency_matrix(self):
        g = build_graph([R("a", "b", 3.0), R("b", "c", 1.0)])
        lay = g.layer(REBLOG)

        def entry(i, j):
            return lay.weight[(lay.src == i) & (lay.dst == j)].sum()

        assert entry(0, 1) == 3.0 and entry(1, 2) == 1.0
        assert len(lay.dst) == 2  # the unweighted sum


class TestRoundTrip:
    def test_edge_tsv(self, tmp_path):
        g = build_graph([F("a", "b"), R("b", "a", 2.5)])
        p = tmp_path / "edges.tsv"
        write_edge_tsv(g, str(p))
        g2 = load_graph(str(p))
        assert set(g2.node_ids) == {"a", "b"}
        assert graph_edges(g2, REBLOG) == [("b", "a", 2.5)]
        assert g2.n_edges(FOLLOW) == 1

    def test_labels_csv(self, tmp_path):
        p = tmp_path / "labels.csv"
        write_labels_csv({"a": "core", "b": "fringe"}, str(p))
        assert read_labels_csv(str(p)) == {"a": "core", "b": "fringe"}

    def test_load_skips_malformed_lines(self, tmp_path):
        p = tmp_path / "edges.tsv"
        p.write_text("a\tb\t1\tF\nbroken line\n\nc\td\t2\tR\n")
        diagnostics = Counter()
        g = load_graph(str(p), diagnostics)
        assert g.n_edges(FOLLOW) == 1 and g.n_edges(REBLOG) == 1
        assert diagnostics["malformed_lines"] == 1


class TestGwcc:
    def test_giant_component(self):
        g = build_graph([F("a", "b"), F("b", "c"), F("x", "y")])
        assert gwcc(g, FOLLOW) == {"a", "b", "c"}

    def test_tie_breaks_to_smallest_first_seen(self):
        g = build_graph([F("p", "q"), F("a", "b")])
        assert gwcc(g, FOLLOW) == {"p", "q"}

    def test_weak_not_strong(self):
        g = build_graph([F("a", "b"), F("c", "b")])
        assert gwcc(g, FOLLOW) == {"a", "b", "c"}


class TestStats:
    def test_counts_only_helper(self):
        k, d = mean_degree_and_density(10, 45)
        assert k == 4.5
        assert d == 0.5
        with pytest.raises(ValueError):
            mean_degree_and_density(1, 0)

    def test_directed_path(self):
        # a -> b -> c: undirected path graph on 3 nodes
        g = build_graph([F("a", "b"), F("b", "c")])
        s = network_stats(g, FOLLOW)
        assert s.n == 3 and s.e == 2
        assert s.avg_degree == pytest.approx(2 / 3)
        assert s.density == pytest.approx(2 / 6)
        assert s.reciprocity == 0.0
        assert s.clustering == 0.0
        # pairs: ab=1 ac=2 bc=1 -> mean over ordered pairs = 8/6
        assert s.avg_shortest_path == pytest.approx(8 / 6)
        assert s.diameter == 2.0
        assert s.paths_exact

    def test_reciprocity(self):
        g = build_graph([F("a", "b"), F("b", "a"), F("b", "c")])
        s = network_stats(g, FOLLOW)
        assert s.reciprocity == pytest.approx(2 / 3)

    def test_full_reciprocity_symmetrized(self):
        edges = [F(u, v) for u, v in [("a", "b"), ("b", "a"), ("b", "c"), ("c", "b")]]
        assert network_stats(build_graph(edges), FOLLOW).reciprocity == 1.0

    def test_triangle(self):
        g = build_graph([F("a", "b"), F("b", "c"), F("c", "a")])
        s = network_stats(g, FOLLOW)
        assert s.clustering == 1.0
        assert s.avg_shortest_path == 1.0
        assert s.diameter == 1.0

    def test_clustering_mixed(self):
        # triangle abc plus pendant d on a: c_a=c_d handled, c_d=0 by degree rule
        g = build_graph([F("a", "b"), F("b", "c"), F("c", "a"), F("a", "d")])
        s = network_stats(g, FOLLOW)
        # local: a=1/3 (one triangle, deg 3), b=1, c=1, d=0
        assert s.clustering == pytest.approx((1 / 3 + 1 + 1 + 0) / 4)

    def test_stats_restrict_to_gwcc(self):
        g = build_graph([F("a", "b"), F("b", "c"), F("x", "y")])
        s = network_stats(g, FOLLOW)
        assert s.n == 3 and s.e == 2

    def test_tiny_gwcc_raises(self):
        g = build_graph([R("a", "b", 1.0)])
        with pytest.raises(ValueError):
            network_stats(g, FOLLOW)  # follow layer has no edges at all

    def test_sampling_close_to_exact(self):
        rng = np.random.default_rng(7)
        n = 300
        edges = []
        for u in range(n):
            for v in rng.choice(n, size=5, replace=False):
                if u != int(v):
                    edges.append((f"n{u}", f"n{int(v)}", 1.0, FOLLOW))
        g = build_graph(edges)
        exact = network_stats(g, FOLLOW, exact_paths=True)
        est = network_stats(g, FOLLOW, path_samples=150, seed=11)
        # same graph either way; only path stats differ
        assert est.paths_exact is False or exact.n <= 10_000
        full = network_stats(g, FOLLOW)
        assert full.paths_exact  # n <= limit means exact by default
        assert abs(full.avg_shortest_path - exact.avg_shortest_path) < 1e-12

    def test_sampled_requires_seed(self):
        g = build_graph([F("a", "b"), F("b", "c")])
        from devgraph.community import _projection
        from devgraph.graph import _path_stats
        u, _m = _projection(g, FOLLOW)
        with pytest.raises(ValueError, match="seed"):
            _path_stats(u, 3, exact=False, path_samples=2, seed=None)

    def test_sampled_estimate_tracks_exact(self):
        rng = np.random.default_rng(3)
        edges = []
        n = 400
        for u in range(n - 1):
            edges.append((f"n{u}", f"n{u + 1}", 1.0, FOLLOW))
        for _ in range(800):
            u, v = rng.integers(0, n, size=2)
            if u != v:
                edges.append((f"n{u}", f"n{v}", 1.0, FOLLOW))
        g = build_graph(edges)
        exact = network_stats(g, FOLLOW, exact_paths=True)
        from devgraph.community import _projection
        from devgraph.graph import _path_stats
        # the path n0 - n399 makes the GWCC the whole graph
        assert len(gwcc(g, FOLLOW)) == n
        u_mat, _m = _projection(g, FOLLOW)
        spl, diam = _path_stats(u_mat, exact.n, exact=False, path_samples=200, seed=5)
        assert abs(spl - exact.avg_shortest_path) / exact.avg_shortest_path < 0.05
        assert diam <= exact.diameter  # sampled diameter is a lower bound

    @pytest.mark.parametrize("path_samples", [0, -3])
    def test_path_samples_below_one(self, path_samples):
        """At S, where every path is exact, as where paths are sampled: an
        error, not a nan mean or numpy's negative-dimension error."""
        g, _roles = planted_graph(SynthConfig(seed=11))
        with pytest.raises(ValueError, match="^path_samples must be at least 1$"):
            network_stats(g, FOLLOW, path_samples=path_samples)
        with pytest.raises(ValueError, match="^path_samples must be at least 1$"):
            network_stats(g, FOLLOW, path_samples=path_samples, seed=3)

    @pytest.mark.parametrize("path_samples", [0, -3])
    def test_sampled_path_samples_below_one(self, monkeypatch, path_samples):
        import devgraph.graph
        g = build_graph([F(f"n{i}", f"n{i + 1}") for i in range(4)])
        monkeypatch.setattr(devgraph.graph, "EXACT_PATH_LIMIT", 2)
        assert not network_stats(g, FOLLOW, path_samples=2, seed=1).paths_exact
        with pytest.raises(ValueError, match="^path_samples must be at least 1$"):
            network_stats(g, FOLLOW, path_samples=path_samples, seed=1)


@settings(max_examples=50)
@given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=1, max_size=40))
def test_build_is_permutation_invariant_on_weights(pairs):
    edges = [(f"n{u}", f"n{v}", 1.0, REBLOG) for u, v in pairs]
    g1 = build_graph(edges)
    g2 = build_graph(list(reversed(edges)))
    w1 = {(s, d): w for s, d, w in graph_edges(g1, REBLOG)}
    w2 = {(s, d): w for s, d, w in graph_edges(g2, REBLOG)}
    assert w1 == w2
