"""Modularity arithmetic and Louvain recovery against exhaustive oracles."""

import functools
import itertools
import random
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from devgraph import community
from devgraph.community import (
    Partition,
    louvain,
    read_partition_csv,
    read_role_map_csv,
    roles_from_partition,
    write_partition_csv,
    write_role_map_csv,
)
from devgraph.graph import FOLLOW, LAYERS, REBLOG, LayeredGraph, build_graph
from devgraph.synth import SynthConfig, planted_graph

from id_helpers import assignment, communities, modularity


def F(u, v):
    return (u, v, 1.0, FOLLOW)


def undirected(pairs, layer=FOLLOW):
    return build_graph([(u, v, 1.0, layer) for u, v in pairs])


def set_partitions(items):
    """All set partitions, via recursive first-element placement."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in set_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [[first] + sub[i]] + sub[i + 1:]
        yield [[first]] + sub


def brute_force_optimum(g, layer):
    best = None
    for blocks in set_partitions(g.node_ids):
        assignment = {n: i for i, block in enumerate(blocks) for n in block}
        q = modularity(g, layer, assignment)
        if best is None or q > best:
            best = q
    return best


def two_triangles():
    return undirected([("a", "b"), ("b", "c"), ("c", "a"),
                       ("d", "e"), ("e", "f"), ("f", "d"),
                       ("c", "d")])


def clique_ring(n_cliques=4, size=5):
    pairs = []
    names = [[f"c{i}n{j}" for j in range(size)] for i in range(n_cliques)]
    for block in names:
        pairs.extend(itertools.combinations(block, 2))
    for i in range(n_cliques):
        pairs.append((names[i][0], names[(i + 1) % n_cliques][1]))
    return undirected(pairs), [set(block) for block in names]


class TestModularity:
    def test_single_community_zero(self):
        g = two_triangles()
        q = modularity(g, FOLLOW, {n: 0 for n in g.node_ids})
        assert q == pytest.approx(0.0, abs=1e-15)

    def test_two_disjoint_cliques_half(self):
        g = undirected([("a", "b"), ("b", "c"), ("c", "a"),
                        ("x", "y"), ("y", "z"), ("z", "x")])
        q = modularity(g, FOLLOW, {n: (0 if n in "abc" else 1) for n in g.node_ids})
        assert q == pytest.approx(0.5)

    def test_singletons_negative(self):
        g = undirected([("a", "b"), ("b", "c")])
        # m=2, degrees a=1 b=2 c=1 -> -(1/4)^2-(2/4)^2-(1/4)^2 = -0.375
        q = modularity(g, FOLLOW, {n: i for i, n in enumerate(g.node_ids)})
        assert q == pytest.approx(-0.375)

    def test_two_triangle_split_value(self):
        g = two_triangles()
        q = modularity(g, FOLLOW, {n: (0 if n in "abc" else 1) for n in g.node_ids})
        assert q == pytest.approx(2 * (3 / 7 - 0.25))

    def test_symmetrization_sums_directed_weights(self):
        g = build_graph([("a", "b", 3.0, REBLOG), ("b", "a", 1.0, REBLOG),
                         ("c", "d", 4.0, REBLOG)])
        # undirected weights: ab=4, cd=4, m=8
        q = modularity(g, REBLOG, {"a": 0, "b": 0, "c": 1, "d": 1})
        assert q == pytest.approx((4 / 8 - 0.25) * 2)

    def test_missing_node_error(self):
        g = undirected([("a", "b")])
        with pytest.raises(ValueError, match="1 labels for 2 nodes"):
            community.modularity(g, FOLLOW, np.array([0]))

    def test_empty_graph_error(self):
        with pytest.raises(ValueError, match="empty"):
            modularity(build_graph([]), FOLLOW, {})

    def test_edgeless_error(self):
        g = build_graph([("a", "b", 1.0, REBLOG)])
        with pytest.raises(ValueError, match="no edges"):
            modularity(g, FOLLOW, {"a": 0, "b": 1})


class TestLouvain:
    def test_two_triangles_exact(self):
        g = two_triangles()
        p = louvain(g, FOLLOW, seed=1)
        groups = sorted(frozenset(s) for s in communities(p).values())
        assert sorted(map(frozenset, [{"a", "b", "c"}, {"d", "e", "f"}])) == groups

    def test_clique_ring_exact(self):
        g, planted = clique_ring()
        p = louvain(g, FOLLOW, seed=3)
        groups = {frozenset(s) for s in communities(p).values()}
        assert groups == {frozenset(s) for s in planted}

    def test_edgeless_error(self):
        g = build_graph([("a", "b", 1.0, REBLOG)])
        with pytest.raises(ValueError, match="no edges"):
            louvain(g, FOLLOW, seed=0)

    def test_returned_modularity_consistent(self):
        g, _ = clique_ring()
        p = louvain(g, FOLLOW, seed=9)
        assert p.modularity == modularity(g, FOLLOW, assignment(p))

    def test_dense_ids_from_zero(self):
        g = two_triangles()
        p = louvain(g, FOLLOW, seed=5)
        ids = set(assignment(p).values())
        assert ids == set(range(len(ids)))

    def test_seeded_determinism(self):
        g, _ = clique_ring()
        first, second = louvain(g, FOLLOW, seed=42), louvain(g, FOLLOW, seed=42)
        assert np.array_equal(first.membership, second.membership)
        assert first.modularity == second.modularity

    def test_matches_exhaustive_on_small_graphs(self):
        rng = random.Random(11)
        for trial in range(12):
            n = rng.randint(3, 6)
            nodes = [f"n{i}" for i in range(n)]
            pairs = [p for p in itertools.combinations(nodes, 2) if rng.random() < 0.5]
            if not pairs:
                continue
            g = undirected(pairs)
            best = brute_force_optimum(g, FOLLOW)
            p = louvain(g, FOLLOW, seed=trial)
            assert p.modularity <= best + 1e-12
            assert p.modularity >= 0.95 * best - 1e-9 or abs(p.modularity - best) < 1e-9

    def test_modularity_decrease_raises(self, monkeypatch):
        # an explicit check, not an assert, so it survives python -O
        import devgraph.community as community
        falling = itertools.count()
        monkeypatch.setattr(community, "_q", lambda *args: -float(next(falling)))
        with pytest.raises(RuntimeError, match="modularity decreased"):
            louvain(two_triangles(), FOLLOW, seed=1)

    def test_weighted_grouping(self):
        # heavy weights bind pairs despite unit ring edges
        g = build_graph([("a", "b", 10.0, REBLOG), ("c", "d", 10.0, REBLOG),
                         ("b", "c", 1.0, REBLOG), ("d", "a", 1.0, REBLOG)])
        p = louvain(g, REBLOG, seed=2)
        assert assignment(p)["a"] == assignment(p)["b"]
        assert assignment(p)["c"] == assignment(p)["d"]
        assert assignment(p)["a"] != assignment(p)["c"]


class TestIO:
    def test_partition_round_trip(self, tmp_path):
        p = Partition(("b", "a"), np.array([1, 0]), modularity=0.0)
        path = tmp_path / "partition.csv"
        write_partition_csv(p, str(path))
        assert read_partition_csv(str(path)) == {"a": 0, "b": 1}

    def test_role_map_round_trip(self, tmp_path):
        path = tmp_path / "roles.csv"
        write_role_map_csv({0: "producer", 1: "bridge"}, str(path))
        assert read_role_map_csv(str(path)) == {0: "producer", 1: "bridge"}

    def test_roles_from_partition(self):
        p = Partition(("a", "b", "c"), np.array([0, 1, 2]), modularity=0.0)
        roles = roles_from_partition(assignment(p), {0: "producer", 1: "bridge"})
        assert roles == {"a": "producer", "b": "bridge", "c": "other"}


def assert_communities_connected(g, layer, part):
    """Each community induces a connected subgraph of the layer's
    undirected projection."""
    lay = g.layer(layer)
    for members in communities(part).values():
        idx = np.array(sorted(g.node_ids.index(n) for n in members))
        inside = np.isin(lay.src, idx) & np.isin(lay.dst, idx)
        adj = sp.coo_matrix((np.ones(int(inside.sum())),
                             (np.searchsorted(idx, lay.src[inside]),
                              np.searchsorted(idx, lay.dst[inside]))),
                            shape=(len(idx), len(idx)))
        n_parts, _ = connected_components(adj, directed=False)
        assert n_parts == 1, (layer, sorted(members))


def scaled(cfg: SynthConfig, k: int) -> SynthConfig:
    """Every group size times k and every block probability over k."""
    return replace(cfg, **{f.name: getattr(cfg, f.name) * k for f in fields(cfg)
                           if f.name.startswith("n_") and f.name != "n_noise_blogs"},
                   **{f.name: getattr(cfg, f.name) / k for f in fields(cfg)
                      if f.name.startswith("p_")})


@functools.cache
def fixture_graph(scale: int) -> LayeredGraph:
    """The seed-11 fixture's graph at `scale`, built once per session."""
    return planted_graph(scaled(SynthConfig(seed=11), scale))[0]


@functools.cache
def fixture_louvain(scale: int, layer: str, seed: int) -> Partition:
    """louvain on `fixture_graph(scale)`, run once per session."""
    return louvain(fixture_graph(scale), layer, seed=seed)


# the Louvain seeds of the fixture checks here and in test_community_oracle.py
LOUVAIN_SEEDS = (0, 11, 29)


@pytest.mark.parametrize("scale", [1, 4, 16])
@pytest.mark.parametrize("layer", LAYERS)
def test_louvain_communities_connected_on_fixture(scale, layer):
    g = fixture_graph(scale)
    for seed in LOUVAIN_SEEDS:
        part = fixture_louvain(scale, layer, seed)
        assert len(communities(part)) > 1
        assert_communities_connected(g, layer, part)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11),
                          st.sampled_from((1.0, 2.0, 0.5)), st.sampled_from(LAYERS)),
                min_size=1, max_size=40),
       st.integers(0, 2**16))
def test_louvain_communities_connected_on_small_graphs(edges, seed):
    g = build_graph([(f"n{u}", f"n{v}", w, layer) for u, v, w, layer in edges])
    for layer in LAYERS:
        if g.n_edges(layer):
            assert_communities_connected(g, layer, louvain(g, layer, seed=seed))
