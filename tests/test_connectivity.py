"""Group connectivity matrices and the degree-preserving null model."""

import json
import math

import numpy as np
import pytest

from devgraph.connectivity import (
    AVG_VOLUME,
    DENSITY,
    NULL_RATIO,
    group_matrix,
    write_group_matrix_csv,
)
from devgraph.graph import FOLLOW, REBLOG, build_graph

from id_helpers import graph_edges, rewire_null_model


def F(u, v):
    return (u, v, 1.0, FOLLOW)


class TestGroupMatrix:
    def test_bipartite_toward_singleton(self):
        g = build_graph([F("a1", "b"), F("a2", "b")])
        roles = {"a1": "A", "a2": "A", "b": "B"}
        dens = group_matrix(g, FOLLOW, roles, DENSITY)
        vol = group_matrix(g, FOLLOW, roles, AVG_VOLUME)
        assert dens.values[dens.groups.index("A")][dens.groups.index("B")] == 1.0
        assert vol.values[vol.groups.index("A")][vol.groups.index("B")] == 1.0

    def test_intra_group_density(self):
        g = build_graph([F("a1", "a2")])
        dens = group_matrix(g, FOLLOW, {"a1": "A", "a2": "A"}, DENSITY)
        assert dens.values[dens.groups.index("A")][dens.groups.index("A")] == 0.5

    def test_no_edges_zero_everywhere(self):
        g = build_graph([F("a", "b")])
        roles = {"a": "A", "b": "B"}
        for mode in (AVG_VOLUME, DENSITY):
            m = group_matrix(g, FOLLOW, roles, mode)
            assert m.values[m.groups.index("B")][m.groups.index("A")] == 0.0
            assert m.values[m.groups.index("A")][m.groups.index("A")] == 0.0

    def test_weights_ignored(self):
        g = build_graph([("a", "b", 9.0, REBLOG)])
        m = group_matrix(g, REBLOG, {"a": "A", "b": "B"}, AVG_VOLUME)
        assert m.values[m.groups.index("A")][m.groups.index("B")] == 1.0

    def test_size_one_diagonal_flagged(self):
        g = build_graph([F("a", "b")])
        m = group_matrix(g, FOLLOW, {"a": "A", "b": "B"}, DENSITY)
        assert m.values[m.groups.index("A")][m.groups.index("A")] == 0.0
        assert any("size-1 diagonal" in f for f in m.flags)

    def test_group_outside_graph_reads_zero(self):
        """A role whose nodes are all outside the graph has size 0, so its
        cells are over a zero base and read 0, not nan."""
        g = build_graph([F("a", "b")])
        roles = {"a": "A", "b": "A", "z": "Z"}
        vol = group_matrix(g, FOLLOW, roles, AVG_VOLUME)
        assert vol.values == ((0.5, 0.0), (0.0, 0.0)) and vol.flags == ()
        dens = group_matrix(g, FOLLOW, roles, DENSITY)
        assert dens.values == ((0.5, 0.0), (0.0, 0.0))

    def test_empty_group_flag_names_the_group(self):
        """A zero Density base next to a group with no node in the graph
        names that group; only a one-node group's diagonal is "size-1"."""
        g = build_graph([F("a", "b"), F("b", "c")])
        roles = {"a": "A", "b": "A", "c": "C", "z": "Z"}
        dens = group_matrix(g, FOLLOW, roles, DENSITY)
        assert dens.flags == (
            "no node of Z in the graph: density of A->Z reported as 0",
            "size-1 diagonal for C: density reported as 0",
            "no node of Z in the graph: density of C->Z reported as 0",
            "no node of Z in the graph: density of Z->A reported as 0",
            "no node of Z in the graph: density of Z->C reported as 0",
            "no node of Z in the graph: density of Z->Z reported as 0",
        )
        g = build_graph([F("a", "b")])
        dens = group_matrix(g, FOLLOW, {"a": "A", "b": "A", "z": "Z"}, DENSITY)
        assert not any("size-1" in f for f in dens.flags)
        assert dens.flags == (
            "no node of Z in the graph: density of A->Z reported as 0",
            "no node of Z in the graph: density of Z->A reported as 0",
            "no node of Z in the graph: density of Z->Z reported as 0",
        )

    def test_unknown_mode_error(self):
        with pytest.raises(ValueError, match="unknown mode"):
            group_matrix(build_graph([]), FOLLOW, {}, "Volume")

    def test_missing_role_error(self):
        g = build_graph([F("a", "b")])
        with pytest.raises(ValueError, match="lack a role"):
            group_matrix(g, FOLLOW, {"a": "A"}, DENSITY)

    def test_empty_group_error(self):
        g = build_graph([F("a", "b")])
        with pytest.raises(ValueError, match="size 0"):
            group_matrix(g, FOLLOW, {"a": "A", "b": "A"}, DENSITY,
                         group_order=("A", "B"))

    @pytest.mark.parametrize("mode", [AVG_VOLUME, DENSITY, NULL_RATIO])
    def test_role_left_out_of_group_order_error(self, mode):
        g = build_graph([F("a", "b")])
        with pytest.raises(ValueError, match=r"role 'B' is not in group_order \('A',\)"):
            group_matrix(g, FOLLOW, {"a": "A", "b": "B"}, mode, group_order=("A",), seed=0)

    def test_group_order_respected(self):
        g = build_graph([F("a", "b")])
        m = group_matrix(g, FOLLOW, {"a": "Z", "b": "A"}, AVG_VOLUME,
                         group_order=("Z", "A"))
        assert m.groups == ("Z", "A")
        assert m.values[0][1] == 1.0

    def test_total_count_partition_invariant(self):
        rng = np.random.default_rng(4)
        edges = [(f"n{u}", f"n{v}", 1.0, FOLLOW)
                 for u, v in rng.integers(0, 30, size=(200, 2)) if u != v]
        g = build_graph(edges)
        roles = {n: f"G{hash(n) % 3}" for n in g.node_ids}
        m = group_matrix(g, FOLLOW, roles, AVG_VOLUME)
        sizes = {grp: sum(1 for r in roles.values() if r == grp) for grp in m.groups}
        total = sum(m.values[i][j] * sizes[m.groups[i]]
                    for i in range(len(m.groups)) for j in range(len(m.groups)))
        assert round(total) == g.n_edges(FOLLOW)

    def test_complete_digraph_density_ones(self):
        nodes = [f"n{i}" for i in range(5)]
        edges = [F(u, v) for u in nodes for v in nodes if u != v]
        g = build_graph(edges)
        roles = {n: ("A" if i < 2 else "B") for i, n in enumerate(nodes)}
        m = group_matrix(g, FOLLOW, roles, DENSITY)
        assert all(x == 1.0 for row in m.values for x in row)


class TestRewire:
    def test_two_edge_swap(self):
        # the only possible swap yields a->d, c->b; whether a sample ends
        # swapped depends on the seed, and both realizations occur
        g = build_graph([F("a", "b"), F("c", "d")])
        seen = set()
        for seed in range(20):
            out = rewire_null_model(g, FOLLOW, seed=seed, swaps_per_edge=50)
            edges = frozenset((u, v) for u, v, _ in graph_edges(out, FOLLOW))
            assert edges in ({("a", "b"), ("c", "d")}, {("a", "d"), ("c", "b")})
            seen.add(edges)
        assert len(seen) == 2

    def test_degree_sequences_preserved(self):
        rng = np.random.default_rng(9)
        edges = {(int(u), int(v)) for u, v in rng.integers(0, 60, size=(400, 2)) if u != v}
        g = build_graph([(f"n{u}", f"n{v}", 1.0, FOLLOW) for u, v in edges])
        out = rewire_null_model(g, FOLLOW, seed=1)
        assert np.array_equal(out.out_degrees(FOLLOW), g.out_degrees(FOLLOW))
        assert np.array_equal(out.in_degrees(FOLLOW), g.in_degrees(FOLLOW))
        # no self-loops or duplicates appeared
        assert out.n_edges(FOLLOW) == g.n_edges(FOLLOW)
        lay = out.layer(FOLLOW)
        assert (lay.src != lay.dst).all()

    def test_same_seed_identical(self):
        rng = np.random.default_rng(2)
        edges = [(f"n{u}", f"n{v}", 1.0, FOLLOW)
                 for u, v in rng.integers(0, 25, size=(80, 2)) if u != v]
        g = build_graph(edges)
        a = rewire_null_model(g, FOLLOW, seed=7)
        b = rewire_null_model(g, FOLLOW, seed=7)
        assert graph_edges(a, FOLLOW) == graph_edges(b, FOLLOW)

    def test_weights_travel_with_source_slot(self):
        g = build_graph([("a", "b", 5.0, REBLOG), ("c", "d", 7.0, REBLOG)])
        seen = set()
        for seed in range(20):
            out = rewire_null_model(g, REBLOG, seed=seed, swaps_per_edge=50)
            edges = {(u, v): w for u, v, w in graph_edges(out, REBLOG)}
            assert edges in ({("a", "b"): 5.0, ("c", "d"): 7.0},
                             {("a", "d"): 5.0, ("c", "b"): 7.0})
            seen.add(frozenset(edges))
        assert len(seen) == 2

    def test_other_layer_untouched(self):
        g = build_graph([F("a", "b"), F("c", "d"), ("a", "c", 3.0, REBLOG),
                         ("b", "d", 1.0, REBLOG)])
        out = rewire_null_model(g, FOLLOW, seed=3, swaps_per_edge=20)
        assert graph_edges(out, REBLOG) == graph_edges(g, REBLOG)
        assert out.node_ids == g.node_ids

    def test_too_few_edges_error(self):
        g = build_graph([F("a", "b")])
        with pytest.raises(ValueError, match="at least 2"):
            rewire_null_model(g, FOLLOW, seed=0)

    def test_negative_swaps_error(self):
        g = build_graph([F("a", "b"), F("c", "d")])
        with pytest.raises(ValueError, match="at least 0"):
            rewire_null_model(g, FOLLOW, seed=0, swaps_per_edge=-1)


class TestNullRatio:
    def test_identity_samples_give_ones(self):
        # swaps_per_edge=0 leaves every sample equal to the input
        nodes = [f"n{i}" for i in range(6)]
        edges = [F(u, v) for u in nodes for v in nodes if u != v]
        g = build_graph(edges)
        roles = {n: ("A" if i < 3 else "B") for i, n in enumerate(nodes)}
        m = group_matrix(g, FOLLOW, roles, NULL_RATIO, samples=3, seed=5, swaps_per_edge=0)
        assert all(x == 1.0 for row in m.values for x in row)

    def test_seed_required(self):
        g = build_graph([F("a", "b"), F("c", "d")])
        with pytest.raises(ValueError, match="seed"):
            group_matrix(g, FOLLOW, {"a": "A", "b": "A", "c": "A", "d": "A"}, NULL_RATIO)

    @pytest.mark.parametrize("samples", [0, -1])
    def test_samples_below_one_error(self, monkeypatch, samples):
        """Raised before any rewiring, not an all-nan matrix or an
        OverflowError from SeedSequence.spawn."""
        import devgraph.connectivity as connectivity
        monkeypatch.setattr(connectivity, "rewire_null_model", None)
        g = build_graph([F("a", "b"), F("c", "d")])
        with pytest.raises(ValueError, match="^samples must be at least 1$"):
            group_matrix(g, FOLLOW, {"a": "A", "b": "A", "c": "B", "d": "B"}, NULL_RATIO,
                         samples=samples, seed=0)

    def test_planted_two_clique_structure(self):
        rng = np.random.default_rng(12)
        edges = []
        for block, grp in ((range(0, 12), "A"), (range(12, 24), "B")):
            for u in block:
                for v in block:
                    if u != v and rng.random() < 0.8:
                        edges.append((f"n{u}", f"n{v}", 1.0, FOLLOW))
        edges.append(F("n0", "n12"))
        edges.append(F("n13", "n1"))
        g = build_graph(edges)
        roles = {n: ("A" if int(n[1:]) < 12 else "B") for n in g.node_ids}
        m = group_matrix(g, FOLLOW, roles, NULL_RATIO, samples=20, seed=31)
        assert m.values[m.groups.index("A")][m.groups.index("A")] > 1.2
        assert m.values[m.groups.index("B")][m.groups.index("B")] > 1.2
        assert m.values[m.groups.index("A")][m.groups.index("B")] < 0.5
        assert m.values[m.groups.index("B")][m.groups.index("A")] < 0.5

    def test_random_graph_self_consistency(self):
        rng = np.random.default_rng(8)
        seen = set()
        edges = []
        for u, v in rng.integers(0, 40, size=(500, 2)):
            if u != v and (u, v) not in seen:
                seen.add((u, v))
                edges.append((f"n{u}", f"n{v}", 1.0, FOLLOW))
        g = build_graph(edges)
        roles = {n: f"G{int(n[1:]) % 2}" for n in g.node_ids}
        m = group_matrix(g, FOLLOW, roles, NULL_RATIO, samples=50, seed=77)
        for row in m.values:
            for x in row:
                assert 0.5 <= x <= 2.0

    def test_zero_observed_reports_zero(self):
        g = build_graph([F("a1", "a2"), F("a2", "a1"), F("b1", "b2"), F("b2", "b1")])
        roles = {"a1": "A", "a2": "A", "b1": "B", "b2": "B"}
        m = group_matrix(g, FOLLOW, roles, NULL_RATIO, samples=4, seed=1, swaps_per_edge=0)
        assert m.values[m.groups.index("A")][m.groups.index("B")] == 0.0


class TestOutput:
    def test_csv_layout(self, tmp_path):
        g = build_graph([F("a", "b")])
        m = group_matrix(g, FOLLOW, {"a": "A", "b": "B"}, AVG_VOLUME)
        p = tmp_path / "matrix.csv"
        write_group_matrix_csv(m, str(p))
        lines = p.read_text().splitlines()
        assert lines[0] == "origin,A,B"
        assert lines[1] == "A,0,1"
        assert lines[2] == "B,0,0"

    def test_json_inf_encoding(self):
        from devgraph.connectivity import GroupMatrix
        m = GroupMatrix(groups=("A",), values=((math.inf,),), mode=NULL_RATIO,
                        flags=("zero null mean for A->A",))
        data = json.loads(json.dumps(m.as_dict(), allow_nan=False))
        assert data["values"][0][0] == "inf"
