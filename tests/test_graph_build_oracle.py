"""The array-built graph store against the dict-of-dicts construction it
replaced, kept here verbatim as oracles: the `_Layer` constructor that
walked `{u: {v: w}}`, `build_graph`, `induced_subgraph`, the rewired-layer
rebuild of `rewire_null_model` and `planted_graph`.

Every comparison is exact: node ids, diagnostics, labels, and each layer
array byte for byte with its dtype, including the in-view. Duplicate
reblog weights are summed in input order, so a summation that regroups
them (pairwise, blocked) shows up as a different last bit.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devgraph.connectivity import rewire_null_model
from devgraph.graph import (
    FOLLOW,
    LAYERS,
    REBLOG,
    LayeredGraph,
    build_graph,
    induced_subgraph,
)
from devgraph.synth import GROUPS, SynthConfig, _follow_prob, _node_names, planted_graph


class DictLayer:
    """Frozen adjacency for one layer: CSR out-view plus an in-view."""

    def __init__(self, n_nodes: int, adj: dict[int, dict[int, float]]):
        srcs: list[int] = []
        dsts: list[int] = []
        ws: list[float] = []
        for u in sorted(adj):
            row = adj[u]
            for v in sorted(row):
                srcs.append(u)
                dsts.append(v)
                ws.append(row[v])
        self.src = np.asarray(srcs, dtype=np.int64)
        self.dst = np.asarray(dsts, dtype=np.int64)
        self.weight = np.asarray(ws, dtype=np.float64)
        self.n_edges = len(srcs)
        counts = np.bincount(self.src, minlength=n_nodes) if self.n_edges else np.zeros(n_nodes, dtype=np.int64)
        self.out_indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        self.out_indices = self.dst
        self.out_weights = self.weight
        order = np.lexsort((self.src, self.dst)) if self.n_edges else np.array([], dtype=np.int64)
        in_counts = np.bincount(self.dst, minlength=n_nodes) if self.n_edges else np.zeros(n_nodes, dtype=np.int64)
        self.in_indptr = np.concatenate(([0], np.cumsum(in_counts))).astype(np.int64)
        self.in_indices = self.src[order]


def oracle_build_graph(edges: Iterable[tuple], labels: dict[str, str] | None = None) -> LayeredGraph:
    """Build a LayeredGraph from (src, dst, weight, layer) tuples.

    Node indices are assigned in first-seen order. Self-loops are dropped
    and counted; duplicate follow edges deduplicate, duplicate reblog
    edges accumulate weight. Malformed entries are skipped and counted.
    """
    index: dict[str, int] = {}
    ids: list[str] = []
    adj: dict[str, dict[int, dict[int, float]]] = {FOLLOW: {}, REBLOG: {}}
    diagnostics: Counter = Counter()

    def intern(node: str) -> int:
        i = index.get(node)
        if i is None:
            i = len(ids)
            index[node] = i
            ids.append(node)
        return i

    for entry in edges:
        try:
            src, dst, weight, layer = entry
            src, dst = str(src), str(dst)
            weight = float(weight)
        except (TypeError, ValueError):
            diagnostics["malformed_edges"] += 1
            continue
        if layer not in LAYERS or not src or not dst:
            diagnostics["malformed_edges"] += 1
            continue
        u, v = intern(src), intern(dst)
        if u == v:
            diagnostics["self_loops_dropped"] += 1
            continue
        row = adj[layer].setdefault(u, {})
        if layer == REBLOG:
            row[v] = row.get(v, 0.0) + weight
        else:
            row[v] = 1.0
    n = len(ids)
    layers = {name: DictLayer(n, adj[name]) for name in LAYERS}
    return LayeredGraph(ids, layers, labels=labels, diagnostics=diagnostics)


def oracle_induced_subgraph(g: LayeredGraph, keep: Iterable[str]) -> LayeredGraph:
    """Subgraph over `keep`: edges with both endpoints kept, weights preserved."""
    keep_idx = sorted(g.index_of(n) for n in set(keep))
    remap = {old: new for new, old in enumerate(keep_idx)}
    ids = [g.id_of(i) for i in keep_idx]
    mask = np.zeros(g.n_nodes, dtype=bool)
    mask[keep_idx] = True
    layers = {}
    for name in LAYERS:
        lay = g.layer(name)
        sel = mask[lay.src] & mask[lay.dst] if lay.n_edges else np.array([], dtype=bool)
        adj: dict[int, dict[int, float]] = {}
        for u, v, w in zip(lay.src[sel], lay.dst[sel], lay.weight[sel]):
            adj.setdefault(remap[int(u)], {})[remap[int(v)]] = float(w)
        layers[name] = DictLayer(len(ids), adj)
    labels = {n: g.labels[n] for n in ids if n in g.labels} if g.labels else None
    return LayeredGraph(ids, layers, labels=labels)


def oracle_rewire_null_model(g: LayeredGraph, layer: str, seed,
                             swaps_per_edge: int = 10) -> LayeredGraph:
    """Degree-preserving rewiring of one layer by repeated double edge swaps
    (a->b, c->d) => (a->d, c->b); swaps creating self-loops or duplicate
    edges are rejected. Weights travel with their source slot. The other
    layer and the node universe are untouched."""
    src, dst, weight = g.edge_arrays(layer)
    n_edges = len(src)
    if n_edges < 2:
        raise ValueError("layer needs at least 2 edges to rewire")
    edge_set = set(zip(src.tolist(), dst.tolist()))
    rng = np.random.default_rng(seed)
    attempts = swaps_per_edge * n_edges
    picks = rng.integers(0, n_edges, size=(attempts, 2))
    s = src.tolist()
    d = dst.tolist()
    for i, j in picks:
        if i == j:
            continue
        a, b = s[i], d[i]
        c, e = s[j], d[j]
        if a == e or c == b:
            continue
        if (a, e) in edge_set or (c, b) in edge_set:
            continue
        edge_set.discard((a, b))
        edge_set.discard((c, e))
        edge_set.add((a, e))
        edge_set.add((c, b))
        d[i] = e
        d[j] = b
    adj: dict[int, dict[int, float]] = {}
    for u, v, wt in zip(s, d, weight.tolist()):
        adj.setdefault(u, {})[v] = wt
    layers = {name: (DictLayer(g.n_nodes, adj) if name == layer else g.layer(name))
              for name in LAYERS}
    return LayeredGraph(g.node_ids, layers, labels=g.labels,
                        diagnostics=Counter(g.diagnostics))


def oracle_planted_graph(cfg: SynthConfig) -> tuple[LayeredGraph, dict[str, str]]:
    """Stochastic block structure on both layers with ground-truth roles.

    Reblog edges are a seeded thinning of the follow edges, so cascades
    always run along real follow ties.
    """
    names = _node_names(cfg)
    ids = [node for grp in GROUPS for node in names[grp]]
    roles = {node: grp for grp, nodes in names.items() for node in nodes}
    offset = {}
    at = 0
    for grp in GROUPS:
        offset[grp] = at
        at += len(names[grp])
    root = np.random.SeedSequence(cfg.seed)
    block_seeds = iter(root.spawn(len(GROUPS) * len(GROUPS)))
    adj: dict[str, dict[int, dict[int, float]]] = {FOLLOW: {}, REBLOG: {}}
    for origin in GROUPS:
        for target in GROUPS:
            child = next(block_seeds)
            p = _follow_prob(cfg, origin, target)
            rows, cols = len(names[origin]), len(names[target])
            if p <= 0.0 or rows == 0 or cols == 0:
                continue
            rng = np.random.default_rng(child)
            mask = rng.random((rows, cols)) < p
            if origin == target:
                np.fill_diagonal(mask, False)
            reblog_mask = mask & (rng.random((rows, cols)) < cfg.reblog_given_follow)
            weights = rng.integers(1, 4, size=(rows, cols))
            for i, j in zip(*np.nonzero(mask)):
                u, v = offset[origin] + int(i), offset[target] + int(j)
                adj[FOLLOW].setdefault(u, {})[v] = 1.0
                if reblog_mask[i, j]:
                    adj[REBLOG].setdefault(u, {})[v] = float(weights[i, j])
    layers = {name: DictLayer(len(ids), adj[name]) for name in LAYERS}
    return LayeredGraph(ids, layers, labels=roles), roles


# -- comparison ---------------------------------------------------------------

ARRAYS = ("src", "dst", "weight", "out_indptr", "out_indices", "out_weights",
          "in_indptr", "in_indices")


def assert_same_graph(got: LayeredGraph, want: LayeredGraph) -> None:
    assert got.node_ids == want.node_ids
    assert got.diagnostics == want.diagnostics
    assert got.labels == want.labels
    for name in LAYERS:
        a, b = got.layer(name), want.layer(name)
        assert a.n_edges == b.n_edges, name
        for attr in ARRAYS:
            x, y = getattr(a, attr), getattr(b, attr)
            assert x.dtype == y.dtype and x.shape == y.shape, (name, attr)
            assert x.tobytes() == y.tobytes(), (name, attr)


def outcome(fn, *args, **kwargs):
    """The result, or the type and message of the exception raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


# -- random edge lists --------------------------------------------------------

NODES = ("a", "b", "c", "d", "e", "f")
# floats whose sums depend on the order of addition
AWKWARD = (0.1, 0.2, 0.3, 1 / 3, 1e16, -1e16, 1.0, 2.5, 1e-8, -0.0, 3)
weights = st.one_of(st.sampled_from(AWKWARD),
                    st.floats(allow_nan=False, width=64),
                    st.sampled_from(AWKWARD).map(repr))
layers = st.sampled_from((FOLLOW, REBLOG, REBLOG))
edge = st.tuples(st.sampled_from(NODES), st.sampled_from(NODES), weights, layers)
self_loop = st.sampled_from(NODES + ("lone",)).flatmap(
    lambda n: st.tuples(st.just(n), st.just(n), weights, layers))
malformed = st.sampled_from((
    ("a",), None, ("a", "b", "x", FOLLOW), ("a", "b", None, REBLOG),
    ("a", "b", 1.0, "Z"), ("", "b", 1.0, FOLLOW), ("a", "", 1.0, REBLOG),
    ("g", "h", 1.0, "Z"), (1, 2, 3, REBLOG, "extra"),
))


@st.composite
def duplicate_burst(draw):
    """One pair repeated 8 to 40 times with awkward weights: long enough
    that a blocked or pairwise summation regroups the additions."""
    u, v = draw(st.sampled_from([(x, y) for x in NODES for y in NODES if x != y]))
    ws = draw(st.lists(st.sampled_from(AWKWARD[:6]), min_size=8, max_size=40))
    layer = draw(layers)
    return [(u, v, w, layer) for w in ws]


@st.composite
def edge_lists(draw):
    entries = draw(st.lists(st.one_of(edge, edge, edge, self_loop, malformed), max_size=60))
    for _ in range(draw(st.integers(0, 2))):
        entries += draw(duplicate_burst())
    entries = draw(st.permutations(entries))
    # nodes seen only in trailing self-loops are isolated and last
    entries += draw(st.lists(self_loop, max_size=2))
    return entries


labels_maps = st.one_of(st.none(), st.dictionaries(st.sampled_from(NODES + ("zz",)),
                                                   st.sampled_from(("x", "y")), max_size=4))


@settings(max_examples=300, deadline=None)
@given(edge_lists(), labels_maps)
def test_build_graph_matches_oracle(entries, labels):
    assert_same_graph(build_graph(entries, labels=labels),
                      oracle_build_graph(entries, labels=labels))


@settings(max_examples=200, deadline=None)
@given(edge_lists(), labels_maps, st.data())
def test_induced_subgraph_matches_oracle(entries, labels, data):
    g = build_graph(entries, labels=labels)
    want_g = oracle_build_graph(entries, labels=labels)
    ids = g.node_ids
    keep = data.draw(st.one_of(st.just(set()), st.just(set(ids)),
                               st.sets(st.sampled_from(ids)) if ids else st.just(set())))
    assert_same_graph(induced_subgraph(g, keep), oracle_induced_subgraph(want_g, keep))


@settings(max_examples=200, deadline=None)
@given(edge_lists(), st.sampled_from(LAYERS), st.integers(0, 2**32 - 1),
       st.integers(0, 3))
def test_rewire_matches_oracle(entries, layer, seed, swaps):
    g = build_graph(entries)
    got = outcome(rewire_null_model, g, layer, seed=seed, swaps_per_edge=swaps)
    want = outcome(oracle_rewire_null_model, g, layer, seed=seed, swaps_per_edge=swaps)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert_same_graph(got, want)


def test_build_graph_empty_input():
    assert_same_graph(build_graph([]), oracle_build_graph([]))
    assert_same_graph(induced_subgraph(build_graph([]), []),
                      oracle_induced_subgraph(build_graph([]), []))


def test_many_duplicate_reblog_weights_sum_in_input_order():
    """20k duplicates of one pair: the sum of the dict, added left to
    right, to the last bit."""
    rng = np.random.default_rng(5)
    ws = rng.random(20_000) * 10.0 ** rng.integers(-8, 9, size=20_000)
    entries = [("a", "b", w, REBLOG) for w in ws] + [("b", "a", 1.0, REBLOG)]
    entries += [("b", "a", w, REBLOG) for w in ws[::-1]]
    assert_same_graph(build_graph(entries), oracle_build_graph(entries))


def _scaled(seed: int, factor: int) -> SynthConfig:
    """Every group size times `factor`, every block probability divided by
    it, so the mean degree stays fixed."""
    cfg = SynthConfig(seed=seed)
    return replace(cfg, **{name: value * factor for name, value in vars(cfg).items()
                           if name.startswith("n_") and name != "n_noise_blogs"},
                   **{name: value / factor for name, value in vars(cfg).items()
                      if name.startswith("p_")})


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("factor", [1, 4])
def test_planted_graph_matches_oracle(seed, factor):
    cfg = _scaled(seed, factor)
    got, got_roles = planted_graph(cfg)
    want, want_roles = oracle_planted_graph(cfg)
    assert got_roles == want_roles
    assert_same_graph(got, want)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.tuples(*[st.integers(0, 12)] * 5),
       st.tuples(*[st.sampled_from((0.0, 0.05, 0.3, 1.0))] * 7),
       st.sampled_from((0.0, 0.5, 1.0)))
def test_small_planted_graphs_match_oracle(seed, sizes, probs, reblog):
    cfg = SynthConfig(seed=seed, **dict(zip(
        ("n_producer_one", "n_producer_two", "n_bridge_one", "n_bridge_two", "n_outer"), sizes)),
        **dict(zip(("p_intra_producer", "p_inter_producer", "p_producer_bridge",
                    "p_intra_bridge", "p_bridge_outer", "p_outer_producer",
                    "p_outer_outer"), probs)),
        reblog_given_follow=reblog)
    got, got_roles = planted_graph(cfg)
    want, want_roles = oracle_planted_graph(cfg)
    assert got_roles == want_roles
    assert_same_graph(got, want)
