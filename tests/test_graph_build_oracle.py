"""The array-built graph store against the dict-of-dicts construction it
replaced, kept here verbatim as oracles: the `_Layer` constructor that
walked `{u: {v: w}}` (less the in-view that `_Layer` no longer keeps),
`build_graph`, `induced_subgraph` (the oracle of the GWCC that
`network_stats` slices out of a layer), the sequential swap chain of
`rewire_null_model`, `planted_graph` with its dense block masks, and
`synth_events` drawing one cascade holder at a time. The batched chain
that replaced the sequential one is checked byte for byte against a
pair-by-pair Python reference of its rule, and in distribution against the
sequential chain.

Every comparison is exact: node ids, build_graph's diagnostics, and every
attribute of each layer, arrays byte for byte with their dtype. Duplicate
reblog weights are summed in input order, so a summation that regroups
them (pairwise, blocked) shows up as a different last bit.

The exceptions are `planted_graph` and `synth_events`. The sparse
sampler draws a binomial count and a uniform set of cells per block, not
the dense masks, so it is checked in law: exact structure, and per-block
follow counts, reblog thinning and single-cell frequencies within
binomial bounds, with the dense sampler held to the same bounds. The
wave sampler draws one uniform per (holder, candidate) pair of a wave,
where the per-holder one drew one per candidate still outside the tree,
so it too is checked in law, with the per-holder sampler held to the same
checks: the cascade invariants on the fixture, a candidate's join and
source frequencies on a hand-built graph within binomial bounds, and the
mean event count over 200 fixtures; and the wave sampler gives the same
events under any pair budget.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from collections.abc import Iterable
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devgraph import graph, synth
from devgraph.connectivity import _edge_counts
from devgraph.diffusion import _CodedEvents, producer_nodes
from devgraph.graph import (
    FOLLOW,
    LAYERS,
    REBLOG,
    LayeredGraph,
    _indptr,
    build_graph,
    id_codes,
    network_stats,
)
from devgraph.synth import (
    GROUPS,
    SynthConfig,
    _follow_prob,
    _node_names,
    planted_graph,
    synth_events,
)

from id_helpers import graph_edges, gwcc, rewire_null_model
from log_helpers import event_rows


class DictLayer:
    """Frozen adjacency for one layer: its edge list in (src, dst) order."""

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


def oracle_build_graph(edges: Iterable[tuple]) -> tuple[LayeredGraph, Counter]:
    """Build a LayeredGraph from (src, dst, weight, layer) tuples; return it
    with the diagnostics Counter.

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
    return LayeredGraph(ids, layers), diagnostics


def oracle_induced_subgraph(g: LayeredGraph, keep: Iterable[str]) -> LayeredGraph:
    """Subgraph over `keep`: edges with both endpoints kept, weights preserved."""
    keep_idx = sorted(g.node_ids.index(n) for n in set(keep))
    remap = {old: new for new, old in enumerate(keep_idx)}
    ids = [g.node_ids[i] for i in keep_idx]
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
    return LayeredGraph(ids, layers)


def oracle_rewire_null_model(g: LayeredGraph, layer: str, seed,
                             swaps_per_edge: int = 10) -> LayeredGraph:
    """Degree-preserving rewiring of one layer by repeated double edge swaps
    (a->b, c->d) => (a->d, c->b); swaps creating self-loops or duplicate
    edges are rejected. Weights travel with their source slot. The other
    layer and the node universe are untouched."""
    lay = g.layer(layer)
    src, dst, weight = lay.src, lay.dst, lay.weight
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
    return LayeredGraph(g.node_ids, layers)


def reference_rewire_null_model(g: LayeredGraph, layer: str, seed,
                                swaps_per_edge: int = 10) -> LayeredGraph:
    """The batch rule of `rewire_null_model`, one slot pair at a time, on
    the same random draws: each batch pairs slot perm[k] with perm[h + k]
    for k < h and swaps (a->b, c->e) => (a->e, c->b) unless that makes a
    self-loop or an existing edge, or another pair proposes one of its new
    edges or one of its old ones."""
    lay = g.layer(layer)
    src, dst, weight = lay.src, lay.dst, lay.weight
    m = len(src)
    if m < 2:
        raise ValueError("layer needs at least 2 edges to rewire")
    if swaps_per_edge < 0:
        raise ValueError("swaps_per_edge must be at least 0")
    s = src.tolist()
    d = dst.tolist()
    rng = np.random.default_rng(seed)
    for _ in range(math.ceil(swaps_per_edge * m / (m // 2))):
        perm = rng.permutation(m).tolist()
        h = m // 2 - int(rng.integers(2))
        pairs = list(zip(perm[:h], perm[h:2 * h]))
        edges = set(zip(s, d))
        proposed = Counter()
        for i, j in pairs:
            proposed[s[i], d[j]] += 1
            proposed[s[j], d[i]] += 1
        accepted = []
        for i, j in pairs:
            new = ((s[i], d[j]), (s[j], d[i]))
            old = ((s[i], d[i]), (s[j], d[j]))
            if (any(u == v for u, v in new) or any(x in edges for x in new)
                    or any(proposed[x] > 1 for x in new) or any(proposed[x] for x in old)):
                continue
            accepted.append((i, j))
        for i, j in accepted:
            d[i], d[j] = d[j], d[i]
    adj: dict[int, dict[int, float]] = {}
    for u, v, wt in zip(s, d, weight.tolist()):
        adj.setdefault(u, {})[v] = wt
    layers = {name: (DictLayer(g.n_nodes, adj) if name == layer else g.layer(name))
              for name in LAYERS}
    return LayeredGraph(g.node_ids, layers)


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
    return LayeredGraph(ids, layers), roles


def per_holder_synth_events(cfg: SynthConfig, g: LayeredGraph,
                             roles: dict[str, str]) -> _CodedEvents:
    """Reblog cascades rooted at producers, spreading along reblog
    in-neighbors wave by wave; every event references a graph reblog edge.
    A holder's in-neighbors outside the tree each join with
    cascade_join_prob, one uniform draw per candidate in index order."""
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(60)[40])
    join = cfg.cascade_join_prob
    producers = id_codes(g.node_ids, sorted(producer_nodes(roles))).tolist()
    lay = g.layer(REBLOG)
    # in-neighbours by dst; the layer ascends by src within each dst
    indptr = _indptr(lay.dst, g.n_nodes).tolist()
    indices = lay.src[np.argsort(lay.dst, kind="stable")].tolist()
    # the events' columns: graph indices of actor and source, post index, time
    actors, sources, posts, times = array("q"), array("q"), array("q"), array("d")
    n_posts = 0
    for producer in producers:
        for _ in range(cfg.posts_per_producer):
            post, n_posts = n_posts, n_posts + 1
            t0 = post * 10_000
            if cfg.max_cascade_depth <= 0:
                continue
            depth_limit = min(int(rng.geometric(cfg.depth_geom_p)), cfg.max_cascade_depth)
            holders = [producer]
            in_tree = set(holders)
            for depth in range(1, depth_limit + 1):
                joined: list[int] = []
                for holder in holders:
                    cand = [a for a in indices[indptr[holder]:indptr[holder + 1]]
                            if a not in in_tree]
                    if not cand:
                        continue
                    new = [a for a, x in zip(cand, rng.random(len(cand)).tolist()) if x < join]
                    in_tree.update(new)
                    joined += new
                    actors.extend(new)
                    sources.extend([holder] * len(new))
                # a wave shares its post and time
                posts.extend([post] * len(joined))
                times.extend([t0 + depth] * len(joined))
                holders = joined
                if not holders:
                    break
    return _CodedEvents(list(g.node_ids), [f"post_{i:05d}" for i in range(n_posts)],
                        *map(np.asarray, (actors, sources, posts, times)))


# -- comparison ---------------------------------------------------------------

def assert_same_graph(got: LayeredGraph, want: LayeredGraph) -> None:
    """Same node ids, and every attribute of each layer the same: a field
    that one layer has and the other lacks fails too."""
    assert got.node_ids == want.node_ids
    for name in LAYERS:
        a, b = vars(got.layer(name)), vars(want.layer(name))
        assert a.keys() == b.keys(), name
        for attr, x in a.items():
            y = b[attr]
            assert type(x) is type(y), (name, attr)
            if isinstance(x, np.ndarray):
                assert x.dtype == y.dtype and x.shape == y.shape, (name, attr)
                assert x.tobytes() == y.tobytes(), (name, attr)
            else:
                assert x == y, (name, attr)


def assert_same_build(entries: list) -> None:
    """build_graph against the oracle: the graph, and what each counted."""
    diagnostics = Counter()
    got = build_graph(entries, diagnostics)
    want, want_diagnostics = oracle_build_graph(entries)
    assert_same_graph(got, want)
    assert diagnostics == want_diagnostics


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
                    st.sampled_from(AWKWARD).map(repr),
                    st.sampled_from((" 2.5 ", "1_0", True)))
layers = st.sampled_from((FOLLOW, REBLOG, REBLOG))
# ints as ids, read as their str; 3 is also a weight
edge = st.tuples(st.sampled_from(NODES + (1, 3)), st.sampled_from(NODES + (1, 3)), weights, layers)
self_loop = st.sampled_from(NODES + ("lone",)).flatmap(
    lambda n: st.tuples(st.just(n), st.just(n), weights, layers))
malformed = st.sampled_from((
    ("a",), None, ("a", "b", "x", FOLLOW), ("a", "b", None, REBLOG),
    ("a", "b", 1.0, "Z"), ("", "b", 1.0, FOLLOW), ("a", "", 1.0, REBLOG),
    ("g", "h", 1.0, "Z"), (1, 2, 3, REBLOG, "extra"),
    ("a", "b", [1], REBLOG), ("a", "b", 1.0, [FOLLOW]), ("a", "b", "F", FOLLOW),
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


@settings(max_examples=300, deadline=None)
@given(edge_lists())
def test_build_graph_matches_oracle(entries):
    assert_same_build(entries)


@st.composite
def component_graphs(draw):
    """Edges within one to four blocks of nodes, each block's ids apart,
    interleaved: several weak components per layer, some edges reciprocated
    and some nodes isolated (by a self-loop)."""
    entries = []
    for block in range(draw(st.integers(1, 4))):
        size = draw(st.integers(1, 7))
        end = st.integers(0, size - 1)
        for u, v, layer, both in draw(st.lists(st.tuples(end, end, layers, st.booleans()),
                                               max_size=3 * size)):
            entries.append((f"{block}.{u}", f"{block}.{v}", 1.0, layer))
            if both:
                entries.append((f"{block}.{v}", f"{block}.{u}", 1.0, layer))
    return draw(st.permutations(entries))


@settings(max_examples=200, deadline=None)
@given(component_graphs(), st.sampled_from(LAYERS), st.integers(0, 2**32 - 1))
def test_gwcc_slice_matches_oracle_subgraph(entries, layer, seed):
    """network_stats on the GWCC's edges sliced from the layer equals
    network_stats on the oracle's induced subgraph of the GWCC, with exact
    and with sampled paths."""
    g = build_graph(entries)
    got = outcome(network_stats, g, layer, exact_paths=True)
    if not g.n_nodes:
        assert got == (ValueError, "empty graph")
        return
    sub = oracle_induced_subgraph(g, gwcc(g, layer))
    assert got == outcome(network_stats, sub, layer, exact_paths=True)
    with mock.patch.object(graph, "EXACT_PATH_LIMIT", 1):
        sampled = outcome(network_stats, g, layer, path_samples=3, seed=seed)
        assert sampled == outcome(network_stats, sub, layer, path_samples=3, seed=seed)


def test_network_stats_builds_no_layer(monkeypatch):
    """The statistics slice the GWCC out of the layer they have."""
    g = build_graph([("a", "b", 1.0, FOLLOW), ("b", "c", 1.0, FOLLOW), ("x", "y", 1.0, FOLLOW),
                     ("c", "a", 2.0, REBLOG), ("a", "c", 1.0, REBLOG), ("y", "x", 1.0, REBLOG)])

    def refuse(*args, **kwargs):
        raise AssertionError("network_stats built a _Layer")

    monkeypatch.setattr(graph._Layer, "__init__", refuse)
    for layer in LAYERS:
        assert network_stats(g, layer, exact_paths=True).n == 3 - (layer == REBLOG)


@settings(max_examples=200, deadline=None)
@given(edge_lists(), st.sampled_from(LAYERS), st.integers(0, 2**32 - 1),
       st.integers(0, 3))
def test_rewire_matches_oracle(entries, layer, seed, swaps):
    g = build_graph(entries)
    got = outcome(rewire_null_model, g, layer, seed=seed, swaps_per_edge=swaps)
    want = outcome(reference_rewire_null_model, g, layer, seed=seed, swaps_per_edge=swaps)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert_same_graph(got, want)


def test_rewire_agrees_with_sequential_chain_in_distribution():
    """On a 300-edge digraph with two planted groups, mean E(A->B) over 200
    samples of each chain agrees within 4 standard errors, and both move
    well away from the observed count."""
    rng = np.random.default_rng(17)
    edges: set[tuple[int, int]] = set()
    while len(edges) < 300:
        u, v = (int(x) for x in rng.integers(0, 60, size=2))
        if u != v and ((u < 30) == (v < 30) or rng.random() < 0.2):
            edges.add((u, v))
    g = build_graph([(f"n{u}", f"n{v}", 1.0, FOLLOW) for u, v in sorted(edges)])
    # group codes: A is 0, B is 1
    role = np.array([int(int(n[1:]) >= 30) for n in g.node_ids])

    def a_to_b(sample: LayeredGraph) -> int:
        lay = sample.layer(FOLLOW)
        return int(_edge_counts(role[lay.src], role[lay.dst], 2)[0, 1])

    seeds = np.random.SeedSequence(3).spawn(200)
    batched = np.array([a_to_b(rewire_null_model(g, FOLLOW, seed=c)) for c in seeds])
    sequential = np.array([a_to_b(oracle_rewire_null_model(g, FOLLOW, seed=c)) for c in seeds])
    se = math.sqrt(batched.var(ddof=1) / len(batched) + sequential.var(ddof=1) / len(sequential))
    assert abs(batched.mean() - sequential.mean()) <= 4 * se
    observed = a_to_b(g)
    assert min(batched.mean(), sequential.mean()) > observed + 10 * se


def test_build_graph_empty_input():
    assert_same_build([])


def test_many_duplicate_reblog_weights_sum_in_input_order():
    """20k duplicates of one pair: the sum of the dict, added left to
    right, to the last bit."""
    rng = np.random.default_rng(5)
    ws = rng.random(20_000) * 10.0 ** rng.integers(-8, 9, size=20_000)
    entries = [("a", "b", w, REBLOG) for w in ws] + [("b", "a", 1.0, REBLOG)]
    entries += [("b", "a", w, REBLOG) for w in ws[::-1]]
    assert_same_build(entries)


def _scaled(seed: int, factor: int) -> SynthConfig:
    """Every group size times `factor`, every block probability divided by
    it, so the mean degree stays fixed."""
    cfg = SynthConfig(seed=seed)
    return replace(cfg, **{name: value * factor for name, value in vars(cfg).items()
                           if name.startswith("n_") and name != "n_noise_blogs"},
                   **{name: value / factor for name, value in vars(cfg).items()
                      if name.startswith("p_")})


# -- planted_graph in law, with the dense sampler as the reference -----------

SIZE_KEYS = ("n_producer_one", "n_producer_two", "n_bridge_one", "n_bridge_two", "n_outer")
PROB_KEYS = ("p_intra_producer", "p_inter_producer", "p_producer_bridge",
             "p_intra_bridge", "p_bridge_outer", "p_outer_producer", "p_outer_outer")
# standard deviations a binomial count may stray from its mean; a normal
# variable strays further with probability below 6e-7
Z = 5.0


def within_binomial(count, trials, p) -> bool:
    count, trials, p = np.broadcast_arrays(count, trials, p)
    return bool((np.abs(count - trials * p) <= Z * np.sqrt(trials * p * (1 - p))).all())


def block_counts(g: LayeredGraph, roles: dict[str, str], layer: str,
                 weight: float | None = None) -> np.ndarray:
    """A layer's edge counts per (origin group, target group) block, of the
    edges with weight `weight` if it is given."""
    group = np.array([GROUPS.index(roles[node]) for node in g.node_ids], dtype=np.int64)
    lay = g.layer(layer)
    keep = lay.weight == weight if weight is not None else np.ones(lay.n_edges, dtype=bool)
    k = len(GROUPS)
    return np.bincount(group[lay.src[keep]] * k + group[lay.dst[keep]],
                       minlength=k * k).reshape(k, k)


def block_cells(cfg: SynthConfig) -> np.ndarray:
    """Cells per block: rows x cols, less the self cells of a diagonal one."""
    n = np.array([cfg.sizes()[grp] for grp in GROUPS], dtype=np.int64)
    return np.outer(n, n) - np.diag(n)


def block_probs(cfg: SynthConfig) -> np.ndarray:
    return np.array([[_follow_prob(cfg, o, t) for t in GROUPS] for o in GROUPS])


def assert_planted_structure(cfg: SynthConfig, got: LayeredGraph,
                             roles: dict[str, str]) -> None:
    """Node ids and roles as the dense sampler's; no self-loop or repeated
    cell; reblog edges a subset of follow edges with weights 1, 2 or 3."""
    want, want_roles = oracle_planted_graph(cfg)
    assert roles == want_roles and got.node_ids == want.node_ids
    assert Counter(roles.values()) == +Counter(cfg.sizes())
    keys = {}
    for name in LAYERS:
        lay = got.layer(name)
        assert not (lay.src == lay.dst).any()
        keys[name] = lay.src * got.n_nodes + lay.dst
        assert len(np.unique(keys[name])) == lay.n_edges
    assert np.isin(keys[REBLOG], keys[FOLLOW]).all()
    assert set(got.layer(FOLLOW).weight.tolist()) <= {1.0}
    assert set(got.layer(REBLOG).weight.tolist()) <= {1.0, 2.0, 3.0}


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("factor", [1, 4])
def test_planted_graph_matches_oracle(seed, factor):
    """On one scaled recipe the sparse sampler has the dense oracle's
    structure, and each block's follow count differs from the oracle's by
    no more than two independent Binomial(cells, p) counts may."""
    cfg = _scaled(seed, factor)
    got, roles = planted_graph(cfg)
    assert_planted_structure(cfg, got, roles)
    want, want_roles = oracle_planted_graph(cfg)
    cells, p = block_cells(cfg), block_probs(cfg)
    diff = block_counts(got, roles, FOLLOW) - block_counts(want, want_roles, FOLLOW)
    assert (np.abs(diff) <= Z * np.sqrt(2 * cells * p * (1 - p))).all()
    assert within_binomial(block_counts(got, roles, FOLLOW), cells, p)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.tuples(*[st.integers(0, 12)] * 5),
       st.tuples(*[st.sampled_from((0.0, 0.05, 0.3, 1.0))] * 7),
       st.sampled_from((0.0, 0.5, 1.0)))
def test_small_planted_graphs_exact_structure(seed, sizes, probs, reblog):
    """Node ids and roles as the dense sampler's; no self-loop or repeated
    cell; reblog edges a subset of follow edges with weights 1, 2 or 3; and
    every block or thinning with probability 0 or 1 exactly empty or full."""
    cfg = SynthConfig(seed=seed, **dict(zip(SIZE_KEYS, sizes)),
                      **dict(zip(PROB_KEYS, probs)), reblog_given_follow=reblog)
    got, roles = planted_graph(cfg)
    assert_planted_structure(cfg, got, roles)
    follows, cells, p = block_counts(got, roles, FOLLOW), block_cells(cfg), block_probs(cfg)
    assert (follows[p == 0] == 0).all() and (follows[p == 1] == cells[p == 1]).all()
    if reblog in (0.0, 1.0):
        assert got.n_edges(REBLOG) == reblog * got.n_edges(FOLLOW)


@pytest.mark.parametrize("factor", [1, 4])
def test_planted_block_counts_within_binomial_bounds(factor):
    """Summed over 60 seeds, each block's follow count is Binomial(60 *
    cells, p): for the sparse sampler and for the dense one alike."""
    cfg = _scaled(0, factor)
    seeds = range(60)
    trials, p = len(seeds) * block_cells(cfg), block_probs(cfg)
    for sampler in (planted_graph, oracle_planted_graph):
        total = sum(block_counts(*sampler(replace(cfg, seed=s)), FOLLOW) for s in seeds)
        assert within_binomial(total, trials, p), sampler.__name__


def test_planted_reblog_thinning_within_binomial_bounds():
    """Summed over 100 seeds, each block's reblog count is
    Binomial(follow count, reblog_given_follow), and each of the weights
    1, 2 and 3 takes a third of the reblog edges."""
    cfg = replace(SynthConfig(), reblog_given_follow=0.3)
    follows, reblogs = 0, 0
    weights = {w: 0 for w in (1.0, 2.0, 3.0)}
    for seed in range(100):
        g, roles = planted_graph(replace(cfg, seed=seed))
        follows = follows + block_counts(g, roles, FOLLOW)
        reblogs = reblogs + block_counts(g, roles, REBLOG)
        for w in weights:
            weights[w] = weights[w] + block_counts(g, roles, REBLOG, weight=w)
    assert within_binomial(reblogs, follows, cfg.reblog_given_follow)
    assert within_binomial(reblogs.sum(), follows.sum(), cfg.reblog_given_follow)
    for count in weights.values():
        assert within_binomial(count, reblogs, 1 / 3)


def test_planted_diagonal_block_cell_frequencies():
    """A lone group of 4: over 2,000 seeds each of the 12 off-diagonal
    cells is drawn with a frequency within binomial bounds of p, and a
    diagonal cell never."""
    cfg = SynthConfig(n_producer_one=4, n_producer_two=0, n_bridge_one=0,
                      n_bridge_two=0, n_outer=0, p_intra_producer=0.3)
    seeds = range(2000)
    hits = np.zeros((4, 4), dtype=np.int64)
    for seed in seeds:
        lay = planted_graph(replace(cfg, seed=seed))[0].layer(FOLLOW)
        np.add.at(hits, (lay.src, lay.dst), 1)
    assert np.diag(hits).sum() == 0
    assert within_binomial(hits[~np.eye(4, dtype=bool)], len(seeds), 0.3)


# -- synth_events in law, with the per-holder sampler as the reference ---------

def depth_limits(cfg: SynthConfig, n_posts: int) -> np.ndarray:
    """Each post's depth limit, the first draws of synth_events' stream."""
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(60)[40])
    return np.minimum(rng.geometric(cfg.depth_geom_p, n_posts), cfg.max_cascade_depth)


def assert_cascade_invariants(cfg: SynthConfig, g: LayeredGraph, roles: dict[str, str],
                              events: _CodedEvents, limits: np.ndarray | None = None) -> None:
    """Every event is a reblog edge; no (post, actor) appears twice, and
    no post's producer is among its actors; an event's time is its post's
    t0 plus its depth; its source is the post's producer at depth 1 and
    otherwise an actor of the post that joined one wave earlier; and the
    depth stays within the post's limit (max_cascade_depth where the
    limits are not given)."""
    producers = sorted(producer_nodes(roles))
    n_posts = len(producers) * cfg.posts_per_producer
    if limits is None:
        limits = np.full(n_posts, max(cfg.max_cascade_depth, 0))
    reblogs = {(u, v) for u, v, _ in graph_edges(g, REBLOG)}
    depth_of: dict[tuple[str, str], int] = {}
    rows = event_rows(events)
    for ev in rows:
        post = int(ev.post_id.removeprefix("post_"))
        assert 0 <= post < n_posts and ev.post_id == f"post_{post:05d}"
        depth = ev.timestamp - post * 10_000
        assert depth == int(depth) and 1 <= depth <= limits[post], ev
        assert (ev.actor, ev.source) in reblogs, ev
        assert (ev.post_id, ev.actor) not in depth_of, ev
        assert ev.actor != producers[post // cfg.posts_per_producer], ev
        depth_of[ev.post_id, ev.actor] = int(depth)
    for ev in rows:
        post = int(ev.post_id.removeprefix("post_"))
        depth = depth_of[ev.post_id, ev.actor]
        if depth == 1:
            assert ev.source == producers[post // cfg.posts_per_producer], ev
        else:
            assert depth_of.get((ev.post_id, ev.source)) == depth - 1, ev


@pytest.mark.parametrize("seed", [3, 11, 29])
@pytest.mark.parametrize("factor", [1, 4])
def test_synth_events_match_oracle(seed, factor):
    """Both samplers' events keep the cascade invariants on the fixture,
    the wave sampler's within the depth limits it drew."""
    cfg = _scaled(seed, factor)
    g, roles = planted_graph(cfg)
    events = synth_events(cfg, g, roles)
    n_posts = len(producer_nodes(roles)) * cfg.posts_per_producer
    assert len(events)
    assert_cascade_invariants(cfg, g, roles, events, depth_limits(cfg, n_posts))
    assert_cascade_invariants(cfg, g, roles, per_holder_synth_events(cfg, g, roles))
    assert all(type(x) is str for ev in event_rows(events) for x in (ev.actor, ev.source))


HOLDERS = 3
JOIN = 0.5
LAW_SEEDS = 2_000
LAW_POSTS = 10


def holders_graph() -> tuple[LayeredGraph, dict[str, str]]:
    """A producer p whose in-neighbours are the holders h0, h1, h2, and a
    candidate c that reblogs every holder and not p: in wave 2 of a post,
    c is a candidate of each holder that joined in wave 1."""
    holders = [f"h{i}" for i in range(HOLDERS)]
    g = build_graph([(h, "p", 1.0, REBLOG) for h in holders]
                    + [("c", h, 1.0, REBLOG) for h in holders])
    return g, {"p": "producer_one", "c": "outer", **{h: "outer" for h in holders}}


def wave_two_tally(sampler) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Over LAW_SEEDS seeds of LAW_POSTS posts of depth 2 on holders_graph:
    per number j of holders in the tree after wave 1, the posts and the
    posts that c joined; and, over the posts that all holders reached and c
    joined, how often c's source was each holder in holder order."""
    g, roles = holders_graph()
    posts, joins = np.zeros((2, HOLDERS + 1), dtype=np.int64)
    source = np.zeros(HOLDERS, dtype=np.int64)
    for seed in range(LAW_SEEDS):
        cfg = SynthConfig(seed=seed, posts_per_producer=LAW_POSTS, cascade_join_prob=JOIN,
                          depth_geom_p=1e-12, max_cascade_depth=2)
        held: dict[str, int] = {}
        joined: dict[str, str] = {}
        for ev in event_rows(sampler(cfg, g, roles)):
            if ev.actor == "c":
                joined[ev.post_id] = ev.source
            else:
                held[ev.post_id] = held.get(ev.post_id, 0) + 1
        for post_id in (f"post_{i:05d}" for i in range(LAW_POSTS)):
            j = held.get(post_id, 0)
            posts[j] += 1
            joins[j] += post_id in joined
            if j == HOLDERS and post_id in joined:
                source[int(joined[post_id][1:])] += 1
    return posts, joins, source


@pytest.mark.parametrize("sampler", [synth_events, per_holder_synth_events],
                         ids=["waves", "per_holder"])
def test_candidate_joins_at_first_success_in_holder_order(sampler):
    """c joins with probability 1 - (1 - p)^j when j holders reached it in
    wave 1, never with none, and from the i-th holder in holder order
    with probability (1 - p)^i p / (1 - (1 - p)^k) when all k did; each
    count is within Z binomial standard deviations."""
    posts, joins, source = wave_two_tally(sampler)
    assert joins[0] == 0
    j = np.arange(1, HOLDERS + 1)
    assert (posts[1:] >= 1_000).all()
    assert within_binomial(joins[1:], posts[1:], 1 - (1 - JOIN) ** j)
    i = np.arange(HOLDERS)
    assert within_binomial(source, source.sum(),
                           (1 - JOIN) ** i * JOIN / (1 - (1 - JOIN) ** HOLDERS))


def test_event_counts_agree_with_per_holder_sampler():
    """Event counts over 200 default-size fixtures: the two samplers' means
    agree within 4 standard errors."""
    counts = np.array([[len(sampler(cfg, g, roles))
                        for sampler in (synth_events, per_holder_synth_events)]
                       for cfg in map(SynthConfig, range(200))
                       for g, roles in [planted_graph(cfg)]], dtype=np.float64)
    se = math.sqrt(counts[:, 0].var(ddof=1) / len(counts) + counts[:, 1].var(ddof=1) / len(counts))
    assert abs(counts[:, 0].mean() - counts[:, 1].mean()) <= 4 * se


@pytest.mark.parametrize("seed", [3, 11])
def test_synth_events_same_under_any_pair_budget(monkeypatch, seed):
    """Slicing a wave's pairs changes no draw: budgets of 1 and 7 pairs,
    the default and one past every wave give the same events."""
    cfg = _scaled(seed, 4)
    g, roles = planted_graph(cfg)
    runs = []
    for budget in (1, 7, synth._PAIRS, 1 << 40):
        monkeypatch.setattr(synth, "_PAIRS", budget)
        events = synth_events(cfg, g, roles)
        runs.append([events.ids, events.posts]
                    + [col.tobytes() for col in (events.actor, events.source, events.post,
                                                 events.ts)])
    assert runs[0][2] and all(run == runs[0] for run in runs[1:])
