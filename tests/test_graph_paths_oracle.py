"""Oracles for the structural statistics: the bit-parallel BFS in
`_path_stats` against the per-source scipy search it replaced and against
the level scan it replaced, which gathered each level in one piece, the
degree-ordered triangle listing in `_triangles` against the scipy
row-block products it replaced and networkx, the hook-and-jump components
behind `gwcc` against scipy's `connected_components`, and `network_stats`
against networkx on the seed-11 fixture."""

import networkx as nx
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csgraph

from devgraph import graph
from devgraph.graph import (
    FOLLOW,
    LAYERS,
    _CSR,
    _PATH_CHUNK,
    _entry_rows,
    _path_stats,
    _triangles,
    _weak_components,
    build_graph,
    network_stats,
)
from devgraph.synth import SynthConfig, planted_graph

from id_helpers import graph_edges, gwcc


def dijkstra_path_stats(u: sp.csr_matrix, n: int, exact: bool, path_samples: int,
                        seed) -> tuple[float, float]:
    """The previous `_path_stats`, verbatim: one scipy BFS per source."""
    if exact:
        sources = np.arange(n)
    else:
        if seed is None:
            raise ValueError("seed required for sampled path estimation")
        rng = np.random.default_rng(seed)
        sources = np.sort(rng.choice(n, size=min(path_samples, n), replace=False))
    total = 0.0
    diameter = 0.0
    for lo in range(0, len(sources), _PATH_CHUNK):
        idx = sources[lo:lo + _PATH_CHUNK]
        dist = csgraph.dijkstra(u, directed=True, unweighted=True, indices=idx)
        total += dist.sum()
        diameter = max(diameter, dist.max())
    spl = total / (len(sources) * (n - 1))
    return spl, diameter


# set bits per byte value, for level_scan_path_stats
_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def _popcount(bits: np.ndarray) -> int:
    return int(_POPCOUNT[bits.view(np.uint8)].sum(dtype=np.int64))


def level_scan_path_stats(u: _CSR, n: int, exact: bool, path_samples: int,
                          seed) -> tuple[float, float]:
    """The previous `_path_stats`, verbatim but for the name: every level
    gathers the live entries' frontier rows in one piece, and a byte table
    counts the bits.

    Mean distance over ordered (source, other node) pairs and the largest
    distance, from every node or from a seeded sample of sources.

    Bit-parallel BFS (Then et al., VLDB 2014): each chunk of up to
    _PATH_CHUNK sources keeps one bit per source in an (n, words) uint64
    frontier and visited set. A level ORs the frontier rows of each node's
    neighbours with one reduceat over the CSR arrays, and the new bits at
    level d add d per bit to an exact integer total. The level gathers only
    the entries that can add a bit: a row that some source has not reached
    yet, and a neighbour on the frontier. A source that misses a node makes
    both results inf."""
    if exact:
        sources = np.arange(n)
    else:
        if seed is None:
            raise ValueError("seed required for sampled path estimation")
        rng = np.random.default_rng(seed)
        sources = np.sort(rng.choice(n, size=min(path_samples, n), replace=False))
    indices = u.indices
    entry_rows = _entry_rows(u)
    total = 0
    diameter = 0
    for lo in range(0, len(sources), _PATH_CHUNK):
        idx = sources[lo:lo + _PATH_CHUNK]
        bit = np.arange(len(idx))
        frontier = np.zeros((n, (len(idx) + 63) // 64), dtype=np.uint64)
        frontier[idx, bit // 64] = np.uint64(1) << (bit % 64).astype(np.uint64)
        visited = frontier.copy()
        # a visited row with every source's bit set
        full = np.bitwise_or.reduce(frontier, axis=0)
        reached = len(idx)
        level = 0
        while True:
            live = np.flatnonzero((visited != full).any(axis=1)[entry_rows]
                                  & frontier.any(axis=1)[indices])
            if not live.size:
                break
            rows = entry_rows[live]
            # reduceat over nonempty runs of one row each
            starts = np.flatnonzero(np.diff(rows, prepend=-1))
            rows = rows[starts]
            new = np.bitwise_or.reduceat(frontier[indices[live]], starts, axis=0) & ~visited[rows]
            found = _popcount(new)
            if not found:
                break
            level += 1
            total += level * found
            reached += found
            visited[rows] |= new
            frontier = np.zeros_like(frontier)
            frontier[rows] = new
        if reached < len(idx) * n:
            return np.inf, np.inf
        diameter = max(diameter, level)
    spl = np.float64(total) / (len(sources) * (n - 1))
    return spl, float(diameter)


# rows of the projection squared at a time by row_block_triangles
_TRIANGLE_ROWS = 2048


def row_block_triangles(u: sp.csr_matrix) -> np.ndarray:
    """The previous `_triangles`, verbatim: blocks of 2,048 rows."""
    blocks = (u[i:i + _TRIANGLE_ROWS] for i in range(0, u.shape[0], _TRIANGLE_ROWS))
    return np.concatenate([np.asarray((rows @ u).multiply(rows).sum(axis=1)).ravel()
                           for rows in blocks])


def two_path_block_triangles(u: sp.csr_matrix, budget: int) -> np.ndarray:
    """The previous `_triangles`, verbatim but for the budget argument: row
    sums of (u @ u) masked by u, over blocks of rows whose 2-paths fit in
    `budget`; a row over the budget is a block of its own."""
    # 2-paths of the rows up to each row
    paths = np.cumsum(u @ np.diff(u.indptr))
    counts = []
    lo = 0
    while lo < u.shape[0]:
        before = paths[lo - 1] if lo else 0
        hi = max(int(np.searchsorted(paths, before + budget, side="right")), lo + 1)
        rows = u[lo:hi]
        counts.append(np.asarray((rows @ u).multiply(rows).sum(axis=1)).ravel())
        lo = hi
    return np.concatenate(counts)


def csgraph_gwcc(g, layer: str) -> set[str]:
    """The previous `gwcc`, verbatim but for building the matrix from the
    layer's arrays: scipy's weak components, ties to the smallest index."""
    if g.n_nodes == 0:
        raise ValueError("empty graph")
    lay = g.layer(layer)
    a = sp.csr_matrix((np.ones(lay.n_edges), (lay.src, lay.dst)),
                      shape=(g.n_nodes, g.n_nodes))
    _, comp = csgraph.connected_components(a, directed=True, connection="weak")
    sizes = np.bincount(comp)
    min_idx = np.full(len(sizes), g.n_nodes, dtype=np.int64)
    np.minimum.at(min_idx, comp, np.arange(g.n_nodes))
    best = min(range(len(sizes)), key=lambda c: (-sizes[c], min_idx[c]))
    return {g.node_ids[i] for i in np.flatnonzero(comp == best)}


def set_reciprocity(src, dst) -> float:
    """The previous reciprocity, verbatim but for the names."""
    edge_set = set(zip(src.tolist(), dst.tolist()))
    reciprocal = sum((v, u) in edge_set for u, v in edge_set)
    return reciprocal / len(src) if len(src) else 0.0


def undirected(n: int, pairs) -> sp.csr_matrix:
    """Symmetric 0/1 CSR over n nodes from (u, v) pairs, loops dropped."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    rows = np.concatenate((pairs[:, 0], pairs[:, 1]))
    cols = np.concatenate((pairs[:, 1], pairs[:, 0]))
    u = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
    u.sum_duplicates()
    u.data = np.ones_like(u.data)
    return u


@st.composite
def graphs(draw, max_nodes=700):
    """A random undirected graph: a core of `core` nodes with random edges
    and, optionally, a spanning path that connects it, plus isolated
    nodes placed last or scattered by a relabelling."""
    core = draw(st.integers(2, max_nodes))
    isolated = draw(st.integers(0, 3))
    n = core + isolated
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(0, 3 * core))
    pairs = rng.integers(0, core, size=(m, 2))
    if draw(st.booleans()):
        order = rng.permutation(core)
        pairs = np.vstack((pairs, np.column_stack((order[:-1], order[1:]))))
    if isolated and draw(st.booleans()):
        pairs = rng.permutation(n)[pairs]
    return undirected(n, pairs), n


def same(got, want):
    assert (float(got[0]), float(got[1])) == (float(want[0]), float(want[1]))


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_exact_matches_dijkstra(case):
    u, n = case
    same(_path_stats(u, n, True, 1000, None), dijkstra_path_stats(u, n, True, 1000, None))


@settings(max_examples=60, deadline=None)
@given(graphs(), st.integers(1, 800), st.integers(0, 2**32 - 1))
def test_sampled_matches_dijkstra(case, path_samples, seed):
    u, n = case
    same(_path_stats(u, n, False, path_samples, seed),
         dijkstra_path_stats(u, n, False, path_samples, seed))


@pytest.mark.parametrize("n", [2, 3, 63, 64, 65, 130, 511, 512, 513, 1100])
def test_connected_sizes_match_dijkstra(n):
    """Source counts on and off 64-bit word and 512-source chunk bounds."""
    rng = np.random.default_rng(n)
    order = rng.permutation(n)
    pairs = list(zip(order[:-1], order[1:])) + [tuple(rng.integers(0, n, size=2))
                                                for _ in range(n // 2)]
    u = undirected(n, pairs)
    got = _path_stats(u, n, True, 1000, None)
    assert np.isfinite(got[0])
    same(got, dijkstra_path_stats(u, n, True, 1000, None))
    same(_path_stats(u, n, False, n // 2 + 1, 9), dijkstra_path_stats(u, n, False, n // 2 + 1, 9))


def test_diameter_seen_only_from_a_later_chunk():
    """A star on the first chunk's sources with a 44-node tail on each side
    of its centre, numbered past the chunk: the longest path joins the two
    tail ends, which only the second chunk's sources see."""
    left, right = list(range(512, 556)), list(range(556, 600))
    pairs = [(0, leaf) for leaf in range(1, 512)]
    for tail in (left, right):
        pairs += list(zip([0] + tail[:-1], tail))
    u = undirected(600, pairs)
    got = _path_stats(u, 600, True, 1000, None)
    assert got[1] == 88.0
    same(got, dijkstra_path_stats(u, 600, True, 1000, None))


def test_two_nodes():
    u = undirected(2, [(0, 1)])
    assert _path_stats(u, 2, True, 1000, None) == (1.0, 1.0)


@pytest.mark.parametrize("pairs, n", [
    ([(0, 1), (1, 2)], 4),            # trailing zero-degree row
    ([(1, 2), (2, 3)], 4),            # leading zero-degree row
    ([(0, 1), (2, 3)], 4),            # two components, no empty row
    ([], 3),                          # no edges at all
    ([(i, i + 1) for i in range(600)] + [(700, 701)], 702),  # split across chunks
])
def test_disconnected_is_inf(pairs, n):
    u = undirected(n, pairs)
    assert _path_stats(u, n, True, 1000, None) == (np.inf, np.inf)
    same(_path_stats(u, n, True, 1000, None), dijkstra_path_stats(u, n, True, 1000, None))


@st.composite
def shaped_graphs(draw):
    """A random graph, a star on one or two hubs whose rows hold every
    leaf, or a path, each optionally with an isolated node (inf) and its
    nodes relabelled."""
    kind = draw(st.sampled_from(["random", "star", "path"]))
    if kind == "random":
        return draw(graphs(max_nodes=300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "star":
        hubs, leaves = draw(st.integers(1, 2)), draw(st.integers(1, 200))
        pairs = [(hub, hubs + leaf) for hub in range(hubs) for leaf in range(leaves)]
        n = hubs + leaves
    else:
        n = draw(st.integers(2, 300))
        pairs = [(i, i + 1) for i in range(n - 1)]
    if draw(st.booleans()):
        n += 1
    pairs = np.asarray(pairs, dtype=np.int64)
    if draw(st.booleans()):
        pairs = rng.permutation(n)[pairs]
    return undirected(n, pairs), n


@settings(max_examples=120, deadline=None)
@given(shaped_graphs(), st.sampled_from([1, 2, 7, 64]), st.booleans(),
       st.integers(1, 400), st.integers(0, 2**32 - 1))
def test_blocks_match_level_scan(case, block, exact, path_samples, seed):
    """Blocks of 1, 2, 7 and 64 entries cut every row run somewhere, and a
    hub's row holds more entries than a block."""
    u, n = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_PATH_BLOCK", block)
        got = _path_stats(u, n, exact, path_samples, seed)
    assert got == level_scan_path_stats(u, n, exact, path_samples, seed)


@pytest.mark.parametrize("exact", [True, False])
def test_hub_row_over_a_block(exact):
    """Two hubs share 4,200 leaves, so from the first hub the second's row
    has 4,200 live entries, more than a block of _PATH_BLOCK."""
    leaves = graph._PATH_BLOCK + 104
    u = undirected(leaves + 2, [(hub, 2 + leaf) for hub in (0, 1) for leaf in range(leaves)])
    got = _path_stats(u, leaves + 2, exact, 600, 4)
    assert got == level_scan_path_stats(u, leaves + 2, exact, 600, 4)
    assert got[1] == 2.0


def check_triangles(u: sp.csr_matrix, budget: int) -> None:
    """`_triangles` under a wedge budget equals both row-block oracles and
    twice networkx's per-node triangle counts."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_TRIANGLE_WEDGES", budget)
        got = _triangles(u)
    assert np.array_equal(got, row_block_triangles(u))
    assert np.array_equal(got, two_path_block_triangles(u, budget))
    tri = nx.triangles(nx.from_scipy_sparse_array(u))
    assert got.tolist() == [2 * tri[i] for i in range(u.shape[0])]


@settings(max_examples=60, deadline=None)
@given(graphs(max_nodes=300), st.one_of(st.integers(1, 64), st.just(1 << 18)))
def test_triangles_match_row_blocks(case, budget):
    u, _n = case
    check_triangles(u, budget)


@pytest.mark.parametrize("budget", [1, 2, 5, 1 << 18])
def test_triangles_without_two_paths(budget):
    u = undirected(5, [])
    assert not u.nnz
    check_triangles(u, budget)


@pytest.mark.parametrize("budget", [1, 5, 29, 30, 31, 1 << 18])
def test_triangles_hub_over_budget(budget):
    """Node 0 joins 30 leaves, and ten leaf pairs close triangles through
    it. The hub ranks highest, so it has no wedges and its triangles are
    listed from the leaves. Nodes 34-42 form a 9-clique: node 34 ranks
    lowest in it, so its 8 out-neighbours make 28 wedges, over every small
    budget, and it forms a block of its own."""
    pairs = [(0, leaf) for leaf in range(1, 31)]
    pairs += [(leaf, leaf + 1) for leaf in range(1, 21, 2)]
    pairs += [(31, 32), (32, 33), (31, 33)]
    pairs += [(a, b) for a in range(34, 43) for b in range(a + 1, 43)]
    u = undirected(43, pairs)
    deg = np.diff(u.indptr)
    assert deg[0] == deg.max() == 30 and deg[34:43].tolist() == [8] * 9
    check_triangles(u, budget)


@st.composite
def edge_arrays(draw):
    """Directed (src, dst) arrays over n nodes: random edges, possibly none,
    with self-loops and repeats, and optionally a run of nodes chained in
    decreasing label order with each link pointing either way, so that the
    smallest label sits at the far end of a long path."""
    n = draw(st.integers(1, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(0, n))
    src, dst = rng.integers(0, n, size=(2, m))
    if n > 1 and draw(st.booleans()):
        chain = np.sort(rng.choice(n, size=draw(st.integers(2, n)), replace=False))[::-1]
        flip = rng.random(len(chain) - 1) < 0.5
        a, b = chain[:-1], chain[1:]
        src = np.concatenate((src, np.where(flip, b, a)))
        dst = np.concatenate((dst, np.where(flip, a, b)))
    return n, src, dst


def min_label_components(n: int, src, dst) -> np.ndarray:
    """scipy's weak components, each named by its smallest node index."""
    a = sp.coo_matrix((np.ones(len(src)), (src, dst)), shape=(n, n))
    _, comp = csgraph.connected_components(a, directed=True, connection="weak")
    smallest = np.full(comp.max() + 1, n)
    np.minimum.at(smallest, comp, np.arange(n))
    return smallest[comp]


@settings(max_examples=100, deadline=None)
@given(edge_arrays())
def test_weak_components_match_csgraph(case):
    n, src, dst = case
    assert np.array_equal(_weak_components(n, src, dst), min_label_components(n, src, dst))


@pytest.mark.parametrize("n", [1, 2, 3, 1000, 5000])
@pytest.mark.parametrize("reverse", [False, True])
def test_weak_components_on_decreasing_paths(n, reverse):
    """One path n-1, n-2, ..., 0, its links all pointing down or all up,
    beside an isolated node n: the label of node 0 has to travel n-1 links."""
    a, b = np.arange(n - 1, 0, -1), np.arange(n - 2, -1, -1)
    src, dst = (b, a) if reverse else (a, b)
    got = _weak_components(n + 1, src, dst)
    assert got.tolist() == [0] * n + [n]
    assert np.array_equal(got, min_label_components(n + 1, src, dst))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 30), st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29),
                                              st.sampled_from(LAYERS)), max_size=60))
def test_gwcc_matches_csgraph(n, pairs):
    """Equal-size components included, so the tie rule is exercised."""
    g = build_graph([(f"n{a % n}", f"n{b % n}", 1.0, layer) for a, b, layer in pairs]
                    + [(f"n{i}", f"n{i}", 1.0, FOLLOW) for i in range(n)])
    if g.n_nodes:
        for layer in LAYERS:
            assert gwcc(g, layer) == csgraph_gwcc(g, layer)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 40), st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)),
                                    max_size=200))
def test_reciprocity_matches_set_count(n, pairs):
    g = build_graph([(f"n{a % n}", f"n{b % n}", 1.0, FOLLOW) for a, b in pairs]
                    + [(f"n{i}", f"n{i + 1}", 1.0, FOLLOW) for i in range(n - 1)])
    s = network_stats(g, FOLLOW)
    lay = g.layer(FOLLOW)
    assert s.reciprocity == set_reciprocity(lay.src, lay.dst)


@pytest.mark.parametrize("layer", LAYERS)
def test_seed_11_fixture_against_networkx(layer):
    g, _roles = planted_graph(SynthConfig(seed=11))
    component = gwcc(g, layer)
    directed = nx.DiGraph()
    directed.add_edges_from((s, d) for s, d, _w in graph_edges(g, layer)
                            if s in component and d in component)
    projection = directed.to_undirected()
    stats = network_stats(g, layer, exact_paths=True)
    assert stats.n == projection.number_of_nodes()
    assert stats.avg_shortest_path == nx.average_shortest_path_length(projection)
    assert stats.diameter == nx.diameter(projection)
    assert stats.reciprocity == nx.overall_reciprocity(directed)
