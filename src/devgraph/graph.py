"""Layered directed graph store (follow + weighted reblog) and structural statistics.

Edge direction i -> j means i follows / reblogs j, i.e. information flows
from j to i. Both layers share one node universe with dense integer
indices assigned in first-seen order; external ids are strings.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .ingest import decoded_lines

FOLLOW = "F"
REBLOG = "R"
LAYERS = (FOLLOW, REBLOG)

# above this GWCC size, shortest paths are estimated from sampled BFS sources
EXACT_PATH_LIMIT = 10_000

_PATH_CHUNK = 512


class _Layer:
    """Frozen adjacency for one layer: CSR out-view plus an in-view, built
    from distinct (src, dst) pairs given in any order."""

    def __init__(self, n_nodes: int, src: np.ndarray, dst: np.ndarray, weight: np.ndarray):
        order = np.lexsort((dst, src))
        self.src = np.asarray(src, dtype=np.int64)[order]
        self.dst = np.asarray(dst, dtype=np.int64)[order]
        self.weight = np.asarray(weight, dtype=np.float64)[order]
        self.n_edges = len(order)
        self.out_indptr = np.concatenate(([0], np.cumsum(np.bincount(self.src, minlength=n_nodes))))
        self.out_indices = self.dst
        self.out_weights = self.weight
        self.in_indptr = np.concatenate(([0], np.cumsum(np.bincount(self.dst, minlength=n_nodes))))
        self.in_indices = self.src[np.lexsort((self.src, self.dst))]

    def out_row(self, u: int) -> np.ndarray:
        return self.out_indices[self.out_indptr[u]:self.out_indptr[u + 1]]

    def out_row_weights(self, u: int) -> np.ndarray:
        return self.out_weights[self.out_indptr[u]:self.out_indptr[u + 1]]

    def in_row(self, u: int) -> np.ndarray:
        return self.in_indices[self.in_indptr[u]:self.in_indptr[u + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        row = self.out_row(u)
        i = np.searchsorted(row, v)
        return i < len(row) and row[i] == v

    def csr(self, n_nodes: int, weighted: bool = True) -> sp.csr_matrix:
        data = self.weight if weighted else np.ones(self.n_edges, dtype=np.float64)
        return sp.csr_matrix((data, self.out_indices, self.out_indptr), shape=(n_nodes, n_nodes))


class LayeredGraph:
    """Immutable two-layer directed graph over a shared node universe."""

    def __init__(self, ids: Iterable[str], layers: dict[str, _Layer],
                 labels: dict[str, str] | None = None,
                 diagnostics: Counter | None = None):
        self._ids: tuple[str, ...] = tuple(ids)
        self._index: dict[str, int] = {b: i for i, b in enumerate(self._ids)}
        self._layers = layers
        self.labels: dict[str, str] = dict(labels) if labels else {}
        self.diagnostics: Counter = diagnostics if diagnostics is not None else Counter()

    # -- node universe ------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self._ids)

    @property
    def node_ids(self) -> tuple[str, ...]:
        return self._ids

    def has_node(self, node: str) -> bool:
        return node in self._index

    def index_of(self, node: str) -> int:
        try:
            return self._index[node]
        except KeyError:
            raise ValueError(f"unknown node: {node!r}") from None

    def id_of(self, idx: int) -> str:
        return self._ids[idx]

    # -- edges ---------------------------------------------------------

    def layer(self, name: str) -> _Layer:
        try:
            return self._layers[name]
        except KeyError:
            raise ValueError(f"unknown layer: {name!r} (expected one of {LAYERS})") from None

    def n_edges(self, layer: str) -> int:
        return self.layer(layer).n_edges

    def out_neighbors(self, layer: str, node: str) -> tuple[str, ...]:
        row = self.layer(layer).out_row(self.index_of(node))
        return tuple(self._ids[v] for v in row)

    def in_neighbors(self, layer: str, node: str) -> tuple[str, ...]:
        row = self.layer(layer).in_row(self.index_of(node))
        return tuple(self._ids[v] for v in row)

    def out_degree(self, layer: str, node: str) -> int:
        return len(self.layer(layer).out_row(self.index_of(node)))

    def in_degree(self, layer: str, node: str) -> int:
        return len(self.layer(layer).in_row(self.index_of(node)))

    def out_degrees(self, layer: str) -> np.ndarray:
        return np.diff(self.layer(layer).out_indptr)

    def in_degrees(self, layer: str) -> np.ndarray:
        return np.diff(self.layer(layer).in_indptr)

    def has_edge(self, layer: str, src: str, dst: str) -> bool:
        return self.layer(layer).has_edge(self.index_of(src), self.index_of(dst))

    def edge_weight(self, layer: str, src: str, dst: str) -> float:
        lay = self.layer(layer)
        u, v = self.index_of(src), self.index_of(dst)
        row = lay.out_row(u)
        i = np.searchsorted(row, v)
        if i < len(row) and row[i] == v:
            return float(lay.out_row_weights(u)[i])
        return 0.0

    def edges(self, layer: str) -> Iterator[tuple[str, str, float]]:
        lay = self.layer(layer)
        for u, v, w in zip(lay.src, lay.dst, lay.weight):
            yield self._ids[u], self._ids[v], float(w)

    def edge_arrays(self, layer: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Internal-index (src, dst, weight) arrays for the layer."""
        lay = self.layer(layer)
        return lay.src.copy(), lay.dst.copy(), lay.weight.copy()

    def adjacency(self, layer: str, weighted: bool = True) -> sp.csr_matrix:
        return self.layer(layer).csr(self.n_nodes, weighted=weighted)


def build_graph(edges: Iterable[tuple], labels: dict[str, str] | None = None) -> LayeredGraph:
    """Build a LayeredGraph from (src, dst, weight, layer) tuples.

    Node indices are assigned in first-seen order. Self-loops are dropped
    and counted; duplicate follow edges deduplicate, duplicate reblog
    edges accumulate weight. Malformed entries are skipped and counted.
    """
    index: dict[str, int] = {}
    ids: list[str] = []
    pairs: dict[str, tuple[list, list, list]] = {name: ([], [], []) for name in LAYERS}
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
        us, vs, ws = pairs[layer]
        us.append(u)
        vs.append(v)
        ws.append(weight)
    n = len(ids)
    layers = {}
    for name, (us, vs, ws) in pairs.items():
        keys, inverse = np.unique(np.asarray(us, dtype=np.int64) * n + np.asarray(vs, dtype=np.int64),
                                  return_inverse=True)
        # bincount adds each pair's weights in input order
        weights = (np.bincount(inverse, weights=ws, minlength=len(keys)) if name == REBLOG
                   else np.ones(len(keys)))
        layers[name] = _Layer(n, *divmod(keys, n), weights)
    return LayeredGraph(ids, layers, labels=labels, diagnostics=diagnostics)


def load_graph(path: str) -> LayeredGraph:
    """Load a graph from an edge-list TSV: src<TAB>dst<TAB>weight<TAB>layer.
    Rows without four fields and lines that are not valid UTF-8 are
    skipped and counted in the graph's diagnostics."""
    diagnostics: Counter = Counter()

    def parse(lines):
        for line in lines:
            parts = line.split("\t")
            if len(parts) == 4:
                yield parts
            else:
                diagnostics["malformed_lines"] += 1

    g = build_graph(parse(decoded_lines(path, diagnostics)))
    g.diagnostics.update(diagnostics)
    return g


def write_edge_tsv(g: LayeredGraph, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for layer in LAYERS:
            for src, dst, w in g.edges(layer):
                fh.write(f"{src}\t{dst}\t{w:g}\t{layer}\n")


def read_labels_csv(path: str) -> dict[str, str]:
    """Read a node,group CSV (header optional)."""
    labels: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.lower() == "node,group":
                continue
            node, _, group = line.partition(",")
            if node and group:
                labels[node] = group
    return labels


def write_labels_csv(labels: dict[str, str], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("node,group\n")
        for node in sorted(labels):
            fh.write(f"{node},{labels[node]}\n")


def snowball_sample(g: LayeredGraph, seeds: Iterable[str], hops: int = 3) -> set[str]:
    """Nodes within undirected distance <= hops of any seed, over both layers."""
    frontier: set[int] = set()
    for s in seeds:
        if not g.has_node(s):
            raise ValueError(f"unknown seed node: {s!r}")
        frontier.add(g.index_of(s))
    visited = set(frontier)
    lays = [g.layer(name) for name in LAYERS]
    for _ in range(hops):
        if not frontier:
            break
        nxt: set[int] = set()
        for u in frontier:
            for lay in lays:
                for v in lay.out_row(u):
                    if v not in visited:
                        nxt.add(int(v))
                for v in lay.in_row(u):
                    if v not in visited:
                        nxt.add(int(v))
        visited |= nxt
        frontier = nxt
    return {g.id_of(i) for i in visited}


def induced_subgraph(g: LayeredGraph, keep: Iterable[str]) -> LayeredGraph:
    """Subgraph over `keep`: edges with both endpoints kept, weights preserved."""
    keep_idx = sorted(g.index_of(n) for n in set(keep))
    ids = [g.id_of(i) for i in keep_idx]
    mask = np.zeros(g.n_nodes, dtype=bool)
    mask[keep_idx] = True
    new_index = np.cumsum(mask) - 1
    layers = {}
    for name in LAYERS:
        lay = g.layer(name)
        sel = mask[lay.src] & mask[lay.dst]
        layers[name] = _Layer(len(ids), new_index[lay.src[sel]], new_index[lay.dst[sel]],
                              lay.weight[sel])
    labels = {n: g.labels[n] for n in ids if n in g.labels} if g.labels else None
    return LayeredGraph(ids, layers, labels=labels)


def gwcc(g: LayeredGraph, layer: str) -> set[str]:
    """Giant weakly connected component of the layer; ties go to the
    component containing the smallest node index."""
    if g.n_nodes == 0:
        raise ValueError("empty graph")
    a = g.adjacency(layer, weighted=False)
    _, comp = csgraph.connected_components(a, directed=True, connection="weak")
    sizes = np.bincount(comp)
    min_idx = np.full(len(sizes), g.n_nodes, dtype=np.int64)
    np.minimum.at(min_idx, comp, np.arange(g.n_nodes))
    best = min(range(len(sizes)), key=lambda c: (-sizes[c], min_idx[c]))
    return {g.id_of(i) for i in np.flatnonzero(comp == best)}


@dataclass
class NetworkStats:
    """Structural statistics of one layer's giant weakly connected component."""
    n: int
    e: int
    avg_degree: float
    density: float
    reciprocity: float
    clustering: float
    avg_shortest_path: float
    diameter: float
    paths_exact: bool

    def as_dict(self) -> dict:
        return {
            "n": self.n, "e": self.e,
            "avg_degree": self.avg_degree, "density": self.density,
            "reciprocity": self.reciprocity, "clustering": self.clustering,
            "avg_shortest_path": self.avg_shortest_path, "diameter": self.diameter,
            "paths_exact": self.paths_exact,
        }


def mean_degree_and_density(n_nodes: int, n_edges: int) -> tuple[float, float]:
    """<k> = |E|/|N| and D = |E|/(|N|(|N|-1)) straight from the counts."""
    if n_nodes < 2:
        raise ValueError("need at least 2 nodes")
    return n_edges / n_nodes, n_edges / (n_nodes * (n_nodes - 1))


def _undirected_projection(g: LayeredGraph, layer: str) -> sp.csr_matrix:
    a = g.adjacency(layer, weighted=False)
    u = a + a.T
    u.data = np.ones_like(u.data)
    return u.tocsr()


# set bits per byte value; np.bitwise_count needs numpy >= 2.0
_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def _popcount(bits: np.ndarray) -> int:
    return int(_POPCOUNT[bits.view(np.uint8)].sum(dtype=np.int64))


def _path_stats(u: sp.csr_matrix, n: int, exact: bool, path_samples: int,
                seed) -> tuple[float, float]:
    """Mean distance over ordered (source, other node) pairs and the largest
    distance, from every node or from a seeded sample of sources.

    Bit-parallel BFS (Then et al., VLDB 2014): each chunk of up to
    _PATH_CHUNK sources keeps one bit per source in an (n, words) uint64
    frontier and visited set. A level ORs the frontier rows of every node's
    neighbours with one reduceat over the CSR arrays, and the new bits at
    level d add d per bit to an exact integer total. A source that misses a
    node makes both results inf."""
    if exact:
        sources = np.arange(n)
    else:
        if seed is None:
            raise ValueError("seed required for sampled path estimation")
        rng = np.random.default_rng(seed)
        sources = np.sort(rng.choice(n, size=min(path_samples, n), replace=False))
    # reduceat over the nonempty rows only: an empty row would copy its
    # neighbour's element, or raise when it starts at nnz
    rows = np.flatnonzero(np.diff(u.indptr))
    starts = u.indptr[rows]
    total = 0
    diameter = 0
    for lo in range(0, len(sources), _PATH_CHUNK):
        idx = sources[lo:lo + _PATH_CHUNK]
        bit = np.arange(len(idx))
        frontier = np.zeros((n, (len(idx) + 63) // 64), dtype=np.uint64)
        frontier[idx, bit // 64] = np.uint64(1) << (bit % 64).astype(np.uint64)
        visited = frontier.copy()
        reached = len(idx)
        level = 0
        while True:
            nxt = np.zeros_like(frontier)
            if rows.size:
                nxt[rows] = np.bitwise_or.reduceat(frontier[u.indices], starts, axis=0)
            nxt &= ~visited
            found = _popcount(nxt)
            if not found:
                break
            level += 1
            total += level * found
            reached += found
            visited |= nxt
            frontier = nxt
        if reached < len(idx) * n:
            return np.inf, np.inf
        diameter = max(diameter, level)
    spl = np.float64(total) / (len(sources) * (n - 1))
    return spl, float(diameter)


def network_stats(g: LayeredGraph, layer: str, exact_paths: bool = False,
                  path_samples: int = 1000, seed=None) -> NetworkStats:
    """Table-style statistics of the layer, computed on its GWCC.

    Average shortest path and diameter use the undirected simple
    projection and a bit-parallel BFS from 512 sources at a time; for
    components above EXACT_PATH_LIMIT nodes (and without exact_paths) they
    are estimated from `path_samples` seeded BFS sources and the diameter
    is a lower bound (paths_exact=False).
    """
    component = gwcc(g, layer)
    sub = induced_subgraph(g, component)
    n = sub.n_nodes
    if n < 2:
        raise ValueError("GWCC has fewer than 2 nodes")
    lay = sub.layer(layer)
    e = lay.n_edges
    avg_degree, density = mean_degree_and_density(n, e)

    # an edge is reciprocated when its reverse's key src*n+dst is an edge key
    reciprocal = int(np.count_nonzero(np.isin(lay.dst * n + lay.src, lay.src * n + lay.dst)))
    reciprocity = reciprocal / e if e else 0.0

    u = _undirected_projection(sub, layer)
    deg = np.asarray(u.sum(axis=1)).ravel()
    tri = np.asarray((u @ u).multiply(u).sum(axis=1)).ravel()
    denom = deg * (deg - 1)
    local = np.divide(tri, denom, out=np.zeros(n), where=denom > 0)
    clustering = float(local.mean())

    exact = exact_paths or n <= EXACT_PATH_LIMIT
    spl, diameter = _path_stats(u, n, exact, path_samples, seed)
    return NetworkStats(n=n, e=e, avg_degree=avg_degree, density=density,
                        reciprocity=reciprocity, clustering=clustering,
                        avg_shortest_path=float(spl), diameter=float(diameter),
                        paths_exact=exact)
