"""Layered directed graph store (follow + weighted reblog) and structural statistics.

Edge direction i -> j means i follows / reblogs j, i.e. information flows
from j to i. Both layers share one node universe with dense integer
indices assigned in first-seen order; external ids are strings.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .ingest import (
    _BATCH,
    _codes,
    _coded_rows,
    _csv_rows,
    _encoded,
    _float_text,
    _tsv_rows,
    _used,
    _write_lines,
    _write_rows,
)

FOLLOW = "F"
REBLOG = "R"
LAYERS = (FOLLOW, REBLOG)

# above this GWCC size, shortest paths are estimated from sampled BFS sources
EXACT_PATH_LIMIT = 10_000

_PATH_CHUNK = 512
# live entries gathered at a time in a level of _path_stats
_PATH_BLOCK = 1 << 12


def _indptr(rows: np.ndarray, n_rows: int) -> np.ndarray:
    """CSR row pointers of the entries in rows `rows`, once stored in row order."""
    return np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n_rows))))


class _CSR(NamedTuple):
    """A square sparse matrix as CSR arrays, each row's columns ascending."""
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray


def _summed(rows: np.ndarray, cols: np.ndarray, weights: np.ndarray, size: int) -> _CSR:
    """size x size CSR arrays with the weights of repeated (row, col) pairs
    added in input order (np.bincount). Unlike `a + a.T`, it keeps an entry
    that adds up to 0, so every edge makes its ends neighbours whatever its
    weight."""
    keys, inverse = np.unique(rows * size + cols, return_inverse=True)
    return _CSR(_indptr(keys // size, size), keys % size,
                np.bincount(inverse, weights=weights, minlength=len(keys)))


def _sorted_order(keys: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """Keys in [0, bound) sorted, and the stable order that sorts them: one
    np.sort of each key shifted left with its index in the low bits, or,
    where that does not fit in 63 bits, a stable argsort."""
    bits = max(1, (len(keys) - 1).bit_length())
    if (int(bound) - 1).bit_length() + bits > 63:
        order = np.argsort(keys, kind="stable")
        return keys[order], order
    packed = np.sort((keys << bits) | np.arange(len(keys)))
    return packed >> bits, packed & ((1 << bits) - 1)


def _entry_rows(m: _CSR) -> np.ndarray:
    """The row of each stored entry of a CSR matrix, in storage order."""
    return np.repeat(np.arange(len(m.indptr) - 1), np.diff(m.indptr))


class _Layer:
    """One layer as its edge list, built from distinct (src, dst) pairs
    given in any order: the edges sorted by (src, dst), with their weights."""

    def __init__(self, src: np.ndarray, dst: np.ndarray, weight: np.ndarray):
        order = np.lexsort((dst, src))
        self.src = np.asarray(src, dtype=np.int64)[order]
        self.dst = np.asarray(dst, dtype=np.int64)[order]
        self.weight = np.asarray(weight, dtype=np.float64)[order]
        self.n_edges = len(order)


class LayeredGraph:
    """Immutable two-layer directed graph over a shared node universe."""

    def __init__(self, ids: Iterable[str], layers: dict[str, _Layer]):
        self._ids: tuple[str, ...] = tuple(ids)
        self._layers = layers

    # -- node universe ------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self._ids)

    @property
    def node_ids(self) -> tuple[str, ...]:
        return self._ids

    # -- edges ---------------------------------------------------------

    def layer(self, name: str) -> _Layer:
        try:
            return self._layers[name]
        except KeyError:
            raise ValueError(f"unknown layer: {name!r} (expected one of {LAYERS})") from None

    def n_edges(self, layer: str) -> int:
        return self.layer(layer).n_edges

    def out_degrees(self, layer: str) -> np.ndarray:
        return np.bincount(self.layer(layer).src, minlength=self.n_nodes)

    def in_degrees(self, layer: str) -> np.ndarray:
        return np.bincount(self.layer(layer).dst, minlength=self.n_nodes)


def build_graph(edges: Iterable[tuple], diagnostics: Counter | None = None) -> LayeredGraph:
    """Build a LayeredGraph from (src, dst, weight, layer) tuples.

    Node indices are assigned in first-seen order. Self-loops are dropped
    and counted in `diagnostics`; duplicate follow edges deduplicate,
    duplicate reblog edges accumulate weight. Malformed entries are
    skipped and counted, and so is an edge with an id that no
    comma-separated table could hold: one with a comma, or with
    whitespace at either end. The entries go to `_edge_graph` coded by
    `ingest._codes`; one that is not four hashable fields is malformed at
    once.
    """
    if diagnostics is None:
        diagnostics = Counter()
    fields: list = []
    for entry in edges:
        try:
            src, dst, weight, layer = entry
            row = str(src), str(dst), weight, layer
            hash(row)
        except (TypeError, ValueError):
            diagnostics["malformed_edges"] += 1
            continue
        fields += row
    return _edge_graph(*_codes(fields, 4), diagnostics)


def _edge_graph(codes: np.ndarray, values: list, diagnostics: Counter) -> LayeredGraph:
    """build_graph's graph of (src, dst, weight, layer) rows given as a
    (rows, 4) array of codes into their distinct values; each distinct id,
    weight and layer is checked or parsed once."""
    n = len(values)
    good_id = np.zeros(n, dtype=bool)
    ids = _used(codes[:, :2], n)
    good_id[ids] = [node != "" and "," not in node and node == node.strip()
                    for node in map(values.__getitem__, ids.tolist())]
    weight, good_weight = np.zeros(n), np.zeros(n, dtype=bool)
    for i in _used(codes[:, 2], n).tolist():
        try:
            weight[i] = float(values[i])
        except (TypeError, ValueError):
            continue
        good_weight[i] = True
    layer = np.full(n, -1)
    for j, name in enumerate(LAYERS):
        if name in values:
            layer[values.index(name)] = j
    kept = (good_id[codes[:, 0]] & good_id[codes[:, 1]] & good_weight[codes[:, 2]]
            & (layer[codes[:, 3]] >= 0))
    if not kept.all():
        diagnostics["malformed_edges"] += int(np.count_nonzero(~kept))
        codes = codes[kept]
    # the ends of kept edges are the nodes, numbered in first-seen order,
    # src before dst
    seen = codes[:, :2].ravel()
    first = np.full(n, len(seen))
    np.minimum.at(first, seen, np.arange(len(seen)))
    ends = np.flatnonzero(first < len(seen))
    ends = ends[np.argsort(first[ends])]
    node = np.zeros(n, dtype=np.int64)
    node[ends] = np.arange(len(ends))
    u, v = node[codes[:, 0]], node[codes[:, 1]]
    loop = u == v
    if loop.any():
        diagnostics["self_loops_dropped"] += int(np.count_nonzero(loop))
    n_nodes = len(ends)
    layers = {}
    for j, name in enumerate(LAYERS):
        edge = ~loop & (layer[codes[:, 3]] == j)
        keys, inverse = np.unique(u[edge] * n_nodes + v[edge], return_inverse=True)
        # bincount adds each pair's weights in input order
        weights = (np.bincount(inverse, weights=weight[codes[edge, 2]], minlength=len(keys))
                   if name == REBLOG else np.ones(len(keys)))
        layers[name] = _Layer(*divmod(keys, n_nodes), weights)
    return LayeredGraph([values[i] for i in ends.tolist()], layers)


def load_graph(path: str, diagnostics: Counter | None = None) -> LayeredGraph:
    """Load a graph from an edge-list TSV: src<TAB>dst<TAB>weight<TAB>layer.
    Rows without four fields and lines that are not valid UTF-8 are
    skipped and counted in `diagnostics`, and so are the entries that
    build_graph drops: the graph is build_graph's over the rows, node
    order included.

    The file is read in chunks (see `ingest._coded_rows`) into codes into
    its distinct values, so each distinct id, weight and layer of the file
    is checked or parsed once."""
    if diagnostics is None:
        diagnostics = Counter()
    return _edge_graph(*_coded_rows(path, 4, "malformed_lines", diagnostics), diagnostics)


def write_edge_tsv(g: LayeredGraph, path: str) -> None:
    """One src, dst, weight, layer row per edge, follow layer first, each
    layer in its (src, dst) order; written in slices of _BATCH rows, each
    slice's bytes joined from the encoded ids (see `ingest._tsv_rows`),
    with each distinct weight of a slice formatted once, by
    `ingest._float_text`."""
    ids = _encoded(g.node_ids, b"\t")

    def slices():
        for name in LAYERS:
            lay = g.layer(name)
            for lo in range(0, lay.n_edges, _BATCH):
                rows = slice(lo, lo + _BATCH)
                # unique bit patterns, so 0.0 and -0.0 keep their own text
                bits, weight = np.unique(lay.weight[rows].view(np.int64), return_inverse=True)
                weights = _encoded((f"{_float_text(w)}\t{name}"
                                    for w in bits.view(np.float64).tolist()), b"\n")
                yield _tsv_rows([ids[lay.src[rows]], ids[lay.dst[rows]], weights[weight]])

    _write_lines(path, slices())


def _label(node: str, group: str) -> tuple[str, str]:
    if not group:
        raise ValueError("empty group")
    return node, group


def read_labels_csv(path: str, diagnostics: Counter | None = None) -> dict[str, str]:
    """Read a node,group CSV (header optional; see `_csv_rows`); a row
    without a node or a group is skipped and counted as malformed_labels."""
    return dict(_csv_rows(path, "node,group", "malformed_labels", _label, diagnostics))


def write_labels_csv(labels: dict[str, str], path: str) -> None:
    _write_rows(path, "node,group", sorted(labels.items()))


def id_codes(ids: Sequence[str], keys: Iterable[str]) -> np.ndarray:
    """The position in `ids` of each of `keys`, -1 for a key that `ids`
    lacks, from one np.searchsorted over the ids in sorted order: where ids
    become node codes."""
    table, wanted = np.array(ids, dtype=object), np.fromiter(keys, dtype=object)
    if not len(table):
        return np.full(len(wanted), -1, dtype=np.int64)
    order = np.argsort(table, kind="stable")
    at = order[np.minimum(np.searchsorted(table[order], wanted), len(table) - 1)]
    return np.where(table[at] == wanted, at, -1)


def id_mask(ids: Sequence[str], keys: Iterable[str]) -> np.ndarray:
    """Boolean mask over `ids` of those among `keys`."""
    return np.isin(np.arange(len(ids)), id_codes(ids, keys))


def id_values(ids: Sequence[str], table: dict[str, float], fill: float) -> np.ndarray:
    """The table's value for each of `ids` as a float, `fill` where it has none."""
    row = id_codes(list(table), ids)
    return np.append(np.array(list(table.values()), dtype=np.float64), fill)[row]


def _weak_components(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Each node's weakly connected component, named by its smallest node
    index: min-label hooking and pointer jumping over the edge arrays.

    `parent` only ever points to a smaller index in the same component.
    A round hooks the larger root of each edge whose ends disagree onto
    the smaller one, then jumps pointers until every node points at a
    root; it ends when no edge joins two roots."""
    parent = np.arange(n)
    while True:
        ru, rv = parent[src], parent[dst]
        split = ru != rv
        if not split.any():
            return parent
        ru, rv = ru[split], rv[split]
        np.minimum.at(parent, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped


def gwcc(g: LayeredGraph, layer: str) -> np.ndarray:
    """Mask of the layer's giant weakly connected component; ties go to the
    component containing the smallest node index."""
    if g.n_nodes == 0:
        raise ValueError("empty graph")
    lay = g.layer(layer)
    comp = _weak_components(g.n_nodes, lay.src, lay.dst)
    # components are named by their smallest index, and argmax takes the first
    best = int(np.argmax(np.bincount(comp)))
    return comp == best


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


def mean_degree_and_density(n_nodes: int, n_edges: int) -> tuple[float, float]:
    """<k> = |E|/|N| and D = |E|/(|N|(|N|-1)) straight from the counts."""
    if n_nodes < 2:
        raise ValueError("need at least 2 nodes")
    return n_edges / n_nodes, n_edges / (n_nodes * (n_nodes - 1))


# wedges (pairs of one node's out-neighbours) per block of _triangles
_TRIANGLE_WEDGES = 1 << 14


def _triangles(u: _CSR) -> np.ndarray:
    """Twice each node's triangle count in the symmetric pattern of `u`, by
    degree-ordered triangle listing (Schank & Wagner, WEA 2005).

    Each edge points from the lower to the higher (degree, index) rank, so
    a triangle's lowest node sees the other two as a wedge: a pair of its
    out-neighbours. A wedge closes when its pair's key row*n+col is among
    u's, which are ascending, so one searchsorted looks them all up. Nodes
    are taken in blocks while their wedges fit in _TRIANGLE_WEDGES; a node
    over the budget is a block of its own."""
    indices = np.asarray(u.indices, dtype=np.int64)
    n = len(u.indptr) - 1
    deg = np.diff(u.indptr)
    rows = _entry_rows(u)
    keys = rows * n + indices
    up = (deg[rows] < deg[indices]) | ((deg[rows] == deg[indices]) & (rows < indices))
    src, dst = rows[up], indices[up]
    del rows, up
    out_ptr = _indptr(src, n)
    out_deg = np.diff(out_ptr)
    # wedges of the nodes up to each node
    wedges = np.cumsum(out_deg * (out_deg - 1) // 2)
    counts = np.zeros(n, dtype=np.int64)
    lo = 0
    while lo < n:
        before = wedges[lo - 1] if lo else 0
        hi = max(int(np.searchsorted(wedges, before + _TRIANGLE_WEDGES, side="right")), lo + 1)
        if wedges[hi - 1] > before:
            # each out-edge pairs with the later out-edges of its node
            first = np.arange(out_ptr[lo], out_ptr[hi])
            later = np.repeat(out_ptr[lo + 1:hi + 1], out_deg[lo:hi]) - first - 1
            a = np.repeat(first, later)
            b = a + 1 + np.arange(len(a)) - np.repeat(np.cumsum(later) - later, later)
            wanted = dst[a] * n + dst[b]
            found = keys[np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)]
            closed = found == wanted
            for ends in (src[a[closed]], dst[a[closed]], dst[b[closed]]):
                np.add.at(counts, ends, 2)
        lo = hi
    return counts


def _path_stats(u: _CSR, n: int, exact: bool, path_samples: int,
                seed) -> tuple[float, float]:
    """Mean distance over ordered (source, other node) pairs and the largest
    distance, from every node or from a seeded sample of sources.

    Bit-parallel BFS (Then et al., VLDB 2014): each chunk of up to
    _PATH_CHUNK sources keeps one bit per source in an (n, words) uint64
    frontier and visited set. A level ORs the frontier rows of each node's
    neighbours with reduceat over the CSR arrays, and the new bits at level
    d add d per bit to an exact integer total. The level gathers only the
    entries that can add a bit: a row that some source has not reached
    yet, and a neighbour on the frontier. It gathers them in blocks of at
    most _PATH_BLOCK entries cut at row starts, so that a block stays in
    cache; a row with more entries is a block of its own. A source that
    misses a node makes both results inf."""
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
        # the rows some source has not reached, and the rows on the frontier,
        # kept up to date on the rows a level touches
        open_rows = (visited != full).any(axis=1)
        on = np.zeros(n, dtype=bool)
        on[idx] = True
        rows = idx
        reached = len(idx)
        level = 0
        while True:
            live = np.flatnonzero(open_rows[entry_rows] & on[indices])
            if not live.size:
                break
            cols = indices[live]
            live = entry_rows[live]
            # each row's first live entry, then the end of the last row
            bounds = np.concatenate(([0], np.flatnonzero(live[1:] != live[:-1]) + 1,
                                     [live.size]))
            new = np.empty((len(bounds) - 1, frontier.shape[1]), dtype=np.uint64)
            a = 0
            while a < len(new):
                b = max(int(np.searchsorted(bounds, bounds[a] + _PATH_BLOCK, side="right")) - 1,
                        a + 1)
                block = np.take(frontier, cols[bounds[a]:bounds[b]], axis=0)
                np.bitwise_or.reduceat(block, bounds[a:b] - bounds[a], axis=0, out=new[a:b])
                a = b
            frontier[rows] = 0
            on[rows] = False
            rows = live[bounds[:-1]]
            seen = visited[rows]
            new &= ~seen
            found = int(np.bitwise_count(new).sum(dtype=np.int64))
            if not found:
                break
            level += 1
            total += level * found
            reached += found
            seen |= new
            visited[rows] = seen
            open_rows[rows] = (seen != full).any(axis=1)
            frontier[rows] = new
            on[rows] = new.any(axis=1)
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
    if path_samples < 1:
        raise ValueError("path_samples must be at least 1")
    keep = gwcc(g, layer)
    n = int(np.count_nonzero(keep))
    if n < 2:
        raise ValueError("GWCC has fewer than 2 nodes")
    # the GWCC's edges: both ends of an edge lie in one weak component, and
    # numbering the kept nodes in graph order keeps the edges sorted
    lay = g.layer(layer)
    inside = keep[lay.src]
    new_index = np.cumsum(keep) - 1
    src, dst = new_index[lay.src[inside]], new_index[lay.dst[inside]]
    e = len(src)
    avg_degree, density = mean_degree_and_density(n, e)

    # an edge is reciprocated when its reverse's key is among the ascending
    # keys src*n+dst
    keys, wanted = src * n + dst, dst * n + src
    found = keys[np.minimum(np.searchsorted(keys, wanted), e - 1)] == wanted
    reciprocity = int(np.count_nonzero(found)) / e

    # the undirected simple projection; its data, each pair's edge count, goes unread
    u = _summed(np.concatenate((src, dst)), np.concatenate((dst, src)), np.ones(2 * e), n)
    deg = np.diff(u.indptr)
    tri = _triangles(u)
    denom = deg * (deg - 1)
    local = np.divide(tri, denom, out=np.zeros(n), where=denom > 0)
    clustering = float(local.mean())

    exact = exact_paths or n <= EXACT_PATH_LIMIT
    spl, diameter = _path_stats(u, n, exact, path_samples, seed)
    return NetworkStats(n=n, e=e, avg_degree=avg_degree, density=density,
                        reciprocity=reciprocity, clustering=clustering,
                        avg_shortest_path=float(spl), diameter=float(diameter),
                        paths_exact=exact)
