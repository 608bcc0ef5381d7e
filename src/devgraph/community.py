"""Seeded Louvain clustering and weighted undirected modularity on the
symmetrized projection of one graph layer, held as CSR arrays."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .graph import _CSR, LayeredGraph, _entry_rows, _sorted_order, _summed, _weak_components
from .ingest import _csv_rows, _write_rows


@dataclass(frozen=True, eq=False)
class Partition:
    """Each node's community, dense from 0 by first appearance, and its id."""
    node_ids: tuple[str, ...]
    membership: np.ndarray
    modularity: float


def _projection(g: LayeredGraph, layer: str) -> tuple[_CSR, float]:
    """Undirected weighted projection w(u,v) = w(u->v) + w(v->u), and its
    total weight m."""
    lay = g.layer(layer)
    adj = _summed(np.concatenate((lay.src, lay.dst)), np.concatenate((lay.dst, lay.src)),
                  np.concatenate((lay.weight, lay.weight)), g.n_nodes)
    return adj, float(adj.data.sum()) / 2.0


def _first_seen(comm) -> np.ndarray:
    """Community labels renumbered 0, 1, ... in order of first appearance,
    so that per-community sums add up in node order."""
    _, first, inverse = np.unique(np.asarray(comm), return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[inverse]


def _q(adj: _CSR, loops: np.ndarray, m: float, comm) -> float:
    """Q = sum_c (e_c/m - (d_c/2m)^2); loops count once in e_c, twice in d_c."""
    labels = _first_seen(comm)
    row, col, loops = _entry_rows(adj), adj.indices, np.asarray(loops, dtype=np.float64)
    d = np.bincount(labels, np.bincount(row, adj.data, len(labels)) + 2.0 * loops)
    inside = (row < col) & (labels[row] == labels[col])
    e = np.bincount(labels, loops) + np.bincount(labels[row[inside]], adj.data[inside], len(d))
    two_m = 2.0 * m
    return sum(ec / m - (dc / two_m) ** 2 for ec, dc in zip(e.tolist(), d.tolist()))


def modularity(g: LayeredGraph, layer: str, membership: np.ndarray) -> float:
    """Weighted undirected modularity of the community labels
    `membership[i]` of the nodes i, over the full node set."""
    if g.n_nodes == 0:
        raise ValueError("empty graph")
    if len(membership) != g.n_nodes:
        raise ValueError(f"partition has {len(membership)} labels for {g.n_nodes} nodes")
    adj, m = _projection(g, layer)
    if m == 0:
        raise ValueError("no edges")
    return _q(adj, np.zeros(g.n_nodes), m, np.asarray(membership).tolist())


# a move must beat staying by more than this
_TIE = 1e-15


def _sweep(ext: _CSR, k: np.ndarray, tot: np.ndarray, comm: np.ndarray, two_m: float,
           order: np.ndarray) -> tuple[np.ndarray, bool]:
    """One sweep over the nodes `order`, in batches of consecutive nodes,
    each scored against the state at its start; `ext` is the adjacency
    with each row led by an entry of weight 0 to its own node, so that
    every row has a group for its own community. Returns the nodes to visit
    next, which are those that moved or waited and the moved nodes'
    neighbours outside their new communities, and whether any node moved."""
    n, size = len(comm), len(order)
    # the rows' entries in visit order, each with its row's visit position
    lens = np.diff(ext.indptr)[order]
    ends = np.cumsum(lens)
    starts = ends - lens
    row = np.repeat(np.arange(size), lens)
    ent = np.arange(ends[-1]) + np.repeat(ext.indptr[order] - starts, lens)
    nbr, w = ext.indices[ent], ext.data[ent]
    n_batches = max(1, min(16, size // 256))
    bounds = np.arange(n_batches + 1) * size // n_batches
    entry_bounds = np.append(starts, ends[-1])[bounds]
    # pairs of neighbours in one batch, by visit position, the earlier first
    pos = np.full(n, -1)
    pos[order] = np.arange(size)
    at = pos[nbr]
    pair = (at < row) & (at >= np.repeat(bounds[:-1], np.diff(entry_bounds)))
    early, late = at[pair], row[pair]
    pair_bounds = np.searchsorted(late, bounds)
    k_order = k[order]
    step = np.zeros(n)
    moved = np.zeros(size, dtype=bool)
    waited = np.zeros(size, dtype=bool)
    for p0, p1, e0, e1, q0, q1 in zip(bounds[:-1], bounds[1:], entry_bounds[:-1],
                                      entry_bounds[1:], pair_bounds[:-1], pair_bounds[1:]):
        nodes, k_u = order[p0:p1], k_order[p0:p1]
        old = comm[nodes]
        # one sort of the keys (row, neighbour's community) groups each
        # row's entries by community, in entry order
        key, by_key = _sorted_order(row[e0:e1] * n + comm[nbr[e0:e1]], p1 * n)
        first = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        link = np.add.reduceat(w[e0:e1][by_key], first)
        r, c = np.divmod(key[first], n)
        r -= p0
        own = c == old[r]
        k_r = k_u[r]
        gain = link - (tot[c] - own * k_r) * k_r / two_m
        link_old, stay = link[own], gain[own]
        gain[own] = -np.inf
        row_first = np.flatnonzero(np.concatenate(([True], r[1:] != r[:-1])))
        best = np.maximum.reduceat(gain, row_first)
        go = best > stay + _TIE
        if not go.any():
            continue
        # each row's target group: the one with the best gain and, of
        # those, the smallest label
        target = np.minimum.reduceat(np.where(gain == best[r], np.arange(len(r)), len(r)),
                                     row_first)
        # of two neighbours that would both move, the later one waits
        a, z = early[q0:q1] - p0, late[q0:q1] - p0
        wait = z[go[a] & go[z]]
        go[wait] = False
        waited[p0 + wait] = True
        sel = np.flatnonzero(go)
        t, k_m = target[sel], k_u[sel]
        # the batch's exact gain: sum_c (tot'_c^2 - tot_c^2) is
        # sum over the movers' ends of change * (2 tot_c + step_c)
        touched, change = np.concatenate((old[sel], c[t])), np.concatenate((-k_m, k_m))
        np.add.at(step, touched, change)
        before, step_c = tot[touched], step[touched]
        step[touched] = 0.0
        if (link[t] - link_old[sel]).sum() \
                - (change * (before + before + step_c)).sum() / (2.0 * two_m) > _TIE:
            comm[nodes[sel]] = c[t]
            tot[touched] = before + step_c
            moved[p0 + sel] = True
        else:
            for p in p0 + sel:
                moved[p] = _move_one(ext, k, tot, comm, two_m, order[p])
    nxt = np.zeros(n, dtype=bool)
    nxt[order[moved | waited]] = True
    # a moved node's neighbours outside its new community
    out = moved[row]
    out[out] = comm[nbr[out]] != comm[order[row[out]]]
    nxt[nbr[out]] = True
    return np.flatnonzero(nxt), bool(moved.any())


def _move_one(adj: _CSR, k: np.ndarray, tot: np.ndarray, comm: np.ndarray, two_m: float,
              u: int) -> bool:
    """Node u's move by a sweep's rule, scored against the current state;
    returns whether it moved."""
    a, b = adj.indptr[u], adj.indptr[u + 1]
    labels, inverse = np.unique(comm[adj.indices[a:b]], return_inverse=True)
    link = np.bincount(inverse, adj.data[a:b], len(labels))
    old, k_u = comm[u], k[u]
    own = labels == old
    stay = link[own].sum() - (tot[old] - k_u) * k_u / two_m
    gain = np.where(own, -np.inf, link - tot[labels] * k_u / two_m)
    best = int(np.argmax(gain))
    if not gain[best] > stay + _TIE:
        return False
    comm[u] = labels[best]
    tot[old] -= k_u
    tot[labels[best]] += k_u
    return True


def _local_move(adj: _CSR, loops: np.ndarray, m: float, rng: np.random.Generator,
                comm: np.ndarray) -> tuple[np.ndarray, bool]:
    """Batched local move from the communities `comm`, then a split of
    every community into its connected parts. Sweeps visit their nodes in
    an order drawn from `rng`; after a sweep that moves nodes, the next
    visits only those that moved or waited and the moved nodes' neighbours
    outside their new communities, and after one that moves none, a sweep
    visits every node. The phase
    ends after a full sweep that moves nothing. Returns each node's
    community and whether any node moved."""
    n = len(comm)
    rows = _entry_rows(adj)
    k = np.bincount(rows, adj.data, n) + 2.0 * loops
    tot = np.bincount(comm, k, n)
    ext = _CSR(adj.indptr + np.arange(n + 1), np.insert(adj.indices, adj.indptr[:-1], np.arange(n)),
               np.insert(adj.data, adj.indptr[:-1], 0.0))
    everyone = np.flatnonzero(np.diff(adj.indptr))
    visit, full, moved_any = everyone, True, False
    while len(visit):
        nxt, moved = _sweep(ext, k, tot, comm, 2.0 * m, rng.permutation(visit))
        if moved:
            visit, full, moved_any = nxt, False, True
        elif full:
            break
        else:
            visit, full = everyone, True
    # a community whose parts share no edge gains 2 d_A d_B / (2m)^2 in Q
    # from being cut into them
    inner = comm[rows] == comm[adj.indices]
    return _weak_components(n, rows[inner], adj.indices[inner]), moved_any


def _aggregate(adj: _CSR, loops: np.ndarray,
               comm: np.ndarray) -> tuple[_CSR, np.ndarray, np.ndarray]:
    """One node per community, numbered by first appearance: edges between
    communities add up, and the edges inside one become its self-loop."""
    labels = _first_seen(comm)
    size = int(labels.max()) + 1
    cu, cv = labels[_entry_rows(adj)], labels[adj.indices]
    inner = cu == cv
    # an inner edge is stored once per direction
    new_loops = np.bincount(labels, loops) + np.bincount(cu[inner], adj.data[inner], size) / 2.0
    agg = _summed(cu[~inner], cv[~inner], adj.data[~inner], size)
    return agg, new_loops, labels


def _risen(q_prev: float, q_now: float) -> float:
    if q_now < q_prev - 1e-12:
        raise RuntimeError(f"modularity decreased within a pass: "
                           f"{q_prev:.12g} -> {q_now:.12g}")
    return q_now


def louvain(g: LayeredGraph, layer: str, seed: int, tol: float = 1e-7) -> Partition:
    """Two-phase Louvain with batched local moves; stops once a level
    improves modularity by less than tol. Every sweep order comes from one
    np.random.Generator seeded with `seed`. After the last level, one more
    local move runs on the nodes themselves from the partition found, so
    that no single node's move gains. A level or that last phase that
    lowers modularity raises RuntimeError. The modularity returned is
    `modularity(g, layer, membership)`, from the projection built here."""
    if g.n_nodes == 0:
        raise ValueError("empty graph")
    adj, m = _projection(g, layer)
    if m == 0:
        raise ValueError("no edges")
    level0 = adj
    loops = np.zeros(g.n_nodes)
    rng = np.random.default_rng(seed)
    membership = np.arange(g.n_nodes)
    q_prev = _q(adj, loops, m, range(g.n_nodes))
    while True:
        comm, moved = _local_move(adj, loops, m, rng, np.arange(len(loops)))
        q_now = _risen(q_prev, _q(adj, loops, m, comm))
        stop = not moved or q_now - q_prev < tol
        if moved:
            adj, loops, labels = _aggregate(adj, loops, comm)
            membership = labels[membership]
        q_prev = q_now
        if stop:
            break
    membership, _ = _local_move(level0, np.zeros(g.n_nodes), m, rng, membership)
    membership = _first_seen(membership)
    return Partition(g.node_ids, membership,
                     _risen(q_prev, _q(level0, np.zeros(g.n_nodes), m, membership)))


def write_partition_csv(p: Partition, path: str) -> None:
    _write_rows(path, "node,community", sorted(zip(p.node_ids, p.membership.tolist())))


def read_partition_csv(path: str, diagnostics: Counter | None = None) -> dict[str, int]:
    """node,community rows (see `_csv_rows`); a row whose community is not
    an integer is skipped and counted as malformed_rows."""
    return dict(_csv_rows(path, "node,community", "malformed_rows",
                          lambda node, c: (node, int(c)), diagnostics))


def read_role_map_csv(path: str, diagnostics: Counter | None = None) -> dict[int, str]:
    """community,role rows naming each community's functional role (see
    `_csv_rows`); a row whose community is not an integer is skipped and
    counted as malformed_rows."""
    return dict(_csv_rows(path, "community,role", "malformed_rows",
                          lambda c, role: (int(c), role), diagnostics))


def write_role_map_csv(role_map: dict[int, str], path: str) -> None:
    _write_rows(path, "community,role", sorted(role_map.items()))


def roles_from_partition(assignment: dict[str, int], role_map: dict[int, str]) -> dict[str, str]:
    """Node -> role via the community -> role mapping; unmapped communities
    get role "other"."""
    return {node: role_map.get(c, "other") for node, c in assignment.items()}
