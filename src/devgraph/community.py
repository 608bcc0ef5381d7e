"""Seeded Louvain clustering and weighted undirected modularity on the
symmetrized projection of one graph layer, held as CSR arrays."""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .graph import _CSR, LayeredGraph, _entry_rows, _summed
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
    dense: dict = {}
    return np.array([dense.setdefault(c, len(dense)) for c in comm], dtype=np.int64)


def _q(adj: _CSR, loops: list[float], m: float, comm) -> float:
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
    return _q(adj, [0.0] * g.n_nodes, m, np.asarray(membership).tolist())


def _local_move(adj: _CSR, loops: list[float], m: float,
                comm: list[int], rng: random.Random) -> bool:
    bounds = adj.indptr.tolist()
    cols, weights = adj.indices.tolist(), adj.data.tolist()
    neigh = [(cols[a:b], weights[a:b]) for a, b in zip(bounds, bounds[1:])]
    k = [sum(w) + 2.0 * loop for (_, w), loop in zip(neigh, loops)]
    tot = list(k)
    two_m = 2.0 * m
    moved_any = False
    while True:
        order = list(range(len(neigh)))
        rng.shuffle(order)
        moved = False
        for u in order:
            old, k_u = comm[u], k[u]
            tot[old] -= k_u
            link: dict[int, float] = {old: 0.0}
            for v, wt in zip(*neigh[u]):
                c = comm[v]
                link[c] = link.get(c, 0.0) + wt
            best_c = old
            best_gain = link[old] - tot[old] * k_u / two_m
            for c in sorted(link):
                if c == old:
                    continue
                gain = link[c] - tot[c] * k_u / two_m
                if gain > best_gain + 1e-15:
                    best_gain = gain
                    best_c = c
            comm[u] = best_c
            tot[best_c] += k_u
            if best_c != old:
                moved = True
                moved_any = True
        if not moved:
            return moved_any


def _aggregate(adj: _CSR, loops: list[float],
               comm: list[int]) -> tuple[_CSR, list[float], np.ndarray]:
    """One node per community, numbered by first appearance: edges between
    communities add up, and the edges inside one become its self-loop."""
    labels = _first_seen(comm)
    size = int(labels.max()) + 1
    cu, cv = labels[_entry_rows(adj)], labels[adj.indices]
    inner = cu == cv
    # an inner edge is stored once per direction
    new_loops = np.bincount(labels, loops) + np.bincount(cu[inner], adj.data[inner], size) / 2.0
    agg = _summed(cu[~inner], cv[~inner], adj.data[~inner], size)
    return agg, new_loops.tolist(), labels


def louvain(g: LayeredGraph, layer: str, seed: int, tol: float = 1e-7) -> Partition:
    """Two-phase Louvain with seeded node order; stops once a full pass
    improves modularity by less than tol."""
    if g.n_nodes == 0:
        raise ValueError("empty graph")
    adj, m = _projection(g, layer)
    if m == 0:
        raise ValueError("no edges")
    loops = [0.0] * g.n_nodes
    rng = random.Random(seed)
    membership = np.arange(g.n_nodes)
    q_prev = _q(adj, loops, m, range(g.n_nodes))
    while True:
        comm = list(range(len(adj.indptr) - 1))
        moved = _local_move(adj, loops, m, comm, rng)
        q_now = _q(adj, loops, m, comm)
        if q_now < q_prev - 1e-12:
            raise RuntimeError(f"modularity decreased within a pass: "
                               f"{q_prev:.12g} -> {q_now:.12g}")
        stop = not moved or q_now - q_prev < tol
        if moved:
            adj, loops, labels = _aggregate(adj, loops, comm)
            membership = labels[membership]
        q_prev = q_now
        if stop:
            break
    membership = _first_seen(membership.tolist())
    return Partition(g.node_ids, membership, modularity(g, layer, membership))


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
