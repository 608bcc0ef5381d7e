"""Seeded Louvain clustering and weighted undirected modularity on the
symmetrized projection of one graph layer."""

from __future__ import annotations

import random
from dataclasses import dataclass

from .graph import LayeredGraph


@dataclass(frozen=True)
class Partition:
    """Node-to-community assignment with community ids dense from 0."""
    assignment: dict[str, int]
    modularity: float

    def communities(self) -> dict[int, set[str]]:
        out: dict[int, set[str]] = {}
        for node, c in self.assignment.items():
            out.setdefault(c, set()).add(node)
        return out


def _symmetrized(g: LayeredGraph, layer: str) -> tuple[list[dict[int, float]], float]:
    """Undirected weighted projection: w(u,v) = w(u->v) + w(v->u)."""
    n = g.n_nodes
    neigh: list[dict[int, float]] = [{} for _ in range(n)]
    src, dst, w = g.edge_arrays(layer)
    for u, v, wt in zip(src.tolist(), dst.tolist(), w.tolist()):
        neigh[u][v] = neigh[u].get(v, 0.0) + wt
        neigh[v][u] = neigh[v].get(u, 0.0) + wt
    m = sum(sum(row.values()) for row in neigh) / 2.0
    return neigh, m


def _q(neigh: list[dict[int, float]], loops: list[float], m: float,
       comm: list[int]) -> float:
    """Q = sum_c (e_c/m - (d_c/2m)^2); loops count once in e_c, twice in d_c."""
    e: dict[int, float] = {}
    d: dict[int, float] = {}
    for u, row in enumerate(neigh):
        c = comm[u]
        k_u = sum(row.values()) + 2.0 * loops[u]
        d[c] = d.get(c, 0.0) + k_u
        e[c] = e.get(c, 0.0) + loops[u]
        for v, wt in row.items():
            if u < v and comm[v] == c:
                e[c] = e.get(c, 0.0) + wt
    two_m = 2.0 * m
    return sum(e.get(c, 0.0) / m - (d[c] / two_m) ** 2 for c in d)


def modularity(g: LayeredGraph, layer: str, p: Partition | dict[str, int]) -> float:
    """Weighted undirected modularity of a partition over the full node set."""
    if g.n_nodes == 0:
        raise ValueError("empty graph")
    assignment = p.assignment if isinstance(p, Partition) else p
    missing = [node for node in g.node_ids if node not in assignment]
    if missing:
        raise ValueError(f"partition misses {len(missing)} nodes, e.g. {missing[0]!r}")
    neigh, m = _symmetrized(g, layer)
    if m == 0:
        raise ValueError("no edges")
    comm = [assignment[node] for node in g.node_ids]
    return _q(neigh, [0.0] * g.n_nodes, m, comm)


def _local_move(neigh: list[dict[int, float]], loops: list[float], m: float,
                comm: list[int], rng: random.Random) -> bool:
    n = len(neigh)
    k = [sum(row.values()) + 2.0 * loops[u] for u, row in enumerate(neigh)]
    tot: dict[int, float] = {}
    for u in range(n):
        tot[comm[u]] = tot.get(comm[u], 0.0) + k[u]
    moved_any = False
    while True:
        order = list(range(n))
        rng.shuffle(order)
        moved = False
        for u in order:
            old = comm[u]
            tot[old] -= k[u]
            link: dict[int, float] = {old: 0.0}
            for v, wt in neigh[u].items():
                c = comm[v]
                link[c] = link.get(c, 0.0) + wt
            best_c = old
            best_gain = link[old] - tot[old] * k[u] / (2.0 * m)
            for c in sorted(link):
                if c == old:
                    continue
                gain = link[c] - tot[c] * k[u] / (2.0 * m)
                if gain > best_gain + 1e-15:
                    best_gain = gain
                    best_c = c
            comm[u] = best_c
            tot[best_c] = tot.get(best_c, 0.0) + k[u]
            if best_c != old:
                moved = True
                moved_any = True
        if not moved:
            return moved_any


def _aggregate(neigh: list[dict[int, float]], loops: list[float],
               comm: list[int]) -> tuple[list[dict[int, float]], list[float], dict[int, int]]:
    relabel: dict[int, int] = {}
    for c in comm:
        if c not in relabel:
            relabel[c] = len(relabel)
    size = len(relabel)
    new_neigh: list[dict[int, float]] = [{} for _ in range(size)]
    new_loops = [0.0] * size
    for u, row in enumerate(neigh):
        cu = relabel[comm[u]]
        new_loops[cu] += loops[u]
        for v, wt in row.items():
            if u < v:
                cv = relabel[comm[v]]
                if cu == cv:
                    new_loops[cu] += wt
                else:
                    new_neigh[cu][cv] = new_neigh[cu].get(cv, 0.0) + wt
                    new_neigh[cv][cu] = new_neigh[cv].get(cu, 0.0) + wt
    return new_neigh, new_loops, relabel


def louvain(g: LayeredGraph, layer: str, seed: int, tol: float = 1e-7) -> Partition:
    """Two-phase Louvain with seeded node order; stops once a full pass
    improves modularity by less than tol."""
    if g.n_nodes == 0:
        raise ValueError("empty graph")
    neigh0, m = _symmetrized(g, layer)
    if m == 0:
        raise ValueError("no edges")
    neigh = neigh0
    loops = [0.0] * g.n_nodes
    rng = random.Random(seed)
    membership = list(range(g.n_nodes))
    q_prev = _q(neigh, loops, m, list(range(g.n_nodes)))
    while True:
        comm = list(range(len(neigh)))
        moved = _local_move(neigh, loops, m, comm, rng)
        q_now = _q(neigh, loops, m, comm)
        if q_now < q_prev - 1e-12:
            raise RuntimeError(f"modularity decreased within a pass: "
                               f"{q_prev:.12g} -> {q_now:.12g}")
        stop = not moved or q_now - q_prev < tol
        if moved:
            neigh, loops, relabel = _aggregate(neigh, loops, comm)
            membership = [relabel[comm[c]] for c in membership]
        q_prev = q_now
        if stop:
            break

    dense: dict[int, int] = {}
    assignment: dict[str, int] = {}
    for i, node in enumerate(g.node_ids):
        c = membership[i]
        if c not in dense:
            dense[c] = len(dense)
        assignment[node] = dense[c]
    # recomputed on the original projection so it matches modularity() exactly
    q_final = _q(neigh0, [0.0] * g.n_nodes, m,
                 [assignment[node] for node in g.node_ids])
    return Partition(assignment=assignment, modularity=q_final)


def write_partition_csv(p: Partition, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("node,community\n")
        for node in sorted(p.assignment):
            fh.write(f"{node},{p.assignment[node]}\n")


def read_partition_csv(path: str) -> dict[str, int]:
    out: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.lower() == "node,community":
                continue
            node, _, c = line.partition(",")
            out[node] = int(c)
    return out


def read_role_map_csv(path: str) -> dict[int, str]:
    """community,role rows naming each community's functional role."""
    out: dict[int, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.lower() == "community,role":
                continue
            c, _, role = line.partition(",")
            out[int(c)] = role
    return out


def write_role_map_csv(role_map: dict[int, str], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("community,role\n")
        for c in sorted(role_map):
            fh.write(f"{c},{role_map[c]}\n")


def roles_from_partition(p: Partition | dict[str, int], role_map: dict[int, str]) -> dict[str, str]:
    """Node -> role via the community -> role mapping; unmapped communities
    get role "other"."""
    assignment = p.assignment if isinstance(p, Partition) else p
    return {node: role_map.get(c, "other") for node, c in assignment.items()}
