"""Louvain and modularity against list-of-dicts oracles.

`oracle_modularity` and `oracle_louvain` are the dict code that the CSR
modularity and the sequential Louvain replaced, kept verbatim.
`batched_oracle_louvain` is the batched Louvain written node by node.
Partitions, modularity values and `ValueError` messages must match exactly
(`==`): modularity against the dict code, and Louvain against the batched
oracle, on small random graphs and on the seed-11 fixture at 1x and 4x. On
the fixture at 1x, 4x and 16x, Louvain's modularity must also reach the
sequential oracle's lowest over three seeds, and equal networkx's
modularity of its communities.

Every weight drawn here is a small multiple of 0.5, so every sum of weights
is exact whatever order it is added in; what is left to order is the
modularity sum over communities, which both add in order of first
appearance.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import networkx as nx
import numpy as np

from devgraph.community import Partition, louvain
from devgraph.graph import FOLLOW, LAYERS, REBLOG, LayeredGraph, build_graph
from id_helpers import assignment, modularity
from test_community import LOUVAIN_SEEDS, fixture_graph, fixture_louvain


def _symmetrized(g: LayeredGraph, layer: str) -> tuple[list[dict[int, float]], float]:
    """Undirected weighted projection: w(u,v) = w(u->v) + w(v->u)."""
    n = g.n_nodes
    neigh: list[dict[int, float]] = [{} for _ in range(n)]
    lay = g.layer(layer)
    for u, v, wt in zip(lay.src.tolist(), lay.dst.tolist(), lay.weight.tolist()):
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


def oracle_modularity(g: LayeredGraph, layer: str, assignment: dict[str, int]) -> float:
    """Weighted undirected modularity of a partition over the full node set."""
    if g.n_nodes == 0:
        raise ValueError("empty graph")
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


def oracle_louvain(g: LayeredGraph, layer: str, seed: int,
                   tol: float = 1e-7) -> tuple[dict[str, int], float]:
    """Two-phase Louvain with seeded node order; stops once a full pass
    improves modularity by less than tol. Returns the node -> community
    assignment, dense from 0, and its modularity."""
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
    return assignment, q_final


# -- the batched Louvain, one node at a time -----------------------------------

def _n_batches(size: int) -> int:
    return max(1, min(16, size // 256))


def _score(neigh: list[dict[int, float]], k: list[float], tot: dict[int, float],
           two_m: float, comm: list[int], u: int) -> tuple[int, float, float, float]:
    """Node u's best community other than its own (the smallest label of
    those with the best gain, or -1 if it has none), that gain, the gain
    of staying, and how much more link weight u has to that community
    than to its own."""
    old = comm[u]
    link = {old: 0.0}
    for v in sorted(neigh[u]):
        link[comm[v]] = link.get(comm[v], 0.0) + neigh[u][v]
    stay = link[old] - (tot[old] - k[u]) * k[u] / two_m
    best, best_gain = -1, -float("inf")
    for c in sorted(link):
        gain = link[c] - tot[c] * k[u] / two_m
        if c != old and gain > best_gain:
            best, best_gain = c, gain
    return best, best_gain, stay, link.get(best, 0.0) - link[old]


def _batched_sweep(neigh, k, tot, two_m, comm, order):
    """One sweep: each batch's nodes are scored against the state at the
    batch's start; of two neighbours that would both move, the later one
    waits; the movers go together if together they gain, else one by one."""
    size = len(order)
    nb = _n_batches(size)
    moved, waited = set(), set()
    for b in range(nb):
        batch = order[b * size // nb:(b + 1) * size // nb]
        at = {u: i for i, u in enumerate(batch)}
        scored = [(u, _score(neigh, k, tot, two_m, comm, u)) for u in batch]
        go = {u for u, (best, gain, stay, _) in scored if best >= 0 and gain > stay + 1e-15}
        movers = []
        for u, (best, _, _, dlink) in scored:
            if u not in go:
                continue
            if any(v in go and at[v] < at[u] for v in neigh[u]):
                waited.add(u)
            else:
                movers.append((u, best, dlink))
        ends = [(comm[u], -k[u]) for u, _, _ in movers] + [(c, k[u]) for u, c, _ in movers]
        step: dict[int, float] = {}
        for c, change in ends:
            step[c] = step.get(c, 0.0) + change
        squares = sum(change * (tot[c] + tot[c] + step[c]) for c, change in ends)
        if sum(dlink for _, _, dlink in movers) - squares / (2.0 * two_m) > 1e-15:
            for c, change in step.items():
                tot[c] += change
            for u, c, _ in movers:
                comm[u] = c
                moved.add(u)
        else:
            for u, _, _ in movers:
                best, gain, stay, _ = _score(neigh, k, tot, two_m, comm, u)
                if best >= 0 and gain > stay + 1e-15:
                    tot[comm[u]] -= k[u]
                    tot[best] += k[u]
                    comm[u] = best
                    moved.add(u)
    visit = moved | waited
    for u in moved:
        visit.update(v for v in neigh[u] if comm[v] != comm[u])
    return sorted(visit), bool(moved)


def _batched_move(neigh, loops, m, rng, comm):
    """Sweeps from `comm` until a full sweep moves nothing, then each
    community cut into its connected parts, named by their smallest node."""
    n = len(neigh)
    k = [sum(neigh[u][v] for v in sorted(neigh[u])) + 2.0 * loops[u] for u in range(n)]
    tot: dict[int, float] = {}
    for u in range(n):
        tot[comm[u]] = tot.get(comm[u], 0.0) + k[u]
    everyone = [u for u in range(n) if neigh[u]]
    visit, full, moved_any = everyone, True, False
    while visit:
        order = rng.permutation(np.array(visit, dtype=np.int64)).tolist()
        nxt, moved = _batched_sweep(neigh, k, tot, 2.0 * m, comm, order)
        if moved:
            visit, full, moved_any = nxt, False, True
        elif full:
            break
        else:
            visit, full = everyone, True
    part = list(range(n))

    def root(u):
        while part[u] != u:
            u = part[u]
        return u

    for u in range(n):
        for v in neigh[u]:
            if comm[u] == comm[v]:
                ru, rv = root(u), root(v)
                part[max(ru, rv)] = min(ru, rv)
    return [root(u) for u in range(n)], moved_any


def batched_oracle_louvain(g: LayeredGraph, layer: str, seed: int,
                           tol: float = 1e-7) -> tuple[dict[str, int], float]:
    """The batched Louvain, node by node: the levels of `oracle_louvain`
    with `_batched_move` for the local move, drawing every sweep order from
    one numpy Generator, then one more `_batched_move` on the nodes from
    the partition found."""
    if g.n_nodes == 0:
        raise ValueError("empty graph")
    neigh0, m = _symmetrized(g, layer)
    if m == 0:
        raise ValueError("no edges")
    neigh, loops = neigh0, [0.0] * g.n_nodes
    rng = np.random.default_rng(seed)
    membership = list(range(g.n_nodes))
    q_prev = _q(neigh, loops, m, list(range(g.n_nodes)))
    while True:
        comm, moved = _batched_move(neigh, loops, m, rng, list(range(len(neigh))))
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
    membership, _ = _batched_move(neigh0, [0.0] * g.n_nodes, m, rng, membership)
    dense: dict[int, int] = {}
    assignment = {node: dense.setdefault(c, len(dense)) for node, c in zip(g.node_ids, membership)}
    q_final = _q(neigh0, [0.0] * g.n_nodes, m, [assignment[node] for node in g.node_ids])
    if q_final < q_prev - 1e-12:
        raise RuntimeError(f"modularity decreased within a pass: "
                           f"{q_prev:.12g} -> {q_final:.12g}")
    return assignment, q_final


def outcome(fn, *args, **kwargs):
    """The result with its type, or the type and message of the exception
    raised; a Partition as its assignment by id and its modularity."""
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)
    if isinstance(result, Partition):
        result = assignment(result), result.modularity
    if isinstance(result, tuple):
        assert {type(c) for c in result[0].values()} <= {int}
        assert type(result[1]) is float
    return type(result), result


# -- random graphs ------------------------------------------------------------

weights = st.one_of(st.sampled_from((1.0, 2.0, 0.5)), st.integers(1, 5))
graphs = st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11), weights,
                            st.sampled_from(LAYERS)),
                  max_size=40).map(
    lambda edges: build_graph([(f"n{u}", f"n{v}", w, layer) for u, v, w, layer in edges]))


@settings(max_examples=300, deadline=None)
@given(graphs, st.integers(0, 2**32))
# an edge file may hold weights of any sign; the zero-weight edge b-f keeps
# b and f neighbours, as in the dict projection, and this partition
# changes if it is dropped
@example(build_graph([("b", "f", 0.0, REBLOG), ("d", "b", -1.0, REBLOG),
                      ("d", "f", -1.0, REBLOG)]), 0)
# two gains that differ only by rounding: the 1e-15 rule decides where n3 goes
@example(build_graph([(f"n{u}", f"n{v}", 1.0, FOLLOW) for u, v in (
    (2, 4), (4, 8), (7, 6), (7, 9), (3, 7), (8, 9), (3, 0), (5, 1), (3, 5), (3, 9),
    (4, 9), (4, 2), (9, 5), (5, 9), (6, 4))]), 2060592230)
def test_louvain_matches_oracle(g, seed):
    for layer in LAYERS:
        assert outcome(louvain, g, layer, seed=seed) \
            == outcome(batched_oracle_louvain, g, layer, seed=seed)


communities = st.one_of(st.integers(-3, 3), st.just(2**70))
# n12 never joins a graph
partitions = st.one_of(
    st.lists(communities, min_size=12, max_size=12).map(
        lambda cs: {f"n{i}": c for i, c in enumerate(cs)}),
    st.dictionaries(st.sampled_from([f"n{i}" for i in range(13)]), communities))


@settings(max_examples=300, deadline=None)
@given(graphs, st.sampled_from(LAYERS), partitions)
def test_modularity_matches_oracle(g, layer, assignment):
    """Random partitions: community ids need not be dense. A node the
    partition misses is an error of the oracle; the membership array the
    library takes has a label for every node."""
    expected = outcome(oracle_modularity, g, layer, assignment)
    if g.n_nodes and any(node not in assignment for node in g.node_ids):
        assert expected[0] is ValueError and "misses" in expected[1]
        return
    assert outcome(modularity, g, layer, assignment) == expected


# weights whose sums depend on the order of addition, which differs between
# the dict rows and the sorted CSR rows
inexact_graphs = st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11),
                                    st.sampled_from((0.1, 0.3, 1 / 3, 1e16)),
                                    st.just(REBLOG)),
                          max_size=40).map(
    lambda edges: build_graph([(f"n{u}", f"n{v}", w, layer) for u, v, w, layer in edges])
).filter(lambda g: g.n_edges(REBLOG) > 0)


@settings(max_examples=200, deadline=None)
@given(inexact_graphs, st.lists(st.integers(0, 3), min_size=12, max_size=12))
def test_modularity_close_to_oracle_on_inexact_weights(g, communities):
    assignment = {f"n{i}": c for i, c in enumerate(communities)}
    assert modularity(g, REBLOG, assignment) \
        == pytest.approx(oracle_modularity(g, REBLOG, assignment), rel=1e-12, abs=1e-12)


# -- the seed-11 fixture ------------------------------------------------------

@pytest.mark.parametrize("scale", [1, 4])
@pytest.mark.parametrize("layer", LAYERS)
def test_louvain_matches_oracle_on_fixture(scale, layer):
    g = fixture_graph(scale)
    for seed in LOUVAIN_SEEDS:
        part = fixture_louvain(scale, layer, seed)
        assert (assignment(part), part.modularity) == batched_oracle_louvain(g, layer, seed=seed)
        assert len(np.unique(part.membership)) > 1


@pytest.mark.parametrize("scale", [1, 4])
@pytest.mark.parametrize("layer", LAYERS)
def test_no_single_node_move_gains_at_return(scale, layer):
    """Louvain ends with a move phase on the nodes themselves, so moving
    any one node to a neighbouring community does not raise modularity,
    beyond rounding. The sequential Louvain left single moves that gained
    up to 2.9e-3 in Q on this fixture."""
    g = fixture_graph(scale)
    neigh, m = _symmetrized(g, layer)
    k = [sum(row.values()) for row in neigh]
    for seed in LOUVAIN_SEEDS:
        comm = fixture_louvain(scale, layer, seed).membership.tolist()
        tot: dict[int, float] = {}
        for u, c in enumerate(comm):
            tot[c] = tot.get(c, 0.0) + k[u]
        for u, row in enumerate(neigh):
            link: dict[int, float] = {}
            for v, w in row.items():
                link[comm[v]] = link.get(comm[v], 0.0) + w
            stay = link.get(comm[u], 0.0) - (tot[comm[u]] - k[u]) * k[u] / (2.0 * m)
            best = max((w - tot[c] * k[u] / (2.0 * m) for c, w in link.items() if c != comm[u]),
                       default=-float("inf"))
            assert best <= stay + 1e-12, (seed, u)


@pytest.mark.parametrize("scale", [1, 4, 16])
@pytest.mark.parametrize("layer", LAYERS)
def test_louvain_modularity_matches_networkx_on_fixture(scale, layer):
    """The modularity Louvain returns is networkx's for its communities, on
    the weighted undirected graph w(u,v) = w(u->v) + w(v->u)."""
    g = fixture_graph(scale)
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n_nodes))
    lay = g.layer(layer)
    for u, v, w in zip(lay.src.tolist(), lay.dst.tolist(), lay.weight.tolist()):
        if nxg.has_edge(u, v):
            nxg[u][v]["weight"] += w
        else:
            nxg.add_edge(u, v, weight=w)
    for seed in LOUVAIN_SEEDS:
        part = fixture_louvain(scale, layer, seed)
        groups = [set(np.flatnonzero(part.membership == c).tolist())
                  for c in range(int(part.membership.max()) + 1)]
        assert part.modularity == pytest.approx(nx.community.modularity(nxg, groups),
                                                rel=0, abs=1e-12)


@pytest.mark.parametrize("scale", [1, 4, 16])
@pytest.mark.parametrize("layer", LAYERS)
def test_louvain_modularity_reaches_oracle_floor_on_fixture(scale, layer):
    """Each seed's Q is at least the smallest Q that the oracle gives over
    the same seeds, at the same scale and layer."""
    g = fixture_graph(scale)
    floor = min(oracle_louvain(g, layer, seed=seed)[1] for seed in LOUVAIN_SEEDS)
    for seed in LOUVAIN_SEEDS:
        assert fixture_louvain(scale, layer, seed).modularity >= floor
