"""Inter-group connectivity matrices (volume, density, null-model ratio)
and the degree-preserving double-edge-swap null model."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graph import LayeredGraph, _sorted_order, id_codes
from .ingest import _write_rows

AVG_VOLUME = "AvgVolume"
DENSITY = "Density"
NULL_RATIO = "NullRatio"


@dataclass(frozen=True)
class GroupMatrix:
    """Square role-by-role matrix; rows are link origins, columns targets."""
    groups: tuple[str, ...]
    values: tuple[tuple[float, ...], ...]
    mode: str
    flags: tuple[str, ...] = field(default=())

    def as_dict(self) -> dict:
        # +inf cells become the string "inf" to keep the JSON strict
        return {"mode": self.mode, "groups": list(self.groups),
                "values": [[x if math.isfinite(x) else "inf" for x in row]
                           for row in self.values],
                "flags": list(self.flags)}


def _group_order(roles: dict[str, str], group_order: tuple[str, ...] | None) -> tuple[str, ...]:
    present = set(roles.values())
    if group_order is None:
        return tuple(sorted(present))
    missing = [grp for grp in group_order if grp not in present]
    if missing:
        raise ValueError(f"group of size 0: {missing[0]!r}")
    if left_out := sorted(present.difference(group_order)):
        raise ValueError(f"role {left_out[0]!r} is not in group_order {tuple(group_order)!r}")
    return tuple(group_order)


def _role_codes(g: LayeredGraph, roles: dict[str, str], groups: tuple[str, ...]) -> np.ndarray:
    """Each node's group code: the position of its role in `groups`."""
    row = id_codes(list(roles), g.node_ids)
    if (unassigned := np.flatnonzero(row < 0)).size:
        raise ValueError(f"{unassigned.size} nodes lack a role, e.g. {g.node_ids[unassigned[0]]!r}")
    return id_codes(groups, roles.values())[row]


def _edge_counts(origin: np.ndarray, target: np.ndarray, k: int) -> np.ndarray:
    """Unweighted E(A->B) counts between k groups from edge-end group codes."""
    return np.bincount(origin * k + target, minlength=k * k).reshape(k, k)


def group_matrix(g: LayeredGraph, layer: str, roles: dict[str, str], mode: str,
                 group_order: tuple[str, ...] | None = None,
                 samples: int = 10, seed: int | None = None,
                 swaps_per_edge: int = 10) -> GroupMatrix:
    """Role-pair connectivity: the unweighted E(A->B) counts over a base
    that depends on the mode. AvgVolume divides by the origin group's size;
    Density by the number of possible ordered pairs; NullRatio by the mean
    count over `samples` seeded degree-preserving rewirings.

    A cell over a zero base reports 0. Density flags each such cell as the
    diagonal of a one-node group or as a cell of a group with no node in
    `g`, which it names; NullRatio reports a positive count over a zero
    null mean as +inf and flags it.
    """
    if mode == NULL_RATIO:
        if seed is None:
            raise ValueError("seed required for null-model sampling")
        _check_samples(samples)
    elif mode not in (AVG_VOLUME, DENSITY):
        raise ValueError(f"unknown mode: {mode!r}")
    groups = _group_order(roles, group_order)
    role, k = _role_codes(g, roles, groups), len(groups)
    lay = g.layer(layer)
    origin = role[lay.src]  # a swap moves only heads: every null sample has these
    counts, sizes = _edge_counts(origin, role[lay.dst], k), np.bincount(role, minlength=k)
    if mode == AVG_VOLUME:
        base = np.broadcast_to(sizes[:, None], counts.shape)
    elif mode == DENSITY:
        base = np.outer(sizes, sizes) - np.diag(sizes)
    else:
        heads = (rewire_null_model(g, layer, seed=child, swaps_per_edge=swaps_per_edge)
                 for child in np.random.SeedSequence(seed).spawn(samples))
        base = sum(_edge_counts(origin, role[dst], k) for dst in heads) / samples
    values = np.divide(counts, base, out=np.zeros(counts.shape), where=base > 0)
    flags: list[str] = []
    for i, j in np.argwhere(base == 0).tolist():
        if mode == DENSITY and sizes[i] and sizes[j]:
            flags.append(f"size-1 diagonal for {groups[i]}: density reported as 0")
        elif mode == DENSITY:  # a group with no node in g
            empty = groups[j] if sizes[i] else groups[i]
            flags.append(f"no node of {empty} in the graph: density of "
                         f"{groups[i]}->{groups[j]} reported as 0")
        elif counts[i, j] > 0:  # NullRatio; an AvgVolume zero base has no edges
            values[i, j] = math.inf
            flags.append(f"zero null mean for {groups[i]}->{groups[j]}")
    return GroupMatrix(groups=groups, values=_freeze(values), mode=mode,
                       flags=tuple(flags))


def _check_samples(samples: int) -> None:
    if samples < 1:
        raise ValueError("samples must be at least 1")


def _check_swaps_per_edge(swaps_per_edge: int) -> None:
    if swaps_per_edge < 0:
        raise ValueError("swaps_per_edge must be at least 0")


def rewire_null_model(g: LayeredGraph, layer: str, seed,
                      swaps_per_edge: int = 10) -> np.ndarray:
    """Degree-preserving rewiring of one layer by batches of double edge
    swaps (a->b, c->e) => (a->e, c->b) over a random pairing of edge slots
    (see `_swap_batch`). Each batch pairs m // 2 or m // 2 - 1 of the m
    slots, with equal odds; there are ceil(swaps_per_edge * m / (m // 2))
    batches, about swaps_per_edge proposals per edge. Swaps creating
    self-loops or duplicate edges are rejected. Returns the rewired heads
    of the layer's edges in its (src, dst) order: the tails, and the
    weights that travel with them, stay put."""
    src, dst = g.layer(layer).src, g.layer(layer).dst.copy()
    m = len(src)
    if m < 2:
        raise ValueError("layer needs at least 2 edges to rewire")
    _check_swaps_per_edge(swaps_per_edge)
    rng = np.random.default_rng(seed)
    for _ in range(-(-swaps_per_edge * m // (m // 2))):
        perm = rng.permutation(m)
        # a pair count of varying parity keeps the chain aperiodic
        h = m // 2 - int(rng.integers(2))
        _swap_batch(src, dst, g.n_nodes, perm[:h], perm[h:2 * h])
    return dst


def _swap_batch(src: np.ndarray, dst: np.ndarray, n: int,
                i: np.ndarray, j: np.ndarray) -> None:
    """Swap, in place in `dst`, the heads of each disjoint slot pair
    (i[k], j[k]): (a->b, c->e) => (a->e, c->b). A pair is accepted when
      1. it makes no self-loop;
      2. neither new edge is already an edge;
      3. neither new edge is also proposed by another pair;
      4. neither of its old edges is proposed by another pair.
    Rule 4 makes the same pairing undo the batch from the new state, so the
    one-batch transition matrix is symmetric and the uniform distribution
    over the swap class is stationary."""
    h = len(i)
    a, b, c, e = src[i], dst[i], src[j], dst[j]
    # new keys in sorted order, which also makes the lookups below cache-friendly
    new, by_key = _sorted_order(np.concatenate((a * n + e, c * n + b)), n * n)
    proposer = by_key % h
    rejected = (a == e) | (c == b)
    # rule 3
    twin = new[1:] == new[:-1]
    rejected[proposer[1:][twin]] = True
    rejected[proposer[:-1][twin]] = True
    # rule 2, and rule 4 from the slot that owns each hit
    keys, order = _sorted_order(src * n + dst, n * n)
    pos = np.minimum(np.searchsorted(keys, new), len(keys) - 1)
    hit = keys[pos] == new
    rejected[proposer[hit]] = True
    pair_of = np.full(len(keys), -1, dtype=np.int64)
    pair_of[i] = pair_of[j] = np.arange(h)
    owner = pair_of[order[pos[hit]]]
    rejected[owner[owner >= 0]] = True
    ok = ~rejected
    dst[i[ok]], dst[j[ok]] = e[ok], b[ok]


def _freeze(values: np.ndarray) -> tuple[tuple[float, ...], ...]:
    return tuple(tuple(float(x) for x in row) for row in values)


def write_group_matrix_csv(mat: GroupMatrix, path: str) -> None:
    _write_rows(path, "origin," + ",".join(mat.groups),
                ((grp, *row) for grp, row in zip(mat.groups, mat.values)))

