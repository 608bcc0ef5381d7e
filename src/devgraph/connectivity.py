"""Inter-group connectivity matrices (volume, density, null-model ratio)
and the degree-preserving double-edge-swap null model."""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .graph import LAYERS, LayeredGraph, _Layer

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

    def cell(self, origin: str, target: str) -> float:
        return self.values[self.groups.index(origin)][self.groups.index(target)]

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
    return tuple(group_order)


def _edge_counts(g: LayeredGraph, layer: str, roles: dict[str, str],
                 groups: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Unweighted E(A->B) counts and group sizes."""
    unassigned = [n for n in g.node_ids if n not in roles]
    if unassigned:
        raise ValueError(f"{len(unassigned)} nodes lack a role, e.g. {unassigned[0]!r}")
    gi = {grp: i for i, grp in enumerate(groups)}
    role_idx = np.array([gi[roles[n]] for n in g.node_ids], dtype=np.int64)
    sizes = np.bincount(role_idx, minlength=len(groups)).astype(np.int64)
    src, dst, _ = g.edge_arrays(layer)
    counts = np.zeros((len(groups), len(groups)), dtype=np.int64)
    np.add.at(counts, (role_idx[src], role_idx[dst]), 1)
    return counts, sizes


def group_matrix(g: LayeredGraph, layer: str, roles: dict[str, str], mode: str,
                 group_order: tuple[str, ...] | None = None,
                 samples: int = 10, seed: int | None = None,
                 swaps_per_edge: int = 10) -> GroupMatrix:
    """Role-pair connectivity. AvgVolume normalizes counts by origin-group
    size; Density by the number of possible ordered pairs; NullRatio by the
    mean count over degree-preserving rewirings."""
    if mode == NULL_RATIO:
        return null_ratio_matrix(g, layer, roles, samples=samples, seed=seed,
                                 group_order=group_order, swaps_per_edge=swaps_per_edge)
    groups = _group_order(roles, group_order)
    counts, sizes = _edge_counts(g, layer, roles, groups)
    k = len(groups)
    values = np.zeros((k, k), dtype=np.float64)
    flags: list[str] = []
    for i in range(k):
        for j in range(k):
            if mode == AVG_VOLUME:
                values[i, j] = counts[i, j] / sizes[i]
            elif mode == DENSITY:
                possible = sizes[i] * (sizes[i] - 1) if i == j else sizes[i] * sizes[j]
                if possible == 0:
                    values[i, j] = 0.0
                    flags.append(f"size-1 diagonal for {groups[i]}: density reported as 0")
                else:
                    values[i, j] = counts[i, j] / possible
            else:
                raise ValueError(f"unknown mode: {mode!r}")
    return GroupMatrix(groups=groups, values=_freeze(values), mode=mode,
                       flags=tuple(flags))


def rewire_null_model(g: LayeredGraph, layer: str, seed,
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
    rewired = _Layer(g.n_nodes, np.array(s), np.array(d), weight)
    layers = {name: (rewired if name == layer else g.layer(name)) for name in LAYERS}
    return LayeredGraph(g.node_ids, layers, labels=g.labels,
                        diagnostics=Counter(g.diagnostics))


def null_ratio_matrix(g: LayeredGraph, layer: str, roles: dict[str, str],
                      samples: int = 10, seed: int | None = None,
                      group_order: tuple[str, ...] | None = None,
                      swaps_per_edge: int = 10) -> GroupMatrix:
    """Observed E(A->B) over its mean across seeded rewired samples.

    Cells with zero observed edges report 0; a positive observation over a
    zero null mean reports +inf and is flagged.
    """
    if seed is None:
        raise ValueError("seed required for null-model sampling")
    groups = _group_order(roles, group_order)
    observed, _ = _edge_counts(g, layer, roles, groups)
    total = np.zeros_like(observed, dtype=np.float64)
    child_seeds = np.random.SeedSequence(seed).spawn(samples)
    for child in child_seeds:
        sample = rewire_null_model(g, layer, seed=child, swaps_per_edge=swaps_per_edge)
        counts, _ = _edge_counts(sample, layer, roles, groups)
        total += counts
    mean = total / samples
    k = len(groups)
    values = np.zeros((k, k), dtype=np.float64)
    flags: list[str] = []
    for i in range(k):
        for j in range(k):
            if observed[i, j] == 0:
                values[i, j] = 0.0
            elif mean[i, j] == 0:
                values[i, j] = math.inf
                flags.append(f"zero null mean for {groups[i]}->{groups[j]}")
            else:
                values[i, j] = observed[i, j] / mean[i, j]
    return GroupMatrix(groups=groups, values=_freeze(values), mode=NULL_RATIO,
                       flags=tuple(flags))


def _freeze(values: np.ndarray) -> tuple[tuple[float, ...], ...]:
    return tuple(tuple(float(x) for x in row) for row in values)


def write_group_matrix_csv(mat: GroupMatrix, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("origin," + ",".join(mat.groups) + "\n")
        for grp, row in zip(mat.groups, mat.values):
            cells = ",".join("inf" if math.isinf(x) else f"{x:.10g}" for x in row)
            fh.write(f"{grp},{cells}\n")


def write_group_matrix_json(mat: GroupMatrix, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(mat.as_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
