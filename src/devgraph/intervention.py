"""Targeted-removal simulation: rank core nodes, erase their posts, and
measure how far the observed diffusion trees shrink."""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .graph import REBLOG, LayeredGraph
from .diffusion import DiffusionForest

BY_VOLUME = "ByVolume"
BY_DEGREE = "ByDegree"
DEFAULT_SIZES = (0, 200, 1000, 5000, 10000, 25000)


@dataclass(frozen=True)
class ShrinkageCurve:
    sizes: tuple[int, ...]
    reached_fraction: tuple[float, ...]
    strategy: str
    warnings: tuple[str, ...] = ()

    def value(self, size: int) -> float:
        return self.reached_fraction[self.sizes.index(size)]


def rank_by_volume(forest: DiffusionForest) -> list[str]:
    """Roots and spreaders ordered by how many distinct blogs sit strictly
    below them across all trees; ties break by node id."""
    n = forest.n_nodes
    above, app = _root_paths(forest)
    strict = above != app
    pairs = forest.node[above[strict]] * n + forest.node[app[strict]]
    del above, app, strict
    pairs.sort()
    distinct = pairs[np.flatnonzero(np.diff(pairs, prepend=-1))]
    reach = np.bincount(distinct // n, minlength=n)
    # node codes follow id order, so the code breaks ties
    candidates = np.flatnonzero(_candidates(forest))
    order = candidates[np.lexsort((candidates, -reach[candidates]))]
    return [forest.ids[c] for c in order.tolist()]


def rank_by_degree(g: LayeredGraph) -> list[str]:
    """Nodes by unweighted reblog in-degree, descending; ties by node id."""
    if g.n_edges(REBLOG) == 0:
        raise ValueError("reblog layer has no edges")
    return [n for _, n in sorted(zip((-g.in_degrees(REBLOG)).tolist(), g.node_ids))]


_NEVER = np.iinfo(np.int64).max


def _candidates(forest: DiffusionForest) -> np.ndarray:
    """Mask of roots and internal nodes, the removable posters."""
    mask = np.zeros(forest.n_nodes, dtype=bool)
    mask[forest.node[forest.parent == -1]] = True
    mask[forest.node[forest.parent[forest.parent >= 0]]] = True
    return mask


def _root_paths(forest: DiffusionForest) -> tuple[np.ndarray, np.ndarray]:
    """(above, app) for each non-root appearance app and each appearance
    above on its root path, app itself and the root included."""
    above, apps = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    app = cur = np.flatnonzero(forest.parent >= 0)
    while app.size:
        above.append(cur)
        apps.append(app)
        cur = forest.parent[cur]
        up = cur >= 0
        app, cur = app[up], cur[up]
    return np.concatenate(above), np.concatenate(apps)


def _death_rank(forest: DiffusionForest, ranking: Sequence[str]) -> np.ndarray:
    """D(n) per node: the largest, over n's non-root appearances, of the
    smallest ranking position on the root path (root and n included).
    Erasing ranking[:k] leaves n reached iff D(n) >= k. Unranked nodes
    sit at position _NEVER; duplicates keep their first position; nodes
    with no non-root appearance get -1."""
    pos = np.full(forest.n_nodes, _NEVER, dtype=np.int64)
    for i in range(len(ranking) - 1, -1, -1):
        j = forest.index.get(ranking[i])
        if j is not None:
            pos[j] = i
    # pointer doubling: least[a] covers ever more of a's root path
    least = pos[forest.node]
    jump = forest.parent.copy()
    while (has := np.flatnonzero(jump >= 0)).size:
        least[has] = np.minimum(least[has], least[jump[has]])
        jump[has] = jump[jump[has]]
    death = np.full(forest.n_nodes, -1, dtype=np.int64)
    below = forest.parent >= 0
    np.maximum.at(death, forest.node[below], least[below])
    return death


def _check_sizes(sizes: Sequence[int]) -> None:
    if list(sizes) != sorted(sizes):
        raise ValueError("removal sizes must be ascending")


def shrinkage_curve(forest: DiffusionForest, ranking: Sequence[str],
                    sizes: Iterable[int] = DEFAULT_SIZES,
                    strategy: str = BY_VOLUME) -> ShrinkageCurve:
    """Fraction of baseline consumers still reached when the top-k ranked
    nodes are erased, for each requested k. One pass over the forest: a
    consumer stays reached at k iff its death rank is at least k."""
    sizes = list(sizes)
    _check_sizes(sizes)
    death = _death_rank(forest, ranking)
    baseline = death[death >= 0]
    if not baseline.size:
        raise ValueError("no baseline consumers: trees are empty")
    warnings: list[str] = []
    fractions: list[float] = []
    for k in sizes:
        if k > len(ranking):
            warnings.append(f"size {k} exceeds ranking length {len(ranking)}; truncated")
        # the prefix ranking[:k] erases, with slice semantics for negative k
        removed = len(range(len(ranking))[:k])
        fractions.append(int(np.count_nonzero(baseline >= removed)) / baseline.size)
    return ShrinkageCurve(sizes=tuple(sizes), reached_fraction=tuple(fractions),
                          strategy=strategy, warnings=tuple(warnings))


@dataclass(frozen=True)
class UnderageThreshold:
    k: int
    note: str | None = None


def underage_exposure_threshold(forest: DiffusionForest, ranking: Sequence[str],
                                ages: dict[str, int], cutoff: int = 18) -> UnderageThreshold:
    """Smallest removal prefix after which no known-underage consumer remains
    reached: one more than the largest death rank among underage baseline
    consumers, found in one pass over the forest."""
    underage = {n for n, a in ages.items() if a < cutoff}
    death = _death_rank(forest, ranking)
    exposed = death[[forest.index[n] for n in underage if n in forest.index]]
    exposed = exposed[exposed >= 0]
    if not exposed.size:
        return UnderageThreshold(0, note="no underage consumers in baseline")
    last = int(exposed.max())
    if last == _NEVER:
        raise ValueError("underage nodes remain reached even after removing "
                         "every ranked node")
    return UnderageThreshold(last + 1)


def adaptive_greedy_ranking(forest: DiffusionForest, size: int) -> list[str]:
    """Marginal-coverage greedy: repeatedly erase the node whose removal
    cuts the most still-reached consumers; ties go to the lowest id and a
    zero gain may still be picked. Myopic: when trees overlap heavily,
    removals that only pay off jointly are invisible to it.

    The gains are exact, computed for every candidate at once each round. A
    node leaves the reached set when all of its live appearances lie under
    the candidate, so the gain of c counts the nodes n whose live
    appearances with c on their root path number all of n's live
    appearances. The objective is not submodular on overlapping trees, so
    lazy evaluation (CELF) would change the picks and is not used."""
    open_ = _candidates(forest)
    n, node = forest.n_nodes, forest.node
    # key = ancestor * n + node for each non-root appearance and each node
    # on its root path (itself included); sorted, so that every round counts
    # runs of equal keys without sorting again
    above, pair_app = _root_paths(forest)
    key = node[above] * n + node[pair_app]
    del above
    order = np.argsort(key)
    key.sort()
    pair_app = pair_app[order]
    del order
    alive = forest.parent >= 0

    chosen: list[str] = []
    for _ in range(min(size, int(np.count_nonzero(open_)))):
        live = np.bincount(node[alive], minlength=n)
        start = np.flatnonzero(np.diff(key, prepend=-1))
        count = np.diff(start, append=key.size)
        whole = count == live[key[start] % n]
        gain = np.bincount(key[start][whole] // n, minlength=n)
        gain[~open_] = -1
        best = int(np.argmax(gain))
        chosen.append(forest.ids[best])
        open_[best] = False
        lo, hi = np.searchsorted(key, (best * n, best * n + n))
        alive[pair_app[lo:hi]] = False
        keep = alive[pair_app]
        key, pair_app = key[keep], pair_app[keep]
    return chosen


def write_shrinkage_csv(curves: Iterable[ShrinkageCurve], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("removed,reached_fraction,strategy\n")
        for curve in curves:
            for k, v in zip(curve.sizes, curve.reached_fraction):
                fh.write(f"{k},{v:.10g},{curve.strategy}\n")
