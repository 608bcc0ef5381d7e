"""Targeted-removal simulation: rank core nodes, erase their posts, and
measure how far the observed diffusion trees shrink. A ranking is an array
of the forest's node codes, -1 for a node outside the forest."""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .graph import REBLOG, LayeredGraph
from .diffusion import DiffusionForest
from .ingest import _distinct, _write_rows

BY_VOLUME = "ByVolume"
BY_DEGREE = "ByDegree"
DEFAULT_SIZES = (0, 200, 1000, 5000, 10000, 25000)


@dataclass(frozen=True)
class ShrinkageCurve:
    sizes: tuple[int, ...]
    reached_fraction: tuple[float, ...]
    strategy: str
    warnings: tuple[str, ...] = ()


def rank_by_volume(forest: DiffusionForest) -> np.ndarray:
    """Roots and spreaders ordered by how many distinct blogs sit strictly
    below them across all trees; ties break by node id.

    The (ancestor, blog) pairs are gathered one ancestor level at a time,
    each level's distinct, so the pairs of all levels are never held."""
    n, node = forest.n_nodes, forest.node
    levels = [np.empty(0, dtype=np.int64)]
    # strictly below: the walk's first level is each appearance itself
    for app, above in islice(_ancestor_levels(forest), 1, None):
        keys = node[above]
        keys *= n
        keys += node[app]
        levels.append(_distinct(keys))
        # free this level before the walk makes the next
        del keys, app, above
    pairs = np.concatenate(levels)
    del levels
    reach = np.bincount(_distinct(pairs) // n, minlength=n)
    # node codes follow id order, so the code breaks ties
    candidates = np.flatnonzero(_candidates(forest))
    return candidates[np.lexsort((candidates, -reach[candidates]))]


def rank_by_degree(g: LayeredGraph) -> np.ndarray:
    """Graph node codes by unweighted reblog in-degree, descending; ties by id."""
    if g.n_edges(REBLOG) == 0:
        raise ValueError("reblog layer has no edges")
    by_id = np.argsort(np.array(g.node_ids, dtype=object), kind="stable")
    return by_id[np.argsort(-g.in_degrees(REBLOG)[by_id], kind="stable")]


_NEVER = np.iinfo(np.int64).max


def _candidates(forest: DiffusionForest) -> np.ndarray:
    """Mask of roots and internal nodes, the removable posters."""
    mask = np.zeros(forest.n_nodes, dtype=bool)
    mask[forest.node[forest.parent == -1]] = True
    mask[forest.node[forest.parent[forest.parent >= 0]]] = True
    return mask


def _ancestor_levels(forest: DiffusionForest) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The root paths of the non-root appearances, one level at a time: at
    each level, (app, above) pairs each appearance app whose path reaches
    that level with its appearance above there. The first level is app
    itself, the last the root."""
    app = above = np.flatnonzero(forest.parent >= 0)
    while app.size:
        yield app, above
        above = forest.parent[above]
        up = above >= 0
        app, above = app[up], above[up]


def _root_paths(forest: DiffusionForest) -> tuple[np.ndarray, np.ndarray]:
    """(above, app) for each non-root appearance app and each appearance
    above on its root path, app itself and the root included."""
    above, apps = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for app, cur in _ancestor_levels(forest):
        above.append(cur)
        apps.append(app)
    return np.concatenate(above), np.concatenate(apps)


def _death_rank(forest: DiffusionForest, ranking: Sequence[int]) -> np.ndarray:
    """D(n) per node: the largest, over n's non-root appearances, of the
    smallest ranking position on the root path (root and n included).
    Erasing ranking[:k] leaves n reached iff D(n) >= k. Unranked nodes
    sit at position _NEVER; duplicates keep their first position; nodes
    with no non-root appearance get -1."""
    pos = np.full(forest.n_nodes, _NEVER, dtype=np.int64)
    codes, first = np.unique(np.asarray(ranking, dtype=np.int64), return_index=True)
    pos[codes[codes >= 0]] = first[codes >= 0]
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


def shrinkage_curve(forest: DiffusionForest, ranking: Sequence[int],
                    sizes: Iterable[int] = DEFAULT_SIZES,
                    strategy: str = BY_VOLUME) -> ShrinkageCurve:
    """Fraction of baseline consumers still reached when the top-k ranked
    nodes are erased, for each requested k. One pass over the forest: a
    consumer stays reached at k iff its death rank is at least k."""
    return _curve(_death_rank(forest, ranking), len(ranking), sizes, strategy)


def _curve(death: np.ndarray, ranked: int, sizes: Iterable[int],
           strategy: str) -> ShrinkageCurve:
    """The shrinkage curve of a ranking of `ranked` entries, from the death
    ranks it gives the forest's nodes."""
    sizes = list(sizes)
    _check_sizes(sizes)
    baseline = death[death >= 0]
    if not baseline.size:
        raise ValueError("no baseline consumers: trees are empty")
    warnings: list[str] = []
    fractions: list[float] = []
    for k in sizes:
        if k > ranked:
            warnings.append(f"size {k} exceeds ranking length {ranked}; truncated")
        # the prefix ranking[:k] erases, with slice semantics for negative k
        removed = len(range(ranked)[:k])
        fractions.append(int(np.count_nonzero(baseline >= removed)) / baseline.size)
    return ShrinkageCurve(sizes=tuple(sizes), reached_fraction=tuple(fractions),
                          strategy=strategy, warnings=tuple(warnings))


# ages below this are underage
_CUTOFF = 18


@dataclass(frozen=True)
class UnderageThreshold:
    k: int
    note: str | None = None


def underage_exposure_threshold(forest: DiffusionForest, ranking: Sequence[int],
                                ages: np.ndarray, cutoff: int = _CUTOFF) -> UnderageThreshold:
    """Smallest removal prefix after which no known-underage consumer remains
    reached: one more than the largest death rank among underage baseline
    consumers, found in one pass over the forest. `ages` holds each forest
    node's age, NaN if unknown."""
    return _threshold(_death_rank(forest, ranking), ages, cutoff)


def _threshold(death: np.ndarray, ages: np.ndarray, cutoff: int = _CUTOFF) -> UnderageThreshold:
    """The underage threshold of a ranking, from the death ranks it gives
    the forest's nodes."""
    exposed = death[ages < cutoff]
    exposed = exposed[exposed >= 0]
    if not exposed.size:
        return UnderageThreshold(0, note="no underage consumers in baseline")
    last = int(exposed.max())
    if last == _NEVER:
        raise ValueError("underage nodes remain reached even after removing "
                         "every ranked node")
    return UnderageThreshold(last + 1)


def adaptive_greedy_ranking(forest: DiffusionForest, size: int) -> np.ndarray:
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

    chosen: list[int] = []
    for _ in range(min(size, int(np.count_nonzero(open_)))):
        live = np.bincount(node[alive], minlength=n)
        start = np.flatnonzero(np.diff(key, prepend=-1))
        count = np.diff(start, append=key.size)
        whole = count == live[key[start] % n]
        gain = np.bincount(key[start][whole] // n, minlength=n)
        gain[~open_] = -1
        best = int(np.argmax(gain))
        chosen.append(best)
        open_[best] = False
        lo, hi = np.searchsorted(key, (best * n, best * n + n))
        alive[pair_app[lo:hi]] = False
        keep = alive[pair_app]
        key, pair_app = key[keep], pair_app[keep]
    return np.array(chosen, dtype=np.int64)


def write_shrinkage_csv(curves: Iterable[ShrinkageCurve], path: str) -> None:
    _write_rows(path, "removed,reached_fraction,strategy",
                ((k, v, curve.strategy) for curve in curves
                 for k, v in zip(curve.sizes, curve.reached_fraction)))
