"""Targeted-removal simulation: rank core nodes, erase their posts, and
measure how far the observed diffusion trees shrink."""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .graph import REBLOG, LayeredGraph
from .diffusion import DiffusionTree

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


def rank_by_volume(trees: Sequence[DiffusionTree]) -> list[str]:
    """Roots and spreaders ordered by how many distinct blogs sit strictly
    below them across all trees; ties break by node id."""
    reach: dict[str, set[str]] = {}
    candidates: set[str] = set()
    for tree in trees:
        candidates.add(tree.root)
        candidates.update(tree.parent.values())
        for node in tree.parent:
            cur = tree.parent[node]
            while True:
                reach.setdefault(cur, set()).add(node)
                if cur == tree.root:
                    break
                cur = tree.parent[cur]
    return sorted(candidates, key=lambda n: (-len(reach.get(n, ())), n))


def rank_by_degree(g: LayeredGraph) -> list[str]:
    """Nodes by unweighted reblog in-degree, descending; ties by node id."""
    if g.n_edges(REBLOG) == 0:
        raise ValueError("reblog layer has no edges")
    indeg = g.in_degrees(REBLOG)
    return sorted(g.node_ids, key=lambda n: (-int(indeg[g.index_of(n)]), n))


def baseline_consumers(trees: Sequence[DiffusionTree]) -> set[str]:
    """Everyone who appears below a root in some tree."""
    out: set[str] = set()
    for tree in trees:
        out |= tree.nodes() - {tree.root}
    return out


def reached_consumers(trees: Sequence[DiffusionTree], removed: set[str]) -> set[str]:
    """Nodes still reachable from a surviving root along paths that avoid
    the removed set entirely (erased posts sever their whole subtree)."""
    reached: set[str] = set()
    for tree in trees:
        if tree.root in removed:
            continue
        frontier = [tree.root]
        while frontier:
            nxt = []
            for u in frontier:
                for child in tree.children.get(u, ()):
                    # a node may already be reached via another tree, but its
                    # subtree here still needs walking
                    if child not in removed:
                        reached.add(child)
                        nxt.append(child)
            frontier = nxt
    return reached


_NEVER = np.iinfo(np.int64).max


class _Forest:
    """Every tree appearance of every node, integer-coded.

    Nodes are indexed in sorted id order, so index order is tie-break order.
    Appearance t is the root of trees[t]; the non-root appearances follow,
    tree by tree, read from `children` as reached_consumers walks them.
    parent[a] is the appearance a hangs from, -1 at a root."""

    def __init__(self, trees: Sequence[DiffusionTree]):
        roots = [tree.root for tree in trees]
        kids: list[str] = []
        above: list[str] = []
        fan: list[int] = []
        ends: list[int] = []
        for tree in trees:
            kids.extend(itertools.chain.from_iterable(tree.children.values()))
            above.extend(tree.children)
            fan.extend(map(len, tree.children.values()))
            ends.append(len(kids))
        self.ids = sorted(set(roots).union(kids))
        self.index = {n: i for i, n in enumerate(self.ids)}
        code = self.index.__getitem__
        self.node = np.fromiter(map(code, itertools.chain(roots, kids)),
                                dtype=np.int64, count=len(roots) + len(kids))
        up = np.repeat(np.fromiter(map(code, above), dtype=np.int64, count=len(above)),
                       np.array(fan, dtype=np.int64))
        tree_of = np.arange(len(trees))
        sizes = np.diff(np.array(ends, dtype=np.int64), prepend=0)
        tree_of = np.concatenate((tree_of, np.repeat(tree_of, sizes)))
        # a node appears at most once per tree, so (tree, node) keys are unique
        key = tree_of * len(self.ids) + self.node
        order = np.argsort(key)
        hang = order[np.searchsorted(key[order], tree_of[len(trees):] * len(self.ids) + up)]
        self.parent = np.concatenate((np.full(len(trees), -1), hang))

    @property
    def n_nodes(self) -> int:
        return len(self.ids)

    def candidates(self) -> np.ndarray:
        """Mask of roots and internal nodes, the removable posters."""
        mask = np.zeros(self.n_nodes, dtype=bool)
        mask[self.node[self.parent == -1]] = True
        mask[self.node[self.parent[self.parent >= 0]]] = True
        return mask

    def death_rank(self, ranking: Sequence[str]) -> np.ndarray:
        """D(n) per node: the largest, over n's non-root appearances, of the
        smallest ranking position on the root path (root and n included).
        Erasing ranking[:k] leaves n reached iff D(n) >= k. Unranked nodes
        sit at position _NEVER; duplicates keep their first position; nodes
        with no non-root appearance get -1."""
        pos = np.full(self.n_nodes, _NEVER, dtype=np.int64)
        for i in range(len(ranking) - 1, -1, -1):
            j = self.index.get(ranking[i])
            if j is not None:
                pos[j] = i
        # pointer doubling: least[a] covers ever more of a's root path
        least = pos[self.node]
        jump = self.parent.copy()
        while (has := np.flatnonzero(jump >= 0)).size:
            least[has] = np.minimum(least[has], least[jump[has]])
            jump[has] = jump[jump[has]]
        death = np.full(self.n_nodes, -1, dtype=np.int64)
        below = self.parent >= 0
        np.maximum.at(death, self.node[below], least[below])
        return death


def shrinkage_curve(trees: Sequence[DiffusionTree], ranking: Sequence[str],
                    sizes: Iterable[int] = DEFAULT_SIZES,
                    strategy: str = BY_VOLUME) -> ShrinkageCurve:
    """Fraction of baseline consumers still reached when the top-k ranked
    nodes are erased, for each requested k. One pass over the forest: a
    consumer stays reached at k iff its death rank is at least k."""
    sizes = list(sizes)
    if sizes != sorted(sizes):
        raise ValueError("removal sizes must be ascending")
    death = _Forest(trees).death_rank(ranking)
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


def underage_exposure_threshold(trees: Sequence[DiffusionTree], ranking: Sequence[str],
                                ages: dict[str, int], cutoff: int = 18) -> UnderageThreshold:
    """Smallest removal prefix after which no known-underage consumer remains
    reached: one more than the largest death rank among underage baseline
    consumers, found in one pass over the forest."""
    underage = {n for n, a in ages.items() if a < cutoff}
    forest = _Forest(trees)
    death = forest.death_rank(ranking)
    exposed = death[[forest.index[n] for n in underage if n in forest.index]]
    exposed = exposed[exposed >= 0]
    if not exposed.size:
        return UnderageThreshold(0, note="no underage consumers in baseline")
    last = int(exposed.max())
    if last == _NEVER:
        raise ValueError("underage nodes remain reached even after removing "
                         "every ranked node")
    return UnderageThreshold(last + 1)


def adaptive_greedy_ranking(trees: Sequence[DiffusionTree], size: int) -> list[str]:
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
    forest = _Forest(trees)
    open_ = forest.candidates()
    n, node = forest.n_nodes, forest.node
    # key = ancestor * n + node for each non-root appearance and each node
    # on its root path (itself included); sorted, so that every round counts
    # runs of equal keys without sorting again
    keys, apps = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    app = cur = np.flatnonzero(forest.parent >= 0)
    while app.size:
        keys.append(node[cur] * n + node[app])
        apps.append(app)
        cur = forest.parent[cur]
        up = cur >= 0
        app, cur = app[up], cur[up]
    key, pair_app = np.concatenate(keys), np.concatenate(apps)
    del keys, apps
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
