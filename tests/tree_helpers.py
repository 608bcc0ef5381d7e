"""Per-tree dicts for tests: the tree-walking oracles take a list of
`DiffusionTree`s, and the library takes a `DiffusionForest`.

`forest_of` turns a list of trees into a forest through `build_trees`;
`trees_of` rebuilds each tree's root, parent, depth and children from a
forest's public arrays.
"""

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from devgraph.diffusion import DiffusionForest, ReblogEvent, build_trees


@dataclass
class DiffusionTree:
    """One post's reblog cascade: parent[child] is whose instance the child
    reblogged; depth[root] = 0."""
    root: str
    parent: dict[str, str]
    depth: dict[str, int] = field(default_factory=dict)
    children: dict[str, list[str]] = field(default_factory=dict)

    def nodes(self) -> set[str]:
        return {self.root, *self.parent}

    def edges(self) -> Iterable[tuple[str, str]]:
        for child, par in self.parent.items():
            yield par, child


def forest_of(trees: Sequence[DiffusionTree]) -> DiffusionForest:
    """The forest of the same trees in the same order, each under a post id
    of its own; a tree with no edge has no event, so it drops out."""
    events = [ReblogEvent(child, par, f"{i:09d}", 0.0)
              for i, tree in enumerate(trees) for child, par in tree.parent.items()]
    return build_trees(events, {tree.root for tree in trees})


def trees_of(forest: DiffusionForest) -> list[DiffusionTree]:
    """Every tree of `forest` in order. Parents and children are listed in
    node-code order, which is id order, and depths breadth-first."""
    ids, node, parent = forest.ids, forest.node.tolist(), forest.parent.tolist()
    trees = [DiffusionTree(root=ids[node[t]], parent={}) for t in range(len(forest))]
    for a in range(len(forest), len(node)):
        root = a
        while parent[root] >= 0:
            root = parent[root]
        trees[root].parent[ids[node[a]]] = ids[node[parent[a]]]
    for tree in trees:
        for child, par in tree.parent.items():
            tree.children.setdefault(par, []).append(child)
        tree.depth[tree.root] = 0
        frontier = [tree.root]
        while frontier:
            frontier = [ch for u in frontier for ch in tree.children.get(u, ())]
            for ch in frontier:
                tree.depth[ch] = tree.depth[tree.parent[ch]] + 1
    return trees
