"""The forest-flattening intervention code against the tree-walking
definitions it replaced, kept here verbatim as oracles: exact equality of
greedy rankings (ties included), shrinkage curves with their warnings, and
underage thresholds or their errors, over random overlapping forests.

The tree-walking definitions of the baseline and of the consumers still
reached (`baseline_consumers`, `reached_consumers`) live only here now;
`tests/test_intervention.py` uses them too. They walk the per-tree dicts
that `tree_helpers.trees_of` rebuilds from the forest.
"""

from collections.abc import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devgraph.diffusion import ReblogEvent, build_trees, producer_nodes
from devgraph.intervention import (
    ShrinkageCurve,
    UnderageThreshold,
    adaptive_greedy_ranking,
    shrinkage_curve,
    underage_exposure_threshold,
)
from devgraph.synth import SynthConfig, planted_graph, synth_events

from tree_helpers import DiffusionTree, trees_of


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


def oracle_shrinkage_curve(trees, ranking, sizes, strategy="ByVolume"):
    sizes = list(sizes)
    if sizes != sorted(sizes):
        raise ValueError("removal sizes must be ascending")
    baseline = baseline_consumers(trees)
    if not baseline:
        raise ValueError("no baseline consumers: trees are empty")
    warnings: list[str] = []
    fractions: list[float] = []
    for k in sizes:
        if k > len(ranking):
            warnings.append(f"size {k} exceeds ranking length {len(ranking)}; truncated")
        removed = set(ranking[:k])
        still = reached_consumers(trees, removed) & baseline
        fractions.append(len(still) / len(baseline))
    return ShrinkageCurve(sizes=tuple(sizes), reached_fraction=tuple(fractions),
                          strategy=strategy, warnings=tuple(warnings))


def oracle_underage_exposure_threshold(trees, ranking, ages, cutoff=18):
    underage = {n for n, a in ages.items() if a < cutoff}
    base = baseline_consumers(trees) & underage
    if not base:
        return UnderageThreshold(0, note="no underage consumers in baseline")

    def exposed(k: int) -> bool:
        return bool(reached_consumers(trees, set(ranking[:k])) & underage)

    if exposed(len(ranking)):
        raise ValueError("underage nodes remain reached even after removing "
                         "every ranked node")
    lo, hi = 0, len(ranking)
    while lo < hi:
        mid = (lo + hi) // 2
        if exposed(mid):
            lo = mid + 1
        else:
            hi = mid
    return UnderageThreshold(lo)


def oracle_adaptive_greedy_ranking(trees: Sequence[DiffusionTree], size: int) -> list[str]:
    candidates = {tree.root for tree in trees}
    for tree in trees:
        candidates.update(tree.parent.values())
    chosen: list[str] = []
    removed: set[str] = set()
    for _ in range(min(size, len(candidates))):
        current = len(reached_consumers(trees, removed))
        best = None
        best_gain = -1
        for cand in sorted(candidates - removed):
            gain = current - len(reached_consumers(trees, removed | {cand}))
            if gain > best_gain:
                best_gain = gain
                best = cand
        if best is None:
            break
        chosen.append(best)
        removed.add(best)
    return chosen


def outcome(fn, *args):
    """The value, or the ValueError's message, so errors compare too."""
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


# ids of mixed length, so string order differs from numeric order
POOL = [f"n{i}" for i in (0, 1, 2, 3, 5, 8, 10, 11, 12, 20, 21, 100)]


@st.composite
def forests(draw):
    """Posts over a small shared pool, so nodes recur across trees, as roots
    in some and as consumers in others."""
    events = []
    roots = set()
    for post in range(draw(st.integers(0, 6))):
        root = draw(st.sampled_from(POOL))
        members = draw(st.lists(st.sampled_from([n for n in POOL if n != root]),
                                min_size=1, max_size=8, unique=True))
        placed = [root]
        for t, m in enumerate(members):
            src = placed[draw(st.integers(0, len(placed) - 1))]
            events.append(ReblogEvent(m, src, f"p{post}", float(t)))
            placed.append(m)
        roots.add(root)
    return build_trees(events, roots)


rankings = st.lists(st.sampled_from(POOL + ["unknown"]), max_size=10)
sizes_lists = st.lists(st.integers(-3, 15), max_size=6).map(sorted)
ages_maps = st.dictionaries(st.sampled_from(POOL + ["unknown"]), st.integers(10, 30))


@settings(max_examples=150, deadline=None)
@given(forests(), st.integers(-1, len(POOL) + 3))
def test_greedy_matches_oracle(forest, size):
    assert adaptive_greedy_ranking(forest, size) \
        == oracle_adaptive_greedy_ranking(trees_of(forest), size)


@settings(max_examples=150, deadline=None)
@given(forests(), rankings, sizes_lists)
def test_curve_matches_oracle(forest, ranking, sizes):
    assert outcome(shrinkage_curve, forest, ranking, sizes) \
        == outcome(oracle_shrinkage_curve, trees_of(forest), ranking, sizes)


@settings(max_examples=150, deadline=None)
@given(forests(), rankings, ages_maps)
def test_threshold_matches_oracle(forest, ranking, ages):
    assert outcome(underage_exposure_threshold, forest, ranking, ages) \
        == outcome(oracle_underage_exposure_threshold, trees_of(forest), ranking, ages)


@pytest.fixture(scope="module")
def default_forest():
    cfg = SynthConfig(seed=11)
    g, roles = planted_graph(cfg)
    return build_trees(synth_events(cfg, g, roles), producer_nodes(roles))


def test_greedy_matches_oracle_on_default_fixture(default_forest):
    assert adaptive_greedy_ranking(default_forest, 20) \
        == oracle_adaptive_greedy_ranking(trees_of(default_forest), 20)


def test_curve_and_threshold_match_oracle_on_default_fixture(default_forest):
    trees = trees_of(default_forest)
    ranking = sorted({n for t in trees for n in t.nodes()}, reverse=True)
    ranking = ranking[:60] + ranking[:5]
    sizes = [0, 1, 10, 30, 65, 200]
    assert shrinkage_curve(default_forest, ranking, sizes) \
        == oracle_shrinkage_curve(trees, ranking, sizes)
    ages = {n: 17 for n in ranking[::7]}
    assert outcome(underage_exposure_threshold, default_forest, ranking, ages) \
        == outcome(oracle_underage_exposure_threshold, trees, ranking, ages)
