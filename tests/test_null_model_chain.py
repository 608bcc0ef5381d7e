"""The null-model chain's one-batch transition matrix, built exactly on
tiny digraphs.

A state is the head of every edge slot; sources, and the weights that ride
with them, never move. A graph's swap class is every state reachable by
single swaps (a->b, c->e) => (a->e, c->b) that make no self-loop and no
edge already present. The matrix counts where `_swap_batch` sends each
state under every permutation of the slots and both pair counts, drawn
with equal odds by `rewire_null_model`. It must stay inside the class, be
symmetric, so that the uniform distribution over the class is stationary,
and have an entrywise positive power, so that the chain is irreducible and
aperiodic and converges to it.

Directed double-edge swaps cannot reorient a directed 3-cycle (Rao, Jana &
Bandyopadhyay 1996, Sankhya A 58), so the class can be smaller than the set
of all digraphs with the same degrees: "uniform" means uniform over the
class. `test_reversed_three_cycle_is_out_of_reach` shows one such graph.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np
import pytest

from devgraph.connectivity import _swap_batch

GRAPHS = {  # name -> (src, dst) per slot
    "2 disjoint edges": ([0, 2], [1, 3]),
    "3 disjoint edges": ([0, 2, 4], [1, 3, 5]),
    "4 disjoint edges": ([0, 2, 4, 6], [1, 3, 5, 7]),
    "2-cycles": ([0, 1, 2, 3, 0, 1], [1, 0, 3, 2, 2, 3]),
    "directed 3-cycle": ([0, 1, 2, 3, 4, 0], [1, 2, 0, 0, 1, 5]),
    "3-cycle fed by one source": ([0, 1, 2, 3, 3, 3], [1, 2, 0, 0, 1, 2]),
}


def swap_class(src: list[int], dst: tuple[int, ...]) -> set[tuple[int, ...]]:
    """States reachable from `dst` by single valid swaps (breadth first)."""
    seen = {dst}
    frontier = [dst]
    while frontier:
        nxt = []
        for d in frontier:
            edges = set(zip(src, d))
            for i, j in itertools.combinations(range(len(src)), 2):
                a, b, c, e = src[i], d[i], src[j], d[j]
                if a == e or c == b or (a, e) in edges or (c, b) in edges:
                    continue
                out = list(d)
                out[i], out[j] = e, b
                out = tuple(out)
                if out not in seen:
                    seen.add(out)
                    nxt.append(out)
        frontier = nxt
    return seen


def pairings(m: int) -> Counter:
    """Every slot permutation with both pair counts h = m // 2 - r, r in
    {0, 1}, tallied by the set of unordered slot pairs it proposes."""
    tally: Counter = Counter()
    for perm in itertools.permutations(range(m)):
        for r in (0, 1):
            h = m // 2 - r
            tally[frozenset(frozenset(p) for p in zip(perm[:h], perm[h:2 * h]))] += 1
    return tally


def batch(src: list[int], dst: tuple[int, ...], n: int,
          i: list[int], j: list[int]) -> tuple[int, ...]:
    out = np.array(dst, dtype=np.int64)
    _swap_batch(np.array(src, dtype=np.int64), out, n,
                np.array(i, dtype=np.int64), np.array(j, dtype=np.int64))
    return tuple(out.tolist())


def transition_counts(src: list[int], states: list[tuple[int, ...]]) -> np.ndarray:
    """counts[x, y]: the (permutation, pair count) draws whose batch sends
    state x to state y; a target outside `states` fails the test."""
    n = max(src + [v for d in states for v in d]) + 1
    index = {s: k for k, s in enumerate(states)}
    counts = np.zeros((len(states), len(states)), dtype=np.int64)
    for pairing, times in pairings(len(src)).items():
        pairs = [sorted(p) for p in pairing]
        i, j = [p[0] for p in pairs], [p[1] for p in pairs]
        for x, state in enumerate(states):
            y = batch(src, state, n, i, j)
            assert y in index, f"batch left the swap class: {state} -> {y}"
            counts[x, index[y]] += times
    return counts


def has_positive_power(counts: np.ndarray) -> bool:
    """Some power of the matrix is entrywise positive. A primitive s-by-s
    matrix has all powers from (s - 1)**2 + 1 on positive (Wielandt), so
    squaring up to that exponent decides it."""
    p = (counts > 0).astype(np.int64)
    exponent = 1
    while True:
        if p.all():
            return True
        if exponent > (len(p) - 1) ** 2 + 1:
            return False
        p = np.minimum(p @ p, 1)
        exponent *= 2


@pytest.mark.parametrize("name", GRAPHS)
def test_one_batch_matrix_symmetric_and_aperiodic(name):
    src, dst = GRAPHS[name]
    states = sorted(swap_class(src, tuple(dst)))
    counts = transition_counts(src, states)
    assert (counts.sum(axis=1) == 2 * math.factorial(len(src))).all()
    assert np.array_equal(counts, counts.T)
    assert has_positive_power(counts)


def test_classes_are_not_trivial():
    """Every graph but the 3-cycle example has more than one state to mix."""
    sizes = {name: len(swap_class(src, tuple(dst))) for name, (src, dst) in GRAPHS.items()}
    assert sizes["3-cycle fed by one source"] == 1
    assert all(size > 1 for name, size in sizes.items() if name != "3-cycle fed by one source")


def test_reversed_three_cycle_is_out_of_reach():
    """0->1->2->0 plus 3->0, 3->1, 3->2: the reversed cycle 0->2->1->0 has
    the same degrees, but every swap makes a self-loop or an existing edge,
    so the chain stays where it starts."""
    src, dst = GRAPHS["3-cycle fed by one source"]
    reversed_cycle = (2, 0, 1, 0, 1, 2)
    assert sorted(zip(src, reversed_cycle)) != sorted(zip(src, dst))
    assert Counter(reversed_cycle) == Counter(dst)
    assert reversed_cycle not in swap_class(src, tuple(dst))


def test_batch_ignores_pair_order_and_orientation():
    """The matrix tallies each set of unordered pairs once; the batch must
    give the same state for every order of the pairs and of each pair."""
    src, dst = GRAPHS["directed 3-cycle"]
    rng = np.random.default_rng(0)
    for state in sorted(swap_class(src, tuple(dst))):
        perm = rng.permutation(len(src)).tolist()
        i, j = perm[:3], perm[3:]
        want = batch(src, state, 6, i, j)
        for order in itertools.permutations(range(3)):
            for flip in itertools.product((False, True), repeat=3):
                pairs = [(j[k], i[k]) if f else (i[k], j[k]) for k, f in zip(order, flip)]
                assert batch(src, state, 6, [p[0] for p in pairs],
                             [p[1] for p in pairs]) == want


def test_batch_same_when_packed_keys_do_not_fit():
    """With n = 2**50 the keys src * n + dst, packed with their indices,
    need more than 63 bits, so the batch sorts them with argsort; it must
    send every state where the packed sort does at the graph's own n."""
    src, dst = GRAPHS["directed 3-cycle"]
    for pairing in pairings(len(src)):
        pairs = [sorted(p) for p in pairing]
        i, j = [p[0] for p in pairs], [p[1] for p in pairs]
        for state in sorted(swap_class(src, tuple(dst))):
            assert batch(src, state, 2**50, i, j) == batch(src, state, 6, i, j)
