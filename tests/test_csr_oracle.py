"""The CSR builder `_summed` and Louvain's weighted `_projection` against
the scipy COO-to-CSR sums they replaced, kept here as oracles, and the
projection's pattern, which the statistics read, against the statistics'
former `a + a.T` 0/1 projection.

With dyadic weights (small multiples of 0.5) every sum is exact whatever
order it is added in, so `indptr`, `indices` and `data` must match exactly
(`==`). Other weights are summed in input order, which
`test_summed_adds_repeats_in_input_order` pins.
"""

from functools import reduce

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from devgraph.community import _projection
from devgraph.graph import LAYERS, REBLOG, _summed, build_graph

dyadic = st.integers(-6, 6).map(lambda k: k / 2)


def coo_summed(rows, cols, weights, size: int) -> sp.csr_matrix:
    """The previous `_summed`, verbatim."""
    return sp.csr_matrix((weights, (rows, cols)), shape=(size, size))


def coo_projection(g, layer: str) -> tuple[sp.csr_matrix, float]:
    """The previous `_projection`, verbatim."""
    lay = g.layer(layer)
    adj = coo_summed(np.concatenate((lay.src, lay.dst)), np.concatenate((lay.dst, lay.src)),
                     np.concatenate((lay.weight, lay.weight)), g.n_nodes)
    return adj, float(adj.data.sum()) / 2.0


def sum_projection(g, layer: str) -> sp.csr_matrix:
    """The previous `_undirected_projection`, verbatim but for building the
    unweighted adjacency from the layer's arrays."""
    lay = g.layer(layer)
    a = sp.csr_matrix((np.ones(lay.n_edges), (lay.src, lay.dst)),
                      shape=(g.n_nodes, g.n_nodes))
    u = a + a.T
    u.data = np.ones_like(u.data)
    return u.tocsr()


def same_csr(got, want) -> None:
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data, want.data)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11), dyadic),
                                    max_size=60))
def test_summed_matches_coo(size, entries):
    """Repeats, entries that add up to 0 and empty rows included."""
    rows = np.array([r % size for r, _c, _w in entries], dtype=np.int64)
    cols = np.array([c % size for _r, c, _w in entries], dtype=np.int64)
    weights = np.array([w for _r, _c, w in entries], dtype=np.float64)
    same_csr(_summed(rows, cols, weights, size), coo_summed(rows, cols, weights, size))


def test_summed_adds_repeats_in_input_order():
    """0.1 + 0.2 + 0.3 and 0.3 + 0.2 + 0.1 differ in the last bit: each
    entry's repeats are added left to right as given."""
    weights = [0.1, 0.2, 0.3, 0.3, 0.2, 0.1]
    rows = np.array([0, 0, 0, 1, 1, 1])
    cols = np.array([1, 1, 1, 0, 0, 0])
    got = _summed(rows, cols, np.array(weights), 2)
    want = [reduce(lambda a, b: a + b, weights[:3]), reduce(lambda a, b: a + b, weights[3:])]
    assert want[0] != want[1]
    assert got.data.tolist() == want


graphs = st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11), dyadic,
                            st.sampled_from(LAYERS)), min_size=1, max_size=50)


@settings(max_examples=200, deadline=None)
@given(graphs)
def test_projections_match_coo(edges):
    """Reverse edges whose weights cancel are drawn often, so projections
    keep entries that add up to 0."""
    edges += [(v, u, -w, layer) for u, v, w, layer in edges[::3]]
    g = build_graph([(f"n{u}", f"n{v}", w, layer) for u, v, w, layer in edges])
    for layer in LAYERS:
        adj, m = _projection(g, layer)
        want, want_m = coo_projection(g, layer)
        same_csr(adj, want)
        assert m == want_m
        pattern = sum_projection(g, layer)
        assert np.array_equal(adj.indptr, pattern.indptr)
        assert np.array_equal(adj.indices, pattern.indices)


def test_projection_keeps_a_pair_that_cancels():
    g = build_graph([("a", "b", 1.5, REBLOG), ("b", "a", -1.5, REBLOG)])
    adj, m = _projection(g, REBLOG)
    assert adj.indices.tolist() == [1, 0] and adj.data.tolist() == [0.0, 0.0]
    assert m == 0.0
