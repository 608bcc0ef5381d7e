"""The bincount perception code against the string-walking loops it
replaced, kept here verbatim as oracles; each node's out-neighbours come
from `id_helpers.graph_edges(g, layer)`, which lists them in the order the
loops saw them.
Whole curves, paradox fractions and `ValueError` messages must match
exactly, on small random graphs and on the seed-11 fixture at 1x and 4x.
"""

from __future__ import annotations

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from devgraph.diffusion import ConsumerClass, producer_nodes
from devgraph.graph import FOLLOW, LAYERS, REBLOG, LayeredGraph, build_graph
from devgraph.perception import PerceptionCurve
from devgraph.synth import SynthConfig, planted_graph, synth_events

from id_helpers import build_trees, classify_nodes, graph_edges, perception_curve, volume_paradox_fraction


def out_neighbors(g: LayeredGraph, layer: str) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {node: [] for node in g.node_ids}
    for src, dst, _ in graph_edges(g, layer):
        out[src].append(dst)
    return out


def oracle_perception_curve(g: LayeredGraph, layer: str, deviant_active: set[str],
                            exclude: set[str] | None = None,
                            step: float = 0.01) -> PerceptionCurve:
    neighbors = out_neighbors(g, layer)
    exclude = exclude or set()
    fractions: list[float] = []
    excluded_zero = 0
    for node in g.node_ids:
        if node in exclude:
            continue
        out = neighbors[node]
        if not out:
            excluded_zero += 1
            continue
        fractions.append(sum(v in deviant_active for v in out) / len(out))
    if not fractions:
        raise ValueError("no eligible nodes: every node lacks out-neighbors")
    n_steps = round(1.0 / step)
    # integer grid keeps thresholds like 0.30 exactly equal to the literal
    thresholds = np.arange(n_steps + 1) / n_steps
    fracs = np.sort(np.asarray(fractions))
    at_least = 1.0 - np.searchsorted(fracs, thresholds, side="left") / len(fracs)
    return PerceptionCurve(thresholds=tuple(float(t) for t in thresholds),
                           fraction_at_least=tuple(float(v) for v in at_least),
                           layer=layer, eligible=len(fractions),
                           excluded_zero_outdegree=excluded_zero)


def oracle_volume_paradox_fraction(g: LayeredGraph, layer: str,
                                   reblog_counts: dict[str, int],
                                   exclude: set[str] | None = None) -> float:
    neighbors = out_neighbors(g, layer)
    exclude = exclude or set()
    considered = 0
    below = 0
    for node in g.node_ids:
        if node in exclude:
            continue
        eligible = [reblog_counts[v] for v in neighbors[node]
                    if v in reblog_counts]
        if not eligible:
            continue
        considered += 1
        if reblog_counts.get(node, 0) < sum(eligible) / len(eligible):
            below += 1
    if considered == 0:
        raise ValueError("no nodes with eligible out-neighbors")
    return below / considered


def outcome(fn, *args, **kwargs):
    """The result with its type, or the type and message of the exception
    raised."""
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)
    if isinstance(result, PerceptionCurve):
        assert [type(getattr(result, f.name)) for f in fields(result)] \
            == [tuple, tuple, str, int, int]
    return type(result), result


# -- random graphs ------------------------------------------------------------

# "zz" never joins a graph: sets may name nodes the graph lacks
NODES = ("a", "b", "c", "d", "e", "f", "g")
names = st.sampled_from(NODES + ("zz",))
node_sets = st.one_of(st.none(), st.sets(names))
# floats whose sums depend on the order of addition
counts = st.one_of(st.integers(0, 20), st.sampled_from((0.1, 0.2, 0.3, 1 / 3, -0.0, 1e16)))
count_maps = st.dictionaries(names, counts)
steps = st.sampled_from((0.01, 0.05, 0.1, 0.25, 0.3, 1 / 3, 0.5, 0.7, 1.0))
graphs = st.lists(st.tuples(st.sampled_from(NODES), st.sampled_from(NODES),
                            st.just(1.0), st.sampled_from(LAYERS)),
                  max_size=40).map(build_graph)


@settings(max_examples=400, deadline=None)
@given(graphs, st.sampled_from(LAYERS), st.sets(names), node_sets, steps)
def test_curve_matches_oracle(g, layer, active, exclude, step):
    assert outcome(perception_curve, g, layer, active, exclude=exclude, step=step) \
        == outcome(oracle_perception_curve, g, layer, active, exclude=exclude, step=step)


@settings(max_examples=400, deadline=None)
@given(graphs, st.sampled_from(LAYERS), count_maps, node_sets)
# (0.1 + 0.2) + 0.3 = 0.6000000000000001 but (0.3 + 0.2) + 0.1 = 0.6: a's
# mean is above its own 0.2 only when summed in out-neighbour order
@example(build_graph([("a", x, 1.0, FOLLOW) for x in "bcd"]), FOLLOW,
         {"a": 0.2, "b": 0.1, "c": 0.2, "d": 0.3}, None)
def test_paradox_matches_oracle(g, layer, reblog_counts, exclude):
    assert outcome(volume_paradox_fraction, g, layer, reblog_counts, exclude=exclude) \
        == outcome(oracle_volume_paradox_fraction, g, layer, reblog_counts, exclude=exclude)


# -- the seed-11 fixture ------------------------------------------------------

def scaled(cfg: SynthConfig, k: int) -> SynthConfig:
    """Every group size times k and every block probability over k."""
    return replace(cfg, **{f.name: getattr(cfg, f.name) * k for f in fields(cfg)
                           if f.name.startswith("n_") and f.name != "n_noise_blogs"},
                   **{f.name: getattr(cfg, f.name) / k for f in fields(cfg)
                      if f.name.startswith("p_")})


@pytest.mark.parametrize("scale", [1, 4])
def test_pipeline_inputs_match_oracle_on_fixture(scale):
    """The active set, producers and reblog-degree counts that `pipeline`
    feeds the two functions."""
    cfg = scaled(SynthConfig(seed=11), scale)
    g, roles = planted_graph(cfg)
    producers = producer_nodes(roles)
    classes = classify_nodes(g, build_trees(synth_events(cfg, g, roles), producers), roles)
    active = producers | {n for n, c in classes.items()
                          if c in (ConsumerClass.ACTIVE_DIRECT, ConsumerClass.ACTIVE_INDIRECT)}
    degree = g.out_degrees(REBLOG) + g.in_degrees(REBLOG)
    reblog_counts = {n: int(d) for n, d in zip(g.node_ids, degree.tolist())
                     if n in active and d > 0}
    for layer in LAYERS:
        for step in (0.05, 0.01):
            curve = perception_curve(g, layer, active, exclude=producers, step=step)
            assert curve == oracle_perception_curve(g, layer, active, exclude=producers,
                                                    step=step)
        assert volume_paradox_fraction(g, layer, reblog_counts, exclude=producers) \
            == oracle_volume_paradox_fraction(g, layer, reblog_counts, exclude=producers)
    assert curve.eligible > 0 and 0 < curve.fraction_at_least[1] < 1
