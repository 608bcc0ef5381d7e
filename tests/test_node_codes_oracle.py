"""The stages on node codes and masks against the per-id code they replaced
(`id_oracles`, verbatim), under hypothesis.

The draws put ids on one side only: graph nodes in no tree, forest nodes
outside the graph, labelled nodes without an edge (which the file route
adds to the graph) and ids in neither. Rankings repeat entries, whose first position wins, and name
nodes outside the forest, which still count toward a removal size and
toward the "exceeds ranking length" warnings. The new side turns ids into
codes as the command line does, with `id_codes` and `id_mask`.

The demographics draws leave a class without members, cover no node, some
or all, put ages on the band edges, give one class only unknown genders,
and hold rows for ids that have no class.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from devgraph import community, connectivity, demographics, diffusion, intervention, perception
from devgraph.cli import _with_nodes
from devgraph.demographics import GENDERS
from devgraph.diffusion import _CLASSES, bridge_nodes, producer_nodes
from devgraph.graph import FOLLOW, LAYERS, REBLOG, build_graph, id_codes, id_mask
from devgraph.synth import engagement_fixture

import id_oracles as old
from id_helpers import age_codes, count_codes, demographics_table, records
from log_helpers import ReblogEvent, coded_events

GRAPH_ONLY = ["g1", "g10", "g2"]
SHARED = ["s1", "s2", "s3", "s20", "é"]
FOREST_ONLY = ["f1", "f2", "f3"]
LABEL_ONLY = ["l1", "l2"]
ANY = GRAPH_ONLY + SHARED + FOREST_ONLY + LABEL_ONLY + ["zz"]
ROLES = ["producer_one", "Producer_two", "bridge_one", "outer"]


def attempt(fn, *args, **kwargs):
    """The result, with arrays as lists, or the error's type and message."""
    try:
        result = fn(*args, **kwargs)
    except ValueError as exc:
        return "ValueError", str(exc)
    if isinstance(result, tuple):
        return tuple(x.tolist() if isinstance(x, np.ndarray) else x for x in result)
    return result.tolist() if isinstance(result, np.ndarray) else result


graph_ids = st.sampled_from(GRAPH_ONLY + SHARED)
graphs = st.lists(st.tuples(graph_ids, graph_ids, st.sampled_from(LAYERS)), max_size=30).map(
    lambda edges: build_graph([(u, v, 1.0, layer) for u, v, layer in edges]))


@st.composite
def fixtures(draw):
    """(graph, roles, forest): reblog events among the shared and
    forest-only ids, most posts rooted at a producer, and roles over any of
    the ids; the labelled nodes join the graph without edges, as the file
    route adds them."""
    g = draw(graphs)
    event_ids = st.sampled_from(SHARED + FOREST_ONLY)
    events = draw(st.lists(st.tuples(event_ids, event_ids, st.sampled_from(["p0", "p1", "p2"]),
                                     st.integers(0, 3)), max_size=25))
    roles = draw(st.dictionaries(st.sampled_from(ANY[:-1]), st.sampled_from(ROLES)))
    roots = draw(st.sets(event_ids, max_size=4))
    roles = {**roles, **{x: "producer_one" for x in roots}}
    g = _with_nodes(g, roles)
    coded = coded_events([ReblogEvent(a, s, p, float(t)) for a, s, p, t in events])
    return g, roles, diffusion.build_trees(coded, id_mask(coded.ids, producer_nodes(roles)))


@settings(max_examples=120, deadline=None)
@given(fixtures())
def test_classes_and_reach_match_oracle(fixture):
    g, roles, forest = fixture
    at = id_codes(g.node_ids, forest.ids)
    classes = diffusion.classify_nodes(g, forest, at, id_mask(g.node_ids, producer_nodes(roles)),
                                       id_mask(g.node_ids, bridge_nodes(roles)))
    expected = old.classify_nodes(old.IdGraph(g), forest, roles)
    # the id table keeps the old dict's order: classed by role or tree first
    assert list(old.classes_by_id(g.node_ids, classes).items()) == list(expected.items())
    assert diffusion.reach_report(classes, forest, at) == old.reach_report(expected, forest)


@settings(max_examples=120, deadline=None)
@given(fixtures(), st.sets(st.sampled_from(ANY)), st.booleans())
def test_spread_efficiency_matches_oracle(fixture, members, inverse):
    forest = fixture[2]
    assert attempt(diffusion.spread_efficiency, id_mask(forest.ids, members), len(members),
                   forest, inverse=inverse) \
        == attempt(old.spread_efficiency, members, forest, inverse=inverse)


id_sets = st.sets(st.sampled_from(ANY))
steps = st.sampled_from((0.01, 0.1, 0.25, 1 / 3, 1.0))


@settings(max_examples=120, deadline=None)
@given(graphs, st.sampled_from(LAYERS), id_sets, st.one_of(st.none(), id_sets), steps)
def test_perception_curve_matches_oracle(g, layer, active, exclude, step):
    excluded = None if exclude is None else id_mask(g.node_ids, exclude)
    assert attempt(perception.perception_curve, g, layer, id_mask(g.node_ids, active),
                   exclude=excluded, step=step) \
        == attempt(old.perception_curve, g, layer, active, exclude=exclude, step=step)


@settings(max_examples=120, deadline=None)
@given(graphs, st.sampled_from(LAYERS),
       st.dictionaries(st.sampled_from(ANY), st.one_of(st.integers(0, 20),
                                                       st.sampled_from((0.1, 0.2, 0.3, -0.0)))),
       st.one_of(st.none(), id_sets))
# a counted node whose count is 0 is still an eligible neighbour
@example(build_graph([("s1", "s2", 1.0, FOLLOW), ("s2", "s3", 1.0, FOLLOW)]), FOLLOW,
         {"s2": 0, "s3": 4}, None)
def test_volume_paradox_matches_oracle(g, layer, counts, exclude):
    excluded = None if exclude is None else id_mask(g.node_ids, exclude)
    assert attempt(perception.volume_paradox_fraction, g, layer, *count_codes(g, counts),
                   exclude=excluded) \
        == attempt(old.volume_paradox_fraction, g, layer, counts, exclude=exclude)


@settings(max_examples=120, deadline=None)
@given(fixtures(), st.lists(st.sampled_from(ANY), max_size=10),
       st.dictionaries(st.sampled_from(ANY), st.integers(10, 30)), st.integers(15, 21))
# a duplicate keeps its first position, and an id outside the forest counts
@example((build_graph([]), {"s1": "producer_one"}, diffusion.build_trees(
    coded_events([ReblogEvent("s2", "s1", "p0", 0.0), ReblogEvent("s3", "s2", "p0", 1.0)]),
    np.array([True, False, False]))), ["zz", "s3", "s2", "s3", "s1", "s2"], {"s3": 12}, 18)
def test_removal_matches_oracle(fixture, ranking, ages, cutoff):
    forest = fixture[2]
    by_id = old.IdForest(forest)
    codes = id_codes(forest.ids, ranking)
    assert intervention._death_rank(forest, codes).tolist() \
        == old._death_rank(by_id, ranking).tolist()
    sizes = sorted({0, 1, 2, 5, len(ranking), len(ranking) + 3})
    assert attempt(intervention.shrinkage_curve, forest, codes, sizes) \
        == attempt(old.shrinkage_curve, by_id, ranking, sizes)
    assert attempt(intervention.underage_exposure_threshold, forest, codes,
                   age_codes(forest, ages), cutoff=cutoff) \
        == attempt(old.underage_exposure_threshold, by_id, ranking, ages, cutoff=cutoff)


@st.composite
def labelled_graphs(draw):
    """A graph and roles for most of its nodes, and for some ids it lacks."""
    g = draw(graphs)
    roles = {x: draw(st.sampled_from(ROLES)) for x in g.node_ids
             if draw(st.integers(0, 9))}
    roles.update(draw(st.dictionaries(st.sampled_from(LABEL_ONLY), st.sampled_from(ROLES))))
    return g, roles


@settings(max_examples=120, deadline=None)
@given(labelled_graphs(), st.sampled_from(LAYERS))
def test_edge_counts_match_oracle(labelled, layer):
    g, roles = labelled
    groups = tuple(sorted(set(roles.values())))

    def counts_and_sizes():
        role, lay = connectivity._role_codes(g, roles, groups), g.layer(layer)
        return (connectivity._edge_counts(role[lay.src], role[lay.dst], len(groups)),
                np.bincount(role, minlength=len(groups)))

    assert attempt(counts_and_sizes) == attempt(old._edge_counts, g, layer, roles, groups)


@settings(max_examples=120, deadline=None)
@given(graphs, st.sampled_from(LAYERS),
       st.lists(st.one_of(st.integers(-3, 3), st.just(2**70)), min_size=8, max_size=8))
def test_modularity_matches_oracle(g, layer, labels):
    labels = labels[:g.n_nodes]
    expected = attempt(old.modularity, g, layer, dict(zip(g.node_ids, labels)))
    assert attempt(community.modularity, g, layer, np.array(labels)) == expected


def test_rank_by_degree_maps_into_the_forest():
    """The degree ranking holds graph codes; mapped into the forest, a node
    outside it becomes -1 and still takes up its place."""
    g = build_graph([("a", "hub", 1.0, REBLOG), ("b", "hub", 1.0, REBLOG),
                     ("hub", "c", 1.0, REBLOG)])
    forest = diffusion.build_trees(coded_events([ReblogEvent("c", "p", "x", 0.0)]),
                                   np.array([False, True]))
    ranking = id_codes(forest.ids, g.node_ids)[intervention.rank_by_degree(g)]
    assert [g.node_ids[i] for i in intervention.rank_by_degree(g)] == ["hub", "c", "a", "b"]
    assert ranking.tolist() == [-1, 0, -1, -1]
    curve = intervention.shrinkage_curve(forest, ranking, sizes=[0, 1, 4, 5])
    assert curve.reached_fraction == (1.0, 1.0, 0.0, 0.0)
    assert curve.warnings == ("size 5 exceeds ranking length 4; truncated",)


# -- demographics ----------------------------------------------------------------

EDGE_AGES = (1, 12, 13, 17, 18, 22, 23, 72, 73, 119)


@st.composite
def demographic_fixtures(draw):
    """Node ids in a drawn order, their class codes, and records for some
    of them and for ids that have no class, in a drawn row order."""
    n = draw(st.integers(0, 30))
    ids = [f"n{i}" for i in draw(st.permutations(range(n)))]
    empty = draw(st.sampled_from(range(len(_CLASSES))))
    others = [c for c in range(len(_CLASSES)) if c != empty]
    codes = np.array(draw(st.lists(st.sampled_from(others), min_size=n, max_size=n)),
                     dtype=np.int64)
    coverage = draw(st.sampled_from(("none", "some", "all")))
    if coverage == "some":
        covered = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    else:
        covered = [coverage == "all"] * n
    unknown = draw(st.sampled_from(range(len(_CLASSES))))
    extra = draw(st.lists(st.sampled_from(["x1", "x2", "é"]), unique=True))
    rows = [(node, int(c) == unknown) for node, c, cov in zip(ids, codes, covered) if cov]
    rows = draw(st.permutations(rows + [(node, False) for node in extra]))
    age = st.one_of(st.sampled_from(EDGE_AGES), st.integers(1, 119))
    demo = {node: old.DemographicRecord(node, draw(age),
                                        "unknown" if blind else draw(st.sampled_from(GENDERS)))
            for node, blind in rows}
    return ids, codes, demo


@settings(max_examples=300, deadline=None)
@given(demographic_fixtures(), st.booleans())
def test_demographics_tables_match_oracle(fixture, by_rank):
    """The classes dict lists the nodes as `pipeline`'s did (classed by
    role or tree first) or in their numbering's order, as the rows of a
    classes.csv are."""
    ids, codes, demo = fixture
    classes = (old.classes_by_id(ids, codes) if by_rank
               else {node: _CLASSES[c] for node, c in zip(ids, codes.tolist())})
    age, gender = demographics_table(demo).over(ids)
    assert demographics.class_demographics(codes, age, gender) == \
        old.class_demographics(classes, demo)
    assert demographics.age_histogram(codes, age) == old.age_histogram(classes, demo)
    assert attempt(demographics.engagement_by_age, codes, age, gender) == \
        attempt(old.engagement_by_age, classes, demo)


def test_engagement_fixture_matches_oracle():
    """The fixture's class codes are over its table's rows."""
    codes, demo = engagement_fixture(per_cell=40)
    classes = {node: _CLASSES[c] for node, c in zip(demo.ids, codes.tolist())}
    assert demographics.engagement_by_age(codes, demo.age, demo.gender) == \
        old.engagement_by_age(classes, records(demo))
