"""The stages by node id, for tests that state their facts by id.

The library's stages read node codes and masks; ids become codes where a
file is read and turn back into ids where a table is written. Each helper
here does the same at its own edges, as the command line does: it turns
its id arguments into codes over the numbering the stage reads (one
`id_codes` or `id_mask` each), calls the stage, and turns a ranking,
partition or class array back into ids. `rewire_null_model` puts the
rewired heads back into a graph.
"""

from collections.abc import Iterable, Sequence
from itertools import compress

import numpy as np

from devgraph import (
    community,
    connectivity,
    demographics,
    diffusion,
    graph,
    intervention,
    perception,
)
from devgraph.demographics import GENDERS, Demographics
from devgraph.diffusion import ConsumerClass, bridge_nodes, producer_nodes
from devgraph.graph import LAYERS, LayeredGraph, _Layer, id_codes, id_mask

from id_oracles import DemographicRecord, classes_by_id

CLASSES = tuple(ConsumerClass)


def build_trees(events, producers: Iterable[str], diagnostics=None):
    return diffusion.build_trees(events, id_mask(events.ids, producers), diagnostics)


def classify_nodes(g: LayeredGraph, forest, roles: dict[str, str]) -> dict[str, ConsumerClass]:
    classes = diffusion.classify_nodes(g, forest, id_codes(g.node_ids, forest.ids),
                                       id_mask(g.node_ids, producer_nodes(roles)),
                                       id_mask(g.node_ids, bridge_nodes(roles)))
    return classes_by_id(g.node_ids, classes)


def reach_report(classes: dict[str, ConsumerClass], forest) -> diffusion.ReachReport:
    """The report over the classed nodes, numbered in sorted id order."""
    ids = sorted(classes)
    codes = np.array([CLASSES.index(classes[x]) for x in ids], dtype=np.int64)
    return diffusion.reach_report(codes, forest, id_codes(ids, forest.ids))


def spread_efficiency(members: set[str], forest, inverse: bool = False) -> float:
    return diffusion.spread_efficiency(id_mask(forest.ids, members), len(members), forest,
                                       inverse=inverse)


def ids_of(ids: Sequence[str], codes) -> list[str]:
    return [ids[c] for c in np.asarray(codes).tolist()]


def rank_by_volume(forest) -> list[str]:
    return ids_of(forest.ids, intervention.rank_by_volume(forest))


def rank_by_degree(g: LayeredGraph) -> list[str]:
    return ids_of(g.node_ids, intervention.rank_by_degree(g))


def adaptive_greedy_ranking(forest, size: int) -> list[str]:
    return ids_of(forest.ids, intervention.adaptive_greedy_ranking(forest, size))


def ranking_codes(forest, ranking: Sequence[str]) -> np.ndarray:
    return id_codes(forest.ids, ranking)


def shrinkage_curve(forest, ranking: Sequence[str], sizes=intervention.DEFAULT_SIZES,
                    strategy: str = intervention.BY_VOLUME):
    return intervention.shrinkage_curve(forest, ranking_codes(forest, ranking), sizes,
                                        strategy=strategy)


def age_codes(forest, ages: dict[str, int]) -> np.ndarray:
    return graph.id_values(forest.ids, ages, np.nan)


def underage_exposure_threshold(forest, ranking: Sequence[str], ages: dict[str, int],
                                **kwargs):
    return intervention.underage_exposure_threshold(
        forest, ranking_codes(forest, ranking), age_codes(forest, ages), **kwargs)


def perception_curve(g: LayeredGraph, layer: str, active: Iterable[str],
                     exclude: Iterable[str] | None = None, **kwargs):
    return perception.perception_curve(
        g, layer, id_mask(g.node_ids, active),
        exclude=None if exclude is None else id_mask(g.node_ids, exclude), **kwargs)


def count_codes(g: LayeredGraph, counts: dict[str, int]) -> tuple[np.ndarray, np.ndarray]:
    """Each node's count and the mask of the nodes with one."""
    return graph.id_values(g.node_ids, counts, 0.0), id_mask(g.node_ids, counts)


def volume_paradox_fraction(g: LayeredGraph, layer: str, counts: dict[str, int],
                            exclude: Iterable[str] | None = None) -> float:
    return perception.volume_paradox_fraction(
        g, layer, *count_codes(g, counts),
        exclude=None if exclude is None else id_mask(g.node_ids, exclude))


def assignment(part: community.Partition) -> dict[str, int]:
    return dict(zip(part.node_ids, part.membership.tolist()))


def communities(part: community.Partition) -> dict[int, set[str]]:
    """Each community's node ids."""
    out: dict[int, set[str]] = {}
    for node, c in assignment(part).items():
        out.setdefault(c, set()).add(node)
    return out


def membership(g: LayeredGraph, assignment: dict[str, int]) -> np.ndarray:
    """Each node's community; numpy picks an object array for labels that
    do not fit in int64."""
    return np.array([assignment[x] for x in g.node_ids])


def modularity(g: LayeredGraph, layer: str, assignment: dict[str, int]) -> float:
    return community.modularity(g, layer, membership(g, assignment))


def gwcc(g: LayeredGraph, layer: str) -> set[str]:
    return set(compress(g.node_ids, graph.gwcc(g, layer).tolist()))



def graph_edges(g: LayeredGraph, layer: str) -> list[tuple[str, str, float]]:
    """The layer's (src, dst, weight) edges by id, in its (src, dst) order."""
    lay = g.layer(layer)
    ids = g.node_ids
    return [(ids[u], ids[v], w)
            for u, v, w in zip(lay.src.tolist(), lay.dst.tolist(), lay.weight.tolist())]


def rewire_null_model(g: LayeredGraph, layer: str, seed, swaps_per_edge: int = 10) -> LayeredGraph:
    """g with the layer's heads rewired: its tails and weights stay, and so
    do the other layer and the node universe."""
    lay = g.layer(layer)
    rewired = _Layer(lay.src,
                     connectivity.rewire_null_model(g, layer, seed, swaps_per_edge), lay.weight)
    return LayeredGraph(g.node_ids, {name: rewired if name == layer else g.layer(name)
                                     for name in LAYERS})


def demographics_table(demo: dict[str, DemographicRecord]) -> Demographics:
    """The coded table of the records; a gender other than male or female
    is unknown."""
    return Demographics(list(demo), np.array([r.age for r in demo.values()], dtype=np.int64),
                        np.array([GENDERS.index(r.gender if r.gender in GENDERS else "unknown")
                                  for r in demo.values()], dtype=np.int64))


def records(demo: Demographics) -> dict[str, DemographicRecord]:
    """The table as a dict of records, in row order."""
    return {node: DemographicRecord(node, age, GENDERS[code])
            for node, age, code in zip(demo.ids, demo.age.tolist(), demo.gender.tolist())}


def class_codes(classes: dict[str, ConsumerClass]) -> np.ndarray:
    """The class code of each key of `classes`, in its order."""
    return np.array([CLASSES.index(c) for c in classes.values()], dtype=np.int64)


def coded_demographics(classes: dict[str, ConsumerClass], demo: dict[str, DemographicRecord]
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Class codes, ages and gender codes over the keys of `classes`."""
    return (class_codes(classes), *demographics_table(demo).over(classes))


def class_demographics(classes, demo):
    return demographics.class_demographics(*coded_demographics(classes, demo))


def age_histogram(classes, demo):
    codes, age, _gender = coded_demographics(classes, demo)
    return demographics.age_histogram(codes, age)


def engagement_by_age(classes, demo):
    return demographics.engagement_by_age(*coded_demographics(classes, demo))
