"""The file writers against the per-file loops they replaced, kept here
verbatim as oracles, and the comma-separated tables read back by their
readers.

Every writer now goes through `ingest._write_lines`, and the tables
through `ingest._write_rows` and its one cell rule. On every input drawn
here the writers equal the oracles byte for byte, with one exception that
no output can show: the old group-matrix writer printed -inf as `inf`,
where the shared rule prints `-inf`. Matrix cells are counts, densities and
ratios of counts, never negative, so the matrix draws leave -inf out.

edges.tsv and events.tsv are now joined as bytes from the encoded names
(`ingest._tsv_rows`). Their oracles, the writers they replaced, are also
held to them on multibyte ids of every length, timestamps and weights
whose `%g` text rounds or has a sign, an exponent, inf or nan, row counts
at the ends of a slice, and the seed-11 fixture at 16x.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devgraph.cli import _json_dump
from devgraph.community import (
    Partition,
    read_partition_csv,
    read_role_map_csv,
    write_partition_csv,
    write_role_map_csv,
)
from devgraph.connectivity import GroupMatrix, write_group_matrix_csv
from devgraph.demographics import (
    DEFAULT_BANDS,
    GENDERS,
    ClassDemographics,
    EngagementCurve,
    read_demographics_csv,
    write_age_histogram_csv,
    write_class_demographics_csv,
    write_demographics_csv,
    write_engagement_csv,
)
from devgraph.diffusion import (
    _BATCH,
    ConsumerClass,
    _CodedEvents,
    read_classes_csv,
    write_classes_csv,
    write_events_tsv,
)
from devgraph.expansion import TrajectoryRow, write_trajectory_csv
from devgraph.graph import (
    LAYERS,
    LayeredGraph,
    _Layer,
    build_graph,
    load_graph,
    read_labels_csv,
    write_edge_tsv,
    write_labels_csv,
)
from devgraph.ingest import write_phrases
from devgraph.intervention import ShrinkageCurve, write_shrinkage_csv
from devgraph.perception import PerceptionCurve, write_curves_csv
from devgraph.synth import SynthConfig, planted_graph, synth_events, write_config

from id_helpers import demographics_table, graph_edges, records
from id_oracles import DemographicRecord
from log_helpers import stamp_text

# -- the oracles ---------------------------------------------------------------


def oracle_write_partition_csv(assignment: dict[str, int], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("node,community\n")
        for node in sorted(assignment):
            fh.write(f"{node},{assignment[node]}\n")


def oracle_write_role_map_csv(role_map: dict[int, str], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("community,role\n")
        for c in sorted(role_map):
            fh.write(f"{c},{role_map[c]}\n")


def oracle_write_labels_csv(labels: dict[str, str], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("node,group\n")
        for node in sorted(labels):
            fh.write(f"{node},{labels[node]}\n")


def oracle_write_edge_tsv(g, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for layer in LAYERS:
            for src, dst, w in graph_edges(g, layer):
                fh.write(f"{src}\t{dst}\t{stamp_text(w)}\t{layer}\n")


def write_partition_by_id(assignment: dict[str, int], path: str) -> None:
    """write_partition_csv of the partition whose nodes are the keys."""
    write_partition_csv(Partition(tuple(assignment), np.array(list(assignment.values())), 0.0),
                        path)


def write_classes_by_id(classes: dict[str, ConsumerClass], path: str) -> None:
    """write_classes_csv of the keys' classes, as class codes."""
    codes = [tuple(ConsumerClass).index(c) for c in classes.values()]
    write_classes_csv(tuple(classes), np.array(codes, dtype=np.int64), path)


def write_demographics_by_id(demo: dict[str, DemographicRecord], path: str) -> None:
    """write_demographics_csv of the records' coded table."""
    write_demographics_csv(demographics_table(demo), path)


def read_demographics_by_id(path: str, diagnostics: Counter) -> dict[str, DemographicRecord]:
    return records(read_demographics_csv(path, diagnostics))


def oracle_write_classes_csv(classes: dict[str, ConsumerClass], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("node,class\n")
        for node in sorted(classes):
            fh.write(f"{node},{classes[node].value}\n")


def oracle_write_events_tsv(events: _CodedEvents, path: str) -> None:
    """One actor, source, post, time row per event, written by columns in
    slices of _BATCH rows; each distinct timestamp of a slice is formatted
    once, by `stamp_text`."""
    ids, posts = np.array(events.ids, dtype=object), np.array(events.posts, dtype=object)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for lo in range(0, len(events), _BATCH):
            rows = slice(lo, lo + _BATCH)
            # unique bit patterns, so 0.0 and -0.0 keep their own text
            bits, at = np.unique(events.ts[rows].view(np.int64), return_inverse=True)
            ts = np.array([stamp_text(t) for t in bits.view(np.float64).tolist()], dtype=object)
            fh.writelines(map("{}\t{}\t{}\t{}\n".format, ids[events.actor[rows]].tolist(),
                              ids[events.source[rows]].tolist(),
                              posts[events.post[rows]].tolist(), ts[at].tolist()))


def oracle_write_demographics_csv(demo: dict[str, DemographicRecord], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("node,age,gender\n")
        for node in sorted(demo):
            rec = demo[node]
            fh.write(f"{node},{rec.age},{rec.gender}\n")


def oracle_write_engagement_csv(curves: dict[str, EngagementCurve], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("gender,band_lo,band_hi,raw,normalized\n")
        for gender in sorted(curves):
            c = curves[gender]
            for (lo, hi), raw, norm in zip(c.bands, c.raw, c.normalized):
                r = "" if raw is None else f"{raw:.10g}"
                n = "" if norm is None else f"{norm:.10g}"
                fh.write(f"{gender},{lo},{hi},{r},{n}\n")


def oracle_as_dict(self: ClassDemographics) -> dict:
    """The deleted `ClassDemographics.as_dict`."""
    return {
        "class": self.class_name, "size": self.size, "covered": self.covered,
        "coverage": self.coverage, "mean_age": self.mean_age,
        "median_age": self.median_age, "std_age": self.std_age,
        "under_18": self.under_18, "male_fraction": self.male_fraction,
        "female_fraction": self.female_fraction,
        "unknown_gender": self.unknown_gender,
    }


def oracle_write_class_demographics_csv(stats: dict[str, ClassDemographics], path: str) -> None:
    cols = ("class", "size", "covered", "coverage", "mean_age", "median_age",
            "std_age", "under_18", "male_fraction", "female_fraction", "unknown_gender")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for name in sorted(stats):
            d = oracle_as_dict(stats[name])
            cells = []
            for c in cols:
                v = d[c]
                if v is None:
                    cells.append("")
                elif isinstance(v, float):
                    cells.append(f"{v:.10g}")
                else:
                    cells.append(str(v))
            fh.write(",".join(cells) + "\n")


def oracle_write_age_histogram_csv(hist: dict[str, list[int]], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("class,band_lo,band_hi,count\n")
        for name in sorted(hist):
            for (lo, hi), count in zip(DEFAULT_BANDS, hist[name]):
                fh.write(f"{name},{lo},{hi},{count}\n")


def oracle_write_group_matrix_csv(mat: GroupMatrix, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("origin," + ",".join(mat.groups) + "\n")
        for grp, row in zip(mat.groups, mat.values):
            cells = ",".join("inf" if math.isinf(x) else f"{x:.10g}" for x in row)
            fh.write(f"{grp},{cells}\n")


def oracle_write_shrinkage_csv(curves, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("removed,reached_fraction,strategy\n")
        for curve in curves:
            for k, v in zip(curve.sizes, curve.reached_fraction):
                fh.write(f"{k},{v:.10g},{curve.strategy}\n")


def oracle_write_curves_csv(curves, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("threshold,fraction,layer\n")
        for curve in curves:
            for t, v in zip(curve.thresholds, curve.fraction_at_least):
                fh.write(f"{t:.4g},{v:.10g},{curve.layer}\n")


def oracle_write_trajectory_csv(trajectory, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("iteration,keywords,blogs,queries\n")
        for row in trajectory:
            fh.write(f"{row.iteration},{row.keywords},{row.blogs},{row.queries}\n")


def oracle_write_phrases(phrases, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for p in sorted(phrases):
            fh.write(p + "\n")


def oracle_write_config(cfg: SynthConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for f in fields(SynthConfig):
            fh.write(f"{f.name}={getattr(cfg, f.name)}\n")


def oracle_json_dump(obj, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- the inputs ----------------------------------------------------------------

# any text UTF-8 can encode, line breaks and commas included
text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
ints = st.integers(-10**12, 10**12)
SPECIAL = [-0.0, 0.0, 1 / 3, 1e16, math.inf, -math.inf, 2.5e-7, 123456789.0]
plain_floats = st.one_of(st.floats(), st.sampled_from(SPECIAL))
# python and numpy scalars, which format alike
ints_any = st.one_of(ints, ints.map(np.int64))
floats_any = st.one_of(plain_floats, plain_floats.map(np.float64))
optional_floats = st.one_of(st.none(), floats_any)


def classes_demographics(name: str):
    return st.builds(ClassDemographics, st.just(name), ints_any, ints_any, floats_any,
                     optional_floats, optional_floats, optional_floats, optional_floats,
                     optional_floats, optional_floats, ints_any)


def engagement_curve(gender: str):
    n = len(DEFAULT_BANDS)
    values = st.lists(optional_floats, min_size=n, max_size=n).map(tuple)
    return st.builds(EngagementCurve, st.just(gender), st.just(DEFAULT_BANDS), values, values)


@st.composite
def group_matrices(draw):
    groups = tuple(draw(st.lists(text, max_size=4)))
    # cells are never negative, and the old writer printed -inf as inf
    cell = floats_any.filter(lambda x: x != -math.inf)
    values = tuple(tuple(draw(st.lists(cell, min_size=len(groups), max_size=len(groups))))
                   for _ in groups)
    return GroupMatrix(groups=groups, values=values, mode="Density")


@st.composite
def coded_events(draw):
    n = draw(st.integers(0, 12))
    names = st.lists(st.text(st.characters(blacklist_categories=("Cs",),
                                           blacklist_characters="\t\n\r"), min_size=1),
                     min_size=1, max_size=4, unique=True)
    ids, posts = draw(names), draw(names)
    codes = lambda k: np.array(draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)),
                               dtype=np.int64)
    ts = np.array(draw(st.lists(plain_floats, min_size=n, max_size=n)), dtype=np.float64)
    return _CodedEvents(ids, posts, codes(len(ids)), codes(len(ids)), codes(len(posts)), ts)


edge_ids = st.sampled_from(["a", "b", "c", "d", "é", "p1_0000"])
edges = st.lists(st.tuples(edge_ids, edge_ids, st.sampled_from([1.0, 0.5, 1 / 3, 1e16, 3.0]),
                           st.sampled_from(LAYERS)), max_size=12)

WRITERS = {
    "partition": (write_partition_by_id, oracle_write_partition_csv,
                  st.dictionaries(text, ints_any)),
    "role_map": (write_role_map_csv, oracle_write_role_map_csv, st.dictionaries(ints, text)),
    "labels": (write_labels_csv, oracle_write_labels_csv, st.dictionaries(text, text)),
    "classes": (write_classes_by_id, oracle_write_classes_csv,
                st.dictionaries(text, st.sampled_from(ConsumerClass))),
    "demographics": (write_demographics_by_id, oracle_write_demographics_csv,
                     st.dictionaries(text, st.builds(DemographicRecord, text, ints_any,
                                                     st.sampled_from(GENDERS)))),
    "engagement": (write_engagement_csv, oracle_write_engagement_csv,
                   st.sampled_from([(), ("male",), ("female", "male")]).flatmap(
                       lambda gs: st.fixed_dictionaries({g: engagement_curve(g) for g in gs}))),
    "class_demographics": (write_class_demographics_csv, oracle_write_class_demographics_csv,
                           st.lists(text, max_size=4, unique=True).flatmap(
                               lambda names: st.fixed_dictionaries(
                                   {n: classes_demographics(n) for n in names}))),
    "age_histogram": (write_age_histogram_csv, oracle_write_age_histogram_csv,
                      st.dictionaries(text, st.lists(ints_any, max_size=len(DEFAULT_BANDS) + 1))),
    "group_matrix": (write_group_matrix_csv, oracle_write_group_matrix_csv, group_matrices()),
    "shrinkage": (write_shrinkage_csv, oracle_write_shrinkage_csv,
                  st.lists(st.builds(ShrinkageCurve, st.lists(ints_any).map(tuple),
                                     st.lists(floats_any).map(tuple), text))),
    "curves": (write_curves_csv, oracle_write_curves_csv,
               st.lists(st.builds(PerceptionCurve, st.lists(floats_any).map(tuple),
                                  st.lists(floats_any).map(tuple), text, ints, ints))),
    "trajectory": (write_trajectory_csv, oracle_write_trajectory_csv,
                   st.lists(st.builds(TrajectoryRow, ints_any, ints_any, ints_any, ints_any))),
    "phrases": (write_phrases, oracle_write_phrases, st.lists(text)),
    "edges": (write_edge_tsv, oracle_write_edge_tsv, edges.map(build_graph)),
    "events": (write_events_tsv, oracle_write_events_tsv, coded_events()),
    "config": (write_config, oracle_write_config,
               st.builds(SynthConfig, seed=ints, p_intra_producer=floats_any,
                         demo_coverage=st.just(0.35 / 370), n_outer=ints_any)),
    "json": (_json_dump, oracle_json_dump,
             st.recursive(st.one_of(st.none(), ints, st.floats(allow_nan=False), text),
                          lambda kids: st.one_of(st.lists(kids), st.dictionaries(text, kids)),
                          max_leaves=12)),
}


def written(writer, value) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out")
        writer(value, path)
        with open(path, "rb") as fh:
            return fh.read()


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(WRITERS)), st.data())
def test_writers_match_oracle(name, data):
    writer, oracle, values = WRITERS[name]
    value = data.draw(values)
    assert written(writer, value) == written(oracle, value)


def test_writers_match_oracle_on_empty_tables():
    for value, writer, oracle in [
            ({}, write_partition_by_id, oracle_write_partition_csv),
            ({}, write_role_map_csv, oracle_write_role_map_csv),
            ({}, write_labels_csv, oracle_write_labels_csv),
            ({}, write_classes_by_id, oracle_write_classes_csv),
            ({}, write_demographics_by_id, oracle_write_demographics_csv),
            ({}, write_engagement_csv, oracle_write_engagement_csv),
            ({}, write_class_demographics_csv, oracle_write_class_demographics_csv),
            ({}, write_age_histogram_csv, oracle_write_age_histogram_csv),
            (GroupMatrix((), (), "Density"), write_group_matrix_csv,
             oracle_write_group_matrix_csv),
            ([], write_shrinkage_csv, oracle_write_shrinkage_csv),
            ([], write_curves_csv, oracle_write_curves_csv),
            ([], write_trajectory_csv, oracle_write_trajectory_csv),
            ([], write_phrases, oracle_write_phrases),
            (build_graph([]), write_edge_tsv, oracle_write_edge_tsv),
            (_CodedEvents([], [], *(np.empty(0, np.int64),) * 3, np.empty(0)),
             write_events_tsv, oracle_write_events_tsv)]:
        assert written(writer, value) == written(oracle, value), writer.__name__


def test_events_match_oracle_over_slices():
    """More rows than one slice holds, with -0.0 and 0.0 in one slice."""
    n = _BATCH + 5
    rng = np.random.default_rng(0)
    ts = rng.integers(0, 50, n).astype(np.float64) / 4
    ts[::7] = -0.0
    events = _CodedEvents(["u", "v", "w"], ["p1", "p2"], rng.integers(0, 3, n),
                          rng.integers(0, 3, n), rng.integers(0, 2, n), ts)
    assert written(write_events_tsv, events) == written(oracle_write_events_tsv, events)


# -- the tab-separated writers, joined from bytes ------------------------------

# ids of one to four bytes a character, and of different lengths
MULTIBYTE = ["a", "é", "ß" * 7, "日本語", "\U0001f642", "x\U0001f642é日", "p1_0000", "out_12345"]
tsv_ids = st.one_of(st.sampled_from(MULTIBYTE),
                    st.text(st.characters(blacklist_categories=("Cs",),
                                          blacklist_characters="\t\n\r"),
                            min_size=1, max_size=12))
# float(2**53 + 1) is 2**53: 2**53 + 1 has no float64
STAMP_SPECIAL = [-0.0, 0.0, math.inf, -math.inf, math.nan, 1e-7, float(2**53 + 1),
                 2.0**53 + 2, 0.1, 1 / 3, 123456.5, 1234567.0, 5e-324, -1e300]
WEIGHT_SPECIAL = [0.1, 1e20, -0.0, 0.0, 1 / 3, 1.0, 3.0, 1e16, math.inf, math.nan, 2.5e-7]


@st.composite
def tsv_events(draw):
    ids = draw(st.lists(tsv_ids, min_size=1, max_size=6, unique=True))
    posts = draw(st.lists(tsv_ids, min_size=1, max_size=4, unique=True))
    n = draw(st.integers(0, 20))
    codes = lambda k: np.array(draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)),
                               dtype=np.int64)
    stamps = st.one_of(st.sampled_from(STAMP_SPECIAL), st.floats())
    ts = np.array(draw(st.lists(stamps, min_size=n, max_size=n)), dtype=np.float64)
    return _CodedEvents(ids, posts, codes(len(ids)), codes(len(ids)), codes(len(posts)), ts)


@st.composite
def tsv_graphs(draw):
    ids = draw(st.lists(tsv_ids, min_size=1, max_size=6, unique=True))
    cell = st.tuples(st.integers(0, len(ids) - 1), st.integers(0, len(ids) - 1))
    pairs = {name: draw(st.lists(cell, max_size=12, unique=True)) for name in LAYERS}
    weight = st.one_of(st.sampled_from(WEIGHT_SPECIAL), st.floats())
    layers = {}
    for name in LAYERS:
        # weights kept as drawn: build_graph would add up the reblog
        # weights and make every follow weight 1
        cells = np.array(pairs[name], dtype=np.int64).reshape(-1, 2)
        weights = draw(st.lists(weight, min_size=len(cells), max_size=len(cells)))
        layers[name] = _Layer(cells[:, 0], cells[:, 1], np.array(weights))
    return LayeredGraph(ids, layers)


@settings(max_examples=200, deadline=None)
@given(tsv_events())
def test_events_writer_matches_oracle_on_multibyte_ids_and_special_stamps(events):
    assert written(write_events_tsv, events) == written(oracle_write_events_tsv, events)


@settings(max_examples=200, deadline=None)
@given(tsv_graphs())
def test_edges_writer_matches_oracle_on_multibyte_ids_and_special_weights(g):
    assert written(write_edge_tsv, g) == written(oracle_write_edge_tsv, g)


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_tsv_writers_match_oracle_at_slice_ends(extra):
    """_BATCH - 1, _BATCH and _BATCH + 1 rows, over multibyte ids and the
    special timestamps and weights."""
    n = _BATCH + extra
    rng = np.random.default_rng(n)
    ids = MULTIBYTE
    ts = rng.choice(STAMP_SPECIAL, n)
    events = _CodedEvents(ids, ids[:3], rng.integers(0, len(ids), n),
                          rng.integers(0, len(ids), n), rng.integers(0, 3, n), ts)
    assert written(write_events_tsv, events) == written(oracle_write_events_tsv, events)
    # n distinct pairs in each layer: codes over n + 1 ids
    names = [f"{ids[i % len(ids)]}{i}" for i in range(n + 1)]
    src = np.arange(n)
    g = LayeredGraph(names, {name: _Layer(src, src + 1, rng.choice(WEIGHT_SPECIAL, n))
                             for name in LAYERS})
    assert written(write_edge_tsv, g) == written(oracle_write_edge_tsv, g)


def test_tsv_writers_match_oracle_on_m_fixture():
    """The seed-11 fixture at 16x: 4,320 nodes, 74k edges, 258k events."""
    cfg = SynthConfig(seed=11)
    cfg = replace(cfg, **{f.name: getattr(cfg, f.name) * 16 for f in fields(SynthConfig)
                          if f.name.startswith("n_") and f.name != "n_noise_blogs"},
                  **{f.name: getattr(cfg, f.name) / 16 for f in fields(SynthConfig)
                     if f.name.startswith("p_")})
    g, roles = planted_graph(cfg)
    events = synth_events(cfg, g, roles)
    assert len(events) > _BATCH
    assert written(write_events_tsv, events) == written(oracle_write_events_tsv, events)
    assert written(write_edge_tsv, g) == written(oracle_write_edge_tsv, g)


# -- round trips ---------------------------------------------------------------

# an id the tables hold: no comma, no line break, no whitespace at either end
ids = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters=",\n\r"),
              min_size=1, max_size=6).filter(lambda s: s == s.strip())


ROUND_TRIPS = {
    "labels": (write_labels_csv, read_labels_csv, st.dictionaries(ids, ids)),
    "partition": (write_partition_by_id,
                  read_partition_csv, st.dictionaries(ids, ints)),
    "role_map": (write_role_map_csv, read_role_map_csv, st.dictionaries(ints, ids)),
    "classes": (write_classes_by_id, read_classes_csv,
                st.dictionaries(ids, st.sampled_from(ConsumerClass))),
    "demographics": (write_demographics_by_id, read_demographics_by_id,
                     st.dictionaries(ids, st.tuples(st.integers(1, 119), st.sampled_from(
                         ["male", "female", "unknown"]))).map(
                         lambda d: {n: DemographicRecord(n, a, g) for n, (a, g) in d.items()})),
}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(ROUND_TRIPS)), st.data())
def test_tables_read_back(name, data):
    """Each table reads back as the mapping written, with nothing skipped.
    The ids hold no comma, line break or whitespace at either end, which
    build_graph keeps out of the graph."""
    writer, reader, values = ROUND_TRIPS[name]
    value = data.draw(values)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.csv")
        writer(value, path)
        diagnostics = Counter()
        assert reader(path, diagnostics) == value
    assert not diagnostics


def test_rows_that_spell_the_header_read_back(tmp_path):
    """Only the first line can be the header: a labels row for node `node`
    in group `group`, in any case, is a row."""
    labels = {"node": "group", "NODE": "Group", "a": "producer"}
    path = str(tmp_path / "labels.csv")
    write_labels_csv(labels, path)
    diagnostics = Counter()
    assert read_labels_csv(path, diagnostics) == labels
    assert not diagnostics


def test_edge_weights_read_back(tmp_path):
    """Weights whose %g text rounds read back as the same floats, through
    build_graph, write_edge_tsv and load_graph."""
    weights = [1234567.5, 0.1 + 0.2, 1 / 3, 2.0]
    g = build_graph([("a", "b", weights[0], "F")]
                    + [(f"n{i}", f"n{i + 1}", w, "R") for i, w in enumerate(weights)])
    path = str(tmp_path / "edges.tsv")
    write_edge_tsv(g, path)
    diagnostics = Counter()
    back = load_graph(path, diagnostics)
    assert back.node_ids == g.node_ids
    assert [graph_edges(back, name) for name in LAYERS] \
        == [graph_edges(g, name) for name in LAYERS]
    assert graph_edges(back, "R")[:2] == [("n0", "n1", 1234567.5), ("n1", "n2", 0.1 + 0.2)]
    assert not diagnostics
