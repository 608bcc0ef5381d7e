"""Transient-memory guards: the tracemalloc peaks of `_triangles`,
`build_trees` and `rank_by_volume` on the seed-11 fixture at 4x scale
(every group size times 4, every block probability divided by 4), each
bounded by a stated multiple of the bytes of the function's input arrays,
the peak of `read_events_tsv` on that fixture's events file, bounded by a
multiple of the bytes of its output columns plus one chunk, the peak of
`load_graph` on its edges file, bounded by a multiple of the bytes of its
output layers plus one chunk, the peak of `read_query_log` on a tiled
query log, bounded by a multiple of the bytes of its row columns plus one
chunk, the peak of `synth_events` on the M recipe, bounded by a
multiple of the bytes of its output columns, and the peak of `_path_stats`
on the M recipe's follow projection, bounded by a multiple of the bytes of
its CSR arrays.

Each function keeps little of what it allocates, so its peak is set by
its temporaries: clustering's row-block product, the per-event arrays of
the forest build, and the (ancestor, blog) pairs of the volume ranking.
The bounds leave room above the peaks measured here with numpy 2.4
(about 17x, 1.5x and 2.1x when clustering squared the projection in
row blocks with scipy 1.17) and sit below those of the previous versions
(about 40x, 3.6x and 9x): 2,048-row blocks, one of which held the whole
square at this scale, a forest build that kept every event-length array
alive to the end, and a ranking that held every ancestor level's pairs at
once.

`read_events_tsv` holds one chunk of the file at a time, the int32 codes
of the rows read so far and the file's vocabulary of distinct values.
Coding a chunk takes about a dozen arrays of one 8-byte entry per field,
about 12.6 times the chunk's bytes for events.tsv, and the chunks' codes
are concatenated at the end. On the 4x file (1.7 MB, 47,802 rows) its
peak is 14.8 MB, about 5.7 times the output columns plus one chunk, as it
was when each chunk was merged into dicts of ids and posts by its
reader; the line-by-line reader it replaced peaked at 7.6 times its
output columns alone. On the M file (9.7 MB, 258,252 rows) its peak
is 20.4 MB, against 21.1 MB with those dicts.

`load_graph` holds the same: one chunk of edges.tsv, the codes of the
rows read so far and the file's vocabulary. On the 4x file (376 kB,
18,308 edges, so one chunk) its peak is 7.4 MB, 4.90 times the bytes of
the output layers' arrays plus one chunk, both now and when the edge
kernel merged each chunk into a dict of node ids itself.

`read_query_log` holds an int32 query code and host code for every row
until it normalizes each distinct query and resolves each distinct host at
the end; its output, the distinct (blog, query) pairs, is far smaller.
Coding a chunk's query and host spans takes about two dozen arrays of one
8-byte entry per span. On the test's log (120 renamed copies of the
closure fixture's log: 49,320 rows, 3.4 MB) its peak is 11.3 MB, about 6.1
times 16 bytes a row plus one chunk (11.6 MB, 6.3 times, when it held
int64 codes and merged each chunk into dicts of queries and hosts); the
line-by-line reader it replaced peaked at 7.2 MB, 3.9 times. On the
617k-row, 47.6 MB log of the extract-log benchmark at seed 7, a fresh
process's max RSS rises from 28 MB to 128 MB while it reads the log,
against 124 MB with the line-by-line reader.

`synth_events` on the M recipe (16x) peaks at 11.7 MB, 1.42 times its
output columns (258,252 events); taking each wave's pairs all at once
peaks at 19.0 MB (2.30 times), and the per-holder loop it replaced peaked
at 15.6 MB (1.89 times, 253,553 events).

`_path_stats` on the M follow projection (4,320 nodes, 96,970 entries,
1.59 MB of CSR arrays; every node a source) peaks at 4.6 MB, 2.9 times
the CSR's bytes: a few arrays of one 8-byte entry per live entry and one
block of at most _PATH_BLOCK gathered frontier rows. Gathering each
level's frontier rows in one piece peaked at 9.5 MB (6.0 times).

Clustering's basis stays the bytes of the projection as a float64 matrix
with int32 index arrays, whatever dtypes the arrays actually have, so a
wider index array does not loosen its bound.
"""

import tracemalloc
from dataclasses import fields, replace

import pytest

from devgraph import ingest
from devgraph.diffusion import build_trees, producer_nodes, read_events_tsv, write_events_tsv
from devgraph.ingest import read_query_log
from devgraph.community import _projection
from devgraph.graph import (FOLLOW, LAYERS, _path_stats, _triangles, gwcc, id_mask,
                            load_graph, write_edge_tsv)
from devgraph.intervention import rank_by_volume
from devgraph.synth import SynthConfig, closure_fixture, planted_graph, synth_events

SCALE = 4
# the M recipe's scale, for synth_events
M_SCALE = 16

# peak over input array bytes
TRIANGLES_BOUND = 24
BUILD_TREES_BOUND = 2
RANK_BY_VOLUME_BOUND = 3
# peak over output column bytes plus one chunk
READ_EVENTS_BOUND = 8
READ_QUERY_LOG_BOUND = 8
LOAD_GRAPH_BOUND = 6
# peak over output column bytes
SYNTH_EVENTS_BOUND = 1.75
# peak over the bytes of the CSR arrays
PATH_STATS_BOUND = 4
# renamed copies of the closure fixture's log in the query-log input
LOG_COPIES = 120


def scaled_config(scale: int = SCALE) -> SynthConfig:
    cfg = SynthConfig(seed=11)
    changes = {}
    for f in fields(SynthConfig):
        value = getattr(cfg, f.name)
        if f.name.startswith("n_") and f.name != "n_noise_blogs":
            changes[f.name] = value * scale
        elif f.name.startswith("p_"):
            changes[f.name] = value / scale
    return replace(cfg, **changes)


@pytest.fixture(scope="module")
def fixture():
    cfg = scaled_config()
    g, roles = planted_graph(cfg)
    events = synth_events(cfg, g, roles)
    return g, events, id_mask(events.ids, producer_nodes(roles))


def peak_bytes(fn, *args) -> int:
    """tracemalloc's peak while fn runs, its result included."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def nbytes(*arrays) -> int:
    return sum(a.nbytes for a in arrays)


def test_triangles_peak(fixture):
    g, _events, _producers = fixture
    # the follow layer is one weak component, so this is its GWCC's projection
    assert gwcc(g, FOLLOW).all()
    u, _m = _projection(g, FOLLOW)
    # float64 data, int32 indices and int32 indptr
    bound = TRIANGLES_BOUND * (8 * len(u.indices) + 4 * len(u.indices) + 4 * len(u.indptr))
    assert peak_bytes(_triangles, u) <= bound


def test_build_trees_peak(fixture):
    _g, events, producers = fixture
    bound = BUILD_TREES_BOUND * nbytes(events.actor, events.source, events.post, events.ts)
    assert peak_bytes(build_trees, events, producers) <= bound


def test_rank_by_volume_peak(fixture):
    _g, events, producers = fixture
    forest = build_trees(events, producers)
    bound = RANK_BY_VOLUME_BOUND * nbytes(forest.node, forest.parent)
    assert peak_bytes(rank_by_volume, forest) <= bound


def test_read_events_tsv_peak(fixture, tmp_path):
    _g, events, _producers = fixture
    path = str(tmp_path / "events.tsv")
    write_events_tsv(events, path)
    bound = READ_EVENTS_BOUND * (nbytes(events.actor, events.source, events.post, events.ts)
                                 + ingest._CHUNK)
    assert peak_bytes(read_events_tsv, path) <= bound


def test_load_graph_peak(fixture, tmp_path):
    g, _events, _producers = fixture
    path = str(tmp_path / "edges.tsv")
    write_edge_tsv(g, path)
    layers = [load_graph(path).layer(name) for name in LAYERS]
    bound = LOAD_GRAPH_BOUND * (sum(nbytes(lay.src, lay.dst, lay.weight)
                                    for lay in layers) + ingest._CHUNK)
    assert peak_bytes(load_graph, path) <= bound


def test_read_query_log_peak(tmp_path):
    """The closure fixture's log and renamed copies of it, each with a
    letters-only token on every query and before every blog host, as the
    extract-log benchmark tiles it: most queries and hosts recur, and every
    URL and timestamp is distinct."""
    rows = [line.split("\t") for line in closure_fixture(SynthConfig(seed=11)).log_lines]
    path = tmp_path / "log.tsv"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for copy in range(LOG_COPIES):
            token = "zz" + "".join(chr(97 + copy // 26 ** k % 26) for k in range(2))
            fh.writelines(f"{copy * len(rows) + i}\t{query} {token}\t"
                          f"{url.replace('http://', 'http://' + token, 1)}\t{region}\n"
                          for i, (_ts, query, url, region) in enumerate(rows))
    # 16 bytes a row: an int64 query and host code, twice what the reader holds
    bound = READ_QUERY_LOG_BOUND * (16 * LOG_COPIES * len(rows) + ingest._CHUNK)
    assert peak_bytes(read_query_log, str(path)) <= bound


def test_synth_events_peak():
    """The cascades of the M recipe (16x: 4,320 nodes, 258k events): the
    waves are taken _PAIRS pairs at a time, so the peak stays near the
    output columns' bytes."""
    cfg = scaled_config(M_SCALE)
    g, roles = planted_graph(cfg)
    events = synth_events(cfg, g, roles)
    bound = SYNTH_EVENTS_BOUND * nbytes(events.actor, events.source, events.post, events.ts)
    assert peak_bytes(synth_events, cfg, g, roles) <= bound


def test_path_stats_peak():
    """Exact paths over the M follow projection: each level gathers its
    frontier rows a block at a time, so the peak stays near the CSR's
    bytes."""
    g, _roles = planted_graph(scaled_config(M_SCALE))
    assert gwcc(g, FOLLOW).all()
    u, _m = _projection(g, FOLLOW)
    n = len(u.indptr) - 1
    bound = PATH_STATS_BOUND * nbytes(u.indptr, u.indices, u.data)
    assert peak_bytes(_path_stats, u, n, True, 1000, None) <= bound
