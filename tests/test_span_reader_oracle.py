"""`read_events_tsv` and `load_graph`, which read their files in chunks
through `ingest._coded_rows` into one array of codes into the file's
distinct values, each of which they check or parse once, against the
line-by-line readers they replaced, kept here verbatim as oracles; and
`_coded_rows` itself against line-by-line reading.

Hypothesis writes event and edge files with clean rows and rows of 3 or 5
fields, CR, CRLF and blank-line breaks, NUL bytes, lone CRs, tabs and LFs
put in anywhere, bytes that are not UTF-8, a missing final LF, timestamps
and weights that do not parse or are NaN, bad layers and ids with a comma
or whitespace at either end. The chunk size is patched down to 1-64 bytes,
so that chunk cuts fall inside lines, one file mixes clean chunks with
chunks that `ingest._clean` rewrites first, and most values recur in later chunks,
where the file's vocabulary must give them the codes they got first.
Every comparison is exact: ids and posts (node order for the graph),
every array byte for byte, and the counters.
"""

from __future__ import annotations

import itertools
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devgraph import diffusion, graph, ingest
from devgraph.diffusion import _CodedEvents, write_events_tsv
from devgraph.graph import LayeredGraph, build_graph, write_edge_tsv
from devgraph.ingest import decoded_lines, read_query_log
from devgraph.synth import SynthConfig, planted_graph, synth_events

from test_diffusion_oracle import event_files
from test_graph_build_oracle import assert_same_graph
from test_ingest_oracle import CLEAN_LOG, DAMAGED_LOG, assert_same_log_reads, chunk_size

# -- the line-by-line readers, verbatim ---------------------------------------------------

# lines parsed at a time: about 1 MB of a typical events file
_BATCH = 1 << 15


def read_events_tsv(path: str, diagnostics: Counter | None = None) -> _CodedEvents:
    """actor<TAB>source<TAB>post_id<TAB>timestamp rows; self-reblogs, rows
    with an empty actor or source, a NaN timestamp or the wrong number of
    fields are dropped and tallied as malformed_events, and so are lines
    that are not valid UTF-8 (see `decoded_lines`)."""
    if diagnostics is None:
        diagnostics = Counter()
    lines = decoded_lines(path, diagnostics)
    batches = iter(lambda: list(itertools.islice(lines, _BATCH)), [])
    node_code: dict[str, int] = {}
    post_code: dict[str, int] = {}

    def coded(code: dict[str, int], names: list[str]) -> np.ndarray:
        return np.fromiter(map(code.__getitem__, names), dtype=np.int64, count=len(names))

    columns: list[list[np.ndarray]] = [[np.empty(0, dtype=np.int64)] for _ in range(3)]
    times = [np.empty(0, dtype=np.float64)]
    for batch in batches:
        actors, sources, posts, ts = _parse_events(batch, diagnostics)
        # codes in first-seen order; _CodedEvents ranks them
        for code, names in ((node_code, itertools.chain(actors, sources)), (post_code, posts)):
            new = dict.fromkeys(names).keys() - code.keys()
            code.update(zip(new, itertools.count(len(code))))
        for column, code, names in zip(columns, (node_code, node_code, post_code),
                                       (actors, sources, posts)):
            column.append(coded(code, names))
        times.append(ts)
        del actors, sources, posts, ts
    return _CodedEvents(list(node_code), list(post_code),
                        *map(np.concatenate, columns), np.concatenate(times))


def _parse_events(lines: list[str], diagnostics: Counter):
    """The columns of a batch of lines, split and parsed in bulk; a batch
    with any malformed row is parsed line by line instead, which keeps the
    rows in order and counts each malformed one."""
    if set(map(str.count, lines, itertools.repeat("\t"))) == {3}:
        fields = "\t".join(lines).split("\t")
        actors, sources = fields[0::4], fields[1::4]
        try:
            ts = np.fromiter(map(float, fields[3::4]), dtype=np.float64, count=len(lines))
        except ValueError:
            ts = None
        if (ts is not None and not np.isnan(ts).any() and "" not in actors
                and "" not in sources and not any(map(str.__eq__, actors, sources))):
            return actors, sources, fields[2::4], ts
    rows: list[tuple[str, str, str, float]] = []
    for line in lines:
        try:
            actor, source, post_id, ts_text = line.split("\t")
            t = float(ts_text)
        except ValueError:
            diagnostics["malformed_events"] += 1
            continue
        if t != t or not actor or not source or actor == source:
            diagnostics["malformed_events"] += 1
            continue
        rows.append((actor, source, post_id, t))
    actors, sources, posts, ts = (list(col) for col in zip(*rows)) if rows else ([], [], [], [])
    return actors, sources, posts, np.array(ts, dtype=np.float64)


def load_graph(path: str, diagnostics: Counter | None = None) -> LayeredGraph:
    """Load a graph from an edge-list TSV: src<TAB>dst<TAB>weight<TAB>layer.
    Rows without four fields and lines that are not valid UTF-8 are
    skipped and counted in `diagnostics`, as are the entries build_graph
    drops."""
    if diagnostics is None:
        diagnostics = Counter()

    def parse(lines):
        for line in lines:
            parts = line.split("\t")
            if len(parts) == 4:
                yield parts
            else:
                diagnostics["malformed_lines"] += 1

    return build_graph(parse(decoded_lines(path, diagnostics)), diagnostics)


# -- random files ----------------------------------------------------------------------

IDS = ["a", "b", "c", "n10", "é", "a,b", " a", "a ", "", "a\x00"]
WEIGHTS = ["1", "2.5", "-0", "0", "nan", "inf", "1_0", " 3 ", "1e400", "x", ""]
LAYER_TEXT = ["F", "R", "F", "R", "Z", "f", "", "F "]
BREAKS = [b"\n"] * 6 + [b"\r\n", b"\r", b"\n\n"]


@st.composite
def edge_files(draw):
    """The bytes of an edges file: rows over a few ids, most of them of
    four fields and ended by LF, with any of the id, weight and layer
    spellings, some with 3 or 5 fields or a bad byte."""
    out = []
    for _ in range(draw(st.integers(0, 14))):
        fields = [draw(st.sampled_from(IDS)), draw(st.sampled_from(IDS)),
                  draw(st.sampled_from(WEIGHTS)), draw(st.sampled_from(LAYER_TEXT))]
        width = draw(st.sampled_from([4] * 8 + [3, 5]))
        line = "\t".join((fields + ["extra"])[:width]).encode("utf-8")
        if draw(st.integers(0, 9)) == 0:
            cut = draw(st.integers(0, len(line)))
            line = line[:cut] + b"\xff" + line[cut:]
        out.append(line + draw(st.sampled_from(BREAKS)))
    return b"".join(out)


@st.composite
def damaged(draw, files):
    """A file from `files`, now and then with a NUL, a lone CR, a tab or an
    LF put in anywhere, or its final line break taken off."""
    data = draw(files)
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\x00", b"\r", b"\t", b"\n"])) + data[at:]
    if draw(st.booleans()):
        data = data.rstrip(b"\r\n")
    return data


def read_both(reader, oracle, data: bytes, size: int):
    """(reader's result, its counters) with chunks of `size` bytes, and the
    oracle's."""
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "in.tsv")
        Path(path).write_bytes(data)
        got_diagnostics, want_diagnostics = Counter(), Counter()
        with chunk_size(size):
            got = reader(path, got_diagnostics)
        want = oracle(path, want_diagnostics)
    return (got, got_diagnostics), (want, want_diagnostics)


def assert_same_events(got: _CodedEvents, want: _CodedEvents) -> None:
    assert got.ids == want.ids and got.posts == want.posts
    for name in ("actor", "source", "post", "ts"):
        x, y = getattr(got, name), getattr(want, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


def assert_same_reads(data: bytes, size: int) -> None:
    (got, got_diagnostics), (want, want_diagnostics) = read_both(
        diffusion.read_events_tsv, read_events_tsv, data, size)
    assert_same_events(got, want)
    assert dict(got_diagnostics) == dict(want_diagnostics)


def assert_same_loads(data: bytes, size: int) -> None:
    (got, got_diagnostics), (want, want_diagnostics) = read_both(
        graph.load_graph, load_graph, data, size)
    assert_same_graph(got, want)
    assert dict(got_diagnostics) == dict(want_diagnostics)


# -- the readers against the oracles -----------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(damaged(event_files()), st.integers(1, 64))
def test_events_reader_matches_oracle(data, size):
    assert_same_reads(data, size)


@settings(max_examples=400, deadline=None)
@given(damaged(edge_files()), st.integers(1, 64))
def test_graph_loader_matches_oracle(data, size):
    assert_same_loads(data, size)


@settings(max_examples=400, deadline=None)
@given(damaged(st.one_of(event_files(), edge_files())), st.integers(1, 64),
       st.integers(3, 5))
def test_coded_rows_codes_the_file_into_one_vocabulary(data, size, width):
    """`_coded_rows` gives one int32 array of codes into the file's
    distinct values, listed once each in first-seen order, and the values
    of the codes are the rows of reading the file line by line."""
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "in.tsv")
        Path(path).write_bytes(data)
        got_diagnostics, want_diagnostics = Counter(), Counter()
        with chunk_size(size):
            codes, values = ingest._coded_rows(path, width, "bad_rows", got_diagnostics)
        want = []
        for line in decoded_lines(path, want_diagnostics):
            row = line.split("\t")
            if len(row) == width:
                want.append(row)
            else:
                want_diagnostics["bad_rows"] += 1
    assert codes.dtype == np.int32 and codes.shape == (len(want), width)
    assert len(set(values)) == len(values)
    # each code first appears, in row-major order, after every smaller one
    assert list(dict.fromkeys(codes.ravel().tolist())) == list(range(len(values)))
    assert [[values[c] for c in row] for row in codes.tolist()] == want
    assert dict(got_diagnostics) == dict(want_diagnostics)


@pytest.fixture(scope="module")
def fixture_files(tmp_path_factory):
    """events.tsv and edges.tsv of the default fixture, as `synth` writes them."""
    root = tmp_path_factory.mktemp("fixture")
    cfg = SynthConfig(seed=11)
    g, roles = planted_graph(cfg)
    write_events_tsv(synth_events(cfg, g, roles), str(root / "events.tsv"))
    write_edge_tsv(g, str(root / "edges.tsv"))
    return (root / "events.tsv").read_bytes(), (root / "edges.tsv").read_bytes()


@pytest.mark.parametrize("size", [ingest._CHUNK, 4096, 100])
def test_readers_match_oracle_on_default_fixture(fixture_files, size):
    events, edges = fixture_files
    assert_same_reads(events, size)
    assert_same_loads(edges, size)


def test_clean_and_unclean_chunks_meet_in_one_file(monkeypatch):
    """Chunks of one file take both paths: a row of three fields and a row
    ended by a lone CR send their chunks through `_clean`, and only them;
    the other chunks, CRLF rows among them, are coded as they are."""
    clean = b"".join(b"n%d\tn%d\tp%d\t%d\n" % (i, i + 1, i % 3, i % 5) for i in range(40))
    data = (clean + b"x\ty\t1\n" + clean + b"x\ty\tp0\t1\r" + clean
            + b"x\ty\tp0\t1\r\n" + clean)
    cleaned = []
    clean_chunk = ingest._clean

    def spy(chunk, *args):
        cleaned.append(chunk)
        return clean_chunk(chunk, *args)

    monkeypatch.setattr(ingest, "_clean", spy)
    assert_same_reads(data, 64)
    assert len(cleaned) == 2
    assert b"x\ty\t1\n" in cleaned[0] and b"\r" not in cleaned[0]
    assert b"x\ty\tp0\t1\r" in cleaned[1] and b"\r\n" not in cleaned[1]


@pytest.mark.parametrize("size", [ingest._CHUNK, 8])
def test_chunks_of_only_bad_rows_read_as_nothing(tmp_path, size):
    """A file whose every chunk holds only blank lines and rows of three
    fields reads as no rows, each row counted, in all three readers."""
    data = b"\n\na\tb\t1\n\r\n2\tq\tb.tumblr.com\r\n" * 20
    path = tmp_path / "in.tsv"
    path.write_bytes(data)
    got = {}
    with chunk_size(size):
        for reader in (diffusion.read_events_tsv, graph.load_graph, read_query_log):
            diagnostics = Counter()
            got[reader] = reader(str(path), diagnostics), diagnostics
    events, diagnostics = got[diffusion.read_events_tsv]
    assert len(events) == 0 and diagnostics == {"malformed_events": 40}
    g, diagnostics = got[graph.load_graph]
    assert g.n_nodes == 0 and diagnostics == {"malformed_lines": 40}
    log, diagnostics = got[read_query_log]
    assert log.blog_ids == [] and diagnostics == {"malformed_lines": 40}
    assert_same_reads(data, size)
    assert_same_loads(data, size)
    assert_same_log_reads(data, size)


FOLDS = {
    "all keys equal": lambda key, word: key * np.uint64(0),
    "only the length": lambda key, word: key,
    "only each word's low byte": lambda key, word: key ^ (word & np.uint64(0xFF)),
}


@pytest.mark.parametrize("fold", sorted(FOLDS))
def test_colliding_keys_still_read_exactly(fixture_files, fold):
    """Keys that collide, however they collide, are caught by the check
    of each field against the one standing for its key, and the chunk's
    fields are coded by their text."""
    events, edges = fixture_files
    saved, ingest._fold = ingest._fold, FOLDS[fold]
    try:
        for size in (ingest._CHUNK, 100):
            assert_same_reads(events, size)
            assert_same_loads(edges, size)
            assert_same_log_reads(CLEAN_LOG, size)
            assert_same_log_reads(DAMAGED_LOG, size)
        # fields of 9 to 24 bytes that differ only past their first word
        data = b"".join(b"12345678%s\t12345678%s\tpost_%d\t1\n" % (a, b, i)
                        for i, (a, b) in enumerate([(b"x", b"y"), (b"y", b"x"),
                                                    (b"xxxxxxxxx1", b"x"), (b"xxxxxxxxx2", b"y")]))
        assert_same_reads(data, ingest._CHUNK)
    finally:
        ingest._fold = saved


def test_fields_that_differ_in_two_words_code_in_bulk(monkeypatch):
    """Two URLs that differ in one byte of their second word and one of their
    fifth get distinct keys, so their chunk is coded from its bytes, without
    decoding every field for `_codes`."""
    chunk = (b"http://zzdtpmkzp2_0009.tumblr.com/post/189\n"
             b"http://zzdtpmkzb2_0009.tumblr.com/post/389\n")

    def codes(*args):
        raise AssertionError("keys collided")

    monkeypatch.setattr(ingest, "_codes", codes)
    codes, values = ingest._span_codes(*ingest._field_spans(chunk, 1))
    assert codes.tolist() == [0, 1]
    assert values == chunk.decode().split()
