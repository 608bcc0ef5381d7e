"""Normalization, the line reader and the readers built on it, and blog-hit
aggregation."""

import ast
import io
import os
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devgraph.cli import _SKIP_REASONS, _read_counts_csv, _read_node_set
from devgraph.community import read_partition_csv, read_role_map_csv
from devgraph.demographics import read_demographics_csv
from devgraph.diffusion import ConsumerClass, read_classes_csv, read_events_tsv
from devgraph.graph import LAYERS, load_graph, read_labels_csv
from devgraph.ingest import (
    blog_id_from_url,
    decoded_lines,
    normalize_query,
    read_phrases,
    read_query_log,
    write_phrases,
)
from id_helpers import graph_edges, records
from id_oracles import DemographicRecord
from log_helpers import ReblogEvent, event_rows, log_rows
# The per-record aggregation the coded expansion replaced; TestAggregate and
# TestFilter test it where it now lives.
from test_expansion_oracle import BlogHitStats, aggregate_blog_hits, filter_candidate_blogs
from test_ingest_oracle import QueryRecord


class TestNormalize:
    def test_hand_applied_rules(self):
        assert normalize_query("Tumblr  BEST   Cats 2015") == "best cats"

    def test_empty_fixed_point(self):
        assert normalize_query("") == ""

    def test_idempotent_on_normal_input(self):
        assert normalize_query("already normal") == "already normal"

    def test_digit_runs_inside_words(self):
        # digits vanish first, so the platform token reassembles and drops
        assert normalize_query("tum2blr cats") == "cats"
        assert normalize_query("ca47ts") == "cats"

    def test_misspelling_list(self):
        for tok in ("tumblr", "tumbler", "tumblrr", "tumlr", "tmblr"):
            assert normalize_query(f"{tok} thing") == "thing"

    def test_whitespace_collapsed(self):
        assert normalize_query("  a\t b   c ") == "a b c"

    @given(st.text(max_size=60))
    def test_idempotence(self, raw):
        once = normalize_query(raw)
        assert normalize_query(once) == once

    @given(st.text(max_size=60))
    def test_invariants(self, raw):
        import re
        out = normalize_query(raw)
        assert out == out.lower()
        assert not re.search(r"\d", out)
        assert out == " ".join(out.split())
        assert "tumblr" not in out.split()


class TestBlogId:
    def test_platform_url(self):
        assert blog_id_from_url("http://foo.tumblr.com/post/123") == "foo"
        assert blog_id_from_url("https://Foo.Tumblr.com") == "foo"

    def test_label_before_domain(self):
        assert blog_id_from_url("http://a.b.tumblr.com/x") == "b"

    def test_rejects_non_platform(self):
        assert blog_id_from_url("http://example.com/tumblr") is None
        assert blog_id_from_url("http://tumblr.com/dashboard") is None
        assert blog_id_from_url("http://faketumblr.com.evil.org") is None


class TestReadLog:
    def test_parse_and_reject(self, tmp_path):
        p = tmp_path / "log.tsv"
        p.write_text(
            "100\tTumblr cats 1\thttp://foo.tumblr.com/p/1\tUS\n"
            "101\tdogs\thttp://example.com/x\tDE\n"
            "bad\tq\thttp://foo.tumblr.com\tUS\n"
            "-5\tq\thttp://foo.tumblr.com\tUS\n"
            "nan\tq\thttp://foo.tumblr.com\tUS\n"
            "102\tcats\n"
            "103\tmore cats\thttp://bar.tumblr.com/\tFR\n"
        )
        diags = Counter()
        log = read_query_log(str(p), diagnostics=diags)
        assert log_rows(log) == [("cats", "foo"), ("more cats", "bar")]
        assert diags["non_platform_urls"] == 1
        assert diags["malformed_lines"] == 4

    def test_undecodable_line_skipped_and_counted(self, tmp_path):
        good = b"100\tcats\thttp://foo.tumblr.com/\tUS\n103\tdogs\thttp://bar.tumblr.com/\tFR\n"
        p = tmp_path / "log.tsv"
        p.write_bytes(b"101\tcaf\xe9\thttp://foo.tumblr.com/\tUS\n" + good + b"\xff\n")
        diags = Counter()
        log = read_query_log(str(p), diagnostics=diags)
        assert log_rows(log) == [("cats", "foo"), ("dogs", "bar")]
        assert diags == {"undecodable_lines": 2}

    def test_line_breaks_as_in_text_mode(self, tmp_path):
        p = tmp_path / "log.tsv"
        p.write_bytes(b"1\ta\thttp://x.tumblr.com/\tUS\r\n\r\n"
                      b"2\tb\thttp://y.tumblr.com/\tUS\r3\tc\thttp://z.tumblr.com/\tUS")
        assert log_rows(read_query_log(str(p))) == [("a", "x"), ("b", "y"), ("c", "z")]

    # line breaks, bytes that are never valid, truncated and complete
    # multibyte sequences, encoded surrogates, and separators (U+2028, FF,
    # NEL) that str.splitlines would break at but text mode does not
    CHUNKS = (b"a", b"\t", b"\n", b"\r", b"\r\n", b"\xff", b"\xc3", b"\xa9", b"\xc3\xa9",
              b"\xe2\x82", b"\xe2\x82\xac", b"\xed\xa0\x80", b"\xf0\x9f\x98\x80", b"\x85",
              b"\xc2\x85", b"\xe2\x80\xa8", b"\x0c", b"\x00")

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(CHUNKS), max_size=40).map(b"".join))
    def test_decoded_lines_match_per_line_decoding(self, data):
        """Each line split at LF, CRLF or CR and decoded on its own."""
        want, bad = [], 0
        for raw in io.BytesIO(data):
            for piece in raw.splitlines():
                try:
                    line = piece.decode("utf-8")
                except UnicodeDecodeError:
                    bad += 1
                    continue
                if line:
                    want.append(line)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "lines.tsv")
            with open(path, "wb") as fh:
                fh.write(data)
            diags = Counter()
            assert list(decoded_lines(path, diags)) == want
        assert diags == Counter({"undecodable_lines": bad} if bad else {})

    def test_normalizes_like_normalize_query(self, tmp_path):
        raw = ["Tumblr Cats 1", "cats", "Tumblr Cats 1", "DOGS 2 tmblr"]
        p = tmp_path / "log.tsv"
        p.write_text("".join(f"{i}\t{q}\thttp://b{i % 2}.tumblr.com/\tUS\n"
                             for i, q in enumerate(raw)))
        assert log_rows(read_query_log(str(p))) == sorted((normalize_query(q), f"b{i % 2}")
                                                          for i, q in enumerate(raw))


class TestAggregate:
    def test_same_query_same_blog(self):
        recs = [QueryRecord("q", "b")] * 3
        stats = aggregate_blog_hits(recs, set())
        assert stats["b"].unique_queries == 1
        assert stats["b"].total_clicks == 3

    def test_empty_stream(self):
        assert aggregate_blog_hits([], {"q"}) == {}

    def test_hand_count(self):
        recs = [QueryRecord("q1", "b1"), QueryRecord("q2", "b1"), QueryRecord("q1", "b2")]
        stats = aggregate_blog_hits(recs, {"q1"})
        s1, s2 = stats["b1"], stats["b2"]
        assert (s1.unique_queries, s1.total_clicks, s1.deviant_unique_queries, s1.deviant_clicks) == (2, 2, 1, 1)
        assert (s2.unique_queries, s2.total_clicks, s2.deviant_unique_queries, s2.deviant_clicks) == (1, 1, 1, 1)

    def test_malformed_counted(self):
        diags = Counter()
        stats = aggregate_blog_hits([QueryRecord("q", "b"), "not a record", QueryRecord("q", "")],
                                    {"q"}, diagnostics=diags)
        assert diags["malformed_records"] == 2
        assert set(stats) == {"b"}

    @given(st.lists(st.tuples(st.sampled_from("abc"), st.sampled_from("xy")), max_size=30),
           st.permutations(range(30)))
    def test_order_invariant(self, pairs, perm):
        recs = [QueryRecord(q, b) for q, b in pairs]
        shuffled = [recs[i] for i in perm if i < len(recs)]
        base = aggregate_blog_hits(recs, {"a"})
        other = aggregate_blog_hits(shuffled, {"a"})
        strip = lambda d: {k: (v.unique_queries, v.total_clicks, v.deviant_unique_queries, v.deviant_clicks)
                           for k, v in d.items()}
        assert strip(base) == strip(other)


class TestFilter:
    def _stats(self, unique, clicks):
        recs = []
        for i in range(unique):
            recs.append(QueryRecord(f"q{i}", "b"))
        for _ in range(clicks - unique):
            recs.append(QueryRecord("q0", "b"))
        return aggregate_blog_hits(recs, {f"q{i}" for i in range(unique)})

    def test_one_unique_five_clicks_dropped(self):
        assert filter_candidate_blogs(self._stats(1, 5)) == set()

    def test_boundary_kept(self):
        assert filter_candidate_blogs(self._stats(2, 3)) == {"b"}

    def test_three_unique_two_clicks_dropped(self):
        stats = {"b": BlogHitStats("b", unique_queries=3, total_clicks=3,
                                   deviant_unique_queries=3, deviant_clicks=2)}
        assert filter_candidate_blogs(stats) == set()
        assert filter_candidate_blogs(stats, min_clicks=2) == {"b"}


def test_phrase_file_round_trip(tmp_path):
    p = tmp_path / "phrases.txt"
    write_phrases({"b phrase", "a phrase"}, str(p))
    assert read_phrases(str(p)) == ["a phrase", "b phrase"]


def _opens_for_writing(call: ast.Call) -> bool:
    """Whether a call opens a file for writing: `open(path, mode)` or
    `p.open(mode)` with a mode that is not a read-only literal, or
    `write_text` / `write_bytes`."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    position = 1 if isinstance(func, ast.Name) else 0
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"] + call.args[position:position + 1]
    return any(not (isinstance(m, ast.Constant) and isinstance(m.value, str)
                    and not set(m.value) & set("wax+")) for m in modes)


def test_only_write_lines_opens_files_for_writing():
    """Every file the package writes goes through `ingest._write_lines`,
    so the on-disk format is set in one place."""
    writers = []

    def visit(node: ast.AST, module: str, where: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call) and _opens_for_writing(node):
            writers.append((module, where))
        for child in ast.iter_child_nodes(node):
            visit(child, module, where)

    for path in sorted((Path(__file__).resolve().parent.parent / "src" / "devgraph").glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.name, "<module>")
    assert writers == [("ingest.py", "_write_lines")]


def _read_events(path: str, diagnostics: Counter) -> list[ReblogEvent]:
    return event_rows(read_events_tsv(path, diagnostics))


def _read_demographics(path: str, diagnostics: Counter) -> dict[str, DemographicRecord]:
    return records(read_demographics_csv(path, diagnostics))


def _read_query_log(path: str, diagnostics: Counter) -> list[tuple[str, str]]:
    return log_rows(read_query_log(path, diagnostics))


def _read_edges(path: str, diagnostics: Counter) -> list[tuple[str, str, float]]:
    g = load_graph(path, diagnostics)
    return [edge for layer in LAYERS for edge in graph_edges(g, layer)]


READERS = {
    "labels": (read_labels_csv, b"node,group\na,outer\n", {"a": "outer"}),
    "partition": (read_partition_csv, b"node,community\na,3\n", {"a": 3}),
    "role_map": (read_role_map_csv, b"community,role\n3,outer\n", {3: "outer"}),
    "classes": (read_classes_csv, b"node,class\na,producer\n", {"a": ConsumerClass.PRODUCER}),
    "demographics": (_read_demographics, b"node,age,gender\na,30,male\n",
                     {"a": DemographicRecord("a", 30, "male")}),
    "node_set": (_read_node_set, b"a\n", {"a"}),
    "counts": (_read_counts_csv, b"node,count\na,4\n", {"a": 4}),
    "phrases": (read_phrases, b"a phrase\n", ["a phrase"]),
    "events": (_read_events, b"a\tp\tx\t1\n", [ReblogEvent("a", "p", "x", 1.0)]),
    "edges": (_read_edges, b"a\tb\t1\tF\n", [("a", "b", 1.0)]),
    "query_log": (_read_query_log, b"1\tq\thttp://a.tumblr.com/\tUS\n", [("q", "a")]),
}


@pytest.mark.parametrize("name", sorted(READERS))
def test_csv_readers_skip_undecodable_lines(tmp_path, name):
    """Every reader, CSV, node-set, edge, event and log alike, drops a line
    that is not UTF-8 and counts it as `undecodable_lines`."""
    reader, text, expected = READERS[name]
    path = tmp_path / "in.csv"
    path.write_bytes(text + b"b\xff,1,2\n")
    diagnostics = Counter()
    assert reader(str(path), diagnostics=diagnostics) == expected
    assert diagnostics == {"undecodable_lines": 1}


LINE_BREAKS = (b"\n", b"\r", b"\r\n")
# what may stand inside a line: the other chunks (the tab among them), plus
# commas and digits
FIELD_CHUNKS = (tuple(c for c in TestReadLog.CHUNKS if c not in LINE_BREAKS)
                + (b",",) + tuple(str(d).encode() for d in range(10)))
# a line is chunks, or four tab-separated fields that now and then hold a
# weight, a layer, a timestamp or a platform URL, so that some rows of the
# edge, event and query-log readers are well-formed
FIELD = st.one_of(st.lists(st.sampled_from(FIELD_CHUNKS), max_size=3).map(b"".join),
                  st.sampled_from([b"1", b"F", b"x", b"http://a.tumblr.com/"]))
BODY = st.one_of(st.lists(st.sampled_from(FIELD_CHUNKS), max_size=8).map(b"".join),
                 st.lists(FIELD, min_size=4, max_size=4).map(b"\t".join))


@pytest.mark.parametrize("name", sorted(READERS))
@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(BODY, st.sampled_from(LINE_BREAKS)), max_size=12))
def test_readers_account_for_every_line(name, lines):
    """Each line starts with a unique key, so no kept row overwrites another:
    every non-empty line is the header, a kept row or a skip counted under
    a reason the CLI reports. Nothing raises."""
    reader, text, _expected = READERS[name]
    # each sample is an optional header line and one row
    *header, _row = text.splitlines()
    # a query-log row starts with its timestamp, so its key ends in "." and
    # the key and a first field of digits still make a number
    end = b"." if name == "query_log" else b","
    data = b"".join(line + b"\n" for line in header)
    data += b"".join(str(i).encode() + end + body + brk for i, (body, brk) in enumerate(lines))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.csv")
        with open(path, "wb") as fh:
            fh.write(data)
        diagnostics = Counter()
        kept = reader(path, diagnostics=diagnostics)
    non_empty = [line for line in data.splitlines() if line]
    assert set(diagnostics) <= set(_SKIP_REASONS)
    assert len(kept) + sum(diagnostics.values()) + len(header) == len(non_empty)
