"""The coded query-log reader against the per-record reader and the coding
it replaced, kept here verbatim as oracles: `QueryRecord`,
`oracle_read_query_log` and `OracleCodedLog`, which built the coded log
from the records.

Hypothesis writes random query logs (upper-case and non-ASCII hosts, ports,
`://` inside the path or the region, digit-only queries and platform
tokens, timestamps that are all digits and that are not, bad timestamps,
rows of 3 or 5 fields, bad bytes, CR and CRLF line ends) and checks that
both give the same vocabulary, blogs, per-(blog, query) click counts,
per-blog totals and counters. The chunk size is patched down to 1-64
bytes, so that chunk cuts fall inside lines and one log mixes clean
chunks with chunks that `ingest._clean` rewrites first. The one intended
difference: the old reader kept a NaN timestamp, so the random logs hold
none; `test_ingest.py` checks that it is now skipped and counted.
"""

from __future__ import annotations

import tempfile
from collections import Counter
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from devgraph import ingest
from devgraph.ingest import blog_id_from_url, decoded_lines, normalize_query, read_query_log

from log_helpers import log_rows


# -- the per-record reader and its coding, verbatim ---------------------------

@dataclass(frozen=True)
class QueryRecord:
    normalized_query: str
    blog_id: str


def oracle_read_query_log(path: str, diagnostics: Counter | None = None) -> list[QueryRecord]:
    """Parse a timestamp<TAB>query<TAB>clicked_url<TAB>region TSV into
    normalized records; rows with bad fields or non-platform URLs are
    skipped and tallied, and so are lines that are not valid UTF-8
    (see `decoded_lines`).

    Each distinct raw query is normalized once, and rows with the same
    query and blog share one record object.
    """
    if diagnostics is None:
        diagnostics = Counter()
    records: list[QueryRecord] = []
    normalized: dict[str, str] = {}
    interned: dict[tuple[str, str], QueryRecord] = {}
    for line in decoded_lines(path, diagnostics):
        try:
            ts_text, query, url, _region = line.split("\t")
            ts = float(ts_text)
        except ValueError:
            diagnostics["malformed_lines"] += 1
            continue
        if ts < 0 or not url:
            diagnostics["malformed_lines"] += 1
            continue
        blog = blog_id_from_url(url)
        if blog is None:
            diagnostics["non_platform_urls"] += 1
            continue
        norm = normalized.get(query)
        if norm is None:
            norm = normalized[query] = normalize_query(query)
        rec = interned.get((norm, blog))
        if rec is None:
            rec = interned[norm, blog] = QueryRecord(norm, blog)
        records.append(rec)
    return records


class OracleCodedLog:
    """A query log encoded once into integer arrays.

    A record with an empty blog id or a None query is left out of the
    per-blog counts; its query, if any, still counts as a query of the log.
    Blog codes follow sorted blog-id order, so ordering by code breaks ties
    the way sorting by id does.
    """

    def __init__(self, records: Sequence[QueryRecord]):
        self.query_code = qc = {}
        bc: dict[str, int] = {}
        queries = np.fromiter((qc.setdefault(r.normalized_query, len(qc)) for r in records),
                              dtype=np.int64, count=len(records))
        blogs = np.fromiter((bc.setdefault(r.blog_id, len(bc)) for r in records),
                            dtype=np.int64, count=len(records))
        ids = sorted(b for b in bc if b)
        rank = np.full(len(bc), -1, dtype=np.int64)
        rank[[bc[b] for b in ids]] = np.arange(len(ids))
        blogs = rank[blogs]
        keep = blogs >= 0
        if None in qc:
            keep &= queries != qc[None]
        n_queries = len(qc)
        keys, self.pair_clicks = np.unique(blogs[keep] * n_queries + queries[keep],
                                           return_counts=True)
        # A blog whose every record has a None query has no counts at all.
        used, self.pair_blog = np.unique(keys // n_queries, return_inverse=True)
        self.pair_query = keys % n_queries
        self.blog_ids = [ids[i] for i in used]
        self.blog_code = {b: i for i, b in enumerate(self.blog_ids)}
        self.queries = np.array(list(qc), dtype=object)
        self.total_clicks = np.bincount(self.pair_blog, weights=self.pair_clicks,
                                        minlength=len(self.blog_ids))
        self.unique_queries = np.bincount(self.pair_blog, minlength=len(self.blog_ids))


# -- random query logs ----------------------------------------------------------

# all digits (a leading zero, 20 of them) and not: a sign, an underscore,
# a non-ASCII digit that float reads as 3.0, a fraction, and digits before
# a bad byte in the first word or the second
STAMPS = ["1", "0", "-0", "2.5", "1e3", " 7 ", "inf", "-inf", "-5", "x", "",
          "007", "12345678901234567890", "+5", "1_0", "\u0663", "1.5", "1 2", "123456789x"]
# platform tokens, digit-only and upper-case queries, and one that
# normalizes to nothing
QUERIES = ["cats", "Cats 2", "Tumblr cats", "tmblr", "42", "", "  a  b ", "ÉCOLE",
           "dogs tum2blr", "\u212aat"]
SCHEMES = ["", "http://", "HTTPS://", "://"]
# U+212A (Kelvin) lowercases to "k"; final sigma lowercases by context
LABELS = ["foo", "Foo", "kat", "\u212aat", "a.b", "", "é", "ΑΣ", "www.foo"]
DOMAINS = [".tumblr.com", ".TUMBLR.COM", ".Tumblr.com", ".example.com",
           ".tumblr.com.evil.org", "tumblr.com", ""]
PORTS = ["", ":80", ":"]
PATHS = ["", "/", "/post/1", "/x://bar.tumblr.com/y", "://baz.tumblr.com", "/a:b"]
# regions with the bytes a host is cut at, which the URL's cut must not see
REGIONS = ["US", "://", "a/b", "http://x.tumblr.com/"]

urls = st.one_of(
    st.tuples(*map(st.sampled_from, (SCHEMES, LABELS, DOMAINS, PORTS, PATHS))).map("".join),
    st.sampled_from(["", "not a url", "http://tumblr.com/dashboard"]))


@st.composite
def log_files(draw):
    """The bytes of a query log: rows of random fields, some of 3 or 5
    fields, a bad byte or a blank line, ended by LF, CRLF or CR."""
    out = []
    for _ in range(draw(st.integers(0, 30))):
        fields = [draw(st.sampled_from(STAMPS)), draw(st.sampled_from(QUERIES)),
                  draw(urls), draw(st.sampled_from(REGIONS))]
        width = draw(st.sampled_from([4] * 8 + [3, 5]))
        line = "\t".join((fields + ["extra"])[:width]).encode("utf-8")
        if draw(st.integers(0, 9)) == 0:
            cut = draw(st.integers(0, len(line)))
            line = line[:cut] + b"\xff" + line[cut:]
        out.append(line + draw(st.sampled_from([b"\n"] * 4 + [b"\r\n", b"\r", b"\n\n"])))
    return b"".join(out)


def summary(log) -> tuple:
    """Vocabulary, blogs, per-(blog, query) clicks and per-blog totals."""
    clicks = {(log.blog_ids[b], log.queries[q]): n
              for b, q, n in zip(log.pair_blog.tolist(), log.pair_query.tolist(),
                                 log.pair_clicks.tolist())}
    return (sorted(log.queries), log.blog_ids, clicks, log.total_clicks.tolist(),
            log.unique_queries.tolist())


@contextmanager
def chunk_size(size: int):
    saved, ingest._CHUNK = ingest._CHUNK, size
    try:
        yield
    finally:
        ingest._CHUNK = saved


def read_both(data: bytes, size: int = ingest._CHUNK):
    """(oracle's log, its counters) and (reader's, with chunks of `size`
    bytes, its counters)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "log.tsv")
        Path(path).write_bytes(data)
        old_diag, new_diag = Counter(), Counter()
        old = OracleCodedLog(oracle_read_query_log(path, old_diag))
        with chunk_size(size):
            new = read_query_log(path, new_diag)
    return (old, old_diag), (new, new_diag)


def assert_same_log_reads(data: bytes, size: int = ingest._CHUNK) -> None:
    """`test_reader_matches_oracle`'s check on one log."""
    (old, old_diag), (new, new_diag) = read_both(data, size)
    assert summary(new) == summary(old)
    assert new.query_code.keys() == old.query_code.keys()
    assert new.blog_code == old.blog_code
    assert new_diag == old_diag


# every line of four fields, some ended by CRLF: rows with a timestamp that
# is not all digits, a bad timestamp or an empty URL, and hosts that a `://`
# in the query, the region or the next line must not move
CLEAN_LOG = b"".join([
    *(b"%d\tq %d\thttp://b%d.tumblr.com/post/%d\tUS\n" % (i, i % 7, i % 5, i) for i in range(60)),
    b"2.5\tq\tb1.tumblr.com\t://x.tumblr.com/\r\n",
    b" 7 \tq\tb2.tumblr.com/p\tUS\n",
    "\u0663\tq\tb3.tumblr.com\tUS\n".encode("utf-8"),
    b"x\tq\thttp://b1.tumblr.com/\tUS\n",
    b"-5\tq\thttp://b1.tumblr.com/\tUS\n",
    b"1\tq\t\tUS\n",
    b"1\tq\tb4.tumblr.com\tUS\n", b"1\thttp://q.tumblr.com/\tb5.tumblr.com/x\tUS\n"] * 3)

# the clean log with every 7th line short its region, blank lines, a lone
# CR and a bad byte
DAMAGED_LOG = b"".join(line.replace(b"\tUS", b"") if i % 7 == 0 else line
                       for i, line in enumerate(CLEAN_LOG.splitlines(keepends=True))) \
    + b"\n\n1\tq\tb1.tumblr.com\tUS\r1\tq\xff\tb2.tumblr.com\tUS\n" + CLEAN_LOG


@settings(max_examples=400, deadline=None)
@given(log_files(), st.integers(1, 64))
def test_reader_matches_oracle(data, size):
    (old, old_diag), (new, new_diag) = read_both(data, size)
    assert summary(new) == summary(old)
    assert new.query_code.keys() == old.query_code.keys()
    assert new.blog_code == old.blog_code
    assert new_diag == old_diag


def test_hosts_spelt_many_ways(tmp_path):
    """Each distinct host is resolved once; hosts that differ only in case,
    port, a Kelvin sign or what follows them resolve to one blog."""
    urls = ["http://kat.tumblr.com/", "HTTP://KAT.TUMBLR.COM:80/p", "\u212aat.tumblr.com",
            "https://x.kat.tumblr.com/a://b.tumblr.com", "kat.tumblr.com/a:b",
            "foo.example.com/x://kat.tumblr.com/y", "http://kat.tumblr.com.evil.org/"]
    path = tmp_path / "log.tsv"
    path.write_text("".join(f"{i}\tq {i}\t{url}\tUS\n" for i, url in enumerate(urls)),
                    encoding="utf-8")
    diagnostics = Counter()
    assert log_rows(read_query_log(str(path), diagnostics)) == [("q", "kat")] * 6
    assert diagnostics == {"non_platform_urls": 1}
    (old, old_diag), (new, new_diag) = read_both(path.read_bytes())
    assert summary(new) == summary(old)
    assert new_diag == old_diag


def test_clean_log_never_read_line_by_line(monkeypatch):
    """A log whose every line has four fields, some ended by CRLF, is coded
    from its bytes in every chunk, and none is rewritten line by line by
    `_clean`: also its rows with a timestamp that is not all digits, a bad
    timestamp or an empty URL, and its hosts."""

    def clean(*args):
        raise AssertionError("a clean chunk was read line by line")

    monkeypatch.setattr(ingest, "_clean", clean)
    (old, old_diag), (new, new_diag) = read_both(CLEAN_LOG, 256)
    assert summary(new) == summary(old)
    assert new_diag == old_diag == {"malformed_lines": 9}
