"""Query-log parsing and normalization into an integer-coded log, and what
the readers and writers share: the line, row and key=value readers, the
line and table writers, and the ranking of a vocabulary in sorted order."""

from __future__ import annotations

import re
from array import array
from collections import Counter
from collections.abc import Callable, Iterable, Iterator
from itertools import chain

import numpy as np

_PLATFORM_TOKENS = frozenset({"tumblr", "tumbler", "tumblrr", "tumlr", "tmblr"})
_PLATFORM_SUFFIX = ".tumblr.com"

_DIGITS = re.compile(r"\d+")


def normalize_query(raw: str) -> str:
    """Lowercase, strip digit runs, drop platform-name tokens, collapse spaces.

    Digit runs vanish before tokenization, so "tum2blr" still normalizes
    away. Idempotent: a normalized query passes through unchanged.
    """
    text = _DIGITS.sub("", raw.lower())
    tokens = [t for t in text.split() if t not in _PLATFORM_TOKENS]
    return " ".join(tokens)


def read_phrases(path: str, diagnostics: Counter | None = None) -> list[str]:
    """One phrase per line; blank lines are skipped, and so is a line that
    is not valid UTF-8, counted as undecodable_lines (see `decoded_lines`)."""
    return [line.strip() for line in decoded_lines(path, diagnostics) if line.strip()]


def write_phrases(phrases: Iterable[str], path: str) -> None:
    _write_lines(path, (p + "\n" for p in sorted(phrases)))


def blog_id_from_url(url: str) -> str | None:
    """Host label immediately before the platform domain, lowercased;
    None for non-platform URLs."""
    host = url.lower()
    if "://" in host:
        host = host.split("://", 1)[1]
    host = host.split("/", 1)[0].split(":", 1)[0]
    if not host.endswith(_PLATFORM_SUFFIX):
        return None
    label = host[: -len(_PLATFORM_SUFFIX)].rsplit(".", 1)[-1]
    return label or None


def decoded_lines(path: str, diagnostics: Counter | None = None) -> Iterator[str]:
    """The non-empty lines of a UTF-8 file, split as in text mode (at LF,
    CRLF and CR); a line that is not valid UTF-8 is skipped and counted as
    `undecodable_lines`."""
    if diagnostics is None:
        diagnostics = Counter()
    # surrogateescape decodes each bad byte to a lone surrogate, which UTF-8
    # cannot encode back; line breaks are ASCII, so no bad byte hides one
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    diagnostics["undecodable_lines"] += 1
                    continue
            if line:
                yield line


def _csv_rows(path: str, header: str, reason: str, parse: Callable,
              diagnostics: Counter | None = None) -> Iterator:
    """parse(*fields) of each row of a comma-separated table whose columns
    are named by `header`. Lines are stripped and blank ones skipped, and
    so is the header line, in any case, wherever it appears. A row whose
    field count differs from the header's, whose first field is empty or
    whose parse raises ValueError is skipped and counted under `reason`; a
    line that is not valid UTF-8 is counted as `undecodable_lines`."""
    if diagnostics is None:
        diagnostics = Counter()
    width = header.count(",") + 1
    for line in decoded_lines(path, diagnostics):
        line = line.strip()
        if not line or line.lower() == header:
            continue
        fields = line.split(",")
        try:
            if len(fields) != width or not fields[0]:
                raise ValueError(line)
            row = parse(*fields)
        except ValueError:
            diagnostics[reason] += 1
            continue
        yield row


def _write_lines(path, lines: Iterable[str]) -> None:
    """Write `lines`, each ending in a newline, to `path` as UTF-8 with LF
    line ends; every file the package writes is written here."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(lines)


def _cell(value) -> str:
    """A table cell: empty for None, %.10g for a float (numpy's float64 is
    one; inf reads inf), str of anything else."""
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def _write_rows(path, header: str, rows: Iterable[Iterable]) -> None:
    """A comma-separated table: the `header` line, then one line per row of
    `_cell`s. `_csv_rows` reads it back unless a cell holds a comma or a row
    starts or ends in whitespace."""
    _write_lines(path, chain([header + "\n"],
                             (",".join(map(_cell, row)) + "\n" for row in rows)))


def _key_values(path: str) -> dict[str, str]:
    """The entries of a flat key=value file, keys and values stripped; blank
    lines and lines starting with # are skipped, and a line without = is a
    ValueError. A later entry for a key wins."""
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"bad config line: {line!r}")
            out[key.strip()] = value.strip()
    return out


def _ranked(names: list[str], codes: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The names that `codes` use, sorted, and each code's rank among them."""
    used = np.flatnonzero(np.bincount(codes, minlength=len(names))).tolist()
    order = sorted(used, key=names.__getitem__)
    rank = np.full(len(names), -1, dtype=np.int64)
    rank[order] = np.arange(len(order))
    return [names[i] for i in order], rank


class _CodedLog:
    """A query log encoded into integer arrays: the distinct (blog, query)
    pairs with their click counts, and per blog its total clicks and
    distinct queries.

    Row i of the log is a click for query `queries[query[i]]` on blog
    `blogs[blog[i]]`; each vocabulary lists distinct names in any order,
    and names no row uses are left out. Blog codes follow sorted blog-id
    order, so ordering by code breaks ties the way sorting by id does.
    """

    def __init__(self, queries: list[str], blogs: list[str],
                 query: np.ndarray, blog: np.ndarray):
        self.blog_ids, rank = _ranked(blogs, blog)
        n_queries = max(len(queries), 1)
        keys, self.pair_clicks = np.unique(rank[blog] * n_queries + query,
                                           return_counts=True)
        # every ranked blog has a pair, so the ranks are the blog codes
        self.pair_blog = keys // n_queries
        kept, self.pair_query = np.unique(keys % n_queries, return_inverse=True)
        self.blog_code = {b: i for i, b in enumerate(self.blog_ids)}
        self.queries = np.array([queries[i] for i in kept.tolist()], dtype=object)
        self.query_code = {q: i for i, q in enumerate(self.queries)}
        self.total_clicks = np.bincount(self.pair_blog, weights=self.pair_clicks,
                                        minlength=len(self.blog_ids))
        self.unique_queries = np.bincount(self.pair_blog, minlength=len(self.blog_ids))

    def keyword_mask(self, keywords: Iterable[str]) -> np.ndarray:
        mask = np.zeros(len(self.queries), dtype=bool)
        mask[[self.query_code[k] for k in keywords if k in self.query_code]] = True
        return mask

    def deviant_counts(self, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per blog: deviant clicks and distinct deviant queries."""
        hit = mask[self.pair_query]
        blogs = self.pair_blog[hit]
        n_blogs = len(self.blog_ids)
        return (np.bincount(blogs, weights=self.pair_clicks[hit], minlength=n_blogs),
                np.bincount(blogs, minlength=n_blogs))

    def candidates(self, mask: np.ndarray, min_unique: int, min_clicks: int) -> frozenset[str]:
        """Blogs with enough distinct deviant queries and deviant clicks."""
        clicks, unique = self.deviant_counts(mask)
        keep = np.flatnonzero((unique >= min_unique) & (clicks >= min_clicks))
        return frozenset(self.blog_ids[i] for i in keep)

    def hitting(self, keywords: frozenset[str]) -> frozenset[str]:
        """The keywords that occur as a query in the log."""
        return frozenset(k for k in keywords if k in self.query_code)


def read_query_log(path: str, diagnostics: Counter | None = None) -> _CodedLog:
    """Parse a timestamp<TAB>query<TAB>clicked_url<TAB>region TSV into a
    coded log of normalized queries and blog ids; rows with bad fields (a
    negative or NaN timestamp among them) or non-platform URLs are skipped
    and tallied, and so are lines that are not valid UTF-8 (see
    `decoded_lines`).

    Rows are coded by raw query and host as they are read; then each
    distinct raw query is normalized once and each distinct host resolved
    to its blog once.
    """
    if diagnostics is None:
        diagnostics = Counter()
    raw_queries: dict[str, int] = {}
    hosts: dict[str, int] = {}
    query_col, host_col = array("q"), array("q")
    for line in decoded_lines(path, diagnostics):
        try:
            ts_text, query, url, _region = line.split("\t")
            ts = float(ts_text)
        except ValueError:
            diagnostics["malformed_lines"] += 1
            continue
        if not ts >= 0 or not url:
            diagnostics["malformed_lines"] += 1
            continue
        # the host as blog_id_from_url finds it, before lowercasing
        _, scheme, rest = url.partition("://")
        host = (rest if scheme else url).split("/", 1)[0]
        query_col.append(raw_queries.setdefault(query, len(raw_queries)))
        host_col.append(hosts.setdefault(host, len(hosts)))
    queries: dict[str, int] = {}
    query_of = np.array([queries.setdefault(normalize_query(q), len(queries))
                         for q in raw_queries], dtype=np.int64)
    blogs: dict[str, int] = {}
    blog_of = np.array([-1 if b is None else blogs.setdefault(b, len(blogs))
                        for b in map(blog_id_from_url, hosts)], dtype=np.int64)
    query, blog = query_of[np.asarray(query_col)], blog_of[np.asarray(host_col)]
    platform = blog >= 0
    if not platform.all():
        diagnostics["non_platform_urls"] += int(np.count_nonzero(~platform))
    return _CodedLog(list(queries), list(blogs), query[platform], blog[platform])
