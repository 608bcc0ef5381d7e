"""Query-log parsing, normalization and dual-dictionary matching, and the
line reader shared by the edge, event and query-log readers."""

from __future__ import annotations

import enum
import re
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

DEFAULT_PLATFORM_TOKENS = frozenset({"tumblr", "tumbler", "tumblrr", "tumlr", "tmblr"})
PLATFORM_DOMAIN = "tumblr.com"

_DIGITS = re.compile(r"\d+")


def normalize_query(raw: str, platform_tokens: frozenset[str] = DEFAULT_PLATFORM_TOKENS) -> str:
    """Lowercase, strip digit runs, drop platform-name tokens, collapse spaces.

    Digit runs vanish before tokenization, so "tum2blr" still normalizes
    away. Idempotent: a normalized query passes through unchanged.
    """
    text = _DIGITS.sub("", raw.lower())
    tokens = [t for t in text.split() if t not in platform_tokens]
    return " ".join(tokens)


class MatchKind(enum.Enum):
    EXACT = "exact"
    CONTAINMENT = "containment"
    NO_MATCH = "no_match"


@dataclass(frozen=True)
class Dictionary:
    """Two keyword sets: whole-query matches and token-subsequence matches."""

    exact: frozenset[str]
    containment: frozenset[str]

    def __post_init__(self):
        windows = {tuple(p.split()) for p in self.containment if p}
        object.__setattr__(self, "_windows", windows)
        object.__setattr__(self, "_max_window", max((len(w) for w in windows), default=0))

    @classmethod
    def from_phrases(cls, exact: Iterable[str], containment: Iterable[str],
                     platform_tokens: frozenset[str] = DEFAULT_PLATFORM_TOKENS) -> "Dictionary":
        norm = lambda ps: frozenset(filter(None, (normalize_query(p, platform_tokens) for p in ps)))
        return cls(exact=norm(exact), containment=norm(containment))

    @classmethod
    def from_files(cls, exact_path: str, contain_path: str,
                   platform_tokens: frozenset[str] = DEFAULT_PLATFORM_TOKENS) -> "Dictionary":
        return cls.from_phrases(read_phrases(exact_path), read_phrases(contain_path),
                                platform_tokens)


def read_phrases(path: str) -> list[str]:
    """One phrase per line; blank lines skipped."""
    with open(path, encoding="utf-8") as fh:
        return [line.strip() for line in fh if line.strip()]


def write_phrases(phrases: Iterable[str], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for p in sorted(phrases):
            fh.write(p + "\n")


def match_query(q: str, d: Dictionary) -> MatchKind:
    """Exact wins; containment means a dictionary phrase appears as a
    contiguous token subsequence (so "cats" never matches "bobcats")."""
    if q in d.exact:
        return MatchKind.EXACT
    windows = d._windows
    if windows:
        tokens = q.split()
        longest = min(d._max_window, len(tokens))
        for size in range(1, longest + 1):
            for start in range(len(tokens) - size + 1):
                if tuple(tokens[start:start + size]) in windows:
                    return MatchKind.CONTAINMENT
    return MatchKind.NO_MATCH


@dataclass(frozen=True)
class QueryRecord:
    normalized_query: str
    blog_id: str


def blog_id_from_url(url: str, domain: str = PLATFORM_DOMAIN) -> str | None:
    """Host label immediately before the platform domain, lowercased;
    None for non-platform URLs."""
    host = url.lower()
    if "://" in host:
        host = host.split("://", 1)[1]
    host = host.split("/", 1)[0].split(":", 1)[0]
    suffix = "." + domain
    if not host.endswith(suffix):
        return None
    label = host[: -len(suffix)].rsplit(".", 1)[-1]
    return label or None


def decoded_lines(path: str, diagnostics: Counter) -> Iterator[str]:
    """The non-empty lines of a UTF-8 file, split as in text mode (at LF,
    CRLF and CR); a line that is not valid UTF-8 is skipped and counted as
    `undecodable_lines`."""
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


def read_query_log(path: str,
                   platform_tokens: frozenset[str] = DEFAULT_PLATFORM_TOKENS,
                   diagnostics: Counter | None = None) -> list[QueryRecord]:
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
            norm = normalized[query] = normalize_query(query, platform_tokens)
        rec = interned.get((norm, blog))
        if rec is None:
            rec = interned[norm, blog] = QueryRecord(norm, blog)
        records.append(rec)
    return records
