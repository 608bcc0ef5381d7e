"""Query-log parsing and normalization, and the line reader shared by the
file readers."""

from __future__ import annotations

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


def read_phrases(path: str, diagnostics: Counter | None = None) -> list[str]:
    """One phrase per line; blank lines are skipped, and so is a line that
    is not valid UTF-8, counted as undecodable_lines (see `decoded_lines`)."""
    return [line.strip() for line in decoded_lines(path, diagnostics) if line.strip()]


def write_phrases(phrases: Iterable[str], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for p in sorted(phrases):
            fh.write(p + "\n")


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


def decoded_lines(path: str, diagnostics: Counter | None = None,
                  header: str | None = None) -> Iterator[str]:
    """The non-empty lines of a UTF-8 file, split as in text mode (at LF,
    CRLF and CR); a line that is not valid UTF-8 is skipped and counted as
    `undecodable_lines`. For a CSV with a `header`, lines are stripped and
    the header line (in any case) is left out."""
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
            if header is not None:
                line = line.strip()
                if line.lower() == header:
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
