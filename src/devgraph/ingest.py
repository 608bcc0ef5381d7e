"""Query-log parsing and normalization into an integer-coded log, and what
the readers and writers share: the line, row and key=value readers, the
chunked coder of tab-separated fields, the line and table writers, and the
ranking of a vocabulary in sorted order."""

from __future__ import annotations

import io
import re
from collections import Counter
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from itertools import chain, count, filterfalse

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
    host = _host(url.lower()).split(":", 1)[0]
    if not host.endswith(_PLATFORM_SUFFIX):
        return None
    label = host[: -len(_PLATFORM_SUFFIX)].rsplit(".", 1)[-1]
    return label or None


def decoded_lines(path: str, diagnostics: Counter | None = None) -> Iterator[str]:
    """The non-empty lines of a UTF-8 file, split as in text mode (at LF,
    CRLF and CR), past a leading byte order mark (see `_opened`); a line
    that is not valid UTF-8 is skipped and counted as `undecodable_lines`."""
    if diagnostics is None:
        diagnostics = Counter()
    with _opened(path, diagnostics) as fh:
        yield from _decoded(fh, diagnostics)


_BOM = b"\xef\xbb\xbf"


@contextmanager
def _opened(path: str, diagnostics: Counter) -> Iterator:
    """The file at `path` opened for binary reading, past a leading UTF-8
    byte order mark, which is counted as `byte_order_mark`: every reader
    starts a file here, and only a file's start can hold one."""
    with open(path, "rb") as fh:
        if fh.peek(len(_BOM)).startswith(_BOM):
            fh.read(len(_BOM))
            diagnostics["byte_order_mark"] += 1
        yield fh


def _decoded(raw, diagnostics: Counter) -> Iterator[str]:
    """`decoded_lines` of the binary stream `raw`, from where it stands."""
    # surrogateescape decodes each bad byte to a lone surrogate, which UTF-8
    # cannot encode back; line breaks are ASCII, so no bad byte hides one
    for line in io.TextIOWrapper(raw, encoding="utf-8", errors="surrogateescape"):
        line = line.rstrip("\n")
        if not line.isascii():
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                diagnostics["undecodable_lines"] += 1
                continue
        if line:
            yield line


# bytes read at a time by _file_codes; a smaller chunk looks up its values
# in the file's vocabulary more often, a larger one holds more
_CHUNK = 1 << 20

_MIX = np.uint64(0x9E3779B97F4A7C15)
# _MASKS[r] keeps the low r bytes of a little-endian word
_MASKS = np.array([(1 << 8 * r) - 1 for r in range(9)], dtype=np.uint64)


def _coded_rows(path: str, width: int, reason: str,
                diagnostics: Counter) -> tuple[np.ndarray, list[str]]:
    """The rows of `width` tab-separated fields of the file at `path`, as a
    (rows, width) int32 array of codes into the list of the file's distinct
    field values in first-seen order, equal values sharing a code.

    The rows are those that `decoded_lines` and `str.split` give, and a
    line with another number of fields is skipped and counted under
    `reason`. The file is read a chunk of about _CHUNK bytes at a time, and
    every chunk's fields are coded by their bytes, so only its distinct
    values are decoded (see `_file_codes`).
    """
    codes, values = _file_codes(path, width, reason, diagnostics, _span_codes)
    return codes.reshape(-1, width), values


def _file_codes(path: str, width: int, reason: str, diagnostics: Counter,
                coder: Callable) -> tuple[np.ndarray, list[str]]:
    """The file at `path` read a chunk at a time (see `_chunks`) as one flat
    int32 array of codes into the file's distinct values in first-seen
    order: the one step where a chunk's codes become the file's. The file
    is read past a leading byte order mark (see `_opened`).

    Each chunk's fields of `width` to a line are found by `_field_spans`,
    after `_clean` for a chunk that it cannot read, and coder(chunk,
    starts, lengths) codes them into the chunk's distinct values in
    first-seen order."""
    vocabulary: dict[str, int] = {}
    parts = [np.empty(0, dtype=np.int32)]
    with _opened(path, diagnostics) as fh:
        for chunk in _chunks(fh, _CHUNK):
            spans = _field_spans(chunk, width)
            if spans is None:
                chunk = _clean(chunk, width, reason, diagnostics)
                if not chunk:
                    continue
                spans = _field_spans(chunk, width)
            codes, values = coder(*spans)
            # the chunk's values new to the file take the next codes, in
            # the chunk's order
            vocabulary.update(zip(filterfalse(vocabulary.__contains__, values),
                                  count(len(vocabulary))))
            code = np.fromiter(map(vocabulary.__getitem__, values), dtype=np.int32,
                               count=len(values))
            parts.append(code[codes])
    return np.concatenate(parts), list(vocabulary)


def _chunks(fh, size: int) -> Iterator[bytes]:
    """The bytes of the binary file `fh` in chunks of about `size`, each cut
    after a line break (an LF, or a CR that no LF follows), so that no line
    and no CRLF spans two chunks."""
    parts: list[bytes] = []
    while block := fh.read(size):
        cut = max(block.rfind(b"\n"), block.rfind(b"\r", 0, len(block) - 1)) + 1
        if cut:
            yield b"".join((*parts, block[:cut]))
            parts, block = [], block[cut:]
        if block:
            parts.append(block)
    if parts:
        yield b"".join(parts)


def _clean(chunk: bytes, width: int, reason: str, diagnostics: Counter) -> bytes:
    """The chunk's lines of `width` tab-separated fields, as `decoded_lines`
    gives them, each ended by an LF; every other line is skipped and
    counted under `reason`, or as `undecodable_lines` if it is not valid
    UTF-8."""
    lines = list(_decoded(io.BytesIO(chunk), diagnostics))
    good = [line + "\n" for line in lines if line.count("\t") == width - 1]
    if len(good) < len(lines):
        diagnostics[reason] += len(lines) - len(good)
    return "".join(good).encode("utf-8")


def _codes(fields: list, width: int) -> tuple[np.ndarray, list]:
    """The flat row-major `fields` as a (rows, width) array of codes into
    the list of their distinct values in first-seen order; the fields must
    be hashable, and equal ones share a code."""
    code = dict(zip(dict.fromkeys(fields), count()))
    codes = np.fromiter(map(code.__getitem__, fields), dtype=np.int64, count=len(fields))
    return codes.reshape(-1, width), list(code)


def _used(codes: np.ndarray, n: int) -> np.ndarray:
    """The codes below `n` that occur in `codes`, ascending."""
    return np.flatnonzero(np.bincount(codes.ravel(), minlength=n))


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of keys, ascending; sorts keys in place
    (np.unique's hash path is far slower on large int64 input, and its
    first call imports numpy.ma)."""
    keys.sort()
    new = np.empty(len(keys), dtype=bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    return keys[new]


def _fold(key: np.ndarray, word: np.ndarray) -> np.ndarray:
    """Keys with one more 64-bit word of their fields folded in. A
    product's low bits depend only on its factors' low bits, so the shift
    brings the high bits down for the next multiply to spread; without it,
    a difference in the high bytes of one word could cancel one in the
    next."""
    key = (key ^ word) * _MIX
    return key ^ (key >> np.uint64(32))


def _words(chunk: bytes) -> np.ndarray:
    """words[i] is the 8 bytes of the chunk from byte i as a little-endian
    word, zero past its end."""
    return np.ndarray(len(chunk), dtype="<u8", buffer=chunk + bytes(8), strides=(1,))


def _field_spans(chunk: bytes, width: int) -> tuple[bytes, np.ndarray, np.ndarray] | None:
    """The chunk, ended by an LF, with the start and length of each of its
    fields in row-major order, as `decoded_lines` and `str.split` give
    them; None for a chunk that is not valid UTF-8, holds a CR other than
    in a CRLF or has a line with other than width - 1 tabs."""
    if not chunk.isascii():
        try:
            chunk.decode("utf-8")
        except UnicodeDecodeError:
            return None
    crlf = chunk.count(b"\r") if b"\r" in chunk else 0
    if crlf and crlf != chunk.count(b"\r\n"):
        return None
    if not chunk.endswith(b"\n"):
        chunk += b"\n"
    data = np.frombuffer(chunk, dtype=np.uint8)
    ends = np.flatnonzero((data == 9) | (data == 10))
    lf = data[ends] == 10
    # every width-th delimiter an LF and no other: every line has width - 1 tabs
    if len(ends) % width or not lf[width - 1::width].all() or np.count_nonzero(lf) * width != len(ends):
        return None
    starts = np.concatenate(([0], ends[:-1] + 1))
    lengths = ends - starts
    if crlf:
        # a line's last field ends before its CRLF, as text mode reads it
        lengths[width - 1::width] -= data[ends[width - 1::width] - 1] == 13
    return chunk, starts, lengths


def _span_codes(chunk: bytes, starts: np.ndarray,
                lengths: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """The spans of `chunk` at `starts` of `lengths` bytes as codes into the
    list of their distinct values in first-seen order. Each span must be
    valid UTF-8, hold no tab and end before the chunk does.

    Each span's bytes are read as little-endian 64-bit words, masked past
    its end, and folded with its length into a key; spans with equal keys
    share a code once their words and lengths are checked equal. Spans
    whose keys collide are decoded, all of them, and coded by their text."""
    if not len(starts):
        return np.empty(0, dtype=np.int64), []
    words = _words(chunk)

    def word(k: int, spans) -> np.ndarray:
        return words[starts[spans] + 8 * k] & _MASKS[np.minimum(lengths[spans] - 8 * k, 8)]

    # the first word of every span (0 for an empty one), then the later
    # words of the longer spans
    first_words = word(0, slice(None))
    keys = _fold(lengths.astype(np.uint64), first_words)
    longer = [np.flatnonzero(lengths > 8 * k) for k in range(1, -(-int(lengths.max()) // 8))]
    for k, spans in enumerate(longer, 1):
        keys[spans] = _fold(keys[spans], word(k, spans))
    # one sort of the keys, each with its span's index in place of its low
    # bits (a product's low bits mix least), groups equal keys; that adds
    # only collisions, which the check below catches
    low = (np.uint64(1) << np.uint64(max(1, (len(keys) - 1).bit_length()))) - np.uint64(1)
    packed = np.sort((keys & ~low) | np.arange(len(keys), dtype=np.uint64))
    order = (packed & low).astype(np.int64)
    key = packed & ~low
    new = np.concatenate(([True], key[1:] != key[:-1]))
    group = np.empty(len(keys), dtype=np.int64)
    group[order] = np.cumsum(new) - 1
    # codes in first-seen order; the first span with each code stands for
    # it, and every other must equal it
    first = np.sort(order[new])
    code = np.empty(len(first), dtype=np.int64)
    code[group[first]] = np.arange(len(first))
    codes = code[group]
    rep = first[codes]
    if not (np.array_equal(lengths[rep], lengths) and np.array_equal(first_words[rep], first_words)
            and all(np.array_equal(word(k, spans), word(k, rep[spans]))
                    for k, spans in enumerate(longer, 1))):
        codes, values = _codes(_span_text(chunk, starts, lengths), 1)
        return codes.ravel(), values
    return codes, _span_text(chunk, starts[first], lengths[first])


def _span_text(chunk: bytes, at: np.ndarray, lengths: np.ndarray) -> list[str]:
    """The text of the spans of `chunk` at `at` of `lengths` bytes (see
    `_span_codes`), decoded at once: each with the byte after it made a
    tab, their byte indices are a running sum of steps of 1 that jump at
    each span's start, one array the size of the text."""
    data = np.frombuffer(chunk, dtype=np.uint8)
    size = lengths + 1
    end = np.cumsum(size)
    index = np.ones(end[-1], dtype=np.int64)
    index[0] = at[0]
    index[end[:-1]] = at[1:] - (at[:-1] + size[:-1]) + 1
    text = data[np.cumsum(index, out=index)]
    text[end - 1] = 9
    return text.tobytes().decode("utf-8").split("\t")[:-1]


def _csv_rows(path: str, header: str, reason: str, parse: Callable,
              diagnostics: Counter | None = None) -> Iterator:
    """parse(*fields) of each row of a comma-separated table whose columns
    are named by `header`. Lines are stripped and blank ones skipped, and
    so is the header line, in any case, if it is the first line that is
    not. A row whose field count differs from the header's, whose first
    field is empty or whose parse raises ValueError is skipped and counted
    under `reason`; a line that is not valid UTF-8 is counted as
    `undecodable_lines`."""
    if diagnostics is None:
        diagnostics = Counter()
    width = header.count(",") + 1
    lines = filter(None, map(str.strip, decoded_lines(path, diagnostics)))
    first = next(lines, None)
    if first is not None and first.lower() != header:
        lines = chain([first], lines)
    for line in lines:
        fields = line.split(",")
        try:
            if len(fields) != width or not fields[0]:
                raise ValueError(line)
            row = parse(*fields)
        except ValueError:
            diagnostics[reason] += 1
            continue
        yield row


def _write_lines(path, lines: Iterable[str] | Iterable[bytes]) -> None:
    """Write `lines` to `path`: text lines, each ending in a newline, as
    UTF-8 with LF line ends, and bytes as they are; every file the package
    writes is written here."""
    with open(path, "wb") as fh:
        fh.writelines(line if isinstance(line, bytes) else line.encode() for line in lines)


# rows per slice of the tab-separated writers
_BATCH = 1 << 12


def _encoded(names: Iterable[str], end: bytes) -> np.ndarray:
    """Each of `names` as UTF-8 bytes followed by `end` (the tab or newline
    after a field), in an object array that field codes index."""
    return np.array([name.encode() + end for name in names], dtype=object)


def _tsv_rows(fields: list[np.ndarray]) -> bytes:
    """The bytes of the rows whose field j is fields[j][i], each field
    encoded with the tab or newline that follows it (see `_encoded`): one
    join of the fields in row order."""
    return b"".join(np.column_stack(fields).ravel().tolist())


def _float_text(value: float) -> str:
    """A float cell of the tab-separated writers: %g where that reads back
    as the same float, repr otherwise, and a NaN as "nan"."""
    text = f"{value:g}"
    return text if float(text) == value or value != value else repr(value)


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
    """The entries of a flat key=value file, keys and values stripped, read
    past a leading byte order mark; blank lines and lines starting with #
    are skipped, and a line without = is a ValueError. A later entry for a
    key wins."""
    out: dict[str, str] = {}
    with open(path, encoding="utf-8-sig") as fh:
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

    The file is read a chunk at a time (see `_file_codes`), and each
    chunk's good rows are coded by raw query and URL host from their bytes
    (see `_log_spans`); then each distinct raw query of the file is
    normalized once and each distinct host resolved to its blog once.
    """
    if diagnostics is None:
        diagnostics = Counter()
    codes, values = _file_codes(path, 4, "malformed_lines", diagnostics,
                                lambda *spans: _log_spans(*spans, diagnostics))
    codes = codes.reshape(-1, 2)
    queries: dict[str, int] = {}
    query_of = np.zeros(len(values), dtype=np.int64)
    used = _used(codes[:, 0], len(values)).tolist()
    query_of[used] = [queries.setdefault(normalize_query(values[c]), len(queries)) for c in used]
    blogs: dict[str, int] = {}
    blog_of = np.zeros(len(values), dtype=np.int64)
    used = _used(codes[:, 1], len(values)).tolist()
    blog_of[used] = [-1 if b is None else blogs.setdefault(b, len(blogs))
                     for b in (blog_id_from_url(values[c]) for c in used)]
    query, blog = query_of[codes[:, 0]], blog_of[codes[:, 1]]
    platform = blog >= 0
    if not platform.all():
        diagnostics["non_platform_urls"] += int(np.count_nonzero(~platform))
    return _CodedLog(list(queries), list(blogs), query[platform], blog[platform])


def _log_spans(chunk: bytes, starts: np.ndarray, lengths: np.ndarray,
               diagnostics: Counter) -> tuple[np.ndarray, list[str]]:
    """The query and the host of each good log row of the chunk's fields
    at `starts` of `lengths` bytes, four to a row (see `_field_spans`), as
    flat row-major codes from their bytes by `_span_codes` into one list of
    distinct values; every other row is counted as malformed_lines.

    A timestamp of 1 to 32 ASCII digits is good as it stands; any other is
    decoded and parsed. A host is cut from its URL's bytes as `_host` cuts
    it from the text: `:` and `/` are ASCII, so no byte of a multibyte
    character matches them. No URL and no region is decoded."""
    starts, lengths = starts.reshape(-1, 4), lengths.reshape(-1, 4)
    good = _digit_spans(_words(chunk), starts[:, 0], lengths[:, 0])
    for i in np.flatnonzero(~good).tolist():
        at = int(starts[i, 0])
        good[i] = _stamp_ok(chunk[at:at + int(lengths[i, 0])].decode("utf-8"))
    good &= lengths[:, 2] > 0
    rows = np.flatnonzero(good)
    if len(rows) < len(good):
        diagnostics["malformed_lines"] += len(good) - len(rows)
    url, end = starts[rows, 2], starts[rows, 2] + lengths[rows, 2]
    data = np.frombuffer(chunk, dtype=np.uint8)
    slash = np.flatnonzero(data == 47)
    # each "://" is a colon before two slashes (the chunk ends in an LF, so
    # a slash at byte 0 finds no colon at byte -1); the first one at or
    # after a URL's start, if it ends inside the URL, ends its scheme
    scheme = slash[:-1][np.diff(slash) == 1] - 1
    scheme = np.append(scheme[data[scheme] == 58], len(data))
    after = scheme[np.searchsorted(scheme, url)] + 3
    host = np.where(after <= end, after, url)
    slash = np.append(slash, len(data))
    host_end = np.minimum(slash[np.searchsorted(slash, host)], end)
    codes, values = _span_codes(chunk, np.concatenate((starts[rows, 1], host)),
                                np.concatenate((lengths[rows, 1], host_end - host)))
    return codes.reshape(2, -1).T.ravel(), values


def _digit_spans(words: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Which spans, in the chunk of `words` (see `_words`), are 1 to 32
    ASCII digits: text that `float` parses to a number >= 0."""
    digits = (lengths > 0) & (lengths <= 32)
    for k in range(4):
        at = np.flatnonzero(digits & (lengths > 8 * k))
        if not len(at):
            break
        text = words[starts[at] + 8 * k].view(np.uint8).reshape(-1, 8)
        past = np.arange(8) >= (lengths[at] - 8 * k)[:, None]
        digits[at] = ((text - np.uint8(48) < 10) | past).all(axis=1)
    return digits


def _stamp_ok(text: str) -> bool:
    """Whether a timestamp's text is a number >= 0 (not NaN)."""
    try:
        return float(text) >= 0
    except ValueError:
        return False


def _host(url: str) -> str:
    """The text after the URL's first `://`, or all of it if it has none, up
    to its first `/`: the host with its port, if any."""
    _, scheme, rest = url.partition("://")
    return (rest if scheme else url).split("/", 1)[0]
