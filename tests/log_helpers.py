"""Coded logs for tests, built from and read back as rows.

The library holds a reblog event log as a `_CodedEvents` and a query log as
a `_CodedLog`, both integer-coded. `coded_events` builds the first from a
list of `ReblogEvent` rows and `event_rows` lists its rows back, in order;
`coded_log` builds the second from (query, blog) pairs, one per click, and
`log_rows` lists its pairs back, sorted. `stamp_text` is the events.tsv
text of a timestamp, for the writer oracles.
"""

import struct
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from devgraph.diffusion import _CodedEvents
from devgraph.ingest import _CodedLog


@dataclass(frozen=True)
class ReblogEvent:
    actor: str
    source: str
    post_id: str
    timestamp: float


def stamp_text(t: float) -> str:
    """%g where it reads back to the same float64 bits, repr otherwise; a
    NaN reads back as the text "nan" either way."""
    text = f"{t:g}"
    return text if struct.pack("<d", float(text)) == struct.pack("<d", t) else repr(t)


def _vocabulary(names: Iterable[str]) -> tuple[list[str], np.ndarray]:
    """Distinct names in first-seen order, and each name's code."""
    vocab: dict[str, int] = {}
    codes = [vocab.setdefault(name, len(vocab)) for name in names]
    return list(vocab), np.array(codes, dtype=np.int64)


def coded_events(events: Iterable[ReblogEvent]) -> _CodedEvents:
    events = list(events)
    ids, nodes = _vocabulary([e.actor for e in events] + [e.source for e in events])
    posts, post = _vocabulary(e.post_id for e in events)
    ts = np.array([e.timestamp for e in events], dtype=np.float64)
    return _CodedEvents(ids, posts, nodes[:len(events)], nodes[len(events):], post, ts)


def event_rows(events: _CodedEvents) -> list[ReblogEvent]:
    ids, posts = events.ids, events.posts
    return [ReblogEvent(ids[a], ids[s], posts[p], t)
            for a, s, p, t in zip(events.actor.tolist(), events.source.tolist(),
                                  events.post.tolist(), events.ts.tolist())]


def coded_log(pairs: Iterable[tuple[str, str]]) -> _CodedLog:
    pairs = list(pairs)
    queries, query = _vocabulary(q for q, _ in pairs)
    blogs, blog = _vocabulary(b for _, b in pairs)
    return _CodedLog(queries, blogs, query, blog)


def log_rows(log: _CodedLog) -> list[tuple[str, str]]:
    return sorted((log.queries[q], log.blog_ids[b])
                  for b, q, n in zip(log.pair_blog.tolist(), log.pair_query.tolist(),
                                     log.pair_clicks.tolist())
                  for _ in range(n))
