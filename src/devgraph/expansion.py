"""Iterative keyword-set expansion: keywords select blogs, the top blogs by
deviant click ratio contribute their full query sets back, to convergence.

The log is integer-coded once (`_CodedLog`): a query vocabulary, blogs in
sorted id order, and the distinct (blog, query) pairs with their click
counts. An expansion step is then a few `np.bincount` calls over the pairs
whose query is a keyword, instead of passes over every record.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .ingest import (
    Dictionary,
    MatchKind,
    QueryRecord,
    match_query,
    normalize_query,
)

RATIO_VOLUME = "volume"
RATIO_UNIQUE = "unique"


@dataclass(frozen=True)
class SeedState:
    iteration: int
    keywords: frozenset[str]
    blogs: frozenset[str]
    queries_hitting: frozenset[str]


@dataclass(frozen=True)
class TrajectoryRow:
    iteration: int
    keywords: int
    blogs: int
    queries: int


@dataclass(frozen=True)
class ExtractionResult:
    state: SeedState
    trajectory: tuple[TrajectoryRow, ...]
    converged: bool
    iterations_run: int


class _CodedLog(Sequence):
    """A query log encoded once into integer arrays; as a sequence it is
    still the records it was built from.

    A record with an empty blog id or a None query is left out of the
    per-blog counts; its query, if any, still counts as a query of the log.
    Blog codes follow sorted blog-id order, so ordering by code breaks ties
    the way sorting by id does.
    """

    def __init__(self, records: Sequence[QueryRecord]):
        self._records = records
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

    def __len__(self) -> int:
        return len(self._records)

    def __getitem__(self, i):
        return self._records[i]

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


def _coded(full_log: Sequence[QueryRecord]) -> _CodedLog:
    return full_log if isinstance(full_log, _CodedLog) else _CodedLog(full_log)


def seed_keywords(records: Iterable[QueryRecord], d: Dictionary) -> frozenset[str]:
    """Distinct normalized log queries matching the dual dictionary."""
    return frozenset(r.normalized_query for r in records
                     if r.normalized_query
                     and match_query(r.normalized_query, d) is not MatchKind.NO_MATCH)


def initial_state(seed: Iterable[str], full_log: Sequence[QueryRecord],
                  min_unique: int = 2, min_clicks: int = 3) -> SeedState:
    keywords = frozenset(filter(None, (normalize_query(p) for p in seed)))
    if not keywords:
        raise ValueError("empty seed keyword set")
    log = _coded(full_log)
    blogs = log.candidates(log.keyword_mask(keywords), min_unique, min_clicks)
    return SeedState(iteration=0, keywords=keywords, blogs=blogs,
                     queries_hitting=log.hitting(keywords))


def _top_blogs(state: SeedState, log: _CodedLog, decile: float,
               ratio_mode: str) -> np.ndarray:
    """Codes of the top ceil(decile * |B|) blogs by deviant ratio, ties by
    blog id. Blogs are checked in set order: one absent from the log
    raises KeyError, and an unknown ratio mode raises ValueError at the
    first blog that is present."""
    k = math.ceil(decile * len(state.blogs))
    codes = []
    for b in state.blogs:
        codes.append(log.blog_code[b])
        if ratio_mode not in (RATIO_VOLUME, RATIO_UNIQUE):
            raise ValueError(f"unknown ratio mode: {ratio_mode!r}")
    codes = np.array(codes, dtype=np.int64)
    clicks, unique = log.deviant_counts(log.keyword_mask(state.keywords))
    if ratio_mode == RATIO_VOLUME:
        ratio = clicks[codes] / log.total_clicks[codes]
    else:
        ratio = unique[codes] / log.unique_queries[codes]
    return codes[np.lexsort((codes, -ratio))][:k]


def expand_keywords(state: SeedState, full_log: Sequence[QueryRecord],
                    decile: float = 0.10, min_unique: int = 2, min_clicks: int = 3,
                    ratio_mode: str = RATIO_VOLUME) -> SeedState:
    """One expansion step: absorb every query hitting the top-ratio blogs,
    then recompute the candidate blog set under the grown keyword set."""
    if not state.blogs:
        raise ValueError("nothing to expand: empty blog set")
    log = _coded(full_log)
    top = np.zeros(len(log.blog_ids), dtype=bool)
    top[_top_blogs(state, log, decile, ratio_mode)] = True
    collected = set(log.queries[np.unique(log.pair_query[top[log.pair_blog]])]) - {""}
    keywords = state.keywords | collected
    blogs = log.candidates(log.keyword_mask(keywords), min_unique, min_clicks)
    return SeedState(iteration=state.iteration + 1, keywords=keywords, blogs=blogs,
                     queries_hitting=log.hitting(keywords))


def extract_deviant_graph(seed: Iterable[str], full_log: Sequence[QueryRecord],
                          max_iter: int = 20, eps: float = 0.01,
                          decile: float = 0.10, min_unique: int = 2, min_clicks: int = 3,
                          ratio_mode: str = RATIO_VOLUME) -> ExtractionResult:
    """Run expansion until the relative growth of both the keyword and blog
    sets falls below eps (an exact fixed point always stops, so eps=0
    terminates too), or max_iter is reached.

    The trajectory records one row per distinct state, starting at the
    seed state; a step that changes nothing appends no duplicate row.
    The log is encoded once and every step reuses the encoding.
    """
    full_log = _coded(full_log)
    state = initial_state(seed, full_log, min_unique, min_clicks)
    trajectory = [_row(state)]
    converged = False
    iterations_run = 0
    for _ in range(max_iter):
        nxt = expand_keywords(state, full_log, decile, min_unique, min_clicks, ratio_mode)
        iterations_run += 1
        if nxt.keywords == state.keywords and nxt.blogs == state.blogs:
            converged = True
            break
        growth_k = (len(nxt.keywords) - len(state.keywords)) / len(state.keywords)
        growth_b = (len(nxt.blogs) - len(state.blogs)) / len(state.blogs)
        state = nxt
        trajectory.append(_row(state))
        if growth_k < eps and growth_b < eps:
            converged = True
            break
    return ExtractionResult(state=state, trajectory=tuple(trajectory),
                            converged=converged, iterations_run=iterations_run)


def _row(state: SeedState) -> TrajectoryRow:
    return TrajectoryRow(iteration=state.iteration, keywords=len(state.keywords),
                         blogs=len(state.blogs), queries=len(state.queries_hitting))


def write_trajectory_csv(trajectory: Iterable[TrajectoryRow], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("iteration,keywords,blogs,queries\n")
        for row in trajectory:
            fh.write(f"{row.iteration},{row.keywords},{row.blogs},{row.queries}\n")
