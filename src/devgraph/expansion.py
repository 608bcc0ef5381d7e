"""Iterative keyword-set expansion: keywords select blogs, the top blogs by
deviant click ratio contribute their full query sets back, to convergence.

The log arrives integer-coded from `read_query_log` (`_CodedLog`): a query
vocabulary, blogs in sorted id order, and the distinct (blog, query) pairs
with their click counts. An expansion step is then a few `np.bincount`
calls over the pairs whose query is a keyword.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import astuple, dataclass

import numpy as np

from .ingest import _CodedLog, _distinct, _write_rows, normalize_query

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


def initial_state(seed: Iterable[str], log: _CodedLog,
                  min_unique: int = 2, min_clicks: int = 3) -> SeedState:
    keywords = frozenset(filter(None, (normalize_query(p) for p in seed)))
    if not keywords:
        raise ValueError("empty seed keyword set")
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


def expand_keywords(state: SeedState, log: _CodedLog,
                    decile: float = 0.10, min_unique: int = 2, min_clicks: int = 3,
                    ratio_mode: str = RATIO_VOLUME) -> SeedState:
    """One expansion step: absorb every query hitting the top-ratio blogs,
    then recompute the candidate blog set under the grown keyword set."""
    if not state.blogs:
        raise ValueError("nothing to expand: empty blog set")
    top = np.zeros(len(log.blog_ids), dtype=bool)
    top[_top_blogs(state, log, decile, ratio_mode)] = True
    collected = set(log.queries[_distinct(log.pair_query[top[log.pair_blog]])]) - {""}
    keywords = state.keywords | collected
    blogs = log.candidates(log.keyword_mask(keywords), min_unique, min_clicks)
    return SeedState(iteration=state.iteration + 1, keywords=keywords, blogs=blogs,
                     queries_hitting=log.hitting(keywords))


def extract_deviant_graph(seed: Iterable[str], log: _CodedLog,
                          max_iter: int = 20, eps: float = 0.01,
                          decile: float = 0.10, min_unique: int = 2, min_clicks: int = 3,
                          ratio_mode: str = RATIO_VOLUME) -> ExtractionResult:
    """Run expansion until the relative growth of both the keyword and blog
    sets falls below eps (an exact fixed point always stops, so eps=0
    terminates too), or max_iter is reached.

    The trajectory records one row per distinct state, starting at the
    seed state; a step that changes nothing appends no duplicate row.
    """
    state = initial_state(seed, log, min_unique, min_clicks)
    trajectory = [_row(state)]
    converged = False
    iterations_run = 0
    for _ in range(max_iter):
        nxt = expand_keywords(state, log, decile, min_unique, min_clicks, ratio_mode)
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
    _write_rows(path, "iteration,keywords,blogs,queries", map(astuple, trajectory))
