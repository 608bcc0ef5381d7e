"""The integer-coded keyword expansion against the per-record passes it
replaced, kept here verbatim as oracles: exact equality of seed states,
expansion steps and whole extractions (trajectory, `converged`,
`iterations_run`), or the same exception, over random query logs.

The oracles take a list of `QueryRecord`s, the library the same clicks as
a coded log (`log_helpers.coded_log`). The per-record helpers
(`aggregate_blog_hits`, `BlogHitStats`, `filter_candidate_blogs`,
`deviant_ratio`, `select_top_blogs`) live only here now;
`tests/test_ingest.py` and `tests/test_expansion.py` keep their unit tests.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devgraph.expansion import (
    RATIO_UNIQUE,
    RATIO_VOLUME,
    ExtractionResult,
    SeedState,
    _row,
    expand_keywords,
    extract_deviant_graph,
    initial_state,
)
from devgraph.ingest import normalize_query, read_query_log
from devgraph.synth import SynthConfig, closure_fixture

from log_helpers import coded_log
from test_ingest_oracle import QueryRecord, oracle_read_query_log


@dataclass
class BlogHitStats:
    blog_id: str
    unique_queries: int = 0
    total_clicks: int = 0
    deviant_unique_queries: int = 0
    deviant_clicks: int = 0
    _queries: set = field(default_factory=set, repr=False)
    _deviant_queries: set = field(default_factory=set, repr=False)


def aggregate_blog_hits(records: Iterable[QueryRecord], keyword_set: set[str],
                        diagnostics: Counter | None = None) -> dict[str, BlogHitStats]:
    """Per-blog click and distinct-query counts, plus the deviant subsets
    where the query exact-matches keyword_set."""
    stats: dict[str, BlogHitStats] = {}
    for rec in records:
        if not isinstance(rec, QueryRecord) or not rec.blog_id or rec.normalized_query is None:
            if diagnostics is not None:
                diagnostics["malformed_records"] += 1
            continue
        s = stats.get(rec.blog_id)
        if s is None:
            s = stats[rec.blog_id] = BlogHitStats(rec.blog_id)
        s.total_clicks += 1
        s._queries.add(rec.normalized_query)
        if rec.normalized_query in keyword_set:
            s.deviant_clicks += 1
            s._deviant_queries.add(rec.normalized_query)
    for s in stats.values():
        s.unique_queries = len(s._queries)
        s.deviant_unique_queries = len(s._deviant_queries)
    return stats


def filter_candidate_blogs(stats: dict[str, BlogHitStats],
                           min_unique: int = 2, min_clicks: int = 3) -> set[str]:
    """Keep blogs with enough distinct deviant queries and deviant clicks."""
    return {b for b, s in stats.items()
            if s.deviant_unique_queries >= min_unique and s.deviant_clicks >= min_clicks}


def deviant_ratio(stats: BlogHitStats, mode: str = RATIO_VOLUME) -> float:
    """Share of a blog's incoming clicks (or distinct queries) that are deviant."""
    if mode == RATIO_VOLUME:
        if stats.total_clicks == 0:
            raise ValueError(f"blog {stats.blog_id!r} has zero total clicks")
        return stats.deviant_clicks / stats.total_clicks
    if mode == RATIO_UNIQUE:
        if stats.unique_queries == 0:
            raise ValueError(f"blog {stats.blog_id!r} has zero unique queries")
        return stats.deviant_unique_queries / stats.unique_queries
    raise ValueError(f"unknown ratio mode: {mode!r}")


def _queries_matching(records: Sequence[QueryRecord], keywords: frozenset[str]) -> frozenset[str]:
    return frozenset(r.normalized_query for r in records if r.normalized_query in keywords)


def oracle_initial_state(seed: Iterable[str], full_log: Sequence[QueryRecord],
                         min_unique: int = 2, min_clicks: int = 3) -> SeedState:
    keywords = frozenset(filter(None, (normalize_query(p) for p in seed)))
    if not keywords:
        raise ValueError("empty seed keyword set")
    stats = aggregate_blog_hits(full_log, set(keywords))
    blogs = frozenset(filter_candidate_blogs(stats, min_unique, min_clicks))
    return SeedState(iteration=0, keywords=keywords, blogs=blogs,
                     queries_hitting=_queries_matching(full_log, keywords))


def select_top_blogs(state: SeedState, stats: dict[str, BlogHitStats],
                     decile: float = 0.10, ratio_mode: str = RATIO_VOLUME) -> list[str]:
    """Top ceil(decile * |B|) blogs by deviant ratio, ties by blog id."""
    k = math.ceil(decile * len(state.blogs))
    ranked = sorted(state.blogs,
                    key=lambda b: (-deviant_ratio(stats[b], ratio_mode), b))
    return ranked[:k]


def oracle_expand_keywords(state: SeedState, full_log: Sequence[QueryRecord],
                           decile: float = 0.10, min_unique: int = 2, min_clicks: int = 3,
                           ratio_mode: str = RATIO_VOLUME) -> SeedState:
    """One expansion step: absorb every query hitting the top-ratio blogs,
    then recompute the candidate blog set under the grown keyword set."""
    if not state.blogs:
        raise ValueError("nothing to expand: empty blog set")
    stats = aggregate_blog_hits(full_log, set(state.keywords))
    top = set(select_top_blogs(state, stats, decile, ratio_mode))
    collected = {r.normalized_query for r in full_log
                 if r.blog_id in top and r.normalized_query}
    keywords = state.keywords | collected
    new_stats = aggregate_blog_hits(full_log, set(keywords))
    blogs = frozenset(filter_candidate_blogs(new_stats, min_unique, min_clicks))
    return SeedState(iteration=state.iteration + 1, keywords=keywords, blogs=blogs,
                     queries_hitting=_queries_matching(full_log, keywords))


def oracle_extract_deviant_graph(seed: Iterable[str], full_log: Sequence[QueryRecord],
                                 max_iter: int = 20, eps: float = 0.01,
                                 decile: float = 0.10, min_unique: int = 2, min_clicks: int = 3,
                                 ratio_mode: str = RATIO_VOLUME) -> ExtractionResult:
    state = oracle_initial_state(seed, full_log, min_unique, min_clicks)
    trajectory = [_row(state)]
    converged = False
    iterations_run = 0
    for _ in range(max_iter):
        nxt = oracle_expand_keywords(state, full_log, decile, min_unique, min_clicks,
                                     ratio_mode)
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


# -- random logs -------------------------------------------------------------

# "" is a query that normalized to nothing.
QUERIES = ("ka", "kb", "kc", "qa", "qb", "qc", "qd", "ka kb", "")
BLOGS = ("aa", "b0", "b1", "b2", "b3", "b4", "zz")
SEED_PHRASES = ("ka", "kb", "KA 7", "kc", "qa", "missing phrase", "42", "tumblr")

# Blog i mostly draws queries i to i+2, so expansion can spread in waves.
local = st.tuples(st.integers(0, len(BLOGS) - 1), st.integers(0, 2)).map(
    lambda t: QueryRecord(QUERIES[(t[0] + t[1]) % len(QUERIES)], BLOGS[t[0]]))
anywhere = st.builds(QueryRecord, st.sampled_from(QUERIES), st.sampled_from(BLOGS))


def coded(log: Sequence[QueryRecord]):
    """The same clicks as the library's coded log."""
    return coded_log((r.normalized_query, r.blog_id) for r in log)


@st.composite
def logs(draw):
    """Random records, and sometimes one blog's records copied onto a
    second name so that the two tie on every ratio."""
    log = draw(st.lists(st.one_of(local, local, local, anywhere),
                        min_size=5, max_size=100))
    if draw(st.booleans()):
        src, dst = draw(st.sampled_from([("b0", "zz"), ("zz", "aa"), ("b1", "b2")]))
        log += [QueryRecord(r.normalized_query, dst) for r in log if r.blog_id == src]
    return draw(st.permutations(log))


@st.composite
def chain_logs(draw):
    """An unlock chain under seeds {u0, uz} with noise: blog ci carries the
    keyword that admits blog ci+1, so runs go on for several steps."""
    n = draw(st.integers(2, 8))
    u = [f"u{i}" for i in range(n + 1)]
    log = []
    for i in range(n):
        blog = f"c{i}"
        log += [QueryRecord(u[i], blog)] * 2 + [QueryRecord(u[i - 1] if i else "uz", blog),
                                                 QueryRecord(u[i + 1], blog)]
    log += draw(st.lists(anywhere, max_size=20))
    return draw(st.permutations(log)), ["u0", "uz"]


params = st.fixed_dictionaries({
    "decile": st.sampled_from((0, 0.1, 0.34, 0.5, 1, 1.5, -0.5)),
    "min_unique": st.sampled_from((0, 1, 2)),
    "min_clicks": st.sampled_from((0, 1, 3)),
    "ratio_mode": st.sampled_from((RATIO_VOLUME, RATIO_VOLUME, RATIO_UNIQUE, RATIO_UNIQUE,
                                   "bogus")),
})
seeds = st.lists(st.sampled_from(SEED_PHRASES), min_size=1, max_size=5)


@st.composite
def hand_built_steps(draw):
    """A log and any state over it: keywords the log never saw and the
    empty query, blogs of the log and now and then one it never saw."""
    log = draw(logs())
    present = {r.blog_id for r in log}
    blogs = draw(st.frozensets(st.sampled_from(sorted(present) or ["b0"]),
                               min_size=1, max_size=5))
    blogs |= draw(st.sampled_from((set(), set(), set(), {"absent"}, {"b9"})))
    keywords = draw(st.frozensets(st.sampled_from(QUERIES + ("not logged",)), max_size=4))
    return log, SeedState(iteration=3, keywords=keywords, blogs=blogs,
                          queries_hitting=frozenset())


def outcome(fn, *args, **kwargs):
    """The result, or the type and message of the exception raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.tuples(logs(), seeds), chain_logs()), params,
       st.sampled_from((0, 1, 2, 5, 20)), st.sampled_from((0, 0.01, 0.5, 1)))
def test_extraction_matches_oracle(case, p, max_iter, eps):
    log, seed = case
    got = outcome(extract_deviant_graph, seed, coded(log), max_iter=max_iter, eps=eps, **p)
    want = outcome(oracle_extract_deviant_graph, seed, log, max_iter=max_iter, eps=eps, **p)
    if isinstance(want, ExtractionResult):
        assert isinstance(got, ExtractionResult)
        assert got.state == want.state
        assert got.trajectory == want.trajectory
        assert got.converged == want.converged
        assert got.iterations_run == want.iterations_run
    else:
        assert got == want


@settings(max_examples=300, deadline=None)
@given(logs(), seeds, st.sampled_from((0, 1, 2)), st.sampled_from((0, 1, 3)))
def test_initial_state_matches_oracle(log, seed, min_unique, min_clicks):
    assert (outcome(initial_state, seed, coded(log), min_unique, min_clicks)
            == outcome(oracle_initial_state, seed, log, min_unique, min_clicks))


@settings(max_examples=300, deadline=None)
@given(hand_built_steps(), params)
def test_hand_built_step_matches_oracle(case, p):
    """Blogs absent from the log raise the oracle's KeyError."""
    log, state = case
    assert outcome(expand_keywords, state, coded(log), **p) == outcome(oracle_expand_keywords,
                                                                state, log, **p)


def test_ratio_tie_goes_to_lower_blog_id():
    # Two blogs with identical click patterns: only "aa" is in the top 10%.
    log = ([QueryRecord("ka", "zz")] * 2 + [QueryRecord("kb", "zz"), QueryRecord("zq", "zz")]
           + [QueryRecord("ka", "aa")] * 2 + [QueryRecord("kb", "aa"), QueryRecord("aq", "aa")])
    state = initial_state(["ka", "kb"], coded(log))
    assert state.blogs == {"aa", "zz"}
    assert expand_keywords(state, coded(log)) == oracle_expand_keywords(state, log)
    assert expand_keywords(state, coded(log)).keywords == {"ka", "kb", "aq"}


@pytest.mark.parametrize("blogs, error", [({"absent"}, KeyError), ({"b0"}, ValueError)])
def test_absent_blog_checked_before_ratio_mode(blogs, error):
    log = [QueryRecord("ka", "b0")] * 3
    state = SeedState(iteration=0, keywords=frozenset({"ka"}), blogs=frozenset(blogs),
                      queries_hitting=frozenset())
    got = outcome(expand_keywords, state, coded(log), ratio_mode="bogus")
    assert got == outcome(oracle_expand_keywords, state, log, ratio_mode="bogus")
    assert got[0] is error


@pytest.mark.parametrize("ratio_mode", [RATIO_VOLUME, RATIO_UNIQUE])
@pytest.mark.parametrize("seed", [7, 11])
def test_closure_fixture_matches_oracle(tmp_path, seed, ratio_mode):
    fx = closure_fixture(SynthConfig(seed=seed))
    path = tmp_path / "log.tsv"
    path.write_text("\n".join(fx.log_lines) + "\n", encoding="utf-8")
    got = extract_deviant_graph(fx.seed_phrases, read_query_log(str(path)), ratio_mode=ratio_mode)
    assert got == oracle_extract_deviant_graph(fx.seed_phrases, oracle_read_query_log(str(path)),
                                               ratio_mode=ratio_mode)
