"""Keyword expansion loop: ratios, top-blog selection, convergence."""

import random

import pytest

from devgraph.expansion import (
    RATIO_UNIQUE,
    expand_keywords,
    extract_deviant_graph,
    initial_state,
    seed_keywords,
    write_trajectory_csv,
)
from devgraph.ingest import Dictionary, QueryRecord
# The per-record definitions the coded expansion replaced; TestRatio and
# TestSelect test them where they now live.
from test_expansion_oracle import (
    BlogHitStats,
    aggregate_blog_hits,
    deviant_ratio,
    select_top_blogs,
)


def _stats(blog, deviant, total, uniq_dev=1, uniq=1):
    return BlogHitStats(blog, unique_queries=uniq, total_clicks=total,
                        deviant_unique_queries=uniq_dev, deviant_clicks=deviant)


def clicks(query, blog, n=1):
    return [QueryRecord(query, blog)] * n


class TestRatio:
    def test_arithmetic(self):
        assert deviant_ratio(_stats("b", 3, 4)) == 0.75
        assert deviant_ratio(_stats("b", 0, 5)) == 0.0
        assert deviant_ratio(_stats("b", 5, 5)) == 1.0

    def test_zero_clicks_error(self):
        with pytest.raises(ValueError, match="zero total clicks"):
            deviant_ratio(_stats("b", 0, 0))

    def test_unique_mode(self):
        s = _stats("b", 9, 10, uniq_dev=1, uniq=4)
        assert deviant_ratio(s, RATIO_UNIQUE) == 0.25


class TestSeedKeywords:
    def test_dual_dictionary(self):
        d = Dictionary.from_phrases(["alpha beta"], ["gamma"])
        recs = [QueryRecord("alpha beta", "b1"), QueryRecord("see gamma here", "b2"),
                QueryRecord("alpha", "b3"), QueryRecord("", "b4")]
        assert seed_keywords(recs, d) == {"alpha beta", "see gamma here"}


def three_blog_log():
    """Three candidate blogs under K0={ka,kb}; expanding the top blog's
    queries admits a fourth blog via the new query qnew."""
    log = []
    log += clicks("ka", "b1", 2) + clicks("kb", "b1", 2) + clicks("qnew", "b1", 1)  # ratio 0.8
    log += clicks("ka", "b2", 2) + clicks("kb", "b2", 1) + clicks("nb two", "b2", 3)  # ratio 0.5
    log += clicks("ka", "b3", 1) + clicks("kb", "b3", 2) + clicks("nb three", "b3", 5)  # ratio 0.375
    log += clicks("ka", "b4", 1) + clicks("qnew", "b4", 2)  # joins only once qnew is deviant
    return log


class TestSelect:
    def test_decile_ceiling(self):
        log = []
        for i in range(10):
            log += clicks("ka", f"b{i}", 2) + clicks("kb", f"b{i}", 1 + i)
        state = initial_state(["ka", "kb"], log)
        assert len(state.blogs) == 10
        stats = aggregate_blog_hits(log, set(state.keywords))
        assert select_top_blogs(state, stats, decile=0.10) == ["b0"]

    def test_tie_breaks_by_blog_id(self):
        log = clicks("ka", "zz", 2) + clicks("kb", "zz", 1) \
            + clicks("ka", "aa", 2) + clicks("kb", "aa", 1)
        state = initial_state(["ka", "kb"], log)
        stats = aggregate_blog_hits(log, set(state.keywords))
        assert select_top_blogs(state, stats, decile=0.10) == ["aa"]
        assert select_top_blogs(state, stats, decile=1.0) == ["aa", "zz"]


class TestExpand:
    def test_empty_blogs_error(self):
        state = initial_state(["ka"], clicks("ka", "b1", 1))
        assert not state.blogs
        with pytest.raises(ValueError, match="nothing to expand"):
            expand_keywords(state, clicks("ka", "b1", 1))

    def test_fixed_point_when_top_queries_known(self):
        log = clicks("ka", "b1", 2) + clicks("kb", "b1", 1)
        state = initial_state(["ka", "kb"], log)
        nxt = expand_keywords(state, log)
        assert nxt.keywords == state.keywords
        assert nxt.blogs == state.blogs == {"b1"}
        assert nxt.iteration == 1

    def test_one_step_growth(self):
        log = three_blog_log()
        state = initial_state(["ka", "kb"], log)
        assert state.blogs == {"b1", "b2", "b3"}
        nxt = expand_keywords(state, log)
        assert nxt.keywords == {"ka", "kb", "qnew"}
        assert nxt.blogs == {"b1", "b2", "b3", "b4"}


class TestExtract:
    def test_no_expandable_queries_converges_after_one(self):
        log = clicks("ka", "b1", 2) + clicks("kb", "b1", 1)
        res = extract_deviant_graph(["ka", "kb"], log)
        assert res.converged
        assert res.iterations_run == 1
        assert len(res.trajectory) == 1
        assert res.trajectory[0].iteration == 0

    def test_growth_then_fixed_point(self):
        res = extract_deviant_graph(["ka", "kb"], three_blog_log())
        assert res.converged
        assert [r.blogs for r in res.trajectory] == [3, 4]
        assert [r.keywords for r in res.trajectory] == [2, 3]
        assert res.iterations_run == 2

    def test_eps_zero_terminates(self):
        res = extract_deviant_graph(["ka", "kb"], three_blog_log(), eps=0.0)
        assert res.converged
        assert res.state.blogs == {"b1", "b2", "b3", "b4"}

    def test_eps_one_stops_on_slow_growth(self):
        # growth of 50%/33% in the single expanding step is below eps=1.0
        res = extract_deviant_graph(["ka", "kb"], three_blog_log(), eps=1.0)
        assert res.converged
        assert res.iterations_run == 1
        assert len(res.trajectory) == 2

    def test_empty_seed_error(self):
        with pytest.raises(ValueError, match="seed"):
            extract_deviant_graph(["42"], three_blog_log())

    def test_seed_normalized_at_entry(self):
        res = extract_deviant_graph(["  KA 7 ", "kb"], three_blog_log(), eps=1.0)
        assert "ka" in res.state.keywords

    def test_determinism(self):
        a = extract_deviant_graph(["ka", "kb"], three_blog_log())
        b = extract_deviant_graph(["ka", "kb"], three_blog_log())
        assert a == b

    def test_keyword_monotonicity_random_logs(self):
        rng = random.Random(23)
        vocab = [f"q{i}" for i in range(12)]
        for _ in range(20):
            log = [QueryRecord(rng.choice(vocab), f"b{rng.randrange(6)}")
                   for _ in range(rng.randrange(10, 80))]
            seed = rng.sample(vocab, 3)
            state = initial_state(seed, log)
            for _ in range(4):
                if not state.blogs:
                    break
                nxt = expand_keywords(state, log)
                assert state.keywords <= nxt.keywords
                assert state.blogs <= nxt.blogs
                state = nxt

    def test_max_iter_cap(self):
        # unlock chain: blog i carries the keyword that admits blog i+1, so
        # every full-set expansion grows both sets by exactly one
        u = [f"u{ch}" for ch in "abcdefghijklm"]
        log = clicks(u[0], "b00", 2) + clicks("uz", "b00", 1) + clicks(u[1], "b00", 1)
        for i in range(1, 11):
            log += clicks(u[i], f"b{i:02d}", 2) + clicks(u[i - 1], f"b{i:02d}", 1) \
                + clicks(u[i + 1], f"b{i:02d}", 1)
        res = extract_deviant_graph([u[0], "uz"], log, max_iter=3, eps=0.0, decile=1.0)
        assert not res.converged
        assert res.iterations_run == 3
        assert [r.blogs for r in res.trajectory] == [1, 2, 3, 4]


def test_trajectory_csv(tmp_path):
    res = extract_deviant_graph(["ka", "kb"], three_blog_log())
    p = tmp_path / "trajectory.csv"
    write_trajectory_csv(res.trajectory, str(p))
    lines = p.read_text().splitlines()
    assert lines[0] == "iteration,keywords,blogs,queries"
    assert lines[1] == "0,2,3,2"
    assert lines[2] == "1,3,4,3"
