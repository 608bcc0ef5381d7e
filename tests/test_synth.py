import collections

import pytest

from devgraph.community import louvain
from devgraph.demographics import DEFAULT_BANDS, engagement_by_age
from devgraph.diffusion import ConsumerClass, producer_nodes
from devgraph.expansion import extract_deviant_graph
from devgraph.graph import FOLLOW, REBLOG
from devgraph.ingest import read_query_log
from devgraph.perception import volume_paradox_fraction
from devgraph.synth import (
    ClosureFixture,
    SynthConfig,
    closure_fixture,
    engagement_fixture,
    paradox_fixture,
    planted_graph,
    read_config,
    synth_demographics,
    synth_events,
    write_config,
)

from id_helpers import assignment, build_trees, classify_nodes, graph_edges, records
from log_helpers import event_rows
from tree_helpers import trees_of

SMALL = SynthConfig(seed=7, n_producer_one=12, n_producer_two=12,
                    n_bridge_one=10, n_bridge_two=10, n_outer=30,
                    posts_per_producer=1)


def edge_lists(g):
    return {layer: graph_edges(g, layer) for layer in (FOLLOW, REBLOG)}


def test_config_round_trip(tmp_path):
    path = tmp_path / "synth.cfg"
    write_config(SMALL, str(path))
    assert read_config(str(path)) == SMALL


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("seed=1\nbananas=3\n")
    with pytest.raises(ValueError):
        read_config(str(path))


def test_config_comments_and_blanks(tmp_path):
    path = tmp_path / "ok.cfg"
    path.write_text("# comment\n\nseed=9\nn_outer=5\n")
    cfg = read_config(str(path))
    assert cfg.seed == 9 and cfg.n_outer == 5


def test_planted_graph_deterministic():
    a, _ = planted_graph(SMALL)
    b, _ = planted_graph(SMALL)
    assert edge_lists(a) == edge_lists(b)
    assert a.node_ids == b.node_ids


def test_planted_sizes_exact():
    g, roles = planted_graph(SMALL)
    assert g.n_nodes == sum(SMALL.sizes().values())
    counts = collections.Counter(roles.values())
    assert counts == SMALL.sizes()
    assert set(roles) == set(g.node_ids)


def test_empty_group_absent():
    cfg = SynthConfig(seed=1, n_producer_one=8, n_producer_two=8,
                      n_bridge_one=6, n_bridge_two=0, n_outer=10)
    g, roles = planted_graph(cfg)
    assert "bridge_two" not in set(roles.values())
    assert not any(n.startswith("b2_") for n in g.node_ids)


def test_all_zero_probabilities_keep_nodes():
    cfg = SynthConfig(seed=1, n_producer_one=4, n_producer_two=4,
                      n_bridge_one=3, n_bridge_two=3, n_outer=5,
                      p_intra_producer=0.0, p_inter_producer=0.0,
                      p_producer_bridge=0.0, p_intra_bridge=0.0,
                      p_bridge_outer=0.0, p_outer_producer=0.0,
                      p_outer_outer=0.0)
    g, _ = planted_graph(cfg)
    assert g.n_nodes == 19
    assert g.n_edges(FOLLOW) == 0 and g.n_edges(REBLOG) == 0


def test_reblog_subset_of_follow():
    g, _ = planted_graph(SMALL)
    assert g.n_edges(REBLOG) > 0
    follows = {(u, v) for u, v, _ in graph_edges(g, FOLLOW)}
    for u, v, w in graph_edges(g, REBLOG):
        assert (u, v) in follows
        assert w in (1.0, 2.0, 3.0)


def test_louvain_recovers_cores():
    cfg = SynthConfig(seed=3, n_producer_one=100, n_producer_two=100,
                      n_bridge_one=0, n_bridge_two=0, n_outer=0,
                      p_intra_producer=0.3, p_inter_producer=0.001)
    g, roles = planted_graph(cfg)
    part = louvain(g, FOLLOW, seed=0)
    by_comm: dict[int, collections.Counter] = collections.defaultdict(collections.Counter)
    for node, comm in assignment(part).items():
        by_comm[comm][roles[node]] += 1
    agree = sum(c.most_common(1)[0][1] for c in by_comm.values())
    assert agree / g.n_nodes >= 0.9


def test_events_reference_reblog_edges():
    g, roles = planted_graph(SMALL)
    events = synth_events(SMALL, g, roles)
    assert events
    reblogs = {(u, v) for u, v, _ in graph_edges(g, REBLOG)}
    for ev in event_rows(events):
        assert (ev.actor, ev.source) in reblogs


def test_events_deterministic():
    g, roles = planted_graph(SMALL)
    assert event_rows(synth_events(SMALL, g, roles)) == event_rows(synth_events(SMALL, g, roles))


def test_events_build_producer_rooted_trees():
    g, roles = planted_graph(SMALL)
    events = synth_events(SMALL, g, roles)
    trees = build_trees(events, producer_nodes(roles))
    assert trees
    reblogs = {(u, v) for u, v, _ in graph_edges(g, REBLOG)}
    for t in trees_of(trees):
        assert roles[t.root].startswith("producer")
        for parent, child in t.edges():
            assert (child, parent) in reblogs


def test_zero_depth_means_no_indirect_consumers():
    cfg = SynthConfig(seed=5, n_producer_one=12, n_producer_two=12,
                      n_bridge_one=10, n_bridge_two=10, n_outer=30,
                      max_cascade_depth=0)
    g, roles = planted_graph(cfg)
    events = synth_events(cfg, g, roles)
    assert len(events) == 0
    classes = classify_nodes(g, build_trees(events, producer_nodes(roles)), roles)
    assert ConsumerClass.ACTIVE_INDIRECT not in classes.values()
    assert ConsumerClass.ACTIVE_DIRECT not in classes.values()


def test_closure_fixture_requires_ten_per_group():
    with pytest.raises(ValueError):
        closure_fixture(SynthConfig(seed=1, n_producer_one=5))


def test_closure_fixture_is_within_budget():
    fx = closure_fixture(SMALL)
    blogs = {line.split("\t")[2] for line in fx.log_lines}
    queries = {line.split("\t")[1] for line in fx.log_lines}
    assert len(blogs) <= 500 * 10  # distinct urls; blogs bounded below
    assert len(queries) <= 5000
    assert len(fx.expected_blogs) == 40
    assert len(fx.expected_keywords) == 13


def run_extraction(fx: ClosureFixture, tmp_path):
    log_path = tmp_path / "log.tsv"
    log_path.write_text("\n".join(fx.log_lines) + "\n", encoding="utf-8")
    return extract_deviant_graph(fx.seed_phrases, read_query_log(str(log_path)))


def test_closure_matches_planted_truth(tmp_path):
    fx = closure_fixture(SMALL)
    result = run_extraction(fx, tmp_path)
    assert result.converged
    assert result.state.keywords == fx.expected_keywords
    assert result.state.blogs == fx.expected_blogs
    assert tuple(r.keywords for r in result.trajectory) == fx.expected_keyword_trace
    assert tuple(r.blogs for r in result.trajectory) == fx.expected_blog_trace
    assert result.iterations_run == 5


def test_closure_noise_blogs_stay_out(tmp_path):
    fx = closure_fixture(SMALL)
    result = run_extraction(fx, tmp_path)
    assert not any(b.startswith("out_") for b in result.state.blogs)
    assert not any(k.startswith(("weather", "recipes")) for k in result.state.keywords)


def test_closure_distractor_seed_is_kept(tmp_path):
    fx = closure_fixture(SMALL)
    result = run_extraction(fx, tmp_path)
    assert "unseen topic" in result.state.keywords


def test_synth_demographics_shape():
    g, roles = planted_graph(SMALL)
    demo = records(synth_demographics(SMALL, roles))
    assert demo == records(synth_demographics(SMALL, roles))
    n = len(roles)
    assert 0.7 * n <= len(demo) <= n
    ages = [r.age for r in demo.values()]
    assert all(13 <= a <= 69 for a in ages)
    prod = [r.age for node, r in demo.items() if roles[node].startswith("producer")]
    rest = [r.age for node, r in demo.items() if not roles[node].startswith("producer")]
    assert sum(prod) / len(prod) > sum(rest) / len(rest)


def test_engagement_fixture_recovers_planted_rates():
    per_cell = 40
    classes, demo = engagement_fixture(per_cell=per_cell)
    curves = engagement_by_age(classes, demo.age, demo.gender)
    from devgraph.synth import FEMALE_ENGAGEMENT_RATES, MALE_ENGAGEMENT_RATES
    for gender, rates in (("male", MALE_ENGAGEMENT_RATES),
                          ("female", FEMALE_ENGAGEMENT_RATES)):
        curve = curves[gender]
        for (lo, _hi), raw in zip(curve.bands, curve.raw):
            assert raw == round(rates[lo] * per_cell) / per_cell


def test_engagement_fixture_peaks_and_crossing():
    classes, demo = engagement_fixture(per_cell=40)
    curves = engagement_by_age(classes, demo.age, demo.gender)
    male, female = curves["male"], curves["female"]
    # normalized value by band start; a missing band raises KeyError
    male_at = dict(zip((lo for lo, _ in male.bands), male.normalized))
    female_at = dict(zip((lo for lo, _ in female.bands), female.normalized))
    assert male_at[43] == 1.0
    assert female_at[23] == 1.0
    for lo in (18, 23):
        assert female_at[lo] > male_at[lo]
    for lo in (38, 43, 48):
        assert male_at[lo] > female_at[lo]
    assert [lo for lo, _ in male.bands] == [lo for lo, _ in DEFAULT_BANDS]


def test_paradox_fixture_direction():
    g, counts = paradox_fixture(n=2000, seed=11)
    frac = volume_paradox_fraction(g, REBLOG, counts, counts > 0)
    assert frac > 0.5


def test_paradox_counts_are_total_degree():
    g, counts = paradox_fixture(n=300, seed=2)
    degree = collections.Counter()
    for u, v, _ in graph_edges(g, REBLOG):
        degree[u] += 1
        degree[v] += 1
    assert dict(zip(g.node_ids, counts.tolist())) == degree
    assert (counts > 0).all()
