"""Acceptance gate: one test per headline guarantee, each printing a single
PASS line. Oracles are implemented inline so they share no code with the
library paths they check."""

import itertools
import json
import math
import re
import time

import numpy as np

from devgraph.cli import main
from devgraph.community import louvain
from devgraph.demographics import engagement_by_age, min_max_normalize
from devgraph import perception
from devgraph.diffusion import ConsumerClass
from devgraph.expansion import extract_deviant_graph
from devgraph.graph import FOLLOW, REBLOG, build_graph, mean_degree_and_density
from devgraph.ingest import read_query_log
from devgraph.synth import (
    SynthConfig,
    closure_fixture,
    engagement_fixture,
    paradox_fixture,
    write_config,
)

from id_helpers import (
    assignment,
    build_trees,
    classify_nodes,
    graph_edges,
    perception_curve,
    rank_by_degree,
    rank_by_volume,
    rewire_null_model,
    shrinkage_curve,
    volume_paradox_fraction,
)
from log_helpers import ReblogEvent, coded_events
from tree_helpers import trees_of

SMALL = SynthConfig(seed=7, n_producer_one=12, n_producer_two=12,
                    n_bridge_one=10, n_bridge_two=10, n_outer=30,
                    posts_per_producer=1)


# ---------------------------------------------------------------- 1 ----

def test_gate_1_platform_scale_arithmetic():
    t0 = time.perf_counter()
    k, d = mean_degree_and_density(14_000_000, 472_000_000)
    elapsed = time.perf_counter() - t0
    assert int(k) == 33
    assert f"{d:.0e}" == "2e-06"
    assert elapsed < 1.0
    print("[GATE 1] whole-platform degree/density arithmetic at printed precision: PASS")


# ---------------------------------------------------------------- 2 ----

_PLATFORM = {"tumblr", "tumbler", "tumblrr", "tumlr", "tmblr"}


def _norm(q: str) -> str:
    q = re.sub(r"\d+", "", q.lower())
    return " ".join(t for t in q.split() if t not in _PLATFORM)


def _blog_of(url: str):
    host = url.split("://", 1)[-1].split("/", 1)[0].lower()
    if not host.endswith(".tumblr.com"):
        return None
    label = host[: -len(".tumblr.com")].rsplit(".", 1)[-1]
    return label or None


def _brute_closure(seeds, rows):
    """Definitional fixpoint of the keyword/blog expansion, plain dicts."""
    keywords = {_norm(s) for s in seeds if _norm(s)}

    def tally(kw):
        per = {}
        for q, b in rows:
            entry = per.setdefault(b, [0, 0, set()])
            entry[1] += 1
            if q in kw:
                entry[0] += 1
                entry[2].add(q)
        return per

    def candidates(per):
        return {b for b, (dc, _tc, du) in per.items() if len(du) >= 2 and dc >= 3}

    per = tally(keywords)
    blogs = candidates(per)
    for _ in range(100):
        if not blogs:
            break
        k = math.ceil(0.1 * len(blogs))
        top = set(sorted(blogs, key=lambda b: (-(per[b][0] / per[b][1]), b))[:k])
        grown = keywords | {q for q, b in rows if b in top and q}
        per2 = tally(grown)
        blogs2 = candidates(per2)
        if grown == keywords and blogs2 == blogs:
            break
        keywords, blogs, per = grown, blogs2, per2
    return keywords, blogs


def test_gate_2_extraction_closure(tmp_path):
    t0 = time.perf_counter()
    fx = closure_fixture(SMALL)
    log = tmp_path / "log.tsv"
    log.write_text("\n".join(fx.log_lines) + "\n", encoding="utf-8")

    rows = []
    for line in fx.log_lines:
        _ts, query, url, _region = line.split("\t")
        blog = _blog_of(url)
        assert blog is not None
        rows.append((_norm(query), blog))
    oracle_k, oracle_b = _brute_closure(fx.seed_phrases, rows)

    result = extract_deviant_graph(fx.seed_phrases, read_query_log(str(log)))
    elapsed = time.perf_counter() - t0

    assert result.converged
    assert result.state.keywords == frozenset(oracle_k) == fx.expected_keywords
    assert result.state.blogs == frozenset(oracle_b) == fx.expected_blogs
    for prev, cur in itertools.pairwise(result.trajectory):
        assert cur.keywords >= prev.keywords and cur.blogs >= prev.blogs
    assert elapsed < 10.0
    print("[GATE 2] extraction equals the enumerated closure, "
          "monotone trajectory: PASS")


# ---------------------------------------------------------------- 3 ----

def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in _set_partitions(rest):
        for i, block in enumerate(smaller):
            yield smaller[:i] + [block | {first}] + smaller[i + 1:]
        yield smaller + [{first}]


def _inline_q(g, layer, blocks):
    sym = {}
    for u, v, w in graph_edges(g, layer):
        key = (min(u, v), max(u, v))
        sym[key] = sym.get(key, 0.0) + w
    m = sum(sym.values())
    comm = {}
    for i, block in enumerate(blocks):
        for node in block:
            comm[node] = i
    e = {}
    d = {}
    for (u, v), w in sym.items():
        d[comm[u]] = d.get(comm[u], 0.0) + w
        d[comm[v]] = d.get(comm[v], 0.0) + w
        if comm[u] == comm[v]:
            e[comm[u]] = e.get(comm[u], 0.0) + w
    return sum(e.get(c, 0.0) / m - (d.get(c, 0.0) / (2 * m)) ** 2 for c in d)


def _communities_of(partition):
    groups = {}
    for node, c in assignment(partition).items():
        groups.setdefault(c, set()).add(node)
    return {frozenset(s) for s in groups.values()}


def test_gate_3_louvain_oracle():
    # fixture: two triangles joined by one edge
    tri = [("a", "b"), ("b", "c"), ("c", "a"), ("d", "e"), ("e", "f"),
           ("f", "d"), ("c", "d")]
    g = build_graph([(u, v, 1.0, FOLLOW) for u, v in tri])
    part = louvain(g, FOLLOW, seed=0)
    assert _communities_of(part) == {frozenset("abc"), frozenset("def")}

    # fixture: ring of four 5-cliques
    edges = []
    cliques = []
    for c in range(4):
        names = [f"c{c}n{i}" for i in range(5)]
        cliques.append(frozenset(names))
        edges += [(a, b) for a in names for b in names if a < b]
        edges.append((f"c{c}n0", f"c{(c + 1) % 4}n1"))
    g = build_graph([(u, v, 1.0, FOLLOW) for u, v in edges])
    part = louvain(g, FOLLOW, seed=0)
    assert _communities_of(part) == set(cliques)

    wins = 0
    for i in range(50):
        rng = np.random.default_rng(1000 + i)
        n = 4 + i % 5
        layer = FOLLOW if i % 2 == 0 else REBLOG
        nodes = [f"v{j}" for j in range(n)]
        es = []
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < 0.45:
                    w = 1.0 if layer == FOLLOW else float(rng.integers(1, 4))
                    es.append((nodes[u], nodes[v], w, layer))
        if not es:
            es.append((nodes[0], nodes[1], 1.0, layer))
        g = build_graph(es)
        present = list(g.node_ids)
        q_opt = max(_inline_q(g, layer, blocks)
                    for blocks in _set_partitions(present))
        part = louvain(g, layer, seed=i)
        assert part.modularity <= q_opt + 1e-9
        if part.modularity >= q_opt - 1e-9 or part.modularity >= 0.95 * q_opt:
            wins += 1
    assert wins >= 48, f"only {wins}/50 runs reached the exhaustive optimum"
    print(f"[GATE 3] community detection vs exhaustive optimum "
          f"({wins}/50) and exact fixtures: PASS")


# ---------------------------------------------------------------- 4 ----

def test_gate_4_null_model_exactness():
    rng = np.random.default_rng(99)
    edges = set()
    while len(edges) < 1000:
        u, v = rng.integers(0, 150, size=2)
        if u != v:
            edges.add((int(u), int(v)))
    g = build_graph([(f"n{u}", f"n{v}", float(rng.integers(1, 6)), REBLOG)
                     for u, v in sorted(edges)])
    out0 = g.out_degrees(REBLOG)
    in0 = g.in_degrees(REBLOG)
    for seed in range(100):
        rewired = rewire_null_model(g, REBLOG, seed=seed)
        assert rewired.node_ids == g.node_ids
        assert np.array_equal(rewired.out_degrees(REBLOG), out0)
        assert np.array_equal(rewired.in_degrees(REBLOG), in0)
    print("[GATE 4] 100 rewirings preserve both degree sequences "
          "element-wise: PASS")


# ---------------------------------------------------------------- 5 ----

def _random_classification_fixture(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 121))
    nodes = [f"n{j}" for j in range(n)]
    roles = {}
    for node in nodes:
        r = rng.random()
        roles[node] = ("producer_one" if r < 0.12
                       else "bridge_one" if r < 0.22 else "outer")
    p = 4.0 / n
    edges = [(u, v, 1.0, FOLLOW) for u in nodes for v in nodes
             if u != v and rng.random() < p]
    anchored = edges + [(nodes[0], nodes[1], 1.0, FOLLOW)]
    g = build_graph(anchored)
    producers = [x for x in nodes if roles[x].startswith("producer")]

    events = []
    for post in range(int(rng.integers(0, 7))):
        if producers and rng.random() < 0.7:
            root = producers[int(rng.integers(0, len(producers)))]
        else:
            root = nodes[int(rng.integers(0, n))]
        members = [root]
        for step in range(int(rng.integers(0, 9))):
            actor = nodes[int(rng.integers(0, n))]
            if actor in members:
                continue
            parent = members[int(rng.integers(0, len(members)))]
            events.append(ReblogEvent(actor, parent, f"post{post}", float(step)))
            members.append(actor)
    return g, roles, events


def _brute_classify(g, trees, roles):
    producers = {x for x, r in roles.items() if r.lower().startswith("producer")}
    bridges = {x for x, r in roles.items() if r.lower().startswith("bridge")}
    tree_edges = [(p, c) for t in trees for p, c in t.edges()]
    in_tree = set()
    for t in trees:
        in_tree |= t.nodes()
    direct = {c for p, c in tree_edges if p in producers}
    classes = {}
    for node in g.node_ids:
        if node in producers:
            classes[node] = ConsumerClass.PRODUCER
        elif node in bridges:
            classes[node] = ConsumerClass.BRIDGE
        elif node in direct:
            classes[node] = ConsumerClass.ACTIVE_DIRECT
        elif node in in_tree:
            classes[node] = ConsumerClass.ACTIVE_INDIRECT
    actives = {x for x, c in classes.items()
               if c in (ConsumerClass.ACTIVE_DIRECT, ConsumerClass.ACTIVE_INDIRECT)}
    followees = {node: set() for node in g.node_ids}
    for src, dst, _ in graph_edges(g, FOLLOW):
        followees[src].add(dst)
    for node in g.node_ids:
        if node in classes:
            continue
        follows = followees[node]
        if follows & producers:
            classes[node] = ConsumerClass.PASSIVE
        elif follows & actives:
            classes[node] = ConsumerClass.INVOLUNTARY
        else:
            classes[node] = ConsumerClass.UNEXPOSED
    return classes


def test_gate_5_classification_oracle():
    for seed in range(100):
        g, roles, events = _random_classification_fixture(2000 + seed)
        producers = {x for x, r in roles.items() if r.startswith("producer")}
        trees = build_trees(coded_events(events), producers)
        classes = classify_nodes(g, trees, roles)
        assert set(classes) == set(g.node_ids)
        assert classes == _brute_classify(g, trees_of(trees), roles), f"seed {seed}"
    print("[GATE 5] consumer classification matches the definitional "
          "oracle on 100 fixtures: PASS")


# ---------------------------------------------------------------- 6 ----

def _planted_hub():
    events = []
    g_edges = []
    # hub cascade: h -> a0..a9 -> 4 leaves each
    for i in range(10):
        a = f"a{i}"
        events.append(ReblogEvent(a, "h", "big", 1.0))
        g_edges.append((a, "h", 1.0, REBLOG))
        for j in range(4):
            b = f"b{i}{j}"
            events.append(ReblogEvent(b, a, "big", 2.0))
            g_edges.append((b, a, 1.0, REBLOG))
    # decoys: high reblog in-degree, but their posts never leave a producer
    for d in range(10):
        name = f"d{d:02d}"
        for k in range(20):
            g_edges.append((f"f{d:02d}{k:02d}", name, 1.0, REBLOG))
        events.append(ReblogEvent(f"x{d}", name, f"decoy{d}", 1.0))
    g = build_graph(g_edges)
    trees = build_trees(coded_events(events), producers={"h"})
    return g, trees


def test_gate_6_shrinkage_properties():
    g, trees = _planted_hub()
    volume = shrinkage_curve(trees, rank_by_volume(trees), sizes=[0, 1, 5, 10, 11])
    degree = shrinkage_curve(trees, rank_by_degree(g), sizes=[0, 1, 5, 10, 11])
    assert volume.reached_fraction[volume.sizes.index(0)] == 1.0
    assert degree.reached_fraction[degree.sizes.index(0)] == 1.0
    for prev, cur in (itertools.pairwise(volume.reached_fraction)):
        assert cur <= prev
    for prev, cur in (itertools.pairwise(degree.reached_fraction)):
        assert cur <= prev
    assert all(v <= d for v, d in zip(volume.reached_fraction,
                                      degree.reached_fraction))
    assert any(v < d for v, d in zip(volume.reached_fraction,
                                     degree.reached_fraction))
    # removing every producer erases every tree
    producer_curve = shrinkage_curve(trees, ["h"], sizes=[0, 1])
    assert producer_curve.reached_fraction == (1.0, 0.0)

    rng = np.random.default_rng(4)
    for trial in range(5):
        producers = [f"p{i}" for i in range(3)]
        events = []
        for post, root in enumerate(producers):
            members = [root]
            for step in range(int(rng.integers(2, 12))):
                actor = f"t{trial}m{post}x{step}"
                parent = members[int(rng.integers(0, len(members)))]
                events.append(ReblogEvent(actor, parent, f"p{post}", float(step)))
                members.append(actor)
        forest = build_trees(coded_events(events), set(producers))
        curve = shrinkage_curve(forest, rank_by_volume(forest),
                                sizes=list(range(len(producers) + 1)))
        for prev, cur in itertools.pairwise(curve.reached_fraction):
            assert cur <= prev
        total = shrinkage_curve(forest, producers, sizes=[0, len(producers)])
        assert total.reached_fraction == (1.0, 0.0)
    print("[GATE 6] shrinkage endpoints, monotonicity, and "
          "volume-over-degree dominance: PASS")


# ---------------------------------------------------------------- 7 ----

def _brute_paradox(g, layer, counts, exclude):
    exclude = exclude or set()
    followees = {node: [] for node in g.node_ids}
    for src, dst, _ in graph_edges(g, layer):
        followees[src].append(dst)
    below = considered = 0
    for node in g.node_ids:
        if node in exclude:
            continue
        vals = [counts[v] for v in followees[node] if v in counts]
        if not vals:
            continue
        considered += 1
        if counts.get(node, 0) < sum(vals) / len(vals):
            below += 1
    return below / considered


def test_gate_7_perception():
    rng = np.random.default_rng(31)
    for n in (5, 12, 40, 120, 400, 1000):
        for trial in range(4):
            p = max(3.0 / n, 0.4 if n <= 12 else 0.0)
            nodes = [f"u{i}" for i in range(n)]
            edges = [(a, b, 1.0, FOLLOW) for a in nodes for b in nodes
                     if a != b and rng.random() < p]
            edges.append((nodes[0], nodes[1], 1.0, FOLLOW))
            g = build_graph(edges)
            active = {x for x in g.node_ids if rng.random() < 0.4}
            curve = perception_curve(g, FOLLOW, active, step=0.1)
            assert curve.fraction_at_least[curve.thresholds.index(0.0)] == 1.0
            for prev, cur in itertools.pairwise(curve.fraction_at_least):
                assert cur <= prev
            counts = {x: int(rng.integers(0, 21)) for x in g.node_ids
                      if rng.random() < 0.7}
            exclude = {x for x in g.node_ids if rng.random() < 0.1}
            try:
                got = volume_paradox_fraction(g, FOLLOW, counts, exclude=exclude)
            except ValueError:
                continue
            assert got == _brute_paradox(g, FOLLOW, counts, exclude)
    g, counts = paradox_fixture(n=10_000, seed=0)
    frac = perception.volume_paradox_fraction(g, REBLOG, counts, counts > 0)
    assert frac > 0.5
    print(f"[GATE 7] perception monotone, paradox oracle exact, "
          f"heavy-tail fraction {frac:.3f} > 0.5: PASS")


# ---------------------------------------------------------------- 8 ----

def test_gate_8_demographics():
    assert min_max_normalize([2, 4, 6]) == [0.0, 0.5, 1.0]
    classes, demo = engagement_fixture(per_cell=40)
    curves = engagement_by_age(classes, demo.age, demo.gender)
    male, female = curves["male"], curves["female"]
    male_peak = max((v, lo) for (lo, _), v in zip(male.bands, male.normalized)
                    if v is not None)[1]
    female_peak = max((v, lo) for (lo, _), v in zip(female.bands, female.normalized)
                      if v is not None)[1]
    assert 35 <= male_peak <= 55
    assert 20 <= female_peak < 30
    # normalized value by band start; a missing band raises KeyError
    male_at = dict(zip((lo for lo, _ in male.bands), male.normalized))
    female_at = dict(zip((lo for lo, _ in female.bands), female.normalized))
    for lo in (18, 23):
        assert female_at[lo] > male_at[lo]
    for lo in (38, 43, 48):
        assert male_at[lo] > female_at[lo]
    print("[GATE 8] min-max normalization exact and engagement "
          "curves cross with the planted peaks: PASS")


# ---------------------------------------------------------------- 9 ----

def test_gate_9_pipeline_determinism(tmp_path):
    t0 = time.perf_counter()
    cfg = tmp_path / "synth.cfg"
    write_config(SynthConfig(seed=11), str(cfg))
    args = ["pipeline", "--config", str(cfg), "--seed", "11"]
    assert main(args + ["--out", str(tmp_path / "one")]) == 0
    assert main(args + ["--out", str(tmp_path / "two")]) == 0
    first = (tmp_path / "one" / "report.json").read_bytes()
    second = (tmp_path / "two" / "report.json").read_bytes()
    elapsed = time.perf_counter() - t0
    assert first == second
    assert json.loads(first)["schema_version"] == 1
    assert elapsed < 60.0
    print(f"[GATE 9] two pipeline runs byte-identical in "
          f"{elapsed:.1f}s: PASS")
