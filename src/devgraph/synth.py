"""Seeded generators for desk-scale fixtures: planted-community layered
graphs, reblog cascades with known trees, query logs with a known keyword
closure, and parameterized demographic tables."""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .demographics import DemographicRecord
from .diffusion import ConsumerClass, ReblogEvent
from .graph import FOLLOW, REBLOG, LAYERS, LayeredGraph, _Layer, build_graph

GROUPS = ("producer_one", "producer_two", "bridge_one", "bridge_two", "outer")
_PREFIX = {"producer_one": "p1", "producer_two": "p2",
           "bridge_one": "b1", "bridge_two": "b2", "outer": "out"}


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 0
    n_producer_one: int = 30
    n_producer_two: int = 30
    n_bridge_one: int = 25
    n_bridge_two: int = 25
    n_outer: int = 160
    p_intra_producer: float = 0.35
    p_inter_producer: float = 0.02
    p_producer_bridge: float = 0.10
    p_intra_bridge: float = 0.30
    p_bridge_outer: float = 0.05
    p_outer_producer: float = 0.04
    p_outer_outer: float = 0.008
    reblog_given_follow: float = 0.5
    posts_per_producer: int = 2
    cascade_join_prob: float = 0.6
    depth_geom_p: float = 0.5
    max_cascade_depth: int = 4
    demo_coverage: float = 0.9
    n_noise_blogs: int = 5

    def sizes(self) -> dict[str, int]:
        return {"producer_one": self.n_producer_one,
                "producer_two": self.n_producer_two,
                "bridge_one": self.n_bridge_one,
                "bridge_two": self.n_bridge_two,
                "outer": self.n_outer}


def read_config(path: str) -> SynthConfig:
    """Flat key=value file; unknown keys rejected."""
    allowed = {f.name: f.type for f in fields(SynthConfig)}
    kwargs: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            key = key.strip()
            if not sep or key not in allowed:
                raise ValueError(f"bad config line: {line!r}")
            value = value.strip()
            kwargs[key] = float(value) if "float" in str(allowed[key]) else int(value)
    return SynthConfig(**kwargs)


def write_config(cfg: SynthConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for f in fields(SynthConfig):
            fh.write(f"{f.name}={getattr(cfg, f.name)}\n")


def _node_names(cfg: SynthConfig) -> dict[str, list[str]]:
    return {grp: [f"{_PREFIX[grp]}_{i:04d}" for i in range(n)]
            for grp, n in cfg.sizes().items()}


def _follow_prob(cfg: SynthConfig, origin: str, target: str) -> float:
    producers = {"producer_one", "producer_two"}
    bridges = {"bridge_one", "bridge_two"}
    if origin in producers and target in producers:
        return cfg.p_intra_producer if origin == target else cfg.p_inter_producer
    if origin in bridges and target in bridges:
        return cfg.p_intra_bridge if origin == target else cfg.p_inter_producer
    if (origin in producers and target in bridges) or (origin in bridges and target in producers):
        return cfg.p_producer_bridge
    if origin == "outer" and target in producers:
        return cfg.p_outer_producer
    if (origin == "outer" and target in bridges) or (origin in bridges and target == "outer"):
        return cfg.p_bridge_outer
    if origin == "outer" and target == "outer":
        return cfg.p_outer_outer
    return 0.0


def planted_graph(cfg: SynthConfig) -> tuple[LayeredGraph, dict[str, str]]:
    """Stochastic block structure on both layers with ground-truth roles.

    Reblog edges are a seeded thinning of the follow edges, so cascades
    always run along real follow ties.
    """
    names = _node_names(cfg)
    ids = [node for grp in GROUPS for node in names[grp]]
    roles = {node: grp for grp, nodes in names.items() for node in nodes}
    offset = {}
    at = 0
    for grp in GROUPS:
        offset[grp] = at
        at += len(names[grp])
    root = np.random.SeedSequence(cfg.seed)
    block_seeds = iter(root.spawn(len(GROUPS) * len(GROUPS)))
    # per layer, the (src, dst, weight) arrays of each block after an empty one
    blocks = {name: [(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))] for name in LAYERS}
    for origin in GROUPS:
        for target in GROUPS:
            child = next(block_seeds)
            p = _follow_prob(cfg, origin, target)
            rows, cols = len(names[origin]), len(names[target])
            if p <= 0.0 or rows == 0 or cols == 0:
                continue
            rng = np.random.default_rng(child)
            mask = rng.random((rows, cols)) < p
            if origin == target:
                np.fill_diagonal(mask, False)
            reblog_mask = mask & (rng.random((rows, cols)) < cfg.reblog_given_follow)
            weights = rng.integers(1, 4, size=(rows, cols))
            i, j = np.nonzero(mask)
            blocks[FOLLOW].append((offset[origin] + i, offset[target] + j, np.ones(len(i))))
            i, j = np.nonzero(reblog_mask)
            blocks[REBLOG].append((offset[origin] + i, offset[target] + j, weights[i, j]))
    layers = {name: _Layer(len(ids), *map(np.concatenate, zip(*blocks[name]))) for name in LAYERS}
    return LayeredGraph(ids, layers, labels=roles), roles


def synth_events(cfg: SynthConfig, g: LayeredGraph, roles: dict[str, str]) -> list[ReblogEvent]:
    """Reblog cascades rooted at producers, spreading along reblog
    in-neighbors wave by wave; every event references a graph reblog edge."""
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(60)[40])
    producers = sorted(n for n, r in roles.items() if r.startswith("producer"))
    events: list[ReblogEvent] = []
    post_index = 0
    for producer in producers:
        for _ in range(cfg.posts_per_producer):
            post_id = f"post_{post_index:05d}"
            t0 = post_index * 10_000
            post_index += 1
            if cfg.max_cascade_depth <= 0:
                continue
            depth_limit = min(int(rng.geometric(cfg.depth_geom_p)), cfg.max_cascade_depth)
            in_tree = {producer}
            holders = [producer]
            for depth in range(1, depth_limit + 1):
                joined: list[str] = []
                for holder in holders:
                    for actor in g.in_neighbors(REBLOG, holder):
                        if actor in in_tree:
                            continue
                        if rng.random() < cfg.cascade_join_prob:
                            events.append(ReblogEvent(actor, holder, post_id,
                                                      float(t0 + depth)))
                            in_tree.add(actor)
                            joined.append(actor)
                holders = joined
                if not holders:
                    break
    return events


_WAVE_WORDS = ("alpha", "bravo", "charlie", "delta")
_DIGIT_WORDS = ("zero", "one", "two", "three", "four",
                "five", "six", "seven", "eight", "nine")
BLOGS_PER_WAVE = 10


@dataclass(frozen=True)
class ClosureFixture:
    """Query log whose keyword/blog closure under expansion is known exactly."""
    log_lines: tuple[str, ...]
    seed_phrases: tuple[str, ...]
    exact_phrases: tuple[str, ...]
    containment_phrases: tuple[str, ...]
    expected_keywords: frozenset[str]
    expected_blogs: frozenset[str]
    expected_keyword_trace: tuple[int, ...]
    expected_blog_trace: tuple[int, ...]
    deviant_blogs_by_wave: tuple[tuple[str, ...], ...] = field(repr=False, default=())


def _carriers(wave: int) -> tuple[str, str]:
    return (f"{_WAVE_WORDS[wave]} one", f"{_WAVE_WORDS[wave]} two")


def _ballast(wave: int, j: int) -> str:
    return f"ballast {_WAVE_WORDS[wave]} {_DIGIT_WORDS[j]}"


def closure_fixture(cfg: SynthConfig) -> ClosureFixture:
    """Four waves of ten blogs. Each wave's two carrier queries hit every
    blog of the wave twice; the first blog of waves 0-2 hosts the next
    wave's carriers (one click each) and carries 1 ballast click instead of
    6; every blog has a private ballast query. One expansion step therefore
    selects exactly the saturated blogs plus the current host, unlocking one
    new wave per iteration, then one extra ballast, then a fixed point.
    """
    names = _node_names(cfg)
    wave_groups = ("producer_one", "producer_two", "bridge_one", "bridge_two")
    for grp in wave_groups:
        if len(names[grp]) < BLOGS_PER_WAVE:
            raise ValueError(f"{grp} needs at least {BLOGS_PER_WAVE} nodes "
                             "for the closure fixture")
    waves = tuple(tuple(names[grp][:BLOGS_PER_WAVE]) for grp in wave_groups)

    clicks: list[tuple[str, str]] = []  # (query, blog)
    for w, blogs in enumerate(waves):
        c1, c2 = _carriers(w)
        for j, blog in enumerate(blogs):
            clicks += [(c1, blog)] * 2 + [(c2, blog)] * 2
            host = j == 0 and w < len(waves) - 1
            if host:
                n1, n2 = _carriers(w + 1)
                clicks += [(n1, blog), (n2, blog)]
            clicks += [(_ballast(w, j), blog)] * (1 if host else 6)
    noise_blogs = names["outer"][:cfg.n_noise_blogs]
    for k, blog in enumerate(noise_blogs):
        word = _DIGIT_WORDS[k % len(_DIGIT_WORDS)]
        clicks += [(f"weather {word}", blog)] * 2 + [(f"recipes {word}", blog)] * 2

    lines = tuple(f"{1000 + i}\t{query}\thttp://{blog}.tumblr.com/post/{i}\tUS"
                  for i, (query, blog) in enumerate(clicks))

    c01, c02 = _carriers(0)
    distractor = "unseen topic"
    seeds = (c01, c02, distractor)
    hosts_ballast = [_ballast(w, 0) for w in range(3)]
    extra_blog_wave, extra_blog_j = 2, 1  # b1_0001 wins the iteration-4 tie
    expected_keywords = frozenset(
        list(seeds)
        + [c for w in range(1, 4) for c in _carriers(w)]
        + hosts_ballast + [_ballast(extra_blog_wave, extra_blog_j)])
    expected_blogs = frozenset(b for wave in waves for b in wave)
    return ClosureFixture(
        log_lines=lines,
        seed_phrases=seeds,
        exact_phrases=(c01, distractor),
        containment_phrases=(_WAVE_WORDS[0],),
        expected_keywords=expected_keywords,
        expected_blogs=expected_blogs,
        expected_keyword_trace=(3, 6, 9, 12, 13),
        expected_blog_trace=(10, 20, 30, 40, 40),
        deviant_blogs_by_wave=waves,
    )


def synth_demographics(cfg: SynthConfig, roles: dict[str, str]) -> dict[str, DemographicRecord]:
    """Seeded ages and genders: producers skew older and male, the rest
    younger and balanced; coverage per demo_coverage."""
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(60)[50])
    out: dict[str, DemographicRecord] = {}
    for node in sorted(roles):
        if rng.random() > cfg.demo_coverage:
            continue
        if roles[node].startswith("producer"):
            age = int(np.clip(round(rng.normal(38, 8)), 18, 69))
            gender = "male" if rng.random() < 0.82 else "female"
        else:
            age = int(np.clip(round(rng.normal(27, 9)), 13, 69))
            gender = "male" if rng.random() < 0.5 else "female"
        if rng.random() < 0.05:
            gender = "unknown"
        out[node] = DemographicRecord(node=node, age=age, gender=gender)
    return out


MALE_ENGAGEMENT_RATES = {13: 0.05, 18: 0.10, 23: 0.20, 28: 0.30, 33: 0.50,
                         38: 0.80, 43: 0.90, 48: 0.80, 53: 0.50, 58: 0.30,
                         63: 0.20, 68: 0.10}
FEMALE_ENGAGEMENT_RATES = {13: 0.30, 18: 0.80, 23: 0.90, 28: 0.50, 33: 0.30,
                           38: 0.20, 43: 0.15, 48: 0.10, 53: 0.08, 58: 0.05,
                           63: 0.03, 68: 0.02}


def engagement_fixture(per_cell: int = 40,
                       male_rates: dict[int, float] = MALE_ENGAGEMENT_RATES,
                       female_rates: dict[int, float] = FEMALE_ENGAGEMENT_RATES,
                       ) -> tuple[dict[str, ConsumerClass], dict[str, DemographicRecord]]:
    """Noise-free engagement planting: exactly round(rate * per_cell) active
    consumers per (gender, band) cell, so the planted rate tables are the
    oracle for the normalized curves (male peak 38-52, female peak 23-27)."""
    classes: dict[str, ConsumerClass] = {}
    demo: dict[str, DemographicRecord] = {}
    for gender, rates in (("male", male_rates), ("female", female_rates)):
        for lo, rate in rates.items():
            n_active = round(rate * per_cell)
            for j in range(per_cell):
                node = f"{gender}_{lo}_{j:03d}"
                demo[node] = DemographicRecord(node=node, age=lo + j % 5, gender=gender)
                classes[node] = (ConsumerClass.ACTIVE_DIRECT if j < n_active
                                 else ConsumerClass.PASSIVE)
    return classes, demo


def paradox_fixture(n: int = 10_000, seed: int = 0, exponent: float = 2.5,
                    ) -> tuple[LayeredGraph, dict[str, int]]:
    """Heavy-tailed reblog graph for the friendship-paradox direction check.

    Out-degrees follow a zipf(exponent) law; targets are sampled with
    probability proportional to an independent zipf attractiveness, so a
    random out-neighbor is size-biased toward heavy rebloggers. Counts are
    each node's total reblog degree (activity in the window).
    """
    rng = np.random.default_rng(seed)
    out_deg = np.minimum(rng.zipf(exponent, size=n), n // 10)
    attractiveness = np.minimum(rng.zipf(exponent, size=n), 10_000).astype(np.float64)
    p = attractiveness / attractiveness.sum()
    edges: list[tuple[str, str, float, str]] = []
    for u in range(n):
        k = int(out_deg[u])
        targets = rng.choice(n, size=k, replace=False, p=p) if k else []
        for v in targets:
            if int(v) != u:
                edges.append((f"n{u}", f"n{int(v)}", 1.0, REBLOG))
    g = build_graph(edges)
    counts: dict[str, int] = {}
    out_counts = g.out_degrees(REBLOG)
    in_counts = g.in_degrees(REBLOG)
    for node in g.node_ids:
        i = g.index_of(node)
        total = int(out_counts[i] + in_counts[i])
        if total > 0:
            counts[node] = total
    return g, counts
