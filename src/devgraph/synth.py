"""Seeded generators for desk-scale fixtures: planted-community layered
graphs, reblog cascades with known trees, query logs with a known keyword
closure, and parameterized demographic tables."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from itertools import compress

import numpy as np

from .demographics import GENDERS, Demographics
from .diffusion import _RANK, ConsumerClass, _CodedEvents, producer_nodes
from .graph import (
    FOLLOW,
    LAYERS,
    REBLOG,
    LayeredGraph,
    _indptr,
    _Layer,
    _sorted_order,
    build_graph,
    id_codes,
)
from .ingest import _key_values, _write_lines

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
    """Flat key=value file (see `_key_values`); unknown keys rejected."""
    allowed = {f.name: f.type for f in fields(SynthConfig)}
    kwargs: dict = {}
    for key, value in _key_values(path).items():
        if key not in allowed:
            raise ValueError(f"unknown config key: {key!r}")
        kwargs[key] = float(value) if "float" in str(allowed[key]) else int(value)
    return SynthConfig(**kwargs)


def write_config(cfg: SynthConfig, path: str) -> None:
    # str() of a float round-trips; %.10g would not
    _write_lines(path, (f"{f.name}={getattr(cfg, f.name)}\n" for f in fields(SynthConfig)))


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

    Each block draws its follow count from Binomial(cells, p) and then that
    many distinct cells uniformly, which gives every cell an independent
    Bernoulli(p) follow without a dense rows x cols draw (Batagelj &
    Brandes 2005). A diagonal block has no self cells.
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
            width = cols - 1 if origin == target else cols
            cells = rows * width
            k = int(rng.binomial(cells, p))
            i, j = np.divmod(np.sort(rng.choice(cells, k, replace=False)), width)
            if origin == target:
                j += j >= i  # step over the self cell (i, i)
            reblog = rng.random(k) < cfg.reblog_given_follow
            weights = rng.integers(1, 4, size=k)
            i, j = offset[origin] + i, offset[target] + j
            blocks[FOLLOW].append((i, j, np.ones(k)))
            blocks[REBLOG].append((i[reblog], j[reblog], weights[reblog]))
    layers = {name: _Layer(*map(np.concatenate, zip(*blocks[name]))) for name in LAYERS}
    return LayeredGraph(ids, layers), roles


# (holder, candidate) pairs per slice of a synth_events wave
_PAIRS = 1 << 16


def synth_events(cfg: SynthConfig, g: LayeredGraph, roles: dict[str, str]) -> _CodedEvents:
    """Reblog cascades rooted at producers, spreading along reblog
    in-neighbors wave by wave; every event references a graph reblog edge.

    Each post draws its depth limit, then the waves of all posts advance
    together (the independent cascade of Kempe, Kleinberg & Tardos, KDD
    2003): each (holder, candidate) pair of a wave, a candidate being a
    holder's in-neighbour outside the post's tree, draws one uniform, in
    wave order and then holder order, and a candidate joins with
    cascade_join_prob at its first success, from that pair's holder. A
    wave's pairs are taken _PAIRS at a time, which changes no draw.
    Events are listed by post, then wave, then holder, then candidate."""
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(60)[40])
    n = g.n_nodes
    producers = id_codes(g.node_ids, sorted(producer_nodes(roles)))
    n_posts = len(producers) * cfg.posts_per_producer
    post_ids = [f"post_{i:05d}" for i in range(n_posts)]
    if cfg.max_cascade_depth > 0 and n_posts:
        keys, sources = _waves(cfg, g, producers, rng)
    else:
        keys, sources = [], []
    depth = np.repeat(np.arange(1, len(keys) + 1, dtype=np.int32), [len(k) for k in keys])
    key = np.concatenate([np.empty(0, np.int64)] + keys)
    del keys
    # each wave lists its posts in ascending order, so a stable sort by post
    # merges the waves
    order = np.argsort(key // n, kind="stable")
    key = key[order]
    ts = depth[order].astype(np.float64)
    source = np.concatenate([np.empty(0, np.int32)] + sources)[order]
    del depth, sources, order
    post, actor = (key // n).astype(np.int32), (key % n).astype(np.int32)
    del key
    ts += post * 10_000.0
    return _CodedEvents(list(g.node_ids), post_ids, actor, source, post, ts)


def _waves(cfg: SynthConfig, g: LayeredGraph, producers: np.ndarray,
           rng) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """synth_events' waves: per wave, the (post * n + actor) keys that
    joined, in pair order, and their sources."""
    n = g.n_nodes
    n_posts = len(producers) * cfg.posts_per_producer
    limit = np.minimum(rng.geometric(cfg.depth_geom_p, n_posts), cfg.max_cascade_depth)
    lay = g.layer(REBLOG)
    # in-neighbours by dst; the layer ascends by src within each dst
    indptr = _indptr(lay.dst, n)
    indices = lay.src[np.argsort(lay.dst, kind="stable")]
    # every post's tree as ascending keys, and the holders of its last wave
    frontier = np.arange(n_posts) * n + np.repeat(producers, cfg.posts_per_producer)
    tree = frontier
    keys: list[np.ndarray] = []
    sources: list[np.ndarray] = []
    for depth in range(1, cfg.max_cascade_depth + 1):
        frontier = frontier[limit[frontier // n] >= depth]
        frontier, source = _wave(frontier, n, indptr, indices, tree, cfg.cascade_join_prob, rng)
        if not frontier.size:
            break
        keys.append(frontier)
        sources.append(source)
        # a stable sort merges the two ascending runs
        tree = np.sort(np.concatenate((tree, frontier)), kind="stable")
    return keys, sources


def _among(keys: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Which of `keys` the ascending array `table` holds."""
    if not len(table):
        return np.zeros(len(keys), dtype=bool)
    return table[np.minimum(np.searchsorted(table, keys), len(table) - 1)] == keys


def _wave(frontier: np.ndarray, n: int, indptr: np.ndarray, indices: np.ndarray,
          tree: np.ndarray, join: float, rng) -> tuple[np.ndarray, np.ndarray]:
    """One wave of synth_events from the holders' keys `frontier`, grouped
    by post and in holder order within it, given every post's tree before
    the wave as ascending keys: the keys that joined, in pair order, and
    their sources (int32).

    The holders are taken in slices with at most _PAIRS pairs between them
    (or one holder). A post's holders are adjacent, so only the post a
    slice starts in can have keys that joined in an earlier slice; those
    are carried over and left out."""
    holder = frontier % n
    post = frontier - holder
    deg = indptr[holder + 1] - indptr[holder]
    ends = np.cumsum(deg)
    starts = ends - deg
    # a pair's in-neighbour sits at its index in the wave plus its holder's shift
    shift = indptr[holder] - starts
    bound = int(post[-1]) + n if len(post) else 1
    carry = np.empty(0, np.int64)
    keys, sources = [carry], [np.empty(0, np.int32)]
    lo = 0
    while lo < len(frontier):
        hi = max(int(np.searchsorted(ends, starts[lo] + _PAIRS, side="right")), lo + 1)
        at = np.repeat(np.arange(lo, hi), deg[lo:hi])
        key = post[at] + indices[np.arange(starts[lo], ends[hi - 1]) + shift[at]]
        # the trees of the slice's posts, which are adjacent in `tree`
        window = tree[np.searchsorted(tree, post[lo]):np.searchsorted(tree, post[hi - 1] + n)]
        fresh = np.flatnonzero(~_among(key, window))
        hit = fresh[rng.random(len(fresh)) < join]
        key, at = key[hit], at[hit]
        # each key's first success, in pair order
        ordered, order = _sorted_order(key, bound)
        first = np.sort(order[np.diff(ordered, prepend=-1) != 0])
        first = first[~_among(key[first], carry)]
        keys.append(key[first])
        sources.append(holder[at[first]].astype(np.int32))
        # the joined keys of the post the next slice starts in
        carry = np.sort(np.concatenate((carry, keys[-1])))
        carry = carry[np.searchsorted(carry, post[hi - 1]):]
        lo = hi
    return np.concatenate(keys), np.concatenate(sources)


_WAVE_WORDS = ("alpha", "bravo", "charlie", "delta")
_DIGIT_WORDS = ("zero", "one", "two", "three", "four",
                "five", "six", "seven", "eight", "nine")
BLOGS_PER_WAVE = 10


@dataclass(frozen=True)
class ClosureFixture:
    """Query log whose keyword/blog closure under expansion is known exactly."""
    log_lines: tuple[str, ...]
    seed_phrases: tuple[str, ...]
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
        expected_keywords=expected_keywords,
        expected_blogs=expected_blogs,
        expected_keyword_trace=(3, 6, 9, 12, 13),
        expected_blog_trace=(10, 20, 30, 40, 40),
        deviant_blogs_by_wave=waves,
    )


def synth_demographics(cfg: SynthConfig, roles: dict[str, str]) -> Demographics:
    """Seeded ages and genders: producers skew older and male, the rest
    younger and balanced; coverage per demo_coverage. Coverage, then the
    covered nodes' ages, then their genders are drawn as arrays over the
    nodes in id order."""
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(60)[50])
    nodes = sorted(roles)
    covered = rng.random(len(nodes)) <= cfg.demo_coverage
    nodes = list(compress(nodes, covered.tolist()))
    producers = producer_nodes(roles)
    producer = np.fromiter((node in producers for node in nodes), dtype=bool, count=len(nodes))
    ages = np.clip(np.round(rng.normal(np.where(producer, 38, 27), np.where(producer, 8, 9))),
                   np.where(producer, 18, 13), 69).astype(np.int64)
    male = rng.random(len(nodes)) < np.where(producer, 0.82, 0.5)
    # codes into GENDERS: male 0, female 1, unknown 2
    gender = np.where(rng.random(len(nodes)) < 0.05, 2, np.where(male, 0, 1))
    return Demographics(nodes, ages, gender)


MALE_ENGAGEMENT_RATES = {13: 0.05, 18: 0.10, 23: 0.20, 28: 0.30, 33: 0.50,
                         38: 0.80, 43: 0.90, 48: 0.80, 53: 0.50, 58: 0.30,
                         63: 0.20, 68: 0.10}
FEMALE_ENGAGEMENT_RATES = {13: 0.30, 18: 0.80, 23: 0.90, 28: 0.50, 33: 0.30,
                           38: 0.20, 43: 0.15, 48: 0.10, 53: 0.08, 58: 0.05,
                           63: 0.03, 68: 0.02}


def engagement_fixture(per_cell: int = 40) -> tuple[np.ndarray, Demographics]:
    """Noise-free engagement planting: exactly round(rate * per_cell) active
    consumers per (gender, band) cell, so the planted rate tables
    MALE_ENGAGEMENT_RATES and FEMALE_ENGAGEMENT_RATES are the oracle for the
    normalized curves (male peak 38-52, female peak 23-27). The class codes
    are over the table's rows."""
    ids, rows = [], []
    for code, rates in enumerate((MALE_ENGAGEMENT_RATES, FEMALE_ENGAGEMENT_RATES)):
        for lo, rate in rates.items():
            for j in range(per_cell):
                ids.append(f"{GENDERS[code]}_{lo}_{j:03d}")
                rows.append((lo + j % 5, code, j < round(rate * per_cell)))
    age, gender, active = np.array(rows, dtype=np.int64).reshape(-1, 3).T
    classes = np.where(active, _RANK[ConsumerClass.ACTIVE_DIRECT], _RANK[ConsumerClass.PASSIVE])
    return classes, Demographics(ids, age, gender)


# the zipf exponent of paradox_fixture's out-degrees and attractiveness
_PARADOX_EXPONENT = 2.5


def paradox_fixture(n: int = 10_000, seed: int = 0) -> tuple[LayeredGraph, np.ndarray]:
    """Heavy-tailed reblog graph for the friendship-paradox direction check.

    Out-degrees follow a zipf(_PARADOX_EXPONENT) law; targets are sampled
    with probability proportional to an independent zipf attractiveness, so
    a random out-neighbor is size-biased toward heavy rebloggers. Counts are
    each node's total reblog degree (activity in the window), by node code.

    Each node's targets are distinct draws from p (successive sampling):
    every node's targets are drawn with replacement in one call, and only
    the repeats within a node are redrawn, until none is left.
    """
    rng = np.random.default_rng(seed)
    out_deg = np.minimum(rng.zipf(_PARADOX_EXPONENT, size=n), n // 10)
    attractiveness = np.minimum(rng.zipf(_PARADOX_EXPONENT, size=n), 10_000).astype(np.float64)
    p = attractiveness / attractiveness.sum()
    source = np.repeat(np.arange(n), out_deg)
    target = rng.choice(n, size=len(source), p=p)
    while True:
        repeat = np.ones(len(source), dtype=bool)
        repeat[np.unique(source * n + target, return_index=True)[1]] = False
        if not repeat.any():
            break
        target[repeat] = rng.choice(n, size=int(repeat.sum()), p=p)
    keep = source != target
    g = build_graph((f"n{u}", f"n{v}", 1.0, REBLOG)
                    for u, v in zip(source[keep].tolist(), target[keep].tolist()))
    return g, g.out_degrees(REBLOG) + g.in_degrees(REBLOG)
