"""Command-line front end: one subcommand per pipeline stage plus an
end-to-end `pipeline` run that aggregates every stage into report.json.

Options may come from a flat key=value config file (--config); explicit
flags win. Exit codes: 0 success, 1 data/runtime error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

from . import __version__
from .community import (
    louvain,
    read_partition_csv,
    read_role_map_csv,
    roles_from_partition,
    write_partition_csv,
)
from .connectivity import (
    AVG_VOLUME,
    DENSITY,
    NULL_RATIO,
    group_matrix,
    write_group_matrix_csv,
    write_group_matrix_json,
)
from .demographics import (
    age_histogram,
    class_demographics,
    engagement_by_age,
    read_demographics_csv,
    write_age_histogram_csv,
    write_class_demographics_csv,
    write_engagement_csv,
)
from .demographics import DEFAULT_BANDS
from .diffusion import (
    ConsumerClass,
    build_trees,
    bridge_nodes,
    classify_nodes,
    producer_nodes,
    reach_report,
    read_classes_csv,
    read_events_tsv,
    spread_efficiency,
    write_classes_csv,
    write_events_tsv,
)
from .expansion import extract_deviant_graph, write_trajectory_csv
from .graph import (
    FOLLOW,
    LAYERS,
    REBLOG,
    load_graph,
    network_stats,
    read_labels_csv,
    write_edge_tsv,
    write_labels_csv,
)
from .ingest import read_phrases, read_query_log, write_phrases
from .intervention import (
    BY_DEGREE,
    BY_VOLUME,
    DEFAULT_SIZES,
    adaptive_greedy_ranking,
    rank_by_degree,
    rank_by_volume,
    shrinkage_curve,
    underage_exposure_threshold,
    write_shrinkage_csv,
)
from .perception import perception_curve, volume_paradox_fraction, write_curves_csv
from .synth import (
    SynthConfig,
    closure_fixture,
    planted_graph,
    read_config,
    synth_demographics,
    synth_events,
    write_config,
)

SCHEMA_VERSION = 1


class UsageError(Exception):
    pass


# -- option plumbing ----------------------------------------------------

def _kv_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"bad config line: {line!r}")
            out[key.strip()] = value.strip()
    return out


def _cast(text: str, kind):
    if kind is bool:
        if text.lower() in ("1", "true", "yes", "on"):
            return True
        if text.lower() in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"not a boolean: {text!r}")
    return kind(text)


def _opt(args, config: dict[str, str], name: str, kind, default):
    """Explicit flag > config file entry > built-in default."""
    given = getattr(args, name, None)
    if given is not None:
        return given
    if name in config:
        return _cast(config[name], kind)
    return default


def _config_of(args) -> dict[str, str]:
    return _kv_file(args.config) if getattr(args, "config", None) else {}


def _read_node_set(path: str) -> set[str]:
    with open(path, encoding="utf-8") as fh:
        return {line.strip() for line in fh if line.strip()}


def _read_counts_csv(path: str) -> dict[str, int]:
    out: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for i, line in enumerate(fh):
            line = line.strip()
            if not line or (i == 0 and line == "node,count"):
                continue
            node, sep, value = line.partition(",")
            if not sep:
                raise ValueError(f"bad count row: {line!r}")
            out[node] = int(value)
    return out


def _json_dump(obj, path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _resolve_roles(args) -> dict[str, str]:
    """Operator community->role mapping wins over planted/ingested labels."""
    if getattr(args, "partition", None) and getattr(args, "role_map", None):
        return roles_from_partition(read_partition_csv(args.partition),
                                    read_role_map_csv(args.role_map))
    if getattr(args, "labels", None):
        return read_labels_csv(args.labels)
    raise UsageError("provide --labels, or both --partition and --role-map")


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# -- subcommands --------------------------------------------------------

def _write_fixture(cfg: SynthConfig, out: Path):
    g, roles = planted_graph(cfg)
    fx = closure_fixture(cfg)
    events = synth_events(cfg, g, roles)
    demo = synth_demographics(cfg, roles)
    write_edge_tsv(g, str(out / "edges.tsv"))
    write_labels_csv(roles, str(out / "labels.csv"))
    with open(out / "log.tsv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(fx.log_lines) + "\n")
    write_phrases(fx.seed_phrases, str(out / "seeds.txt"))
    write_phrases(fx.exact_phrases, str(out / "exact.txt"))
    write_phrases(fx.containment_phrases, str(out / "contain.txt"))
    write_events_tsv(events, str(out / "events.tsv"))
    from .demographics import write_demographics_csv
    write_demographics_csv(demo, str(out / "demographics.csv"))
    write_config(cfg, str(out / "synth.cfg"))
    return g, roles, fx, events, demo


def _synth_config(args) -> SynthConfig:
    cfg = read_config(args.config) if getattr(args, "config", None) else SynthConfig()
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def cmd_synth(args) -> int:
    cfg = _synth_config(args)
    out = _outdir(args)
    g, _roles, fx, events, demo = _write_fixture(cfg, out)
    print(f"synth: {g.n_nodes} nodes, {g.n_edges(FOLLOW)} follow edges, "
          f"{g.n_edges(REBLOG)} reblog edges, {len(fx.log_lines)} log rows, "
          f"{len(events)} events, {len(demo)} demographic rows -> {out}")
    return 0


def cmd_extract(args) -> int:
    config = _config_of(args)
    diagnostics: Counter = Counter()
    records = read_query_log(args.log, diagnostics=diagnostics)
    _report_skipped("extract", diagnostics)
    seeds = read_phrases(args.seeds)
    result = extract_deviant_graph(
        seeds, records,
        max_iter=_opt(args, config, "max_iter", int, 20),
        eps=_opt(args, config, "eps", float, 0.01),
        decile=_opt(args, config, "decile", float, 0.10),
        min_unique=_opt(args, config, "min_unique", int, 2),
        min_clicks=_opt(args, config, "min_clicks", int, 3),
        ratio_mode=_opt(args, config, "ratio_mode", str, "volume"))
    out = _outdir(args)
    write_phrases(result.state.keywords, str(out / "keywords.txt"))
    write_phrases(result.state.blogs, str(out / "blogs.txt"))
    write_trajectory_csv(result.trajectory, str(out / "trajectory.csv"))
    print(f"extract: converged={result.converged} iterations={result.iterations_run} "
          f"keywords={len(result.state.keywords)} blogs={len(result.state.blogs)}")
    return 0


def cmd_stats(args) -> int:
    config = _config_of(args)
    g = _load_graph("stats", args.edges)
    layer = args.layer
    if g.n_nodes == 0 or g.n_edges(layer) == 0:
        raise ValueError("empty graph")
    st = network_stats(
        g, layer,
        exact_paths=bool(_opt(args, config, "exact_paths", bool, False)),
        path_samples=_opt(args, config, "path_samples", int, 1000),
        seed=args.seed)
    payload = {"layer": layer, **st.as_dict(),
               "diagnostics": dict(sorted(g.diagnostics.items()))}
    _json_dump(payload, Path(args.out))
    print(f"stats[{layer}]: n={st.n} e={st.e} <k>={st.avg_degree:.4g} "
          f"spl={st.avg_shortest_path:.4g} exact={st.paths_exact}")
    return 0


def cmd_communities(args) -> int:
    config = _config_of(args)
    g = _load_graph("communities", args.edges)
    part = louvain(g, args.layer, seed=args.seed,
                   tol=_opt(args, config, "tol", float, 1e-7))
    write_partition_csv(part, args.out)
    n_comm = len(set(part.assignment.values()))
    print(f"communities: {n_comm} communities, modularity={part.modularity:.6f}")
    return 0


_MODES = {"avg_volume": AVG_VOLUME, "density": DENSITY, "null_ratio": NULL_RATIO}


def cmd_connectivity(args) -> int:
    config = _config_of(args)
    g = _load_graph("connectivity", args.edges)
    roles = _resolve_roles(args)
    mode = _MODES[args.mode]
    samples = _opt(args, config, "samples", int, 10)
    swaps = _opt(args, config, "swaps_per_edge", int, 10)
    if mode == NULL_RATIO and args.seed is None:
        raise UsageError("--seed is required for null_ratio")
    mat = group_matrix(g, args.layer, roles, mode=mode,
                       samples=samples, seed=args.seed, swaps_per_edge=swaps)
    write_group_matrix_csv(mat, args.out)
    if args.json_out:
        write_group_matrix_json(mat, args.json_out)
    print(f"connectivity[{args.mode}]: groups={','.join(mat.groups)}"
          + (f" flags={len(mat.flags)}" if mat.flags else ""))
    return 0


def _report_skipped(command: str, diagnostics: Counter) -> None:
    """Name on stderr the lines and rows a reader dropped (read_query_log,
    load_graph, read_events_tsv) and the posts build_trees skipped, leaving
    stdout as is."""
    for reason in ("malformed_lines", "non_platform_urls", "undecodable_lines", "malformed_edges",
                   "malformed_events", "cyclic_posts", "multi_origin_posts"):
        if diagnostics[reason]:
            print(f"{command}: skipped {reason}={diagnostics[reason]}", file=sys.stderr)


def _load_graph(command: str, path: str):
    """load_graph, reporting on stderr what it skipped."""
    g = load_graph(path)
    _report_skipped(command, g.diagnostics)
    return g


def cmd_diffusion(args) -> int:
    g = _load_graph("diffusion", args.edges)
    roles = _resolve_roles(args)
    diagnostics: Counter = Counter()
    events = read_events_tsv(args.events, diagnostics=diagnostics)
    trees = build_trees(events, producer_nodes(roles), diagnostics=diagnostics)
    _report_skipped("diffusion", diagnostics)
    classes = classify_nodes(g, trees, roles)
    out = _outdir(args)
    write_classes_csv(classes, str(out / "classes.csv"))
    report = reach_report(classes, trees)
    _json_dump({**report.as_dict(),
                "trees": len(trees),
                "diagnostics": dict(sorted(diagnostics.items()))},
               out / "reach.json")
    if args.efficiency_set:
        eta = spread_efficiency(_read_node_set(args.efficiency_set), trees,
                                inverse=bool(args.inverse))
        print(f"diffusion: trees={len(trees)} efficiency={eta:.6g}")
    else:
        print(f"diffusion: trees={len(trees)} "
              f"amplification={report.amplification}")
    return 0


def cmd_perception(args) -> int:
    config = _config_of(args)
    g = _load_graph("perception", args.edges)
    active = _read_node_set(args.active)
    exclude = _read_node_set(args.exclude) if args.exclude else None
    curve = perception_curve(g, args.layer, active, exclude=exclude,
                             step=_opt(args, config, "step", float, 0.01))
    write_curves_csv([curve], args.out)
    line = (f"perception[{args.layer}]: eligible={curve.eligible} "
            f"excluded_zero_outdegree={curve.excluded_zero_outdegree}")
    if args.counts:
        frac = volume_paradox_fraction(g, args.layer, _read_counts_csv(args.counts),
                                       exclude=exclude)
        line += f" paradox_fraction={frac:.6f}"
    print(line)
    return 0


def _parse_sizes(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok.strip() != "")


def cmd_intervene(args) -> int:
    config = _config_of(args)
    roles = _resolve_roles(args)
    diagnostics: Counter = Counter()
    events = read_events_tsv(args.events, diagnostics=diagnostics)
    trees = build_trees(events, producer_nodes(roles), diagnostics=diagnostics)
    _report_skipped("intervene", diagnostics)
    sizes_text = _opt(args, config, "sizes", str, None)
    sizes = _parse_sizes(sizes_text) if sizes_text else DEFAULT_SIZES
    if args.strategy == "degree":
        if not args.edges:
            raise UsageError("--edges is required for the degree strategy")
        ranking, label = rank_by_degree(_load_graph("intervene", args.edges)), BY_DEGREE
    elif args.strategy == "greedy":
        ranking, label = adaptive_greedy_ranking(trees, max(sizes)), "Greedy"
    else:
        ranking, label = rank_by_volume(trees), BY_VOLUME
    curve = shrinkage_curve(trees, ranking, sizes=sizes, strategy=label)
    line = f"intervene[{label}]: reached={','.join(f'{x:.4f}' for x in curve.reached_fraction)}"
    # the threshold can fail, so it comes before any output is written
    if args.ages:
        ages = {n: r.age for n, r in read_demographics_csv(args.ages).items()}
        try:
            thr = underage_exposure_threshold(trees, ranking, ages,
                                              cutoff=_opt(args, config, "cutoff", int, 18))
        except ValueError as exc:
            if args.strategy != "greedy":
                raise
            raise ValueError(f"{exc}; the greedy ranking has only {len(ranking)} "
                             f"nodes (the largest --sizes value is {max(sizes)})") from None
        line += f" underage_threshold={thr.k}"
        if thr.note:
            line += f" ({thr.note})"
    write_shrinkage_csv([curve], args.out)
    print(line)
    return 0


def cmd_demographics(args) -> int:
    classes = read_classes_csv(args.classes)
    diagnostics: Counter = Counter()
    demo = read_demographics_csv(args.demo, diagnostics=diagnostics)
    out = _outdir(args)
    stats = class_demographics(classes, demo)
    write_class_demographics_csv(stats, str(out / "class_demographics.csv"))
    hist = age_histogram(classes, demo)
    write_age_histogram_csv(hist, DEFAULT_BANDS, str(out / "age_histogram.csv"))
    curves = engagement_by_age(classes, demo)
    write_engagement_csv(curves, str(out / "engagement.csv"))
    print(f"demographics: classes={len(stats)} covered="
          f"{sum(s.covered for s in stats.values())} -> {out}")
    return 0


# -- pipeline -----------------------------------------------------------

def _try(fn):
    try:
        return {"value": fn(), "error": None}
    except ValueError as exc:
        return {"value": None, "error": str(exc)}


def cmd_pipeline(args) -> int:
    config = _config_of(args)
    cfg = _synth_config(args)
    out = _outdir(args)
    g, roles, fx, events, demo = _write_fixture(cfg, out)

    records = read_query_log(str(out / "log.tsv"))
    seeds = read_phrases(str(out / "seeds.txt"))
    extraction = extract_deviant_graph(seeds, records)
    write_phrases(extraction.state.keywords, str(out / "keywords.txt"))
    write_phrases(extraction.state.blogs, str(out / "blogs.txt"))
    write_trajectory_csv(extraction.trajectory, str(out / "trajectory.csv"))

    stats = {layer: network_stats(g, layer, seed=cfg.seed).as_dict()
             for layer in LAYERS if g.n_edges(layer) > 0}

    part = louvain(g, FOLLOW, seed=cfg.seed)
    write_partition_csv(part, str(out / "partition.csv"))
    comm_sizes = sorted(Counter(part.assignment.values()).values(), reverse=True)

    samples = _opt(args, config, "samples", int, 5)
    swaps = _opt(args, config, "swaps_per_edge", int, 10)
    connectivity = {}
    for name, mode in _MODES.items():
        mat = group_matrix(g, REBLOG, roles, mode=mode,
                           samples=samples, seed=cfg.seed, swaps_per_edge=swaps)
        write_group_matrix_csv(mat, str(out / f"matrix_{name}.csv"))
        connectivity[name] = mat.as_dict()

    producers = producer_nodes(roles)
    trees = build_trees(events, producers)
    classes = classify_nodes(g, trees, roles)
    write_classes_csv(classes, str(out / "classes.csv"))
    reach = reach_report(classes, trees)
    efficiency = {
        "producers": _try(lambda: spread_efficiency(producers, trees, inverse=True)),
        "bridges": _try(lambda: spread_efficiency(bridge_nodes(roles), trees)),
    }

    active = producers | {n for n, c in classes.items()
                          if c in (ConsumerClass.ACTIVE_DIRECT,
                                   ConsumerClass.ACTIVE_INDIRECT)}
    counts = {}
    for node in active:
        total = g.out_degree(REBLOG, node) + g.in_degree(REBLOG, node)
        if total > 0:
            counts[node] = total
    step = _opt(args, config, "step", float, 0.05)
    curve = perception_curve(g, FOLLOW, active, exclude=producers, step=step)
    write_curves_csv([curve], str(out / "perception.csv"))
    paradox = _try(lambda: volume_paradox_fraction(g, FOLLOW, counts,
                                                   exclude=producers))

    sizes_text = _opt(args, config, "sizes", str, None)
    sizes = _parse_sizes(sizes_text) if sizes_text else DEFAULT_SIZES
    rankings = {"by_volume": (rank_by_volume(trees), BY_VOLUME),
                "by_degree": (rank_by_degree(g), BY_DEGREE)}
    shrinkage = {}
    curves = []
    for key, (ranking, label) in rankings.items():
        sc = shrinkage_curve(trees, ranking, sizes=sizes, strategy=label)
        curves.append(sc)
        shrinkage[key] = {"sizes": list(sc.sizes),
                          "reached_fraction": list(sc.reached_fraction),
                          "warnings": list(sc.warnings)}
    write_shrinkage_csv(curves, str(out / "shrinkage.csv"))
    ages = {n: r.age for n, r in demo.items()}
    underage = _try(lambda: underage_exposure_threshold(
        trees, rankings["by_volume"][0], ages))
    if underage["value"] is not None:
        thr = underage["value"]
        underage = {"value": {"k": thr.k, "note": thr.note}, "error": None}

    demo_stats = class_demographics(classes, demo)
    write_class_demographics_csv(demo_stats, str(out / "class_demographics.csv"))
    engagement = _try(lambda: engagement_by_age(classes, demo))
    if engagement["value"] is not None:
        curves_by_gender = engagement["value"]
        write_engagement_csv(curves_by_gender, str(out / "engagement.csv"))
        engagement = {"value": {gender: {
            "bands": [list(b) for b in c.bands],
            "raw": list(c.raw), "normalized": list(c.normalized)}
            for gender, c in curves_by_gender.items()}, "error": None}

    report = {
        "schema_version": SCHEMA_VERSION,
        "seed": cfg.seed,
        "config": {f.name: getattr(cfg, f.name) for f in fields(SynthConfig)},
        "fixture": {"nodes": g.n_nodes,
                    "edges": {layer: g.n_edges(layer) for layer in LAYERS},
                    "log_rows": len(fx.log_lines),
                    "events": len(events),
                    "demographic_rows": len(demo)},
        "extraction": {
            "converged": extraction.converged,
            "iterations_run": extraction.iterations_run,
            "keywords": len(extraction.state.keywords),
            "blogs": len(extraction.state.blogs),
            "keyword_trace": [r.keywords for r in extraction.trajectory],
            "blog_trace": [r.blogs for r in extraction.trajectory],
            "final_keywords": sorted(extraction.state.keywords),
            "final_blogs": sorted(extraction.state.blogs)},
        "stats": stats,
        "communities": {"modularity": part.modularity,
                        "count": len(comm_sizes), "sizes": comm_sizes},
        "connectivity": connectivity,
        "diffusion": {"trees": len(trees), "reach": reach.as_dict(),
                      "efficiency": efficiency},
        "perception": {"thresholds": list(curve.thresholds),
                       "fraction_at_least": list(curve.fraction_at_least),
                       "eligible": curve.eligible,
                       "excluded_zero_outdegree": curve.excluded_zero_outdegree,
                       "paradox_fraction": paradox},
        "intervention": {**shrinkage, "underage": underage},
        "demographics": {
            "classes": {name: s.as_dict() for name, s in demo_stats.items()},
            "engagement": engagement},
    }
    _json_dump(report, out / "report.json")
    print(f"pipeline: report written to {out / 'report.json'}")
    return 0


# -- parser -------------------------------------------------------------

def _add_common(sp, *, seed_required=False, config=True):
    if config:
        sp.add_argument("--config", help="flat key=value option file")
    sp.add_argument("--seed", type=int, required=seed_required,
                    help="seed for randomized steps")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="devgraph",
        description="Extract and analyze a topic-focused subcommunity "
                    "from query logs and a layered social graph.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a seeded synthetic fixture")
    _add_common(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("extract", help="iterative keyword/blog expansion")
    p.add_argument("--config", help="flat key=value option file")
    p.add_argument("--log", required=True, help="query log TSV")
    p.add_argument("--seeds", required=True, help="seed phrases, one per line")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--max-iter", dest="max_iter", type=int)
    p.add_argument("--eps", type=float)
    p.add_argument("--decile", type=float)
    p.add_argument("--min-unique", dest="min_unique", type=int)
    p.add_argument("--min-clicks", dest="min_clicks", type=int)
    p.add_argument("--ratio-mode", dest="ratio_mode", choices=("volume", "unique"))
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("stats", help="structural statistics of one layer")
    _add_common(p)
    p.add_argument("--edges", required=True)
    p.add_argument("--layer", choices=tuple(LAYERS), default=FOLLOW)
    p.add_argument("--out", required=True, help="output JSON path")
    p.add_argument("--exact-paths", dest="exact_paths", action="store_true",
                   default=None)
    p.add_argument("--path-samples", dest="path_samples", type=int)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("communities", help="seeded modularity clustering")
    _add_common(p, seed_required=True)
    p.add_argument("--edges", required=True)
    p.add_argument("--layer", choices=tuple(LAYERS), default=FOLLOW)
    p.add_argument("--out", required=True, help="partition CSV path")
    p.add_argument("--tol", type=float)
    p.set_defaults(func=cmd_communities)

    p = sub.add_parser("connectivity", help="group-to-group edge matrices")
    _add_common(p)
    p.add_argument("--edges", required=True)
    p.add_argument("--layer", choices=tuple(LAYERS), default=REBLOG)
    p.add_argument("--labels", help="node,group CSV of roles")
    p.add_argument("--partition", help="node,community CSV")
    p.add_argument("--role-map", dest="role_map", help="community,role CSV")
    p.add_argument("--mode", choices=tuple(_MODES), default="density")
    p.add_argument("--samples", type=int)
    p.add_argument("--swaps-per-edge", dest="swaps_per_edge", type=int)
    p.add_argument("--out", required=True, help="matrix CSV path")
    p.add_argument("--json-out", dest="json_out")
    p.set_defaults(func=cmd_connectivity)

    p = sub.add_parser("diffusion", help="reblog trees and consumer classes")
    p.add_argument("--edges", required=True)
    p.add_argument("--events", required=True)
    p.add_argument("--labels")
    p.add_argument("--partition")
    p.add_argument("--role-map", dest="role_map")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--efficiency-set", dest="efficiency_set",
                   help="node ids, one per line")
    p.add_argument("--inverse", action="store_true")
    p.set_defaults(func=cmd_diffusion)

    p = sub.add_parser("perception", help="observed deviant-neighbor curves")
    p.add_argument("--config", help="flat key=value option file")
    p.add_argument("--edges", required=True)
    p.add_argument("--layer", choices=tuple(LAYERS), default=FOLLOW)
    p.add_argument("--active", required=True, help="deviant-active node ids")
    p.add_argument("--exclude", help="node ids to drop from the population")
    p.add_argument("--counts", help="node,count CSV for the volume paradox")
    p.add_argument("--step", type=float)
    p.add_argument("--out", required=True, help="curve CSV path")
    p.set_defaults(func=cmd_perception)

    p = sub.add_parser("intervene", help="targeted-removal shrinkage curves")
    p.add_argument("--config", help="flat key=value option file")
    p.add_argument("--events", required=True)
    p.add_argument("--edges", help="needed for the degree strategy")
    p.add_argument("--labels")
    p.add_argument("--partition")
    p.add_argument("--role-map", dest="role_map")
    p.add_argument("--strategy", choices=("volume", "degree", "greedy"),
                   default="volume")
    p.add_argument("--sizes", help="comma-separated removal sizes")
    p.add_argument("--ages", help="demographics CSV for the underage threshold")
    p.add_argument("--cutoff", type=int)
    p.add_argument("--out", required=True, help="shrinkage CSV path")
    p.set_defaults(func=cmd_intervene)

    p = sub.add_parser("demographics", help="per-class age/gender breakdowns")
    p.add_argument("--demo", required=True, help="node,age,gender CSV")
    p.add_argument("--classes", required=True, help="node,class CSV")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_demographics)

    p = sub.add_parser("pipeline", help="synthesize, run every stage, "
                                        "write report.json")
    _add_common(p, seed_required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--samples", type=int)
    p.add_argument("--swaps-per-edge", dest="swaps_per_edge", type=int)
    p.add_argument("--step", type=float)
    p.add_argument("--sizes", help="comma-separated removal sizes")
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        name = exc.filename or str(exc)
        print(f"error: missing input file: {name}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
