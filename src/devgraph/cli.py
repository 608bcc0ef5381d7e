"""Command-line front end: one subcommand per pipeline stage plus an
end-to-end `pipeline` run that aggregates every stage into report.json.
Both call the same stage functions; a subcommand reads the stage's inputs
from files, `pipeline` passes the fixture it synthesized.

Options may come from a flat key=value config file (--config); explicit
flags win. Exit codes: 0 success, 1 data/runtime error, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections import Counter
from dataclasses import asdict, fields, replace
from itertools import compress
from pathlib import Path

import numpy as np

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
    _check_samples,
    _check_swaps_per_edge,
    group_matrix,
    write_group_matrix_csv,
)
from .demographics import (
    ACTIVE_CLASSES,
    age_histogram,
    class_demographics,
    engagement_by_age,
    read_demographics_csv,
    write_age_histogram_csv,
    write_class_demographics_csv,
    write_demographics_csv,
    write_engagement_csv,
)
from .diffusion import (
    _RANK,
    build_trees,
    bridge_nodes,
    class_mask,
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
    LayeredGraph,
    id_codes,
    id_mask,
    id_values,
    load_graph,
    network_stats,
    read_labels_csv,
    write_edge_tsv,
    write_labels_csv,
)
from .ingest import _csv_rows, _key_values, _write_lines, read_phrases, read_query_log, write_phrases
from .intervention import (
    BY_DEGREE,
    BY_VOLUME,
    DEFAULT_SIZES,
    _check_sizes,
    _curve,
    _death_rank,
    _threshold,
    adaptive_greedy_ranking,
    rank_by_degree,
    rank_by_volume,
    write_shrinkage_csv,
)
from .perception import (
    _check_step,
    perception_curve,
    volume_paradox_fraction,
    write_curves_csv,
)
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

def _cast(text: str, kind):
    if kind is bool:
        if text.lower() in ("1", "true", "yes", "on"):
            return True
        if text.lower() in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"not a boolean: {text!r}")
    return kind(text)


def _given(args, config: dict[str, str], **kinds) -> dict:
    """The options set by flag or else by config file entry, each config
    value cast to its kind; the others are left out, so the library
    functions' defaults apply."""
    out = {}
    for name, kind in kinds.items():
        if getattr(args, name, None) is not None:
            out[name] = getattr(args, name)
        elif name in config:
            out[name] = _cast(config[name], kind)
    return out


def _config_of(args) -> dict[str, str]:
    return _key_values(args.config) if getattr(args, "config", None) else {}


# -- reading, with what was skipped named on stderr ---------------------

_SKIP_REASONS = ("malformed_lines", "non_platform_urls", "undecodable_lines", "malformed_edges",
                 "self_loops_dropped", "malformed_events", "cyclic_posts", "multi_origin_posts",
                 "malformed_demographics", "age_out_of_range", "malformed_labels",
                 "malformed_rows", "byte_order_mark")


def _report_skipped(command: str, diagnostics: Counter, path: str) -> None:
    """Name on stderr the lines and rows a reader dropped from `path`, or
    the posts build_trees skipped from its events, leaving stdout as is."""
    for reason in _SKIP_REASONS:
        if diagnostics[reason]:
            print(f"{command}: skipped {reason}={diagnostics[reason]} in {Path(path).name}",
                  file=sys.stderr)


def _read(command: str, reader, path: str):
    """reader(path), reporting on stderr what it skipped."""
    diagnostics: Counter = Counter()
    result = reader(path, diagnostics=diagnostics)
    _report_skipped(command, diagnostics, path)
    return result


def _with_nodes(g: LayeredGraph, nodes: dict) -> LayeredGraph:
    """g with the keys of `nodes` that it lacks appended in sorted order,
    without edges."""
    extra = sorted(compress(nodes, (id_codes(g.node_ids, nodes) < 0).tolist()))
    if not extra:
        return g
    return LayeredGraph(g.node_ids + tuple(extra), {name: g.layer(name) for name in LAYERS})


def _read_node_set(path: str, diagnostics: Counter) -> set[str]:
    return set(read_phrases(path, diagnostics))


def _read_counts_csv(path: str, diagnostics: Counter) -> dict[str, int]:
    """node,count rows; a row with a count that is not an integer is
    skipped and counted as malformed_rows."""
    return dict(_csv_rows(path, "node,count", "malformed_rows",
                          lambda node, value: (node, int(value)), diagnostics))


def _role_masks(g: LayeredGraph, roles: dict[str, str]) -> tuple[np.ndarray, np.ndarray]:
    """The masks of the producers and of the bridges over g's nodes."""
    return id_mask(g.node_ids, producer_nodes(roles)), id_mask(g.node_ids, bridge_nodes(roles))


def _require_roles(args) -> None:
    """The usage error of a command given no source of roles, raised, like
    every usage error, before the command reads any input."""
    if not (args.labels or (args.partition and args.role_map)):
        raise UsageError("provide --labels, or both --partition and --role-map")


def _resolve_roles(command: str, args) -> dict[str, str]:
    """Operator community->role mapping wins over planted/ingested labels
    (see `_require_roles`)."""
    if args.partition and args.role_map:
        return roles_from_partition(_read(command, read_partition_csv, args.partition),
                                    _read(command, read_role_map_csv, args.role_map))
    return _read(command, read_labels_csv, args.labels)


def _sizes(args, config: dict[str, str]) -> tuple[int, ...]:
    text = _given(args, config, sizes=str).get("sizes")
    if not text:
        return DEFAULT_SIZES
    try:
        sizes = tuple(int(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError:
        sizes = ()
    if not sizes:
        raise ValueError(f"--sizes must be comma-separated integers, got {text!r}")
    return sizes


def _json_dump(obj, path: Path) -> None:
    _write_lines(path, [json.dumps(obj, indent=2, sort_keys=True) + "\n"])


def _outdir(path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


# -- stages -------------------------------------------------------------
# Each computes from in-memory inputs and writes its outputs; the
# subcommands read their inputs from files and `pipeline` passes the
# synthesized fixture.

def _extract(log, seeds, out, **params):
    result = extract_deviant_graph(seeds, log, **params)
    out = _outdir(out)
    write_phrases(result.state.keywords, str(out / "keywords.txt"))
    write_phrases(result.state.blogs, str(out / "blogs.txt"))
    write_trajectory_csv(result.trajectory, str(out / "trajectory.csv"))
    return result


def _trees(command: str, roles, events_path: str, events=None):
    """Reblog trees of `events`, read from the events file when not given;
    what the reader and build_trees skipped is counted in the returned
    Counter and reported on stderr against the file."""
    diagnostics: Counter = Counter()
    if events is None:
        events = read_events_tsv(events_path, diagnostics=diagnostics)
    trees = build_trees(events, id_mask(events.ids, producer_nodes(roles)), diagnostics=diagnostics)
    _report_skipped(command, diagnostics, events_path)
    return trees, diagnostics


def _diffusion(g, trees, at, producers, bridges, diagnostics: Counter, out):
    """Consumer classes and the reach report, into classes.csv and
    reach.json; `at` is the graph code of each forest node."""
    classes = classify_nodes(g, trees, at, producers, bridges)
    out = _outdir(out)
    write_classes_csv(g.node_ids, classes, str(out / "classes.csv"))
    report = reach_report(classes, trees, at)
    _json_dump({**asdict(report),
                "trees": len(trees),
                "diagnostics": dict(sorted(diagnostics.items()))},
               out / "reach.json")
    return classes, report


def _intervention(rankings, sizes, out_csv: str):
    """One shrinkage curve per (ranking, its death ranks, strategy label),
    into one CSV."""
    curves = [_curve(death, len(ranking), sizes, label) for ranking, death, label in rankings]
    write_shrinkage_csv(curves, out_csv)
    return curves


def _demographics(classes, age, gender, out):
    """Class statistics, age histogram and engagement curves, each into its
    CSV, from class codes, ages and gender codes over one numbering. The
    engagement curves can fail; they come back in `_try` form and
    engagement.csv is written only when they exist."""
    out = _outdir(out)
    stats = class_demographics(classes, age, gender)
    write_class_demographics_csv(stats, str(out / "class_demographics.csv"))
    write_age_histogram_csv(age_histogram(classes, age), str(out / "age_histogram.csv"))
    engagement = _try(lambda: engagement_by_age(classes, age, gender))
    if engagement["value"] is not None:
        write_engagement_csv(engagement["value"], str(out / "engagement.csv"))
    return stats, engagement


def _try(fn):
    try:
        return {"value": fn(), "error": None}
    except ValueError as exc:
        return {"value": None, "error": str(exc)}


def _fields(obj, *drop: str) -> dict:
    """A dataclass's fields for report.json, without those in `drop`."""
    return {k: v for k, v in asdict(obj).items() if k not in drop}


# -- subcommands --------------------------------------------------------

def _write_fixture(cfg: SynthConfig, out: Path):
    g, roles = planted_graph(cfg)
    fx = closure_fixture(cfg)
    events = synth_events(cfg, g, roles)
    demo = synth_demographics(cfg, roles)
    write_edge_tsv(g, str(out / "edges.tsv"))
    write_labels_csv(roles, str(out / "labels.csv"))
    _write_lines(out / "log.tsv", ["\n".join(fx.log_lines) + "\n"])
    write_phrases(fx.seed_phrases, str(out / "seeds.txt"))
    write_events_tsv(events, str(out / "events.tsv"))
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
    out = _outdir(args.out)
    g, _roles, fx, events, demo = _write_fixture(cfg, out)
    print(f"synth: {g.n_nodes} nodes, {g.n_edges(FOLLOW)} follow edges, "
          f"{g.n_edges(REBLOG)} reblog edges, {len(fx.log_lines)} log rows, "
          f"{len(events)} events, {len(demo)} demographic rows -> {out}")
    return 0


def cmd_extract(args) -> int:
    config = _config_of(args)
    log = _read("extract", read_query_log, args.log)
    seeds = _read("extract", read_phrases, args.seeds)
    result = _extract(log, seeds, args.out, **_given(
        args, config, max_iter=int, eps=float, decile=float, min_unique=int,
        min_clicks=int, ratio_mode=str))
    print(f"extract: converged={result.converged} iterations={result.iterations_run} "
          f"keywords={len(result.state.keywords)} blogs={len(result.state.blogs)}")
    return 0


def cmd_stats(args) -> int:
    config = _config_of(args)
    diagnostics: Counter = Counter()
    g = load_graph(args.edges, diagnostics)
    _report_skipped("stats", diagnostics, args.edges)
    layer = args.layer
    if g.n_nodes == 0 or g.n_edges(layer) == 0:
        raise ValueError("empty graph")
    st = network_stats(g, layer, seed=args.seed,
                       **_given(args, config, exact_paths=bool, path_samples=int))
    payload = {"layer": layer, **asdict(st),
               "diagnostics": dict(sorted(diagnostics.items()))}
    _json_dump(payload, Path(args.out))
    print(f"stats[{layer}]: n={st.n} e={st.e} <k>={st.avg_degree:.4g} "
          f"spl={st.avg_shortest_path:.4g} exact={st.paths_exact}")
    return 0


def cmd_communities(args) -> int:
    config = _config_of(args)
    g = _read("communities", load_graph, args.edges)
    part = louvain(g, args.layer, seed=args.seed, **_given(args, config, tol=float))
    write_partition_csv(part, args.out)
    n_comm = np.count_nonzero(np.bincount(part.membership))
    print(f"communities: {n_comm} communities, modularity={part.modularity:.6f}")
    return 0


_MODES = {"avg_volume": AVG_VOLUME, "density": DENSITY, "null_ratio": NULL_RATIO}


def cmd_connectivity(args) -> int:
    mode = _MODES[args.mode]
    if mode == NULL_RATIO and args.seed is None:
        raise UsageError("--seed is required for null_ratio")
    _require_roles(args)
    config = _config_of(args)
    g = _read("connectivity", load_graph, args.edges)
    roles = _resolve_roles("connectivity", args)
    # every labelled node counts in its group's size, with or without an edge
    g = _with_nodes(g, roles)
    mat = group_matrix(g, args.layer, roles, mode=mode, seed=args.seed,
                       **_given(args, config, samples=int, swaps_per_edge=int))
    write_group_matrix_csv(mat, args.out)
    if args.json_out:
        _json_dump(mat.as_dict(), Path(args.json_out))
    print(f"connectivity[{args.mode}]: groups={','.join(mat.groups)}"
          + (f" flags={len(mat.flags)}" if mat.flags else ""))
    return 0


def cmd_diffusion(args) -> int:
    _require_roles(args)
    g = _read("diffusion", load_graph, args.edges)
    roles = _resolve_roles("diffusion", args)
    # every labelled node gets a class, with or without an edge
    g = _with_nodes(g, roles)
    trees, diagnostics = _trees("diffusion", roles, args.events)
    _classes, report = _diffusion(g, trees, id_codes(g.node_ids, trees.ids),
                                  *_role_masks(g, roles), diagnostics, args.out)
    if args.efficiency_set:
        members = _read("diffusion", _read_node_set, args.efficiency_set)
        eta = spread_efficiency(id_mask(trees.ids, members), len(members), trees,
                                inverse=bool(args.inverse))
        print(f"diffusion: trees={len(trees)} efficiency={eta:.6g}")
    else:
        print(f"diffusion: trees={len(trees)} "
              f"amplification={report.amplification}")
    return 0


def cmd_perception(args) -> int:
    config = _config_of(args)
    g = _read("perception", load_graph, args.edges)
    active = id_mask(g.node_ids, _read("perception", _read_node_set, args.active))
    exclude = (id_mask(g.node_ids, _read("perception", _read_node_set, args.exclude))
               if args.exclude else None)
    curve = perception_curve(g, args.layer, active, exclude=exclude,
                             **_given(args, config, step=float))
    write_curves_csv([curve], args.out)
    line = (f"perception[{args.layer}]: eligible={curve.eligible} "
            f"excluded_zero_outdegree={curve.excluded_zero_outdegree}")
    if args.counts:
        table = _read("perception", _read_counts_csv, args.counts)
        frac = volume_paradox_fraction(g, args.layer, id_values(g.node_ids, table, 0.0),
                                       id_mask(g.node_ids, table), exclude=exclude)
        line += f" paradox_fraction={frac:.6f}"
    print(line)
    return 0


def cmd_intervene(args) -> int:
    if args.strategy == "degree" and not args.edges:
        raise UsageError("--edges is required for the degree strategy")
    _require_roles(args)
    config = _config_of(args)
    roles = _resolve_roles("intervene", args)
    sizes = _sizes(args, config)
    trees, _diagnostics = _trees("intervene", roles, args.events)
    if args.strategy == "degree":
        g = _read("intervene", load_graph, args.edges)
        ranking, label = id_codes(trees.ids, g.node_ids)[rank_by_degree(g)], BY_DEGREE
    elif args.strategy == "greedy":
        ranking, label = adaptive_greedy_ranking(trees, max(sizes)), "Greedy"
    else:
        ranking, label = rank_by_volume(trees), BY_VOLUME
    death = _death_rank(trees, ranking)
    note = ""
    # the threshold can fail, so it comes before any output is written
    if args.ages:
        ages = _read("intervene", read_demographics_csv, args.ages).over(trees.ids)[0]
        try:
            thr = _threshold(death, ages, **_given(args, config, cutoff=int))
        except ValueError as exc:
            if args.strategy != "greedy":
                raise
            raise ValueError(f"{exc}; the greedy ranking has only {len(ranking)} "
                             f"nodes (the largest --sizes value is {max(sizes)})") from None
        note = f" underage_threshold={thr.k}" + (f" ({thr.note})" if thr.note else "")
    [curve] = _intervention([(ranking, death, label)], sizes, args.out)
    print(f"intervene[{label}]: reached={','.join(f'{x:.4f}' for x in curve.reached_fraction)}"
          + note)
    return 0


def cmd_demographics(args) -> int:
    classes = _read("demographics", read_classes_csv, args.classes)
    demo = _read("demographics", read_demographics_csv, args.demo)
    codes = np.array([_RANK[cls] for cls in classes.values()], dtype=np.int64)  # by row
    stats, engagement = _demographics(codes, *demo.over(classes), args.out)
    if engagement["error"]:
        raise ValueError(engagement["error"])
    print(f"demographics: classes={len(stats)} covered="
          f"{sum(s.covered for s in stats.values())} -> {Path(args.out)}")
    return 0


# -- pipeline -----------------------------------------------------------

def cmd_pipeline(args) -> int:
    """Synthesize a fixture, then run every stage on it with the same stage
    functions as the subcommands, and gather the results in report.json.
    --config holds the fixture's settings only; the run's options are flags,
    checked before anything is written."""
    cfg = _synth_config(args)
    samples = 5 if args.samples is None else args.samples
    swaps = 10 if args.swaps_per_edge is None else args.swaps_per_edge
    step = 0.05 if args.step is None else args.step
    sizes = _sizes(args, {})
    _check_samples(samples)
    _check_swaps_per_edge(swaps)
    _check_step(step)
    _check_sizes(sizes)
    out = _outdir(args.out)
    g, roles, fx, events, demo = _write_fixture(cfg, out)

    log = _read("pipeline", read_query_log, str(out / "log.tsv"))
    extraction = _extract(log, _read("pipeline", read_phrases, str(out / "seeds.txt")), out)

    stats = {layer: asdict(network_stats(g, layer, seed=cfg.seed))
             for layer in LAYERS if g.n_edges(layer) > 0}

    part = louvain(g, FOLLOW, seed=cfg.seed)
    write_partition_csv(part, str(out / "partition.csv"))
    comm_sizes = sorted(np.bincount(part.membership).tolist(), reverse=True)

    connectivity = {}
    for name, mode in _MODES.items():
        mat = group_matrix(g, REBLOG, roles, mode=mode,
                           samples=samples, seed=cfg.seed, swaps_per_edge=swaps)
        write_group_matrix_csv(mat, str(out / f"matrix_{name}.csv"))
        connectivity[name] = mat.as_dict()

    trees, diagnostics = _trees("pipeline", roles, "events.tsv", events)
    # the forest holds all the later stages read of the event log
    n_events = len(events)
    del events
    producers, bridges = _role_masks(g, roles)
    at = id_codes(g.node_ids, trees.ids)
    classes, reach = _diffusion(g, trees, at, producers, bridges, diagnostics, out)
    efficiency = {name: _try(lambda: spread_efficiency(
        members[at] & (at >= 0), int(members.sum()), trees, inverse=name == "producers"))
        for name, members in (("producers", producers), ("bridges", bridges))}

    active = producers | class_mask(classes, ACTIVE_CLASSES)
    degree = g.out_degrees(REBLOG) + g.in_degrees(REBLOG)
    curve = perception_curve(g, FOLLOW, active, exclude=producers, step=step)
    write_curves_csv([curve], str(out / "perception.csv"))
    paradox = _try(lambda: volume_paradox_fraction(g, FOLLOW, degree, active & (degree > 0),
                                                   exclude=producers))

    by_volume = rank_by_volume(trees)
    by_degree = id_codes(trees.ids, g.node_ids)[rank_by_degree(g)]
    rankings = {"by_volume": (by_volume, _death_rank(trees, by_volume), BY_VOLUME),
                "by_degree": (by_degree, _death_rank(trees, by_degree), BY_DEGREE)}
    curves = _intervention(rankings.values(), sizes, str(out / "shrinkage.csv"))
    shrinkage = {key: _fields(sc, "strategy") for key, sc in zip(rankings, curves)}
    ages = demo.over(trees.ids)[0]
    underage = _try(lambda: asdict(_threshold(rankings["by_volume"][1], ages)))

    demo_stats, engagement = _demographics(classes, *demo.over(g.node_ids), out)
    if engagement["value"] is not None:
        engagement["value"] = {gender: _fields(c, "gender")
                               for gender, c in engagement["value"].items()}

    report = {
        "schema_version": SCHEMA_VERSION,
        "seed": cfg.seed,
        "config": {f.name: getattr(cfg, f.name) for f in fields(SynthConfig)},
        "fixture": {"nodes": g.n_nodes,
                    "edges": {layer: g.n_edges(layer) for layer in LAYERS},
                    "log_rows": len(fx.log_lines),
                    "events": n_events,
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
        "diffusion": {"trees": len(trees), "reach": asdict(reach),
                      "efficiency": efficiency},
        "perception": {**_fields(curve, "layer"), "paradox_fraction": paradox},
        "intervention": {**shrinkage, "underage": underage},
        "demographics": {
            "classes": {name: {"class": name, **_fields(s, "class_name")}
                        for name, s in demo_stats.items()},
            "engagement": engagement},
    }
    _json_dump(report, out / "report.json")
    print(f"pipeline: report written to {out / 'report.json'}")
    return 0


# -- parser -------------------------------------------------------------

def _add_common(sp, *, seed_required=False):
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built on the first call and kept: building
    it takes about 2 ms, a tenth of a small command."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # the command as the module binds it now, which is not the one the
        # kept parser holds if the module's function was replaced since
        return globals()[args.func.__name__](args)
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
