import json

import pytest

from devgraph.cli import main
from devgraph.diffusion import ConsumerClass, DiffusionForest, read_classes_csv
from devgraph.graph import read_labels_csv
from devgraph.ingest import read_phrases
from devgraph.synth import SynthConfig, write_config


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    """One small synthetic fixture shared by the stage tests (read-only)."""
    base = tmp_path_factory.mktemp("fixture")
    cfg = SynthConfig(seed=7, n_producer_one=12, n_producer_two=12,
                      n_bridge_one=10, n_bridge_two=10, n_outer=30,
                      posts_per_producer=1)
    write_config(cfg, str(base / "synth.cfg"))
    assert main(["synth", "--config", str(base / "synth.cfg"),
                 "--out", str(base / "fx")]) == 0
    return base / "fx"


def producers_of(fixture_dir):
    labels = read_labels_csv(str(fixture_dir / "labels.csv"))
    return sorted(n for n, r in labels.items() if r.startswith("producer"))


def test_no_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_stats_on_empty_edge_file(tmp_path, capsys):
    empty = tmp_path / "edges.tsv"
    empty.write_text("")
    rc = main(["stats", "--edges", str(empty), "--out", str(tmp_path / "s.json")])
    assert rc == 1
    assert "empty graph" in capsys.readouterr().err


def test_missing_input_names_path(tmp_path, capsys):
    rc = main(["stats", "--edges", str(tmp_path / "nope.tsv"),
               "--out", str(tmp_path / "s.json")])
    assert rc == 1
    assert "nope.tsv" in capsys.readouterr().err


def test_synth_outputs_and_determinism(tmp_path):
    cfg = tmp_path / "synth.cfg"
    write_config(SynthConfig(seed=3, n_producer_one=10, n_producer_two=10,
                             n_bridge_one=10, n_bridge_two=10, n_outer=12), str(cfg))
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
    for name in ("edges.tsv", "labels.csv", "log.tsv", "events.tsv",
                 "demographics.csv", "seeds.txt"):
        left = (tmp_path / "a" / name).read_bytes()
        right = (tmp_path / "b" / name).read_bytes()
        assert left == right, name


def test_synth_seed_flag_overrides_config(tmp_path):
    cfg = tmp_path / "synth.cfg"
    write_config(SynthConfig(seed=3, n_producer_one=10, n_producer_two=10,
                             n_bridge_one=10, n_bridge_two=10, n_outer=12), str(cfg))
    assert main(["synth", "--config", str(cfg), "--seed", "9",
                 "--out", str(tmp_path / "c")]) == 0
    assert "seed=9" in (tmp_path / "c" / "synth.cfg").read_text()


def test_extract_recovers_closure(fixture_dir, tmp_path, capsys):
    rc = main(["extract", "--log", str(fixture_dir / "log.tsv"),
               "--seeds", str(fixture_dir / "seeds.txt"),
               "--out", str(tmp_path / "ex")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "converged=True" in out and "keywords=13" in out and "blogs=40" in out
    keywords = read_phrases(str(tmp_path / "ex" / "keywords.txt"))
    assert len(keywords) == 13 and "unseen topic" in keywords
    trajectory = (tmp_path / "ex" / "trajectory.csv").read_text().splitlines()
    assert trajectory[0] == "iteration,keywords,blogs,queries"
    assert len(trajectory) == 6


def test_extract_config_file_and_flag_precedence(fixture_dir, tmp_path, capsys):
    cfg = tmp_path / "opts.cfg"
    cfg.write_text("max_iter=1\n")
    rc = main(["extract", "--config", str(cfg),
               "--log", str(fixture_dir / "log.tsv"),
               "--seeds", str(fixture_dir / "seeds.txt"),
               "--out", str(tmp_path / "e1")])
    assert rc == 0
    assert "iterations=1" in capsys.readouterr().out
    rc = main(["extract", "--config", str(cfg), "--max-iter", "20",
               "--log", str(fixture_dir / "log.tsv"),
               "--seeds", str(fixture_dir / "seeds.txt"),
               "--out", str(tmp_path / "e2")])
    assert rc == 0
    assert "iterations=5" in capsys.readouterr().out


def test_extract_skips_undecodable_line(fixture_dir, tmp_path, capsys):
    """A row with a byte that is not UTF-8 is skipped and counted; the
    outputs equal those of the log without that row."""
    clean = (fixture_dir / "log.tsv").read_bytes()
    lines = clean.splitlines(keepends=True)
    dirty = tmp_path / "log.tsv"
    dirty.write_bytes(b"".join(lines[:5]) + b"999\tbad \xff query\thttp://x.tumblr.com/\tUS\n"
                      + b"".join(lines[5:]))

    def run(log, out):
        rc = main(["extract", "--log", str(log), "--seeds", str(fixture_dir / "seeds.txt"),
                   "--out", str(out)])
        return rc, capsys.readouterr()

    rc_clean, clean_io = run(fixture_dir / "log.tsv", tmp_path / "clean")
    rc_dirty, dirty_io = run(dirty, tmp_path / "dirty")
    assert rc_clean == rc_dirty == 0
    assert dirty_io.out == clean_io.out
    assert clean_io.err == ""
    assert dirty_io.err.splitlines() == ["extract: skipped undecodable_lines=1 in log.tsv"]
    for name in ("keywords.txt", "blogs.txt", "trajectory.csv"):
        assert (tmp_path / "dirty" / name).read_bytes() == (tmp_path / "clean" / name).read_bytes()


def test_extract_skips_undecodable_seed_line(fixture_dir, tmp_path, capsys):
    """A seed phrase with a byte that is not UTF-8 is skipped and named on
    stderr, not a decoding error; the outputs equal those of the clean seeds."""
    dirty = tmp_path / "seeds.txt"
    dirty.write_bytes(b"bad \xff phrase\n" + (fixture_dir / "seeds.txt").read_bytes())

    def run(seeds, out):
        rc = main(["extract", "--log", str(fixture_dir / "log.tsv"), "--seeds", str(seeds),
                   "--out", str(out)])
        return rc, capsys.readouterr()

    rc_clean, clean_io = run(fixture_dir / "seeds.txt", tmp_path / "clean")
    rc_dirty, dirty_io = run(dirty, tmp_path / "dirty")
    assert rc_clean == rc_dirty == 0
    assert dirty_io.out == clean_io.out
    assert dirty_io.err.splitlines() == ["extract: skipped undecodable_lines=1 in seeds.txt"]
    for name in ("keywords.txt", "blogs.txt", "trajectory.csv"):
        assert (tmp_path / "dirty" / name).read_bytes() == (tmp_path / "clean" / name).read_bytes()


def test_extract_reports_dropped_log_lines(fixture_dir, tmp_path, capsys):
    bad = tmp_path / "log.tsv"
    bad.write_text((fixture_dir / "log.tsv").read_text()
                   + "only\ttwo\n"
                   + "-1\tq\thttp://x.tumblr.com/\tUS\n"
                   + "5\tq\thttp://example.com/\tUS\n")
    rc = main(["extract", "--log", str(bad), "--seeds", str(fixture_dir / "seeds.txt"),
               "--out", str(tmp_path / "ex")])
    assert rc == 0
    assert capsys.readouterr().err.splitlines() == [
        "extract: skipped malformed_lines=2 in log.tsv",
        "extract: skipped non_platform_urls=1 in log.tsv"]


def test_stats_happy_path(fixture_dir, tmp_path):
    out = tmp_path / "stats.json"
    rc = main(["stats", "--edges", str(fixture_dir / "edges.tsv"),
               "--layer", "F", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["layer"] == "F"
    assert payload["n"] > 0 and payload["paths_exact"] is True
    assert 0.0 <= payload["density"] <= 1.0


def test_communities_requires_seed(fixture_dir, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["communities", "--edges", str(fixture_dir / "edges.tsv"),
              "--out", str(tmp_path / "p.csv")])
    assert exc.value.code == 2


def test_communities_writes_partition(fixture_dir, tmp_path, capsys):
    out = tmp_path / "partition.csv"
    rc = main(["communities", "--edges", str(fixture_dir / "edges.tsv"),
               "--seed", "0", "--out", str(out)])
    assert rc == 0
    assert "modularity=" in capsys.readouterr().out
    rows = out.read_text().splitlines()
    assert rows[0] == "node,community"
    labels = read_labels_csv(str(fixture_dir / "labels.csv"))
    assert len(rows) - 1 == len(labels)


def test_connectivity_density_with_labels(fixture_dir, tmp_path):
    out = tmp_path / "matrix.csv"
    rc = main(["connectivity", "--edges", str(fixture_dir / "edges.tsv"),
               "--labels", str(fixture_dir / "labels.csv"),
               "--mode", "density", "--out", str(out),
               "--json-out", str(tmp_path / "matrix.json")])
    assert rc == 0
    header = out.read_text().splitlines()[0]
    assert header.startswith("origin,")
    payload = json.loads((tmp_path / "matrix.json").read_text())
    assert payload["mode"] == "Density"


def test_connectivity_null_ratio_needs_seed(fixture_dir, tmp_path, capsys):
    rc = main(["connectivity", "--edges", str(fixture_dir / "edges.tsv"),
               "--labels", str(fixture_dir / "labels.csv"),
               "--mode", "null_ratio", "--out", str(tmp_path / "m.csv")])
    assert rc == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_connectivity_null_ratio_samples_below_one(fixture_dir, tmp_path, capsys, samples):
    """An error, not an all-nan matrix or an OverflowError traceback."""
    out = tmp_path / "m.csv"
    rc = main(["connectivity", "--edges", str(fixture_dir / "edges.tsv"),
               "--labels", str(fixture_dir / "labels.csv"), "--mode", "null_ratio",
               "--seed", "1", f"--samples={samples}", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "error: samples must be at least 1\n"
    assert not out.exists()


def test_connectivity_needs_some_role_source(fixture_dir, tmp_path, capsys):
    rc = main(["connectivity", "--edges", str(fixture_dir / "edges.tsv"),
               "--mode", "density", "--out", str(tmp_path / "m.csv")])
    assert rc == 2
    assert "--labels" in capsys.readouterr().err


def test_connectivity_role_map_wins_over_labels(fixture_dir, tmp_path):
    partition = tmp_path / "partition.csv"
    assert main(["communities", "--edges", str(fixture_dir / "edges.tsv"),
                 "--seed", "0", "--out", str(partition)]) == 0
    communities = {line.split(",")[1] for line
                   in partition.read_text().splitlines()[1:]}
    role_map = tmp_path / "map.csv"
    role_map.write_text("community,role\n" + "\n".join(
        f"{c},core" for c in sorted(communities)) + "\n")
    out = tmp_path / "matrix.csv"
    rc = main(["connectivity", "--edges", str(fixture_dir / "edges.tsv"),
               "--labels", str(fixture_dir / "labels.csv"),
               "--partition", str(partition), "--role-map", str(role_map),
               "--mode", "density", "--out", str(out)])
    assert rc == 0
    assert out.read_text().splitlines()[0] == "origin,core"


def test_diffusion_stage(fixture_dir, tmp_path, capsys):
    out = tmp_path / "diff"
    rc = main(["diffusion", "--edges", str(fixture_dir / "edges.tsv"),
               "--events", str(fixture_dir / "events.tsv"),
               "--labels", str(fixture_dir / "labels.csv"),
               "--out", str(out)])
    assert rc == 0
    assert "trees=" in capsys.readouterr().out
    classes = read_classes_csv(str(out / "classes.csv"))
    labels = read_labels_csv(str(fixture_dir / "labels.csv"))
    assert set(classes) == set(labels)
    reach = json.loads((out / "reach.json").read_text())
    assert sum(reach["class_counts"].values()) == len(labels)


def test_diffusion_efficiency_set(fixture_dir, tmp_path, capsys):
    nodes = tmp_path / "set.txt"
    nodes.write_text("\n".join(producers_of(fixture_dir)) + "\n")
    rc = main(["diffusion", "--edges", str(fixture_dir / "edges.tsv"),
               "--events", str(fixture_dir / "events.tsv"),
               "--labels", str(fixture_dir / "labels.csv"),
               "--out", str(tmp_path / "d"),
               "--efficiency-set", str(nodes), "--inverse"])
    assert rc == 0
    assert "efficiency=" in capsys.readouterr().out


def test_perception_stage(fixture_dir, tmp_path, capsys):
    active = tmp_path / "active.txt"
    active.write_text("\n".join(producers_of(fixture_dir)) + "\n")
    counts = tmp_path / "counts.csv"
    counts.write_text("node,count\n" + "\n".join(
        f"{n},{i + 1}" for i, n in enumerate(producers_of(fixture_dir))) + "\n")
    out = tmp_path / "curves.csv"
    rc = main(["perception", "--edges", str(fixture_dir / "edges.tsv"),
               "--active", str(active), "--counts", str(counts),
               "--step", "0.25", "--out", str(out)])
    assert rc == 0
    assert "paradox_fraction=" in capsys.readouterr().out
    rows = out.read_text().splitlines()
    assert rows[0] == "threshold,fraction,layer"
    assert len(rows) == 1 + 5  # thresholds 0, 0.25, 0.5, 0.75, 1


@pytest.mark.parametrize("step", ["0", "-0.5", "3", "nan"])
def test_perception_step_out_of_range(fixture_dir, tmp_path, capsys, step):
    """A --step outside (0, 1] is an error, not a traceback, a header-only
    CSV or a nan threshold."""
    active = tmp_path / "active.txt"
    active.write_text("\n".join(producers_of(fixture_dir)) + "\n")
    out = tmp_path / "curves.csv"
    rc = main(["perception", "--edges", str(fixture_dir / "edges.tsv"),
               "--active", str(active), f"--step={step}", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "error: step must be in (0, 1]\n"
    assert not out.exists()


def test_intervene_volume_with_ages(fixture_dir, tmp_path, capsys):
    out = tmp_path / "shrink.csv"
    rc = main(["intervene", "--events", str(fixture_dir / "events.tsv"),
               "--labels", str(fixture_dir / "labels.csv"),
               "--sizes", "0,2,5,100",
               "--ages", str(fixture_dir / "demographics.csv"),
               "--out", str(out)])
    assert rc == 0
    assert "underage_threshold=" in capsys.readouterr().out
    rows = out.read_text().splitlines()
    assert rows[0] == "removed,reached_fraction,strategy"
    assert rows[1].startswith("0,1,") or rows[1].startswith("0,1.0,")


def test_intervene_degree_requires_edges(fixture_dir, tmp_path, capsys):
    rc = main(["intervene", "--events", str(fixture_dir / "events.tsv"),
               "--labels", str(fixture_dir / "labels.csv"),
               "--strategy", "degree", "--out", str(tmp_path / "s.csv")])
    assert rc == 2
    assert "--edges" in capsys.readouterr().err


def test_intervene_greedy(fixture_dir, tmp_path):
    out = tmp_path / "greedy.csv"
    rc = main(["intervene", "--events", str(fixture_dir / "events.tsv"),
               "--labels", str(fixture_dir / "labels.csv"),
               "--strategy", "greedy", "--sizes", "0,3",
               "--out", str(out)])
    assert rc == 0
    assert "Greedy" in out.read_text()


@pytest.mark.parametrize("command", ["diffusion", "intervene"])
def test_bad_posts_skipped_and_reported(fixture_dir, tmp_path, capsys, command):
    events = (fixture_dir / "events.tsv").read_text()
    bad = tmp_path / "events.tsv"
    bad.write_text(events + "zz1\tzz2\tcyc\t1\nzz2\tzz1\tcyc\t2\n"
                   "zz3\tzz4\ttwo\t1\nzz5\tzz6\ttwo\t1\n")

    def run(path, out):
        argv = [command, "--events", str(path),
                "--labels", str(fixture_dir / "labels.csv"), "--out", str(out)]
        if command == "diffusion":
            argv += ["--edges", str(fixture_dir / "edges.tsv")]
        assert main(argv) == 0
        return capsys.readouterr()

    clean = run(fixture_dir / "events.tsv", tmp_path / "clean")
    dirty = run(bad, tmp_path / "dirty")
    assert dirty.out == clean.out
    assert clean.err == ""
    assert dirty.err.splitlines() == [f"{command}: skipped cyclic_posts=1 in events.tsv",
                                      f"{command}: skipped multi_origin_posts=1 in events.tsv"]


@pytest.mark.parametrize("command", ["diffusion", "intervene"])
def test_malformed_events_counted_and_reported(fixture_dir, tmp_path, capsys, command):
    bad = tmp_path / "events.tsv"
    bad.write_text((fixture_dir / "events.tsv").read_text() + "only\ttwo\n")

    def run(path, out):
        argv = [command, "--events", str(path),
                "--labels", str(fixture_dir / "labels.csv"), "--out", str(out)]
        if command == "diffusion":
            argv += ["--edges", str(fixture_dir / "edges.tsv")]
        assert main(argv) == 0
        return capsys.readouterr()

    clean = run(fixture_dir / "events.tsv", tmp_path / "clean")
    dirty = run(bad, tmp_path / "dirty")
    assert dirty.out == clean.out
    assert clean.err == ""
    assert dirty.err.splitlines() == [f"{command}: skipped malformed_events=1 in events.tsv"]


def _outputs(root):
    """Every output file under `root` by relative path, with `diagnostics`
    taken out of the JSON ones (it counts what was skipped)."""
    files = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        diagnostics = None
        if path.suffix == ".json":
            data = json.loads(data)
            diagnostics = data.pop("diagnostics", None)
        files[str(path.relative_to(root))] = data, diagnostics
    return files


def _insert_after(lines: bytes, k: int, extra: bytes) -> bytes:
    rows = lines.splitlines(keepends=True)
    return b"".join(rows[:k]) + extra + b"".join(rows[k:])


GRAPH_COMMANDS = {
    "stats": lambda fx, e, out: ["stats", "--edges", e, "--out", str(out / "stats.json")],
    "communities": lambda fx, e, out: ["communities", "--edges", e, "--seed", "3",
                                       "--out", str(out / "partition.csv")],
    "connectivity": lambda fx, e, out: ["connectivity", "--edges", e,
                                        "--labels", str(fx / "labels.csv"),
                                        "--out", str(out / "density.csv")],
    # the test writes the producers to active.txt beside the output directories
    "perception": lambda fx, e, out: ["perception", "--edges", e,
                                      "--active", str(out.parent / "active.txt"),
                                      "--out", str(out / "curves.csv")],
    "diffusion": lambda fx, e, out: ["diffusion", "--edges", e,
                                     "--events", str(fx / "events.tsv"),
                                     "--labels", str(fx / "labels.csv"),
                                     "--out", str(out / "diffusion")],
    "intervene": lambda fx, e, out: ["intervene", "--edges", e, "--strategy", "degree",
                                     "--events", str(fx / "events.tsv"),
                                     "--labels", str(fx / "labels.csv"),
                                     "--sizes", "1,3", "--out", str(out / "degree.csv")],
}


@pytest.mark.parametrize("command", sorted(GRAPH_COMMANDS))
def test_dropped_edge_rows_skipped_and_reported(fixture_dir, tmp_path, capsys, command):
    """A line that is not UTF-8, a row without four fields, a row with a
    bad weight and a self-loop are skipped; each count is named on stderr
    and the outputs equal those of the clean file."""
    (tmp_path / "active.txt").write_text("\n".join(producers_of(fixture_dir)) + "\n")
    dirty = tmp_path / "edges.tsv"
    dirty.write_bytes(_insert_after((fixture_dir / "edges.tsv").read_bytes(), 7,
                                    b"p1_0000\t\xff\t1\tF\nonly\ttwo\np1_0000\tp1_0001\tx\tR\n"
                                    b"p1_0000\tp1_0000\t1\tF\n"))

    def run(edges, out):
        out.mkdir()
        assert main(GRAPH_COMMANDS[command](fixture_dir, str(edges), out)) == 0
        return capsys.readouterr(), _outputs(out)

    clean_io, clean_files = run(fixture_dir / "edges.tsv", tmp_path / "clean")
    dirty_io, dirty_files = run(dirty, tmp_path / "dirty")
    assert dirty_io.out == clean_io.out
    assert clean_io.err == ""
    assert dirty_io.err.splitlines() == [f"{command}: skipped malformed_lines=1 in edges.tsv",
                                         f"{command}: skipped undecodable_lines=1 in edges.tsv",
                                         f"{command}: skipped malformed_edges=1 in edges.tsv",
                                         f"{command}: skipped self_loops_dropped=1 in edges.tsv"]
    assert {k: v for k, (v, _) in dirty_files.items()} == \
        {k: v for k, (v, _) in clean_files.items()}
    if command == "stats":
        assert dirty_files["stats.json"][1] == {
            "malformed_edges": 1, "malformed_lines": 1, "self_loops_dropped": 1,
            "undecodable_lines": 1}


@pytest.mark.parametrize("command", ["diffusion", "intervene"])
def test_undecodable_event_line_skipped(fixture_dir, tmp_path, capsys, command):
    dirty = tmp_path / "events.tsv"
    dirty.write_bytes(_insert_after((fixture_dir / "events.tsv").read_bytes(), 3,
                                    b"zz1\tzz\xfe\tpost_x\t1\n"))

    def run(events, out):
        out.mkdir()
        argv = [command, "--events", str(events),
                "--labels", str(fixture_dir / "labels.csv"),
                "--out", str(out / ("diffusion" if command == "diffusion" else "volume.csv"))]
        if command == "diffusion":
            argv += ["--edges", str(fixture_dir / "edges.tsv")]
        assert main(argv) == 0
        return capsys.readouterr(), _outputs(out)

    clean_io, clean_files = run(fixture_dir / "events.tsv", tmp_path / "clean")
    dirty_io, dirty_files = run(dirty, tmp_path / "dirty")
    assert dirty_io.out == clean_io.out
    assert clean_io.err == ""
    assert dirty_io.err.splitlines() == [f"{command}: skipped undecodable_lines=1 in events.tsv"]
    assert {k: v for k, (v, _) in dirty_files.items()} == \
        {k: v for k, (v, _) in clean_files.items()}
    if command == "diffusion":
        assert dirty_files["diffusion/reach.json"][1] == \
            {**clean_files["diffusion/reach.json"][1], "undecodable_lines": 1}


@pytest.mark.parametrize("text", ["abc", ","])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_intervene_sizes_not_integers(fixture_dir, tmp_path, capsys, source, text):
    """A --sizes value (or a sizes= config entry) that is not a list of
    integers is an error that names the option, before any output."""
    out = tmp_path / "shrink.csv"
    argv = ["intervene", "--events", str(fixture_dir / "events.tsv"),
            "--labels", str(fixture_dir / "labels.csv"), "--strategy", "greedy",
            "--out", str(out)]
    if source == "flag":
        argv.append(f"--sizes={text}")
    else:
        cfg = tmp_path / "intervene.cfg"
        cfg.write_text(f"sizes = {text}\n")
        argv += ["--config", str(cfg)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: --sizes must be comma-separated integers, got {text!r}\n"
    assert captured.out == ""
    assert not out.exists()


def test_intervene_failed_threshold_writes_nothing(fixture_dir, tmp_path, capsys):
    out = tmp_path / "shrink.csv"
    # every consumer is underage, and a one-node greedy ranking cannot cut
    # them all off
    rc = main(["intervene", "--events", str(fixture_dir / "events.tsv"),
               "--labels", str(fixture_dir / "labels.csv"),
               "--strategy", "greedy", "--sizes", "0,1", "--cutoff", "1000",
               "--ages", str(fixture_dir / "demographics.csv"),
               "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert "underage nodes remain reached" in captured.err
    assert "greedy ranking has only 1 nodes" in captured.err
    assert not out.exists()


def test_demographics_stage(fixture_dir, tmp_path):
    diff_out = tmp_path / "diff"
    assert main(["diffusion", "--edges", str(fixture_dir / "edges.tsv"),
                 "--events", str(fixture_dir / "events.tsv"),
                 "--labels", str(fixture_dir / "labels.csv"),
                 "--out", str(diff_out)]) == 0
    out = tmp_path / "demo"
    rc = main(["demographics", "--demo", str(fixture_dir / "demographics.csv"),
               "--classes", str(diff_out / "classes.csv"),
               "--out", str(out)])
    assert rc == 0
    for name in ("class_demographics.csv", "engagement.csv", "age_histogram.csv"):
        assert (out / name).exists(), name
    header = (out / "class_demographics.csv").read_text().splitlines()[0]
    assert header.startswith("class,size,covered")
    assert len(read_classes_csv(str(diff_out / "classes.csv"))) > 0


def test_pipeline_byte_identical_reports(tmp_path):
    cfg = tmp_path / "synth.cfg"
    write_config(SynthConfig(seed=5, n_producer_one=10, n_producer_two=10,
                             n_bridge_one=10, n_bridge_two=10, n_outer=20,
                             posts_per_producer=1), str(cfg))
    args = ["pipeline", "--config", str(cfg), "--seed", "5"]
    assert main(args + ["--out", str(tmp_path / "r1")]) == 0
    assert main(args + ["--out", str(tmp_path / "r2")]) == 0
    left = (tmp_path / "r1" / "report.json").read_bytes()
    right = (tmp_path / "r2" / "report.json").read_bytes()
    assert left == right
    report = json.loads(left)
    assert report["schema_version"] == 1
    assert report["extraction"]["keyword_trace"] == [3, 6, 9, 12, 13]
    assert report["extraction"]["blog_trace"] == [10, 20, 30, 40, 40]
    assert report["intervention"]["by_volume"]["reached_fraction"][0] == 1.0
    assert set(report["diffusion"]["reach"]["class_counts"]) == {
        c.value for c in ConsumerClass}


@pytest.mark.parametrize("option, message", [
    ("--step=0", "step must be in (0, 1]"),
    ("--sizes=abc", "--sizes must be comma-separated integers, got 'abc'"),
    ("--sizes=,", "--sizes must be comma-separated integers, got ','"),
    ("--sizes=5,2", "removal sizes must be ascending"),
    ("--samples=-1", "samples must be at least 1"),
    ("--swaps-per-edge=-1", "swaps_per_edge must be at least 0"),
], ids=["step", "sizes-not-integers", "sizes-empty", "sizes-descending", "samples",
        "swaps-per-edge"])
def test_pipeline_step_out_of_range(tmp_path, capsys, option, message):
    """A bad run option is an error before the fixture or any stage output
    is written."""
    cfg = tmp_path / "synth.cfg"
    write_config(SynthConfig(seed=5, n_producer_one=10, n_producer_two=10,
                             n_bridge_one=10, n_bridge_two=10, n_outer=20,
                             posts_per_producer=1), str(cfg))
    rc = main(["pipeline", "--config", str(cfg), "--seed", "5", option,
               "--out", str(tmp_path / "r")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list((tmp_path / "r").glob("**/*")) == []


def test_pipeline_sampled_paths_use_seed(tmp_path, monkeypatch):
    """Above EXACT_PATH_LIMIT, path statistics come from seeded samples, so
    pipeline must hand its seed on."""
    import devgraph.graph
    monkeypatch.setattr(devgraph.graph, "EXACT_PATH_LIMIT", 50)
    assert main(["pipeline", "--seed", "11", "--out", str(tmp_path / "r")]) == 0
    report = json.loads((tmp_path / "r" / "report.json").read_bytes())
    assert not any(stats["paths_exact"] for stats in report["stats"].values())


def test_pipeline_requires_seed(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["pipeline", "--out", str(tmp_path / "r")])
    assert exc.value.code == 2


def test_connectivity_skips_undecodable_label_row(fixture_dir, tmp_path, capsys):
    """A labels.csv row with a byte that is not UTF-8 is skipped and named
    on stderr; the matrix equals the one from the labels without that row."""
    labels = tmp_path / "labels.csv"
    labels.write_bytes(_insert_after((fixture_dir / "labels.csv").read_bytes(), 1,
                                     b"zz\xff,outer\n"))

    def run(path, out):
        rc = main(["connectivity", "--edges", str(fixture_dir / "edges.tsv"),
                   "--labels", str(path), "--mode", "density", "--out", str(out)])
        return rc, capsys.readouterr()

    rc_clean, clean_io = run(fixture_dir / "labels.csv", tmp_path / "clean.csv")
    rc_dirty, dirty_io = run(labels, tmp_path / "dirty.csv")
    assert rc_clean == rc_dirty == 0
    assert dirty_io.out == clean_io.out
    assert dirty_io.err.splitlines() == [
        "connectivity: skipped undecodable_lines=1 in labels.csv"]
    assert (tmp_path / "dirty.csv").read_bytes() == (tmp_path / "clean.csv").read_bytes()


@pytest.mark.parametrize("bad", ["labels", "partition", "role_map"])
def test_connectivity_skips_malformed_role_rows(fixture_dir, tmp_path, capsys, bad):
    """A labels.csv row without a group, and a partition or role-map row
    whose community is not an integer, are skipped and counted on stderr;
    the matrix equals the one from the files without that row."""
    edges = str(fixture_dir / "edges.tsv")
    partition, role_map = tmp_path / "partition.csv", tmp_path / "map.csv"
    assert main(["communities", "--edges", edges, "--seed", "0",
                 "--out", str(partition)]) == 0
    communities = sorted({line.split(",")[1] for line in partition.read_text().splitlines()[1:]})
    role_map.write_text("community,role\n" + "".join(
        f"{c},{'core' if i % 2 else 'rest'}\n" for i, c in enumerate(communities)))
    clean = {"labels": fixture_dir / "labels.csv", "partition": partition,
             "role_map": role_map}
    row, reason = {"labels": (b"zz_only\n", "malformed_labels"),
                   "partition": (b"zz,abc\n", "malformed_rows"),
                   "role_map": (b"abc,core\n", "malformed_rows")}[bad]
    dirty = dict(clean)
    dirty[bad] = tmp_path / f"dirty_{clean[bad].name}"
    dirty[bad].write_bytes(_insert_after(clean[bad].read_bytes(), 2, row))

    def run(files, out):
        roles = (["--labels", str(files["labels"])] if bad == "labels" else
                 ["--partition", str(files["partition"]), "--role-map", str(files["role_map"])])
        rc = main(["connectivity", "--edges", edges, *roles, "--mode", "density",
                   "--out", str(out)])
        return rc, capsys.readouterr()

    capsys.readouterr()
    rc_clean, clean_io = run(clean, tmp_path / "clean.csv")
    rc_dirty, dirty_io = run(dirty, tmp_path / "dirty.csv")
    assert rc_clean == rc_dirty == 0
    assert dirty_io.out == clean_io.out
    assert dirty_io.err.splitlines() == [
        f"connectivity: skipped {reason}=1 in {dirty[bad].name}"]
    assert (tmp_path / "dirty.csv").read_bytes() == (tmp_path / "clean.csv").read_bytes()


def test_intervene_builds_one_forest(fixture_dir, tmp_path, monkeypatch):
    """The ranking, the threshold and the curve share one forest."""
    built = []
    init = DiffusionForest.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(DiffusionForest, "__init__", counted)
    assert main(["intervene", "--events", str(fixture_dir / "events.tsv"),
                 "--labels", str(fixture_dir / "labels.csv"), "--strategy", "volume",
                 "--ages", str(fixture_dir / "demographics.csv"),
                 "--out", str(tmp_path / "volume.csv")]) == 0
    assert len(built) == 1


def test_diffusion_names_the_file_of_each_skip(fixture_dir, tmp_path, capsys):
    edges, events = tmp_path / "edges.tsv", tmp_path / "events.tsv"
    edges.write_bytes(_insert_after((fixture_dir / "edges.tsv").read_bytes(), 2,
                                    b"p1_0000\t\xff\t1\tF\n"))
    events.write_bytes(_insert_after((fixture_dir / "events.tsv").read_bytes(), 2,
                                     b"zz1\tzz\xfe\tpost_x\t1\n"))
    assert main(["diffusion", "--edges", str(edges), "--events", str(events),
                 "--labels", str(fixture_dir / "labels.csv"),
                 "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "diffusion: skipped undecodable_lines=1 in edges.tsv",
        "diffusion: skipped undecodable_lines=1 in events.tsv"]


def test_dropped_demographic_rows_reported(fixture_dir, tmp_path, capsys):
    """demographics and intervene --ages name the rows read_demographics_csv
    dropped; stdout and the outputs stay those of the clean file."""
    demo = tmp_path / "demographics.csv"
    demo.write_bytes((fixture_dir / "demographics.csv").read_bytes()
                     + b"zz1,200,male\nzz2,abc,female\n")
    assert main(["diffusion", "--edges", str(fixture_dir / "edges.tsv"),
                 "--events", str(fixture_dir / "events.tsv"),
                 "--labels", str(fixture_dir / "labels.csv"),
                 "--out", str(tmp_path / "diff")]) == 0
    capsys.readouterr()

    def run(command, path, out):
        if command == "demographics":
            argv = ["demographics", "--demo", str(path),
                    "--classes", str(tmp_path / "diff" / "classes.csv")]
        else:
            argv = ["intervene", "--events", str(fixture_dir / "events.tsv"),
                    "--labels", str(fixture_dir / "labels.csv"), "--ages", str(path)]
        assert main(argv + ["--out", str(out)]) == 0
        return capsys.readouterr()

    for command in ("demographics", "intervene"):
        clean = run(command, fixture_dir / "demographics.csv", tmp_path / f"{command}_clean")
        dirty = run(command, demo, tmp_path / f"{command}_dirty")
        assert clean.err == ""
        assert dirty.out.replace("_dirty", "_clean") == clean.out
        assert dirty.err.splitlines() == [
            f"{command}: skipped malformed_demographics=1 in demographics.csv",
            f"{command}: skipped age_out_of_range=1 in demographics.csv"]
    for name in ("class_demographics.csv", "age_histogram.csv", "engagement.csv"):
        assert (tmp_path / "demographics_dirty" / name).read_bytes() == \
            (tmp_path / "demographics_clean" / name).read_bytes()


@pytest.mark.parametrize("command", ["demographics", "perception"])
def test_bad_class_and_count_rows_skipped(fixture_dir, tmp_path, capsys, command):
    """A classes.csv row with an unknown class, and a --counts row whose
    count is not an integer, are skipped and counted on stderr; stdout and
    the outputs stay those of the clean file."""
    if command == "demographics":
        assert main(["diffusion", "--edges", str(fixture_dir / "edges.tsv"),
                     "--events", str(fixture_dir / "events.tsv"),
                     "--labels", str(fixture_dir / "labels.csv"),
                     "--out", str(tmp_path / "diff")]) == 0
        name, row = "classes.csv", b"zz,notaclass\n"
        clean_bytes = (tmp_path / "diff" / "classes.csv").read_bytes()
    else:
        active = tmp_path / "active.txt"
        active.write_text("\n".join(producers_of(fixture_dir)) + "\n")
        name, row = "counts.csv", b"n00002,abc\n"
        clean_bytes = ("node,count\n" + "".join(
            f"{n},{i + 1}\n" for i, n in enumerate(producers_of(fixture_dir)))).encode()
    capsys.readouterr()

    def run(side, data):
        (tmp_path / side).mkdir()
        (tmp_path / side / name).write_bytes(data)
        out = tmp_path / side / "out"
        if command == "demographics":
            argv = ["demographics", "--demo", str(fixture_dir / "demographics.csv"),
                    "--classes", str(tmp_path / side / name), "--out", str(out)]
        else:
            argv = ["perception", "--edges", str(fixture_dir / "edges.tsv"),
                    "--active", str(active), "--counts", str(tmp_path / side / name),
                    "--out", str(out)]
        assert main(argv) == 0
        return capsys.readouterr(), out

    (clean_io, clean_out), (dirty_io, dirty_out) = (
        run("clean", clean_bytes), run("dirty", _insert_after(clean_bytes, 2, row)))
    assert clean_io.err == ""
    assert dirty_io.err.splitlines() == [f"{command}: skipped malformed_rows=1 in {name}"]
    assert dirty_io.out.replace("dirty", "clean") == clean_io.out

    def contents(out):
        return ({p.name: p.read_bytes() for p in out.iterdir()} if out.is_dir()
                else out.read_bytes())
    assert contents(dirty_out) == contents(clean_out)
