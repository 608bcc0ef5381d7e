import json

import pytest

from devgraph.cli import main
from devgraph.diffusion import ConsumerClass, read_classes_csv
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
                 "demographics.csv", "seeds.txt", "exact.txt", "contain.txt"):
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
    assert dirty.err.splitlines() == [f"{command}: skipped cyclic_posts=1",
                                      f"{command}: skipped multi_origin_posts=1"]


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
    assert dirty.err.splitlines() == [f"{command}: skipped malformed_events=1"]


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


def test_pipeline_requires_seed(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["pipeline", "--out", str(tmp_path / "r")])
    assert exc.value.code == 2
