"""Seed-11 outputs of `pipeline`, at the default scale and at M scale, and
of the file-reading subcommands, pinned in tests/golden/: the default
run's report.json verbatim, and the stdout and the sha256 of every other
output file.

Gate 9 compares two runs of the same build with each other, so it cannot
see a change that alters both runs; these goldens can. Recapture them,
when an output is meant to change, with

    PYTHONPATH=src python tests/test_golden_outputs.py
"""

import hashlib
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path

from devgraph.cli import main
from devgraph.diffusion import producer_nodes
from devgraph.graph import read_labels_csv
from devgraph.synth import SynthConfig

GOLDEN = Path(__file__).parent / "golden"
SEED = 11
M_SCALE = 16


def _run(argv: list[str], root: Path) -> str:
    """Run one command; return its stdout with `root` masked."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        assert main(argv) == 0, argv
    assert err.getvalue() == "", err.getvalue()
    return out.getvalue().replace(str(root), "<tmp>")


def _digests(root: Path) -> dict[str, str]:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def pipeline_outputs(root: Path) -> dict:
    out = root / "pipeline"
    stdout = _run(["pipeline", "--seed", str(SEED), "--out", str(out)], root)
    files = _digests(out)
    del files["report.json"]
    return {"stdout": stdout, "files": files,
            "report": (out / "report.json").read_text(encoding="utf-8")}


def write_m_config(path: Path) -> None:
    """The M recipe: every group size times 16 and every block probability
    divided by 16, so the mean degree stays fixed."""
    cfg = SynthConfig(seed=SEED)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for f in fields(SynthConfig):
            value = getattr(cfg, f.name)
            if f.name.startswith("n_") and f.name != "n_noise_blogs":
                value *= M_SCALE
            elif f.name.startswith("p_"):
                value /= M_SCALE
            fh.write(f"{f.name}={value}\n")


def pipeline_m_outputs(root: Path) -> dict:
    cfg, out = root / "m.cfg", root / "pipeline_m"
    write_m_config(cfg)
    stdout = _run(["pipeline", "--config", str(cfg), "--seed", str(SEED),
                   "--out", str(out)], root)
    return {"stdout": stdout, "files": _digests(out)}


def subcommand_outputs(root: Path) -> dict:
    fx, out = root / "fx", root / "out"
    _run(["synth", "--seed", str(SEED), "--out", str(fx)], root)
    edges, events, labels, demo = (str(fx / f) for f in (
        "edges.tsv", "events.tsv", "labels.csv", "demographics.csv"))
    producers = fx / "producers.txt"
    producers.write_text("".join(f"{node}\n" for node in
                                 sorted(producer_nodes(read_labels_csv(labels)))),
                         encoding="utf-8")
    commands = {
        "diffusion": ["diffusion", "--edges", edges, "--events", events,
                      "--labels", labels, "--out", str(out / "diffusion")],
        "intervene_volume_ages": ["intervene", "--events", events, "--labels", labels,
                                  "--strategy", "volume", "--ages", demo,
                                  "--out", str(out / "volume.csv")],
        "intervene_volume_ages_sizes": ["intervene", "--events", events, "--labels", labels,
                                        "--strategy", "volume", "--ages", demo,
                                        "--sizes", "0,1,2,5,10,20,40",
                                        "--out", str(out / "volume_sizes.csv")],
        "intervene_greedy": ["intervene", "--events", events, "--labels", labels,
                             "--strategy", "greedy", "--sizes", "0,5,10,20",
                             "--out", str(out / "greedy.csv")],
        "diffusion_efficiency": ["diffusion", "--edges", edges, "--events", events,
                                 "--labels", labels, "--efficiency-set", str(producers),
                                 "--out", str(out / "diffusion_efficiency")],
        "diffusion_efficiency_inverse": ["diffusion", "--edges", edges, "--events", events,
                                         "--labels", labels, "--efficiency-set",
                                         str(producers), "--inverse",
                                         "--out", str(out / "diffusion_efficiency_inverse")],
        "intervene_degree": ["intervene", "--events", events, "--labels", labels,
                             "--edges", edges, "--strategy", "degree",
                             "--out", str(out / "degree.csv")],
        "demographics": ["demographics", "--demo", demo,
                         "--classes", str(out / "diffusion" / "classes.csv"),
                         "--out", str(out / "demographics")],
        "connectivity_density": ["connectivity", "--edges", edges, "--labels", labels,
                                 "--mode", "density", "--out", str(out / "density.csv")],
        "connectivity_avg_volume": ["connectivity", "--edges", edges, "--labels", labels,
                                    "--mode", "avg_volume",
                                    "--out", str(out / "avg_volume.csv")],
        "connectivity_null_ratio": ["connectivity", "--edges", edges, "--labels", labels,
                                    "--mode", "null_ratio", "--seed", str(SEED),
                                    "--samples", "2", "--out", str(out / "null_ratio.csv"),
                                    "--json-out", str(out / "null_ratio.json")],
        "stats_follow": ["stats", "--edges", edges, "--layer", "F",
                         "--out", str(out / "stats_F.json")],
        "stats_reblog": ["stats", "--edges", edges, "--layer", "R",
                         "--out", str(out / "stats_R.json")],
        "extract": ["extract", "--log", str(fx / "log.tsv"), "--seeds", str(fx / "seeds.txt"),
                    "--out", str(out / "extract")],
    }
    stdout = {name: _run(argv, root) for name, argv in commands.items()}
    return {"stdout": stdout, "files": _digests(out)}


def _golden(name: str) -> dict:
    return json.loads((GOLDEN / name).read_text(encoding="utf-8"))


def test_pipeline_matches_golden(tmp_path):
    got = pipeline_outputs(tmp_path)
    assert got["report"] == (GOLDEN / "pipeline_seed11_report.json").read_text(encoding="utf-8")
    want = _golden("pipeline_seed11.json")
    assert got["stdout"] == want["stdout"]
    assert got["files"] == want["files"]
    # the diffusion and demographics stages write what the subcommands
    # write from the same fixture
    subs = _golden("subcommands_seed11.json")["files"]
    assert got["files"]["reach.json"] == subs["diffusion/reach.json"]
    for name in ("class_demographics.csv", "age_histogram.csv", "engagement.csv"):
        assert got["files"][name] == subs[f"demographics/{name}"], name


def test_subcommands_match_golden(tmp_path):
    assert subcommand_outputs(tmp_path) == _golden("subcommands_seed11.json")


def test_pipeline_m_matches_golden(tmp_path):
    assert pipeline_m_outputs(tmp_path) == _golden("pipeline_m_seed11.json")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        pipe = pipeline_outputs(Path(tmp))
        subs = subcommand_outputs(Path(tmp))
        pipe_m = pipeline_m_outputs(Path(tmp))
    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / "pipeline_seed11_report.json").write_text(pipe.pop("report"), encoding="utf-8")
    for name, data in (("pipeline_seed11.json", pipe), ("subcommands_seed11.json", subs),
                       ("pipeline_m_seed11.json", pipe_m)):
        with open(GOLDEN / name, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
            fh.write("\n")
