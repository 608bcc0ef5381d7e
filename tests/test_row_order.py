"""The file route does not depend on row order: with the rows of edges.tsv,
events.tsv, labels.csv and demographics.csv shuffled (headers kept), every
subcommand that reads them prints the same lines and writes the same bytes.

The graph numbers its nodes in first-seen order and the forest in sorted
id order, so a shuffle moves every graph code while the forest's stay put;
a stage that mixed the two numberings up would show here.
"""

import random
from pathlib import Path

import pytest

from devgraph.cli import main

SHUFFLED = {"edges.tsv": False, "events.tsv": False, "labels.csv": True,
            "demographics.csv": True}


@pytest.fixture(scope="module")
def fixture(tmp_path_factory):
    out = tmp_path_factory.mktemp("rows") / "fx"
    assert main(["synth", "--seed", "7", "--out", str(out)]) == 0
    return out


def shuffled_copy(src: Path, dst: Path, seed: int) -> Path:
    dst.mkdir(parents=True)
    rng = random.Random(seed)
    for name, header in SHUFFLED.items():
        lines = (src / name).read_text(encoding="utf-8").splitlines(keepends=True)
        head, rows = lines[:int(header)], lines[int(header):]
        rng.shuffle(rows)
        (dst / name).write_text("".join(head + rows), encoding="utf-8")
    return dst


def commands(inputs: Path, out: Path) -> list[list[str]]:
    edges, events, labels, demo = (str(inputs / name) for name in SHUFFLED)
    return [
        ["diffusion", "--edges", edges, "--events", events, "--labels", labels,
         "--out", str(out / "diffusion")],
        ["intervene", "--events", events, "--labels", labels, "--strategy", "volume",
         "--ages", demo, "--out", str(out / "volume.csv")],
        ["intervene", "--events", events, "--labels", labels, "--edges", edges,
         "--strategy", "degree", "--out", str(out / "degree.csv")],
        ["intervene", "--events", events, "--labels", labels, "--strategy", "greedy",
         "--out", str(out / "greedy.csv")],
        ["connectivity", "--edges", edges, "--labels", labels, "--mode", "density",
         "--out", str(out / "density.csv")],
        ["connectivity", "--edges", edges, "--labels", labels, "--mode", "avg_volume",
         "--out", str(out / "avg_volume.csv")],
        ["demographics", "--demo", demo, "--classes", str(out / "diffusion" / "classes.csv"),
         "--out", str(out / "demographics")],
        ["stats", "--edges", edges, "--out", str(out / "stats.json")],
    ]


def run(inputs: Path, out: Path, capsys) -> tuple[list, dict[str, bytes]]:
    """Each command's exit code, stdout and stderr, with `out` written as
    OUT, and the bytes of every file written under `out`."""
    printed = []
    for argv in commands(inputs, out):
        rc = main(argv)
        io = capsys.readouterr()
        printed.append((argv[0], rc, io.out.replace(str(out), "OUT"), io.err))
    files = {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*"))
             if p.is_file()}
    return printed, files


@pytest.mark.parametrize("seed", [0, 1])
def test_outputs_ignore_row_order(fixture, tmp_path, capsys, seed):
    printed, files = run(fixture, tmp_path / "a", capsys)
    assert all(rc == 0 for _, rc, _, _ in printed)
    assert len(files) == 11
    shuffled = shuffled_copy(fixture, tmp_path / "shuffled", seed)
    assert run(shuffled, tmp_path / "b", capsys) == (printed, files)
