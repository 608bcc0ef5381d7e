"""The benchmark's workloads: how each builds its inputs from the seed, the
devgraph command lines one operation runs, and the checks on its outputs.

Why these four: each puts most of its time in different layers, so an
optimisation of one layer shows on the workload that exercises it and
predicts no change on the others.

- pipeline-m: the command users run, at the ROADMAP's M scale (16x). Time
  goes to exact path statistics (graph), null-model rewiring
  (connectivity), synthesis and Louvain. Its 411-row log leaves ingest
  and expansion idle.
- extract-log: keyword expansion over a ~617k-row query log in which the
  topic is a sliver, as in the paper's setting. Only ingest and expansion
  work; the graph modules do nothing.
- files-m: the real-data route, subcommands over the M fixture's files.
  Readers, graph loading, tree building and the shrinkage curves work;
  pipeline-m reads none of these files.
- greedy-s: the adaptive greedy ranking on the default fixture, which no
  other workload calls.

files-m and greedy-s read the fixture drawn at FIXTURE_SEED, and the
workload seed renames its nodes and shuffles its rows. Drawing the fixture
from the workload seed instead makes the cost of an operation depend on the
seed more than on the code: on a 2-vCPU Xeon VM the greedy ranking took
3.2 to 4.6 s over fixture seeds 1 to 8, as the cascades' total size varies.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import contextmanager, redirect_stdout
from dataclasses import fields
from pathlib import Path

import numpy as np

M_SCALE = 16
FIXTURE_SEED = 11
EXTRACT_COPIES = 1500
GREEDY_SIZES = (0, 5, 10, 20)


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digests(root: Path) -> dict[str, str]:
    return {str(p.relative_to(root)): sha256(p)
            for p in sorted(root.rglob("*")) if p.is_file()}


def _lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


def file_fingerprint(inputs: Path) -> dict:
    """Counts and sha256 of the generated input files."""
    fp: dict = {"files": digests(inputs)}
    nodes: set[str] = set()
    if (inputs / "labels.csv").exists():
        nodes.update(line.split(",")[0] for line in _lines(inputs / "labels.csv")[1:])
    if (inputs / "edges.tsv").exists():
        edges = {"F": 0, "R": 0}
        for line in _lines(inputs / "edges.tsv"):
            src, dst, _w, layer = line.split("\t")
            nodes.update((src, dst))
            edges[layer] += 1
        fp["edges"] = edges
    if nodes:
        fp["nodes"] = len(nodes)
    if (inputs / "events.tsv").exists():
        fp["events"] = len(_lines(inputs / "events.tsv"))
    if (inputs / "log.tsv").exists():
        fp["log_rows"] = len(_lines(inputs / "log.tsv"))
    return fp


def write_m_config(path: Path, seed: int) -> None:
    """The ROADMAP's M recipe: every group size times 16 and every block
    probability divided by 16, so the mean degree stays fixed."""
    from devgraph.synth import SynthConfig
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for f in fields(SynthConfig):
            value = getattr(SynthConfig(seed=seed), f.name)
            if f.name.startswith("n_") and f.name != "n_noise_blogs":
                value *= M_SCALE
            elif f.name.startswith("p_"):
                value /= M_SCALE
            fh.write(f"{f.name}={value}\n")


# file -> (separator, columns holding node ids)
_NODE_COLUMNS = {"edges.tsv": ("\t", (0, 1)), "events.tsv": ("\t", (0, 1)),
                 "labels.csv": (",", (0,)), "demographics.csv": (",", (0,))}


def relabel(inputs: Path, keep: tuple[str, ...], seed: int) -> None:
    """Give every node a seeded new name and shuffle the rows of the files
    in `keep`; delete the fixture's other files."""
    rng = np.random.default_rng(seed)
    nodes = sorted(line.split(",")[0] for line in _lines(inputs / "labels.csv")[1:])
    new = {old: f"n{i:05d}" for old, i in zip(nodes, rng.permutation(len(nodes)))}
    for path in sorted(inputs.iterdir()):
        if path.name not in keep:
            path.unlink()
            continue
        sep, cols = _NODE_COLUMNS[path.name]
        lines = _lines(path)
        header = lines[:1] if path.suffix == ".csv" else []
        rows = []
        for line in lines[len(header):]:
            parts = line.split(sep)
            for c in cols:
                parts[c] = new[parts[c]]
            rows.append(sep.join(parts))
        shuffled = [rows[i] for i in rng.permutation(len(rows))]
        path.write_text("\n".join(header + shuffled) + "\n", encoding="utf-8")


def _non_increasing(xs) -> bool:
    return all(b <= a for a, b in zip(xs, xs[1:]))


def _expected_closure(cfg=None):
    from devgraph.synth import SynthConfig, closure_fixture
    return closure_fixture(cfg or SynthConfig())


class Workload:
    """One workload. `setup` writes the inputs, `commands` gives the argv
    lists of one operation, `check` validates one operation's outputs and
    returns what later operations must reproduce byte for byte."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, inputs: Path) -> None:
        raise NotImplementedError

    def fingerprint(self, inputs: Path) -> dict:
        return file_fingerprint(inputs)

    def commands(self, inputs: Path, out: Path) -> list[list[str]]:
        raise NotImplementedError

    def check(self, out: Path, stdout: str, fp: dict) -> bytes:
        raise NotImplementedError

    @contextmanager
    def warmup_probe(self):
        """Extra result capture during the untimed warm-up operation."""
        yield

    def check_warmup(self) -> None:
        pass


class PipelineM(Workload):
    name = "pipeline-m"

    def setup(self, inputs):
        write_m_config(inputs / "m.cfg", self.seed)

    def fingerprint(self, inputs):
        """Input counts from the generators the pipeline synthesizes with."""
        from dataclasses import replace
        from devgraph.synth import planted_graph, read_config, synth_events
        cfg = replace(read_config(str(inputs / "m.cfg")), seed=self.seed)
        g, roles = planted_graph(cfg)
        return {**file_fingerprint(inputs), "nodes": g.n_nodes,
                "edges": {layer: g.n_edges(layer) for layer in ("F", "R")},
                "events": len(synth_events(cfg, g, roles)),
                "log_rows": len(_expected_closure(cfg).log_lines)}

    def commands(self, inputs, out):
        return [["pipeline", "--config", str(inputs / "m.cfg"),
                 "--seed", str(self.seed), "--out", str(out)]]

    def check(self, out, stdout, fp):
        raw = (out / "report.json").read_bytes()
        report = json.loads(raw)
        require(report["schema_version"] == 1, "schema_version is not 1")
        fx = report["fixture"]
        for key in ("nodes", "edges", "events", "log_rows"):
            require(fx[key] == fp[key], f"report fixture {key} {fx[key]} != {fp[key]}")
        ex, want = report["extraction"], _expected_closure()
        require(ex["final_keywords"] == sorted(want.expected_keywords)
                and ex["final_blogs"] == sorted(want.expected_blogs)
                and tuple(ex["keyword_trace"]) == want.expected_keyword_trace
                and tuple(ex["blog_trace"]) == want.expected_blog_trace,
                "extraction closure differs from the closure fixture")
        counts = report["diffusion"]["reach"]["class_counts"]
        require(sum(counts.values()) == fp["nodes"], "class counts do not sum to nodes")
        for key in ("by_volume", "by_degree"):
            require(_non_increasing(report["intervention"][key]["reached_fraction"]),
                    f"{key} shrinkage curve rises")
        return raw


class ExtractLog(Workload):
    name = "extract-log"

    def setup(self, inputs):
        """Tile 0 is the closure fixture's log. Each further tile renames
        it: a letters-only token on every query (normalization strips
        digits) and a prefix on every blog host, so no copy ever matches a
        seed and the closure stays exactly the fixture's. The seed picks
        the tokens, the tile order and the row order within each tile."""
        fx = _expected_closure()
        rows = [line.split("\t") for line in fx.log_lines]
        rng = np.random.default_rng(self.seed)
        letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
        tokens: set[str] = set()
        while len(tokens) < EXTRACT_COPIES:
            tokens.add("zz" + "".join(rng.choice(letters, 6)))
        tiles = [""] + sorted(tokens)
        ts = 1000
        with open(inputs / "log.tsv", "w", encoding="utf-8", newline="\n") as fh:
            for t in rng.permutation(len(tiles)):
                token = tiles[t]
                chunk = []
                for r in rng.permutation(len(rows)):
                    _ts, query, url, region = rows[r]
                    if token:
                        query = f"{query} {token}"
                        url = url.replace("http://", f"http://{token}", 1)
                    chunk.append(f"{ts}\t{query}\t{url}\t{region}\n")
                    ts += 1
                fh.write("".join(chunk))
        with open(inputs / "seeds.txt", "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(fx.seed_phrases) + "\n")

    def commands(self, inputs, out):
        return [["extract", "--log", str(inputs / "log.tsv"),
                 "--seeds", str(inputs / "seeds.txt"), "--out", str(out)]]

    def check(self, out, stdout, fp):
        want = _expected_closure()
        require(_lines(out / "keywords.txt") == sorted(want.expected_keywords),
                "keywords differ from the closure fixture")
        require(_lines(out / "blogs.txt") == sorted(want.expected_blogs),
                "blogs differ from the closure fixture")
        rows = [line.split(",") for line in _lines(out / "trajectory.csv")[1:]]
        require(tuple(int(r[1]) for r in rows) == want.expected_keyword_trace
                and tuple(int(r[2]) for r in rows) == want.expected_blog_trace,
                "trajectory differs from the closure fixture")
        return b"".join((out / f).read_bytes()
                        for f in ("keywords.txt", "blogs.txt", "trajectory.csv"))


class FilesM(Workload):
    name = "files-m"

    def setup(self, inputs):
        write_m_config(inputs / "m.cfg", FIXTURE_SEED)
        _synth(["--config", str(inputs / "m.cfg"), "--out", str(inputs)])
        relabel(inputs, ("edges.tsv", "events.tsv", "labels.csv", "demographics.csv"),
                self.seed)

    def commands(self, inputs, out):
        edges, events, labels = (str(inputs / f)
                                 for f in ("edges.tsv", "events.tsv", "labels.csv"))
        demo = str(inputs / "demographics.csv")
        return [
            ["diffusion", "--edges", edges, "--events", events, "--labels", labels,
             "--out", str(out / "diffusion")],
            ["intervene", "--events", events, "--labels", labels,
             "--strategy", "volume", "--ages", demo, "--out", str(out / "volume.csv")],
            ["intervene", "--events", events, "--labels", labels, "--edges", edges,
             "--strategy", "degree", "--out", str(out / "degree.csv")],
            ["demographics", "--demo", demo,
             "--classes", str(out / "diffusion" / "classes.csv"),
             "--out", str(out / "demographics")],
            ["connectivity", "--edges", edges, "--labels", labels,
             "--mode", "density", "--out", str(out / "density.csv")],
        ]

    def check(self, out, stdout, fp):
        from devgraph.diffusion import ConsumerClass
        rows = [line.split(",") for line in _lines(out / "diffusion" / "classes.csv")[1:]]
        valid = {c.value for c in ConsumerClass}
        require(len(rows) == fp["nodes"] and len({r[0] for r in rows}) == fp["nodes"]
                and all(r[1] in valid for r in rows), "not every node has a class")
        require("underage_threshold=" in stdout, "no underage threshold printed")
        return json.dumps(digests(out), sort_keys=True).encode()


class GreedyS(Workload):
    name = "greedy-s"

    def setup(self, inputs):
        _synth(["--out", str(inputs)])
        relabel(inputs, ("events.tsv", "labels.csv"), self.seed)

    def commands(self, inputs, out):
        return [["intervene", "--events", str(inputs / "events.tsv"),
                 "--labels", str(inputs / "labels.csv"), "--strategy", "greedy",
                 "--sizes", ",".join(map(str, GREEDY_SIZES)),
                 "--out", str(out / "greedy.csv")]]

    def check(self, out, stdout, fp):
        rows = [line.split(",") for line in _lines(out / "greedy.csv")[1:]]
        curve = [float(r[1]) for r in rows]
        require(tuple(int(r[0]) for r in rows) == GREEDY_SIZES, "unexpected sizes")
        require(curve[0] == 1.0 and _non_increasing(curve),
                "greedy curve does not start at 1.0 or rises")
        return (out / "greedy.csv").read_bytes()

    @contextmanager
    def warmup_probe(self):
        """Keep the rankings the command computes; the CLI does not print them."""
        import devgraph.cli
        rank = devgraph.cli.adaptive_greedy_ranking
        self._rankings: list = []

        def probe(*args, **kwargs):
            self._rankings.append(rank(*args, **kwargs))
            return self._rankings[-1]

        devgraph.cli.adaptive_greedy_ranking = probe
        try:
            yield
        finally:
            devgraph.cli.adaptive_greedy_ranking = rank

    def check_warmup(self):
        require(len(self._rankings) == 1 and len(self._rankings[0]) == max(GREEDY_SIZES),
                f"greedy ranking does not have {max(GREEDY_SIZES)} nodes")


def _synth(argv: list[str]) -> None:
    """`devgraph synth` at FIXTURE_SEED, quietly."""
    from devgraph.cli import main
    with redirect_stdout(io.StringIO()):
        rc = main(["synth", "--seed", str(FIXTURE_SEED), *argv])
    if rc != 0:
        raise RuntimeError(f"devgraph synth exited {rc}")


WORKLOADS = {w.name: w for w in (PipelineM, ExtractLog, FilesM, GreedyS)}
