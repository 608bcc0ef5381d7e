"""A UTF-8 byte order mark at the start of an input file is skipped and
counted as byte_order_mark, by every reader; anywhere else it is text.

Each reader is given a file of the seed-11 pipeline run and a copy of it
with a BOM in front: the copy reads as the same rows, and its diagnostics
are the clean file's plus byte_order_mark=1. A config file is read past a
BOM too; its reader raises on a bad line rather than counting, so no count
is kept there.
"""

from __future__ import annotations

from collections import Counter

import pytest

from devgraph import ingest
from devgraph.cli import _read_counts_csv, main
from devgraph.community import read_partition_csv, read_role_map_csv, write_role_map_csv
from devgraph.demographics import read_demographics_csv
from devgraph.diffusion import read_classes_csv, read_events_tsv
from devgraph.graph import LAYERS, load_graph, read_labels_csv
from devgraph.ingest import read_phrases, read_query_log
from devgraph.synth import read_config

from id_helpers import graph_edges, records
from log_helpers import event_rows, log_rows

BOM = b"\xef\xbb\xbf"


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("bom") / "run"
    assert main(["pipeline", "--seed", "11", "--out", str(out)]) == 0
    write_role_map_csv({0: "producer_one", 1: "outer", 2: "bridge_two"}, str(out / "role_map.csv"))
    (out / "counts.csv").write_text("node,count\np1_0000,3\np1_0001,x\nout_0002,1\n")
    return out


# file -> (reader, the rows it read, as plain values)
READERS = {
    "edges.tsv": (load_graph, lambda g: (g.node_ids, [graph_edges(g, name) for name in LAYERS])),
    "events.tsv": (read_events_tsv, event_rows),
    "log.tsv": (read_query_log, log_rows),
    "seeds.txt": (read_phrases, list),
    "labels.csv": (read_labels_csv, dict),
    "partition.csv": (read_partition_csv, dict),
    "role_map.csv": (read_role_map_csv, dict),
    "classes.csv": (read_classes_csv, dict),
    "demographics.csv": (read_demographics_csv, records),
    "counts.csv": (_read_counts_csv, dict),
}


def with_bom(path, tmp_path):
    copy = tmp_path / path.name
    copy.write_bytes(BOM + path.read_bytes())
    return copy


@pytest.mark.parametrize("name", sorted(READERS))
def test_leading_bom_is_skipped_and_counted(name, run_dir, tmp_path):
    reader, rows = READERS[name]
    clean, dirty = Counter(), Counter()
    want = rows(reader(str(run_dir / name), diagnostics=clean))
    got = rows(reader(str(with_bom(run_dir / name, tmp_path)), diagnostics=dirty))
    assert got == want
    assert dirty == clean + Counter(byte_order_mark=1)


def test_config_reads_past_a_bom(run_dir, tmp_path):
    assert read_config(str(with_bom(run_dir / "synth.cfg", tmp_path))) \
        == read_config(str(run_dir / "synth.cfg"))


def test_bom_after_the_start_is_text(tmp_path, monkeypatch):
    """A BOM that starts a later line, or a later chunk of a chunked
    reader, stays in the field it starts."""
    path = tmp_path / "seeds.txt"
    path.write_bytes(BOM + b"one\n" + BOM + b"two\n")
    diagnostics = Counter()
    assert read_phrases(str(path), diagnostics) == ["one", "\ufefftwo"]
    assert diagnostics == Counter(byte_order_mark=1)
    monkeypatch.setattr(ingest, "_CHUNK", 8)
    path = tmp_path / "edges.tsv"
    path.write_bytes(BOM + b"a\tb\t1\tF\n" + BOM + b"c\ta\t2\tR\n")
    diagnostics = Counter()
    g = load_graph(str(path), diagnostics)
    assert g.node_ids == ("a", "b", "\ufeffc")
    assert diagnostics == Counter(byte_order_mark=1)


def test_connectivity_on_bom_edges_writes_the_clean_matrix(run_dir, tmp_path, capsys):
    args = ["connectivity", "--labels", str(run_dir / "labels.csv")]
    assert main(args + ["--edges", str(run_dir / "edges.tsv"),
                        "--out", str(tmp_path / "clean.csv")]) == 0
    capsys.readouterr()
    assert main(args + ["--edges", str(with_bom(run_dir / "edges.tsv", tmp_path)),
                        "--out", str(tmp_path / "bom.csv")]) == 0
    assert "connectivity: skipped byte_order_mark=1 in edges.tsv" in capsys.readouterr().err
    assert (tmp_path / "bom.csv").read_bytes() == (tmp_path / "clean.csv").read_bytes()
