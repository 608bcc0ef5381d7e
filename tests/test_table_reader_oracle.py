"""The six comma-separated table readers against the per-table loops they
replaced, kept here verbatim as oracles, each reading through the header
mode of `decoded_lines` that only they used.

The readers now share `ingest._csv_rows` and its rules. They differ from
the oracles on two kinds of row only, which the rules skip and count:
- a row whose first field is empty (`,0` in partition.csv); the old
  readers other than labels.csv kept it as a node with an empty id;
- a row whose field count differs from the header's; labels.csv and the
  role map kept the rest of the line as the group or role (`b,bridge,y`),
  and the role map read a row with no comma as a community with role "".
On every other row the readers equal the oracles, counters included.
"""

from __future__ import annotations

import os
import tempfile
from collections import Counter
from collections.abc import Iterator

from hypothesis import given, settings
from hypothesis import strategies as st

from devgraph.cli import _read_counts_csv, main
from devgraph.community import read_partition_csv, read_role_map_csv
from devgraph.demographics import GENDERS, read_demographics_csv
from devgraph.diffusion import ConsumerClass, read_classes_csv
from devgraph.graph import read_labels_csv
from devgraph.ingest import decoded_lines

from id_helpers import records
from id_oracles import DemographicRecord

# -- the oracles ---------------------------------------------------------------


def oracle_decoded_lines(path: str, diagnostics: Counter | None = None,
                         header: str | None = None) -> Iterator[str]:
    """`decoded_lines` with its former `header` parameter: for a CSV with a
    `header`, lines are stripped and the header line (in any case) is left
    out."""
    for line in decoded_lines(path, diagnostics):
        if header is not None:
            line = line.strip()
            if line.lower() == header:
                continue
        if line:
            yield line


def oracle_read_labels_csv(path: str, diagnostics: Counter | None = None) -> dict[str, str]:
    if diagnostics is None:
        diagnostics = Counter()
    labels: dict[str, str] = {}
    for line in oracle_decoded_lines(path, diagnostics, header="node,group"):
        node, _, group = line.partition(",")
        if node and group:
            labels[node] = group
        else:
            diagnostics["malformed_labels"] += 1
    return labels


def oracle_read_partition_csv(path: str, diagnostics: Counter | None = None) -> dict[str, int]:
    if diagnostics is None:
        diagnostics = Counter()
    out: dict[str, int] = {}
    for line in oracle_decoded_lines(path, diagnostics, header="node,community"):
        node, _, c = line.partition(",")
        try:
            out[node] = int(c)
        except ValueError:
            diagnostics["malformed_rows"] += 1
    return out


def oracle_read_role_map_csv(path: str, diagnostics: Counter | None = None) -> dict[int, str]:
    if diagnostics is None:
        diagnostics = Counter()
    out: dict[int, str] = {}
    for line in oracle_decoded_lines(path, diagnostics, header="community,role"):
        c, _, role = line.partition(",")
        try:
            out[int(c)] = role
        except ValueError:
            diagnostics["malformed_rows"] += 1
    return out


def oracle_read_classes_csv(path: str,
                            diagnostics: Counter | None = None) -> dict[str, ConsumerClass]:
    if diagnostics is None:
        diagnostics = Counter()
    out: dict[str, ConsumerClass] = {}
    for line in oracle_decoded_lines(path, diagnostics, header="node,class"):
        node, _, value = line.partition(",")
        try:
            out[node] = ConsumerClass(value)
        except ValueError:
            diagnostics["malformed_rows"] += 1
    return out


def oracle_read_demographics_csv(path: str, diagnostics: Counter | None = None
                                 ) -> dict[str, DemographicRecord]:
    if diagnostics is None:
        diagnostics = Counter()
    out: dict[str, DemographicRecord] = {}
    for line in oracle_decoded_lines(path, diagnostics, header="node,age,gender"):
        parts = line.split(",")
        if len(parts) != 3:
            diagnostics["malformed_demographics"] += 1
            continue
        node, age_text, gender = parts
        try:
            age = int(age_text)
        except ValueError:
            diagnostics["malformed_demographics"] += 1
            continue
        if not 0 < age < 120:
            diagnostics["age_out_of_range"] += 1
            continue
        gender = gender.strip().lower()
        if gender not in GENDERS:
            gender = "unknown"
        out[node] = DemographicRecord(node=node, age=age, gender=gender)
    return out


def oracle_read_counts_csv(path: str, diagnostics: Counter) -> dict[str, int]:
    out: dict[str, int] = {}
    for line in oracle_decoded_lines(path, diagnostics, header="node,count"):
        node, _, value = line.partition(",")
        try:
            out[node] = int(value)
        except ValueError:
            diagnostics["malformed_rows"] += 1
    return out


def read_demographics_by_id(path: str, diagnostics: Counter) -> dict[str, DemographicRecord]:
    """The coded table that read_demographics_csv reads, as a dict of records."""
    return records(read_demographics_csv(path, diagnostics))


# -- random tables ---------------------------------------------------------------

KEYS = (b"a", b"b", b"c", b"\xc3\xa9", b" a", b"a ", b"", b"  ")
INTS = (b"0", b"3", b"-1", b" 2", b"7 ", b"1.5", b"x", b"", b"120", b"15", b"30")
WORDS = (b"outer", b"producer_one", b"bridge", b"a b", b" outer", b"", b"y")
CLASSES = tuple(c.value.encode() for c in ConsumerClass) + (b"bogus", b"", b" producer")
GENDER_TEXT = (b"male", b"Female", b" MALE ", b"other", b"", b"f")

# name -> (new reader, oracle, header, skip reason, a value pool per column)
TABLES = {
    "labels": (read_labels_csv, oracle_read_labels_csv, "node,group", "malformed_labels",
               (KEYS, WORDS)),
    "partition": (read_partition_csv, oracle_read_partition_csv, "node,community",
                  "malformed_rows", (KEYS, INTS)),
    "role_map": (read_role_map_csv, oracle_read_role_map_csv, "community,role",
                 "malformed_rows", (INTS, WORDS)),
    "classes": (read_classes_csv, oracle_read_classes_csv, "node,class", "malformed_rows",
                (KEYS, CLASSES)),
    "demographics": (read_demographics_by_id, oracle_read_demographics_csv, "node,age,gender",
                     "malformed_demographics", (KEYS, INTS, GENDER_TEXT)),
    "counts": (_read_counts_csv, oracle_read_counts_csv, "node,count", "malformed_rows",
               (KEYS, INTS)),
}

LINE_BREAKS = (b"\n", b"\r", b"\r\n")
PADDING = (b"", b"", b" ", b"\t", b"  ")


@st.composite
def table_lines(draw, header: str, pools: tuple) -> list[bytes]:
    """Lines (without their breaks) of a table: blank lines, then the header
    in any case or no header, then rows of one field too few, the header's
    count or one too many, from pools that hold empty and padded fields and
    repeated keys, blank lines, and lines that are not UTF-8."""
    width = len(pools)
    headers = st.sampled_from([header, header.upper(), header.title(),
                               header.swapcase()]).map(str.encode)

    @st.composite
    def row(draw):
        n = draw(st.sampled_from((width - 1, width, width, width, width + 1)))
        fields = [draw(st.sampled_from(pools[min(i, width - 1)])) for i in range(max(n, 1))]
        return b",".join(fields)

    blank = st.sampled_from((b"", b"  "))
    line = st.one_of(row(), row(), row(), row(), blank, row().map(lambda r: r + b"\xff"))
    lines = (draw(st.lists(blank, max_size=2)) + draw(st.lists(headers, max_size=1))
             + draw(st.lists(line, max_size=14)))
    return [draw(st.sampled_from(PADDING)) + body + draw(st.sampled_from(PADDING))
            for body in lines]


def touched(line: bytes, header: str) -> bool:
    """A row where the shared rules and the oracle part: it decodes, is
    neither blank nor the header, and has an empty first field or a field
    count other than the header's."""
    try:
        text = line.decode("utf-8").strip()
    except UnicodeDecodeError:
        return False
    if not text or text.lower() == header:
        return False
    fields = text.split(",")
    return len(fields) != header.count(",") + 1 or not fields[0]


def read(reader, lines: list[bytes], breaks: list[bytes]):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.csv")
        with open(path, "wb") as fh:
            fh.write(b"".join(line + brk for line, brk in zip(lines, breaks)))
        diagnostics = Counter()
        return reader(path, diagnostics=diagnostics), diagnostics


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(TABLES)), st.data())
def test_table_readers_match_oracle(name, data):
    """The reader on the whole table equals the oracle on the table without
    the rows that the rules now skip, plus one count per such row."""
    reader, oracle, header, reason, pools = TABLES[name]
    lines = data.draw(table_lines(header, pools))
    breaks = data.draw(st.lists(st.sampled_from(LINE_BREAKS), min_size=len(lines),
                                max_size=len(lines)))
    kept = [(line, brk) for line, brk in zip(lines, breaks) if not touched(line, header)]
    got, got_diagnostics = read(reader, lines, breaks)
    want, want_diagnostics = read(oracle, *zip(*kept)) if kept else ({}, Counter())
    n_touched = len(lines) - len(kept)
    if n_touched:
        want_diagnostics[reason] += n_touched
    assert got == want
    assert got_diagnostics == want_diagnostics


# -- the two rows that changed, end to end ---------------------------------------


def test_empty_node_id_is_not_a_producer(tmp_path, capsys):
    """A partition row `,0` with community 0 mapped to producer made a
    phantom producer with an empty id: classes.csv gained a `,producer`
    row and the amplification halved. It is skipped and counted now."""
    (tmp_path / "edges.tsv").write_text("a\tp\t1\tF\nc\ta\t1\tR\n")
    (tmp_path / "events.tsv").write_text("a\tp\tpost_1\t1\n")
    (tmp_path / "partition.csv").write_text("node,community\np,0\na,1\nc,1\n,0\n")
    (tmp_path / "map.csv").write_text("community,role\n0,producer\n1,outer\n")
    out = tmp_path / "diffusion"
    assert main(["diffusion", "--edges", str(tmp_path / "edges.tsv"),
                 "--events", str(tmp_path / "events.tsv"),
                 "--partition", str(tmp_path / "partition.csv"),
                 "--role-map", str(tmp_path / "map.csv"), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out == "diffusion: trees=1 amplification=1.0\n"
    assert captured.err == "diffusion: skipped malformed_rows=1 in partition.csv\n"
    assert (out / "classes.csv").read_text() == \
        "node,class\na,active_direct\nc,unexposed\np,producer\n"


def test_extra_field_does_not_become_a_group(tmp_path, capsys):
    """A labels row `b,bridge,y` gave group `bridge,y`, whose comma shifted
    the matrix header by one column. It is skipped and counted now, so the
    header has one name per value column."""
    (tmp_path / "edges.tsv").write_text("a\tp\t2\tR\np\ta\t1\tR\n")
    (tmp_path / "labels.csv").write_text("node,group\na,outer\nb,bridge,y\np,producer_x\n")
    out = tmp_path / "matrix.csv"
    assert main(["connectivity", "--edges", str(tmp_path / "edges.tsv"),
                 "--labels", str(tmp_path / "labels.csv"), "--mode", "avg_volume",
                 "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()]
    assert rows[0] == ["origin", "outer", "producer_x"]
    assert all(len(row) == len(rows[0]) for row in rows)
    assert capsys.readouterr().err == "connectivity: skipped malformed_labels=1 in labels.csv\n"
