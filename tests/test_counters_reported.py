"""Every counter that a reader or `build_trees` can set is one that
`cli._SKIP_REASONS` names, so the subcommands report it on stderr.

The counter names are collected from the AST of src/devgraph: the string
keys of `diagnostics[...]`, the reason strings passed to the readers that
count under a given reason, and the (reason, mask) pairs that
`DiffusionForest` loops over.
"""

import ast
from pathlib import Path

from devgraph.cli import _SKIP_REASONS

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "devgraph"

# the readers whose third argument, or `reason` keyword, names a counter
REASON_TAKERS = {"_coded_rows", "_file_codes", "_clean", "_csv_rows"}


def _text(node: ast.AST) -> str | None:
    return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else None


def counter_names() -> set[str]:
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name) \
                    and node.value.id == "diagnostics":
                names.add(_text(node.slice))
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id in REASON_TAKERS:
                args = node.args[2:3] + [k.value for k in node.keywords if k.arg == "reason"]
                names.update(map(_text, args))
            elif isinstance(node, ast.For) and isinstance(node.target, ast.Tuple) \
                    and isinstance(node.target.elts[0], ast.Name) \
                    and node.target.elts[0].id == "reason" and isinstance(node.iter, ast.Tuple):
                names.update(_text(pair.elts[0]) for pair in node.iter.elts
                             if isinstance(pair, ast.Tuple))
    names.discard(None)
    return names


def test_counter_names_are_found():
    """The scan sees each kind of site: a subscript, a reason argument and
    build_trees' pairs."""
    assert {"undecodable_lines", "malformed_events", "malformed_labels", "cyclic_posts",
            "multi_origin_posts"} <= counter_names()


def test_every_counter_is_reported():
    assert sorted(counter_names() - set(_SKIP_REASONS)) == []
