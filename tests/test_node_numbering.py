"""The analysis stages read one node numbering: no function in src/devgraph
walks the graph's `node_ids` or a forest's `ids` in Python, or looks ids
up one at a time, outside the named edges where ids become codes or turn
back into ids.

A function walks the ids when they are the iterable of a for loop or a
comprehension, a direct argument of a builtin or method that iterates
them (zip, sorted, set, np.fromiter, ...), or the right side of an `in`
test. Passing them whole to `id_codes`, `id_mask`, `len` or a writer is
not a walk.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "devgraph"

ID_ATTRIBUTES = {"node_ids", "ids"}
LOOKUPS = {"index_of", "has_node", "id_of"}
ITERATING = {"zip", "map", "enumerate", "filter", "sorted", "set", "frozenset", "dict",
             "list", "tuple", "fromiter", "difference", "union", "intersection",
             "issubset", "issuperset", "update", "extend", "Counter"}

# modules keyed by id by design
EXEMPT_MODULES = {
    "synth.py": "creates the ids",
}
# the readers and writers, where ids become codes and turn back
EXEMPT_FUNCTIONS = {
    "write_partition_csv": "writes partition.csv from the membership array",
    "write_demographics_csv": "writes demographics.csv from the table's columns",
}


def _mentions_ids(node: ast.AST) -> bool:
    return any(isinstance(sub, ast.Attribute) and sub.attr in ID_ATTRIBUTES
               for sub in ast.walk(node))


def _is_ids(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr in ID_ATTRIBUTES


def _callee(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _walks(fn: ast.AST) -> list[str]:
    """What in `fn` walks the ids or looks one up, by line."""
    found = []
    for node in ast.walk(fn):
        if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)) \
                and _mentions_ids(node.iter):
            found.append(f"line {node.iter.lineno}: iterates the ids")
        elif isinstance(node, ast.Call):
            name = _callee(node)
            if name in LOOKUPS:
                found.append(f"line {node.lineno}: calls {name}")
            elif name in ITERATING and any(map(_is_ids, node.args)):
                found.append(f"line {node.lineno}: {name} over the ids")
        elif isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.In, ast.NotIn)) and _is_ids(right)
                for op, right in zip(node.ops, node.comparators)):
            found.append(f"line {node.lineno}: `in` over the ids")
    return found


def _functions(tree: ast.Module):
    """Top-level functions and the methods of top-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item


def _violations(package: Path = PACKAGE) -> list[str]:
    out = []
    for path in sorted(package.glob("*.py")):
        if path.name in EXEMPT_MODULES:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, fn in _functions(tree):
            if name in EXEMPT_FUNCTIONS:
                continue
            out += [f"{path.name}:{name}: {what}" for what in _walks(fn)]
    return out


def test_no_stage_walks_the_ids():
    assert _violations() == []


def test_exemptions_exist():
    """A stale exemption hides nothing, but it misleads."""
    assert all((PACKAGE / name).is_file() for name in EXEMPT_MODULES)
    defined = set()
    for path in PACKAGE.glob("*.py"):
        defined |= {name for name, _ in _functions(ast.parse(path.read_text(encoding="utf-8")))}
    assert set(EXEMPT_FUNCTIONS) <= defined


def test_guard_sees_each_kind_of_walk(tmp_path):
    """Each rule fires on a function that breaks it, and the allowed forms
    pass."""
    (tmp_path / "stage.py").write_text(
        "def loop(g):\n    return [x for x in g.node_ids]\n"
        "def zipped(forest, a):\n    return dict(zip(forest.ids, a))\n"
        "def lookup(g, x):\n    return g.index_of(x)\n"
        "def member(g, x):\n    return x in g.node_ids\n"
        "def fine(g, keys):\n    return id_codes(g.node_ids, keys), len(g.node_ids)\n",
        encoding="utf-8")
    flagged = {line.split(":")[1] for line in _violations(tmp_path)}
    assert flagged == {"loop", "zipped", "lookup", "member"}
