"""Every public top-level function and class in src/devgraph has a caller
in src/ or demos/: nothing ships that only tests reach.

A name counts as used when it occurs, outside its own definition, in the
AST of some module under src/ or demos/ (as a name, an attribute or an
imported name). Names with a use that this cannot see go on ALLOWED with
the reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "devgraph"

ALLOWED = {
    "write_role_map_csv": "the writer for the --role-map input format of "
                          "connectivity, diffusion and intervene",
}


def _definitions(tree: ast.Module) -> dict[str, ast.AST]:
    return {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def _used_names(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names, attributes and imported names used in `tree`, leaving out the
    subtree `skip`."""
    names: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        stack.extend(ast.iter_child_nodes(node))
    return names


def _unused() -> list[str]:
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sources}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, node in _definitions(trees[path]).items():
            used = any(name in _used_names(tree, skip=node if other == path else None)
                       for other, tree in trees.items())
            if not used and name not in ALLOWED:
                unused.append(f"{path.name}:{name}")
    return unused


def test_every_public_definition_has_a_caller():
    assert _unused() == []


def test_allowlist_names_exist():
    """A stale allowlist entry would hide nothing, but it misleads."""
    defined = set()
    for path in PACKAGE.glob("*.py"):
        defined |= set(_definitions(ast.parse(path.read_text(encoding="utf-8"))))
    assert set(ALLOWED) <= defined
