"""Every top-level function and class in src/devgraph, every private
module constant, and every public method and property of a public class,
has a caller in src/ or demos/: nothing ships that only tests reach.

A name counts as used when it occurs, outside its own definition (for a
constant, the statement that assigns it), in the AST of some module under
src/ or demos/ (as a name, an attribute or an imported name). A method counts as used when some call there is
`x.name(...)`, and a property when some attribute there is `x.name`, so
that an enum's `.value` does not keep a `value()` method alive. Names with
a use that this cannot see go on ALLOWED with the reason.

Every defaulted parameter of a public function or method is passed by some
call there, or it would be a constant: by keyword (to any callee, since
the readers are called through `cli._read`'s `reader`), by position or
through `*`/`**` in a call of the function by name. `main`'s `argv` is the
one exception: the console script calls `main()`, and tests pass it.
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


def _private_definitions(tree: ast.Module) -> dict[str, ast.AST]:
    """The private top-level functions and classes, and the statements
    that assign the private module constants."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        out.update((name, node) for name in names
                   if name.startswith("_") and not name.startswith("__"))
    return out


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


def _methods(tree: ast.Module) -> dict[str, tuple[ast.AST, bool]]:
    """Class.method -> (definition, is a property), over the public methods
    of the public classes."""
    out = {}
    for cls in _definitions(tree).values():
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and not node.name.startswith("_"):
                prop = any(isinstance(d, ast.Name) and d.id == "property"
                           for d in node.decorator_list)
                out[f"{cls.name}.{node.name}"] = node, prop
    return out


def _attribute_uses(tree: ast.AST, skip: ast.AST) -> tuple[set[str], set[str]]:
    """(attributes called as x.name(...), all attributes) in `tree`,
    leaving out the subtree `skip`."""
    called, seen = set(), set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            called.add(node.func.attr)
        elif isinstance(node, ast.Attribute):
            seen.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return called, seen | called


def _unused_methods() -> list[str]:
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sources}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualified, (node, prop) in _methods(trees[path]).items():
            name = qualified.split(".")[1]
            used = any(name in _attribute_uses(tree, node)[1 if prop else 0]
                       for tree in trees.values())
            if not used and qualified not in ALLOWED:
                unused.append(f"{path.name}:{qualified}")
    return unused


def _unused(definitions=_definitions) -> list[str]:
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sources}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, node in definitions(trees[path]).items():
            used = any(name in _used_names(tree, skip=node if other == path else None)
                       for other, tree in trees.items())
            if not used and name not in ALLOWED:
                unused.append(f"{path.name}:{name}")
    return unused


def test_every_public_definition_has_a_caller():
    assert _unused() == []


def test_every_private_definition_has_a_caller():
    assert _unused(_private_definitions) == []


def test_every_public_method_has_a_caller():
    assert _unused_methods() == []


def test_allowlist_names_exist():
    """A stale allowlist entry would hide nothing, but it misleads."""
    defined = set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined |= set(_definitions(tree)) | set(_methods(tree))
    assert set(ALLOWED) <= defined


def _callee(call: ast.Call) -> str | None:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _unpassed_defaults() -> list[str]:
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    calls = [node for path in sources
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call)]
    keywords = {k.arg for call in calls for k in call.keywords}
    unpassed = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [node for node in _definitions(tree).values()
                     if isinstance(node, ast.FunctionDef)]
        functions += [node for node, _ in _methods(tree).values()]
        for fn in functions:
            args = fn.args
            positional = args.posonlyargs + args.args
            # a method's self is not among a call's positional arguments
            shift = int(bool(positional) and positional[0].arg in ("self", "cls"))
            defaulted = [(i - shift, arg.arg) for i, arg in enumerate(positional)
                         if i >= len(positional) - len(args.defaults)]
            defaulted += [(None, arg.arg) for arg, default in zip(args.kwonlyargs,
                                                                  args.kw_defaults)
                          if default is not None]
            mine = [call for call in calls if _callee(call) == fn.name]
            spread = any(k.arg is None for call in mine for k in call.keywords)
            for i, name in defaulted:
                passed = name in keywords or spread or (i is not None and any(
                    len(call.args) > i or any(isinstance(a, ast.Starred) for a in call.args)
                    for call in mine))
                if not passed and (fn.name, name) != ("main", "argv"):
                    unpassed.append(f"{path.name}:{fn.name}({name})")
    return unpassed


def test_every_defaulted_parameter_is_passed():
    assert _unpassed_defaults() == []
