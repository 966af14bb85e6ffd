"""Every public name of the package has a caller in the program itself.

A public top-level function, class or constant of ``src/gl3schwarz`` must be
read by name somewhere in ``src/`` or ``perfbench/`` outside its own
definition.  Click commands are reached through the command line and are
skipped.  The package ``__init__`` is the documented import surface, but
re-exporting a name does not count as reading it: a re-exported function
or class also needs a reader outside ``__init__``, and a re-exported
constant must itself be read through the package.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gl3schwarz"
PROGRAM = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

# uncalled public names kept on purpose, one reason each
ALLOWED = {
    "picard.pullback_identity_check": "the refusing form of pullback_gaps, for one "
    "point or a stack, that the tests hold the order-five transform to",
    "picard.corollary52_check": "the refusing form of corollary52_gaps, in the same role",
}


def _is_command(node) -> bool:
    for deco in node.decorator_list:
        func = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(func, ast.Attribute) and func.attr in ("command", "group"):
            return True
    return False


def _definitions(tree):
    """(name, node) of each public top-level def, class or constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [] if _is_command(node) else [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            targets = []
        for name in targets:
            if not name.startswith("_"):
                yield name, node


def _loads(tree):
    """(name, node) of every name read, bare or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node


def _through_package(tree):
    """Names read from the package itself: gl3schwarz.X or from gl3schwarz import X."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "gl3schwarz":
            yield from (alias.name for alias in node.names)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "gl3schwarz"
        ):
            yield node.attr


def uncalled_names() -> list[str]:
    trees = {path: ast.parse(path.read_text(), str(path)) for path in PROGRAM}
    defs = {
        (path.stem, name): node
        for path, tree in trees.items()
        if path.parent == PACKAGE and path.stem != "__init__"
        for name, node in _definitions(tree)
    }
    reads: dict[str, list] = {}
    for path, tree in trees.items():
        for name, node in _loads(tree):
            reads.setdefault(name, []).append((path, node))
    via_package = {name for tree in trees.values() for name in _through_package(tree)}

    out = []
    for node in trees[PACKAGE / "__init__.py"].body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                key = (node.module, alias.name)
                routine = isinstance(defs.get(key), (ast.FunctionDef, ast.ClassDef))
                if not routine and alias.name not in via_package:
                    out.append(f"gl3schwarz.{alias.name}")
    for (module, name), node in defs.items():
        own = PACKAGE / f"{module}.py"
        callers = [
            use for path, use in reads.get(name, [])
            if path != PACKAGE / "__init__.py"
            and not (path == own and node.lineno <= use.lineno <= node.end_lineno)
        ]
        if not callers:
            out.append(f"{module}.{name}")
    return sorted(out)


def test_every_public_name_has_a_caller():
    missing = [name for name in uncalled_names() if name not in ALLOWED]
    assert not missing, f"public names with no caller in src/ or perfbench/: {missing}"


def test_allowed_names_are_still_uncalled():
    # an entry whose name gained a caller, or went away, is stale
    assert set(ALLOWED) <= set(uncalled_names())
