"""Every top-level name and every defaulted parameter of the package has a caller.

A top-level function, class or constant of ``src/gl3schwarz``, public or
private, and each method of a top-level class, must be read by name
somewhere in ``src/`` or ``perfbench/`` outside its own definition: a
private helper that only tests read is dead code too.  Click commands are
reached through the command line and are skipped, and so are dunder methods
and the ``convert`` of a click parameter type, which Python and click
call.  The package ``__init__`` is the documented import surface, but
re-exporting a name does not count as reading it: a re-exported function
or class also needs a reader outside ``__init__``, and a re-exported
constant must itself be read through the package.

A defaulted parameter of a top-level function or of a method of a
top-level class must be passed, by position or by keyword, by some call in
``src/`` or ``perfbench/``; a parameter no caller sets is a constant.  A
call does not set a parameter when it passes the default's own value (its
literal, or module constants equal to it), forwards a parameter of its own
function that nothing sets, or hands a class back attributes of its own
instances.  Calls are matched by name, and a class is called for its
``__init__``.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gl3schwarz"
PROGRAM = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

# uncalled names kept on purpose, one reason each
ALLOWED = {
    "jets.Jet.allclose": "Jet is the package's exported API; 22 test asserts compare jets with it",
}

# unset defaulted parameters kept on purpose, one reason each
ALLOWED_PARAMETERS = {
    "jets.Jet.allclose(tol)": "Jet is the package's exported API",
}


def _is_command(node) -> bool:
    for deco in node.decorator_list:
        func = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(func, ast.Attribute) and func.attr in ("command", "group"):
            return True
    return False


def _is_param_type(node) -> bool:
    return any(isinstance(b, ast.Attribute) and b.attr == "ParamType" for b in node.bases)


def _methods(node):
    """(Class.method, method, def) of each method a caller must read by name."""
    for fn in node.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        dunder = fn.name.startswith("__") and fn.name.endswith("__")
        if not dunder and not (fn.name == "convert" and _is_param_type(node)):
            yield f"{node.name}.{fn.name}", fn.name, fn


def _definitions(tree):
    """(qualified name, name, node) of each top-level def, class or constant,
    and of each method of a top-level class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from _methods(node)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [] if _is_command(node) else [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            targets = []
        for name in targets:
            if not (name.startswith("__") and name.endswith("__")):
                yield name, name, node


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
        (path.stem, qualified): (name, node)
        for path, tree in trees.items()
        if path.parent == PACKAGE and path.stem != "__init__"
        for qualified, name, node in _definitions(tree)
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
                routine = isinstance(defs.get(key, (None, None))[1], (ast.FunctionDef, ast.ClassDef))
                if not routine and alias.name not in via_package:
                    out.append(f"gl3schwarz.{alias.name}")
    for (module, qualified), (name, node) in defs.items():
        own = PACKAGE / f"{module}.py"
        callers = [
            use for path, use in reads.get(name, [])
            if path != PACKAGE / "__init__.py"
            and not (path == own and node.lineno <= use.lineno <= node.end_lineno)
        ]
        if not callers:
            out.append(f"{module}.{qualified}")
    return sorted(out)


def test_every_public_name_has_a_caller():
    missing = [name for name in uncalled_names() if name not in ALLOWED]
    assert not missing, f"names with no caller in src/ or perfbench/: {missing}"


def test_allowed_names_are_still_uncalled():
    # an entry whose name gained a caller, or went away, is stale
    assert set(ALLOWED) <= set(uncalled_names())


def _defaulted(fn, skip: int):
    """(name, position or None, default) of each defaulted parameter of fn.

    skip is the number of leading parameters a call does not pass (self, cls).
    """
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for k, (arg, default) in enumerate(zip(positional[first:], args.defaults), first - skip):
        yield arg.arg, k, default
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None, default


def _parameters(trees):
    """Each defaulted parameter, as (key, callee name, def node, attributes its
    class stores, parameter name, call position, default)."""
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not _is_command(node):
                for name, pos, default in _defaulted(node, 0):
                    yield f"{path.stem}.{node.name}({name})", node.name, node, set(), name, pos, default
            elif isinstance(node, ast.ClassDef):
                stored = {
                    t.attr for t in ast.walk(node)
                    if isinstance(t, ast.Attribute) and isinstance(t.ctx, ast.Store)
                }
                for fn in node.body:
                    if not isinstance(fn, ast.FunctionDef):
                        continue
                    static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
                    callee = node.name if fn.name == "__init__" else fn.name
                    for name, pos, default in _defaulted(fn, 0 if static else 1):
                        key = f"{path.stem}.{node.name}.{fn.name}({name})"
                        yield key, callee, fn, stored, name, pos, default


def _calls(trees):
    """(module, enclosing function or None, call) of every call by name."""
    for path, tree in trees.items():
        def walk(node, fn):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.Call):
                    yield path, fn, child
                inner = child if isinstance(child, (ast.FunctionDef, ast.Lambda)) else fn
                yield from walk(child, inner)

        yield from walk(tree, None)


def _passed(call, name, pos):
    """The expression call passes for the parameter, or None."""
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    given = 0
    for arg in call.args:
        if isinstance(arg, ast.Starred):
            break
        given += 1
    return call.args[pos] if pos is not None and pos < given else None


def _is_default(arg, default, namespace) -> bool:
    """Whether arg is the default's own literal, or module constants equal to it."""
    if ast.dump(arg) == ast.dump(default):
        return True
    nodes = list(ast.walk(arg))
    names = {n.id for n in nodes if isinstance(n, ast.Name)}
    if not names or not names <= namespace.keys():
        return False
    if not all(isinstance(n, (ast.Tuple, ast.Name, ast.Constant, ast.Load)) for n in nodes):
        return False
    try:
        return bool(eval(ast.unparse(arg), dict(namespace)) == ast.literal_eval(default))
    except ValueError:  # a default that is no literal, or an array compared
        return False


def unset_parameters() -> list[str]:
    trees = {path: ast.parse(path.read_text(), str(path)) for path in PROGRAM}
    namespaces = {
        path: vars(importlib.import_module(f"gl3schwarz.{path.stem}"))
        for path in trees if path.parent == PACKAGE
    }
    params = list(_parameters(trees))
    calls = list(_calls(trees))
    # a setter is True, or the key of the calling function's own defaulted
    # parameter that it forwards by name: that sets the callee's parameter
    # once the forwarded one is set
    own = {(fn, name): key for key, _, fn, _, name, _, _ in params}
    setters = {}
    for key, callee, fn, stored, name, pos, default in params:
        setters[key] = []
        for path, caller, call in calls:
            func = call.func
            if getattr(func, "id", getattr(func, "attr", None)) != callee or caller is fn:
                continue
            arg = _passed(call, name, pos)
            if arg is None or _is_default(arg, default, namespaces.get(path, {})):
                continue
            leaves = arg.elts if isinstance(arg, ast.Tuple) else [arg]
            if all(isinstance(a, ast.Attribute) and a.attr in stored for a in leaves):
                continue  # a class's own state handed back to it
            setters[key].append(isinstance(arg, ast.Name) and own.get((caller, arg.id)) or True)
    # an allowed parameter counts as set for what it forwards
    done = set()
    while True:
        live = done | set(ALLOWED_PARAMETERS)
        more = {k for k, found in setters.items() if k not in done and any(s is True or s in live for s in found)}
        if not more:
            return sorted(set(setters) - done)
        done |= more


def test_every_defaulted_parameter_is_passed():
    missing = [key for key in unset_parameters() if key not in ALLOWED_PARAMETERS]
    assert not missing, f"defaulted parameters no call in src/ or perfbench/ passes: {missing}"


def test_allowed_parameters_are_still_unset():
    assert set(ALLOWED_PARAMETERS) <= set(unset_parameters())


def test_no_module_names_linalg():
    # the rules are recurrences and the 3x3 determinants and solves closed
    # forms: no LAPACK routine, whose bits depend on the library build
    assert [p.name for p in sorted(PACKAGE.glob("*.py")) if "linalg" in p.read_text()] == []


def _in_import_error_handler(tree):
    """The ids of the nodes inside an `except ImportError` handler."""
    inside = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and getattr(node.type, "id", None) == "ImportError":
            inside |= {id(n) for stmt in node.body for n in ast.walk(stmt)}
    return inside


def test_no_module_draws_from_numpy_random_or_hashes_with_openssl():
    # a report draws from the stdlib Mersenne Twister and hashes its seeds
    # with the interpreter's own SHA-256; hashlib is only the fallback of an
    # interpreter built without it
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        fallback = _in_import_error_handler(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in ("np", "numpy"):
                names = [f"numpy.{node.attr}"]
            else:
                continue
            for name in names:
                root = name.split(".")[0]
                if name.startswith("numpy.random") or root == "secrets" or (
                    root == "hashlib" and id(node) not in fallback
                ):
                    found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


def test_no_module_multiplies_with_matmul():
    # numpy hands `@` on blasable operands to BLAS, whose last bits depend on
    # the library build; einsum and explicit sums run numpy's own loops
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
    ]
    assert found == []
