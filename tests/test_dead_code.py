"""Every module-level function and class of the package is used somewhere.

A name counts as used when it is read (as a name that no local binding
shadows, or as an attribute) or imported in `src/`, `tests/` or
`perfbench/` outside the body of its own definition.  The console entry
point `cli.main` is the one exception: it is called from outside the
repository.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "relviews")
ENTRY_POINTS = {("cli.py", "main")}


def _python_files():
    for top in ("src", "tests", "perfbench"):
        for dirpath, _dirs, files in os.walk(os.path.join(ROOT, top)):
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.join(dirpath, name)


def _local_names(fn):
    """Names a function binds: its parameters and every name assigned,
    imported or defined in its body."""
    args = fn.args
    params = args.posonlyargs + args.args + args.kwonlyargs
    names = {a.arg for a in params + [args.vararg, args.kwarg] if a}
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif node is not fn and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def _references(node, shadowed=frozenset()):
    """(name, line) for every name read, attribute read and imported name;
    a name read where a local of that name is bound is not counted."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        shadowed = shadowed | _local_names(node)
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        if node.id not in shadowed:
            yield node.id, node.lineno
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        yield node.attr, node.lineno
    elif isinstance(node, ast.alias):
        yield node.name, node.lineno
    for child in ast.iter_child_nodes(node):
        yield from _references(child, shadowed)


def unreferenced_definitions():
    trees = {}
    for path in _python_files():
        with open(path) as fh:
            trees[path] = ast.parse(fh.read(), path)
    uses = {}
    for path, tree in trees.items():
        for name, line in _references(tree):
            uses.setdefault(name, []).append((path, line))
    dead = []
    for path, tree in trees.items():
        if os.path.dirname(path) != PACKAGE:
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            if (os.path.basename(path), node.name) in ENTRY_POINTS:
                continue
            outside = [
                (p, line) for p, line in uses.get(node.name, ())
                if not (p == path and node.lineno <= line <= node.end_lineno)
            ]
            if not outside:
                dead.append(f"{os.path.relpath(path, ROOT)}:{node.lineno} "
                            f"{node.name}")
    return dead


def test_no_unreferenced_module_level_definitions():
    assert unreferenced_definitions() == []
