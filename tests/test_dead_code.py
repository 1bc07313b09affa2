"""Every module-level function, class and UPPER_CASE constant of the
package, and every method of its module-level classes, is used by the
package itself.

A name counts as used when it is read (as a name that no local binding
shadows, or as an attribute) or imported in `src/` outside the body of its
own definition.  A method counts as used only when it is read as an
attribute or imported: a bare name of the same spelling, a call of the
builtin `set()` say, is no use of a method `set`.  A reference from `tests/` or `perfbench/` does not count:
code that only tests use belongs in `tests/`.  Dunder methods, which Python
calls itself, are exempt; so are the names in `EXEMPT`, each with its
reason.
"""

import ast
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "relviews")
EXEMPT = {
    ("fixtures.py", "fixture_path"):
        "CI locates fixtures in the installed package",
    **{("linearizability.py", name):
       "perfbench/run.py times the history sets in traced rounds"
       for name in ("concrete_histories", "abstract_histories")},
}


CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")
DUNDER = re.compile(r"__\w+__")


def _python_files():
    for dirpath, _dirs, files in os.walk(os.path.join(ROOT, "src")):
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
    """(name, line, bare) for every name read, attribute read and imported
    name, bare for a name read; a name read where a local of that name is
    bound is not counted."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        shadowed = shadowed | _local_names(node)
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        if node.id not in shadowed:
            yield node.id, node.lineno, True
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        yield node.attr, node.lineno, False
    elif isinstance(node, ast.alias):
        yield node.name, node.lineno, False
    for child in ast.iter_child_nodes(node):
        yield from _references(child, shadowed)


def _definitions(tree):
    """(label, name, node) of each module-level function, class and
    UPPER_CASE constant (a name, maybe `_`-prefixed, bound by a plain or
    annotated assignment), and of each non-dunder method of a module-level
    class, labelled `Class.method`."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not DUNDER.fullmatch(item.name)):
                    yield f"{node.name}.{item.name}", item.name, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if (isinstance(target, ast.Name)
                        and CONSTANT.fullmatch(target.id)):
                    yield target.id, target.id, node


def unreferenced_definitions(exempt=EXEMPT):
    """(file, name, line) of every package-level definition that `src/`
    never references, apart from the exempt ones."""
    trees = {}
    for path in _python_files():
        with open(path) as fh:
            trees[path] = ast.parse(fh.read(), path)
    uses = {}
    for path, tree in trees.items():
        for name, line, bare in _references(tree):
            uses.setdefault(name, []).append((path, line, bare))
    dead = []
    for path, tree in trees.items():
        if os.path.dirname(path) != PACKAGE:
            continue
        for label, name, node in _definitions(tree):
            if (os.path.basename(path), label) in exempt:
                continue
            method = "." in label
            outside = [
                (p, line) for p, line, bare in uses.get(name, ())
                if not (p == path and node.lineno <= line <= node.end_lineno)
                and not (method and bare)
            ]
            if not outside:
                dead.append((os.path.basename(path), label, node.lineno))
    return dead


def test_no_unreferenced_module_level_definitions():
    assert unreferenced_definitions() == []


def test_every_exemption_is_still_needed():
    """An exempt name that `src/` has come to use, or that is gone, comes
    off the list."""
    dead = unreferenced_definitions(exempt={})
    assert {(f, name) for f, name, _line in dead} == set(EXEMPT)
