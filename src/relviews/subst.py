"""Instantiation of commands: logical variables and location placeholders.

Model files parametrize method bodies and outline primitives by thread id,
argument and return value.  Instantiation substitutes integer bindings for
the corresponding logical variables and formats `{name}` placeholders
inside location strings.  Only those two node classes get a meaning here:
`command_lang.rebuild` copies the rest of any tree (an expression, a
primitive or a command) from each node's fields.
Assertions are not instantiated: they are evaluated under an
interpretation that holds the instance's bindings.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict

from .command_lang import (Const, LVar, Read, expr_locs, loc_placeholders,
                           rebuild, walk)

Binding = Dict[str, int]


class _Partial(dict):
    """Leaves unbound placeholders in place for later (runtime) resolution."""

    def __missing__(self, key):
        return "{" + key + "}"


def subst(node, b: Binding):
    """The tree at node with each logical variable that b binds replaced
    by its value, and b's `{name}` placeholders formatted in each read
    location.  A subtree that reads no name b binds is kept as it is."""
    def leaf(n):
        if b.keys().isdisjoint(subst_names(n)):
            return n
        if type(n) is LVar:
            return Const(b[n.name])
        if type(n) is Read:
            return Read(n.loc.format_map(_Partial(b)))
        return None

    return rebuild(node, leaf)


@lru_cache(maxsize=None)
def subst_names(node) -> tuple:
    """The names `subst` reads in the tree at node, sorted: its logical
    variables and the `{name}` placeholders of its read locations;
    memoized, as `vassn.free_lvars` is."""
    names = {n.name for n in walk(node) if type(n) is LVar}
    return tuple(sorted(names.union(*map(loc_placeholders, expr_locs(node)))))
