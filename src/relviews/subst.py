"""Instantiation of commands: logical variables and location placeholders.

Model files parametrize method bodies and outline primitives by thread id,
argument and return value.  Instantiation substitutes integer bindings for
the corresponding logical variables and formats `{name}` placeholders
inside location strings; everything else is structural recursion, except
along a `Seq` chain, which is walked by a loop.
Assertions are not instantiated: they are evaluated under an
interpretation that holds the instance's bindings.
"""

from __future__ import annotations

from typing import Dict

from .command_lang import (
    And,
    Choice,
    Command,
    Const,
    Eq,
    Expr,
    Iter,
    LVar,
    Lt,
    Not,
    Or,
    Plus,
    Prim,
    PrimCommand,
    Read,
    Seq,
    Skip,
    Tid,
)
from .errors import ModelError

Binding = Dict[str, int]


class _Partial(dict):
    """Leaves unbound placeholders in place for later (runtime) resolution."""

    def __missing__(self, key):
        return "{" + key + "}"


def subst_loc(loc: str, b: Binding) -> str:
    if "{" not in loc:
        return loc
    return loc.format_map(_Partial(b))


def subst_expr(e: Expr, b: Binding) -> Expr:
    if isinstance(e, Const) or isinstance(e, Tid):
        return e
    if isinstance(e, LVar):
        if e.name in b:
            return Const(b[e.name])
        return e
    if isinstance(e, Read):
        return Read(subst_loc(e.loc, b))
    if isinstance(e, Plus):
        return Plus(subst_expr(e.a, b), subst_expr(e.b, b))
    if isinstance(e, Eq):
        return Eq(subst_expr(e.a, b), subst_expr(e.b, b))
    if isinstance(e, Lt):
        return Lt(subst_expr(e.a, b), subst_expr(e.b, b))
    if isinstance(e, Not):
        return Not(subst_expr(e.a, b))
    if isinstance(e, And):
        return And(subst_expr(e.a, b), subst_expr(e.b, b))
    if isinstance(e, Or):
        return Or(subst_expr(e.a, b), subst_expr(e.b, b))
    raise ModelError(f"unknown expression node {e!r}")


def subst_prim(p: PrimCommand, b: Binding) -> PrimCommand:
    return PrimCommand(p.name, tuple(subst_expr(a, b) for a in p.args))


def subst_command(c: Command, b: Binding) -> Command:
    # a body's statements form one right-nested `Seq` chain, as long as the
    # body: walk it with a loop, so the stack does not limit its length
    firsts = []
    while isinstance(c, Seq):
        firsts.append(c.first)
        c = c.second
    if isinstance(c, Skip):
        out = c
    elif isinstance(c, Prim):
        out = Prim(subst_prim(c.prim, b))
    elif isinstance(c, Choice):
        out = Choice(subst_command(c.left, b), subst_command(c.right, b))
    elif isinstance(c, Iter):
        out = Iter(subst_command(c.body, b))
    else:
        raise ModelError(f"unknown command node {c!r}")
    for first in reversed(firsts):
        out = Seq(subst_command(first, b), out)
    return out
