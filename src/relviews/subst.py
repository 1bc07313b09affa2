"""Instantiation of templates: logical variables and location placeholders.

Model files parametrize method bodies, assertions and actions by thread id,
argument and return value.  Instantiation substitutes integer bindings for
the corresponding logical variables and formats `{name}` placeholders
inside location strings; everything else is structural recursion.
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
from .vassn import (
    APt,
    BoxA,
    CPt,
    EmpA,
    ExistsA,
    OrA,
    PureA,
    StarA,
    TokA,
    TrueA,
    VAssn,
)

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


def subst_command(c: Command, b: Binding) -> Command:
    if isinstance(c, Skip):
        return c
    if isinstance(c, Prim):
        return Prim(PrimCommand(
            c.prim.name, tuple(subst_expr(a, b) for a in c.prim.args)))
    if isinstance(c, Seq):
        return Seq(subst_command(c.first, b), subst_command(c.second, b))
    if isinstance(c, Choice):
        return Choice(subst_command(c.left, b), subst_command(c.right, b))
    if isinstance(c, Iter):
        return Iter(subst_command(c.body, b))
    raise ModelError(f"unknown command node {c!r}")


def subst_vassn(a: VAssn, b: Binding) -> VAssn:
    if isinstance(a, (EmpA, TrueA)):
        return a
    if isinstance(a, CPt):
        return CPt(subst_loc(a.loc, b), subst_expr(a.value, b))
    if isinstance(a, APt):
        return APt(subst_loc(a.loc, b), subst_expr(a.value, b))
    if isinstance(a, TokA):
        return TokA(a.kind, subst_expr(a.tid, b), a.method,
                    subst_expr(a.arg, b), subst_expr(a.ret, b))
    if isinstance(a, PureA):
        return PureA(subst_expr(a.cond, b))
    if isinstance(a, StarA):
        return StarA(tuple(subst_vassn(p, b) for p in a.parts))
    if isinstance(a, OrA):
        return OrA(tuple(subst_vassn(p, b) for p in a.parts))
    if isinstance(a, ExistsA):
        inner = {k: v for k, v in b.items() if k != a.var}
        return ExistsA(a.var, subst_vassn(a.body, inner))
    if isinstance(a, BoxA):
        return BoxA(subst_vassn(a.body, b))
    raise ModelError(f"unknown assertion node {a!r}")


def subst_outline(node, b: Binding):
    from .logic import OChoice, OConseq, OIter, OPrim, OSeq, OSkip

    if isinstance(node, OPrim):
        return OPrim(PrimCommand(
            node.prim.name,
            tuple(subst_expr(a, b) for a in node.prim.args)))
    if isinstance(node, OSkip):
        return node
    if isinstance(node, OSeq):
        return OSeq(tuple(subst_outline(c, b) for c in node.children),
                    tuple(subst_vassn(m, b) for m in node.mids))
    if isinstance(node, OChoice):
        return OChoice(subst_outline(node.left, b), subst_outline(node.right, b))
    if isinstance(node, OIter):
        return OIter(subst_vassn(node.invariant, b),
                     subst_outline(node.body, b))
    if isinstance(node, OConseq):
        return OConseq(subst_vassn(node.pre, b),
                       subst_vassn(node.post, b),
                       subst_outline(node.inner, b))
    raise ModelError(f"unknown outline node {node!r}")
