"""The one assertion language: view assertions.

Every assertion slot holds a view assertion: method pre/postcondition
families, the intermediate assertions, invariants and consequence
pre/posts of outlines, rely/guarantee actions and the RGSep shared
universe.  A view assertion describes a set of world fragments: singleton
concrete or abstract cells, token literals, pure facts, separating
conjunction, disjunction and finite existentials.  Boxed assertions
(shared-state fragments) and `true` are meaningful only for the RGSep
monoid; `model_io` admits them only where `RgsepMonoid` reads them, so
the box-free denotation `ViewMonoid.fragments`, which DCSL's
`eval_vassn` returns in every thread, never meets one.  Repartitioning
implication is not an assertion form: it is the side condition the outline
checker discharges at skip and consequence sites.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import Dict, Tuple, Union

from .command_lang import Expr, LVar, loc_placeholders, tree_node, walk
from .errors import ModelError


@tree_node
class EmpA:
    pass


@tree_node
class CPt:
    """Concrete singleton cell: loc |-> value."""

    loc: str
    value: Expr


@tree_node
class APt:
    """Abstract singleton cell: loc ~> value."""

    loc: str
    value: Expr


@tree_node
class TokA:
    """Token literal [kind(method(arg, ret))]_tid."""

    kind: str  # "todo" | "done"
    tid: int
    method: str
    arg: Expr
    ret: Expr


@tree_node
class PureA:
    """Pure fact over values; holds of the empty fragment only."""

    cond: Expr


@tree_node
class StarA:
    parts: Tuple["VAssn", ...]


@tree_node
class OrA:
    parts: Tuple["VAssn", ...]


@tree_node
class ExistsA:
    var: str
    body: "VAssn"


@tree_node
class TrueA:
    """Soaks up an arbitrary remainder; RGSep boxes only."""


@tree_node
class BoxA:
    """Shared-state assertion; must not be nested."""

    body: "VAssn"


VAssn = Union[EmpA, CPt, APt, TokA, PureA, StarA, OrA, ExistsA, TrueA, BoxA]


def free_lvars_expr(*trees) -> frozenset:
    """The logical variables in the trees (expressions or commands); no
    expression binds one."""
    return frozenset(n.name for n in walk(*trees) if isinstance(n, LVar))


@lru_cache(maxsize=None)
def free_lvars(a: VAssn) -> frozenset:
    """The logical variables free in an assertion, a location's `{name}`
    placeholders included; memoized, so each tree is walked once."""
    if isinstance(a, (EmpA, TrueA)):
        return frozenset()
    if isinstance(a, (CPt, APt)):
        return free_lvars_expr(a.value) | loc_placeholders(a.loc)
    if isinstance(a, TokA):
        return free_lvars_expr(a.tid, a.arg, a.ret)
    if isinstance(a, PureA):
        return free_lvars_expr(a.cond)
    if isinstance(a, (StarA, OrA)):
        out = frozenset()
        for p in a.parts:
            out |= free_lvars(p)
        return out
    if isinstance(a, ExistsA):
        return free_lvars(a.body) - {a.var}
    if isinstance(a, BoxA):
        return free_lvars(a.body)
    raise ModelError(f"unknown assertion node {a!r}")


@lru_cache(maxsize=None)
def _sorted_free(a: VAssn) -> tuple:
    return tuple(sorted(free_lvars(a)))


@lru_cache(maxsize=None)
def _free_values(a: VAssn):
    """An `itemgetter` of the values of the assertion's free logical
    variables, in name order; None when it has none."""
    names = _sorted_free(a)
    return itemgetter(*names) if names else None


def memo_key(rho: VAssn, interp: Dict[str, int]) -> tuple:
    """The key of an evaluation memo: the assertion and the interpretation's
    values of its free logical variables, the only ones an evaluation
    reads, in name order.  A name it does not mention, such as an
    instance's `a` in a thread's invariant, does not split its entries.
    An interpretation that lacks a free name keys on the (name, value)
    pairs it has, in a longer tuple that no full key equals."""
    get = _free_values(rho)
    if get is None:
        return (rho, ())
    try:
        return (rho, get(interp))
    except KeyError:
        return (rho, tuple((n, interp[n]) for n in _sorted_free(rho)
                           if n in interp), None)
