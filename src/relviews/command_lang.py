"""Sequential commands and their two-level small-step semantics.

Commands are finite trees over primitives, sequencing, binary choice and
finite iteration.  Stepping is split into a stateless relation on command
shapes and a stateful one that additionally runs the fired primitive.
Every primitive is a guarded update: a model declares its own, and each
builtin is one (`builtin_update`).  Conditionals and loops are encodings
on top of assume.

Trees are hash-consed and hash by identity (`tree_node`).  Structure is
walked generically: `walk` and `rebuild` read each node's fields, so
copying or searching a tree of expressions, primitives, commands or
assertions names no node class.  Meaning is given per class, where an
expression is compiled to a closure once per node (`eval_expr`) and a
command is stepped once per node (`step`).
"""

from __future__ import annotations

from _string import formatter_parser
from functools import lru_cache
from typing import (Callable, Dict, Iterator, NamedTuple, Optional, Tuple,
                    Union)

from .errors import ModelError, UndefinedLocation
from .state_model import FAULT, Heap, HeapState

# ---------------------------------------------------------------------------
# Immutable tree nodes

# Every tree node built in this process, keyed by (class, field tuple).
_NODES: dict = {}
# Every class decorated with `tree_node`.
_NODE_CLASSES: set = set()


def tree_node(cls):
    """Class decorator for an immutable tree node, hash-consed: the fields
    are the class's annotated names, and constructing a node returns the
    one node of that class with equal fields, so equal trees are one object
    and equality is identity.  Like the `step`, `free_lvars` and compiled
    expression caches, `_NODES` keeps every distinct node for the life of
    the process.

    A node hashes by identity, in C, as `state_model`'s heaps and token
    maps do, so set and dict order of nodes follows object addresses and
    no report may depend on it.  `__reduce__` rebuilds a node through the
    constructor, so an unpickled or copied node is the canonical node of
    its process.  Unlike the maps' tables, `_NODES` holds its nodes
    strongly.

    A node also records its parts, the nodes among its fields (`_parts`),
    which `walk` and `rebuild` read.
    """
    # not `vars(cls)["__annotations__"]`, which lazily evaluated
    # annotations (PEP 649, Python 3.14) leave out of the class dict; the
    # attribute is the class's own annotations from Python 3.10 on
    names = tuple(cls.__annotations__)
    defaults = {n: vars(cls)[n] for n in names if n in vars(cls)}

    def __new__(klass, *args, **kwargs):
        if kwargs or len(args) != len(names):
            args = _bind(names, defaults, args, kwargs)
        key = (klass, args)
        node = _NODES.get(key)
        if node is None:
            node = object.__new__(klass)
            node.__dict__.update(zip(names, args), _parts=_parts(args))
            node = _NODES.setdefault(key, node)
        return node

    def __reduce__(self):
        return (type(self), tuple([getattr(self, n) for n in names]))

    def __repr__(self):
        inner = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{type(self).__qualname__}({inner})"

    def frozen(self, name, *value):
        raise AttributeError(f"cannot assign or delete field {name!r}")

    cls._fields = names
    cls.__new__ = staticmethod(__new__)
    cls.__reduce__ = __reduce__
    cls.__setattr__ = cls.__delattr__ = frozen
    if "__repr__" not in vars(cls):
        cls.__repr__ = __repr__
    _NODE_CLASSES.add(cls)
    return cls


def _bind(names: tuple, defaults: dict, args: tuple, kwargs: dict) -> tuple:
    """A node's field values in field order, from its constructor's
    arguments and the fields' `defaults`, raising the `TypeError`s that
    `inspect.Signature.bind` raises for the same call."""
    for name in names[:len(args)]:
        if name in kwargs:
            raise TypeError(f"multiple values for argument {name!r}")
    if len(args) > len(names):
        raise TypeError("too many positional arguments")
    values = list(args)
    for name in names[len(args):]:
        if name in kwargs:
            values.append(kwargs.pop(name))
        elif name in defaults:
            values.append(defaults[name])
        else:
            raise TypeError(f"missing a required argument: {name!r}")
    if kwargs:
        raise TypeError(
            f"got an unexpected keyword argument {next(iter(kwargs))!r}")
    return tuple(values)


def _parts(fields: tuple) -> tuple:
    """The nodes among a node's fields, the items of a tuple field
    included, in field order."""
    return tuple(v for value in fields
                 for v in (value if type(value) is tuple else (value,))
                 if type(v) in _NODE_CLASSES)


def _with_parts(node, parts: list):
    """The node of node's class with node's fields, its parts (as `_parts`
    lists them) replaced by `parts` in order."""
    new = iter(parts)

    def swap(value):
        return next(new) if type(value) in _NODE_CLASSES else value

    return type(node)(*[
        tuple(map(swap, value)) if type(value) is tuple else swap(value)
        for value in (getattr(node, name) for name in node._fields)])


def walk(*roots) -> Iterator:
    """Every node of the trees at `roots`, a node before its parts, a
    shared subtree once per occurrence.  The walk keeps an explicit stack,
    so a deep tree (a body's `Seq` chain, say) does not meet the
    recursion limit."""
    todo = list(roots)
    while todo:
        node = todo.pop()
        yield node
        todo += node._parts


def rebuild(node, leaf: Callable):
    """The tree at `node` rebuilt bottom up: each subtree for which
    `leaf` returns a node is replaced by that node, and every other node
    is built again from its rebuilt parts, or kept where they come back
    unchanged.  An explicit stack, as in `walk`."""
    todo, done = [node], []  # done: the rebuilt subtrees, in order
    while todo:
        n = todo.pop()
        if type(n) is tuple:  # (node, count): its parts are rebuilt
            n, count = n
            parts = done[-count:]
            del done[-count:]
            done.append(n if tuple(parts) == n._parts
                        else _with_parts(n, parts))
            continue
        out = leaf(n)
        parts = n._parts if out is None else ()
        if parts:
            todo.append((n, len(parts)))
            todo += reversed(parts)
        else:
            done.append(n if out is None else out)
    return done[0]


# ---------------------------------------------------------------------------
# Expressions


@tree_node
class Const:
    value: int


@tree_node
class LVar:
    name: str


@tree_node
class Read:
    loc: str


@tree_node
class Tid:
    pass


@tree_node
class Plus:
    a: "Expr"
    b: "Expr"


@tree_node
class Eq:
    a: "Expr"
    b: "Expr"


@tree_node
class Lt:
    a: "Expr"
    b: "Expr"


@tree_node
class Not:
    a: "Expr"


@tree_node
class And:
    a: "Expr"
    b: "Expr"


@tree_node
class Or:
    a: "Expr"
    b: "Expr"


Expr = Union[Const, LVar, Read, Tid, Plus, Eq, Lt, Not, And, Or]


def loc_placeholders(loc: str) -> frozenset:
    """The names of the `{name}` placeholders in a location, as
    `string.Formatter().parse` finds them: it returns this parser's
    iterator, which raises `ValueError` at a stray brace."""
    return frozenset(f for _, f, _, _ in formatter_parser(loc)
                     if f is not None)


def resolve_loc(loc: str, t: int) -> str:
    """Thread-local cells: `{t}` in a location resolves to the executing
    thread at transformer-application time."""
    if "{" in loc:
        return loc.format_map({"t": t})
    return loc


def eval_expr(e: Expr, sigma: Heap, interp: Dict[str, int], t: int, modulus: int) -> int:
    """Total evaluation over the declared values; raises UndefinedLocation
    when a read location is absent from the state.  Runs e's closure,
    compiled on first use."""
    return _compiled(e)(sigma, interp, t, modulus)


@lru_cache(maxsize=None)
def _compiled(e: Expr) -> Callable[[Heap, Dict[str, int], int, int], int]:
    """e as a closure over (sigma, interp, t, modulus), one per hash-consed
    node for the life of the process, as `step`'s cache is (Feeley and
    Lapalme, Computer Languages 1987).  `and` and `or` skip their right
    side as Python's do, and a node of no expression class raises only
    when it is evaluated."""
    kind = type(e)
    if kind is Const:
        value = e.value
        return lambda sigma, interp, t, modulus: value
    if kind is LVar:
        name = e.name
        return lambda sigma, interp, t, modulus: interp[name]
    if kind is Read:
        loc = e.loc

        def read(sigma, interp, t, modulus):
            where = resolve_loc(loc, t)
            v = sigma.get(where)
            if v is None:
                raise UndefinedLocation(where)
            return v
        return read
    if kind is Tid:
        return lambda sigma, interp, t, modulus: t
    if kind is Not:
        a = _compiled(e.a)
        return lambda sigma, interp, t, modulus: int(
            a(sigma, interp, t, modulus) == 0)
    if kind in (Plus, Eq, Lt, And, Or):
        a, b = _compiled(e.a), _compiled(e.b)
    if kind is Plus:
        return lambda sigma, interp, t, modulus: (
            a(sigma, interp, t, modulus)
            + b(sigma, interp, t, modulus)) % modulus
    if kind is Eq:
        return lambda sigma, interp, t, modulus: int(
            a(sigma, interp, t, modulus) == b(sigma, interp, t, modulus))
    if kind is Lt:
        return lambda sigma, interp, t, modulus: int(
            a(sigma, interp, t, modulus) < b(sigma, interp, t, modulus))
    if kind is And:
        return lambda sigma, interp, t, modulus: int(
            a(sigma, interp, t, modulus) != 0
            and b(sigma, interp, t, modulus) != 0)
    if kind is Or:
        return lambda sigma, interp, t, modulus: int(
            a(sigma, interp, t, modulus) != 0
            or b(sigma, interp, t, modulus) != 0)

    def unknown(sigma, interp, t, modulus):
        raise ModelError(f"unknown expression node {e!r}")
    return unknown


def expr_locs(*trees) -> frozenset:
    """The locations read in the trees, placeholders unresolved."""
    return frozenset(n.loc for n in walk(*trees) if isinstance(n, Read))


# ---------------------------------------------------------------------------
# Commands


@tree_node
class PrimCommand:
    name: str
    args: Tuple[Expr, ...] = ()

    def __repr__(self):
        if not self.args:
            return self.name
        return f"{self.name}({', '.join(map(repr, self.args))})"


@tree_node
class Prim:
    prim: PrimCommand


@tree_node
class Seq:
    first: "Command"
    second: "Command"


@tree_node
class Choice:
    left: "Command"
    right: "Command"


@tree_node
class Iter:
    body: "Command"


@tree_node
class Skip:
    pass


Command = Union[Prim, Seq, Choice, Iter, Skip]

SKIP = Skip()
ID = PrimCommand("id")


def seq(*cmds: Command) -> Command:
    """Right-nested sequencing of one or more commands."""
    if not cmds:
        return SKIP
    out = cmds[-1]
    for c in reversed(cmds[:-1]):
        out = Seq(c, out)
    return out


# ---------------------------------------------------------------------------
# Guarded updates

ASSUME = "assume"
STORE = "store"
LOAD = "load"
CAS_SUCC = "cas_succ"
CAS_FAIL = "cas_fail"


class GuardedUpdate(NamedTuple):
    """An atomic primitive: parameters, bound to the values of the
    arguments it runs with before its guard is evaluated, an optional guard
    and simultaneous location updates.  Guard false blocks; any read or
    written location missing from the state faults.  An abstract method's
    parameters are `a` and `r`, bound to its argument and expected
    return."""

    params: Tuple[str, ...] = ()
    guard: Optional[Expr] = None
    updates: Tuple[Tuple[str, Expr], ...] = ()


# the builtin primitives and the number of arguments each takes
BUILTIN_ARITY = {"id": 0, ASSUME: 1, STORE: 2, LOAD: 2, CAS_SUCC: 3,
                 CAS_FAIL: 3}


@lru_cache(maxsize=None)
def builtin_update(alpha: PrimCommand) -> GuardedUpdate:
    """A builtin primitive as the guarded update it is, one per hash-consed
    primitive for the life of the process, as `step`'s cache is.  A loaded
    primitive has its arity, and its location arguments are reads
    (`model_io`).  `cas_succ` evaluates its new value even where it fails,
    and `cas_fail` never does."""
    name, args = alpha.name, alpha.args
    if name == "id":
        return GuardedUpdate()
    if name == ASSUME:
        return GuardedUpdate(guard=args[0])
    if name == STORE:
        return GuardedUpdate(updates=((args[0].loc, args[1]),))
    if name == LOAD:
        return GuardedUpdate(updates=((args[1].loc, args[0]),))
    if name == CAS_SUCC:
        x, old, new = args
        return GuardedUpdate(guard=And(Eq(new, new), Eq(x, old)),
                             updates=((x.loc, new),))
    if name == CAS_FAIL:
        return GuardedUpdate(guard=Not(Eq(args[0], args[1])))
    raise ModelError(f"undeclared primitive {name!r}")


def apply_guarded(spec: GuardedUpdate, args: Tuple[Expr, ...], t: int,
                  sigma: Heap, modulus: int) -> Tuple[HeapState, ...]:
    """Run one guarded update atomically with the arguments args: the
    result set is empty when the guard is false, and is (FAULT,) when a
    location read or written is missing from sigma."""
    try:
        env = {p: eval_expr(arg, sigma, {}, t, modulus)
               for p, arg in zip(spec.params, args)}
        if (spec.guard is not None
                and eval_expr(spec.guard, sigma, env, t, modulus) == 0):
            return ()
        out = []
        for loc, e in spec.updates:
            loc = resolve_loc(loc, t)
            if loc not in sigma:
                return (FAULT,)
            out.append((loc, eval_expr(e, sigma, env, t, modulus)))
        return (sigma.set_many(out),)
    except UndefinedLocation:
        return (FAULT,)


def assume(e: Expr) -> Command:
    return Prim(PrimCommand(ASSUME, (e,)))


def cas(loc: str, old: Expr, new: Expr, then: Command, other: Command) -> Command:
    """CAS split into a success/failure pair of atomic primitives."""
    succ = Prim(PrimCommand(CAS_SUCC, (Read(loc), old, new)))
    fail = Prim(PrimCommand(CAS_FAIL, (Read(loc), old, new)))
    return Choice(seq(succ, then), seq(fail, other))


# ---------------------------------------------------------------------------
# Stepping


@lru_cache(maxsize=None)
def step(c: Command) -> frozenset:
    """All stateless transitions of a command shape."""
    if isinstance(c, Skip):
        return frozenset()
    if isinstance(c, Prim):
        return frozenset({(c.prim, SKIP)})
    if isinstance(c, Seq):
        if isinstance(c.first, Skip):
            return frozenset({(ID, c.second)})
        return frozenset(
            (alpha, Seq(c1, c.second)) for alpha, c1 in step(c.first)
        )
    if isinstance(c, Choice):
        return frozenset({(ID, c.left), (ID, c.right)})
    if isinstance(c, Iter):
        return frozenset({(ID, Seq(c.body, c)), (ID, SKIP)})
    raise ModelError(f"unknown command node {c!r}")


def state_step(c: Command, apply: Callable[[PrimCommand], object]) -> tuple:
    """Stateful transitions, one (primitive, command', results) triple per
    stateless step, where results is `apply(primitive)`: the caller runs
    the primitive (the model's `Semantics.run` at its thread and state),
    so it can share the runs between commands.  The fault state may
    appear in results and is surfaced to callers for reporting."""
    return tuple((alpha, c2, apply(alpha)) for alpha, c2 in step(c))


# ---------------------------------------------------------------------------
# Encodings of structured control flow


def desugar_if(e: Expr, then: Command, other: Command) -> Command:
    return Choice(Seq(assume(e), then), Seq(assume(Not(e)), other))


def desugar_while(e: Expr, body: Command) -> Command:
    return Seq(Iter(Seq(assume(e), body)), assume(Not(e)))

