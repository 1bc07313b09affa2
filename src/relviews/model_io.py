"""Loading and validating model and outline files.

One JSON document describes a model: domains, guarded-update primitives,
method body templates, abstract atomic commands, initial states, the
monoid selection, and (for proofs) predicate macros, rely/guarantee
actions and per-method assertion families.  Outlines live in a second
document mirroring the command tree with assertion slots.

Both are read by one grammar, tables of forms and object fields walked by
`_form` and `_fields`: a node of the wrong shape is an error naming its
path, and the semantic checks run on what the walk built.
"""

from __future__ import annotations

import json
import re
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Optional, Tuple

from .command_lang import (
    BUILTIN_ARITY,
    And,
    Choice,
    Command,
    Const,
    Eq,
    Expr,
    GuardedUpdate,
    Iter,
    LVar,
    Lt,
    Not,
    Or,
    Plus,
    Prim,
    PrimCommand,
    Read,
    SKIP,
    Skip,
    Tid,
    cas,
    desugar_if,
    desugar_while,
    expr_locs,
    rebuild,
    seq,
    tree_node,
    walk,
)
from .errors import ModelError
from .linearizability import LibraryModel, Semantics
from .logic import OChoice, OConseq, OIter, OPrim, OSeq, OSkip
from .state_model import APCom, Domains, Heap
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
    free_lvars,
    free_lvars_expr,
)

DEFAULT_CAP = 200_000  # the state cap of a model that declares none


def _fail(path: str, msg: str):
    raise ModelError(f"{path}: {msg}")


def _expected(path: str, what: str, doc):
    _fail(path, f"malformed document: expected {what}, got {doc!r}")


@contextmanager
def _malformed_is_model_error(path: str):
    """The safety net under the grammar: a value of a shape the grammar
    let through, or nesting deeper than the interpreter's stack, is a model
    error naming the document, not a crash."""
    try:
        yield
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        _fail(path, f"malformed document: {exc}")
    except RecursionError:
        _fail(path, "document is nested too deeply")


def _check_placeholders(locs: Iterable[str], allowed: str, path: str):
    """A location's braces must be placeholders `{x}`, x in `allowed`, with
    no format spec or conversion: an instance substitutes `{a}` and `{r}`,
    and `{t}` is resolved at run time with the executing thread alone."""
    hole = re.compile(r"\{[%s]\}" % allowed)
    # sorted, so that the location an error names does not follow the seed
    for loc in sorted(locs):
        if set(hole.sub("", loc)) & set("{}"):
            _fail(path, f"location {loc!r} uses a placeholder other than "
                        + ", ".join(f"{{{n}}}" for n in sorted(allowed)))


def _check_vars(free, names, what: str, path: str, note: str = ""):
    """A free logical variable (`free`) that the template or assertion does
    not bind is a load error, not a run-time error that names no file."""
    free = free - set(names)
    if free:
        bound = "only " + ", ".join(map(repr, names)) if names else "none"
        _fail(path, f"unbound logical variable {min(free)!r}: {what} binds "
                    f"{bound}{note}")


def _distinct(entries, what: str, path: str) -> Tuple[int, ...]:
    """A domain list's integers, none listed twice."""
    out = tuple(entries)
    for i, x in enumerate(out):
        if x in out[:i]:
            _fail(path, f"{what} lists {x} twice")
    return out


# ---------------------------------------------------------------------------
# The grammar.  A shape is a function parse(doc, path, ctx) that checks doc
# and builds its value; `ctx` is what the parse needs of the document.


def _form(forms: dict, what: str, doc, path: str, ctx):
    """The value of doc, a tagged list of one of `forms` (`_f`)."""
    try:
        args, rest, build, scoped = \
            forms[doc[0]] if type(doc) is list else None
    except (IndexError, KeyError, TypeError):  # not one of the forms
        _expected(path, what, doc)
    if len(doc) - 1 != len(args) and (rest is None or len(doc) <= len(args)):
        _expected(path, what, doc)
    values = []
    for i, (parse, step) in enumerate(args, 1):
        values.append(parse(doc[i], path + step if step else path, ctx))
    if rest is not None:
        parse, step = rest
        values.append(tuple(
            parse(a, f"{path}/{step}[{i}]" if step else path, ctx)
            for i, a in enumerate(doc[len(args) + 1:])))
    return build(path, ctx, *values) if scoped else build(*values)


def _f(build: Callable, *args, rest=None, scoped=False):
    """A form: the shape and path step of each argument (a bare shape has
    none) and of any further ones (`rest`), and its value: build(*values),
    or build(path, ctx, *values) if `scoped`."""
    return (tuple(a if type(a) is tuple else (a, "") for a in args), rest,
            build, scoped)


_REQUIRED = object()  # the default of a field whose key must be present


def _field(key: str, parse: Callable, default=_REQUIRED, step: str = None):
    """An object node's field: key, shape, default (None, or a JSON value
    parsed as if given) and path step, `/key` unless given."""
    return key, parse, default, f"/{key}" if step is None else step


def _fields(fields: tuple, doc, path: str, ctx, out=None) -> dict:
    """Object node doc's fields by key, parsed with `ctx` in table order
    into `out`, a new dict unless given."""
    if type(doc) is not dict:
        _expected(path, "an object", doc)
    for key, _, default, _ in fields:
        if default is _REQUIRED and key not in doc:
            _fail(path, f"malformed document: missing key {key!r}")
    out = {} if out is None else out
    for key, parse, default, step in fields:
        out[key] = None if key not in doc and default is None else \
            parse(doc.get(key, default), path + step, ctx)
    return out


def _node(*fields) -> Callable:
    """An object node of `fields` (`_field`), kept as `parse.fields`."""
    def parse(doc, path, ctx):
        return _fields(fields, doc, path, ctx)
    parse.fields = fields
    return parse


def _each(entry: Callable, kind: type = dict) -> Callable:
    """An object, or a list if `kind` is list, of entries of one shape,
    kept as `parse.entry`."""
    def parse(doc, path, ctx):
        if type(doc) is not kind:
            _expected(path, "a list" if kind is list else "an object", doc)
        if kind is list:
            return [entry(x, f"{path}[{i}]", ctx) for i, x in enumerate(doc)]
        return {key: entry(v, f"{path}/{key}", ctx) for key, v in doc.items()}
    parse.entry = entry
    return parse


def _leaf(kind: type, error: Callable) -> Callable:
    """A JSON value of type `kind`, never coerced (a bool is no integer);
    else the error that error(doc) names."""
    def parse(doc, path, ctx=None):
        if type(doc) is not kind:
            _fail(path, error(doc))
        return doc
    return parse


def _name(kind: str) -> Callable:
    return _leaf(str, lambda doc: f"{kind} name must be a string, got {doc!r}")


INT = _leaf(int, lambda doc: f"malformed document: expected an integer, "
                             f"got {doc!r}")
LOC = _name("a location")
VAR = _name("a logical variable")


def ANY(doc, path, ctx=None):
    return doc


# ---------------------------------------------------------------------------
# Expressions


def parse_expr(doc, path: str = "expr", ctx=None) -> Expr:
    """An expression; a bare integer is a constant, and `true` and `false`
    stand for 1 and 0."""
    if type(doc) is int:
        return Const(doc)
    if type(doc) is bool:
        return Const(int(doc))
    return _form(EXPR_FORMS, "an expression", doc, path, ctx)


EXPR = parse_expr
EXPR_FORMS = {
    "const": _f(Const, INT), "var": _f(LVar, VAR), "read": _f(Read, LOC),
    "tid": _f(Tid), "+": _f(Plus, EXPR, EXPR), "==": _f(Eq, EXPR, EXPR),
    "!=": _f(lambda a, b: Not(Eq(a, b)), EXPR, EXPR),
    "<": _f(Lt, EXPR, EXPR), "not": _f(Not, EXPR),
    "and": _f(And, EXPR, EXPR), "or": _f(Or, EXPR, EXPR),
}


# ---------------------------------------------------------------------------
# Commands

# the builtin primitives' location arguments, by index
_LOC_ARGS = {"store": (0,), "load": (0, 1), "cas_succ": (0,), "cas_fail": (0,)}


def validate_command(c: Command, prims: Dict[str, GuardedUpdate],
                     path: str = "cmd") -> None:
    """A method body, walked once: every primitive of c is declared and
    given as many arguments as it takes (of several faults, the least by
    (name, argument count) is reported); then c reads no logical variable
    but `a` and `r`, and its locations no placeholder but `{a}`, `{r}` and
    `{t}`."""
    nodes: Dict[type, set] = {PrimCommand: set(), LVar: set(), Read: set()}
    for n in walk(c):
        if type(n) in nodes:
            nodes[type(n)].add(n)
    arity = {**BUILTIN_ARITY,
             **{name: len(u.params) for name, u in prims.items()}}
    for name, given in sorted({(prim.name, len(prim.args))
                               for prim in nodes[PrimCommand]}):
        if name not in arity:
            _fail(path, f"command uses undeclared primitive {name!r}")
        if arity[name] != given:
            _fail(path, f"arity mismatch for {name!r}: takes {arity[name]}, "
                        f"given {given}")
    _check_vars({n.name for n in nodes[LVar]}, ("a", "r"), "a method body",
                path, ' (the thread id is ["tid"])')
    _check_placeholders({n.loc for n in nodes[Read]}, "art", path)


def _prim(path: str, ctx, name: str, args: tuple) -> Command:
    """`["prim", name, *args]`; a builtin's location argument is a
    location `["read", loc]`."""
    prim = PrimCommand(name, tuple(parse_expr(a, f"{path}/{name}")
                                   for a in args))
    for i in _LOC_ARGS.get(name, ()):
        if i < len(prim.args) and not isinstance(prim.args[i], Read):
            _fail(path, f"argument {i + 1} of {name!r} must be a "
                        f'location ["read", loc], got {args[i]!r}')
    return Prim(prim)


def parse_command(doc, path: str = "cmd", ctx=None) -> Command:
    return _form(COMMAND_FORMS, "a command", doc, path, None)


CMD = parse_command
COMMAND_FORMS = {
    "skip": _f(Skip),
    "assume": _f(lambda e: Prim(PrimCommand("assume", (e,))), EXPR),
    "prim": _f(_prim, _name("a primitive"), rest=(ANY, None), scoped=True),
    "store": _f(lambda loc, e: Prim(PrimCommand("store", (Read(loc), e))),
                LOC, EXPR),
    "load": _f(lambda to, src: Prim(PrimCommand(
        "load", (Read(to), Read(src)))), LOC, LOC),
    "seq": _f(lambda cmds: seq(*cmds), rest=(CMD, "seq")),
    "choice": _f(Choice, (CMD, "/left"), (CMD, "/right")),
    "iter": _f(Iter, (CMD, "/iter")),
    "cas": _f(cas, LOC, EXPR, EXPR, (CMD, "/then"), (CMD, "/else")),
    "if": _f(desugar_if, EXPR, (CMD, "/then"), (CMD, "/else")),
    "while": _f(desugar_while, EXPR, (CMD, "/do")),
}


# ---------------------------------------------------------------------------
# View assertions (with macro expansion)


@tree_node
class _Apply:
    """A macro application in a parsed assertion, its arguments parsed;
    `MacroTable.expand` replaces it by the macro's expansion."""

    name: str
    args: Tuple[Expr, ...]


class MacroTable:
    """A model's predicate macros, the methods its tokens may name and its
    thread count.  Each macro of `raw` is parsed where it is declared
    (`path`), in name order: its params are logical variables, in its
    body's expressions and as `{p}` in its cells' locations, and each
    application in it stays an `_Apply`.  `expand` replaces applications
    by their expansions, each distinct application expanded once per
    table.  An outline's table extends its model's (`parent`, of the same
    methods and threads): it keeps the parsed bodies of the macros `raw`
    does not redefine, the `_check_boxes` results in `boxes_passed` and,
    unless `raw` redefines a macro, the expansions."""

    def __init__(self, raw: Dict[str, dict], methods: Iterable[str],
                 nthreads: int, path: str = "macros",
                 parent: Optional[MacroTable] = None):
        self.methods = frozenset(methods)
        self.nthreads = nthreads
        self.params: Dict[str, tuple] = {}
        self.bodies: Dict[str, VAssn] = {}
        self.boxes_passed: set = set()  # see `_check_boxes`
        self._expanded: Dict[_Apply, VAssn] = {}
        if parent is not None:
            self.params.update(parent.params)
            self.bodies.update(parent.bodies)
            self.boxes_passed.update(parent.boxes_passed)
            if raw.keys().isdisjoint(parent.params):
                self._expanded.update(parent._expanded)
        specs = {name: _fields(_MACRO, raw[name], f"{path}/{name}", None)
                 for name in sorted(raw)}
        for name, spec in specs.items():
            self.params[name] = spec["params"]
        for name, spec in specs.items():
            self.bodies[name] = _vassn(spec["body"], f"{path}/{name}/body",
                                       self)

    def arity(self, name: str, count: int, path: str) -> tuple:
        """The params of macro `name`, applied to `count` arguments."""
        if name not in self.params:
            _fail(path, f"unknown macro {name!r}")
        params = self.params[name]
        if len(params) != count:
            _fail(path, f"macro {name!r} expects {len(params)} arguments")
        return params

    def expand(self, tree, path: str,
               binding: Optional[Dict[str, Expr]] = None,
               stack: Tuple[str, ...] = ()) -> VAssn:
        """tree with `binding` substituted and each application replaced
        by the applied macro's body, its params bound to the arguments and
        expanded in turn, under the expansion chain `stack`."""
        def expansion(app: _Apply) -> VAssn:
            out = self._expanded.get(app)
            if out is None:
                if app.name in stack:
                    _fail(path, f"recursive macro {app.name!r} "
                                f"(expansion chain {' -> '.join(stack)})")
                params = self.arity(app.name, len(app.args), path)
                out = self._expanded[app] = self.expand(
                    self.bodies[app.name], path, dict(zip(params, app.args)),
                    stack + (app.name,))
            return out

        return _substituted(tree, binding or {}, path, expansion)


def _substituted(tree, binding: Dict[str, Expr], path: str,
                 apply: Optional[Callable] = None):
    """tree with each name that `binding` binds replaced by its
    expression: a logical variable by the expression itself, and a `{p}`
    in a cell's location by a constant's value or a variable's `{name}`.
    An `exists` binds its variable in its body, where no outer binding of
    the name reaches.  With `apply`, each macro application, its arguments
    substituted, is replaced by apply(application)."""
    def leaf(n):
        kind = type(n)
        if kind is LVar:
            return binding.get(n.name)
        if kind is _Apply and apply:
            return apply(_Apply(n.name, tuple(
                _substituted(a, binding, path) for a in n.args)))
        if kind is ExistsA and n.var in binding:
            return ExistsA(n.var, _substituted(
                n.body, {k: e for k, e in binding.items() if k != n.var},
                path, apply))
        if kind in (CPt, APt) and "{" in n.loc:
            return kind(_spliced(n.loc, binding, path),
                        _substituted(n.value, binding, path))
        return None

    return rebuild(tree, leaf)


def _spliced(loc: str, binding: Dict[str, Expr], path: str) -> str:
    """loc with each `{p}` that `binding` binds replaced by the argument's
    text: a constant's value or a variable's `{name}`."""
    def splice(hole) -> str:
        arg = binding.get(hole[1])
        if arg is None:
            return hole[0]
        if type(arg) is Const:
            return str(arg.value)
        if type(arg) is not LVar:
            _fail(path, f"cannot splice {arg!r} into location {loc!r}")
        return "{" + arg.name + "}"
    return _PLACEHOLDER.sub(splice, loc)


_PLACEHOLDER = re.compile(r"\{([A-Za-z_]\w*)\}")


def VALUE(doc, path: str, ctx=None) -> Expr:
    """An assertion's expression: it denotes a value under the assertion's
    interpretation alone, so it reads no heap location and not the thread
    id of `["tid"]`; an assertion names its thread as `["var", "t"]`."""
    e = parse_expr(doc, path)
    for n in walk(e):
        if isinstance(n, Read):
            _fail(path, f"an assertion may not read the heap (location "
                        f"{n.loc!r})")
        if isinstance(n, Tid):
            _fail(path, 'an assertion may not use ["tid"]; its thread is '
                        '["var", "t"]')
    return e


def _cell(kind: Callable) -> tuple:
    """A cell: its location's braces must be `{name}` placeholders, name an
    identifier, which the assertion's interpretation fills in."""
    def build(path, macros, loc, value):
        if set(_PLACEHOLDER.sub("", loc)) & set("{}"):
            _fail(path, f"location {loc!r} uses a brace that is not a "
                        "placeholder {name}")
        return kind(loc, value)
    return _f(build, LOC, VALUE, scoped=True)


def _token(tag: str) -> tuple:
    def build(path, macros, thread, method, arg, ret):
        if type(method) is not str or method not in macros.methods:
            _fail(path, f"{tag} token names undeclared method {method!r}")
        return TokA(tag, thread, method, arg, ret)
    return _f(build, VALUE, ANY, VALUE, VALUE, scoped=True)


def _sep_threads(path: str, macros: MacroTable, var: str, body) -> VAssn:
    """The star of body over every thread id j, `var` bound to j."""
    return StarA(tuple(_substituted(body, {var: Const(j)}, path)
                       for j in range(1, macros.nthreads + 1)))


def _apply_macro(path: str, macros: MacroTable, name: str, args: tuple):
    macros.arity(name, len(args), path)
    return _Apply(name, args)


def _rimpl(path, macros, *args):
    _fail(path, "a repartitioning implication is not an assertion; a "
                "conseq outline node checks one")


def _vassn(doc, path: str, macros: MacroTable):
    return _form(VASSN_FORMS, "a view assertion", doc, path, macros)


def parse_vassn(doc, macros: MacroTable, path: str = "vassn"):
    """A view assertion, its macro applications expanded."""
    return macros.expand(_vassn(doc, path, macros), path)


VASSN_FORMS = {
    "emp": _f(EmpA), "true": _f(TrueA), "pt": _cell(CPt), "apt": _cell(APt),
    "todo": _token("todo"), "done": _token("done"), "pure": _f(PureA, VALUE),
    "star": _f(StarA, rest=(_vassn, "star")),
    "or": _f(OrA, rest=(_vassn, "or")),
    "exists": _f(ExistsA, VAR, (_vassn, "/exists")),
    "box": _f(BoxA, (_vassn, "/box")),
    "rimpl": _f(_rimpl, rest=(ANY, None), scoped=True),
    "macro": _f(_apply_macro, _name("a macro"), rest=(VALUE, None),
                scoped=True),
    "sep_threads": _f(_sep_threads, VAR, (_vassn, "/sep"), scoped=True),
}


def _check_boxes(a, path: str, passed: set, no_box: Optional[str] = None,
                 body: bool = False):
    """A box stands only in a slot that allows one (`no_box` is the error
    of a slot that does not) and never inside another box.  `true` stands
    only where `RgsepMonoid._box_states` reads it (`body`): as a box's
    body, or as a conjunct of a `star` that is the body, under any `or`
    and `exists` at the top of the body.  Everywhere else an assertion is
    denoted by `ViewMonoid.fragments`, which knows neither.  `passed`
    holds the (node, `no_box`, `body`) triples already checked: the check
    reads nothing else and the first failure raises, so a hash-consed
    subtree that many slots share is walked once per document."""
    key = (a, no_box, body)
    if key in passed:
        return
    if isinstance(a, BoxA):
        if no_box is not None:
            _fail(path, no_box)
        _check_boxes(a.body, path, passed,
                     "boxed assertions must not be nested", True)
    elif isinstance(a, TrueA) and not body:
        _fail(path, "`true` may stand only as a box's body or as a "
                    "conjunct of the star that is a box's body")
    elif isinstance(a, (StarA, OrA, ExistsA)):
        top = body and not isinstance(a, StarA)
        for part in a._parts:
            _check_boxes(part, path, passed, no_box,
                         top or body and isinstance(part, TrueA))
    passed.add(key)


def parse_assertion(doc, macros: MacroTable, path: str = "assn",
                    no_box: Optional[str] = None):
    """Parse the view assertion in any assertion slot and check where its
    boxes and `true` stand (`_check_boxes`), once per subtree in the
    document of `macros`."""
    rho = parse_vassn(doc, macros, path)
    _check_boxes(rho, path, macros.boxes_passed, no_box)
    return rho


def _assertion(no_box: Optional[str] = None, null: bool = False):
    """An assertion slot of an object node, null if `null`: `no_box` is
    the error of a box in it, else the document's (`ctx["no_box"]`)."""
    return lambda doc, path, ctx: None if null and doc is None else \
        parse_assertion(doc, ctx["macros"], path, no_box or ctx["no_box"])


# ---------------------------------------------------------------------------
# Outlines


def _steps(doc, path: str, ctx) -> OSeq:
    """A seq node's steps: node, assertion, node, ..."""
    if type(doc) is not list or len(doc) < 3 or len(doc) % 2 == 0:
        _fail(path, "seq steps must alternate node, assertion, node, ...")
    parsed = [_ASSERTION(e, f"{path}/mid[{i // 2}]", ctx) if i % 2
              else _outline(e, f"{path}/seq[{i // 2}]", ctx)
              for i, e in enumerate(doc)]
    return OSeq(tuple(parsed[::2]), tuple(parsed[1::2]))


def _outline_prim(path: str, cmd: Command):
    if not isinstance(cmd, Prim):
        _fail(path, "outline prim node must hold a primitive command")
    return OPrim(cmd.prim)


def parse_outline_node(doc, macros: MacroTable, path: str = "outline",
                       no_box: Optional[str] = None):
    """An outline node, an object whose `kind` selects its fields; its
    assertions are checked as `parse_assertion` checks them, `no_box` the
    error of a box in them."""
    kind = doc.get("kind") if type(doc) is dict else None
    if type(kind) is not str or kind not in OUTLINE_KINDS:
        _expected(path, "an outline node", doc)
    fields, build = OUTLINE_KINDS[kind]
    ctx = {"macros": macros, "no_box": no_box}
    return build(path, *_fields(fields, doc, path, ctx).values())


def _outline(doc, path: str, ctx):
    return parse_outline_node(doc, ctx["macros"], path, ctx["no_box"])


_ASSERTION = _assertion()
OUTLINE_KINDS = {
    "prim": ((_field("cmd", CMD),), _outline_prim),
    "skip": ((), lambda path: OSkip()),
    "seq": ((_field("steps", _steps, step=""),), lambda path, steps: steps),
    "choice": ((_field("left", _outline), _field("right", _outline)),
               lambda path, *nodes: OChoice(*nodes)),
    "iter": ((_field("invariant", _ASSERTION), _field("body", _outline)),
             lambda path, *parts: OIter(*parts)),
    "conseq": ((_field("pre", _ASSERTION), _field("post", _ASSERTION),
                _field("inner", _outline)),
               lambda path, *parts: OConseq(*parts)),
}


# ---------------------------------------------------------------------------
# Documents


_NO_BOX_DCSL = "a box may not stand in a dcsl model"


def _macros(doc, path: str, ctx) -> MacroTable:
    """A document's macros, extending those of `ctx["parent"]` if any."""
    if type(doc) is not dict:
        _expected(path, "an object", doc)
    return MacroTable(doc, ctx["methods"], ctx["domains"]["threads"], path,
                      ctx.get("parent"))


def _update_entry(doc, path: str, ctx):
    """An update `[location, expression]`."""
    if type(doc) is not list or len(doc) != 2:
        _expected(path, "a list of 2 items", doc)
    return LOC(doc[0], path), parse_expr(doc[1], path)


_VARS = _each(VAR, list)


def _params(doc, path: str, ctx) -> tuple:
    """A list of parameter names, none listed twice."""
    params = tuple(_VARS(doc, path, ctx))
    for i, p in enumerate(params):
        if p in params[:i]:
            _fail(f"{path}[{i}]", f"params lists {p!r} twice")
    return params


_MACRO = (_field("params", _params, []), _field("body", ANY))
_GUARDED_UPDATE = (
    _field("guard", lambda doc, path, ctx: None if doc is None else
           parse_expr(doc, path), None, ""),
    _field("updates", _each(_update_entry, list), []))
_CELLS = _each(_each(INT, list))
_NO_BOX_ACTION = "a box may not stand in an action"
# The model document's sections, in the order they are parsed: a section's
# parse reads the sections before it (`ctx`).
MODEL = _node(
    _field("name", ANY),
    _field("monoid", ANY),
    _field("domains", _node(
        _field("values", _each(INT, list)), _field("modulus", INT),
        _field("threads", INT), _field("cap", INT, DEFAULT_CAP),
        _field("locations", _CELLS), _field("abstract_locations", _CELLS))),
    _field("primitives", _each(_node(
        _field("params", _params, []), *_GUARDED_UPDATE)), {}),
    _field("abstract", _each(_node(*_GUARDED_UPDATE))),
    _field("methods", _each(_node(
        _field("args", _each(INT, list), None),
        _field("body", CMD, step="")))),
    _field("initial", _node(_field("concrete", _each(INT), {}),
                              _field("abstract", _each(INT), {}))),
    _field("macros", _macros, {}),
    _field("shared_universe", _assertion(
        "a box may not stand in the shared universe", True), None),
    _field("actions", _each(_node(
        _field("pre", _assertion(_NO_BOX_ACTION)),
        _field("post", _assertion(_NO_BOX_ACTION)))), {}),
    _field("guarantee", _each(_name("an action"), list), []),
    _field("rely_extra", _each(_name("an action"), list), []),
    _field("assertions", _each(_node(
        _field("pre", _ASSERTION), _field("post", _ASSERTION))), {}),
)
OUTLINE_DOCUMENT = _node(_field("macros", _macros, {}),
                           _field("outlines", _each(_outline), step=""))


def parse_model(doc: dict, path: str = "model",
                cap: Optional[int] = None) -> LibraryModel:
    """Parse and validate a model document.  The model's `dom.cap` is
    `cap` when given, else the document's `domains.cap`, else
    `DEFAULT_CAP`; every enumeration over the model reads it."""
    with _malformed_is_model_error(path):
        model = _parse_model(doc, path)
    if cap is not None:
        model.dom = model.dom._replace(cap=cap)
    return model


def _update(spec: dict, params, what: str, path: str) -> GuardedUpdate:
    """A guarded update with the given parameters, the only variables it
    may read; its locations may only use the `{t}` placeholder."""
    guard, updates = spec["guard"], tuple(spec["updates"])
    exprs = [e for _, e in updates] + ([] if guard is None else [guard])
    _check_vars(free_lvars_expr(*exprs), params, what, path)
    _check_placeholders({loc for loc, _ in updates} | expr_locs(*exprs), "t",
                        path)
    return GuardedUpdate(params=tuple(params), guard=guard, updates=updates)


def _parse_model(doc: dict, path: str) -> LibraryModel:
    ctx = {"no_box": _NO_BOX_DCSL if type(doc) is dict
           and doc.get("monoid") == "dcsl" else None}
    _fields(MODEL.fields, doc, path, ctx, ctx)
    monoid_kind, dd = ctx["monoid"], ctx["domains"]
    if monoid_kind not in ("dcsl", "rgsep"):
        _fail(path, f"monoid must be 'dcsl' or 'rgsep', got {monoid_kind!r}")
    values = _distinct(dd["values"], "domains.values", path)
    if not values:
        _fail(path, "values must be nonempty")
    for key, least in (("threads", 1), ("modulus", 1), ("cap", 0)):
        if dd[key] < least:
            _fail(path, f"domains.{key} must be an integer >= {least}, "
                        f"got {dd[key]!r}")

    prims = {}
    for pname, spec in ctx["primitives"].items():
        where = f"{path}/primitives/{pname}"
        if pname in BUILTIN_ARITY:
            _fail(where, f"primitive {pname!r} shadows a builtin")
        prims[pname] = _update(spec, spec["params"], "this primitive", where)
    amethods = {mname: _update(spec, ("a", "r"), "an abstract method",
                               f"{path}/abstract/{mname}")
                for mname, spec in ctx["abstract"].items()}

    method_args = {}
    body_templates = {}
    for mname, spec in ctx["methods"].items():
        where = f"{path}/methods/{mname}"
        if mname not in amethods:
            _fail(path, f"dom mismatch: method {mname!r} has no abstract "
                        "counterpart")
        method_args[mname] = _distinct(
            values if spec["args"] is None else spec["args"],
            f"method {mname!r} args", path)
        validate_command(spec["body"], prims, where)
        if isinstance(spec["body"], Skip):
            # a zero-step body would let concrete histories outrun the
            # abstract generator at equal bounds
            _fail(path, f"method {mname!r} body must perform at least one "
                        "step")
        body_templates[mname] = spec["body"]
    for mname in amethods:
        if mname not in method_args:
            _fail(path, f"dom mismatch: abstract method {mname!r} has no "
                        "concrete body")

    def locdom(key: str, what: str) -> dict:
        return {k: _distinct(v, f"{what} {k!r} domain", path)
                for k, v in dd[key].items()}

    apcoms = tuple(
        APCom(m, a, r)
        for m in sorted(method_args)
        for a in method_args[m]
        for r in values
    )
    dom = Domains.make(
        values=values,
        modulus=dd["modulus"],
        nthreads=dd["threads"],
        cloc=locdom("locations", "location"),
        aloc=locdom("abstract_locations", "abstract location"),
        apcoms=apcoms,
        cap=dd["cap"],
    )

    init_conc, init_abst = (Heap(ctx["initial"][side])
                            for side in ("concrete", "abstract"))
    for side, heap, locs in (("concrete", init_conc, dict(dom.cloc)),
                             ("abstract", init_abst, dict(dom.aloc))):
        for loc, v in heap.items():
            if loc not in locs:
                _fail(path, f"initial {side} state uses undeclared "
                            f"location {loc!r}")
            if v not in locs[loc]:
                _fail(path, f"initial {side} value {v} of location {loc!r} "
                            f"is outside its domain {list(locs[loc])}")

    shared_universe = ctx["shared_universe"]
    if shared_universe is not None:
        _check_vars(free_lvars(shared_universe), (), "the shared universe",
                    f"{path}/shared_universe")

    actions = {aname: (spec["pre"], spec["post"])
               for aname, spec in ctx["actions"].items()}
    guarantee, rely_extra = ctx["guarantee"], ctx["rely_extra"]
    for aname in guarantee + rely_extra:
        if aname not in actions:
            _fail(path, f"guarantee/rely references unknown action {aname!r}")

    families = {"pre": {}, "post": {}}
    for mname, spec in ctx["assertions"].items():
        if mname not in method_args:
            _fail(path, f"assertions declared for unknown method {mname!r}")
        for side, templates in families.items():
            templates[mname] = spec[side]
            _check_vars(free_lvars(spec[side]), ("t", "a", "r"),
                        "a pre/post family",
                        f"{path}/assertions/{mname}/{side}")

    return LibraryModel(
        name=ctx["name"],
        monoid_kind=monoid_kind,
        dom=dom,
        sem=Semantics(prims, amethods, dom.modulus),
        init_conc=init_conc,
        init_abst=init_abst,
        method_args=method_args,
        body_templates=body_templates,
        pre_templates=families["pre"],
        post_templates=families["post"],
        outline_templates={},
        actions=actions,
        guarantee_names=tuple(guarantee),
        rely_extra_names=tuple(rely_extra),
        shared_universe_assn=shared_universe,
        macros=ctx["macros"],
        path=path,
    )


def _load_json(path: str):
    with open(path) as fh, _malformed_is_model_error(path):
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelError(
                f"{path}: invalid JSON at line {exc.lineno} column "
                f"{exc.colno}: {exc.msg}")


def load_model(path: str, cap: Optional[int] = None) -> LibraryModel:
    return parse_model(_load_json(path), path, cap)


def load_outlines(path: str, model: LibraryModel) -> None:
    """Attach an outline document to a model (mutates the model)."""
    attach_outlines(_load_json(path), model, path)


def _erase(node) -> Command:
    """The command an outline node annotates."""
    if isinstance(node, OPrim):
        return Prim(node.prim)
    if isinstance(node, OSkip):
        return SKIP
    if isinstance(node, OSeq):
        return seq(*map(_erase, node.children))
    if isinstance(node, OChoice):
        return Choice(_erase(node.left), _erase(node.right))
    if isinstance(node, OIter):
        return Iter(_erase(node.body))
    return _erase(node.inner)  # a consequence node


def attach_outlines(doc: dict, model: LibraryModel, path: str = "outline") -> None:
    ctx = {"methods": model.method_args, "parent": model.macros,
           "domains": {"threads": model.dom.nthreads},
           "no_box": _NO_BOX_DCSL if model.monoid_kind == "dcsl" else None}
    with _malformed_is_model_error(path):
        _fields(OUTLINE_DOCUMENT.fields, doc, path, ctx, ctx)
    templates = ctx["outlines"]
    for mname, node in templates.items():
        where = f"{path}/{mname}"
        if mname not in model.method_args:
            _fail(path, f"outline for unknown method {mname!r}")
        if mname not in model.pre_templates:
            _fail(where, f"method {mname!r} has an outline but its "
                         "model declares no assertions for it")
        if _erase(node) != model.body_templates[mname]:
            _fail(where, "outline does not annotate the method body")
    missing = [m for m in model.method_args if m not in templates]
    if missing:
        _fail(path, f"outlines missing for methods: {missing}")
    model.outline_templates = templates
