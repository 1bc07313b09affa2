"""Loading and validating model and outline files.

One JSON document describes a model: domains, guarded-update primitives,
method body templates, abstract atomic commands, initial states, the
monoid selection, and (for proofs) predicate macros, rely/guarantee
actions and per-method assertion families.  Outlines live in a second
document mirroring the command tree with assertion slots.
"""

from __future__ import annotations

import json
import re
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Tuple

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
    seq,
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


@contextmanager
def _missing_key_is_model_error(path: str):
    """A missing key is a model error naming `path`, a document or entry."""
    try:
        yield
    except KeyError as exc:
        _fail(path, f"malformed document: missing key {exc}")


@contextmanager
def _malformed_is_model_error(path: str):
    """A missing key, a value of the wrong shape or nesting deeper than the
    interpreter's stack in a document is a model error naming the
    document, not a crash."""
    try:
        with _missing_key_is_model_error(path):
            yield
    except (ValueError, TypeError, AttributeError) as exc:
        _fail(path, f"malformed document: {exc}")
    except RecursionError:
        _fail(path, "document is nested too deeply")


def _object(spec, path: str) -> dict:
    """spec, which must be an object: another shape is a model error naming
    `path`, a section or its entry."""
    if type(spec) is not dict:
        _fail(path, f"malformed document: expected an object, got {spec!r}")
    return spec


def _list(spec, path: str, size: Optional[int] = None) -> list:
    """spec, which must be a list, of `size` items if given: another shape
    is a model error naming `path`."""
    if type(spec) is not list or size is not None and len(spec) != size:
        shape = "a list" if size is None else f"a list of {size} items"
        _fail(path, f"malformed document: expected {shape}, got {spec!r}")
    return spec


def _entries(doc: dict, key: str, path: str):
    """(name, entry, entry path) for each entry of section `key` of doc, if
    present; the section and each entry must be objects."""
    for name, spec in _object(doc.get(key, {}), f"{path}/{key}").items():
        where = f"{path}/{key}/{name}"
        yield name, _object(spec, where), where


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


def _integer(x, what: str, path: str) -> int:
    """x, which must be a JSON integer: a float, a string or a bool is a
    model error, not truncated or coerced."""
    if type(x) is not int:
        _fail(path, f"{what} must be an integer, got {x!r}")
    return x


def _name(x, kind: str, path: str) -> str:
    """x, which must be a JSON string: the name of a location, logical
    variable, primitive or macro (`kind`) of another type is a model error,
    not coerced."""
    if type(x) is not str:
        _fail(path, f"a {kind} name must be a string, got {x!r}")
    return x


def _distinct(entries, what: str, path: str) -> Tuple[int, ...]:
    """A domain list's integers, none listed twice."""
    out = tuple(_integer(x, f"{what} entry", path) for x in entries)
    for i, x in enumerate(out):
        if x in out[:i]:
            _fail(path, f"{what} lists {x} twice")
    return out


# ---------------------------------------------------------------------------
# Expressions


def parse_expr(doc, path: str = "expr") -> Expr:
    if isinstance(doc, bool):
        return Const(int(doc))
    if isinstance(doc, int):
        return Const(doc)
    if not isinstance(doc, list) or not doc:
        _fail(path, f"expected an expression, got {doc!r}")
    tag = doc[0]
    args = doc[1:]
    if tag == "const" and len(args) == 1:
        return Const(_integer(args[0], "a constant", path))
    if tag == "var" and len(args) == 1:
        return LVar(_name(args[0], "logical variable", path))
    if tag == "read" and len(args) == 1:
        return Read(_name(args[0], "location", path))
    if tag == "tid" and not args:
        return Tid()
    if tag == "+" and len(args) == 2:
        return Plus(parse_expr(args[0], path), parse_expr(args[1], path))
    if tag == "==" and len(args) == 2:
        return Eq(parse_expr(args[0], path), parse_expr(args[1], path))
    if tag == "!=" and len(args) == 2:
        return Not(Eq(parse_expr(args[0], path), parse_expr(args[1], path)))
    if tag == "<" and len(args) == 2:
        return Lt(parse_expr(args[0], path), parse_expr(args[1], path))
    if tag == "not" and len(args) == 1:
        return Not(parse_expr(args[0], path))
    if tag == "and" and len(args) == 2:
        return And(parse_expr(args[0], path), parse_expr(args[1], path))
    if tag == "or" and len(args) == 2:
        return Or(parse_expr(args[0], path), parse_expr(args[1], path))
    _fail(path, f"unknown expression form {doc!r}")


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


def parse_command(doc, path: str = "cmd") -> Command:
    if not isinstance(doc, list) or not doc:
        _fail(path, f"expected a command, got {doc!r}")
    tag = doc[0]
    args = doc[1:]
    if tag == "skip":
        return Skip()
    if tag == "prim":
        if not args:
            _fail(path, "prim needs a name")
        name = _name(args[0], "primitive", path)
        prim = PrimCommand(
            name, tuple(parse_expr(a, f"{path}/{name}") for a in args[1:]))
        for i in _LOC_ARGS.get(name, ()):
            if i < len(prim.args) and not isinstance(prim.args[i], Read):
                _fail(path, f"argument {i + 1} of {name!r} must be a "
                            f'location ["read", loc], got {args[i + 1]!r}')
        return Prim(prim)
    if tag == "assume" and len(args) == 1:
        return Prim(PrimCommand("assume", (parse_expr(args[0], path),)))
    if tag == "store" and len(args) == 2:
        return Prim(PrimCommand(
            "store", (Read(_name(args[0], "location", path)),
                      parse_expr(args[1], path))))
    if tag == "load" and len(args) == 2:
        return Prim(PrimCommand(
            "load", (Read(_name(args[0], "location", path)),
                     Read(_name(args[1], "location", path)))))
    if tag == "seq":
        return seq(*(parse_command(a, f"{path}/seq[{i}]")
                     for i, a in enumerate(args)))
    if tag == "choice" and len(args) == 2:
        return Choice(parse_command(args[0], f"{path}/left"),
                      parse_command(args[1], f"{path}/right"))
    if tag == "iter" and len(args) == 1:
        return Iter(parse_command(args[0], f"{path}/iter"))
    if tag == "cas" and len(args) == 5:
        return cas(_name(args[0], "location", path), parse_expr(args[1], path),
                   parse_expr(args[2], path),
                   parse_command(args[3], f"{path}/then"),
                   parse_command(args[4], f"{path}/else"))
    if tag == "if" and len(args) == 3:
        return desugar_if(parse_expr(args[0], path),
                          parse_command(args[1], f"{path}/then"),
                          parse_command(args[2], f"{path}/else"))
    if tag == "while" and len(args) == 2:
        return desugar_while(parse_expr(args[0], path),
                             parse_command(args[1], f"{path}/do"))
    _fail(path, f"unknown command form {doc!r}")


# ---------------------------------------------------------------------------
# View assertions (with macro expansion)


class MacroTable:
    """A model's predicate macros, the methods its tokens may name and its
    thread count.  An application that parses is memoized on (name, JSON
    arguments) with the macro names its expansion reached, and reused
    under any chain that holds none of them: parsing again would build the
    same hash-consed tree.  Errors are not memoized, so each keeps its
    path.  Each macro of `raw` is checked (params a list of names, a body)
    when the table is built.  An outline's table extends its model's
    (`parent`, of the same methods and threads), keeping each memo entry
    that reaches no macro `raw` redefines and the `_check_boxes` results
    in `boxes_passed`."""

    def __init__(self, raw: Dict[str, dict], methods: Iterable[str],
                 nthreads: int, path: str = "model",
                 parent: Optional[MacroTable] = None):
        for name in sorted(_object(raw, f"{path}/macros")):
            where = f"{path}/macros/{name}"
            params = _object(raw[name], where).get("params", [])
            if type(params) is not list:
                _fail(where, f"a macro's params must be a list, got "
                             f"{params!r}")
            for p in params:
                _name(p, "logical variable", where)
            if "body" not in raw[name]:
                _fail(where, "malformed document: missing key 'body'")
        self.raw = raw
        self.methods = frozenset(methods)
        self.nthreads = nthreads
        # key -> (parsed assertion, names reached)
        self._parsed: Dict[tuple, Tuple[VAssn, frozenset]] = {}
        self._trail: List[str] = []  # every name reached, in order
        self.boxes_passed: set = set()  # see `_check_boxes`
        if parent is not None:
            self.raw = {**parent.raw, **raw}
            self._parsed = {key: hit for key, hit in parent._parsed.items()
                            if hit[1].isdisjoint(raw)}
            self.boxes_passed = set(parent.boxes_passed)

    def apply(self, name: str, args: List, path: str,
              stack: Tuple[str, ...]) -> VAssn:
        """`["macro", name, *args]` parsed under the expansion chain
        `stack`."""
        key = (name, json.dumps(args))
        hit = self._parsed.get(key)
        if hit is None or not hit[1].isdisjoint(stack):
            if name in stack:
                _fail(path, f"recursive macro {name!r} "
                            f"(expansion chain {' -> '.join(stack)})")
            if name not in self.raw:
                _fail(path, f"unknown macro {name!r}")
            spec = self.raw[name]
            params = spec.get("params", [])
            if len(params) != len(args):
                _fail(path, f"macro {name!r} expects {len(params)} arguments")
            body = _subst_json(spec["body"], dict(zip(params, args)), path)
            start = len(self._trail)
            parsed = parse_vassn(body, self, f"{path}/{name}",
                                 stack + (name,))
            hit = self._parsed[key] = (
                parsed, frozenset(self._trail[start:]) | {name})
        self._trail.extend(hit[1])
        return hit[0]


def _subst_json(doc, binding: Dict[str, object], path: str):
    """Purely syntactic substitution of macro parameters: `["var", p]`
    nodes are replaced by the argument document and `{p}` placeholders in
    location strings by its rendering."""
    if isinstance(doc, list):
        if len(doc) == 2 and doc[0] == "var" and doc[1] in binding:
            return binding[doc[1]]
        return [_subst_json(d, binding, path) for d in doc]
    if isinstance(doc, str) and "{" in doc:
        out = doc
        for p, arg in binding.items():
            hole = "{" + p + "}"
            if hole not in out:
                continue
            if isinstance(arg, int):
                out = out.replace(hole, str(arg))
            elif isinstance(arg, list) and len(arg) == 2 and arg[0] == "var":
                out = out.replace(hole, "{" + arg[1] + "}")
            else:
                _fail(path, f"cannot splice {arg!r} into location {doc!r}")
        return out
    return doc


_VAR_HOLE = re.compile(r"\{[A-Za-z_]\w*\}")


def _cell(doc, path: str) -> Tuple[str, Expr]:
    """An assertion cell's location and value.  The location's braces
    must be `{name}` placeholders, name an identifier: the assertion's
    interpretation fills them in."""
    loc, value = doc
    if set(_VAR_HOLE.sub("", _name(loc, "location", path))) & set("{}"):
        _fail(path, f"location {loc!r} uses a brace that is not a "
                    "placeholder {name}")
    return loc, _value(value, path)


def _value(doc, path: str) -> Expr:
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


def parse_vassn(doc, macros: MacroTable, path: str = "vassn",
                stack: Tuple[str, ...] = ()):
    if not isinstance(doc, list) or not doc:
        _fail(path, f"expected a view assertion, got {doc!r}")
    tag = doc[0]
    args = doc[1:]
    if tag == "emp":
        return EmpA()
    if tag == "true":
        return TrueA()
    if tag == "pt" and len(args) == 2:
        return CPt(*_cell(args, path))
    if tag == "apt" and len(args) == 2:
        return APt(*_cell(args, path))
    if tag in ("todo", "done") and len(args) == 4:
        if not isinstance(args[1], str) or args[1] not in macros.methods:
            _fail(path, f"{tag} token names undeclared method {args[1]!r}")
        return TokA(tag, _value(args[0], path), args[1],
                    _value(args[2], path), _value(args[3], path))
    if tag == "pure" and len(args) == 1:
        return PureA(_value(args[0], path))
    if tag == "star":
        return StarA(tuple(parse_vassn(a, macros, f"{path}/star[{i}]", stack)
                           for i, a in enumerate(args)))
    if tag == "or":
        return OrA(tuple(parse_vassn(a, macros, f"{path}/or[{i}]", stack)
                         for i, a in enumerate(args)))
    if tag == "exists" and len(args) == 2:
        return ExistsA(_name(args[0], "logical variable", path),
                       parse_vassn(args[1], macros, f"{path}/exists", stack))
    if tag == "box" and len(args) == 1:
        return BoxA(parse_vassn(args[0], macros, f"{path}/box", stack))
    if tag == "rimpl":
        _fail(path, "a repartitioning implication is not an assertion; "
                    "a conseq outline node checks one")
    if tag == "macro" and args:
        return macros.apply(_name(args[0], "macro", path), list(args[1:]),
                            path, stack)
    if tag == "sep_threads" and len(args) == 2:
        var = _name(args[0], "logical variable", path)
        parts = []
        for j in range(1, macros.nthreads + 1):
            body = _subst_json(args[1], {var: j}, path)
            parts.append(parse_vassn(body, macros, f"{path}/sep[{j}]", stack))
        return StarA(tuple(parts))
    _fail(path, f"unknown view assertion form {doc!r}")


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


# ---------------------------------------------------------------------------
# Outlines


def parse_outline_node(doc, macros: MacroTable, path: str = "outline",
                       no_box: Optional[str] = None):
    """An outline node; its assertions are checked as `parse_assertion`
    checks them, `no_box` the error of a box in them."""
    def node(sub, where: str):
        return parse_outline_node(sub, macros, f"{path}/{where}", no_box)

    def assn(sub, where: str):
        return parse_assertion(sub, macros, f"{path}/{where}", no_box)

    if not isinstance(doc, dict) or "kind" not in doc:
        _fail(path, f"expected an outline node object, got {doc!r}")
    kind = doc["kind"]
    if kind == "prim":
        cmd = parse_command(doc["cmd"], f"{path}/cmd")
        if not isinstance(cmd, Prim):
            _fail(path, "outline prim node must hold a primitive command")
        return OPrim(cmd.prim)
    if kind == "skip":
        return OSkip()
    if kind == "seq":
        steps = doc.get("steps", [])
        if len(steps) < 3 or len(steps) % 2 == 0:
            _fail(path, "seq steps must alternate node, assertion, node, ...")
        parsed = [assn(e, f"mid[{i // 2}]") if i % 2 else
                  node(e, f"seq[{i // 2}]") for i, e in enumerate(steps)]
        return OSeq(tuple(parsed[::2]), tuple(parsed[1::2]))
    if kind == "choice":
        return OChoice(node(doc["left"], "left"), node(doc["right"], "right"))
    if kind == "iter":
        return OIter(assn(doc["invariant"], "invariant"),
                     node(doc["body"], "body"))
    if kind == "conseq":
        return OConseq(assn(doc["pre"], "pre"), assn(doc["post"], "post"),
                       node(doc["inner"], "inner"))
    _fail(path, f"unknown outline node kind {kind!r}")


# ---------------------------------------------------------------------------
# Models


_NO_BOX_DCSL = "a box may not stand in a dcsl model"


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


def _parse_update(spec: dict, params, what: str, path: str) -> GuardedUpdate:
    """A guarded update with the given parameters, the only variables it
    may read; its locations may only use the `{t}` placeholder."""
    guard = (parse_expr(spec["guard"], path)
             if spec.get("guard") is not None else None)
    entries = _list(spec.get("updates", []), f"{path}/updates")
    updates = tuple(
        (_name(loc, "location", path), parse_expr(e, path))
        for loc, e in (_list(u, f"{path}/updates[{i}]", 2)
                       for i, u in enumerate(entries)))
    exprs = [e for _, e in updates] + ([] if guard is None else [guard])
    _check_vars(free_lvars_expr(*exprs), params, what, path)
    _check_placeholders({loc for loc, _ in updates} | expr_locs(*exprs), "t",
                        path)
    return GuardedUpdate(params=tuple(params), guard=guard, updates=updates)


def _parse_model(doc: dict, path: str) -> LibraryModel:
    if not isinstance(doc, dict):
        _fail(path, "model document must be an object")
    for key in ("name", "monoid", "domains", "methods", "abstract",
                "initial"):
        if key not in doc:
            _fail(path, f"missing required section {key!r}")
    name = doc["name"]
    monoid_kind = doc["monoid"]
    if monoid_kind not in ("dcsl", "rgsep"):
        _fail(path, f"monoid must be 'dcsl' or 'rgsep', got {monoid_kind!r}")

    dd = _object(doc["domains"], f"{path}/domains")
    for key in ("values", "modulus", "threads", "locations",
                "abstract_locations"):
        if key not in dd:
            _fail(path, f"domains section missing {key!r}")
    values = _distinct(_list(dd["values"], f"{path}/domains/values"),
                       "domains.values", path)
    if not values:
        _fail(path, "values must be nonempty")
    nthreads, modulus, cap = (dd["threads"], dd["modulus"],
                              dd.get("cap", DEFAULT_CAP))
    for key, value, least in (("threads", nthreads, 1),
                              ("modulus", modulus, 1), ("cap", cap, 0)):
        if type(value) is not int or value < least:
            _fail(path, f"domains.{key} must be an integer >= {least}, "
                        f"got {value!r}")

    prims = {}
    for pname, spec, where in _entries(doc, "primitives", path):
        if pname in BUILTIN_ARITY:
            _fail(where, f"primitive {pname!r} shadows a builtin")
        prims[pname] = _parse_update(
            spec, _list(spec.get("params", []), f"{where}/params"),
            "this primitive", where)
    amethods = {}
    for mname, spec, where in _entries(doc, "abstract", path):
        amethods[mname] = _parse_update(spec, ("a", "r"),
                                        "an abstract method", where)

    method_args = {}
    body_templates = {}
    for mname, spec, where in _entries(doc, "methods", path):
        if mname not in amethods:
            _fail(path, f"dom mismatch: method {mname!r} has no abstract "
                        "counterpart")
        method_args[mname] = _distinct(
            _list(spec["args"], f"{where}/args") if "args" in spec else values,
            f"method {mname!r} args", path)
        with _missing_key_is_model_error(where):
            template = parse_command(spec["body"], where)
        validate_command(template, prims, where)
        if isinstance(template, Skip):
            # a zero-step body would let concrete histories outrun the
            # abstract generator at equal bounds
            _fail(path, f"method {mname!r} body must perform at least one "
                        "step")
        body_templates[mname] = template
    for mname in amethods:
        if mname not in method_args:
            _fail(path, f"dom mismatch: abstract method {mname!r} has no "
                        "concrete body")

    def locdom(key: str, what: str) -> dict:
        where = f"{path}/domains/{key}"
        return {str(k): _distinct(_list(v, f"{where}/{k}"),
                                  f"{what} {k!r} domain", path)
                for k, v in _object(dd[key], where).items()}

    apcoms = tuple(
        APCom(m, a, r)
        for m in sorted(method_args)
        for a in method_args[m]
        for r in values
    )
    dom = Domains.make(
        values=values,
        modulus=modulus,
        nthreads=nthreads,
        cloc=locdom("locations", "location"),
        aloc=locdom("abstract_locations", "abstract location"),
        apcoms=apcoms,
        cap=cap,
    )

    init = _object(doc["initial"], f"{path}/initial")
    init_conc, init_abst = (
        Heap({str(k): _integer(v, f"initial {side} {k!r}", path)
              for k, v in _object(init.get(side, {}),
                                  f"{path}/initial/{side}").items()})
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

    macros = MacroTable(doc.get("macros", {}), method_args, nthreads, path)
    no_box = _NO_BOX_DCSL if monoid_kind == "dcsl" else None

    shared_universe = None
    if doc.get("shared_universe") is not None:
        where = f"{path}/shared_universe"
        shared_universe = parse_assertion(
            doc["shared_universe"], macros, where,
            "a box may not stand in the shared universe")
        _check_vars(free_lvars(shared_universe), (), "the shared universe",
                    where)

    actions = {}
    for aname, spec, where in _entries(doc, "actions", path):
        with _missing_key_is_model_error(where):
            actions[aname] = tuple(
                parse_assertion(spec[side], macros, f"{where}/{side}",
                                "a box may not stand in an action")
                for side in ("pre", "post"))
    guarantee, rely_extra = (_list(doc.get(key, []), f"{path}/{key}")
                             for key in ("guarantee", "rely_extra"))
    for aname in guarantee + rely_extra:
        if aname not in actions:
            _fail(path, f"guarantee/rely references unknown action {aname!r}")

    families = {"pre": {}, "post": {}}
    for mname, spec, entry in _entries(doc, "assertions", path):
        if mname not in method_args:
            _fail(path, f"assertions declared for unknown method {mname!r}")
        for side, templates in families.items():
            where = f"{entry}/{side}"
            with _missing_key_is_model_error(entry):
                templates[mname] = parse_assertion(spec[side], macros, where,
                                                   no_box)
            _check_vars(free_lvars(templates[mname]), ("t", "a", "r"),
                        "a pre/post family", where)

    return LibraryModel(
        name=name,
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
        macros=macros,
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
    if not isinstance(doc, dict):
        _fail(path, "outline document must be an object")
    with _malformed_is_model_error(path):
        macros = MacroTable(doc.get("macros", {}), model.method_args,
                            model.dom.nthreads, path, model.macros)
        outlines = doc.get("outlines")
        if not isinstance(outlines, dict):
            _fail(path, "outline document needs an 'outlines' object")
        no_box = _NO_BOX_DCSL if model.monoid_kind == "dcsl" else None
        templates = {}
        for mname, node in outlines.items():
            where = f"{path}/{mname}"
            if mname not in model.method_args:
                _fail(path, f"outline for unknown method {mname!r}")
            if mname not in model.pre_templates:
                _fail(where, f"method {mname!r} has an outline but its "
                             "model declares no assertions for it")
            with _missing_key_is_model_error(where):
                templates[mname] = parse_outline_node(node, macros, where,
                                                      no_box)
            if _erase(templates[mname]) != model.body_templates[mname]:
                _fail(where, "outline does not annotate the method body")
    missing = [m for m in model.method_args if m not in templates]
    if missing:
        _fail(path, f"outlines missing for methods: {missing}")
    model.outline_templates = templates
