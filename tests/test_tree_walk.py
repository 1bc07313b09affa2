"""The generic tree walk against the per-class references.

`command_lang.walk` and `rebuild` read each node's fields, and `subst`,
`expr_locs`, `free_lvars_expr` and `command_prims` are built on them.  Each
must give what the per-class ladders of `oracles` give (`ref_subst_*`,
`ref_expr_locs`, `ref_free_lvars_expr`, `ref_command_prims`): on every
fixture's method bodies, outline primitives and primitive and abstract
updates, on the generated flat-combiner family, and on random trees.  A
deep tree is walked and rebuilt with no recursion.
"""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from families import flat_combiner
from oracles import (
    command_prims,
    ref_command_prims,
    ref_expr_locs,
    ref_free_lvars_expr,
    ref_subst_command,
    ref_subst_expr,
    ref_subst_prim,
)
from relviews.command_lang import (
    And,
    Choice,
    Const,
    Eq,
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
    expr_locs,
    rebuild,
    walk,
)
from relviews.logic import OPrim
from relviews.model_io import (
    attach_outlines,
    load_model,
    load_outlines,
    parse_model,
)
from relviews.subst import subst
from relviews.vassn import free_lvars_expr
from util import fixture_manifest


def _union(f, trees):
    return frozenset().union(*map(f, trees))


def _bindings(values):
    """No binding, each of a, r and t alone, and all three."""
    v, w = values[0], values[-1]
    return [{}, {"a": w}, {"r": v}, {"t": 1}, {"a": v, "r": w, "t": 2}]


def _check_expr(e, bindings):
    for b in bindings:
        assert subst(e, b) is ref_subst_expr(e, b)
    assert expr_locs(e) == ref_expr_locs(e)
    assert free_lvars_expr(e) == ref_free_lvars_expr(e)


def _check_prim(p, bindings):
    for b in bindings:
        assert subst(p, b) is ref_subst_prim(p, b)
    assert expr_locs(p) == _union(ref_expr_locs, p.args)
    assert free_lvars_expr(p) == _union(ref_free_lvars_expr, p.args)
    for e in p.args:
        _check_expr(e, bindings)


def _check_command(c, bindings):
    for b in bindings:
        assert subst(c, b) is ref_subst_command(c, b)
    prims = ref_command_prims(c)
    assert command_prims(c) == prims
    args = [e for p in prims for e in p.args]
    assert expr_locs(c) == _union(ref_expr_locs, args)
    assert free_lvars_expr(c) == _union(ref_free_lvars_expr, args)


def _check_model(model):
    """Every method body, outline primitive and update of a model."""
    bindings = _bindings(model.dom.values)
    for body in model.body_templates.values():
        _check_command(body, bindings)
        for p in command_prims(body):
            _check_prim(p, bindings)
    for outline in model.outline_templates.values():
        for node in walk(outline):
            if isinstance(node, OPrim):
                _check_prim(node.prim, bindings)
    specs = [*model.sem.prims.values(), *model.sem.abstract.values()]
    assert specs
    for spec in specs:
        exprs = [e for _, e in spec.updates]
        exprs += [] if spec.guard is None else [spec.guard]
        for e in exprs:
            _check_expr(e, bindings)
        assert expr_locs(*exprs) == _union(ref_expr_locs, exprs)
        assert free_lvars_expr(*exprs) == _union(ref_free_lvars_expr, exprs)


@pytest.mark.parametrize("fx", fixture_manifest(), ids=lambda f: f.name)
def test_walk_agrees_with_the_per_class_references_on_fixtures(fx):
    model = load_model(fx.model_path)
    if fx.outline_path:
        load_outlines(fx.outline_path, model)
    _check_model(model)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_walk_agrees_with_the_per_class_references_on_the_family(n):
    model_doc, outline_doc = flat_combiner(n)
    model = parse_model(model_doc, f"flat-combiner-{n}")
    attach_outlines(outline_doc, model)
    _check_model(model)


_LOCS = ["x", "c[{a}]", "res[{t}]", "{r}{q}"]


def _exprs():
    leaves = st.one_of(
        st.integers(0, 3).map(Const),
        st.sampled_from(["a", "r", "t", "q"]).map(LVar),
        st.sampled_from(_LOCS).map(Read),
        st.just(Tid()))

    def grow(inner):
        return st.one_of(
            *(st.tuples(inner, inner).map(lambda ab, k=k: k(*ab))
              for k in (Plus, Eq, Lt, And, Or)),
            inner.map(Not))

    return st.recursive(leaves, grow, max_leaves=8)


def _commands():
    prims = st.builds(lambda name, args: PrimCommand(name, tuple(args)),
                      st.sampled_from(["assume", "store", "p"]),
                      st.lists(_exprs(), max_size=3))
    leaves = st.one_of(prims.map(Prim), st.just(Skip()))

    def grow(inner):
        return st.one_of(st.tuples(inner, inner).map(lambda lr: Seq(*lr)),
                         st.tuples(inner, inner).map(lambda lr: Choice(*lr)),
                         inner.map(Iter))

    return st.recursive(leaves, grow, max_leaves=6)


_BINDINGS = st.dictionaries(st.sampled_from(["a", "r", "t"]),
                            st.integers(0, 3))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(e=_exprs(), b=_BINDINGS)
def test_walk_agrees_with_the_per_class_references_on_random_exprs(e, b):
    _check_expr(e, [b])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(c=_commands(), b=_BINDINGS)
def test_walk_agrees_with_the_per_class_references_on_random_commands(c, b):
    _check_command(c, [b])
    for p in command_prims(c):
        _check_prim(p, [b])


DEPTH = 2000


def test_a_deep_seq_chain_is_walked_and_rebuilt_without_recursion():
    assert DEPTH > sys.getrecursionlimit()
    c = Prim(PrimCommand("assume", (LVar("a"),)))
    for i in range(DEPTH):
        c = Seq(Prim(PrimCommand("store", (Read("x"), Const(i % 4)))), c)
    nodes = list(walk(c))
    assert sum(isinstance(n, Seq) for n in nodes) == DEPTH
    out = subst(c, {"a": 1})
    assert out is not c and free_lvars_expr(out) == frozenset()
    assert command_prims(out) == (command_prims(c)
                                  - {PrimCommand("assume", (LVar("a"),))}
                                  | {PrimCommand("assume", (Const(1),))})
    assert subst(c, {"r": 1}) is c
    assert rebuild(c, lambda n: None) is c


def test_a_deep_plus_chain_is_walked_and_rebuilt_without_recursion():
    e = LVar("a")
    for i in range(DEPTH):
        e = Plus(e, Read("c[{a}]") if i % 2 else Const(i % 4))
    assert sum(isinstance(n, Plus) for n in walk(e)) == DEPTH
    assert free_lvars_expr(e) == {"a"} and expr_locs(e) == {"c[{a}]"}
    out = subst(e, {"a": 2})
    assert free_lvars_expr(out) == frozenset()
    assert expr_locs(out) == {"c[2]"}
    depth = 0
    while isinstance(out, Plus):
        out, depth = out.a, depth + 1
    assert (depth, out) == (DEPTH, Const(2))


def test_rebuild_keeps_unchanged_subtrees_and_stops_at_a_replacement():
    x, y = Read("x"), LVar("a")
    e = And(Plus(x, y), Not(Eq(x, Const(0))))
    seen = []

    def leaf(n):
        seen.append(n)
        return Const(7) if isinstance(n, Not) else None

    out = rebuild(e, leaf)
    assert out is And(Plus(x, y), Const(7))
    assert out.a is e.a
    # the replaced subtree's parts are never visited
    assert Eq(x, Const(0)) not in seen
