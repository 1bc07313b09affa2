"""Compiled expressions against the recursive interpreter.

`command_lang.eval_expr` runs a closure compiled once per hash-consed
expression node.  It must give what `oracles.ref_eval_expr`, the
interpreter it replaced, gives: the same value, or the same error
(`UndefinedLocation` naming the same location).  Checked on every
expression of every fixture and of the generated family models, at every
thread, under every binding of its logical variables to the declared
values and over every partial heap of the locations it reads; and on
random trees with `{t}` locations, sums past the modulus and `and`/`or`
whose right side, skipped, reads a missing cell.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from families import dcsl_cell, flat_combiner
from oracles import ref_eval_expr
from relviews.command_lang import (
    And,
    Const,
    Eq,
    LVar,
    Lt,
    Not,
    Or,
    Plus,
    PrimCommand,
    Read,
    Tid,
    eval_expr,
    loc_placeholders,
    resolve_loc,
    walk,
)
from relviews.errors import UndefinedLocation
from relviews.model_io import load_model, load_outlines, parse_model
from relviews.state_model import Heap, enumerate_heaps
from util import fixture_manifest

EXPR = (Const, LVar, Read, Tid, Plus, Eq, Lt, Not, And, Or)


def _outcome(evaluate, *args):
    """The value, or the error's type and arguments."""
    try:
        return evaluate(*args)
    except Exception as exc:  # the two must fail alike, whatever the error
        return type(exc), exc.args


def _assert_agrees(*args):
    want = _outcome(ref_eval_expr, *args)
    assert _outcome(eval_expr, *args) == want, (args, want)


def _models():
    for fx in fixture_manifest():
        model = load_model(fx.model_path)
        if fx.outline_path:
            load_outlines(fx.outline_path, model)
        yield fx.name, model
    for n in (2, 3):
        yield f"flat-combiner-{n}", parse_model(flat_combiner(n)[0])
    yield "dcsl-cell-v3-t3", parse_model(dcsl_cell(3, 3))


def _trees(model):
    """Every tree of the model that holds expressions: the bodies, the
    primitives' and abstract methods' guards and updates, and the proof
    data."""
    sem = model.sem
    updates = [*sem.prims.values(), *sem.abstract.values()]
    return [*model.body_templates.values(),
            *(u.guard for u in updates if u.guard is not None),
            *(e for u in updates for _loc, e in u.updates),
            *model.pre_templates.values(), *model.post_templates.values(),
            *model.outline_templates.values(),
            *(a for pair in model.actions.values() for a in pair),
            *filter(None, [model.shared_universe_assn])]


def test_compiled_expressions_agree_on_every_model_expression():
    checked = 0
    for name, model in _models():
        dom = model.dom
        locdom = dict(dom.cloc + dom.aloc)
        exprs = {n for n in walk(*_trees(model)) if type(n) in EXPR}
        assert exprs, name
        for e in exprs:
            names = sorted({n.name for n in walk(e) if type(n) is LVar})
            for t in dom.thread_ids():
                # a `{a}` or `{r}` location fails alike in both, unheaped
                locs = sorted({resolve_loc(n.loc, t) for n in walk(e)
                               if type(n) is Read
                               and loc_placeholders(n.loc) <= {"t"}})
                heaps = list(enumerate_heaps(
                    [(loc, locdom.get(loc, dom.values)) for loc in locs]))
                for values in itertools.product(dom.values,
                                                repeat=len(names)):
                    interp = dict(zip(names, values))
                    for heap in heaps:
                        _assert_agrees(e, heap, interp, t, dom.modulus)
                        checked += 1
    assert checked > 3_000


# "zz" is in no heap, and "c[{t}]" only in some, so some reads fail
CELLS = ("l", "m", "c[{t}]", "zz")


def _exprs():
    leaf = st.one_of(
        st.builds(Const, st.integers(0, 7)),
        st.builds(LVar, st.sampled_from(("x", "y"))),
        st.builds(Read, st.sampled_from(CELLS)),
        st.just(Tid()))
    return st.recursive(leaf, lambda sub: st.one_of(
        st.builds(Not, sub),
        *(st.builds(k, sub, sub) for k in (Plus, Eq, Lt, And, Or))),
        max_leaves=12)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(e=_exprs(),
       cells=st.dictionaries(st.sampled_from(("l", "m", "c[1]", "c[2]")),
                             st.integers(0, 7)),
       x=st.integers(0, 7), t=st.integers(1, 2), modulus=st.integers(1, 5))
def test_compiled_expressions_agree_on_random_trees(e, cells, x, t, modulus):
    for tree in (e, And(e, Read("zz")), Or(e, Read("zz"))):
        _assert_agrees(tree, Heap(cells), {"x": x, "y": 3}, t, modulus)


def test_and_or_skip_a_right_side_that_reads_a_missing_cell():
    heap = Heap({"l": 0, "c[2]": 1})
    for e, want in ((And(Read("l"), Read("zz")), 0),
                    (Or(Read("c[{t}]"), Read("zz")), 1),
                    (Or(Not(Read("l")), Read("zz")), 1)):
        assert eval_expr(e, heap, {}, 2, 3) == want
        _assert_agrees(e, heap, {}, 2, 3)
    for e in (And(Not(Read("l")), Read("zz")), Or(Read("l"), Read("zz")),
              Plus(Read("c[{t}]"), Const(1))):
        _assert_agrees(e, heap, {}, 1, 3)
    try:
        eval_expr(Or(Read("l"), Read("c[{t}]")), heap, {}, 1, 3)
    except UndefinedLocation as exc:
        assert exc.loc == "c[1]"
    else:
        raise AssertionError("c[1] is missing")


def test_sums_wrap_at_the_modulus():
    for a, b, m in itertools.product(range(6), range(6), range(1, 5)):
        e = Plus(Const(a), Plus(LVar("x"), Const(0)))
        assert eval_expr(e, Heap(), {"x": b}, 1, m) == (a + b) % m
        _assert_agrees(e, Heap(), {"x": b}, 1, m)


def test_a_node_of_no_expression_class_fails_only_when_evaluated():
    odd = PrimCommand("id")
    _assert_agrees(odd, Heap(), {}, 1, 2)
    _assert_agrees(Not(odd), Heap(), {}, 1, 2)
    assert eval_expr(And(Const(0), odd), Heap(), {}, 1, 2) == 0
    assert eval_expr(Or(Const(1), odd), Heap(), {}, 1, 2) == 1
    _assert_agrees(Or(Const(0), odd), Heap(), {}, 1, 2)
