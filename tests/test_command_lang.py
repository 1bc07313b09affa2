import json
import string

import pytest
from hypothesis import given
from hypothesis import strategies as st

from relviews.command_lang import (
    And,
    Choice,
    Const,
    Eq,
    GuardedUpdate,
    ID,
    Iter,
    LVar,
    Not,
    Plus,
    Prim,
    PrimCommand,
    Read,
    SKIP,
    Seq,
    Skip,
    Tid,
    assume,
    desugar_if,
    desugar_while,
    eval_expr,
    loc_placeholders,
    state_step,
    step,
    walk,
)
from relviews.errors import ModelError, UndefinedLocation
from relviews.fixtures import fixture_path
from relviews.linearizability import Semantics
from relviews.model_io import (
    load_model,
    load_outlines,
    parse_model,
    validate_command,
)
from relviews.state_model import FAULT, Heap

from oracles import reachable_commands
from util import fixture_manifest, store



def test_step_prim_to_skip():
    alpha = PrimCommand("store", (Read("l"), Const(1)))
    assert step(Prim(alpha)) == {(alpha, SKIP)}


def test_step_skip_seq():
    c = Prim(PrimCommand("id"))
    assert step(Seq(SKIP, c)) == {(ID, c)}


def test_step_iter_unfold_and_exit():
    body = Prim(PrimCommand("id"))
    got = step(Iter(body))
    assert got == {(ID, Seq(body, Iter(body))), (ID, SKIP)}


def test_step_skip_empty():
    assert step(SKIP) == frozenset()


def test_step_choice():
    l, r = assume(Const(1)), assume(Const(0))
    assert step(Choice(l, r)) == {(ID, l), (ID, r)}


def test_step_seq_congruence():
    alpha = PrimCommand("store", (Read("l"), Const(5)))
    rest = assume(Const(1))
    got = step(Seq(Prim(alpha), rest))
    assert got == {(alpha, Seq(SKIP, rest))}


def test_step_deterministic_shape():
    c = Seq(Choice(SKIP, assume(Const(1))), Iter(SKIP))
    assert step(c) == step(c)
    assert isinstance(step(c), frozenset)


def _at(sigma, t=1, modulus=4):
    """`state_step`'s callback: run each builtin primitive at one heap."""
    return lambda alpha: Semantics({}, {}, modulus).run(alpha, t, sigma)


def test_state_step_id():
    sigma = Heap({"l": 0})
    got = state_step(Prim(PrimCommand("id")), _at(sigma))
    assert got == ((PrimCommand("id"), SKIP, (sigma,)),)


def test_state_step_assume_false_blocks():
    ((_alpha, _c2, results),) = state_step(assume(Const(0)),
                                           _at(Heap({"l": 0})))
    assert results == ()


def test_state_step_store_under_seq():
    sigma = Heap({"l": 0})
    c = Seq(store("l", Const(5)), assume(Const(1)))
    got = state_step(c, _at(sigma, modulus=8))
    assert len(got) == 1
    ((alpha, c2, (sigma2,)),) = got
    assert alpha.name == "store"
    assert sigma2 == Heap({"l": 5})
    assert c2 == Seq(SKIP, assume(Const(1)))


def test_state_step_projects_into_step():
    sigma = Heap({"l": 1})
    c = Choice(store("l", Const(0)), assume(Read("l")))
    got = state_step(c, _at(sigma))
    assert {(alpha, c2) for alpha, c2, _results in got} == step(c)


def test_state_step_asks_the_callback_once_per_step():
    c = Choice(store("l", Const(0)), assume(Read("l")))
    asked = []
    got = state_step(c, lambda alpha: asked.append(alpha) or alpha.name)
    assert sorted(asked, key=repr) == sorted(
        (alpha for alpha, _c2 in step(c)), key=repr)
    assert all(results == alpha.name for alpha, _c2, results in got)


def test_store_on_missing_location_faults():
    got = state_step(store("m", Const(1)), _at(Heap({"l": 0})))
    assert [results for _, _, results in got] == [(FAULT,)]


def test_desugar_if_shape():
    e = Eq(Read("l"), Const(0))
    c1, c2 = store("l", Const(1)), SKIP
    got = desugar_if(e, c1, c2)
    assert got == Choice(Seq(assume(e), c1), Seq(assume(Not(e)), c2))


def test_desugar_while_shape():
    e = Read("l")
    body = store("l", Const(0))
    got = desugar_while(e, body)
    assert got == Seq(Iter(Seq(assume(e), body)), assume(Not(e)))


def _traces(c, sigma, t=1, modulus=4):
    """All terminating (command reaches skip) state traces, with stuttering
    id steps collapsed."""
    out = set()
    stack = [(c, sigma, (sigma,))]
    while stack:
        cur, sg, trace = stack.pop()
        if isinstance(cur, Skip):
            out.add(trace)
            continue
        for _alpha, c2, results in state_step(cur, _at(sg, t, modulus)):
            for s2 in results:
                if s2 is FAULT:
                    continue
                grown = trace if s2 == trace[-1] else trace + (s2,)
                stack.append((c2, s2, grown))
    return out


def test_while_false_guard_runs_exit_assume_only():
    c = desugar_while(Const(0), store("l", Const(1)))
    sigma = Heap({"l": 0})
    traces = _traces(c, sigma)
    # the only terminating traces never execute the body
    assert traces
    assert all(all(s == sigma for s in tr) for tr in traces)


def test_if_traces_equal_union_of_guarded_branches():
    e = Eq(Read("l"), Const(0))
    c1 = store("l", Const(1))
    c2 = store("l", Const(0))
    whole = desugar_if(e, c1, c2)
    b1 = Seq(assume(e), c1)
    b2 = Seq(assume(Not(e)), c2)
    for v in (0, 1):
        sigma = Heap({"l": v})
        assert _traces(whole, sigma) == _traces(b1, sigma) | _traces(b2, sigma)


def test_eval_expr_examples():
    sigma = Heap({"l": 2})
    assert eval_expr(Const(3), sigma, {}, 1, 8) == 3
    assert eval_expr(Tid(), sigma, {}, 2, 8) == 2
    assert eval_expr(Plus(Read("l"), Const(1)), sigma, {}, 1, 8) == 3
    assert eval_expr(And(Const(1), Not(Const(0))), sigma, {}, 1, 8) == 1
    assert eval_expr(LVar("X"), sigma, {"X": 7}, 1, 8) == 7


def test_eval_expr_wraps_modulo():
    assert eval_expr(Plus(Const(3), Const(2)), Heap(), {}, 1, 4) == 1


def test_eval_expr_undefined_location():
    with pytest.raises(UndefinedLocation):
        eval_expr(Read("nope"), Heap({"l": 0}), {}, 1, 4)


def test_thread_local_location_resolution():
    sem = Semantics({"touch": GuardedUpdate(
        updates=(("res[{t}]", Const(9)),))}, {}, 16)
    sigma = Heap({"res[1]": 0, "res[2]": 0})
    (out,) = sem.run(PrimCommand("touch"), 2, sigma)
    assert out == Heap({"res[1]": 0, "res[2]": 9})


def test_custom_prim_blocking_vs_faulting_distinct():
    sem = Semantics({
        "blocked": GuardedUpdate(guard=Const(0)),
        "faulty": GuardedUpdate(updates=(("missing", Const(0)),)),
    }, {}, 4)
    sigma = Heap({"l": 0})
    assert sem.run(PrimCommand("blocked"), 1, sigma) == ()
    assert sem.run(PrimCommand("faulty"), 1, sigma) == (FAULT,)


def test_table_rejects_builtin_shadowing_and_bad_arity():
    # both are load errors: `Semantics.run` trusts a loaded primitive
    doc = json.load(open(fixture_path("atomic-inc", "model.json")))
    doc["primitives"]["store"] = doc["primitives"]["inc_atomic"]
    with pytest.raises(ModelError) as info:
        parse_model(doc)
    assert str(info.value) == ("model/primitives/store: primitive 'store' "
                               "shadows a builtin")
    prims = {"two": GuardedUpdate(params=("x", "y"))}
    with pytest.raises(ModelError, match="'two': takes 2, given 1"):
        validate_command(Prim(PrimCommand("two", (Const(0),))), prims)


def test_validate_command_checks_declarations():
    with pytest.raises(ModelError, match="undeclared primitive 'mystery'"):
        validate_command(Prim(PrimCommand("mystery")), {})


def test_validate_command_checks_arity():
    with pytest.raises(ModelError, match="takes 1, given 0"):
        validate_command(Prim(PrimCommand("assume")), {})


def test_reachable_commands_finite_for_iter():
    c = Iter(Seq(assume(Const(1)), store("l", Const(0))))
    cmds = reachable_commands(c)
    assert SKIP in cmds
    assert len(cmds) < 20


def test_nonskip_commands_always_step():
    import random

    rng = random.Random(23)
    pool = [Prim(PrimCommand("id")), assume(Const(0)), store("l", Const(0))]

    def gen(depth):
        if depth == 0:
            return rng.choice(pool)
        k = rng.randrange(4)
        if k == 0:
            return Seq(gen(depth - 1), gen(depth - 1))
        if k == 1:
            return Choice(gen(depth - 1), gen(depth - 1))
        if k == 2:
            return Iter(gen(depth - 1))
        return rng.choice(pool + [SKIP])

    for _ in range(300):
        c = gen(3)
        if not isinstance(c, Skip):
            assert step(c)


def _placeholders(fn, loc):
    """fn(loc), or ValueError if it raises one."""
    try:
        return fn(loc)
    except ValueError:
        return ValueError


def _formatter_names(loc):
    """The oracle: the placeholder names `string.Formatter` parses."""
    return frozenset(f for _, f, _, _ in string.Formatter().parse(loc)
                     if f is not None)


@given(st.text(alphabet="abt{}:!", max_size=12))
def test_loc_placeholders_agree_with_the_formatter(loc):
    assert _placeholders(loc_placeholders, loc) == \
        _placeholders(_formatter_names, loc)


def _fixture_locations():
    """Every location of every fixture model and outline: declared, or
    read, updated or pointed to by a primitive, body or assertion."""
    locs = set()
    for fx in fixture_manifest():
        model = load_model(fx.model_path)
        if fx.outline_path:
            load_outlines(fx.outline_path, model)
        locs.update(loc for loc, _ in model.dom.cloc + model.dom.aloc)
        specs = [*model.sem.prims.values(), *model.sem.abstract.values()]
        locs.update(loc for spec in specs for loc, _ in spec.updates)
        trees = [e for spec in specs
                 for e in (spec.guard, *(e for _, e in spec.updates))
                 if e is not None]
        trees += [*model.body_templates.values(),
                  *model.pre_templates.values(),
                  *model.post_templates.values(),
                  *model.outline_templates.values(),
                  *(a for pair in model.actions.values() for a in pair)]
        if model.shared_universe_assn is not None:
            trees.append(model.shared_universe_assn)
        locs.update(n.loc for n in walk(*trees) if "loc" in n._fields)
    return sorted(locs)


def test_loc_placeholders_agree_with_the_formatter_on_the_fixtures():
    locs = _fixture_locations()
    assert any("{" in loc for loc in locs)
    for loc in locs:
        assert loc_placeholders(loc) == _formatter_names(loc), loc
