import itertools
import json
import random

import pytest

from relviews.command_lang import (
    Const,
    Eq,
    Prim,
    PrimCommand,
    Read,
    SKIP,
    Seq,
    assume,
    desugar_while,
)
from relviews.logic import (
    AssertionEnv,
    OChoice,
    OIter,
    OPrim,
    OSeq,
    OSkip,
    check_proof,
)
from relviews.errors import ModelError
from relviews import linearizability
from relviews.linearizability import (
    all_instances,
    check_obligations,
    instance_obligations,
)
from relviews.model_io import load_model, load_outlines, parse_model
from relviews.state_model import (
    Heap,
    TokenMap,
    World,
    enumerate_worlds,
)
from relviews.vassn import APt, CPt, ExistsA, OrA, StarA, free_lvars
from relviews.command_lang import LVar
from oracles import (
    check_safe,
    instance_body,
    outline_views,
    substituted_outline,
)
from util import fixture_manifest, instance_outline, micro_dcsl, store

FIX = "src/relviews/fixtures"


def w(conc=None, abst=None, toks=None):
    return World(Heap(conc or {}), Heap(abst or {}), TokenMap(toks or {}))


def _mono():
    return micro_dcsl(cloc={"l": (0, 1)}, aloc={"x": (0, 1)}, values=(0, 1))


def test_eval_assertion_leaf_star_or():
    mono = _mono()
    env = AssertionEnv(mono, 1)
    leaf = CPt("l", Const(0))
    assert env.eval(leaf, {}) == frozenset({w({"l": 0})})
    star = StarA((leaf, APt("x", Const(1))))
    got = env.eval(star, {})
    assert got == frozenset({w({"l": 0}, {"x": 1})})
    both = env.eval(OrA((leaf, CPt("l", Const(1)))), {})
    assert both == frozenset({w({"l": 0}), w({"l": 1})})


def test_eval_exists_is_finite_disjunction():
    mono = _mono()
    env = AssertionEnv(mono, 1)
    got = env.eval(ExistsA("X", CPt("l", LVar("X"))), {})
    assert got == frozenset({w({"l": 0}), w({"l": 1})})


def test_free_lvars_memoized():
    rho = ExistsA("X", StarA((CPt("l", LVar("X")), APt("x", LVar("Y")))))
    assert free_lvars(rho) == frozenset({"Y"})
    # an equal tree built apart shares the entry
    assert free_lvars(ExistsA("X", StarA((CPt("l", LVar("X")),
                                          APt("x", LVar("Y")))))) \
        is free_lvars(rho)
    # a location placeholder is a free occurrence, bound by an exists
    assert free_lvars(ExistsA("v", CPt("x[{v}]", LVar("Y")))) \
        == frozenset({"Y"})


def test_check_proof_prim_id_accepted():
    mono = _mono()
    env = AssertionEnv(mono, 1)
    p = CPt("l", Const(0))
    assert check_proof(env, OPrim(PrimCommand("id")), p, p, {}) is None


def test_check_proof_rejects_wrong_post():
    mono = _mono()
    env = AssertionEnv(mono, 1)
    p = CPt("l", Const(0))
    q = CPt("l", Const(1))
    fail = check_proof(env, OPrim(PrimCommand("id")), p, q, {})
    assert fail is not None
    assert fail.rule == "Prim"


def test_check_proof_structural_rules():
    mono = _mono()
    env = AssertionEnv(mono, 1)
    p0 = CPt("l", Const(0))
    p1 = CPt("l", Const(1))
    node = OSeq(
        (OPrim(PrimCommand("store", (Read("l"), Const(1)))),
         OPrim(PrimCommand("store", (Read("l"), Const(0))))),
        (p1,),
    )
    assert check_proof(env, node, p0, p0, {}) is None
    both = OrA((p0, p1))
    ch = OChoice(OPrim(PrimCommand("store", (Read("l"), Const(0)))),
                 OPrim(PrimCommand("store", (Read("l"), Const(0)))))
    assert check_proof(env, ch, both, p0, {}) is None
    it = OIter(both, OPrim(PrimCommand("id")))
    assert check_proof(env, it, p0, both, {}) is None
    skip_bad = check_proof(env, OSkip(), p0, p1, {})
    assert skip_bad is not None and skip_bad.rule == "Skip"


def test_check_safe_skip_needs_implication():
    mono = _mono()
    q = frozenset({w({"l": 0})})
    p_bad = frozenset({w({"l": 1})})
    assert check_safe(1, q, SKIP, q, [q], mono)
    assert not check_safe(1, p_bad, SKIP, q, [q], mono)


def test_check_safe_prim_triple():
    mono = _mono()
    p = frozenset({w({"l": 0})})
    q = frozenset({w({"l": 1})})
    cmd = store("l", Const(1))
    assert check_safe(1, p, cmd, q, [p, q], mono)
    assert not check_safe(1, q, cmd, p, [p, q], mono)


def test_check_safe_blocked_loops_are_safe():
    mono = _mono()
    p = frozenset({w({"l": 0})})
    q = frozenset({w({"l": 1})})
    # a command that always blocks is vacuously safe for any post
    blocked = Seq(assume(Const(0)), store("l", Const(1)))
    assert check_safe(1, p, blocked, q, [p, q], mono)
    # while(false) never runs its body: p must imply the post after the
    # exit assume, matching direct trace simulation
    loop = desugar_while(Const(0), store("l", Const(1)))
    assert check_safe(1, p, loop, p, [p, q], mono)
    assert not check_safe(1, p, loop, q, [p, q], mono)


def test_lemma1_bridge_shipped_dcsl_outline():
    model = load_model(f"{FIX}/dcsl-cell/model.json")
    load_outlines(f"{FIX}/dcsl-cell/outline.json", model)
    for (m, a, r) in [("put", 0, 0), ("put", 1, 1), ("put", 0, 1)]:
        env = model.assertion_env(1)
        outline = instance_outline(model, m, 1, a, r)
        _node, pre, post, binding = outline
        assert check_proof(env, *outline) is None
        universe = outline_views(env, *outline)
        p = env.eval(pre, binding)
        q = env.eval(post, binding)
        body = instance_body(model, m, a, r)
        assert check_safe(1, p, body, q, universe, model.monoid())


def test_lemma1_bridge_rgsep_outline():
    model = load_model(f"{FIX}/atomic-inc/model.json")
    load_outlines(f"{FIX}/atomic-inc/outline.json", model)
    env = model.assertion_env(2)
    outline = instance_outline(model, "inc", 2, 1, 2)
    _node, pre, post, binding = outline
    assert check_proof(env, *outline) is None
    universe = outline_views(env, *outline)
    p = env.eval(pre, binding)
    q = env.eval(post, binding)
    assert check_safe(2, p, instance_body(model, "inc", 1, 2), q,
                      universe, model.monoid())


def test_safety_seq_closure_smoke():
    mono = micro_dcsl(cloc={"l": (0,)}, aloc={"x": (0,)}, values=(0,))
    worlds = enumerate_worlds(mono.dom)
    views = [frozenset(c) for n in range(len(worlds) + 1)
             for c in itertools.combinations(worlds, n)]
    rng = random.Random(17)
    cmds = [SKIP, Prim(PrimCommand("id")), store("l", Const(0)),
            assume(Eq(Read("l"), Const(0)))]
    caches = {}
    hits = 0
    for _ in range(60):
        c1, c2 = rng.choice(cmds), rng.choice(cmds)
        p, pm, q = (rng.choice(views) for _ in range(3))
        if check_safe(1, p, c1, pm, views, mono, caches) and \
                check_safe(1, pm, c2, q, views, mono, caches):
            assert check_safe(1, p, Seq(c1, c2), q, views, mono, caches)
            hits += 1
    assert hits >= 5


def _with_outline(fx):
    model = load_model(fx.model_path)
    load_outlines(fx.outline_path, model)
    return model


@pytest.mark.parametrize(
    "fx", [fx for fx in fixture_manifest() if fx.outline_path],
    ids=lambda fx: fx.name)
def test_bound_outlines_match_the_substituted_oracle(fx):
    """Checking a method's templates under an instance's bindings reports
    what checking the instance's substituted outline with no bindings
    reports, and the instance's obligations read the same."""
    bound = _with_outline(fx)
    oracle = _with_outline(fx)
    changed = 0
    for inst in all_instances(bound):
        m, t = inst[:2]
        outline = instance_outline(bound, *inst)
        subst = substituted_outline(*outline)
        # the oracle's obligations read this instance's substituted
        # templates, under bindings that they no longer mention
        (oracle.outline_templates[m], oracle.pre_templates[m],
         oracle.post_templates[m], _) = subst
        changed += subst[1] != outline[1]
        got = check_proof(bound.assertion_env(t), *outline)
        want = check_proof(oracle.assertion_env(t), *subst)
        assert str(got) == str(want), inst
        assert [it.line() for it in instance_obligations(bound, inst)] \
            == [it.line() for it in instance_obligations(oracle, inst)], inst
    assert changed, fx.name


@pytest.mark.parametrize(
    "fx", [fx for fx in fixture_manifest() if fx.outline_path],
    ids=lambda fx: fx.name)
def test_check_proof_is_called_once_per_instance(fx, monkeypatch):
    """The obligations check each instance's outline with one call through
    the `linearizability.check_proof` binding, whose calls the benchmark's
    tracer counts; the walk recurses through `logic`'s own name."""
    calls = []
    original = linearizability.check_proof

    def counted(env, node, pre, post, binding):
        calls.append((env.t, binding))
        return original(env, node, pre, post, binding)

    monkeypatch.setattr(linearizability, "check_proof", counted)
    model = _with_outline(fx)
    want = [(t, {"a": a, "r": r, "t": t})
            for _m, t, a, r in all_instances(model)]
    for _ in range(2):  # the second check with every memo warm
        calls.clear()
        check_obligations(model)
        assert calls == want, fx.name


def test_unbound_placeholder_in_an_outline_is_quantified():
    # `{k}` in a location ranges over the values, as `k` in a value does
    mono = micro_dcsl(cloc={"c0": (0, 1), "c1": (0, 1)})
    env = AssertionEnv(mono, 1)
    pre = CPt("c0", Const(0))
    for post in (CPt("c{k}", Const(0)), CPt("c0", LVar("k"))):
        fail = check_proof(env, OPrim(PrimCommand("id")), pre, post, {})
        assert fail.rule == "Prim" and fail.interp == {"k": 1}
    assert check_proof(
        env, OPrim(PrimCommand("id")), pre,
        OrA((CPt("c{k}", Const(0)), CPt("c0", Const(0)))), {}) is None


_UNBOUND_K = "unbound logical variable 'k'"


def _fixture_doc(name):
    with open(f"{FIX}/{name}/model.json") as fh:
        return json.load(fh)


def test_unbound_placeholder_in_a_family_is_a_model_error():
    # an outline would quantify `k`, but the obligations evaluate a family
    # under the instance's t, a and r alone: the family is refused at load
    doc = _fixture_doc("dcsl-cell")
    family = doc["assertions"]["put"]
    family["pre"] = ["star", family["pre"], ["or", ["emp"], ["pt", "c{k}", 0]]]
    with pytest.raises(ModelError) as info:
        parse_model(doc)
    assert str(info.value) == (f"model/assertions/put/pre: {_UNBOUND_K}: a "
                               "pre/post family binds only 't', 'a', 'r'")


def test_unbound_placeholder_in_the_shared_universe_is_a_model_error():
    doc = _fixture_doc("atomic-inc")
    doc["shared_universe"] = ["star", doc["shared_universe"],
                              ["or", ["emp"], ["pt", "c{k}", 0]]]
    with pytest.raises(ModelError) as info:
        parse_model(doc)
    assert str(info.value) == (f"model/shared_universe: {_UNBOUND_K}: the "
                               "shared universe binds none")
