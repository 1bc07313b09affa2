import itertools
import random

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
    store,
)
from relviews.logic import (
    AssertionEnv,
    OChoice,
    OIter,
    OPrim,
    OSeq,
    OSkip,
    ProofOutline,
    check_proof,
)
from relviews.model_io import load_model, load_outlines
from relviews.state_model import (
    Heap,
    TokenMap,
    World,
    enumerate_worlds,
)
from relviews.vassn import APt, CPt, ExistsA, OrA, StarA
from relviews.command_lang import LVar
from oracles import check_safe, outline_views
from util import micro_dcsl

FIX = "src/relviews/fixtures"


def w(conc=None, abst=None, toks=None):
    return World(Heap(conc or {}), Heap(abst or {}), TokenMap(toks or {}))


def _mono():
    return micro_dcsl(cloc={"l": (0, 1)}, aloc={"x": (0, 1)}, values=(0, 1))


def test_eval_assertion_leaf_star_or():
    mono = _mono()
    env = AssertionEnv(mono)
    leaf = CPt("l", Const(0))
    assert env.eval(leaf, {}) == frozenset({w({"l": 0})})
    star = StarA((leaf, APt("x", Const(1))))
    got = env.eval(star, {})
    assert got == frozenset({w({"l": 0}, {"x": 1})})
    both = env.eval(OrA((leaf, CPt("l", Const(1)))), {})
    assert both == frozenset({w({"l": 0}), w({"l": 1})})


def test_eval_exists_is_finite_disjunction():
    mono = _mono()
    env = AssertionEnv(mono)
    got = env.eval(ExistsA("X", CPt("l", LVar("X"))), {})
    assert got == frozenset({w({"l": 0}), w({"l": 1})})


def test_free_lvars_memoized_per_env():
    env = AssertionEnv(_mono())
    rho = ExistsA("X", StarA((CPt("l", LVar("X")), APt("x", LVar("Y")))))
    assert env.lvars(rho) == frozenset({"Y"})
    assert env.lvars(rho) is env.lvars(rho)
    # an equal tree built apart shares the entry
    assert env.lvars(ExistsA("X", StarA((CPt("l", LVar("X")),
                                         APt("x", LVar("Y")))))) \
        is env.lvars(rho)
    assert AssertionEnv(_mono()).lvars(rho) is not env.lvars(rho)


def test_check_proof_prim_id_accepted():
    mono = _mono()
    env = AssertionEnv(mono)
    p = CPt("l", Const(0))
    outline = ProofOutline(1, p, OPrim(PrimCommand("id")), p)
    assert check_proof(outline, env) is None


def test_check_proof_rejects_wrong_post():
    mono = _mono()
    env = AssertionEnv(mono)
    p = CPt("l", Const(0))
    q = CPt("l", Const(1))
    outline = ProofOutline(1, p, OPrim(PrimCommand("id")), q)
    fail = check_proof(outline, env)
    assert fail is not None
    assert fail.rule == "Prim"


def test_check_proof_structural_rules():
    mono = _mono()
    env = AssertionEnv(mono)
    p0 = CPt("l", Const(0))
    p1 = CPt("l", Const(1))
    node = OSeq(
        (OPrim(PrimCommand("store", (Read("l"), Const(1)))),
         OPrim(PrimCommand("store", (Read("l"), Const(0))))),
        (p1,),
    )
    assert check_proof(ProofOutline(1, p0, node, p0), env) is None
    both = OrA((p0, p1))
    ch = OChoice(OPrim(PrimCommand("store", (Read("l"), Const(0)))),
                 OPrim(PrimCommand("store", (Read("l"), Const(0)))))
    assert check_proof(ProofOutline(1, both, ch, p0), env) is None
    it = OIter(both, OPrim(PrimCommand("id")))
    assert check_proof(ProofOutline(1, p0, it, both), env) is None
    skip_bad = check_proof(ProofOutline(1, p0, OSkip(), p1), env)
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
        outline = model.outline(m, 1, a, r)
        assert check_proof(outline, env) is None
        universe = outline_views(outline, env)
        p = env.eval(outline.pre, {})
        q = env.eval(outline.post, {})
        body = model.body(m, a, r)
        assert check_safe(1, p, body, q, universe, model.monoid())


def test_lemma1_bridge_rgsep_outline():
    model = load_model(f"{FIX}/atomic-inc/model.json")
    load_outlines(f"{FIX}/atomic-inc/outline.json", model)
    env = model.assertion_env(2)
    outline = model.outline("inc", 2, 1, 2)
    assert check_proof(outline, env) is None
    universe = outline_views(outline, env)
    p = env.eval(outline.pre, {})
    q = env.eval(outline.post, {})
    assert check_safe(2, p, model.body("inc", 1, 2), q, universe,
                      model.monoid())


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
