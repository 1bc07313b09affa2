"""The shared action-judgement loop against its references.

`views_core.judge_action` is the one step, fault and linearization loop of
both monoids.  `DcslMonoid.check_action`, and `check_action_with_frames`
under any frames, must return what `oracles.action_over_frames` returns:
it tests each linearization choice's world for membership in the framed
post.  `RgsepMonoid.check_action` must return what
`oracles.rgsep_action_by_pairs` returns over the predicates' pairs.  The
results are compared whole: `True`, or the counterexample's thread,
primitive, frame, world, result and reason.  Views are generated over micro
domains, and passing, faulting and unmatched judgements must all occur.

A post entry with a step's result is tested by `views_core.linearizes`,
goal first, only when its shared change is admissible and its token map is
not the pre-world's own; every test that `check-proof` makes must answer
as membership in the oracle's `lp_star` closure does.

A model memoizes the judgement's inputs: its `Semantics` the primitive
instances and the runs of primitives and abstract commands, and its
monoid, of either kind, each view's triples and post index.  Each judgement that `check-proof` makes is
recomputed on its own copy of a freshly built monoid of a freshly loaded
model, and of that model's `Semantics`, whose memos are empty, and each
memoized instance must be the primitive substituted afresh.  `check-lin`
and `check-proof` share the `Semantics`: run on one model in either
order, each reports what it reports on a freshly loaded model, and every
run and instance either memoizes is computed afresh.  `Semantics` is the
one place in the package that runs a transformer table.
"""

import ast
import copy
import json
import os
import random
import sys
from collections import Counter

import pytest

from relviews.command_lang import (
    GuardedUpdate,
    LVar,
    walk,
)
from relviews.fixtures import fixture_path
from relviews.linearizability import (
    Semantics,
    all_instances,
    check_linearizable,
    check_obligations,
)
from relviews.logic import OPrim
from relviews.model_io import attach_outlines, parse_model
from relviews.monoid_dcsl import DcslMonoid
from relviews.monoid_rgsep import RgsepMonoid
from relviews.state_model import (
    FAULT,
    UNIT,
    APCom,
    World,
    compose_worlds,
    enumerate_worlds,
)
from relviews import views_core
from relviews.subst import subst, subst_names
from relviews.views_core import check_action_with_frames, linearizes
from families import dcsl_cell, flat_combiner
from oracles import (
    action_over_frames,
    lp_star,
    ref_apply,
    rgsep_action_by_pairs,
    todos,
    world_leq,
    world_minus,
)
from util import (
    PRIMS_1LOC,
    instance_outline,
    micro_domains,
    rgsep_view,
    sample_view,
    strongest_post,
)

OPS = (APCom("op", 0, 0), APCom("op", 1, 1))


def _semantics(dom):
    # the abstract op writes its argument to x, so linearization steps
    # change the abstract heap as well as the tokens
    op = GuardedUpdate(params=("a", "r"), updates=(("x", LVar("a")),))
    return Semantics({}, {"op": op}, dom.modulus)


def _kind(result):
    if result is True:
        return "holds"
    return "fault" if result.sigma2 is FAULT else "no match"


def test_dcsl_judgement_agrees_with_reference():
    dom = micro_domains(cloc={"l": (0, 1)}, aloc={"x": (0, 1)}, nthreads=2,
                        apcoms=OPS, values=(0, 1))
    mono = DcslMonoid(dom, _semantics(dom))
    worlds = enumerate_worlds(dom)
    rng = random.Random(41)
    kinds = Counter()
    framed = Counter()
    for _ in range(800):
        t = rng.choice(dom.thread_ids())
        alpha = rng.choice(PRIMS_1LOC)
        p = sample_view(rng, worlds, 4)
        post = strongest_post(mono, t, alpha, p) or frozenset()
        q = rng.choice([
            sample_view(rng, worlds, 4),
            post,
            post | sample_view(rng, worlds, 2),
            frozenset(w for w in post if not todos(w.toks)),
        ])
        got = mono.check_action(t, alpha, p, q)
        assert got == action_over_frames(mono, t, alpha, p, q,
                                         (UNIT,)), (t, alpha, p, q)
        kinds[_kind(got)] += 1
        # a frame other than the unit is named in the counterexample
        frames = (sample_view(rng, worlds, 2), sample_view(rng, worlds, 2))
        got = check_action_with_frames(mono, t, alpha, p, q, frames)
        assert got == action_over_frames(mono, t, alpha, p, q, frames), (
            t, alpha, p, q, frames)
        if got is not True:
            framed[got.frame != UNIT] += 1
    assert set(kinds) == {"holds", "fault", "no match"}, kinds
    assert framed[True] > 0, framed


def _resplits(mono, t, alpha, pairs, guar, rng):
    """Post pairs for the pre pairs: each step's result after some
    linearization steps, split over a shared state that the guarantee
    allows; None when the primitive can fault."""
    sem = mono.sem
    out = set()
    for l, s in pairs:
        w = compose_worlds(l, s)
        for sigma2 in ref_apply(sem, alpha, t, w.conc):
            if sigma2 is FAULT:
                return None
            for abs2, toks2 in lp_star(w.abst, w.toks, sem):
                w2 = World(sigma2, abs2, toks2)
                shared = [s2 for s2 in mono.universe if world_leq(s2, w2)
                          and (s2 == s or (s, s2) in guar)]
                if shared:
                    s2 = rng.choice(shared)
                    out.add((world_minus(w2, s2), s2))
    return out


def _with_guarantee(mono, guar):
    """The monoid with every thread's guarantee replaced by guar; a model
    declares its guarantee by actions, which cannot denote every relation
    that this test draws."""
    out = copy.copy(mono)
    out._guars = {t: guar for t in mono.dom.thread_ids()}
    return out


def test_rgsep_judgement_agrees_with_reference():
    dom = micro_domains(cloc={"l": (0, 1)}, aloc={"x": (0, 1)}, nthreads=1,
                        apcoms=OPS, values=(0, 1))
    mono = RgsepMonoid(dom, _semantics(dom))
    worlds = enumerate_worlds(dom)
    pairs = [(l, s) for l in worlds for s in mono.universe
             if compose_worlds(l, s) is not None]
    moves = [(s, s2) for s in mono.universe for s2 in mono.universe
             if s != s2]
    guars = [frozenset(), frozenset(moves),
             frozenset(random.Random(5).sample(moves, len(moves) // 4))]
    monos = [_with_guarantee(mono, guar) for guar in guars]
    rng = random.Random(43)
    kinds = Counter()
    for _ in range(800):
        alpha = rng.choice(PRIMS_1LOC)
        mono = rng.choice(monos)
        guar = mono.guarantee(1)
        pre = set(rng.sample(pairs, rng.randint(0, 4)))
        post = _resplits(mono, 1, alpha, pre, guar, rng) or set()
        q_pairs = rng.choice([
            set(rng.sample(pairs, rng.randint(0, 4))),
            post,
            post | set(rng.sample(pairs, 2)),
            {(l, s) for l, s in post
             if not todos(compose_worlds(l, s).toks)},
        ])
        p = rgsep_view(mono, pre)
        q = rgsep_view(mono, q_pairs)
        got = mono.check_action(1, alpha, p, q)
        assert got == rgsep_action_by_pairs(mono, 1, alpha, p, q), (
            alpha, pre, q_pairs)
        kinds[_kind(got)] += 1
    assert set(kinds) == {"holds", "fault", "no match"}, kinds


# ---------------------------------------------------------------------------
# The memos of a model's monoid


def _fixture(name):
    return tuple(json.load(open(fixture_path(name, f)))
                 for f in ("model.json", "outline.json"))


def _proof_cases():
    cell_outline = _fixture("dcsl-cell")[1]
    cases = {name: _fixture(name) for name in (
        "atomic-inc", "dcsl-cell", "dcsl-helping", "flat-combiner",
        "flat-combiner-noaction4")}
    for nvalues, nthreads in ((5, 1), (3, 2)):
        cases[f"dcsl-cell-v{nvalues}-t{nthreads}"] = (
            dcsl_cell(nvalues, nthreads), cell_outline)
    for n in (2, 3, 4):
        for res1 in (0, 4):
            cases[f"flat-combiner-{n}-res1-{res1}"] = flat_combiner(n, res1)
    return cases


_PROOF_CASES = _proof_cases()


def _verdict(got):
    return True if got is True else str(got)


def _with_own_memos(obj):
    """A shallow copy of obj whose dict attributes are copies."""
    out = copy.copy(obj)
    out.__dict__.update((k, dict(v)) for k, v in vars(obj).items()
                        if type(v) is dict)
    return out


@pytest.mark.parametrize("name", _PROOF_CASES)
def test_memoized_judgements_match_a_fresh_monoid(name, monkeypatch):
    doc, outline_doc = _PROOF_CASES[name]
    model = parse_model(copy.deepcopy(doc))
    attach_outlines(copy.deepcopy(outline_doc), model)
    cls = type(model.monoid())
    made = []

    def record(self, t, alpha, p, q):
        got = check(self, t, alpha, p, q)
        made.append((t, alpha, p, q, _verdict(got)))
        return got

    check = cls.check_action
    monkeypatch.setattr(cls, "check_action", record)
    check_obligations(model)
    monkeypatch.undo()
    assert made

    # a fresh model's monoid, built and never used: each judgement runs on
    # a copy of it and of its `Semantics` whose memos are their own; the
    # runs memo holds the abstract runs too, so it is empty of them
    fresh = parse_model(copy.deepcopy(doc)).monoid()
    assert not (fresh.sem._runs or fresh.sem._instances)
    for t, alpha, p, q, want in made:
        mono = _with_own_memos(fresh)
        mono.sem = _with_own_memos(fresh.sem)
        assert _verdict(mono.check_action(t, alpha, p, q)) == want, (
            t, alpha)

    # every memoized instance is the primitive substituted afresh, also
    # for the bindings that share an entry with an earlier one
    assert model.sem._instances
    for m, t, a, r in all_instances(model):
        outline, _pre, _post, binding = instance_outline(model, m, t, a, r)
        for node in walk(outline):
            if type(node) is OPrim:
                assert model.sem.instance(node.prim, binding) is subst(
                    node.prim, binding)


@pytest.mark.parametrize("name", ["atomic-inc", "dcsl-cell",
                                  "dcsl-cell-v3-t2", "flat-combiner"])
def test_a_second_judgement_builds_no_new_triples_or_post_index(
        name, monkeypatch):
    """Both monoids read a judgement's inputs from the per-view memos of
    `ViewMonoid`: judging the same (p, q) again reads p's triples and q's
    post index from them and builds no new entry."""
    doc, outline_doc = _PROOF_CASES[name]
    model = parse_model(copy.deepcopy(doc))
    attach_outlines(copy.deepcopy(outline_doc), model)
    mono = model.monoid()
    cls = type(mono)
    made = []

    def record(self, t, alpha, p, q):
        got = check(self, t, alpha, p, q)
        made.append((t, alpha, p, q, got))
        return got

    check = cls.check_action
    monkeypatch.setattr(cls, "check_action", record)
    check_obligations(model)
    monkeypatch.undo()
    memos = (mono._triples_memo, mono._post_memo)
    built = [dict(memo) for memo in memos]
    for t, alpha, p, q, want in made:
        assert check(mono, t, alpha, p, q) == want
    for memo, before in zip(memos, built):
        assert memo.keys() == before.keys()
        assert all(memo[view] is got for view, got in before.items())
    judged = [(p, q) for _t, _alpha, p, q, _w in made if mono.triples(p)]
    assert judged
    for p, q in judged:
        assert mono.triples(p) is mono._triples_memo[p]
        assert q in mono._post_memo


_SHARED_CASES = {name: _PROOF_CASES[name] for name in (
    "atomic-inc", "dcsl-cell", "dcsl-helping", "flat-combiner",
    "flat-combiner-noaction4", "flat-combiner-3-res1-0")}


@pytest.mark.parametrize("name", _SHARED_CASES)
def test_both_checkers_share_one_semantics(name):
    doc, outline_doc = _SHARED_CASES[name]

    def load():
        model = parse_model(copy.deepcopy(doc))
        attach_outlines(copy.deepcopy(outline_doc), model)
        return model

    lin, obligations = check_linearizable(load(), 10), check_obligations(
        load())
    lin_first, proof_first = load(), load()
    assert check_linearizable(lin_first, 10) == lin
    assert check_obligations(lin_first) == obligations
    assert check_obligations(proof_first) == obligations
    assert check_linearizable(proof_first, 10) == lin

    for model in (lin_first, proof_first):
        sem = model.sem
        assert sem._runs and sem._instances
        for (alpha, t, heap), heaps in sem._runs.items():
            assert heaps == ref_apply(sem, alpha, t, heap)
        assert {type(alpha) is APCom for alpha, _t, _heap in sem._runs} == {
            True, False}
        for (prim, values), alpha in sem._instances.items():
            binding = {n: v for n, v in zip(subst_names(prim), values)
                       if v is not None}
            assert alpha is subst(prim, binding), (prim, values)


@pytest.mark.parametrize("name", _PROOF_CASES)
def test_every_linearization_test_matches_the_closure(name, monkeypatch):
    doc, outline_doc = _PROOF_CASES[name]
    model = parse_model(copy.deepcopy(doc))
    attach_outlines(copy.deepcopy(outline_doc), model)
    tested = []

    def record(sem, sigma_a, toks, abs2, toks2):
        got = linearizes(sem, sigma_a, toks, abs2, toks2)
        tested.append((sigma_a, toks, abs2, toks2, got))
        return got

    monkeypatch.setattr(views_core, "linearizes", record)
    check_obligations(model)
    monkeypatch.undo()
    assert tested
    closures = {}
    for sigma_a, toks, abs2, toks2, got in tested:
        closure = closures.get((sigma_a, toks))
        if closure is None:
            closure = closures[sigma_a, toks] = lp_star(sigma_a, toks,
                                                        model.sem)
        assert got == ((abs2, toks2) in closure), (sigma_a, toks, abs2,
                                                   toks2)


@pytest.mark.parametrize("name", ["atomic-inc", "flat-combiner",
                                  "flat-combiner-noaction4",
                                  "flat-combiner-3-res1-0"])
def test_linearization_is_tested_only_after_the_cheaper_tests(name,
                                                              monkeypatch):
    """`judge_action` calls `linearizes` only for a post entry whose shared
    change is admissible (none, or in the guarantee) and whose token map
    is not the pre-world's own, where the abstract heaps decide."""
    doc, outline_doc = _PROOF_CASES[name]
    model = parse_model(copy.deepcopy(doc))
    attach_outlines(copy.deepcopy(outline_doc), model)
    tested = []

    def record(sem, sigma_a, toks, abs2, toks2):
        # the judgement's own post entry, read from its frame
        judged = sys._getframe(1).f_locals
        tested.append((judged["shared"], judged["shared2"], judged["guar"],
                       toks, toks2))
        return linearizes(sem, sigma_a, toks, abs2, toks2)

    monkeypatch.setattr(views_core, "linearizes", record)
    check_obligations(model)
    monkeypatch.undo()
    assert tested
    for shared, shared2, guar, toks, toks2 in tested:
        assert shared2 == shared or (shared, shared2) in guar
        assert toks2 is not toks


def _calls(node, names, scope=""):
    """(enclosing definitions, callee) of each `.apply(...)` call under
    node and of each call to a function or method named in names, the
    definitions dotted as `Class.method`."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        elif isinstance(child, ast.Call) and (
                getattr(child.func, "attr", None) in {"apply", *names}
                or getattr(child.func, "id", None) in names):
            yield scope, ast.unparse(child.func)
        yield from _calls(child, names, inner)


def test_only_semantics_runs_a_guarded_update():
    # every primitive and abstract command is run in `Semantics.run` alone,
    # as a guarded update; the one `.apply` call applies a macro
    package = os.path.dirname(views_core.__file__)
    calls = {(name, scope, callee)
             for name in sorted(os.listdir(package)) if name.endswith(".py")
             for scope, callee in _calls(ast.parse(
                 open(os.path.join(package, name)).read()),
                 {"apply_guarded", "builtin_update"})}
    assert calls == {
        ("linearizability.py", "Semantics.run", "apply_guarded"),
        ("linearizability.py", "Semantics.run", "builtin_update"),
        ("model_io.py", "_apply_macro", "scope.macros.apply"),
    }, calls
