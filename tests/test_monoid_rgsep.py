import functools
import itertools
import operator

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from relviews import model_io
from relviews.command_lang import (
    Const,
    Eq,
    LVar,
    PrimCommand,
    GuardedUpdate,
    Read,
    walk,
)
from relviews.errors import StabilityViolation
from relviews.monoid_rgsep import RgsepMonoid
from relviews.state_model import (
    APCom,
    EMPTY_WORLD,
    Heap,
    TODO,
    Token,
    TokenMap,
    World,
)
from relviews.fixtures import fixture_path
from relviews.linearizability import Semantics, all_instances, check_obligations
from relviews.logic import AssertionEnv
from relviews.model_io import (
    attach_outlines,
    load_model,
    load_outlines,
    parse_model,
)
from relviews.state_model import (
    compose_sets,
    compose_worlds,
    enumerate_worlds,
    world_sort_key,
)
from relviews.vassn import (
    BoxA,
    CPt,
    EmpA,
    ExistsA,
    OrA,
    PureA,
    StarA,
    TokA,
    TrueA,
    free_lvars,
)
from relviews.views_core import ActionCounterexample
from oracles import (
    columns_contained,
    compose_columns,
    composed_pairs,
    denote_action_all_states,
    locality_witness,
    outline_assertions,
    rgsep_pred,
    satisfies,
    stabilize,
    stable,
)
from families import flat_combiner
from util import (
    check_triples_contract,
    classes_of_columns,
    disjoin,
    instance_outline,
    micro_domains,
    micro_semantics,
    rgsep_unit,
    rgsep_view,
    view_columns,
    view_pairs,
)

AP = APCom("op", 0, 0)


def w(conc=None, abst=None, toks=None):
    return World(Heap(conc or {}), Heap(abst or {}), TokenMap(toks or {}))


def full_rely(mono) -> frozenset:
    """The relation that leads from every universe state to every one."""
    return frozenset((s, s2) for s in mono.universe for s2 in mono.universe)


def _mono(cloc=None, aloc=None, values=(0, 1), apcoms=(AP,), nthreads=1):
    dom = micro_domains(cloc=cloc or {"x": (0, 1)}, aloc=aloc or {},
                        nthreads=nthreads, apcoms=apcoms, values=values)
    return RgsepMonoid(dom, micro_semantics(dom))


def test_compose_unit_identity():
    mono = _mono()
    pred = frozenset({(w({"x": 0}), s) for s in mono.universe})
    v = rgsep_view(mono, pred)
    unit = rgsep_unit(mono)
    assert mono.compose(v, unit) == v
    assert mono.compose(unit, v) == v


def test_compose_merges_disjoint_locals_over_common_shared():
    mono = _mono(cloc={"x": (0,), "y": (0,)})
    s = w()
    v1 = rgsep_view(mono, {(w({"x": 0}), s)})
    v2 = rgsep_view(mono, {(w({"y": 0}), s)})
    got = mono.compose(v1, v2)
    assert view_pairs(mono, got) == frozenset({(w({"x": 0, "y": 0}), s)})


def test_reify():
    mono = _mono()
    assert mono.reify(()) == frozenset()
    s = w({"x": 1})
    v = rgsep_view(mono, {(EMPTY_WORLD, s)})
    assert mono.reify(v) == frozenset({s})
    clash = rgsep_view(mono, {(w({"x": 0}), s)})
    assert mono.reify(clash) == frozenset()


def test_satisfaction_clauses():
    mono = _mono(cloc={"x": (0, 1, 3), "y": (0, 4)}, values=(0, 1, 3, 4))
    s = w({"y": 0})
    assert satisfies(mono, w({"x": 3}), s, {}, CPt("x", Const(3)))
    assert not satisfies(mono, w({"x": 3}), s, {}, CPt("x", Const(1)))
    # boxes require an empty local part
    assert not satisfies(mono, w({"x": 3}), s, {}, BoxA(TrueA()))
    assert satisfies(mono, EMPTY_WORLD, s, {},
                     BoxA(StarA((TrueA(), CPt("y", Const(0))))))
    # star splits the local state
    rho = StarA((CPt("x", Const(3)), CPt("y", Const(4))))
    assert satisfies(mono, w({"x": 3, "y": 4}), s, {}, rho)
    assert not satisfies(mono, w({"x": 3}), s, {}, rho)
    # the whole-universe evaluation agrees with the clauses
    for rho in (CPt("x", Const(3)), BoxA(TrueA()), rho,
                BoxA(StarA((TrueA(), CPt("y", Const(0)))))):
        got = mono.eval_vassn_rg(rho, frozenset(), {})
        assert view_pairs(mono, got) == rgsep_pred(mono, rho, {})


def _eval(mono, rho, interp):
    """The predicate eval_vassn_rg computes under an empty rely, under
    which every predicate is stable."""
    return view_pairs(mono, mono.eval_vassn_rg(rho, frozenset(), interp))


@pytest.mark.parametrize("name", ["atomic-inc", "flat-combiner",
                                  "flat-combiner-noaction4"])
def test_eval_matches_oracle_on_fixture_assertions(name):
    model = load_model(fixture_path(name, "model.json"))
    load_outlines(fixture_path(name, "outline.json"), model)
    mono = model.monoid()
    assns = set()
    for inst in all_instances(model):
        node, pre, post, binding = instance_outline(model, *inst)
        assns.update((rho, tuple(binding.items())) for rho in (
            (pre, post) + outline_assertions(node)))
    assert assns
    for rho, binding in sorted(assns, key=repr):
        names = sorted(free_lvars(rho) - dict(binding).keys())
        for combo in itertools.product(mono.dom.values, repeat=len(names)):
            interp = {**dict(zip(names, combo)), **dict(binding)}
            assert _eval(mono, rho, interp) \
                == rgsep_pred(mono, rho, interp), (rho, interp)


@pytest.mark.parametrize("name", ["atomic-inc", "flat-combiner",
                                  "flat-combiner-noaction4"])
def test_composed_order_is_the_sorted_oracle_pairs(name, monkeypatch):
    # the action check reports the first composed world that fails, so
    # this order picks the counterexample
    evaluated = {}
    original = RgsepMonoid.eval_vassn_rg

    def record(self, rho, rely, interp):
        view = original(self, rho, rely, interp)
        evaluated[(self, rho, tuple(sorted(interp.items())))] = view
        return view

    monkeypatch.setattr(RgsepMonoid, "eval_vassn_rg", record)
    model = load_model(fixture_path(name, "model.json"))
    load_outlines(fixture_path(name, "outline.json"), model)
    check_obligations(model)
    assert evaluated
    for (mono, rho, interp), view in evaluated.items():
        pairs = sorted(rgsep_pred(mono, rho, dict(interp)), key=lambda p: (
            world_sort_key(p[0]), world_sort_key(p[1])))
        want = [(l, s, w) for l, s in pairs
                for w in (compose_worlds(l, s),) if w is not None]
        assert list(mono.triples(view)) == want, (rho, interp)


def test_rely_and_guarantee_are_built_per_thread_from_the_actions():
    model = load_model(fixture_path("flat-combiner", "model.json"))
    mono = model.monoid()

    def denote(name, t):
        return mono.denote_action(*model.actions[name], {"t": t})

    for t in mono.dom.thread_ids():
        assert mono.guarantee(t) == frozenset().union(
            *(denote(name, t) for name in model.guarantee_names))
    assert model.rely_extra_names == ("refresh",)
    for t, other in ((1, 2), (2, 1)):
        assert mono.rely(t) == mono.guarantee(other) | denote("refresh",
                                                              other)
    # the rely-extra action adds transitions no guarantee makes
    assert len(mono.rely(1) - mono.guarantee(2)) == 18


def _guarantee_cases():
    for name in ("atomic-inc", "flat-combiner", "flat-combiner-noaction4"):
        yield pytest.param(
            lambda name=name: load_model(fixture_path(name, "model.json")),
            id=name)
    for n in (2, 3, 4):
        yield pytest.param(lambda n=n: parse_model(flat_combiner(n)[0]),
                           id=f"flat-combiner-{n}")


@pytest.mark.parametrize("make", _guarantee_cases())
def test_each_guarantee_is_in_every_other_threads_rely(make):
    # what makes composition total: a thread's views never meet a change
    # of shared state that another thread's rely does not allow for
    mono = make().monoid()
    tids = mono.dom.thread_ids()
    assert len(tids) > 1
    for t1, t2 in itertools.permutations(tids, 2):
        assert mono.guarantee(t1) <= mono.rely(t2), (t1, t2)
    assert any(mono.guarantee(t) for t in tids)


def _checked_proofs():
    for name in ("atomic-inc", "flat-combiner", "flat-combiner-noaction4"):
        def load(name=name):
            model = load_model(fixture_path(name, "model.json"))
            load_outlines(fixture_path(name, "outline.json"), model)
            return model
        yield pytest.param(load, id=name)
    for n in (2, 3, 4):
        def build(n=n):
            doc, outline = flat_combiner(n)
            model = parse_model(doc)
            attach_outlines(outline, model)
            return model
        yield pytest.param(build, id=f"flat-combiner-{n}")


@pytest.mark.parametrize("make", _checked_proofs())
def test_every_set_composition_memo_entry_is_computed_afresh(make,
                                                             monkeypatch):
    # star folds and `compose` read the monoid's memo of `compose_sets`:
    # each entry, and each answer it gave, is the composition of its sets
    composed = RgsepMonoid._composed_sets
    answers = []

    def record(self, left, right):
        got = composed(self, left, right)
        answers.append((left, right, got))
        return got

    model = make()
    monkeypatch.setattr(RgsepMonoid, "_composed_sets", record)
    check_obligations(model)
    memo = model.monoid()._sets_memo
    assert memo and len(answers) > len(memo)
    for (left, right), got in memo.items():
        assert got == compose_sets(left, right), (left, right)
    for left, right, got in answers:
        assert got == compose_sets(left, right), (left, right)


# Small assertions over one or two locations, each one that loads: a box
# interior is a disjunction or existential over stars of box-free parts
# with optional `true` conjuncts, and `true` stands nowhere else.
_VARS = ("u", "v")


def _value(bound):
    return st.sampled_from([Const(0), Const(1)] + [LVar(x) for x in bound])


def _leaf(locs, bound):
    return st.one_of(
        st.just(EmpA()),
        st.builds(CPt, st.sampled_from(locs), _value(bound)),
        st.builds(lambda a, b: PureA(Eq(a, b)), _value(bound),
                  _value(bound)),
    )


def _box_free(locs, bound, depth):
    if depth == 0:
        return _leaf(locs, bound)
    sub = _box_free(locs, bound, depth - 1)
    return st.one_of(
        _leaf(locs, bound),
        st.builds(lambda ps: StarA(tuple(ps)), st.lists(sub, min_size=2,
                                                         max_size=3)),
        st.builds(lambda ps: OrA(tuple(ps)), st.lists(sub, min_size=2,
                                                       max_size=2)),
        _exists(lambda b: _box_free(locs, b, depth - 1), bound),
    )


def _exists(body, bound):
    """An existential over `body`, binding the next unused variable."""
    free = [x for x in _VARS if x not in bound]
    if not free:
        return body(bound)
    return body(bound + (free[0],)).map(lambda b: ExistsA(free[0], b))


def _box_body(locs, bound, depth):
    conj = st.builds(
        lambda trues, ps: StarA((TrueA(),) * trues + tuple(ps)),
        st.integers(0, 2), st.lists(_box_free(locs, bound, 1), max_size=2))
    if depth == 0:
        return conj
    sub = _box_body(locs, bound, depth - 1)
    return st.one_of(
        conj,
        st.just(TrueA()),
        st.builds(lambda ps: OrA(tuple(ps)), st.lists(sub, min_size=2,
                                                       max_size=2)),
        _exists(lambda b: _box_body(locs, b, depth - 1), bound),
    )


def _assertion(locs, bound=(), depth=2):
    if depth == 0:
        return st.one_of(_leaf(locs, bound),
                         st.builds(BoxA, _box_body(locs, bound, 1)))
    sub = _assertion(locs, bound, depth - 1)
    return st.one_of(
        _leaf(locs, bound),
        st.builds(BoxA, _box_body(locs, bound, 1)),
        st.just(BoxA(TrueA())),
        st.builds(lambda ps: StarA(tuple(ps)), st.lists(sub, min_size=2,
                                                         max_size=3)),
        st.builds(lambda ps: OrA(tuple(ps)), st.lists(sub, min_size=2,
                                                       max_size=2)),
        _exists(lambda b: _assertion(locs, b, depth - 1), bound),
    )


_LOCS = (("x",), ("x", "y"))
_ASSERTIONS = {locs: _assertion(locs) for locs in _LOCS}


@st.composite
def _case(draw):
    locs = draw(st.sampled_from(_LOCS))
    dom = micro_domains(cloc={loc: (0, 1) for loc in locs}, values=(0, 1))
    worlds = enumerate_worlds(dom)
    universe = draw(st.lists(st.sampled_from(worlds), min_size=1,
                             unique=True))
    rho = draw(_ASSERTIONS[locs])
    return RgsepMonoid(dom, micro_semantics(dom), _exactly(universe)), rho


def _exactly(worlds):
    """An assertion that denotes exactly the given worlds, each holding
    concrete cells only."""
    return OrA(tuple(StarA(tuple(CPt(loc, Const(v))
                                 for loc, v in s.conc.items()))
                     for s in worlds))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_case())
def test_eval_matches_oracle_on_generated_assertions(case):
    mono, rho = case
    assert _eval(mono, rho, {}) == rgsep_pred(mono, rho, {})


def test_generated_assertions_load_and_reach_every_kind():
    # the generator above yields only assertions that load, with and
    # without boxes and `true`, denoting empty and non-empty predicates
    seen = set()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_case())
    def collect(case):
        mono, rho = case
        model_io._check_boxes(rho, "generated", set())
        kinds = {type(n) for n in walk(rho)}
        seen.add("box" if BoxA in kinds else "box-free")
        seen.add("true" if TrueA in kinds else "no true")
        seen.add("nonempty" if rgsep_pred(mono, rho, {}) else "empty")

    collect()
    assert seen == {"box", "box-free", "true", "no true", "nonempty",
                    "empty"}


@st.composite
def _sequence_case(draw):
    """A `_case` monoid with a run of assertions that overlap (later ones
    may combine earlier ones) and a rely: the full relation over the
    universe, pairs over the universe, or pairs that may leave it."""
    mono, rho = draw(_case())
    locs = tuple(sorted(dict(mono.dom.cloc)))
    rhos = [rho]
    for _ in range(draw(st.integers(1, 3))):
        earlier = st.lists(st.sampled_from(tuple(rhos)), min_size=2,
                           max_size=2)
        rhos.append(draw(st.one_of(
            _ASSERTIONS[locs],
            earlier.map(lambda ps: StarA(tuple(ps))),
            earlier.map(lambda ps: OrA(tuple(ps))),
        )))

    def pairs(worlds):
        return st.frozensets(st.tuples(st.sampled_from(worlds),
                                       st.sampled_from(worlds)), max_size=6)

    rely = draw(st.one_of(st.just(full_rely(mono)), pairs(mono.universe),
                          pairs(enumerate_worlds(mono.dom))))
    return mono, rhos, rely


def _oracle_outcome(mono, rho, rely):
    """The least stability witness or the predicate that the state-by-state
    reading and `stable` give."""
    pred = rgsep_pred(mono, rho, {})
    witness = stable(pred, rely)
    return pred if witness is None else ("unstable", witness)


def _outcome(mono, rho, rely):
    try:
        return view_pairs(mono, mono.eval_vassn_rg(rho, rely, {}))
    except StabilityViolation as exc:
        return ("unstable", exc.witness)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_sequence_case())
def test_memoized_eval_and_column_stability_match_oracle(case):
    # one monoid for the whole run, so later evaluations hit the column
    # and rely-edge memos that earlier ones filled
    mono, rhos, rely = case
    for rho in rhos:
        assert _outcome(mono, rho, rely) == _oracle_outcome(mono, rho, rely)


def test_generated_sequences_include_stable_and_unstable():
    # each kind of rely meets both stable and unstable assertions
    seen = set()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_sequence_case())
    def collect(case):
        mono, rhos, rely = case
        kind = ("full" if rely == full_rely(mono) else
                "inside" if {s for pair in rely for s in pair}
                <= set(mono.universe) else "outside")
        for rho in rhos:
            got = _oracle_outcome(mono, rho, rely)
            seen.add((kind, "unstable" if isinstance(got, tuple) else
                      "stable"))

    collect()
    assert {(kind, outcome) for kind in ("full", "inside", "outside")
            for outcome in ("stable", "unstable")} == seen


def test_token_literal_pins_local_tokens():
    mono = _mono()
    rho = TokA(TODO, Const(1), "op", Const(0), Const(0))
    view = mono.eval_vassn_rg(rho, full_rely(mono), {})
    for l, _s in view_pairs(mono, view):
        assert l.toks.get(1) == Token(TODO, AP)
        assert not l.conc.items() and not l.abst.items()


def test_boxed_true_leaves_shared_unconstrained():
    mono = _mono()
    view = mono.eval_vassn_rg(BoxA(TrueA()), full_rely(mono), {})
    assert {s for _l, s in view_pairs(mono, view)} == set(mono.universe)
    assert {l for l, _s in view_pairs(mono, view)} == {EMPTY_WORLD}


def test_unstable_assertion_rejected():
    mono = _mono()
    s0, s1 = w({"x": 0}), w({"x": 1})
    rely = frozenset({(s0, s1)})
    with pytest.raises(StabilityViolation):
        mono.eval_vassn_rg(BoxA(CPt("x", Const(0))), rely, {})
    # the stabilized closure is accepted
    pred = stabilize(frozenset({(EMPTY_WORLD, s0)}), rely)
    assert stable(pred, rely) is None
    assert (EMPTY_WORLD, s1) in pred


def test_unstable_assertion_not_memoized():
    # thread 1 relies on thread 2's guarantee, which sets x from 0 to 1
    dom = micro_domains(cloc={"x": (0, 1)}, nthreads=2, apcoms=(AP,))
    mono = RgsepMonoid(dom, micro_semantics(dom), actions={
        "set": (CPt("x", Const(0)), CPt("x", Const(1)))},
        guarantee_names=("set",))
    assert (w({"x": 0}), w({"x": 1})) in mono.rely(1)
    env = AssertionEnv(mono, 1)
    assn = BoxA(CPt("x", Const(0)))
    for _ in range(2):
        with pytest.raises(StabilityViolation):
            env.eval(assn, {})


def test_denote_action_contains_identity_and_preserves_remainder():
    mono = _mono(cloc={"x": (0, 1), "y": (0, 1)})
    ident = mono.denote_action(CPt("x", Const(0)), CPt("x", Const(0)), {})
    for s in mono.universe:
        if s.conc.get("x") == 0:
            assert (s, s) in ident
    rel = mono.denote_action(CPt("x", Const(0)), CPt("x", Const(1)), {})
    assert rel
    for s, s2 in rel:
        assert s.conc.get("x") == 0 and s2.conc.get("x") == 1
        # cells outside the rewritten fragment are untouched
        assert s.conc.get("y") == s2.conc.get("y")
        assert s.toks == s2.toks


def test_denote_action_quantifies_unbound_placeholders():
    # an unbound `{k}` ranges over the values and thread ids, as `k` in a
    # value does; a bound one names the bound cell
    mono = _mono(cloc={"x0": (0, 1), "x1": (0, 1)})

    def incr(loc, binding):
        return mono.denote_action(CPt(loc, Const(0)), CPt(loc, Const(1)),
                                  binding)

    assert incr("x{k}", {}) == incr("x0", {}) | incr("x1", {})
    assert incr("x{t}", {"t": 1}) == incr("x1", {}) != incr("x0", {})


def test_check_action_id_reflexive():
    mono = _mono()
    v = mono.eval_vassn_rg(BoxA(TrueA()), frozenset(), {})
    assert mono.check_action(1, PrimCommand("id"), v, v) is True


def test_check_action_shared_change_outside_guarantee():
    mono = _mono()
    pre_assn = BoxA(StarA((TrueA(), CPt("x", Const(0)))))
    pre = mono.eval_vassn(pre_assn, {}, 1)
    post = mono.eval_vassn(BoxA(TrueA()), {}, 1)
    alpha = PrimCommand("store", (Read("x"), Const(1)))
    got = mono.check_action(1, alpha, pre, post)
    assert isinstance(got, ActionCounterexample)
    # granting the transition in the thread's guarantee fixes it
    granted = RgsepMonoid(mono.dom, mono.sem, actions={
        "set": (CPt("x", Const(0)), CPt("x", Const(1)))},
        guarantee_names=("set",))
    assert granted.guarantee(1) == mono.denote_action(
        CPt("x", Const(0)), CPt("x", Const(1)), {})
    assert granted.eval_vassn(pre_assn, {}, 1) == pre
    assert granted.check_action(1, alpha, pre, post) is True


def test_check_action_discharges_token_via_lp():
    mono = _mono()
    todo = mono.eval_vassn_rg(
        StarA((BoxA(TrueA()), TokA(TODO, Const(1), "op", Const(0), Const(0)))),
        frozenset(), {})
    done = mono.eval_vassn_rg(
        StarA((BoxA(TrueA()), TokA("done", Const(1), "op", Const(0),
                                   Const(0)))),
        frozenset(), {})
    assert mono.check_action(1, PrimCommand("id"), todo, done) is True


class _NonLocalSemantics(Semantics):
    """`weird`, declared as a guarded update that names no location, sets
    x to 1 wherever the state has x."""

    def __init__(self):
        super().__init__({"weird": GuardedUpdate()}, {}, 2)

    def run(self, alpha, t, sigma):
        if alpha.name == "weird" and "x" in sigma:
            return (sigma.set_many([("x", 1)]),)
        return super().run(alpha, t, sigma)


def test_locality_violation_detected():
    # `weird` names no location, so its footprint is empty and it is
    # framed with the first declared location
    dom = micro_domains(cloc={"x": (0, 1), "y": (0, 1)}, aloc={},
                        values=(0, 1))
    got = locality_witness(_NonLocalSemantics(), dom, PrimCommand("weird"),
                           1)
    assert got == (Heap({}), Heap({"x": 0}))


def test_disjoin_is_the_state_by_state_union():
    mono = _mono()
    s = mono.universe[0]
    v1 = rgsep_view(mono, {(EMPTY_WORLD, s)})
    v2 = rgsep_view(mono, {(w({"x": 0}), s)})
    got = disjoin(mono, v1, v2)
    assert view_pairs(mono, got) \
        == view_pairs(mono, v1) | view_pairs(mono, v2)
    assert disjoin(mono, (), v1) == v1


def test_disjunction_laws_under_equal_protocol():
    # exhaustive over all views whose predicate draws at most two pairs from
    # a reduced pair family
    mono = _mono()
    shareds = mono.universe[:3]
    locals_ = (EMPTY_WORLD, w({"x": 0}), w({"x": 1}))
    pairs = [(l, s) for l in locals_ for s in shareds]
    views = [rgsep_view(mono, c)
             for n in (0, 1, 2)
             for c in itertools.combinations(pairs, n)]
    for p, q in itertools.product(views, views):
        assert mono.reify(disjoin(mono, p, q)) \
            == mono.reify(p) | mono.reify(q)
    small = views[:12]
    for p, q, r in itertools.product(small, small, small):
        assert mono.compose(disjoin(mono, p, q), r) \
            == disjoin(mono, mono.compose(p, r), mono.compose(q, r))


def test_composition_preserves_stability_exhaustive_micro():
    # two views stable under one rely compose to a view stable under it
    mono = _mono(cloc={"x": (0,)})
    shareds = mono.universe
    pairs = [(l, s) for l in (EMPTY_WORLD, w({"x": 0})) for s in shareds]
    for rely in (frozenset(), frozenset({(shareds[0], shareds[-1])})):
        views = [rgsep_view(mono, stabilize(frozenset(combo), rely))
                 for n in (0, 1, 2)
                 for combo in itertools.combinations(pairs, n)]
        for v1, v2 in itertools.product(views, views):
            got = mono.compose(v1, v2)
            assert stable(view_pairs(mono, got), rely) is None


def test_repart_sufficient_condition():
    mono = _mono()
    s = mono.universe[0]
    small = rgsep_view(mono, {(EMPTY_WORLD, s)})
    big = rgsep_view(mono, {(EMPTY_WORLD, x) for x in mono.universe})
    assert mono.repart_implies(small, big) is True
    assert mono.repart_implies(big, small) is False
    assert mono.repart_implies((), small) is True


# ---------------------------------------------------------------------------
# Action denotations against the all-states oracle


def _action_models():
    cases = {name: load_model(fixture_path(name, "model.json"))
             for name in ("atomic-inc", "flat-combiner",
                          "flat-combiner-noaction4")}
    for n in (2, 3, 4):
        cases[f"flat-combiner-{n}"] = parse_model(flat_combiner(n)[0])
    return cases


@pytest.mark.parametrize("name", ["atomic-inc", "flat-combiner",
                                  "flat-combiner-noaction4",
                                  "flat-combiner-2", "flat-combiner-3",
                                  "flat-combiner-4"])
def test_denote_action_matches_the_all_states_oracle_on_fixtures(name):
    model = _action_models()[name]
    mono = model.monoid()
    assert model.actions
    for pre, post in model.actions.values():
        for t in mono.dom.thread_ids():
            assert mono.denote_action(pre, post, {"t": t}) \
                == denote_action_all_states(mono, pre, post, {"t": t})


@st.composite
def _action_case(draw):
    """A `_case` monoid and an action whose pre and post are box-free
    assertions, which may leave `u` free."""
    mono, _rho = draw(_case())
    locs = tuple(sorted(dict(mono.dom.cloc)))
    pre, post = draw(_box_free(locs, ("u",), 1)), draw(_box_free(locs, ("u",),
                                                                 1))
    return mono, pre, post


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_action_case())
def test_denote_action_matches_the_all_states_oracle_on_generated_actions(
        case):
    mono, pre, post = case
    assert mono.denote_action(pre, post, {}) \
        == denote_action_all_states(mono, pre, post, {})


@st.composite
def _clash_case(draw):
    """A `_case` monoid, a universe state s holding a cell c, and an action
    whose pre fragment is some of s's other cells and whose post
    fragment names c: it may not rewrite s, which holds c outside the
    pre fragment."""
    mono, _rho = draw(_case())
    holders = [s for s in mono.universe if s.conc]
    assume(holders)
    s = draw(st.sampled_from(holders))
    held = draw(st.sampled_from(s.conc.items()))
    others = [CPt(loc, Const(v)) for loc, v in s.conc.items()
              if loc != held[0]]
    rest = draw(st.lists(st.sampled_from(others), unique=True)) \
        if others else []
    pre = StarA(tuple(rest)) if rest else EmpA()
    post = StarA((CPt(held[0], Const(draw(st.sampled_from((0, 1))))),
                  *rest[:draw(st.integers(0, 1))]))
    return mono, s, pre, post


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_clash_case())
def test_a_post_fragment_that_the_remainder_holds_gives_no_pair(case):
    mono, s, pre, post = case
    got = mono.denote_action(pre, post, {})
    assert got == denote_action_all_states(mono, pre, post, {})
    assert all(s1 != s for s1, _s2 in got)


def test_a_post_token_that_the_remainder_holds_gives_no_pair():
    # thread 1's todo token appears where the state holds no token of
    # thread 1, and nowhere else: neither over a todo nor over a done
    mono = _mono(cloc={"x": (0,)})
    todo = TokA(TODO, Const(1), "op", Const(0), Const(0))
    for pre in (EmpA(), CPt("x", Const(0))):
        post = StarA((pre, todo))
        got = mono.denote_action(pre, post, {})
        assert got == denote_action_all_states(mono, pre, post, {})
        assert got and all(1 not in s.toks and s2.toks.get(1) == Token(
            TODO, AP) for s, s2 in got)
        assert {s for s, _s2 in got} == {
            s for s in mono.universe if 1 not in s.toks
            and (pre == EmpA() or "x" in s.conc)}


def test_an_empty_pre_holds_before_the_post_is_indexed():
    mono = _mono()
    post = mono.eval_vassn_rg(BoxA(TrueA()), frozenset(), {})
    alpha = PrimCommand("store", (Read("x"), Const(1)))
    assert mono.check_action(1, alpha, (), post) is True
    assert not mono._post_memo
    # a pre whose locals compose with none of its shared states has no
    # world either
    clash = rgsep_view(mono, {(w({"x": 0}), w({"x": 1}))})
    assert clash and not mono.triples(clash)
    assert mono.check_action(1, alpha, clash, post) is True
    assert not mono._post_memo


def test_a_false_pure_conjunct_ends_a_star_before_its_other_parts(
        monkeypatch):
    mono = _mono(cloc={"x": (0, 1), "y": (0, 1)})
    asked = []
    original = RgsepMonoid.fragments

    def record(self, rho, interp):
        asked.append(rho)
        return original(self, rho, interp)

    monkeypatch.setattr(RgsepMonoid, "fragments", record)
    cells = (CPt("x", Const(0)), BoxA(StarA((TrueA(), CPt("y", Const(1))))))
    false, true = PureA(Eq(Const(0), Const(1))), PureA(Eq(Const(1), Const(1)))
    assert _eval(mono, StarA((*cells, false)), {}) == frozenset()
    assert asked == [false]
    # a true one changes nothing: the view is the parts' in any order
    assert mono.eval_vassn_rg(StarA((*cells, true)), frozenset(), {}) \
        == mono.eval_vassn_rg(StarA((true, *cells[::-1])), frozenset(), {}) \
        == mono.eval_vassn_rg(StarA(cells), frozenset(), {})


def test_generated_actions_include_empty_and_nonempty_relations():
    seen = set()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_action_case())
    def collect(case):
        mono, pre, post = case
        got = denote_action_all_states(mono, pre, post, {})
        seen.add(bool(got))
        seen.add("moves" if any(s != s2 for s, s2 in got) else "stays")

    collect()
    assert seen == {True, False, "moves", "stays"}


# ---------------------------------------------------------------------------
# Column classes against per-state columns


@st.composite
def _views_case(draw):
    """A `_case` monoid, two predicates over it and a rely (the full
    relation over the universe, or pairs that may leave it)."""
    mono, _rho = draw(_case())
    worlds = enumerate_worlds(mono.dom)
    pairs = st.frozensets(st.tuples(st.sampled_from(worlds),
                                    st.sampled_from(mono.universe)),
                          max_size=8)
    rely = draw(st.one_of(st.just(full_rely(mono)), st.frozensets(
        st.tuples(st.sampled_from(worlds), st.sampled_from(worlds)),
        max_size=6)))
    return mono, draw(pairs), draw(pairs), rely


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_views_case())
def test_triples_reify_and_compose_local_by_local(case):
    mono, pairs1, pairs2, _rely = case
    check_triples_contract(mono, rgsep_view(mono, pairs1),
                           rgsep_view(mono, pairs2))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_views_case())
def test_classwise_operations_match_per_state_columns(case):
    mono, pairs1, pairs2, _rely = case
    v1 = rgsep_view(mono, pairs1)
    v2 = rgsep_view(mono, pairs2)
    cols1, cols2 = view_columns(mono, v1), view_columns(mono, v2)
    got = mono.compose(v1, v2)
    want = classes_of_columns(compose_columns(cols1, cols2))
    assert got == want and hash(got) == hash(want)
    assert mono.reify(v1) == frozenset(
        w for _l, _s, w in composed_pairs(mono.universe, cols1))
    assert list(mono.triples(v1)) == composed_pairs(mono.universe, cols1)
    for p, q, cp, cq in ((v1, v2, cols1, cols2), (v2, v1, cols2, cols1),
                         (v1, got, cols1, view_columns(mono, got))):
        assert mono.repart_implies(p, q) is columns_contained(cp, cq)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_views_case())
def test_class_stability_witness_matches_the_oracle(case):
    mono, pairs, _pairs2, rely = case
    view = rgsep_view(mono, pairs)
    try:
        mono._check_stable(view, rely)
        got = None
    except StabilityViolation as exc:
        got = exc.witness
    assert got == stable(pairs, rely)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_views_case())
def test_one_predicate_built_in_two_orders_is_one_view(case):
    mono, pairs, _pairs2, rely = case
    forward = sorted(pairs, key=lambda p: (world_sort_key(p[0]),
                                           world_sort_key(p[1])))
    v1 = rgsep_view(mono, forward)
    v2 = rgsep_view(mono, reversed(forward))
    assert v1 == v2 and hash(v1) == hash(v2)
    # the classes are canonical: disjoint masks, distinct non-empty sets,
    # sorted by mask
    masks = [m for _ls, m in v1]
    assert masks == sorted(masks) and all(masks)
    assert sum(masks) == functools.reduce(operator.or_, masks, 0)
    assert len({ls for ls, _m in v1}) == len(masks)
    assert all(ls for ls, _m in v1)


def test_generated_views_reach_every_outcome():
    seen = set()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_views_case())
    def collect(case):
        mono, pairs1, pairs2, rely = case
        v1 = rgsep_view(mono, pairs1)
        v2 = rgsep_view(mono, pairs2)
        seen.add("unstable" if stable(pairs1, rely) else "stable")
        seen.add(mono.repart_implies(v1, v2))
        seen.add("classes" if len(v1) > 1 else "class")
        seen.add("composes" if mono.compose(v1, v2) else "empty")

    collect()
    assert seen == {"stable", "unstable", True, False, "classes", "class",
                    "composes", "empty"}
