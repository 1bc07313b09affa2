import itertools
import random

import pytest

from relviews.errors import ModelError, UniverseTooLarge
from relviews.monoid_dcsl import DcslMonoid
from relviews.state_model import (
    APCom,
    EMPTY_WORLD,
    Heap,
    TODO,
    UNIT,
    Token,
    TokenMap,
    World,
    compose_sets,
    compose_worlds,
    enumerate_worlds,
    world_sort_key,
)
from relviews.vassn import (
    APt,
    BoxA,
    CPt,
    EmpA,
    ExistsA,
    OrA,
    PureA,
    StarA,
    TokA,
    free_lvars,
)
from relviews.command_lang import Const, Eq, LVar
from relviews.monoid_rgsep import RgsepMonoid
from oracles import (EMPTY_VIEW, action_over_frames, powerset_frames,
                     repart_implies_with_frames, singleton_frames,
                     token_exclusive)
from util import (check_triples_contract, micro_dcsl, micro_domains,
                  micro_semantics, sample_view)

AP = APCom("op", 0, 0)


def w(conc=None, abst=None, toks=None):
    return World(Heap(conc or {}), Heap(abst or {}), TokenMap(toks or {}))


def test_compose_unit():
    p = frozenset({w({"l1": 1}), w({"l2": 0})})
    assert compose_sets(p, UNIT) == p
    assert compose_sets(UNIT, p) == p


def test_compose_with_unit_equals_pairwise_composition():
    dom = micro_domains(cloc={"l": (0, 1)}, aloc={"x": (0,)}, nthreads=2,
                        apcoms=(AP,))
    ws = enumerate_worlds(dom)
    rng = random.Random(5)
    views = [EMPTY_VIEW, UNIT, frozenset(set(UNIT))]
    views += [sample_view(rng, ws, max_size=6) for _ in range(200)]
    for p in views:
        pairwise = frozenset(w for w1 in p for w2 in UNIT
                             for w in (compose_worlds(w1, w2),)
                             if w is not None)
        assert compose_sets(p, UNIT) == pairwise == p
        assert compose_sets(UNIT, p) == pairwise
        assert type(compose_sets(UNIT, set(p))) is frozenset


def test_compose_overlap_drops_to_empty():
    p = frozenset({w({"l1": 1})})
    q = frozenset({w({"l1": 2})})
    assert compose_sets(p, q) == EMPTY_VIEW


def test_compose_disjoint_with_token():
    p = frozenset({w({"l1": 1})})
    q = frozenset({w({"l2": 2}, toks={1: Token(TODO, AP)})})
    got = compose_sets(p, q)
    assert got == frozenset({w({"l1": 1, "l2": 2},
                               toks={1: Token(TODO, AP)})})


def test_reify_is_identity():
    reify = micro_dcsl().reify
    assert reify(UNIT) is UNIT
    assert reify(EMPTY_VIEW) == frozenset()
    p = frozenset({w({"l1": 1})})
    q = frozenset({w({"l2": 0})})
    pq = reify(compose_sets(p, q))
    pointwise = {c for a in p for b in q
                 for c in [compose_sets(frozenset([a]), frozenset([b]))]}
    assert pq <= frozenset().union(*pointwise)


def test_frames_counts():
    dom = micro_domains(cloc={"l": (0,)}, aloc={"m": (0,)}, values=(0,))
    frames = list(singleton_frames(dom))
    assert frames[0] == UNIT
    assert len(frames) == 1 + 4
    empty = micro_domains(cloc={}, aloc={}, values=(0,))
    assert len(list(singleton_frames(empty))) == 2
    big = micro_domains(cloc={"l": (0, 1)}, aloc={"m": (0, 1)},
                        values=(0, 1), cap=3)
    with pytest.raises(UniverseTooLarge):
        list(singleton_frames(big))
    # the action judgement checks the unit frame alone, yet still applies
    # the cap to the whole universe
    assert DcslMonoid(dom, micro_semantics(dom)).frames() == (UNIT,)
    with pytest.raises(UniverseTooLarge) as exc:
        DcslMonoid(big, micro_semantics(big)).frames()
    assert str(exc.value) == str(UniverseTooLarge(9, 3))


def test_token_exclusivity_preserved_by_compose():
    p = frozenset({w(toks={1: Token(TODO, AP)})})
    q = frozenset({w(toks={1: Token(TODO, AP)})})
    assert compose_sets(p, q) == EMPTY_VIEW
    r = frozenset({w(toks={2: Token(TODO, AP)})})
    assert token_exclusive(compose_sets(p, r))


# ---------------------------------------------------------------------------
# Monoid and disjunction laws: exhaustive on a small world subuniverse


def _law_universe():
    dom = micro_domains(cloc={"l": (0,)}, aloc={"m": (0,)}, apcoms=(AP,),
                        values=(0,))
    worlds = enumerate_worlds(dom)[:5]
    views = [frozenset(c) for n in range(3)
             for c in itertools.combinations(worlds, n)]
    return views


def test_monoid_laws_exhaustive_small():
    views = _law_universe()
    for p, q in itertools.product(views, views):
        assert compose_sets(p, q) == compose_sets(q, p)
    for p in views:
        assert compose_sets(p, UNIT) == p
    for p, q, r in itertools.product(views[:8], views[:8], views[:8]):
        assert (compose_sets(compose_sets(p, q), r)
                == compose_sets(p, compose_sets(q, r)))


def test_disjunction_laws():
    views = _law_universe()
    reify = micro_dcsl().reify
    for p, q in itertools.product(views, views):
        assert reify(p | q) == reify(p) | reify(q)
    for p, q, r in itertools.product(views[:8], views[:8], views[:8]):
        assert (compose_sets(p | q, r)
                == compose_sets(p, r) | compose_sets(q, r))


def test_triples_reify_and_compose_local_by_local():
    mono = micro_dcsl(cloc={"l": (0,)}, aloc={"m": (0,)}, apcoms=(AP,),
                      values=(0,))
    views = _law_universe()
    for p in views:
        assert mono.triples(p) == tuple(
            (w, EMPTY_WORLD, w) for w in sorted(p, key=world_sort_key))
    for p, q in itertools.product(views, views):
        check_triples_contract(mono, p, q)


# ---------------------------------------------------------------------------
# Assertion evaluation


def _monoids():
    """The denotation is shared: both monoids must agree on every input."""
    dom = micro_domains(cloc={"l": (0, 1)}, aloc={"m": (0, 1)},
                        apcoms=(AP,), values=(0, 1))
    sem = micro_semantics(dom)
    return DcslMonoid(dom, sem), RgsepMonoid(dom, sem)


def test_eval_emp_and_cells():
    for mono in _monoids():
        assert mono.fragments(EmpA(), {}) == UNIT
        got = mono.fragments(CPt("l", Const(1)), {})
        assert got == frozenset({w({"l": 1})})
        got = mono.fragments(APt("m", Const(0)), {})
        assert got == frozenset({w(abst={"m": 0})})


def test_eval_star_or_exists():
    rho = StarA((CPt("l", LVar("V")), APt("m", LVar("V"))))
    for mono in _monoids():
        both = mono.fragments(ExistsA("V", rho), {})
        assert both == frozenset({w({"l": 0}, {"m": 0}),
                                  w({"l": 1}, {"m": 1})})
        either = mono.fragments(
            OrA((CPt("l", Const(0)), CPt("l", Const(1)))), {})
        assert len(either) == 2


def test_eval_pure_and_token():
    tok = TokA(TODO, Const(1), "op", Const(0), Const(0))
    for mono in _monoids():
        assert mono.fragments(PureA(Eq(Const(1), Const(1))), {}) == UNIT
        assert mono.fragments(PureA(Eq(Const(1), Const(0))), {}) \
            == EMPTY_VIEW
        assert mono.fragments(tok, {}) == frozenset(
            {w(toks={1: Token(TODO, AP)})})


def test_eval_box_rejected():
    for mono in _monoids():
        with pytest.raises(ModelError):
            mono.fragments(BoxA(EmpA()), {})


def test_eval_out_of_domain_cell_denotes_nothing():
    # an out-of-domain value, an undeclared location, a token of an
    # undeclared thread and a token outside the alphabet
    outside = (CPt("l", Const(7)), CPt("z", Const(0)),
               TokA(TODO, Const(9), "op", Const(0), Const(0)),
               TokA(TODO, Const(1), "op", Const(1), Const(0)))
    for mono in _monoids():
        for rho in outside:
            assert mono.fragments(rho, {}) == EMPTY_VIEW, (mono, rho)


def test_eval_memo_ignores_variables_the_assertion_does_not_read():
    mono = _monoids()[0]
    before = len(mono._frag_cache)
    rho = CPt("l", Const(0))
    assert mono.fragments(rho, {"a": 0}) is mono.fragments(rho, {"a": 1})
    assert len(mono._frag_cache) == before + 1


def test_eval_memo_keys_location_placeholders():
    dom = micro_domains(cloc={"c1": (1,), "c2": (1,)}, values=(1,))
    mono = DcslMonoid(dom, micro_semantics(dom))
    rho = CPt("c{t}", Const(1))
    assert mono.fragments(rho, {"t": 1}) == frozenset({w({"c1": 1})})
    assert mono.fragments(rho, {"t": 2}) == frozenset({w({"c2": 1})})


def test_free_lvars_counts_location_placeholders():
    assert free_lvars(ExistsA("v", CPt("x[{t}]", LVar("v")))) \
        == frozenset({"t"})


# ---------------------------------------------------------------------------
# The singleton+unit frame strategy agrees with the powerset (small scale;
# the acceptance suite runs the full sampled comparison)


def test_powerset_frames_enumeration():
    worlds = [w({"l": 0}), w({"l": 1})]
    assert len(list(powerset_frames(worlds))) == 4


def test_frame_reduction_smoke():
    from util import PRIMS_1LOC

    mono = micro_dcsl(cloc={"l": (0, 1)}, aloc={"x": (0, 1)}, values=(0, 1))
    worlds = enumerate_worlds(mono.dom)
    all_frames = tuple(powerset_frames(worlds))
    rng = random.Random(5)
    for _ in range(25):
        p = sample_view(rng, worlds, 2)
        q = sample_view(rng, worlds, 2)
        alpha = rng.choice(PRIMS_1LOC)
        fast = mono.check_action(1, alpha, p, q) is True
        slow = action_over_frames(mono, 1, alpha, p, q,
                                  all_frames) is True
        assert fast == slow
        fast_i = mono.repart_implies(p, q)
        slow_i = repart_implies_with_frames(mono, p, q, all_frames)
        assert fast_i == slow_i
