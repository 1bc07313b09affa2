import itertools
import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from relviews.command_lang import (
    Const,
    Eq,
    GuardedUpdate,
    LVar,
    Plus,
    PrimCommand,
    Read,
    walk,
)
from relviews.linearizability import Semantics
from relviews.monoid_dcsl import DcslMonoid
from relviews.state_model import (
    APCom,
    DONE,
    EMPTY_HEAP,
    EMPTY_TOKENS,
    Heap,
    TODO,
    Token,
    TokenMap,
    UNIT,
    World,
)
from relviews.vassn import (
    APt,
    CPt,
    EmpA,
    ExistsA,
    OrA,
    PureA,
    StarA,
    TokA,
)
from relviews.views_core import ActionCounterexample, linearizes
from oracles import lp_star, lp_step, ref_fragments
from util import (disjoin, micro_dcsl, micro_domains, micro_semantics,
                  run_consequence, run_distributivity, run_locality)

AP = APCom("op", 0, 0)


def _counter_sem(modulus=4):
    """The running counter spec: inc(a, r) bumps K and insists on r."""
    inc = GuardedUpdate(
        params=("a", "r"),
        guard=Eq(Plus(Read("K"), LVar("a")), LVar("r")),
        updates=(("K", Plus(Read("K"), LVar("a"))),),
    )
    return Semantics({}, {"inc": inc}, modulus)


def test_lp_step_empty_tokens():
    sem = _counter_sem()
    assert lp_step(Heap({"K": 0}), EMPTY_TOKENS, sem) == frozenset()


def test_lp_step_done_token_grants_nothing():
    sem = _counter_sem()
    toks = TokenMap({1: Token(DONE, APCom("inc", 1, 1))})
    assert lp_step(Heap({"K": 0}), toks, sem) == frozenset()


def test_lp_step_counter_example():
    sem = _counter_sem()
    toks = TokenMap({1: Token(TODO, APCom("inc", 1, 1))})
    got = lp_step(Heap({"K": 0}), toks, sem)
    want = frozenset({(Heap({"K": 1}),
                       TokenMap({1: Token(DONE, APCom("inc", 1, 1))}))})
    assert got == want


def test_lp_step_blocked_when_return_mismatches():
    sem = _counter_sem()
    toks = TokenMap({1: Token(TODO, APCom("inc", 1, 3))})
    assert lp_step(Heap({"K": 0}), toks, sem) == frozenset()


def test_lp_star_reflexive():
    sem = _counter_sem()
    sigma = Heap({"K": 2})
    assert lp_star(sigma, EMPTY_TOKENS, sem) == frozenset(
        {(sigma, EMPTY_TOKENS)})


def test_lp_star_single_token():
    sem = _counter_sem()
    sigma = Heap({"K": 0})
    toks = TokenMap({1: Token(TODO, APCom("inc", 1, 1))})
    got = lp_star(sigma, toks, sem)
    assert got == frozenset({(sigma, toks)}) | lp_step(sigma, toks, sem)


def test_lp_star_two_tokens_interleaved_orders():
    sem = _counter_sem()
    sigma = Heap({"K": 0})
    toks = TokenMap({1: Token(TODO, APCom("inc", 1, 1)),
                     2: Token(TODO, APCom("inc", 2, 3))})
    got = lp_star(sigma, toks, sem)
    finals = {(s.get("K"), d.get(1).kind, d.get(2).kind) for s, d in got}
    # nothing fired, either alone, or both in sequence (1 then 2 is the only
    # return-consistent order: 0+1=1 then 1+2=3)
    assert (0, TODO, TODO) in finals
    assert (1, DONE, TODO) in finals
    assert (3, DONE, DONE) in finals


def test_lp_star_monotone_in_tokens():
    rng = random.Random(7)
    sem = _counter_sem()
    aps = [APCom("inc", a, r) for a in (1, 2) for r in range(4)]
    for _ in range(200):
        sigma = Heap({"K": rng.randrange(4)})
        base = {}
        for tid in (1, 2):
            if rng.random() < 0.7:
                base[tid] = Token(rng.choice([TODO, DONE]), rng.choice(aps))
        toks = TokenMap(base)
        smaller = lp_star(sigma, toks, sem)
        extra = dict(base)
        free = [t for t in (1, 2, 3) if t not in base]
        if not free:
            continue
        extra[free[0]] = Token(TODO, rng.choice(aps))
        bigger = lp_star(sigma, TokenMap(extra), sem)
        # every outcome of the smaller token map embeds into the bigger one
        for s, d in smaller:
            embedded = dict(d.items())
            embedded[free[0]] = extra[free[0]]
            assert (s, TokenMap(embedded)) in bigger


def test_linearizes_is_membership_in_the_closure():
    # three threads, each holding no token or a todo or done inc(1, r),
    # counting modulo 2: the guard K + 1 == r orders the firings, so a
    # flip of all three threads is reachable from K = 0 in two orders or
    # none, and the empty heap blocks every command
    sem = _counter_sem(2)
    tokens = [None] + [Token(kind, APCom("inc", 1, r))
                       for kind in (TODO, DONE) for r in (0, 1)]
    heaps = [EMPTY_HEAP, Heap({"K": 0}), Heap({"K": 1})]
    pairs = [(sigma_a, TokenMap({t: tok for t, tok in enumerate(toks, 1)
                                 if tok is not None}))
             for sigma_a in heaps
             for toks in itertools.product(tokens, repeat=3)]
    assert len(pairs) == 3 * 5 ** 3
    reached = Counter()
    for sigma_a, toks in pairs:
        closure = lp_star(sigma_a, toks, sem)
        for abs2, toks2 in pairs:
            got = linearizes(sem, sigma_a, toks, abs2, toks2)
            assert got == ((abs2, toks2) in closure), (
                sigma_a, toks, abs2, toks2)
            if got:
                reached[sum(toks2[t] != tok for t, tok in toks.items())] += 1
    assert set(reached) == {0, 1, 2, 3}, reached


# ---------------------------------------------------------------------------
# Action judgements on the DCSL instantiation


def _mono():
    return micro_dcsl(cloc={"l": (0, 1, 5)}, aloc={"x": (0,)},
                      apcoms=(AP,), values=(0, 1, 5))


def test_check_action_id_reflexive():
    mono = _mono()
    p = frozenset({World(Heap({"l": 0}), EMPTY_HEAP, EMPTY_TOKENS)})
    assert mono.check_action(1, PrimCommand("id"), p, p) is True


def test_check_action_store():
    mono = _mono()
    p = frozenset({World(Heap({"l": 0}), EMPTY_HEAP, EMPTY_TOKENS)})
    q = frozenset({World(Heap({"l": 5}), EMPTY_HEAP, EMPTY_TOKENS)})
    alpha = PrimCommand("store", (Read("l"), Const(5)))
    assert mono.check_action(1, alpha, p, q) is True
    # and the reverse direction fails
    bad = mono.check_action(1, alpha, q, p)
    assert isinstance(bad, ActionCounterexample)


def test_check_action_store_without_footprint_faults():
    mono = _mono()
    alpha = PrimCommand("store", (Read("l"), Const(5)))
    got = mono.check_action(1, alpha, UNIT, UNIT)
    assert isinstance(got, ActionCounterexample)
    assert "fault" in got.reason


def test_repart_reflexive_and_disjoin():
    mono = _mono()
    p = frozenset({World(Heap({"l": 0}), EMPTY_HEAP, EMPTY_TOKENS)})
    q = frozenset({World(Heap({"l": 1}), EMPTY_HEAP, EMPTY_TOKENS)})
    assert mono.repart_implies(p, p) is True
    assert mono.repart_implies(p, disjoin(mono, p, q)) is True
    assert mono.repart_implies(p, q) is False


# ---------------------------------------------------------------------------
# Appendix property suites (smoke-sized here; the acceptance suite runs the
# full counts)


def test_locality_smoke():
    assert run_locality(60) >= 10


def test_consequence_smoke():
    assert run_consequence(60) >= 10


def test_distributivity_smoke():
    assert run_distributivity(60) >= 10


def test_counterexample_replays():
    # the recorded witness reproduces the failure through reify and the
    # transformers
    mono = _mono()
    p = frozenset({World(Heap({"l": 5}), EMPTY_HEAP, EMPTY_TOKENS)})
    q = frozenset({World(Heap({"l": 0}), EMPTY_HEAP, EMPTY_TOKENS)})
    alpha = PrimCommand("store", (Read("l"), Const(1)))
    ce = mono.check_action(1, alpha, p, q)
    assert isinstance(ce, ActionCounterexample)
    assert ce.world in mono.reify(mono.compose(p, ce.frame))
    results = mono.sem.run(alpha, 1, ce.world.conc)
    assert ce.sigma2 in results
    post = mono.reify(mono.compose(q, ce.frame))
    assert all(
        World(ce.sigma2, s2, d2) not in post
        for s2, d2 in lp_star(ce.world.abst, ce.world.toks, mono.sem))


# ---------------------------------------------------------------------------
# The box-free denotation against its reference

_FRAG_DOM = micro_domains(cloc={"x": (0, 1), "y": (0, 1), "c1": (0, 1)},
                          aloc={"X": (0, 1)}, nthreads=2, apcoms=(AP,),
                          values=(0, 1, 2))
_FALSE = PureA(Eq(Const(0), Const(1)))


def _frag_value(bound):
    return st.sampled_from([Const(0), Const(1), Const(2), LVar("t")]
                           + [LVar(x) for x in bound])


def _frag_leaf(bound):
    v = _frag_value(bound)
    return st.one_of(
        st.just(EmpA()),
        st.builds(CPt, st.sampled_from(("x", "y", "c{t}")), v),
        st.builds(APt, st.sampled_from(("X", "Z")), v),
        st.builds(lambda kind, tid, arg: TokA(kind, tid, "op", arg,
                                               Const(0)),
                  st.sampled_from((TODO, DONE)), v, v),
        st.builds(lambda a, b: PureA(Eq(a, b)), v, v),
    )


def _frag_assertion(bound=(), depth=2):
    if depth == 0:
        return _frag_leaf(bound)
    sub = _frag_assertion(bound, depth - 1)
    var = "uv"[len(bound)] if len(bound) < 2 else None
    return st.one_of(
        _frag_leaf(bound),
        # stars of no part, one part and more, some led by a part that
        # denotes nothing
        st.builds(lambda ps: StarA(tuple(ps)), st.lists(sub, max_size=3)),
        st.lists(sub, max_size=2).map(lambda ps: StarA((_FALSE, *ps))),
        st.builds(lambda ps: OrA(tuple(ps)), st.lists(sub, min_size=1,
                                                       max_size=2)),
        *(() if var is None else (
            _frag_assertion(bound + (var,), depth - 1).map(
                lambda b: ExistsA(var, b)),)),
    )


def _stars(rho):
    """The kinds of star in an assertion: by number of parts, and led by
    a part that denotes nothing."""
    return {"first empty" if n.parts[:1] == (_FALSE,)
            else min(len(n.parts), 2)
            for n in walk(rho) if isinstance(n, StarA)}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_frag_assertion(), st.sampled_from((1, 2)))
def test_fragments_match_the_reference_denotation(rho, t):
    mono = DcslMonoid(_FRAG_DOM, micro_semantics(_FRAG_DOM))
    assert mono.fragments(rho, {"t": t}) == ref_fragments(mono, rho,
                                                          {"t": t})


def test_generated_box_free_assertions_reach_every_kind_of_star():
    mono = DcslMonoid(_FRAG_DOM, micro_semantics(_FRAG_DOM))
    seen = set()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_frag_assertion())
    def collect(rho):
        seen.update(_stars(rho))
        seen.add("nonempty" if ref_fragments(mono, rho, {"t": 1})
                 else "empty")

    collect()
    assert seen == {0, 1, 2, "first empty", "nonempty", "empty"}, seen
