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
"""

import copy
import random
from collections import Counter

from relviews.command_lang import (
    AbstractTable,
    GuardedUpdate,
    LVar,
    TransformerTable,
)
from relviews.monoid_dcsl import UNIT_DCSL, DcslMonoid
from relviews.monoid_rgsep import RgsepMonoid
from relviews.state_model import (
    FAULT,
    APCom,
    World,
    compose_worlds,
    enumerate_worlds,
    world_minus,
)
from relviews.views_core import Semantics, check_action_with_frames, lp_star
from oracles import action_over_frames, rgsep_action_by_pairs, world_leq
from util import (
    PRIMS_1LOC,
    micro_domains,
    rgsep_view,
    sample_view,
    strongest_post,
)

OPS = (APCom("op", 0, 0), APCom("op", 1, 1))


def _semantics(dom):
    # the abstract op writes its argument to x, so linearization steps
    # change the abstract heap as well as the tokens
    op = GuardedUpdate(updates=(("x", LVar("a")),))
    return Semantics(TransformerTable(), AbstractTable({"op": op}),
                     dom.modulus)


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
            frozenset(w for w in post if not w.toks.todos()),
        ])
        got = mono.check_action(t, alpha, p, q)
        assert got == action_over_frames(mono, t, alpha, p, q,
                                         (UNIT_DCSL,)), (t, alpha, p, q)
        kinds[_kind(got)] += 1
        # a frame other than the unit is named in the counterexample
        frames = (sample_view(rng, worlds, 2), sample_view(rng, worlds, 2))
        got = check_action_with_frames(mono, t, alpha, p, q, frames)
        assert got == action_over_frames(mono, t, alpha, p, q, frames), (
            t, alpha, p, q, frames)
        if got is not True:
            framed[got.frame != UNIT_DCSL] += 1
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
        for sigma2 in sem.ctable.apply(alpha, t, w.conc, sem.modulus):
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
             if not compose_worlds(l, s).toks.todos()},
        ])
        p = rgsep_view(mono, pre)
        q = rgsep_view(mono, q_pairs)
        got = mono.check_action(1, alpha, p, q)
        assert got == rgsep_action_by_pairs(mono, 1, alpha, p, q), (
            alpha, pre, q_pairs)
        kinds[_kind(got)] += 1
    assert set(kinds) == {"holds", "fault", "no match"}, kinds
