"""The generic relational-view layer.

A view monoid supplies composition, a view's (local, shared, world)
triples, the view of an assertion in thread t's context
(`eval_vassn(rho, interp, t)`), the action judgement and the
repartitioning implication.  Views reify a view to worlds (Dinsdale-Young
et al., POPL 2013) and RGSep splits each world into a local and a shared
part (Vafeiadis and Parkinson, CONCUR 2007); the soundness obligations
read a view only through those triples, once for every monoid.  This
module implements what is common to all monoids: reification, the
denotation of box-free view assertions as world-fragment sets, the test
that linearization steps lead from one (abstract state, tokens) pair to
another, and the one loop of the action judgement, `judge_action`: RGSep
runs it on (shared, world) pairs with its guarantee, and
`check_action_with_frames` under each given frame with no shared part.

Both monoids rest on the frame property of local actions (Calcagno,
O'Hearn and Yang, LICS 2007).  Every primitive is a guarded update: a
model declares its own and each builtin is one (`builtin_update`).  A
guarded update reads and writes only the cells it names: it faults when
one of them is missing and writes only cells that are present.  So a
primitive that does not fault on a state sigma runs on sigma + sigma_f, for
any disjoint frame sigma_f, to exactly {sigma2 + sigma_f : sigma2 a result
on sigma}.  Only a `Semantics` subclass built in Python can break this;
`locality_witness` in the tests checks it on every fixture and generated
primitive.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, Dict, Iterable, NamedTuple

from .command_lang import PrimCommand, eval_expr
from .errors import ModelError
from .state_model import (
    DONE,
    EMPTY_HEAP,
    EMPTY_TOKENS,
    EMPTY_WORLD,
    FAULT,
    TODO,
    APCom,
    Domains,
    Heap,
    Token,
    TokenMap,
    World,
    compose_worlds,
    world_sort_key,
)
from .vassn import (
    APt,
    CPt,
    EmpA,
    ExistsA,
    OrA,
    PureA,
    StarA,
    TokA,
    VAssn,
    memo_key,
)

if TYPE_CHECKING:
    from .linearizability import Semantics


def linearizes(sem: Semantics, sigma_a: Heap, toks: TokenMap, abs2: Heap,
               toks2: TokenMap) -> bool:
    """Whether linearization steps lead from (sigma_a, toks) to
    (abs2, toks2).  A step fires a pending todo token whose abstract
    command runs, flipping it to done, and no step undoes a token.  So a
    run to toks2 fires each thread of D, where the token maps differ, once
    and no other, and each must flip from todo(c) to done(c); D's commands
    are fired in every order, one layer of (heap, fired threads) per step.
    Heaps and token maps are hash-consed, so equality is identity."""
    if toks2 is toks:
        return abs2 is sigma_a
    if len(toks2) != len(toks):
        return False
    fire = []
    for tid, tok in toks.items():
        tok2 = toks2.get(tid)
        if tok2 != tok:
            if tok.kind != TODO or tok2 != Token(DONE, tok.apcom):
                return False
            fire.append((tid, tok.apcom))
    layer = {(sigma_a, frozenset())}
    for _ in fire:
        layer = {(heap2, fired | {tid}) for heap, fired in layer
                 for tid, ap in fire if tid not in fired
                 for heap2 in sem.run(ap, tid, heap)}
    return any(heap is abs2 for heap, _ in layer)


class ActionCounterexample(NamedTuple):
    """A witness that an action judgement fails: replaying the primitive from
    the recorded world under the recorded frame reproduces the failure."""

    thread: int
    prim: PrimCommand
    frame: object
    world: World
    sigma2: object  # resulting concrete state, or FAULT
    reason: str

    def __str__(self):
        return (
            f"action judgement fails for t={self.thread} {self.prim!r}: "
            f"{self.reason}; world={self.world!r}, result={self.sigma2!r}, "
            f"frame={self.frame!r}"
        )


class ImplVerdict(Enum):
    HOLDS = "holds"
    FAILS = "fails"
    NOT_ESTABLISHED = "not established"

    def ok(self) -> bool:
        return self is ImplVerdict.HOLDS


_EMP = frozenset({EMPTY_WORLD})


class ViewMonoid:
    """Interface a monoid instantiation must supply.

    Subclasses provide extensional views, the (in principle
    frame-quantified) action judgement through `judge_action`, and the
    repartitioning implication.  The denotation of box-free view assertions
    does not depend on the monoid and lives here.
    """

    def __init__(self, dom: Domains, sem: Semantics):
        self.dom = dom
        self.sem = sem
        self._frag_cache: Dict = {}
        self._locdoms = {CPt: dict(dom.cloc), APt: dict(dom.aloc)}
        self._apcoms = frozenset(dom.apcoms)

    def compose(self, p, q):
        raise NotImplementedError

    def triples(self, p) -> Iterable:
        """The (local, shared, world) triples of a view: each world it
        reifies to, split into a local part and a shared part that
        compose to it.  Views compose local by local over one shared
        state: the triples of compose(p, q) are the (l1 + l2, s, w) for
        (l1, s, _) of p and (l2, s, _) of q whose parts compose to a world
        w.  The obligations read a view through this method alone."""
        raise NotImplementedError

    def reify(self, p) -> frozenset:
        return frozenset(w for _l, _s, w in self.triples(p))

    def check_action(self, t: int, alpha: PrimCommand, p, q):
        raise NotImplementedError

    def repart_implies(self, p, q) -> ImplVerdict:
        raise NotImplementedError

    def eval_vassn(self, rho: VAssn, interp: Dict[str, int], t: int):
        """The view an assertion denotes in thread t's context."""
        raise NotImplementedError

    def fragments(self, rho: VAssn, interp: Dict[str, int]) -> frozenset:
        """All world fragments exactly satisfying a box-free assertion under
        an interpretation of its logical variables; memoized.  Cells outside
        the declared domains and tokens outside the alphabet denote
        nothing.  A loaded assertion's values read neither the heap nor the
        thread id, and the interpretation binds its free variables and
        placeholders (`model_io`)."""
        key = memo_key(rho, interp)
        out = self._frag_cache.get(key)
        if out is not None:
            return out

        def value(e) -> int:
            return eval_expr(e, EMPTY_HEAP, interp, 0, self.sem.modulus)

        if isinstance(rho, EmpA):
            out = _EMP
        elif isinstance(rho, (CPt, APt)):
            v = value(rho.value)
            loc = rho.loc.format_map(interp) if "{" in rho.loc else rho.loc
            out = frozenset()  # outside the declared domains
            if v in self._locdoms[type(rho)].get(loc, ()):
                cell = Heap({loc: v})
                out = frozenset({World(cell, EMPTY_HEAP, EMPTY_TOKENS)
                                 if isinstance(rho, CPt) else
                                 World(EMPTY_HEAP, cell, EMPTY_TOKENS)})
        elif isinstance(rho, TokA):
            tid, ap = value(rho.tid), APCom(rho.method, value(rho.arg),
                                            value(rho.ret))
            out = frozenset()
            if tid in self.dom.thread_ids() and ap in self._apcoms:
                out = frozenset({World(EMPTY_HEAP, EMPTY_HEAP,
                                       TokenMap({tid: Token(rho.kind, ap)}))})
        elif isinstance(rho, PureA):
            out = _EMP if value(rho.cond) != 0 else frozenset()
        elif isinstance(rho, StarA):
            out = self.fragments(rho.parts[0], interp) if rho.parts else _EMP
            for part in rho.parts[1:]:
                if not out:
                    break
                frags = self.fragments(part, interp)
                out = frozenset(w for f1 in out for f2 in frags
                                for w in (compose_worlds(f1, f2),)
                                if w is not None)
        elif isinstance(rho, OrA):
            out = frozenset().union(
                *(self.fragments(part, interp) for part in rho.parts))
        elif isinstance(rho, ExistsA):
            out = frozenset().union(
                *(self.fragments(rho.body, {**interp, rho.var: n})
                  for n in self.dom.values))
        else:
            raise ModelError(f"unknown assertion node {rho!r}")
        self._frag_cache[key] = out
        return out


def post_index(post: Iterable) -> Dict[Heap, list]:
    """A post's (shared, world) pairs by concrete heap, as the
    (shared, abstract heap, tokens) of each, in the post's order."""
    index: Dict[Heap, list] = {}
    for shared2, (sigma2, abs2, toks2) in post:
        index.setdefault(sigma2, []).append((shared2, abs2, toks2))
    return index


def judge_action(monoid: ViewMonoid, t: int, alpha: PrimCommand, frame,
                 pre: Iterable, post: Dict[Heap, list], guar, reason: str):
    """The action judgement's loop, for every monoid.  `pre` holds
    (shared, world) pairs in report order, and `post` is the `post_index`
    of the post's pairs.  Each primitive step from a pre-world, taken from
    the model's `Semantics.run`, must fault nowhere and reach a post world
    with its result whose shared change is none or in `guar`, and to whose
    (abstract heap, tokens) the pre-world's lead by linearization steps.
    Each post entry with the result is tested goal first, rather than by
    building every pair the steps reach, and cheapest test first: its
    shared change, then, for the pre-world's own token map, its abstract
    heap, and only then `linearizes`.  Returns True or the first
    counterexample, under `frame`."""
    for shared, world in pre:
        sigma, sigma_a, toks = world
        for sigma2 in monoid.sem.run(alpha, t, sigma):
            if sigma2 is FAULT:
                return ActionCounterexample(
                    t, alpha, frame, world, FAULT, "fault reachable")
            for shared2, abs2, toks2 in post.get(sigma2, ()):
                if (shared2 == shared or (shared, shared2) in guar) and (
                        abs2 is sigma_a if toks2 is toks else linearizes(
                            monoid.sem, sigma_a, toks, abs2, toks2)):
                    break
            else:
                return ActionCounterexample(t, alpha, frame, world, sigma2,
                                            reason)
    return True


def check_action_with_frames(monoid: ViewMonoid, t: int, alpha: PrimCommand,
                             p, q, frames: Iterable):
    """The action judgement of the simulation condition, quantified over the
    given frames: `judge_action` under each frame r, from the reified
    p * r in `world_sort_key` order into the reified q * r, with no shared
    part.  Returns True or the first counterexample under the
    deterministic enumeration order."""
    for r in frames:
        pre = sorted(monoid.reify(monoid.compose(p, r)), key=world_sort_key)
        if not pre:
            continue
        post = post_index(
            (None, w) for w in monoid.reify(monoid.compose(q, r)))
        got = judge_action(
            monoid, t, alpha, r, ((None, w) for w in pre), post, frozenset(),
            "no linearization choice reaches the postcondition")
        if got is not True:
            return got
    return True
