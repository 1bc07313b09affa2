"""The generic relational-view layer.

A view monoid supplies only what differs between instances: composition,
a view's (local, shared, world) triples, the view of an assertion in
thread t's context (`eval_vassn(rho, interp, t)`), the repartitioning
implication as a bool, each thread's guarantee and two failure words.
Views reify a view to worlds (Dinsdale-Young et al., POPL 2013) and RGSep
splits each world into a local and a shared part (Vafeiadis and
Parkinson, CONCUR 2007); the obligations read a view only through its
triples.  The rest is common and lives here: the triples and post index
of a view, memoized per view, the denotation of box-free assertions, the
test that linearization steps lead from one (abstract state, tokens) pair
to another, and the one action judgement, `judge_action`, which DCSL runs
under each frame of `check_action_with_frames`.

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

from typing import TYPE_CHECKING, Dict, Iterable, NamedTuple

from .command_lang import PrimCommand, eval_expr
from .errors import ModelError
from .state_model import (
    DONE,
    EMPTY_HEAP,
    EMPTY_TOKENS,
    FAULT,
    TODO,
    UNIT,
    APCom,
    Domains,
    Heap,
    Token,
    TokenMap,
    World,
    compose_sets,
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


class ViewMonoid:
    """Interface a monoid instantiation must supply: `compose`, `_split`,
    `eval_vassn`, `repart_implies`, `check_action`, the two failure words
    below and, where it relates shared states, `guarantee`."""

    unmatched: str  # why a step that no post entry matches fails
    implication_failure: str  # what a failed implication reports

    def __init__(self, dom: Domains, sem: Semantics):
        self.dom = dom
        self.sem = sem
        self._frag_cache: Dict = {}
        self._locdoms = {CPt: dict(dom.cloc), APt: dict(dom.aloc)}
        self._apcoms = frozenset(dom.apcoms)
        # view -> its triples and its post index
        self._triples_memo: Dict = {}
        self._post_memo: Dict = {}

    def compose(self, p, q):
        raise NotImplementedError

    def triples(self, p) -> tuple:
        """The (local, shared, world) triples of a view, once per view in
        `_split`'s order: each world it reifies to, split into a local and
        a shared part that compose to it.  Views compose local by local
        over one shared state: the triples of compose(p, q) are the
        (l1 + l2, s, w) for (l1, s, _) of p and (l2, s, _) of q whose parts
        compose to a world w.  The obligations read a view through this."""
        hit = self._triples_memo.get(p)
        if hit is None:
            hit = self._triples_memo[p] = tuple(self._split(p))
        return hit

    def _split(self, p) -> Iterable:
        """A view's triples, in the order reports read them."""
        raise NotImplementedError

    def post_index(self, q) -> Dict[Heap, list]:
        """A view's (shared, abstract heap, tokens) by concrete heap, from
        its triples in their order; once per view."""
        hit = self._post_memo.get(q)
        if hit is None:
            hit = self._post_memo[q] = {}
            for _l, shared, (sigma, sigma_a, toks) in self.triples(q):
                hit.setdefault(sigma, []).append((shared, sigma_a, toks))
        return hit

    def reify(self, p) -> frozenset:
        return frozenset(w for _l, _s, w in self.triples(p))

    def guarantee(self, t: int) -> frozenset:
        return frozenset()  # thread t may change no shared state

    def check_action(self, t: int, alpha: PrimCommand, p, q):
        raise NotImplementedError

    def repart_implies(self, p, q) -> bool:
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
            out = UNIT
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
            out = UNIT if value(rho.cond) != 0 else frozenset()
        elif isinstance(rho, StarA):
            out = UNIT
            for part in rho.parts:
                if not out:
                    break
                out = compose_sets(out, self.fragments(part, interp))
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


def judge_action(monoid: ViewMonoid, t: int, alpha: PrimCommand, p, q,
                 frame):
    """The action judgement of `alpha` in thread t from view p into view q,
    for every monoid.  Each primitive step from a world of p's triples, in
    their order, taken from the model's `Semantics.run`, must fault
    nowhere and reach a world of q with its result whose shared change is
    none or in the monoid's guarantee of t, and to whose (abstract heap,
    tokens) the pre-world's lead by linearization steps.  Each entry of
    q's `post_index` with the result is tested goal first and cheapest
    test first: its shared change, then, for the pre-world's own token
    map, its abstract heap, and only then `linearizes`.  A p with no world
    holds before q is indexed.  Returns True or the first counterexample,
    under `frame`."""
    pre = monoid.triples(p)
    if not pre:
        return True
    post = monoid.post_index(q)
    guar = monoid.guarantee(t)
    for _l, shared, world in pre:
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
                                            monoid.unmatched)
    return True


def check_action_with_frames(monoid: ViewMonoid, t: int, alpha: PrimCommand,
                             p, q, frames: Iterable):
    """`judge_action` from p * r into q * r under each given frame r, in
    order: True, or the first counterexample."""
    for r in frames:
        got = judge_action(monoid, t, alpha, monoid.compose(p, r),
                           monoid.compose(q, r), r)
        if got is not True:
            return got
    return True
