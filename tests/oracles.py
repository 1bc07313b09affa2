"""Slow reference implementations that the shipped fast paths are tested
against.

RGSep satisfaction, one shared state at a time: `local_sets(mono, rho, s,
interp)` is the set of local fragments l such that (l, s) satisfies the
assertion.  `RgsepMonoid.eval_vassn_rg` computes the same predicate in one
pass over the whole shared universe.

Histories, by a plain walk: `history_depths(model, bound, side)` maps every
history within the bound to its least number of moves.  `_HistoryGen`
computes the same sets with a memo over (pool, heap) states.  The shipped
`history_walk` counts and lists the paths of a library's frontier
automaton, with no recursion; its sets (`concrete_histories`/
`abstract_histories`) are tested against `_HistoryGen`'s, and its order
and count against `history_sort_key` and the set's size.
`lin_by_history_sets` decides history inclusion from `_HistoryGen`'s
sets, which the frontier-pair walk of `check_linearizable` is tested
against.  `least_fault(model, bound)` is
the least faulting run within the bound over configurations whose slots
each hold one expected return, by a memoized recursion; `_HistoryGen`
raises it, and the shipped checks, which merge a call's expected returns
into one slot, must report the same fault.

The box-free denotation with no memo: `ref_fragments(mono, rho, interp)`
folds a star's parts from the unit `emp` and decides each leaf against the
declared domains; `ViewMonoid.fragments`, which starts a star's fold at
its first part, is tested against it.

Linearization steps by closure: `lp_step` fires one pending todo token
(`todos` lists them), and `lp_star(sigma_a, toks, sem)` is every
(abstract heap, tokens) pair that steps reach.  The action judgement's
goal-first `linearizes` is tested against membership in it.

Proof-side references: `action_over_frames`, the action judgement over
given frames testing each linearization choice's world for membership in
the framed post, and `rgsep_action_by_pairs`, RGSep's frame-free
condition over the predicates' pairs, against which the shared judgement
loop of `views_core` is tested; `check_safe`, the greatest-fixpoint safety
judgement over a finite view universe and the command shapes that
`reachable_commands` finds, which an accepted outline's views
(`outline_views`) must witness; `powerset_frames`, every DCSL frame, which
the unit-plus-singleton strategy is validated against; `singleton_frames`,
the unit plus every singleton view, against which DCSL's unit-frame
action judgement is validated;
`repart_implies_with_frames`, the repartitioning implication quantified
over given frames, which DCSL's inclusion test is validated against;
`token_exclusive`, the one-token-per-thread invariant of DCSL views;
and `initial_coverage_by_product`, the initial-coverage obligation by
trying every combination of pending commands, against which the pruned
search of `check_obligations` is tested.

World composition, item by item: `compose_states_copying` and
`compose_tokens_copying` check a key at a time and build the union through
`set_many` or the constructor, with no memo.  The shipped `compose_maps`,
with its empty-side identity and its memo on the left operand, and the
`compose_worlds` kernel, which handles empty and fault parts itself, are
tested against them.  `compose_states` composes two states as the kernel
composes each heap of a world: fault absorbs, and otherwise
`compose_maps` decides.

RGSep side conditions, by brute force: `stable(pred, rely)` is the least
witness (local, shared, shared') of a predicate not closed under a rely,
which `eval_vassn_rg`'s class check must report; `stabilize(pred, rely)`
is a predicate's rely-closure over pairs; `closed_singletons(mono,
guar)`, the unit plus every singleton frame closed under a guarantee, is
the frame set of the fully-quantified action judgement, which
`RgsepMonoid.check_action`'s frame-free condition is validated against;
`denote_action_all_states` denotes an action by meeting each pre fragment
with every universe state, where `denote_action` meets only the states
that hold its cells; `compose_columns`, `columns_contained` and
`composed_pairs` compose, compare and list predicates one shared state at
a time, against which the column classes of RGSep views are tested;
`world_leq` is the sub-world order;
`locality_witness` runs a primitive through a model's `Semantics` on
every state of its footprint, read from its guarded update, with and
without a one-location frame, checking the locality that guarded updates
guarantee by construction.

Method bodies instance by instance: `instance_body(model, m, a, r)`
instantiates one method instance's body and `instance_bodies(model)` every
one, and `per_instance_body_error` validates a body template by
substituting each (a, r) and checking every instance.  Loading checks the
template alone, and is tested against it.  `heap_steps` steps an instance
at one heap.  `PerValueLibrary` is the concrete library over such
instances, one body per expected return, each stepped on its own;
`per_value_stepping()` makes the shipped checks build it, and the shipped
library, whose members share the body until a primitive reads `r`, is
tested against it.  `per_member_local` tabulates a slot's local moves
stepping each member on its own; the shipped `_Library.local`, which
steps each distinct command of the slot once, is tested against it.

Instances by substitution: `subst_vassn`/`subst_outline` build each
instance's assertions and outline as new trees with its t, a and r
substituted in, and `substituted_outline` applies them to an outline.  The
checker binds those variables in the interpretation instead, and is tested
against checking the substituted outline with no bindings.

Per-class structure: `ref_subst_expr`, `ref_subst_prim`,
`ref_subst_command`, `ref_expr_locs`, `ref_free_lvars_expr` and
`ref_command_prims` copy or search a tree with one branch per node class,
as the package did before `command_lang.walk` and `rebuild` read each
node's fields; the generic `subst`, `expr_locs`, `free_lvars_expr` and
`command_prims` (a filter over `walk`, which only tests use) are tested
against them.  `ref_eval_expr` evaluates an expression by a recursive
interpreter with one branch per node class; `command_lang.eval_expr`,
which runs a closure compiled once per node, is tested against it.
`ref_apply` runs a primitive with one case per builtin, and an abstract
command; `Semantics.run`, which runs every primitive as a guarded update
(a builtin as its `builtin_update`), is tested against it, and the
oracles here that step a command or fire a todo token run primitives
through it.

Macro expansion by JSON substitution, as the loader expanded before it
parsed each macro body once where it is declared:
`macro_free_documents(model_doc, outline_doc)` replaces each application
in the documents by its macro's body document, with the argument
documents substituted for the params (`subst_json`) and expanded in turn,
and each `sep_threads` by the star of its body with each thread id
substituted.  The loader's trees, built by substituting parsed arguments
into parsed bodies, are tested to be the ones that the macro-free
documents parse to.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import Dict

from relviews.command_lang import (
    BUILTIN_ARITY,
    SKIP,
    And,
    Choice,
    Command,
    Const,
    Eq,
    Expr,
    Iter,
    LVar,
    Lt,
    Not,
    Or,
    Plus,
    Prim,
    PrimCommand,
    Read,
    Seq,
    Skip,
    Tid,
    apply_guarded,
    builtin_update,
    eval_expr,
    expr_locs,
    loc_placeholders,
    resolve_loc,
    step,
    walk,
)
from relviews import linearizability
from relviews.errors import (
    FaultReachable,
    ModelError,
    RelviewsError,
    UndefinedLocation,
    UniverseTooLarge,
)
from relviews.linearizability import (
    IDLE,
    LibraryModel,
    ObligationItem,
    Semantics,
    _index,
    _Library,
    render_event,
)
from relviews.logic import OChoice, OConseq, OIter, OPrim, OSeq, OSkip
from relviews.monoid_dcsl import DcslMonoid
from relviews.monoid_rgsep import RgsepMonoid
from relviews.state_model import (
    DONE,
    EMPTY_WORLD,
    FAULT,
    TODO,
    UNIT,
    APCom,
    Heap,
    Token,
    TokenMap,
    World,
    compose_maps,
    compose_worlds,
    enumerate_heaps,
    enumerate_worlds,
    world_sort_key,
)
from relviews.subst import Binding, subst
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
    TrueA,
    VAssn,
    free_lvars,
)
from relviews.views_core import ActionCounterexample

from util import rgsep_unit, rgsep_view, view_columns


def compose_states(s1, s2):
    """Partial composition of states through the shipped `compose_maps`;
    None marks the undefined case and fault is absorbing."""
    if s1 is FAULT or s2 is FAULT:
        return FAULT
    return compose_maps(s1, s2)


def compose_states_copying(s1, s2):
    """Partial composition of states; None marks the undefined case.

    Fault is absorbing; otherwise the union of the two maps when their
    domains are disjoint.
    """
    if s1 is FAULT or s2 is FAULT:
        return FAULT
    if len(s1) < len(s2):
        s1, s2 = s2, s1
    for loc, _ in s2.items():
        if loc in s1:
            return None
    return s1.set_many(s2.items())


def compose_tokens_copying(d1: TokenMap, d2: TokenMap):
    """Disjoint union of token maps; None when a thread id is shared."""
    if len(d1) < len(d2):
        d1, d2 = d2, d1
    for tid, _ in d2.items():
        if tid in d1:
            return None
    out = dict(d1.items())
    for tid, tok in d2.items():
        out[tid] = tok
    return TokenMap(out)


def stable(pred, rely):
    """None when the predicate is closed under the rely; otherwise the
    least witness (local, shared, shared') ordered by shared, then shared',
    then local under `world_sort_key`."""
    locals_by_shared: Dict = {}
    for l, s in pred:
        locals_by_shared.setdefault(s, set()).add(l)
    found = [(l, s, s2) for s, s2 in rely
             for l in locals_by_shared.get(s, ())
             if l not in locals_by_shared.get(s2, ())]
    return min(found, default=None, key=lambda w: (
        world_sort_key(w[1]), world_sort_key(w[2]), world_sort_key(w[0])))


def stabilize(pred, rely) -> frozenset:
    """The rely-closure of a set of (local, shared) pairs."""
    succ: Dict = {}
    for s, s2 in rely:
        succ.setdefault(s, set()).add(s2)
    out = set(pred)
    frontier = list(pred)
    while frontier:
        l, s = frontier.pop()
        for s2 in succ.get(s, ()):
            if (l, s2) not in out:
                out.add((l, s2))
                frontier.append((l, s2))
    return frozenset(out)


def closed_singletons(mono, guar) -> list:
    """The unit and every singleton RGSep frame {(l, s)} closed under the
    guarantee as its rely, for each local l and then each universe state s;
    states outside the universe are dropped from the closure.  Complete for
    the frame quantification of the action judgement: predicates distribute
    over unions of pairs, so a failing frame projects onto a failing closed
    singleton."""
    inside = set(mono.universe)
    frames = [rgsep_unit(mono)]
    for l in enumerate_worlds(mono.dom):
        for s in mono.universe:
            pairs = {pair for pair in stabilize({(l, s)}, guar)
                     if pair[1] in inside}
            frames.append(rgsep_view(mono, pairs))
    return frames


def world_minus(big: World, w: World) -> World:
    """Remove a sub-world; the caller guarantees that w is one of big."""
    return World(big.conc._without(w.conc._d), big.abst._without(w.abst._d),
                 big.toks._without(w.toks._d))


def world_leq(w: World, big: World) -> bool:
    """Is w a sub-world of big (pointwise sub-map)?"""
    return (all(big.conc.get(k) == v for k, v in w.conc.items())
            and all(big.abst.get(k) == v for k, v in w.abst.items())
            and all(big.toks.get(t) == tok for t, tok in w.toks.items()))


def denote_action_all_states(mono, pre: VAssn, post: VAssn,
                             binding) -> frozenset:
    """`RgsepMonoid.denote_action`, testing every pre fragment against
    every universe state."""
    names = sorted((free_lvars(pre) | free_lvars(post)) - binding.keys())
    domain = sorted(set(mono.dom.values) | set(mono.dom.thread_ids()))
    inside = set(mono.universe)
    pairs = set()
    for combo in itertools.product(domain, repeat=len(names)):
        interp = {**binding, **dict(zip(names, combo))}
        pre_frags = mono.fragments(pre, interp)
        if not pre_frags:
            continue
        post_frags = mono.fragments(post, interp)
        if not post_frags:
            continue
        for s in mono.universe:
            for f in pre_frags:
                if not world_leq(f, s):
                    continue
                rem = world_minus(s, f)
                for f2 in post_frags:
                    s2 = compose_worlds(f2, rem)
                    if s2 is not None and s2 in inside:
                        pairs.add((s, s2))
    return frozenset(pairs)


def compose_columns(cols1, cols2) -> list:
    """Two predicates composed one shared state at a time: each local
    fragment of one side with each of the other's."""
    return [frozenset(w for l1 in ls1 for l2 in ls2
                      for w in (compose_worlds(l1, l2),) if w is not None)
            for ls1, ls2 in zip(cols1, cols2)]


def columns_contained(cols1, cols2) -> bool:
    return all(ls1 <= ls2 for ls1, ls2 in zip(cols1, cols2))


def composed_pairs(universe, cols) -> list:
    """The (local, shared, world) triples of a predicate whose parts
    compose, sorted by local and then shared under `world_sort_key`."""
    pairs = sorted(((l, s) for s, ls in zip(universe, cols) for l in ls),
                   key=lambda p: (world_sort_key(p[0]), world_sort_key(p[1])))
    return [(l, s, w) for l, s in pairs
            for w in (compose_worlds(l, s),) if w is not None]


def locality_witness(sem, dom, alpha: PrimCommand, t: int):
    """None when thread t's run of the primitive under the semantics `sem`
    is local; otherwise the first (state, frame) where it is not.  The
    states are every heap over the locations that its arguments and its
    guarded update's guard and updates name (`{t}` resolved); the frames,
    every value of the first declared location outside them.  A
    non-faulting run on a framed state must give exactly the framed
    results."""
    spec = sem.prims.get(alpha.name) or builtin_update(alpha)
    exprs = [*alpha.args, *(e for _, e in spec.updates)]
    exprs += [spec.guard] if spec.guard is not None else []
    footprint = {resolve_loc(loc, t) for loc in
                 expr_locs(*exprs) | {loc for loc, _ in spec.updates}}
    cloc = dict(dom.cloc)
    extra = next((l for l in sorted(cloc) if l not in footprint), None)
    if extra is None:
        return None
    for sigma in enumerate_heaps([(loc, cloc.get(loc, dom.values[:2]))
                                  for loc in sorted(footprint)]):
        res = sem.run(alpha, t, sigma)
        if FAULT in res:
            continue
        for frame in (Heap({extra: v}) for v in cloc[extra]):
            want = {compose_states(s2, frame) for s2 in res}
            got = set(sem.run(alpha, t, compose_states(sigma, frame)))
            if None in want or got != want:
                return sigma, frame
    return None


def box_holds(mono, body: VAssn, s: World, interp) -> bool:
    """Does the shared state satisfy the box interior? `true` conjuncts
    absorb an arbitrary remainder; without one the match is exact."""
    if isinstance(body, OrA):
        return any(box_holds(mono, p, s, interp) for p in body.parts)
    if isinstance(body, ExistsA):
        return any(
            box_holds(mono, body.body, s, {**interp, body.var: n})
            for n in mono.dom.values
        )
    parts = body.parts if isinstance(body, StarA) else (body,)
    rest = []
    has_true = False
    for p in parts:
        if isinstance(p, TrueA):
            has_true = True
        else:
            rest.append(p)
    core = StarA(tuple(rest)) if len(rest) != 1 else rest[0]
    frags = (mono.fragments(core, interp) if rest
             else frozenset({EMPTY_WORLD}))
    if has_true:
        return any(world_leq(f, s) for f in frags)
    return s in frags


def local_sets(mono, rho: VAssn, s: World, interp) -> frozenset:
    """All local fragments l with (l, s) satisfying the assertion."""
    if isinstance(rho, BoxA):
        if box_holds(mono, rho.body, s, interp):
            return frozenset({EMPTY_WORLD})
        return frozenset()
    if isinstance(rho, StarA):
        cur = frozenset({EMPTY_WORLD})
        for part in rho.parts:
            nxt = set()
            for l1 in cur:
                for l2 in local_sets(mono, part, s, interp):
                    l = compose_worlds(l1, l2)
                    if l is not None:
                        nxt.add(l)
            cur = frozenset(nxt)
            if not cur:
                return cur
        return cur
    if isinstance(rho, OrA):
        out = set()
        for part in rho.parts:
            out |= local_sets(mono, part, s, interp)
        return frozenset(out)
    if isinstance(rho, ExistsA):
        out = set()
        for n in mono.dom.values:
            out |= local_sets(mono, rho.body, s, {**interp, rho.var: n})
        return frozenset(out)
    return mono.fragments(rho, interp)


def ref_fragments(mono, rho: VAssn, interp) -> frozenset:
    """The world fragments exactly satisfying a box-free assertion, with
    no memo and no shortcut."""
    dom = mono.dom

    def value(e) -> int:
        return eval_expr(e, Heap({}), interp, 0, dom.modulus)

    if isinstance(rho, EmpA):
        return frozenset({EMPTY_WORLD})
    if isinstance(rho, (CPt, APt)):
        loc, v = rho.loc.format_map(interp), value(rho.value)
        conc = isinstance(rho, CPt)
        if v not in dict(dom.cloc if conc else dom.aloc).get(loc, ()):
            return frozenset()
        cell = Heap({loc: v})
        return frozenset({World(cell, Heap({}), TokenMap({})) if conc
                          else World(Heap({}), cell, TokenMap({}))})
    if isinstance(rho, TokA):
        tid, ap = value(rho.tid), APCom(rho.method, value(rho.arg),
                                        value(rho.ret))
        if tid not in dom.thread_ids() or ap not in dom.apcoms:
            return frozenset()
        return frozenset({World(Heap({}), Heap({}),
                                TokenMap({tid: Token(rho.kind, ap)}))})
    if isinstance(rho, PureA):
        return frozenset({EMPTY_WORLD} if value(rho.cond) else ())
    if isinstance(rho, StarA):
        out = {EMPTY_WORLD}
        for part in rho.parts:
            frags = ref_fragments(mono, part, interp)
            out = {w for f1 in out for f2 in frags
                   for w in (compose_worlds(f1, f2),) if w is not None}
        return frozenset(out)
    if isinstance(rho, OrA):
        return frozenset().union(*(ref_fragments(mono, p, interp)
                                   for p in rho.parts))
    if isinstance(rho, ExistsA):
        return frozenset().union(*(
            ref_fragments(mono, rho.body, {**interp, rho.var: n})
            for n in dom.values))
    raise ModelError(f"not a box-free assertion: {rho!r}")


def satisfies(mono, local: World, shared: World, interp, rho: VAssn) -> bool:
    """Does the (local, shared) pair satisfy the assertion?"""
    return local in local_sets(mono, rho, shared, interp)


def rgsep_pred(mono, rho: VAssn, interp) -> frozenset:
    """{(l, s) | s in the shared universe, l in local_sets(rho, s)}."""
    return frozenset((l, s) for s in mono.universe
                     for l in local_sets(mono, rho, s, interp))


def instance_body(model, m: str, a: int, r: int) -> Command:
    """Instance m(a)->r's body: the body template with the argument and
    the expected return substituted."""
    return subst(model.body_templates[m], {"a": a, "r": r})


def instance_bodies(model) -> dict:
    """Every method instance's body, keyed by (method, argument, expected
    return)."""
    return {(m, a, r): instance_body(model, m, a, r) for m in model.methods()
            for a in model.method_args[m] for r in model.dom.values}


def heap_steps(c: Command, sigma, t: int, sem) -> frozenset:
    """The stateful transitions of c at one heap: a (primitive, c', sigma')
    triple per result of each stateless step's primitive (`ref_apply`
    under the semantics `sem`), the fault state among them."""
    return frozenset((alpha, c2, sigma2) for alpha, c2 in step(c)
                     for sigma2 in ref_apply(sem, alpha, t, sigma))


def per_instance_body_error(template: Command, args, values, prims):
    """The first check that an instance of a method body fails, or None:
    substitute each (a, r) of `args` x `values` and require the instance's
    primitives, least by (name, argument count) first, declared
    ("undeclared primitive") and given as many arguments as they take
    ("arity mismatch"), no placeholder but `{t}` left in its locations
    ("placeholder other than") and a body that is not `skip` ("at least
    one step").  Each name is a phrase of the load error."""
    for a in args:
        for r in values:
            body = subst(template, {"a": a, "r": r})
            for prim in sorted(command_prims(body),
                               key=lambda p: (p.name, len(p.args))):
                arity = ({n: len(u.params) for n, u in prims.items()}
                         | BUILTIN_ARITY)
                if prim.name not in arity:
                    return "undeclared primitive"
                if arity[prim.name] != len(prim.args):
                    return "arity mismatch"
            if any(not loc_placeholders(loc) <= {"t"}
                   for loc in expr_locs(body)):
                return "placeholder other than"
            if isinstance(body, Skip):
                return "at least one step"
    return None


def history_depths(model, bound: int, side: str) -> dict:
    """Every history of a library within `bound` moves, mapped to the least
    number of moves that produces it, by a plain depth-first walk over
    (pool, heap) without a memo.

    A move is a call (an idle thread starts a method on an argument, with a
    guessed return value), a step of a running method, or the return of a
    finished one.  On the "concrete" side a running method is its
    instantiated body, stepped one primitive at a time; a step into the
    fault state raises `FaultReachable`.  On the "abstract" side a method
    takes one atomic step, its abstract command, which blocks where it
    would fault.  The history set at bound k is every history of depth at
    most k.
    """
    concrete = side == "concrete"
    heap0 = model.init_conc if concrete else model.init_abst
    depths = {}

    def walk(used, pool, sigma, hist):
        if depths.get(hist, bound + 1) > used:
            depths[hist] = used
        if used == bound:
            return
        for idx, slot in enumerate(pool):
            t = idx + 1

            def move(new_slot, sigma2, ev=None):
                pool2 = pool[:idx] + (new_slot,) + pool[idx + 1:]
                walk(used + 1, pool2, sigma2,
                     hist + (ev,) if ev else hist)

            if slot is None:
                for m in sorted(model.method_args):
                    for a in model.method_args[m]:
                        for r in model.dom.values:
                            run = (instance_body(model, m, a, r)
                                   if concrete else m)
                            move((m, a, r, run), sigma, (t, "call", m, a))
                continue
            m, a, r, run = slot
            if run == SKIP:
                move(None, sigma, (t, "ret", m, r))
            elif concrete:
                for alpha, run2 in step(run):
                    for sigma2 in ref_apply(model.sem, alpha, t, sigma):
                        if sigma2 is FAULT:
                            raise FaultReachable(f"thread {t} faults")
                        move((m, a, r, run2), sigma2)
            else:
                for sigma2 in ref_apply(model.sem, APCom(m, a, r), t, sigma):
                    move((m, a, r, SKIP), sigma2)

    walk(0, tuple(None for _ in model.dom.thread_ids()), heap0, ())
    return depths


class _HistoryGen:
    """Memoized recursive generator for the inductive history sets.

    One definition serves both libraries: a history is the sequence of
    call and return events of a run of `moves`.  Every recursion level
    contributes the empty history, so level n yields the union of all
    depths up to n; the sets are prefix-closed and monotone in the bound
    by construction.  It memoizes on (side, moves left, pool, heap).  The
    shipped `concrete_histories`/`abstract_histories` are tested against
    it, and `lin_by_history_sets` decides inclusion from its sets as the
    oracle for `check_linearizable`.
    """

    def __init__(self, model: LibraryModel):
        self.model = model
        self.cap = model.dom.cap
        self.memo: Dict = {}
        self._steps: Dict = {}

    def concrete(self, n: int) -> frozenset:
        """The concrete histories within n moves; a fault within them
        raises `least_fault(model, n)`."""
        try:
            return self._histories(True, n, self._idle(),
                                   self.model.init_conc)
        except _FaultSeen:
            raise least_fault(self.model, n) from None

    def abstract(self, n: int) -> frozenset:
        return self._histories(False, n, self._idle(), self.model.init_abst)

    def _idle(self) -> tuple:
        return tuple(IDLE for _ in self.model.dom.thread_ids())

    def moves(self, concrete: bool, pool: tuple, heap: Heap):
        """Each successor of the configuration (pool, heap) as (move,
        event, pool, heap), in the order of the shipped successor tables:
        threads in pool order; an idle thread's calls by method, argument
        and expected return, a finished command's return, a running
        command's steps in `heap_steps` order.  A call or return's move is
        its event; a silent step's move is (thread, primitive) and its
        event None.  A step into the fault state has `FAULT` as its heap.
        A slot is idle or a running (method, command, expected return)."""
        model = self.model
        for idx, slot in enumerate(pool):
            t = idx + 1

            def put(new_slot):
                return pool[:idx] + (new_slot,) + pool[idx + 1:]

            if slot is IDLE:
                for m in model.methods():
                    for a in model.method_args[m]:
                        ev = (t, "call", m, a)
                        for v in model.dom.values:
                            run = instance_body(model, m, a, v) \
                                if concrete else APCom(m, a, v)
                            yield ev, ev, put((m, run, v)), heap
                continue
            m, cmd, v = slot
            if isinstance(cmd, Skip):
                ev = (t, "ret", m, v)
                yield ev, ev, put(IDLE), heap
                continue
            for alpha, cmd2, heap2 in self._step(concrete, cmd, heap, t):
                yield (t, alpha), None, put((m, cmd2, v)), heap2

    def _step(self, concrete: bool, cmd, heap: Heap, t: int) -> tuple:
        key = (cmd, heap, t)
        hit = self._steps.get(key)
        if hit is None:
            model = self.model
            if concrete:
                hit = tuple(heap_steps(cmd, heap, t, model.sem))
            else:
                hit = tuple((cmd, SKIP, heap2) for heap2 in ref_apply(
                    model.sem, cmd, t, heap))
            self._steps[key] = hit
        return hit

    def _histories(self, concrete: bool, n: int, pool: tuple,
                   sigma) -> frozenset:
        key = (concrete, n, pool, sigma)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        if len(self.memo) > self.cap:
            # how far past the cap the memo has grown depends on the
            # exploration order, so the message does not say
            raise UniverseTooLarge(None, self.cap, "history memo", "entries")
        out = {()}
        if n > 0:
            for _move, ev, pool2, sigma2 in self.moves(concrete, pool, sigma):
                if sigma2 is FAULT:
                    raise _FaultSeen
                sub = self._histories(concrete, n - 1, pool2, sigma2)
                if ev is None:
                    out.update(sub)
                else:
                    out.update((ev,) + h for h in sub)
        result = frozenset(out)
        self.memo[key] = result
        return result


class _FaultSeen(Exception):
    """`_HistoryGen` stepped into the fault state."""


def _render_move(move) -> str:
    if len(move) == 4:
        return render_event(move)
    t, alpha = move
    return f"t={t} {alpha!r}"


def least_fault(model, bound: int):
    """The `FaultReachable` of the least faulting concrete run within the
    bound, or None.  Runs are ordered by length, then by their moves one
    by one as text (a call or return as `render_event` renders it, a
    silent step (t, primitive) as `t=T primitive`), then by the fault's
    message.  A memoized recursion over (moves left, pool, heap), where a
    slot holds one expected return as in `_HistoryGen.moves`, keeps the
    least (length, rendered moves, message, moves) from each
    configuration."""
    gen = _HistoryGen(model)
    memo: Dict = {}

    def least(n, pool, heap):
        key = (n, pool, heap)
        if key in memo:
            return memo[key]
        best = None
        for move, _ev, pool2, heap2 in gen.moves(True, pool, heap):
            if heap2 is FAULT:
                t, alpha = move
                tail = (0, (), f"thread {t} faults executing {alpha!r} in "
                        f"method {pool[t - 1][0]} at state {heap!r}", ())
            else:
                tail = least(n - 1, pool2, heap2) if n > 1 else None
                if tail is None:
                    continue
            found = (tail[0] + 1, (_render_move(move),) + tail[1], tail[2],
                     (move,) + tail[3])
            if best is None or found[:3] < best[:3]:
                best = found
        memo[key] = best
        return best

    found = least(bound, gen._idle(), model.init_conc) if bound else None
    return None if found is None else FaultReachable(found[2],
                                                     list(found[3]))


class PerValueLibrary(_Library):
    """`_Library` with a body instantiated per expected return: each
    member of a call holds its own instance's body, a member steps by
    `heap_steps` once per (thread, command, heap), and a primitive runs
    afresh in every step table.  The shipped library shares one body among
    a call's members until a primitive reads `r`, and must give the same
    verdicts, counterexamples, faults, stats and histories; run the
    shipped checks on this one under `per_value_stepping()`."""

    def _starts(self, m):
        if not self.concrete:
            return super()._starts(m)
        return [frozenset((instance_body(self.model, m, a, v), v)
                          for v in self.model.dom.values)
                for a in self.model.method_args[m]]

    def _step(self, t, cmd, heap):
        """(primitive, command', (heap',)) per step and result."""
        steps = self._steps.get((t, cmd, heap))
        if steps is None:
            sem = self.model.sem
            steps = self._steps[t, cmd, heap] = tuple(
                (alpha, c2, (h,)) for alpha, c2, h in (
                    heap_steps(cmd, heap, t, sem) if self.concrete
                    else ((cmd, SKIP, h)
                          for h in ref_apply(sem, cmd, t, heap))))
        return steps

    def local(self, t, sid, heap):
        table = self._locals.get((t, sid, heap))
        if table is None:
            table = self._locals[t, sid, heap] = per_member_local(
                self, t, sid, heap)
        return table


def per_member_local(lib: _Library, t: int, sid: int, heap) -> tuple:
    """`lib.local(t, sid, heap)` with no memo, stepping each member of the
    slot on its own: `lib._step` once per member, and a primitive that
    reads `r` instantiated at the member's value.  The shipped `local`
    steps each distinct command of the slot once."""
    slot = lib.slots[sid]
    if slot is IDLE:
        return tuple(((t, "call", m, a),) * 2 + (started, heap)
                     for m, a, started in lib.calls)
    m, members = slot
    out, groups = [], {}
    for cmd, v in members:
        if isinstance(cmd, Skip):
            out.append(((t, "ret", m, v),) * 2 + (0, heap))
            continue
        for alpha, cmd2, heaps2 in lib._step(t, cmd, heap):
            if heaps2 is None:
                alpha = lib.model.sem.instance(alpha, {"r": v})
                heaps2 = lib.model.sem.run(alpha, t, heap)
            for heap2 in heaps2:
                groups.setdefault((alpha, heap2), []).append((cmd2, v))
    out.extend(
        ((t, alpha), None, -1 if heap2 is FAULT else _index(
            lib._slot_ids, lib.slots, (m, frozenset(group))), heap2)
        for (alpha, heap2), group in groups.items())
    return tuple(out)


@contextmanager
def per_value_stepping():
    """Within the block, the shipped checks build `PerValueLibrary`s."""
    shipped = linearizability._Library
    linearizability._Library = PerValueLibrary
    try:
        yield
    finally:
        linearizability._Library = shipped


def history_sort_key(h):
    """The history order: shorter first, then by the events as text.  The
    least missing history is least in it, and `history_walk` yields in
    it."""
    return (len(h), tuple(render_event(ev) for ev in h))


def lin_by_history_sets(model, bound: int):
    """History inclusion as `check_linearizable` decided it before it
    walked frontiers: build the concrete and abstract history sets at
    the bound with one `_HistoryGen` (one memo, one cap), then the
    concrete set at bound - 1.  Returns (least missing history under
    `history_sort_key` or None, conc(bound) != conc(bound - 1))."""
    gen = _HistoryGen(model)
    conc = gen.concrete(bound)
    missing = conc - gen.abstract(bound)
    prev = gen.concrete(bound - 1) if bound > 0 else frozenset()
    ce = min(missing, key=history_sort_key) if missing else None
    return ce, conc != prev


def outline_assertions(node) -> tuple:
    """Every assertion annotated inside an outline node (not the outer
    pre/post)."""
    if isinstance(node, (OPrim, OSkip)):
        return ()
    if isinstance(node, OSeq):
        out = list(node.mids)
        for child in node.children:
            out.extend(outline_assertions(child))
        return tuple(out)
    if isinstance(node, OChoice):
        return outline_assertions(node.left) + outline_assertions(node.right)
    if isinstance(node, OIter):
        return (node.invariant,) + outline_assertions(node.body)
    if isinstance(node, OConseq):
        return (node.pre, node.post) + outline_assertions(node.inner)
    raise ModelError(f"unknown outline node {node!r}")


def outline_views(env, node, pre, post, binding) -> list:
    """The views an accepted outline annotates under its instance's
    bindings, deduplicated; this is the witness universe for the safety
    judgement."""
    views = []
    for rho in (pre, post) + outline_assertions(node):
        names = sorted(free_lvars(rho) - binding.keys())
        for combo in itertools.product(env.monoid.dom.values,
                                       repeat=len(names)):
            v = env.eval(rho, {**dict(zip(names, combo)), **binding})
            if v not in views:
                views.append(v)
    return views


def subst_vassn(a: VAssn, b: Binding) -> VAssn:
    if isinstance(a, (EmpA, TrueA)):
        return a
    if isinstance(a, CPt):
        return CPt(ref_subst_loc(a.loc, b), subst(a.value, b))
    if isinstance(a, APt):
        return APt(ref_subst_loc(a.loc, b), subst(a.value, b))
    if isinstance(a, TokA):
        return TokA(a.kind, subst(a.tid, b), a.method, subst(a.arg, b),
                    subst(a.ret, b))
    if isinstance(a, PureA):
        return PureA(subst(a.cond, b))
    if isinstance(a, StarA):
        return StarA(tuple(subst_vassn(p, b) for p in a.parts))
    if isinstance(a, OrA):
        return OrA(tuple(subst_vassn(p, b) for p in a.parts))
    if isinstance(a, ExistsA):
        inner = {k: v for k, v in b.items() if k != a.var}
        return ExistsA(a.var, subst_vassn(a.body, inner))
    if isinstance(a, BoxA):
        return BoxA(subst_vassn(a.body, b))
    raise ModelError(f"unknown assertion node {a!r}")


def subst_outline(node, b: Binding):
    if isinstance(node, OPrim):
        return OPrim(subst(node.prim, b))
    if isinstance(node, OSkip):
        return node
    if isinstance(node, OSeq):
        return OSeq(tuple(subst_outline(c, b) for c in node.children),
                    tuple(subst_vassn(m, b) for m in node.mids))
    if isinstance(node, OChoice):
        return OChoice(subst_outline(node.left, b), subst_outline(node.right, b))
    if isinstance(node, OIter):
        return OIter(subst_vassn(node.invariant, b),
                     subst_outline(node.body, b))
    if isinstance(node, OConseq):
        return OConseq(subst_vassn(node.pre, b),
                       subst_vassn(node.post, b),
                       subst_outline(node.inner, b))
    raise ModelError(f"unknown outline node {node!r}")


def substituted_outline(node, pre, post, binding) -> tuple:
    """An instance's outline as it was checked before instances were bound
    in the interpretation: the node, pre and post with the bindings
    substituted in, and no bindings left."""
    return (subst_outline(node, binding), subst_vassn(pre, binding),
            subst_vassn(post, binding), {})


# ---------------------------------------------------------------------------
# Per-class structure: one branch per node class


class _Partial(dict):
    """Leaves unbound placeholders in place."""

    def __missing__(self, key):
        return "{" + key + "}"


def ref_subst_loc(loc: str, b: Binding) -> str:
    if "{" not in loc:
        return loc
    return loc.format_map(_Partial(b))


def ref_subst_expr(e: Expr, b: Binding) -> Expr:
    if isinstance(e, Const) or isinstance(e, Tid):
        return e
    if isinstance(e, LVar):
        if e.name in b:
            return Const(b[e.name])
        return e
    if isinstance(e, Read):
        return Read(ref_subst_loc(e.loc, b))
    if isinstance(e, Plus):
        return Plus(ref_subst_expr(e.a, b), ref_subst_expr(e.b, b))
    if isinstance(e, Eq):
        return Eq(ref_subst_expr(e.a, b), ref_subst_expr(e.b, b))
    if isinstance(e, Lt):
        return Lt(ref_subst_expr(e.a, b), ref_subst_expr(e.b, b))
    if isinstance(e, Not):
        return Not(ref_subst_expr(e.a, b))
    if isinstance(e, And):
        return And(ref_subst_expr(e.a, b), ref_subst_expr(e.b, b))
    if isinstance(e, Or):
        return Or(ref_subst_expr(e.a, b), ref_subst_expr(e.b, b))
    raise ModelError(f"unknown expression node {e!r}")


def ref_subst_prim(p: PrimCommand, b: Binding) -> PrimCommand:
    return PrimCommand(p.name, tuple(ref_subst_expr(a, b) for a in p.args))


def ref_subst_command(c: Command, b: Binding) -> Command:
    # a body's statements form one right-nested `Seq` chain, as long as the
    # body: walk it with a loop, so the stack does not limit its length
    firsts = []
    while isinstance(c, Seq):
        firsts.append(c.first)
        c = c.second
    if isinstance(c, Skip):
        out = c
    elif isinstance(c, Prim):
        out = Prim(ref_subst_prim(c.prim, b))
    elif isinstance(c, Choice):
        out = Choice(ref_subst_command(c.left, b),
                     ref_subst_command(c.right, b))
    elif isinstance(c, Iter):
        out = Iter(ref_subst_command(c.body, b))
    else:
        raise ModelError(f"unknown command node {c!r}")
    for first in reversed(firsts):
        out = Seq(ref_subst_command(first, b), out)
    return out


def ref_eval_expr(e: Expr, sigma, interp, t: int, modulus: int) -> int:
    """An expression's value by a recursive interpreter, one branch per
    node class; raises UndefinedLocation where a read location is absent
    from the state."""
    def ev(x):
        return ref_eval_expr(x, sigma, interp, t, modulus)

    if isinstance(e, Const):
        return e.value
    if isinstance(e, LVar):
        return interp[e.name]
    if isinstance(e, Read):
        loc = resolve_loc(e.loc, t)
        v = sigma.get(loc)
        if v is None:
            raise UndefinedLocation(loc)
        return v
    if isinstance(e, Tid):
        return t
    if isinstance(e, Plus):
        return (ev(e.a) + ev(e.b)) % modulus
    if isinstance(e, Eq):
        return int(ev(e.a) == ev(e.b))
    if isinstance(e, Lt):
        return int(ev(e.a) < ev(e.b))
    if isinstance(e, Not):
        return int(ev(e.a) == 0)
    if isinstance(e, And):
        return int(ev(e.a) != 0 and ev(e.b) != 0)
    if isinstance(e, Or):
        return int(ev(e.a) != 0 or ev(e.b) != 0)
    raise ModelError(f"unknown expression node {e!r}")


def ref_apply(sem, alpha, t: int, sigma) -> tuple:
    """The results of alpha, a primitive or an abstract command, run by
    thread t on sigma under the semantics `sem`, with one case per builtin
    primitive: empty where it blocks, (FAULT,) where a primitive faults.
    A declared primitive evaluates its arguments before its guard; an
    abstract command blocks where its update would fault."""
    modulus = sem.modulus
    if type(alpha) is APCom:
        out = apply_guarded(sem.abstract[alpha.method],
                            (Const(alpha.arg), Const(alpha.ret)), t, sigma,
                            modulus)
        return () if out and out[0] is FAULT else out
    name, args = alpha.name, alpha.args
    try:
        if name == "id":
            return (sigma,)
        if name == "assume":
            val = eval_expr(args[0], sigma, {}, t, modulus)
            return (sigma,) if val != 0 else ()
        if name == "store":
            loc = resolve_loc(args[0].loc, t)
            written = eval_expr(args[1], sigma, {}, t, modulus)
            if loc not in sigma:
                return (FAULT,)
            return (sigma.set_many([(loc, written)]),)
        if name == "load":
            src = resolve_loc(args[0].loc, t)
            dst = resolve_loc(args[1].loc, t)
            val = eval_expr(Read(src), sigma, {}, t, modulus)
            if dst not in sigma:
                return (FAULT,)
            return (sigma.set_many([(dst, val)]),)
        if name in ("cas_succ", "cas_fail"):
            loc = resolve_loc(args[0].loc, t)
            if loc not in sigma:
                return (FAULT,)
            old = eval_expr(args[1], sigma, {}, t, modulus)
            if name == "cas_fail":
                return (sigma,) if sigma[loc] != old else ()
            new = eval_expr(args[2], sigma, {}, t, modulus)
            return ((sigma.set_many([(loc, new)]),) if sigma[loc] == old
                    else ())
        return apply_guarded(sem.prims[name], args, t, sigma, modulus)
    except UndefinedLocation:
        return (FAULT,)


def ref_expr_locs(e: Expr) -> frozenset:
    if isinstance(e, Read):
        return frozenset([e.loc])
    if isinstance(e, (Plus, Eq, Lt, And, Or)):
        return ref_expr_locs(e.a) | ref_expr_locs(e.b)
    if isinstance(e, Not):
        return ref_expr_locs(e.a)
    return frozenset()


def ref_free_lvars_expr(e: Expr) -> frozenset:
    if isinstance(e, LVar):
        return frozenset([e.name])
    if isinstance(e, (Plus, Eq, Lt, And, Or)):
        return ref_free_lvars_expr(e.a) | ref_free_lvars_expr(e.b)
    if isinstance(e, Not):
        return ref_free_lvars_expr(e.a)
    return frozenset()


def command_prims(c: Command) -> frozenset:
    """The primitive commands occurring in a command, by the generic
    walk."""
    return frozenset(n for n in walk(c) if isinstance(n, PrimCommand))


def ref_command_prims(c: Command) -> frozenset:
    """The primitive commands occurring in a command, collected with an
    explicit stack, so a long body does not meet the recursion limit."""
    out, todo = set(), [c]
    while todo:
        c = todo.pop()
        if isinstance(c, Prim):
            out.add(c.prim)
        elif isinstance(c, Seq):
            todo += (c.first, c.second)
        elif isinstance(c, Choice):
            todo += (c.left, c.right)
        elif isinstance(c, Iter):
            todo.append(c.body)
        elif not isinstance(c, Skip):
            raise ModelError(f"unknown command node {c!r}")
    return frozenset(out)


# the DCSL view of no worlds
EMPTY_VIEW = frozenset()

# each monoid's view with empty reification, for unreachable annotations
EMPTY_VIEWS = {DcslMonoid: EMPTY_VIEW, RgsepMonoid: ()}


def reachable_commands(c: Command) -> frozenset:
    """All command shapes reachable from c by stepping (finite)."""
    seen = {c}
    frontier = [c]
    while frontier:
        cur = frontier.pop()
        for _, nxt in step(cur):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(seen)


def check_safe(t: int, p, cmd, q, universe, monoid, _caches=None) -> bool:
    """Greatest-fixpoint safety: does (p, cmd, q) survive iterated removal
    over the given view universe?

    The universe must contain the intermediate views needed to witness each
    step (outline annotations supply them in practice); p and q are added
    if missing.
    """
    views = list(universe)
    for extra in (p, q, EMPTY_VIEWS[type(monoid)]):
        if extra not in views:
            views.append(extra)
    cmds = sorted(reachable_commands(cmd), key=repr)
    alive = {(v, c) for v in views for c in cmds}
    if _caches is None:
        _caches = {}
    action_cache = _caches.setdefault("action", {})
    impl_cache = _caches.setdefault("impl", {})

    def action_ok(alpha, v1, v2):
        key = (t, alpha, v1, v2)
        if key not in action_cache:
            action_cache[key] = monoid.check_action(t, alpha, v1, v2) is True
        return action_cache[key]

    def impl_ok(v1, v2):
        key = (v1, v2)
        if key not in impl_cache:
            impl_cache[key] = monoid.repart_implies(v1, v2)
        return impl_cache[key]

    changed = True
    while changed:
        changed = False
        for entry in list(alive):
            v, c = entry
            if isinstance(c, Skip):
                ok = impl_ok(v, q)
            else:
                ok = True
                for alpha, c2 in step(c):
                    if not any(
                        (v2, c2) in alive and action_ok(alpha, v, v2)
                        for v2 in views
                    ):
                        ok = False
                        break
            if not ok:
                alive.discard(entry)
                changed = True
    return (p, cmd) in alive


def powerset_frames(worlds):
    """Every subset of the given worlds; only usable on tiny universes."""
    ws = list(worlds)
    for n in range(len(ws) + 1):
        for combo in itertools.combinations(ws, n):
            yield frozenset(combo)


def todos(toks: TokenMap) -> tuple:
    """The (thread, command) of each todo token, in thread order."""
    return tuple((t, tok.apcom) for t, tok in toks.items() if tok.kind == TODO)


def lp_step(sigma_a: Heap, toks: TokenMap, sem: Semantics) -> frozenset:
    """One linearization step: fire any pending todo token whose abstract
    command can run, flipping it to done."""
    out = set()
    for tid, ap in todos(toks):
        for sigma2 in ref_apply(sem, ap, tid, sigma_a):
            out.add((sigma2, TokenMap((*toks.items(),
                                       (tid, Token(DONE, ap))))))
    return frozenset(out)


def lp_star(sigma_a: Heap, toks: TokenMap, sem: Semantics) -> frozenset:
    """Reflexive-transitive closure of lp_step; finite because every step
    consumes one todo token."""
    seen = {(sigma_a, toks)}
    frontier = [(sigma_a, toks)]
    while frontier:
        s, d = frontier.pop()
        for nxt in lp_step(s, d, sem):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(seen)


def singleton_frames(dom):
    """The unit plus every singleton view over the declared domains, in
    `world_sort_key` order; more than `dom.cap` worlds raise
    `UniverseTooLarge`."""
    yield UNIT
    for w in enumerate_worlds(dom):
        yield frozenset({w})


def action_over_frames(monoid, t: int, alpha: PrimCommand, p, q, frames):
    """The action judgement quantified over the given frames, world by
    world: under each frame r, every primitive step from a world of the
    reified p * r, in `world_sort_key` order, must fault nowhere and reach
    a world of the reified q * r by linearization steps, each tested for
    membership.  True or the first counterexample.  The shipped
    `check_action_with_frames` and `DcslMonoid.check_action` are tested
    against it."""
    sem = monoid.sem
    for r in frames:
        pre = sorted(monoid.reify(monoid.compose(p, r)), key=world_sort_key)
        if not pre:
            continue
        post = monoid.reify(monoid.compose(q, r))
        for world in pre:
            sigma, sigma_a, toks = world
            for sigma2 in ref_apply(sem, alpha, t, sigma):
                if sigma2 is FAULT:
                    return ActionCounterexample(
                        t, alpha, r, world, FAULT, "fault reachable")
                if not any(World(sigma2, s2, d2) in post
                           for s2, d2 in lp_star(sigma_a, toks, sem)):
                    return ActionCounterexample(
                        t, alpha, r, world, sigma2,
                        "no linearization choice reaches the postcondition")
    return True


def rgsep_action_by_pairs(mono, t: int, alpha: PrimCommand, p, q):
    """`RgsepMonoid.check_action`'s frame-free condition, pair by pair:
    every primitive step from a (local, shared) pair of p, in
    `composed_pairs` order, must fault nowhere and resplit into a pair of
    q whose shared change is none or in thread t's guarantee and whose
    abstract side the linearization steps reach.  True or the first
    counterexample."""
    sem, guar = mono.sem, mono.guarantee(t)
    post = composed_pairs(mono.universe, view_columns(mono, q))
    for _l, s, world in composed_pairs(mono.universe, view_columns(mono, p)):
        sigma, sigma_a, toks = world
        for sigma2 in ref_apply(sem, alpha, t, sigma):
            if sigma2 is FAULT:
                return ActionCounterexample(
                    t, alpha, None, world, FAULT, "fault reachable")
            lp_set = lp_star(sigma_a, toks, sem)
            if not any(w2.conc == sigma2 and (w2.abst, w2.toks) in lp_set
                       and (s2 == s or (s, s2) in guar)
                       for _l2, s2, w2 in post):
                return ActionCounterexample(
                    t, alpha, None, world, sigma2,
                    "no post predicate pair matches with a guarantee "
                    "transition and linearization steps")
    return True


def repart_implies_with_frames(monoid, p, q, frames) -> bool:
    """Frame-preserving inclusion of reifications over the given frames."""
    for r in frames:
        pre = monoid.reify(monoid.compose(p, r))
        if not pre:
            continue
        post = monoid.reify(monoid.compose(q, r))
        if not pre <= post:
            return False
    return True


def token_exclusive(p) -> bool:
    """No world of a DCSL view holds two tokens for one thread."""
    return all(len(dict(w.toks.items())) == len(w.toks) for w in p)


def initial_coverage_by_product(model: LibraryModel) -> ObligationItem:
    """The `initial coverage` item of `check_obligations`, by trying every
    combination of pending commands in `itertools.product` order and
    composing and reifying each one's preconditions in full."""
    tids = list(model.dom.thread_ids())
    insts = [(m, a, r) for m in model.methods() for a in model.method_args[m]
             for r in model.dom.values]
    try:
        mon = model.monoid()
        for combo in itertools.product(insts, repeat=len(tids)):
            view = None
            for t, (m, a, r) in zip(tids, combo):
                env = model.assertion_env(t)
                p = env.eval(model.pre_templates[m], {"t": t, "a": a, "r": r})
                view = p if view is None else mon.compose(view, p)
            toks = TokenMap({t: Token(TODO, APCom(*inst))
                             for t, inst in zip(tids, combo)})
            target = World(model.init_conc, model.init_abst, toks)
            if target in mon.reify(view):
                return ObligationItem("initial coverage", "library", True)
    except RelviewsError as exc:
        return ObligationItem("initial coverage", "library", False,
                              f"assertion family not evaluable: {exc}")
    return ObligationItem(
        "initial coverage", "library", False,
        "no choice of pending commands makes the composed preconditions "
        "cover the initial states (token composition undefined or "
        "assertions too strong)")


# ---------------------------------------------------------------------------
# Macro expansion by JSON substitution


def subst_json(doc, binding: Dict[str, object]):
    """Purely syntactic substitution of macro parameters: `["var", p]`
    nodes are replaced by the argument document and `{p}` placeholders in
    location strings by its rendering.  An `exists` of a param's name does
    not stop it, where the loader's substitution stops."""
    if isinstance(doc, list):
        if len(doc) == 2 and doc[0] == "var" and doc[1] in binding:
            return binding[doc[1]]
        return [subst_json(d, binding) for d in doc]
    if isinstance(doc, str) and "{" in doc:
        out = doc
        for p, arg in binding.items():
            hole = "{" + p + "}"
            if hole not in out:
                continue
            if type(arg) is not int and not (
                    isinstance(arg, list) and arg[:1] == ["var"]):
                raise ModelError(f"cannot splice {arg!r} into location "
                                 f"{doc!r}")
            out = out.replace(hole, str(arg) if type(arg) is int
                              else "{" + arg[1] + "}")
        return out
    return doc


def expand_json(doc, macros: dict, nthreads: int):
    """doc with every macro application and `sep_threads` expanded by
    JSON substitution; `macros` maps a name to its `params` and `body`."""
    if isinstance(doc, dict):
        return {k: expand_json(v, macros, nthreads) for k, v in doc.items()}
    if not isinstance(doc, list) or not doc:
        return doc
    if doc[0] == "macro":
        spec = macros[doc[1]]
        return expand_json(subst_json(spec["body"], dict(zip(
            spec.get("params", []), doc[2:]))), macros, nthreads)
    if doc[0] == "sep_threads":
        var, body = doc[1], doc[2]
        return ["star", *(expand_json(subst_json(body, {var: j}), macros,
                                      nthreads)
                          for j in range(1, nthreads + 1))]
    return [expand_json(d, macros, nthreads) for d in doc]


def macro_free_documents(model_doc: dict, outline_doc: dict = None):
    """The model and outline documents with every macro expanded
    (`expand_json`) and no `macros` section; an outline's macros extend
    and redefine its model's."""
    nthreads = model_doc["domains"]["threads"]
    macros = model_doc.get("macros", {})
    model = expand_json({k: v for k, v in model_doc.items()
                         if k != "macros"}, macros, nthreads)
    if outline_doc is None:
        return model, None
    macros = {**macros, **outline_doc.get("macros", {})}
    return model, expand_json({k: v for k, v in outline_doc.items()
                               if k != "macros"}, macros, nthreads)
