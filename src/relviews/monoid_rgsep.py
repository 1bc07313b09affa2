"""The rely/guarantee-with-separation view monoid.

A view is either the inconsistent bottom or a triple of a predicate, a
rely and a guarantee (relations on shared fragments).  The predicate is held
as columns: for each state of the shared universe, the set of local world
fragments paired with it.  Predicates must be stable under the rely.
Composition demands that each side's guarantee is covered by the other's
rely and otherwise merges local parts column by column.

Everything is materialized extensionally over a finite universe of shared
states: by default all world triples over the declared domains, optionally
restricted by a model-declared shared-universe assertion to keep larger
models enumerable.  The monoid also holds each thread's rely and guarantee,
built once from the model's actions, and evaluates a thread's assertions
under them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, Optional, Tuple

from .command_lang import PrimCommand
from .errors import ModelError, StabilityViolation
from .state_model import (
    EMPTY_WORLD,
    FAULT,
    Domains,
    Heap,
    World,
    compose_worlds,
    enumerate_worlds,
    world_leq,
    world_minus,
    world_sort_key,
)
from .vassn import BoxA, ExistsA, OrA, StarA, TrueA, VAssn, free_lvars
from .views_core import (
    ActionCounterexample,
    ImplVerdict,
    Semantics,
    ViewMonoid,
    check_action_with_frames,
    memo_key,
)

Rel = FrozenSet[Tuple[World, World]]
Columns = Tuple[FrozenSet[World], ...]


@dataclass(frozen=True)
class RgsepView:
    """Bot, or (cols, rely, guar): cols[i] holds the local fragments paired
    with the i-th state of the monoid's sorted shared universe.  rely=None
    encodes the full relation."""

    cols: Columns
    rely: Optional[Rel]
    guar: Rel
    bot: bool = False

    def __repr__(self):
        if self.bot:
            return "BOT"
        rely = "full" if self.rely is None else f"{len(self.rely)} pairs"
        return (
            f"RgsepView(|pred|={sum(map(len, self.cols))}, rely={rely}, "
            f"|guar|={len(self.guar)})"
        )


BOT = RgsepView((), frozenset(), frozenset(), bot=True)


def _rely_contains(rely: Optional[Rel], pairs: Rel) -> bool:
    return rely is None or pairs <= rely


def _rely_meet(r1: Optional[Rel], r2: Optional[Rel]) -> Optional[Rel]:
    if r1 is None:
        return r2
    if r2 is None:
        return r1
    return r1 & r2


def compose_rgsep(v1: RgsepView, v2: RgsepView) -> RgsepView:
    """Bot if either side is bot or a guarantee escapes the other's rely;
    otherwise local parts merge column by column."""
    if v1.bot or v2.bot:
        return BOT
    if not _rely_contains(v2.rely, v1.guar) or not _rely_contains(v1.rely, v2.guar):
        return BOT
    return RgsepView(_columnwise(_compose_sets, zip(v1.cols, v2.cols)),
                     _rely_meet(v1.rely, v2.rely), v1.guar | v2.guar)


# ---------------------------------------------------------------------------
# Satisfaction


class RgsepMonoid(ViewMonoid):
    def __init__(self, dom: Domains, sem: Semantics,
                 shared_universe: Optional[Iterable[World]] = None,
                 actions: Optional[Dict[str, Tuple[VAssn, VAssn]]] = None,
                 guarantee_names: Tuple[str, ...] = (),
                 rely_extra_names: Tuple[str, ...] = ()):
        super().__init__(dom, sem)
        if shared_universe is None:
            shared_universe = enumerate_worlds(dom)
        self.universe = tuple(sorted(set(shared_universe), key=world_sort_key))
        self._index = {s: i for i, s in enumerate(self.universe)}
        self._unit = None
        # columns -> their composable pairs, and one object per distinct
        # heap or token map of their worlds; see `_composed`
        self._composed_memo: Dict[Columns, tuple] = {}
        self._world_parts: dict = {}
        # see `_local_columns` and `_rely_edges`
        self._columns_memo: Dict[tuple, Dict[int, frozenset]] = {}
        self._edges_memo: Dict[Rel, tuple] = {}
        # each thread's guarantee, and its rely: every other thread's
        # guarantee and rely-extra actions; each action denoted once per
        # thread
        tids = dom.thread_ids()
        denote = {(name, t): self.denote_action(pre, post, {"t": t})
                  for name, (pre, post) in (actions or {}).items()
                  for t in tids}
        self._guars = {t: frozenset().union(
            *(denote[name, t] for name in guarantee_names)) for t in tids}
        interference = {t: self._guars[t].union(
            *(denote[name, t] for name in rely_extra_names)) for t in tids}
        self._relys = {t: frozenset().union(
            *(interference[t2] for t2 in tids if t2 != t)) for t in tids}

    # -- per-thread rely and guarantee

    def guarantee(self, t: int) -> Rel:
        return self._guars[t]

    def rely(self, t: int) -> Rel:
        return self._relys[t]

    # -- monoid operations

    def compose(self, p, q):
        return compose_rgsep(p, q)

    @property
    def unit(self) -> RgsepView:
        if self._unit is None:
            self._unit = RgsepView((_EMP,) * len(self.universe), None,
                                   frozenset())
        return self._unit

    def reify(self, p):
        """The worlds of the predicate's pairs, not memoized: the initial
        coverage check reifies many composed views once each."""
        return frozenset(w for ls, s in zip(p.cols, self.universe)
                         for l in ls for w in (compose_worlds(l, s),)
                         if w is not None)

    def _composed(self, cols: Columns) -> tuple:
        """The (local, shared, world) triples of the columns whose local
        and shared parts compose to a world, ordered by local and then
        shared under `world_sort_key`: the distinct locals are sorted once
        and each one's shared states follow in universe order, which is
        that order.  Computed once per predicate.  The kept worlds are
        built from shared heaps and token maps: a few dozen distinct ones
        make up thousands of worlds, which would otherwise each hold their
        own copies."""
        hit = self._composed_memo.get(cols)
        if hit is None:
            at: Dict[World, list] = {}
            for i, ls in enumerate(cols):
                for l in ls:
                    at.setdefault(l, []).append(i)
            universe = self.universe
            parts = self._world_parts
            out = []
            for l in sorted(at, key=world_sort_key):
                for i in at[l]:
                    s = universe[i]
                    w = compose_worlds(l, s)
                    if w is not None:
                        out.append((l, s, World(*(parts.setdefault(x, x)
                                                  for x in w))))
            hit = self._composed_memo[cols] = tuple(out)
        return hit

    # -- assertion satisfaction

    def eval_vassn(self, rho: VAssn, interp: Dict[str, int],
                   t: int) -> RgsepView:
        return self.eval_vassn_rg(rho, self.rely(t), self.guarantee(t),
                                  interp)

    def eval_vassn_rg(self, rho: VAssn, rely: Optional[Rel], guar: Rel,
                      interp: Dict[str, int]) -> RgsepView:
        """Materialize an assertion as a view in one pass over the shared
        universe; rejects unstable predicates rather than silently
        stabilizing them.  The witness is the first rely edge whose source
        column is not contained in its target column, with the least
        uncovered local fragment under `world_sort_key`."""
        universe = self.universe
        cols = self._local_columns(rho, interp, range(len(universe)))
        for i, j, s2 in self._rely_edges(rely):
            target = _NONE if j is None else cols[j]
            if not cols[i] <= target:
                raise StabilityViolation(
                    min(cols[i] - target, key=world_sort_key), universe[i],
                    s2)
        return RgsepView(tuple(cols[i] for i in range(len(universe))), rely,
                         guar)

    def _rely_edges(self, rely: Optional[Rel]) -> Iterable[tuple]:
        """The rely's transitions from a universe state to another state as
        (i, j, s2): the source's universe index, the target's (None for a
        target outside the universe, whose column is empty) and the
        target, ordered by source and then target under `world_sort_key`.
        The full rely (None) relates every pair of states; the edges of
        any other rely are built once.  A predicate is stable exactly when
        each edge's source column is contained in its target column."""
        universe = self.universe
        if rely is None:
            return ((i, j, s2) for i in range(len(universe))
                    for j, s2 in enumerate(universe) if i != j)
        edges = self._edges_memo.get(rely)
        if edges is None:
            index = self._index
            edges = self._edges_memo[rely] = tuple(sorted(
                ((index[s], index.get(s2), s2) for s, s2 in rely
                 if s in index and s != s2),
                key=lambda e: (e[0], world_sort_key(e[2]))))
        return edges

    def _local_columns(self, rho: VAssn, interp,
                       live) -> Dict[int, frozenset]:
        """For each live index i into the universe, the local fragments l
        such that (l, universe[i]) satisfies the assertion.  A part is
        evaluated at exactly the shared states where a state-by-state
        reading looks at it (a star gives up on a state once its prefix
        denotes nothing there), so a model error is raised exactly when
        that reading raises one; of several faulty parts, the one reported
        may differ.  Memoized on `memo_key` and the live indices: parts
        that do not mention an instance's variables are evaluated once for
        all its instances.  An error is not cached, and a returned dict is
        shared, so callers never mutate it."""
        key = (memo_key(rho, interp), tuple(live))
        cols = self._columns_memo.get(key)
        if cols is None:
            cols = self._columns_memo[key] = self._eval_columns(rho, interp,
                                                                live)
        return cols

    def _eval_columns(self, rho: VAssn, interp,
                      live) -> Dict[int, frozenset]:
        if not live:
            return {}
        if isinstance(rho, BoxA):
            held = self._box_states(rho.body, interp, live)
            return {i: _EMP if i in held else _NONE for i in live}
        if isinstance(rho, StarA):
            cur = dict.fromkeys(live, _EMP)
            for part in rho.parts:
                live = [i for i in live if cur[i]]
                cols = self._local_columns(part, interp, live)
                cur.update(zip(cols, _columnwise(_compose_sets, (
                    (cur[i], c) for i, c in cols.items()))))
            return cur
        if isinstance(rho, (OrA, ExistsA)):
            cur = dict.fromkeys(live, _NONE)
            for part, sub in _branches(rho, interp, self.dom.values):
                cols = self._local_columns(part, sub, live)
                cur.update(zip(cols, _columnwise(frozenset.union, (
                    (cur[i], c) for i, c in cols.items()))))
            return cur
        if isinstance(rho, TrueA):
            raise ModelError("`true` is only supported inside boxes")
        return dict.fromkeys(live, self.fragments(rho, interp))

    def _box_states(self, body: VAssn, interp, live) -> set:
        """The live universe indices whose shared state satisfies the box
        interior; a disjunct or witness is tried only where the earlier
        ones failed.  `true` conjuncts absorb an arbitrary remainder (the
        upward closure of the rest); without one the match is exact."""
        if not live:
            return set()
        if isinstance(body, (OrA, ExistsA)):
            held = set()
            for part, sub in _branches(body, interp, self.dom.values):
                held |= self._box_states(
                    part, sub, [i for i in live if i not in held])
            return held
        parts = body.parts if isinstance(body, StarA) else (body,)
        rest = [p for p in parts if not isinstance(p, TrueA)]
        core = StarA(tuple(rest)) if len(rest) != 1 else rest[0]
        frags = self.fragments(core, interp) if rest else _EMP
        universe = self.universe
        if len(rest) == len(parts):
            return {i for i in live if universe[i] in frags}
        return {i for i in live
                if any(world_leq(f, universe[i]) for f in frags)}

    # -- action denotations

    def denote_action(self, pre: VAssn, post: VAssn,
                      binding: Dict[str, int]) -> Rel:
        """All shared-state transitions rewriting a pre fragment into a post
        fragment while preserving the remainder, restricted to the shared
        universe; the variables that `binding` leaves free range over the
        values and thread ids."""
        names = sorted((free_lvars(pre) | free_lvars(post)) - binding.keys())
        domain = sorted(set(self.dom.values) | set(self.dom.thread_ids()))
        pairs = set()
        for combo in itertools.product(domain, repeat=len(names)):
            interp = {**binding, **dict(zip(names, combo))}
            pre_frags = self.fragments(pre, interp)
            if not pre_frags:
                continue
            post_frags = self.fragments(post, interp)
            if not post_frags:
                continue
            for s in self.universe:
                for f in pre_frags:
                    if not world_leq(f, s):
                        continue
                    rem = world_minus(s, f)
                    for f2 in post_frags:
                        s2 = compose_worlds(f2, rem)
                        if s2 is not None and s2 in self._index:
                            pairs.add((s, s2))
        return frozenset(pairs)

    # -- the frame-free action check (sufficient condition)

    def check_action(self, t: int, alpha: PrimCommand, p: RgsepView,
                     q: RgsepView):
        """Sufficient frame-free condition for the action judgement: every
        primitive step from a predicate pair resplits into a post pair whose
        shared change is in the guarantee (or is no change at all) and whose
        abstract side is reachable by linearization steps.  Sufficient
        because every primitive is local by construction: it reads and
        writes only the locations its arguments, guard and updates name."""
        if p.bot:
            return True
        if q.bot:
            composed = self._composed(p.cols)
            if composed:
                return ActionCounterexample(
                    t, alpha, None, composed[0][2], None,
                    "postcondition is inconsistent (bottom view)")
            return True
        if p.rely != q.rely or p.guar != q.guar:
            raise ModelError(
                "action checks require pre and post views sharing rely and "
                "guarantee")
        sem = self.sem
        post_by_conc: Dict[Heap, list] = {}
        for _l2, s2, (sigma2, abs2, toks2) in self._composed(q.cols):
            post_by_conc.setdefault(sigma2, []).append((s2, abs2, toks2))
        guar = p.guar
        for _l, s, world in self._composed(p.cols):
            sigma, sigma_a, toks = world
            lp_set = None
            for sigma2 in sem.ctable.apply(alpha, t, sigma, sem.modulus):
                if sigma2 is FAULT:
                    return ActionCounterexample(
                        t, alpha, None, world, FAULT, "fault reachable")
                if lp_set is None:
                    lp_set = self.lp_star(sigma_a, toks)
                ok = False
                for s2, abs2, toks2 in post_by_conc.get(sigma2, ()):
                    if (abs2, toks2) not in lp_set:
                        continue
                    if s2 == s or (s, s2) in guar:
                        ok = True
                        break
                if not ok:
                    return ActionCounterexample(
                        t, alpha, None, world, sigma2,
                        "no post predicate pair matches with a guarantee "
                        "transition and linearization steps")
        return True

    def repart_implies(self, p: RgsepView, q: RgsepView) -> ImplVerdict:
        """Sufficient condition only: column containment with a narrower
        rely and a wider guarantee.  Incompleteness is reported as
        `not established`, never as failure."""
        if p.bot:
            return ImplVerdict.HOLDS
        if q.bot:
            return ImplVerdict.NOT_ESTABLISHED
        rely_ok = q.rely is None or (p.rely is not None and p.rely <= q.rely)
        if (rely_ok and q.guar <= p.guar
                and all(map(frozenset.__le__, p.cols, q.cols))):
            return ImplVerdict.HOLDS
        return ImplVerdict.NOT_ESTABLISHED

    # -- the fully-quantified oracle (small universes only)

    def def2_frames(self, guar: Rel) -> Iterator[RgsepView]:
        """Unit plus every singleton frame {(l, s)} closed under the
        guarantee as its rely, for each local l and then each universe
        state s.  Complete for the frame quantification in the action
        judgement: predicates distribute over unions of pairs, so a failing
        frame projects onto a failing closed singleton.  States outside the
        universe are left out of the closure: no column pairs with them."""
        yield self.unit
        succ: Dict[int, list] = {}
        for i, j, _s2 in self._rely_edges(guar):
            if j is not None:
                succ.setdefault(i, []).append(j)
        closures = []
        for k in range(len(self.universe)):
            seen, frontier = {k}, [k]
            while frontier:
                for j in succ.get(frontier.pop(), ()):
                    if j not in seen:
                        seen.add(j)
                        frontier.append(j)
            closures.append(seen)
        for l in enumerate_worlds(self.dom):
            col = frozenset({l})
            for seen in closures:
                yield RgsepView(tuple(col if j in seen else _NONE
                                      for j in range(len(closures))),
                                guar, frozenset())

    def check_action_def2(self, t: int, alpha: PrimCommand, p: RgsepView,
                          q: RgsepView):
        """The action judgement with full frame quantification; the oracle
        used to validate the frame-free sufficient condition."""
        if p.bot:
            return True
        return check_action_with_frames(self, t, alpha, p, q,
                                        self.def2_frames(p.guar))

    # -- obligation helpers

    def reified_token_worlds(self, p: RgsepView):
        if p.bot:
            return
        for _l, _s, world in self._composed(p.cols):
            yield world

    def strip_token_set(self, p: RgsepView, t: int) -> frozenset:
        """Predicate pairs with thread t's token erased (keeping its side),
        for the token-swap correspondence check."""
        out = set()
        for l, s, _world in self._composed(p.cols):
            side = "local" if t in l.toks else (
                "shared" if t in s.toks else "none")
            out.add((
                World(l.conc, l.abst, l.toks.remove(t)),
                World(s.conc, s.abst, s.toks.remove(t)),
                side,
            ))
        return frozenset(out)


_EMP = frozenset({EMPTY_WORLD})
_NONE = frozenset()


def _compose_sets(left: frozenset, right: frozenset) -> frozenset:
    return frozenset(w for l1 in left for l2 in right
                     for w in (compose_worlds(l1, l2),) if w is not None)


def _columnwise(op, pairs: Iterable[tuple]) -> Columns:
    """op applied to each (left, right) pair of columns, once per distinct
    pair of sets: most shared states see the same pair."""
    done: Dict = {}
    out = []
    for key in pairs:
        got = done.get(key)
        if got is None:
            got = done[key] = op(*key)
        out.append(got)
    return tuple(out)


def _branches(rho: VAssn, interp, values):
    """The (part, interpretation) alternatives of a disjunction or a
    finite existential, in evaluation order."""
    if isinstance(rho, OrA):
        return [(part, interp) for part in rho.parts]
    return [(rho.body, {**interp, rho.var: n}) for n in values]
