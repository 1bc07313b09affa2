"""The rely/guarantee-with-separation view monoid.

A view is a predicate pairing each shared state with a set of local world
fragments, held as column classes: each distinct set with the bitmask of
its shared states.  The monoid holds each thread's rely and guarantee
(relations on shared states), built once from the model's actions, and
evaluates a thread's assertions under them: a thread's predicates must be
stable under its rely, and its actions may change shared state only by its
guarantee.  Each thread's guarantee is part of every other thread's rely,
so views of different threads always compose, and composition merges
local parts class by class with `state_model.compose_sets` (Vafeiadis and
Parkinson, CONCUR 2007).  The action judgement is the shared
`views_core.judge_action` under the thread's guarantee; the implication
is a sufficient test, so a failed one is `not established`.

Everything is materialized extensionally over a finite universe of shared
states: by default all world triples over the declared domains, optionally
restricted by a model-declared shared-universe assertion to keep larger
models enumerable.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, reduce
from operator import itemgetter, or_
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterator, Optional, Tuple

from .command_lang import PrimCommand
from .errors import ModelError, StabilityViolation, UniverseTooLarge
from .state_model import (
    UNIT,
    Domains,
    World,
    compose_sets,
    compose_worlds,
    enumerate_worlds,
    world_sort_key,
)
from .vassn import (
    BoxA,
    ExistsA,
    OrA,
    PureA,
    StarA,
    TrueA,
    VAssn,
    free_lvars,
    memo_key,
)
from .views_core import (
    ViewMonoid,
    check_action_with_frames,  # not called here; perfbench/tracer.py wraps it
    judge_action,
)

if TYPE_CHECKING:
    from .linearizability import Semantics

Rel = FrozenSet[Tuple[World, World]]
# A view: classes, each a non-empty set of local fragments and the int mask
# of the states of the monoid's sorted shared universe paired with it (bit
# i for the i-th).  Masks are disjoint, sets distinct and classes sorted by
# mask, so equal predicates are equal tuples.
Classes = Tuple[Tuple[FrozenSet[World], int], ...]


# ---------------------------------------------------------------------------
# Satisfaction


class RgsepMonoid(ViewMonoid):
    unmatched = ("no post predicate pair matches with a guarantee transition "
                 "and linearization steps")
    implication_failure = "not established"

    def __init__(self, dom: Domains, sem: Semantics,
                 shared_universe: Optional[VAssn] = None,
                 actions: Optional[Dict[str, Tuple[VAssn, VAssn]]] = None,
                 guarantee_names: Tuple[str, ...] = (),
                 rely_extra_names: Tuple[str, ...] = (),
                 where: str = "shared_universe"):
        """The shared universe is the worlds the declared assertion
        denotes, whose path in its document is `where`, or without one
        every world over the domains."""
        super().__init__(dom, sem)
        if shared_universe is None:
            universe = enumerate_worlds(dom)
        else:
            universe = self.fragments(shared_universe, {})
            if not universe:
                raise ModelError(f"{where}: declared shared universe is empty")
            if len(universe) > dom.cap:
                raise UniverseTooLarge(len(universe), dom.cap)
        self.universe = tuple(sorted(universe, key=world_sort_key))
        self._index = {s: i for i, s in enumerate(self.universe)}
        self._full = (1 << len(self.universe)) - 1
        # per component of a world (concrete heap, abstract heap, tokens),
        # each (key, value) item -> the mask of the states that hold it
        self._cells: Tuple[dict, dict, dict] = ({}, {}, {})
        for i, s in enumerate(self.universe):
            for cells, part in zip(self._cells, s):
                for kv in part.items():
                    cells[kv] = cells.get(kv, 0) | 1 << i
        # see `_local_classes`, `_box_states`, `_successors` and
        # `_composed_sets`
        self._classes_memo: Dict[tuple, Classes] = {}
        self._box_memo: Dict[tuple, int] = {}
        self._succ_memo: Dict[Rel, tuple] = {}
        self._sets_memo: Dict[Tuple[frozenset, frozenset], frozenset] = {}
        # each thread's guarantee, and its rely: every other thread's
        # guarantee and rely-extra actions; each action denoted once per
        # thread, the fragments' remainder groups shared by all of them and
        # dropped once the monoid is built
        tids = dom.thread_ids()
        groups: Dict[World, dict] = {}
        denote = {(name, t): self.denote_action(pre, post, {"t": t}, groups)
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
        """Local parts merge class by class."""
        return _meet(self._composed_sets, p, q)

    def _composed_sets(self, left: frozenset, right: frozenset) -> frozenset:
        """`compose_sets`, once per pair of local-fragment sets: star folds
        meet the same columns again and again."""
        key = (left, right)
        got = self._sets_memo.get(key)
        if got is None:
            got = self._sets_memo[key] = compose_sets(left, right)
        return got

    def _split(self, classes: Classes) -> list:
        """The (local, shared, world) triples of the predicate whose local
        and shared parts compose to a world, ordered by local and then
        shared under `world_sort_key`: the distinct locals are sorted once
        and each one's shared states follow in universe order, which is
        that order.  The worlds share their heaps and token maps, which are
        hash-consed: a few dozen distinct ones make up thousands of
        worlds."""
        at: Dict[World, int] = {}
        for ls, m in classes:
            for l in ls:
                at[l] = at.get(l, 0) | m
        universe = self.universe
        out = []
        for l in sorted(at, key=world_sort_key):
            m = at[l]
            while m:
                low = m & -m
                m ^= low
                s = universe[low.bit_length() - 1]
                w = compose_worlds(l, s)
                if w is not None:
                    out.append((l, s, w))
        return out

    # -- assertion satisfaction

    def eval_vassn(self, rho: VAssn, interp: Dict[str, int],
                   t: int) -> Classes:
        return self.eval_vassn_rg(rho, self.rely(t), interp)

    def eval_vassn_rg(self, rho: VAssn, rely: Rel,
                      interp: Dict[str, int]) -> Classes:
        """Materialize an assertion as a view in one pass over the shared
        universe; rejects a predicate unstable under the rely rather than
        silently stabilizing it."""
        classes = self._local_classes(rho, interp, self._full)
        self._check_stable(classes, rely)
        return classes

    def _check_stable(self, classes: Classes, rely: Rel) -> None:
        """A class is stable when the rely leads from its states only into
        classes whose sets contain its own.  Only when one is not are the
        rely's pairs searched for the witness: the least (shared, shared')
        under `world_sort_key` whose source column is not contained in its
        target column, with the least local fragment that is missing."""
        per, by_mask = self._successors(rely)
        for ls, m in classes:
            cover = sum(m2 for ls2, m2 in classes if ls is ls2 or ls <= ls2)
            succ = by_mask.get(m)
            if succ is None:
                succ = by_mask[m] = reduce(or_, map(per.__getitem__, _bits(m)))
            if succ & ~cover:
                break
        else:
            return
        universe = self.universe
        cols = {universe[i]: ls for ls, m in classes for i in _bits(m)}
        s, s2 = min(
            ((s, s2) for s, s2 in rely
             if not cols.get(s, _NONE) <= cols.get(s2, _NONE)),
            key=lambda e: (world_sort_key(e[0]), world_sort_key(e[1])))
        raise StabilityViolation(
            min(cols[s] - cols.get(s2, _NONE), key=world_sort_key), s, s2)

    def _successors(self, rely: Rel) -> tuple:
        """Per universe index, the mask of the states the rely leads to (bit
        len(universe) for any outside it), and a memo of their unions per
        mask; built once per rely."""
        hit = self._succ_memo.get(rely)
        if hit is None:
            index, outside = self._index, len(self.universe)
            per = [0] * outside
            for s, s2 in rely:
                if s in index:
                    per[index[s]] |= 1 << index.get(s2, outside)
            hit = self._succ_memo[rely] = (per, {})
        return hit

    def _local_classes(self, rho: VAssn, interp, live: int) -> Classes:
        """The classes of the local fragments l such that (l, universe[i])
        satisfies the assertion, for the universe indices i in the live
        mask.  A part is evaluated only at the shared states where a
        state-by-state reading looks at it (a star gives up on a state
        once its prefix denotes nothing there).  Memoized on `memo_key`
        and the live mask: parts that do not mention an instance's
        variables are evaluated once for all its instances."""
        key = (memo_key(rho, interp), live)
        classes = self._classes_memo.get(key)
        if classes is None:
            classes = self._classes_memo[key] = self._eval_classes(
                rho, interp, live)
        return classes

    def _eval_classes(self, rho: VAssn, interp, live: int) -> Classes:
        if not live:
            return ()
        if isinstance(rho, BoxA):
            held = self._box_states(rho.body, interp, live)
            return ((UNIT, held),) if held else ()
        if isinstance(rho, StarA):
            cur = ((UNIT, live),)
            for part in _pure_first(rho):
                cur = _meet(self._composed_sets, cur, self._local_classes(
                    part, interp, _cover(cur)))
                if not cur:
                    break
            return cur
        if isinstance(rho, (OrA, ExistsA)):
            cur = ()
            for part, sub in _branches(rho, interp, self.dom.values):
                got = self._local_classes(part, sub, live)
                cur = _meet(frozenset.union,
                            cur + ((_NONE, live & ~_cover(cur)),),
                            got + ((_NONE, live & ~_cover(got)),))
            return cur
        frags = self.fragments(rho, interp)
        return ((frags, live),) if frags else ()

    def _box_states(self, body: VAssn, interp, live: int) -> int:
        """The mask of the live universe indices whose shared state
        satisfies the box interior; a disjunct or witness is tried only
        where the earlier ones failed.  `true` conjuncts absorb an
        arbitrary remainder (the upward closure of the rest); without one
        the match is exact."""
        if not live:
            return 0
        if isinstance(body, (OrA, ExistsA)):
            held = 0
            for part, sub in _branches(body, interp, self.dom.values):
                held |= self._box_states(part, sub, live & ~held)
            return held
        parts = body.parts if isinstance(body, StarA) else (body,)
        rest = [p for p in parts if not isinstance(p, TrueA)]
        core = StarA(tuple(rest)) if len(rest) != 1 else rest[0]
        frags = self.fragments(core, interp) if rest else UNIT
        key = (frags, len(rest) == len(parts))
        mask = self._box_memo.get(key)
        if mask is None:
            # the states that are one of the fragments, or hold one
            index = self._index
            mask = self._box_memo[key] = sum(
                1 << index[f] for f in frags if f in index) if key[1] else \
                reduce(or_, map(self._holding, frags), 0)
        return live & mask

    def _holding(self, f: World) -> int:
        """The mask of the universe states s with f a sub-world of s: those
        that hold every cell and token of f."""
        mask = self._full
        for cells, part in zip(self._cells, f):
            for kv in part.items():
                mask &= cells.get(kv, 0)
        return mask

    # -- action denotations

    def denote_action(self, pre: VAssn, post: VAssn,
                      binding: Dict[str, int],
                      groups: Optional[Dict[World, dict]] = None) -> Rel:
        """All shared-state transitions rewriting a pre fragment into a post
        fragment while preserving the remainder, restricted to the shared
        universe; the variables that `binding` leaves free range over the
        values and thread ids.  The universe states that hold a fragment
        are grouped by their remainder outside it (`_by_remainder`), and
        the pairs are the states of a pre fragment's and a post fragment's
        groups with equal remainders: s2 - f2 = s - f with f2 in s2 means
        s2 = (s - f) + f2.  `groups` memoizes the grouping per fragment."""
        groups = {} if groups is None else groups
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
            for f in pre_frags:
                before = self._by_remainder(f, groups)
                for f2 in post_frags:
                    after = self._by_remainder(f2, groups)
                    pairs.update((before[rest], after[rest])
                                 for rest in before.keys() & after.keys())
        return frozenset(pairs)

    def _by_remainder(self, f: World, groups: Dict[World, dict]) -> dict:
        """The universe states that hold fragment f, keyed by their
        remainder: per part, its item tuple without f's items."""
        got = groups.get(f)
        if got is None:
            drop = [frozenset(part.items()) for part in f]
            got = groups[f] = {
                tuple(tuple(kv for kv in part.items() if kv not in d)
                      if d else part.items() for part, d in zip(s, drop)): s
                for s in map(self.universe.__getitem__,
                             _bits(self._holding(f)))}
        return got

    # -- the frame-free action check (sufficient condition)

    def check_action(self, t: int, alpha: PrimCommand, p: Classes,
                     q: Classes):
        """Sufficient frame-free condition for the action judgement: the
        shared `judge_action` over the predicates' triples, each shared
        change none or in thread t's guarantee.  Sufficient because every
        primitive is local: the frame property in `views_core`."""
        return judge_action(self, t, alpha, p, q, None)

    def repart_implies(self, p: Classes, q: Classes) -> bool:
        """Sufficient condition only: containment state by state, checked
        once per pair of classes that share states.  Incompleteness is
        reported as `not established`, never as failure."""
        return not _cover(p) & ~_cover(q) and all(
            ls <= rs for ls, m in p for rs, m2 in q if m & m2)


_NONE = frozenset()
_MASK = itemgetter(1)


def _bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of mask, in increasing order."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def _cover(classes: Classes) -> int:
    """The union of the masks, which are disjoint."""
    return sum(m for _ls, m in classes)


@lru_cache(maxsize=None)
def _pure_first(star: StarA) -> tuple:
    """A star's parts, its `pure` conjuncts first, once per node: a false
    one ends the star's evaluation before any other part is evaluated.
    Composition commutes and classes are canonical, so the order does not
    change the view."""
    return tuple(sorted(star.parts, key=lambda p: type(p) is not PureA))


def _meet(op, left: Classes, right: Classes) -> Classes:
    """op on the sets of each pair of classes that share states, once per
    distinct pair of non-empty columns, regrouped into canonical classes."""
    groups: Dict[frozenset, int] = {}
    for ls, m1 in left:
        for rs, m2 in right:
            m = m1 & m2
            if m:
                got = op(ls, rs)
                if got:
                    groups[got] = groups.get(got, 0) | m
    return tuple(sorted(groups.items(), key=_MASK))


def _branches(rho: VAssn, interp, values):
    """The (part, interpretation) alternatives of a disjunction or a
    finite existential, in evaluation order."""
    if isinstance(rho, OrA):
        return [(part, interp) for part in rho.parts]
    return [(rho.body, {**interp, rho.var: n}) for n in values]
