"""Slow reference implementations that the shipped fast paths are tested
against.

RGSep satisfaction, one shared state at a time: `local_sets(mono, rho, s,
interp)` is the set of local fragments l such that (l, s) satisfies the
assertion.  `RgsepMonoid.eval_vassn_rg` computes the same predicate in one
pass over the whole shared universe.

Histories, by a plain walk: `history_depths(model, bound, side)` maps every
history within the bound to its least number of moves.  The memoized
`_HistoryGen` behind `concrete_histories`/`abstract_histories` computes the
same sets.
"""

from __future__ import annotations

from relviews.command_lang import SKIP, apply_guarded, step
from relviews.errors import FaultReachable, ModelError
from relviews.state_model import (
    EMPTY_WORLD,
    FAULT,
    World,
    compose_worlds,
    world_leq,
)
from relviews.vassn import BoxA, ExistsA, OrA, StarA, TrueA, VAssn


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
    if isinstance(rho, TrueA):
        raise ModelError("`true` is only supported inside boxes")
    return mono.fragments(rho, interp)


def satisfies(mono, local: World, shared: World, interp, rho: VAssn) -> bool:
    """Does the (local, shared) pair satisfy the assertion?"""
    return local in local_sets(mono, rho, shared, interp)


def rgsep_pred(mono, rho: VAssn, interp) -> frozenset:
    """{(l, s) | s in the shared universe, l in local_sets(rho, s)}."""
    return frozenset((l, s) for s in mono.universe
                     for l in local_sets(mono, rho, s, interp))


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
    modulus = model.dom.modulus
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
                            run = model.bodies[(m, a, r)] if concrete else m
                            move((m, a, r, run), sigma, (t, "call", m, a))
                continue
            m, a, r, run = slot
            if run == SKIP:
                move(None, sigma, (t, "ret", m, r))
            elif concrete:
                for alpha, run2 in step(run):
                    for sigma2 in model.ctable.apply(alpha, t, sigma,
                                                     modulus):
                        if sigma2 is FAULT:
                            raise FaultReachable(f"thread {t} faults")
                        move((m, a, r, run2), sigma2)
            else:
                spec = model.atable.methods[m]
                for sigma2 in apply_guarded(spec, {"a": a, "r": r}, t, sigma,
                                            modulus):
                    if sigma2 is not FAULT:
                        move((m, a, r, SKIP), sigma2)

    walk(0, tuple(None for _ in model.dom.thread_ids()), heap0, ())
    return depths
