"""Slow reference implementations that the shipped fast paths are tested
against.

RGSep satisfaction, one shared state at a time: `local_sets(mono, rho, s,
interp)` is the set of local fragments l such that (l, s) satisfies the
assertion.  `RgsepMonoid.eval_vassn_rg` computes the same predicate in one
pass over the whole shared universe.
"""

from __future__ import annotations

from relviews.errors import ModelError
from relviews.state_model import EMPTY_WORLD, World, compose_worlds, world_leq
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
