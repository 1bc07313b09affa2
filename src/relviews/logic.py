"""Assertions, the proof-outline checker and the safety fixpoint.

Assertions layer disjunction, separating conjunction and finite
existentials over monoid view assertions.  The outline checker walks an
annotated command tree rule by rule, discharging primitive nodes through
the monoid's action judgement.  The safety judgement is the greatest
fixpoint of the usual step functional, computed over a finite view
universe by iterated removal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple, Union

from .command_lang import Command, PrimCommand, Skip, step
from .command_lang import reachable_commands
from .errors import LocalityViolation, ModelError, StabilityViolation
from .vassn import VAssn, free_lvars
from .views_core import ActionCounterexample, ViewMonoid

# ---------------------------------------------------------------------------
# Assertion language


@dataclass(frozen=True)
class VLeaf:
    rho: VAssn


@dataclass(frozen=True)
class StarAssn:
    parts: Tuple["Assertion", ...]


@dataclass(frozen=True)
class OrAssn:
    parts: Tuple["Assertion", ...]


@dataclass(frozen=True)
class ExistsAssn:
    var: str
    body: "Assertion"


@dataclass(frozen=True)
class RImplAssn:
    """Repartitioning implication; legal only as a Conseq side condition."""

    pre: "Assertion"
    post: "Assertion"


Assertion = Union[VLeaf, StarAssn, OrAssn, ExistsAssn, RImplAssn]

_UNSEEN = object()


class AssertionEnv:
    """Binds a monoid (and, for RGSep, a fixed rely/guarantee) so that
    assertions evaluate to views."""

    def __init__(self, monoid: ViewMonoid, rely=None, guar=None):
        self.monoid = monoid
        self.rely = rely
        self.guar = guar
        self._views: Dict = {}

    def eval_leaf(self, rho: VAssn, interp):
        from .monoid_rgsep import RgsepMonoid

        if isinstance(self.monoid, RgsepMonoid):
            return self.monoid.eval_vassn_rg(rho, self.rely, self.guar, interp)
        return self.monoid.eval_vassn(rho, interp)

    def eval(self, assn: Assertion, interp: Dict[str, int]):
        """The view an assertion denotes under an interpretation; memoized.
        An error (an unstable predicate, say) is not cached: the next
        evaluation raises it again."""
        key = (assn, tuple(sorted(interp.items())))
        view = self._views.get(key, _UNSEEN)
        if view is _UNSEEN:
            view = self._views[key] = self._eval(assn, interp)
        return view

    def _eval(self, assn: Assertion, interp: Dict[str, int]):
        if isinstance(assn, VLeaf):
            return self.eval_leaf(assn.rho, interp)
        if isinstance(assn, StarAssn):
            views = [self.eval(p, interp) for p in assn.parts]
            out = views[0]
            for v in views[1:]:
                out = self.monoid.compose(out, v)
            return out
        if isinstance(assn, OrAssn):
            views = [self.eval(p, interp) for p in assn.parts]
            out = views[0]
            for v in views[1:]:
                out = self.monoid.disjoin(out, v)
            return out
        if isinstance(assn, ExistsAssn):
            out = None
            for n in self.monoid.dom.values:
                v = self.eval(assn.body, {**interp, assn.var: n})
                out = v if out is None else self.monoid.disjoin(out, v)
            return out
        if isinstance(assn, RImplAssn):
            raise ModelError(
                "a repartitioning implication only makes sense as a Conseq "
                "side condition, not nested inside other assertions")
        raise ModelError(f"unknown assertion node {assn!r}")


def assertion_lvars(assn: Assertion) -> frozenset:
    if isinstance(assn, VLeaf):
        return free_lvars(assn.rho)
    if isinstance(assn, (StarAssn, OrAssn)):
        out = frozenset()
        for p in assn.parts:
            out |= assertion_lvars(p)
        return out
    if isinstance(assn, ExistsAssn):
        return assertion_lvars(assn.body) - {assn.var}
    if isinstance(assn, RImplAssn):
        return assertion_lvars(assn.pre) | assertion_lvars(assn.post)
    raise ModelError(f"unknown assertion node {assn!r}")


# ---------------------------------------------------------------------------
# Proof outlines


@dataclass(frozen=True)
class OPrim:
    prim: PrimCommand


@dataclass(frozen=True)
class OSkip:
    pass


@dataclass(frozen=True)
class OSeq:
    """Children interleaved with the intermediate assertions between them."""

    children: Tuple["OutlineNode", ...]
    mids: Tuple[Assertion, ...]


@dataclass(frozen=True)
class OChoice:
    left: "OutlineNode"
    right: "OutlineNode"


@dataclass(frozen=True)
class OIter:
    invariant: Assertion
    body: "OutlineNode"


@dataclass(frozen=True)
class OConseq:
    """Explicit consequence: strengthen the pre, weaken the post."""

    pre: Assertion
    post: Assertion
    inner: "OutlineNode"


OutlineNode = Union[OPrim, OSkip, OSeq, OChoice, OIter, OConseq]


@dataclass(frozen=True)
class ProofOutline:
    thread: int
    pre: Assertion
    body: OutlineNode
    post: Assertion


@dataclass
class FailureReport:
    path: Tuple[str, ...]
    rule: str
    interp: Dict[str, int]
    detail: str
    counterexample: Optional[ActionCounterexample] = None

    def __str__(self):
        where = "/".join(self.path) or "<root>"
        ce = f"\n  {self.counterexample}" if self.counterexample else ""
        return f"{self.rule} fails at {where} (interp {self.interp}): {self.detail}{ce}"


def _interps(names: Iterable[str], values) -> Iterable[Dict[str, int]]:
    names = sorted(names)
    if not names:
        yield {}
        return
    for combo in itertools.product(values, repeat=len(names)):
        yield dict(zip(names, combo))


class ProofChecker:
    """Syntax-directed checker for annotated outlines.

    Primitive nodes discharge the action judgement for every interpretation
    of the logical variables free in their pre/post; skip and consequence
    sites discharge repartitioning implications; the remaining rules are
    structural.
    """

    def __init__(self, env: AssertionEnv):
        self.env = env
        self.monoid = env.monoid

    def check(self, outline: ProofOutline) -> Optional[FailureReport]:
        return self._node(outline.body, outline.pre, outline.post,
                          outline.thread, ())

    # each method returns None on success or the first FailureReport

    def _node(self, node, pre, post, t, path):
        if isinstance(node, OPrim):
            return self._prim(node, pre, post, t, path)
        if isinstance(node, OSkip):
            return self._implies(pre, post, t, path, "Skip")
        if isinstance(node, OSeq):
            if len(node.mids) != len(node.children) - 1:
                raise ModelError("sequence outline needs one intermediate "
                                 "assertion between adjacent children")
            assns = [pre, *node.mids, post]
            for idx, child in enumerate(node.children):
                fail = self._node(child, assns[idx], assns[idx + 1], t,
                                  path + (f"seq[{idx}]",))
                if fail:
                    return fail
            return None
        if isinstance(node, OChoice):
            return (self._node(node.left, pre, post, t, path + ("choice/left",))
                    or self._node(node.right, pre, post, t,
                                  path + ("choice/right",)))
        if isinstance(node, OIter):
            inv = node.invariant
            return (
                self._implies(pre, inv, t, path + ("iter/entry",), "Conseq")
                or self._node(node.body, inv, inv, t, path + ("iter/body",))
                or self._implies(inv, post, t, path + ("iter/exit",), "Conseq")
            )
        if isinstance(node, OConseq):
            return (
                self._implies(pre, node.pre, t, path + ("conseq/pre",),
                              "Conseq")
                or self._node(node.inner, node.pre, node.post, t,
                              path + ("conseq",))
                or self._implies(node.post, post, t, path + ("conseq/post",),
                                 "Conseq")
            )
        raise ModelError(f"unknown outline node {node!r}")

    def _prim(self, node, pre, post, t, path):
        names = assertion_lvars(pre) | assertion_lvars(post)
        for interp in _interps(names, self.monoid.dom.values):
            try:
                p = self.env.eval(pre, interp)
                q = self.env.eval(post, interp)
                verdict = self.monoid.check_action(t, node.prim, p, q)
            except StabilityViolation as exc:
                return FailureReport(path, "Prim", interp,
                                     f"unstable assertion: {exc}")
            except LocalityViolation as exc:
                return FailureReport(path, "Prim", interp, str(exc))
            if verdict is not True:
                return FailureReport(
                    path, "Prim", interp,
                    f"action judgement fails for {node.prim!r}",
                    counterexample=verdict)
        return None

    def _implies(self, pre, post, t, path, rule):
        names = assertion_lvars(pre) | assertion_lvars(post)
        for interp in _interps(names, self.monoid.dom.values):
            try:
                p = self.env.eval(pre, interp)
                q = self.env.eval(post, interp)
            except StabilityViolation as exc:
                return FailureReport(path, rule, interp,
                                     f"unstable assertion: {exc}")
            verdict = self.monoid.repart_implies(p, q)
            if not verdict.ok():
                return FailureReport(
                    path, rule, interp,
                    f"repartitioning implication {verdict.value}")
        return None


def check_proof(outline: ProofOutline,
                env: AssertionEnv) -> Optional[FailureReport]:
    return ProofChecker(env).check(outline)


def outline_assertions(node: OutlineNode) -> Tuple[Assertion, ...]:
    """Every assertion annotated inside a node (not the outer pre/post)."""
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


def outline_views(outline: ProofOutline, env: AssertionEnv):
    """The views an accepted outline annotates, deduplicated; this is the
    witness universe for the safety judgement."""
    views = []
    for assn in ((outline.pre, outline.post)
                 + outline_assertions(outline.body)):
        for interp in _interps(assertion_lvars(assn),
                               env.monoid.dom.values):
            v = env.eval(assn, interp)
            if v not in views:
                views.append(v)
    return views


# ---------------------------------------------------------------------------
# The safety judgement


def check_safe(t: int, p, cmd: Command, q, universe, monoid: ViewMonoid,
               _caches=None) -> bool:
    """Greatest-fixpoint safety: does (p, cmd, q) survive iterated removal
    over the given view universe?

    The universe must contain the intermediate views needed to witness each
    step (outline annotations supply them in practice); p and q are added
    if missing.
    """
    views = list(universe)
    for extra in (p, q, monoid.empty):
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
            impl_cache[key] = monoid.repart_implies(v1, v2).ok()
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
