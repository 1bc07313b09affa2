"""The proof-outline checker.

Every assertion slot of an outline holds a view assertion (`vassn.VAssn`),
evaluated to a view by the monoid through a per-thread `AssertionEnv`.  The
checker walks an annotated command tree rule by rule, discharging
primitive nodes through the monoid's action judgement and skip and
consequence sites through the repartitioning implication.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple, Union

from .command_lang import PrimCommand, tree_node
from .errors import ModelError, StabilityViolation
from .vassn import VAssn, free_lvars, memo_key

if TYPE_CHECKING:  # the monoids load only when a model builds one
    from .views_core import ActionCounterexample, ViewMonoid

_UNSEEN = object()


class AssertionEnv:
    """Binds a monoid to thread t's context, so that view assertions
    evaluate to views."""

    def __init__(self, monoid: ViewMonoid, t: int):
        self.monoid = monoid
        self.t = t
        self._views: Dict = {}

    def eval(self, rho: VAssn, interp: Dict[str, int]):
        """The view an assertion denotes under an interpretation; memoized
        on `memo_key`.  An error (an unstable predicate, say) is not
        cached: the next evaluation raises it again."""
        key = memo_key(rho, interp)
        view = self._views.get(key, _UNSEEN)
        if view is _UNSEEN:
            view = self._views[key] = self.monoid.eval_vassn(rho, interp,
                                                             self.t)
        return view


# ---------------------------------------------------------------------------
# Proof outlines


@tree_node
class OPrim:
    prim: PrimCommand


@tree_node
class OSkip:
    pass


@tree_node
class OSeq:
    """Children interleaved with the intermediate assertions between them."""

    children: Tuple["OutlineNode", ...]
    mids: Tuple[VAssn, ...]


@tree_node
class OChoice:
    left: "OutlineNode"
    right: "OutlineNode"


@tree_node
class OIter:
    invariant: VAssn
    body: "OutlineNode"


@tree_node
class OConseq:
    """Explicit consequence: strengthen the pre, weaken the post."""

    pre: VAssn
    post: VAssn
    inner: "OutlineNode"


OutlineNode = Union[OPrim, OSkip, OSeq, OChoice, OIter, OConseq]


@dataclass(frozen=True)
class ProofOutline:
    """An outline of one command instance: the method's templates and the
    instance's (name, value) bindings, under which its assertions are
    evaluated and its primitives instantiated."""

    thread: int
    pre: VAssn
    body: OutlineNode
    post: VAssn
    binding: Tuple[Tuple[str, int], ...]


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


class ProofChecker:
    """Syntax-directed checker for annotated outlines.

    Primitive nodes discharge the action judgement for every interpretation
    of the logical variables free in their pre/post and not bound by the
    instance; skip and consequence sites discharge repartitioning
    implications; the remaining rules are structural.  A failure reports
    the enumerated interpretation only.
    """

    def __init__(self, env: AssertionEnv, binding: Dict[str, int]):
        self.env = env
        self.monoid = env.monoid
        self.binding = binding

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

    def _interps(self, pre, post):
        """Each interpretation of the variables free in pre or post that
        the instance does not bind, with the instance's bindings added."""
        names = sorted((free_lvars(pre) | free_lvars(post))
                       - self.binding.keys())
        for combo in itertools.product(self.monoid.dom.values,
                                       repeat=len(names)):
            interp = dict(zip(names, combo))
            yield interp, {**interp, **self.binding}

    def _prim(self, node, pre, post, t, path):
        """The action judgement of the instantiated primitive under each
        interpretation.  The instance and the primitive's runs come from
        the model's `Semantics` and the views from the thread's env, so
        each is built once per model, whatever instance asks for it
        first."""
        alpha = self.monoid.sem.instance(node.prim, self.binding)
        for interp, full in self._interps(pre, post):
            try:
                p = self.env.eval(pre, full)
                q = self.env.eval(post, full)
                verdict = self.monoid.check_action(t, alpha, p, q)
            except StabilityViolation as exc:
                return FailureReport(path, "Prim", interp,
                                     f"unstable assertion: {exc}")
            if verdict is not True:
                return FailureReport(
                    path, "Prim", interp,
                    f"action judgement fails for {alpha!r}",
                    counterexample=verdict)
        return None

    def _implies(self, pre, post, t, path, rule):
        for interp, full in self._interps(pre, post):
            try:
                p = self.env.eval(pre, full)
                q = self.env.eval(post, full)
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
    return ProofChecker(env, dict(outline.binding)).check(outline)
