"""The proof-outline checker.

Every assertion slot of an outline holds a view assertion (`vassn.VAssn`),
evaluated to a view by the monoid through a per-thread `AssertionEnv`.
`check_proof` walks an annotated command tree rule by rule, discharging
primitive nodes through the monoid's action judgement and skip and
consequence sites through the repartitioning implication.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import TYPE_CHECKING, Dict, NamedTuple, Optional, Tuple, Union

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


class FailureReport(NamedTuple):
    path: Tuple[str, ...]
    rule: str
    interp: Dict[str, int]
    detail: str
    counterexample: Optional[ActionCounterexample] = None

    def __str__(self):
        where = "/".join(self.path) or "<root>"
        ce = f"\n  {self.counterexample}" if self.counterexample else ""
        return f"{self.rule} fails at {where} (interp {self.interp}): {self.detail}{ce}"


def check_proof(env: AssertionEnv, node: OutlineNode, pre: VAssn,
                post: VAssn, binding: Dict[str, int],
                path: Tuple[str, ...] = ()) -> Optional[FailureReport]:
    """Check an outline node between pre and post in thread `env.t`, rule
    by rule, with the instance's (name, value) `binding` in every
    interpretation; None on success, else the first failure.  Primitive
    sites discharge the action judgement, skip and consequence sites the
    repartitioning implication; the remaining rules are structural."""
    if isinstance(node, OPrim):
        # the instance and its runs come from the model's `Semantics`, so
        # each is built once per model, whatever instance asks first
        alpha = env.monoid.sem.instance(node.prim, binding)
        return _site(env, "Prim", alpha, pre, post, binding, path)
    if isinstance(node, OSkip):
        return _site(env, "Skip", None, pre, post, binding, path)
    if isinstance(node, OSeq):
        assns = [pre, *node.mids, post]
        for idx, child in enumerate(node.children):
            fail = check_proof(env, child, assns[idx], assns[idx + 1],
                               binding, path + (f"seq[{idx}]",))
            if fail:
                return fail
        return None
    if isinstance(node, OChoice):
        return (check_proof(env, node.left, pre, post, binding,
                            path + ("choice/left",))
                or check_proof(env, node.right, pre, post, binding,
                               path + ("choice/right",)))
    if isinstance(node, (OIter, OConseq)):
        # the consequence rule around the inner node: pre implies p, the
        # inner node runs from p to q, and q implies post; `at` holds the
        # three premises' path steps
        if isinstance(node, OIter):
            p = q = node.invariant
            inner, at = node.body, ("iter/entry", "iter/body", "iter/exit")
        else:
            p, q, inner = node.pre, node.post, node.inner
            at = ("conseq/pre", "conseq", "conseq/post")
        return (_site(env, "Conseq", None, pre, p, binding, path + at[:1])
                or check_proof(env, inner, p, q, binding, path + at[1:2])
                or _site(env, "Conseq", None, q, post, binding, path + at[2:]))
    raise ModelError(f"unknown outline node {node!r}")


def _site(env: AssertionEnv, rule: str, alpha: Optional[PrimCommand],
          pre: VAssn, post: VAssn, binding: Dict[str, int],
          path: Tuple[str, ...]) -> Optional[FailureReport]:
    """One rule site under each interpretation of the variables free in
    pre or post that the instance does not bind: the action judgement of
    `alpha`, or the repartitioning implication where `alpha` is None.  A
    failure reports the enumerated interpretation only."""
    mon = env.monoid
    names = _site_names(pre, post, tuple(binding))
    for combo in itertools.product(mon.dom.values, repeat=len(names)):
        interp = dict(zip(names, combo))
        full = {**interp, **binding}
        try:
            p = env.eval(pre, full)
            q = env.eval(post, full)
        except StabilityViolation as exc:
            return FailureReport(path, rule, interp,
                                 f"unstable assertion: {exc}")
        if alpha is None:
            if not mon.repart_implies(p, q):
                return FailureReport(
                    path, rule, interp,
                    f"repartitioning implication {mon.implication_failure}")
        else:
            verdict = mon.check_action(env.t, alpha, p, q)
            if verdict is not True:
                return FailureReport(
                    path, rule, interp,
                    f"action judgement fails for {alpha!r}",
                    counterexample=verdict)
    return None


@lru_cache(maxsize=None)
def _site_names(pre: VAssn, post: VAssn, bound: tuple) -> tuple:
    """The names a site enumerates, sorted: free in pre or post and not
    among the `bound` names; once per (pre, post)."""
    return tuple(sorted(
        (free_lvars(pre) | free_lvars(post)).difference(bound)))
