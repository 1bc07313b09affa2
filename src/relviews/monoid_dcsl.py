"""The disjoint-separation view monoid.

Views are finite sets of world triples; composition pairs worlds whose
states and tokens are disjoint, dropping undefined pairs.  Reification is
the identity and disjunction is set union.  The action judgement
quantifies over the unit plus all singleton views, which decides it
exactly (composition distributes over unions of world sets, so any failing
frame projects to a failing singleton).  The repartitioning implication is
inclusion: the unit frame tests p <= q, and composition is monotone, so
every other frame then holds too.
"""

from __future__ import annotations

from typing import Iterator

from .command_lang import PrimCommand
from .state_model import (
    EMPTY_WORLD,
    Domains,
    World,
    compose_worlds,
    enumerate_worlds,
)
from .views_core import (
    ImplVerdict,
    Semantics,
    ViewMonoid,
    check_action_with_frames,
)

DcslView = frozenset  # of World

UNIT_DCSL: DcslView = frozenset({EMPTY_WORLD})
EMPTY_VIEW: DcslView = frozenset()


def compose_dcsl(p: DcslView, q: DcslView) -> DcslView:
    out = set()
    for w1 in p:
        for w2 in q:
            w = compose_worlds(w1, w2)
            if w is not None:
                out.add(w)
    return frozenset(out)


def reify_dcsl(p: DcslView) -> frozenset:
    return p


def frames_dcsl(dom: Domains) -> Iterator[DcslView]:
    """The unit plus every singleton view over the declared domains."""
    yield UNIT_DCSL
    for w in enumerate_worlds(dom):
        yield frozenset({w})


class DcslMonoid(ViewMonoid):
    def __init__(self, dom: Domains, sem: Semantics):
        super().__init__(dom, sem)
        self._frames = None

    def compose(self, p, q):
        return compose_dcsl(p, q)

    @property
    def unit(self):
        return UNIT_DCSL

    @property
    def empty(self):
        return EMPTY_VIEW

    def reify(self, p):
        return reify_dcsl(p)

    def frames(self):
        if self._frames is None:
            self._frames = tuple(frames_dcsl(self.dom))
        return self._frames

    def check_action(self, t: int, alpha: PrimCommand, p, q):
        return check_action_with_frames(self, t, alpha, p, q, self.frames())

    def repart_implies(self, p, q) -> ImplVerdict:
        return ImplVerdict.HOLDS if p <= q else ImplVerdict.FAILS

    eval_vassn = ViewMonoid.fragments  # a view is the set of its fragments

    def reified_token_worlds(self, p):
        return sorted(p, key=repr)

    def strip_token_set(self, p, t: int) -> frozenset:
        """The worlds with thread t's token erased (token-swap check)."""
        return frozenset(World(w.conc, w.abst, w.toks.remove(t)) for w in p)

