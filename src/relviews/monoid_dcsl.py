"""The disjoint-separation view monoid.

Views are finite sets of world triples; composition pairs worlds whose
states and tokens are disjoint, dropping undefined pairs.  Reification is
the identity and disjunction is set union.  The action judgement
quantifies over the unit plus all singleton views, which decides it
exactly (composition distributes over unions of world sets, so any failing
frame projects to a failing singleton).  The repartitioning implication is
inclusion: the unit frame tests p <= q, and composition is monotone, so
every other frame then holds too.

Of the singleton frames, only the unit and those whose world holds
concrete cells alone (no abstract cell, no token) are checked, because
linearization steps are local.  Write a frame as f = f_c + f_at, where f_c
holds f's concrete cells and f_at its abstract cells and tokens.

- The primitive reads only the concrete heap, so the pre-worlds under f
  step exactly as they do under f_c.
- `AbstractTable.apply` runs guarded updates, which block when a cell they
  read or write is missing and write only cells that are present, and
  `lp_step` fires each todo on its own thread's command without reading
  any other token.  So every linearization run under f_c is also a run
  under f that leaves f_at untouched, and its post-world composes with
  f_at.
- So if f fails, f_c fails too.  f_c composes with the pre-view whenever f
  does, and it sorts before f under `world_sort_key`; when f has no
  concrete cell, f_c is the unit.

So the first failing frame is always the unit or a frame of concrete cells
alone, and the reported (frame, world, result) is the one the unit plus
every singleton would give.

Of those frames, only the ones that compose with the pre-view are checked.
Whether {w} composes with a world depends only on w's shape, its set of
concrete locations.  A singleton whose shape overlaps the shape of every
world of the pre-view composes with it to the empty view, which the
judgement skips anyway; dropping those frames, and keeping the rest in the
same order, leaves every verdict and counterexample as it was.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Iterator

from .command_lang import PrimCommand
from .errors import UniverseTooLarge
from .state_model import (
    EMPTY_HEAP,
    EMPTY_TOKENS,
    EMPTY_WORLD,
    Domains,
    Heap,
    World,
    compose_worlds,
    count_worlds,
    world_sort_key,
)
from .views_core import (
    ImplVerdict,
    Semantics,
    ViewMonoid,
    check_action_with_frames,
)

DcslView = frozenset  # of World

UNIT_DCSL: DcslView = frozenset({EMPTY_WORLD})


def compose_dcsl(p: DcslView, q: DcslView) -> DcslView:
    """Pairwise composition of worlds, dropping undefined pairs; the unit
    returns the other view itself."""
    if p == UNIT_DCSL:
        return frozenset(q)
    if q == UNIT_DCSL:
        return frozenset(p)
    out = set()
    for w1 in p:
        for w2 in q:
            w = compose_worlds(w1, w2)
            if w is not None:
                out.add(w)
    return frozenset(out)


def reify_dcsl(p: DcslView) -> frozenset:
    return p


class DcslMonoid(ViewMonoid):
    def __init__(self, dom: Domains, sem: Semantics):
        super().__init__(dom, sem)
        # One shape bit per concrete location that some world can hold: bit
        # i stands for the (location, values) in _parts[i].
        self._parts = [(loc, vals) for loc, vals in dom.cloc if vals]
        self._bits = {loc: 1 << i for i, (loc, _) in enumerate(self._parts)}
        # shape -> its singleton frames as sorted (world_sort_key, frame)
        self._groups = {}

    def compose(self, p, q):
        return compose_dcsl(p, q)

    def reify(self, p):
        return reify_dcsl(p)

    def _shape(self, w: World) -> int:
        bits = self._bits
        shape = 0
        for loc, _ in w.conc.items():
            shape |= bits.get(loc, 0)
        return shape

    def _group(self, shape: int):
        group = self._groups.get(shape)
        if group is None:
            chosen = [p for i, p in enumerate(self._parts) if shape >> i & 1]
            locs = [loc for loc, _ in chosen]
            worlds = (World(Heap(zip(locs, combo)), EMPTY_HEAP, EMPTY_TOKENS)
                      for combo in itertools.product(*(v for _, v in chosen)))
            group = self._groups[shape] = sorted(
                (world_sort_key(w), frozenset({w})) for w in worlds)
        return group

    def frames(self, p) -> Iterator[DcslView]:
        """The unit, then each singleton view over the declared domains
        whose world holds concrete cells alone and composes with p, in
        `world_sort_key` order.  The empty-shape singleton {EMPTY_WORLD} is
        the unit itself, so it is not checked twice.  A universe of more
        than `dom.cap` worlds raises `UniverseTooLarge`, although only the
        concrete shapes p can compose with are ever built."""
        size = count_worlds(self.dom)
        if size > self.dom.cap:
            raise UniverseTooLarge(size, self.dom.cap)
        shapes = {self._shape(w) for w in p}
        groups = [self._group(shape)
                  for shape in range(1, 1 << len(self._parts))
                  if any(shape & s == 0 for s in shapes)]
        return itertools.chain(
            (UNIT_DCSL,), (r for _, r in heapq.merge(*groups)))

    def check_action(self, t: int, alpha: PrimCommand, p, q):
        return check_action_with_frames(self, t, alpha, p, q, self.frames(p))

    def repart_implies(self, p, q) -> ImplVerdict:
        return ImplVerdict.HOLDS if p <= q else ImplVerdict.FAILS

    def eval_vassn(self, rho, interp, t: int):
        return self.fragments(rho, interp)  # the same view in every thread

    def reified_token_worlds(self, p):
        return p

    def strip_token_set(self, p, t: int) -> frozenset:
        """The worlds with thread t's token erased (token-swap check)."""
        return frozenset(World(w.conc, w.abst, w.toks.remove(t)) for w in p)

