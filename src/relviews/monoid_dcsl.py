"""The disjoint-separation view monoid.

Views are finite sets of worlds, composed by `state_model.compose_sets`.
Reification is the identity, each world is local with an empty shared
part, and disjunction is set union.  The repartitioning implication is
inclusion, and a failed one `fails`: the unit frame tests p <= q, and
composition is monotone, so every other frame then holds too.

The action judgement is the shared `views_core.judge_action`, with no
shared part and no guarantee, on each view composed with each frame
(`check_action_with_frames`); it quantifies over every frame.  Every
primitive and every abstract command is a guarded update, which reads and
writes only the cells it names (the frame property in `views_core`), so
checking the unit frame alone decides it exactly:

- The unit plus every singleton decides it: composition distributes over
  unions of world sets, so any failing frame projects to a failing
  singleton.
- Write a singleton frame as f = f_c + f_at, where f_c holds f's concrete
  cells and f_at its abstract cells and tokens.  The primitive reads only
  the concrete heap, so the pre-worlds under f step exactly as they do
  under f_c.  A linearization step runs an abstract command's guarded
  update, which blocks where a cell it names is missing, and fires one
  todo on its own thread's command without reading any other token.  So
  steps that lead from (a, d) to (a2, d2) lead from (a, d) + f_at to
  (a2, d2) + f_at, and `linearizes`, which decides exactly where steps
  lead, accepts the framed post-world under f wherever it accepts the
  post-world under f_c: if f fails, f_c fails.
- Take f_c = (sigma_f, {}, {}), composable with a pre-world
  w = (sigma, a, d), and suppose the unit passes.  Then the primitive does
  not fault on sigma, so by the frame property it runs on sigma + sigma_f
  to exactly {sigma2 + sigma_f : sigma2 a result on sigma}.  Where steps
  lead is unchanged, as f_c holds no abstract cell and no token.  The
  unit's matching post-world (sigma2, a2, d2) in q composes with f_c,
  because sigma2 has the locations of sigma, which are disjoint from
  sigma_f.  So f_c passes.

So when the unit passes, every frame does; when it fails, its
counterexample is the one the unit plus every singleton gives, since the
unit comes first.  `RgsepMonoid.check_action` rests on the same property.
"""

from __future__ import annotations

from .command_lang import PrimCommand
from .errors import UniverseTooLarge
from .state_model import (
    EMPTY_WORLD,
    UNIT,
    compose_sets,
    compose_worlds,  # not called here; perfbench/tracer.py wraps it
    count_worlds,
    world_sort_key,
)
from .views_core import ViewMonoid, check_action_with_frames


class DcslMonoid(ViewMonoid):
    unmatched = "no linearization choice reaches the postcondition"
    implication_failure = "fails"
    _size = None  # the world count of `frames`

    compose = staticmethod(compose_sets)

    def _split(self, p):
        return [(w, EMPTY_WORLD, w) for w in sorted(p, key=world_sort_key)]

    def reify(self, p):
        return p  # the world set, which the generic reify would rebuild

    def frames(self) -> tuple:
        """The unit alone, which decides the action judgement by locality
        (see the module docstring).  A universe of more than `dom.cap`
        worlds, counted once per monoid and never built, raises
        `UniverseTooLarge` on every call."""
        if self._size is None:
            self._size = count_worlds(self.dom)
        if self._size > self.dom.cap:
            raise UniverseTooLarge(self._size, self.dom.cap)
        return (UNIT,)

    def check_action(self, t: int, alpha: PrimCommand, p, q):
        return check_action_with_frames(self, t, alpha, p, q, self.frames())

    def repart_implies(self, p, q) -> bool:
        return p <= q

    def eval_vassn(self, rho, interp, t: int):
        return self.fragments(rho, interp)  # the same view in every thread
