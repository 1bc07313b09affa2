"""Library models, bounded history sets and the soundness obligations.

Concrete histories arise from interleaving method bodies under the
small-step semantics with nondeterministically chosen expected return
values; abstract histories run each method as one atomic command.  A
library is linearizable up to a bound when its concrete history set is
included in the abstract one.  A history set is the paths of a library's
frontier automaton, which `history_walk` counts and lists and
`check_linearizable` walks in pairs.  The obligations checklist verifies
the hypotheses under which that inclusion holds at every bound:
per-method proof outlines plus token pinning and the token-swap
correspondence.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from .command_lang import (
    SKIP,
    Command,
    Const,
    GuardedUpdate,
    PrimCommand,
    Skip,
    apply_guarded,
    builtin_update,
    state_step,
)
from .errors import (
    FaultReachable,
    RelviewsError,
    UniverseTooLarge,
)
from .logic import AssertionEnv, OutlineNode, check_proof
from .state_model import (
    DONE,
    FAULT,
    TODO,
    APCom,
    Domains,
    Heap,
    Token,
    TokenMap,
    World,
    compose_worlds,
)
from .subst import Binding, subst, subst_names
from .vassn import VAssn

Event = Tuple[int, str, str, int]  # (thread, "call"|"ret", method, value)
History = Tuple[Event, ...]

IDLE = None


class Semantics:
    """A model's primitive semantics: its declared primitives and abstract
    methods, each a guarded update, and its modulus.  Every check of the
    model runs its concrete primitives and abstract commands and
    instantiates its primitives here, each once: a run depends on
    (primitive or `APCom`, thread, heap) alone, and an instance on the
    primitive and the binding's values for the names `subst` reads."""

    def __init__(self, prims: Dict[str, GuardedUpdate],
                 abstract: Dict[str, GuardedUpdate], modulus: int):
        self.prims = prims
        self.abstract = abstract
        self.modulus = modulus
        self._runs: Dict = {}
        self._instances: Dict = {}

    def run(self, alpha, t: int, heap: Heap) -> tuple:
        """The results of alpha, a primitive or an abstract command, run by
        thread t on heap as a guarded update: a declared primitive's own, a
        builtin's `builtin_update`, or an abstract method's, which blocks
        where it would fault."""
        out = self._runs.get((alpha, t, heap))
        if out is None:
            if type(alpha) is APCom:
                out = apply_guarded(self.abstract[alpha.method],
                                    (Const(alpha.arg), Const(alpha.ret)), t,
                                    heap, self.modulus)
                out = () if out and out[0] is FAULT else out
            else:
                out = apply_guarded(
                    self.prims.get(alpha.name) or builtin_update(alpha),
                    alpha.args, t, heap, self.modulus)
            self._runs[alpha, t, heap] = out
        return out

    def instance(self, prim: PrimCommand, binding: Binding) -> PrimCommand:
        """The primitive under the binding."""
        key = (prim, tuple(map(binding.get, subst_names(prim))))
        alpha = self._instances.get(key)
        if alpha is None:
            alpha = self._instances[key] = subst(prim, binding)
        return alpha


class LibraryModel:
    """A loaded model, its method bodies and proof data kept as templates:
    everything downstream checks consume."""

    def __init__(self, name: str, monoid_kind: str, dom: Domains,
                 sem: Semantics, init_conc: Heap, init_abst: Heap,
                 method_args: Dict[str, Tuple[int, ...]],
                 body_templates: Dict[str, Command],
                 pre_templates: Dict[str, VAssn],
                 post_templates: Dict[str, VAssn],
                 outline_templates: Dict[str, OutlineNode],
                 actions: Dict[str, Tuple[VAssn, VAssn]],
                 guarantee_names: Tuple[str, ...],
                 rely_extra_names: Tuple[str, ...],
                 shared_universe_assn: Optional[VAssn],
                 macros, path: str):
        self.name = name
        self.monoid_kind = monoid_kind  # "dcsl" | "rgsep"
        self.dom = dom
        self.sem = sem
        self.init_conc = init_conc
        self.init_abst = init_abst
        self.method_args = method_args
        self.body_templates = body_templates  # as parsed, not instantiated
        # proof data; every outlined method has its two families
        self.pre_templates = pre_templates
        self.post_templates = post_templates
        self.outline_templates = outline_templates
        self.actions = actions
        self.guarantee_names = guarantee_names
        self.rely_extra_names = rely_extra_names
        self.shared_universe_assn = shared_universe_assn
        self.macros = macros  # the model's `model_io.MacroTable`
        self.path = path  # the document's, for errors found after loading
        self._monoid = None
        self._envs: Dict[int, AssertionEnv] = {}

    def methods(self) -> Tuple[str, ...]:
        return tuple(sorted(self.method_args))

    def monoid(self):
        """The model's view monoid, built on the first call; `dom.cap`
        bounds its shared universe (RGSep) or frame universe (DCSL).  The
        monoid modules are imported here, so a check that builds no monoid
        (`check-lin`, `histories`) never loads them."""
        if self._monoid is None:
            from .monoid_dcsl import DcslMonoid
            from .monoid_rgsep import RgsepMonoid

            if self.monoid_kind == "dcsl":
                self._monoid = DcslMonoid(self.dom, self.sem)
            else:
                self._monoid = RgsepMonoid(
                    self.dom, self.sem, self.shared_universe_assn,
                    self.actions, self.guarantee_names,
                    self.rely_extra_names, f"{self.path}/shared_universe")
        return self._monoid

    def assertion_env(self, t: int) -> AssertionEnv:
        """Thread t's env, one per thread, so its eval memo is shared by
        every check of the model."""
        env = self._envs.get(t)
        if env is None:
            env = self._envs[t] = AssertionEnv(self.monoid(), t)
        return env


# ---------------------------------------------------------------------------
# History generation


def render_event(ev: Event) -> str:
    t, kind, m, v = ev
    return f"t={t} {kind} {m}({v})"


def render_history(h: History) -> str:
    if not h:
        return "ε"
    return "\n".join(render_event(ev) for ev in h)


class _Library:
    """One library's moves, over configurations interned to ints.

    A configuration is a pool of per-thread slots plus a heap.  A slot is
    idle or a running (method, members), the (command, expected return)
    pairs that its moves so far leave possible.  The call event does not
    name the return, so a call starts one slot holding every value's
    command; a running slot steps each distinct command of its members
    once, each member taking its command's steps, and groups the members'
    results by (primitive, heap'), each group the next slot; a `Skip`
    member returns its value.  A merged run thus stands for the runs of
    its members, with the same moves, events and heaps.  An abstract
    command is the pending `APCom`, run atomically to `Skip`, which blocks
    rather than faults.

    A concrete command is a body under the small-step semantics, where a
    step may fault.  The members of a call m(a) share one command, the
    body at argument a with `r` still free, so the expected returns
    share its steps until a primitive reads `r`: that step runs the
    primitive's instance at the member's value, which the move and any
    fault text name.  Mapping each member (c, v) to (c[r := v], v) is a
    functional simulation (Lynch and Vaandrager, Inf. Comput. 1995) of
    the library with a body per value: `step` commutes with structural
    substitution, and `local` groups members by the instantiated
    primitive.  So a configuration has the moves, events, heaps and
    faults of its image, and the library the runs, histories, least fault
    and counterexample of the per-value one.  Where r := v maps two
    commands of a method onto one, two slots share an image, and more
    configurations are tabulated (and capped by `dom.cap`).

    Slots are interned to small ints, `IDLE` as slot 0, and a
    configuration is the interned flat tuple (heap, slot id of thread 1,
    ..., slot id of thread N); a heap is hash-consed, so it is its own
    identity.  A command steps once per (thread, command, heap), looked
    up once per local table however many members hold it; the
    model's `Semantics` runs a primitive or abstract command once per
    (command, thread, heap), and instantiates a primitive that reads `r`
    at a value only when a step of it fires at that value.  `local` and
    `successors` tabulate once per key.  A call or return's move is its
    event; a silent step's move is (thread, primitive) and its event None.
    `dom.cap` bounds the configurations tabulated.
    """

    def __init__(self, model: LibraryModel, concrete: bool):
        self.model = model
        self.concrete = concrete
        self.slots: List = [IDLE]  # slot id -> slot
        self._slot_ids: Dict = {IDLE: 0}
        # (method, arg, started slot id) per call
        self.calls = tuple(
            (m, a, _index(self._slot_ids, self.slots, (m, members)))
            for m in model.methods()
            for a, members in zip(model.method_args[m], self._starts(m)))
        # (thread, command, heap) -> ((primitive, command', heaps'), ...)
        self._steps: Dict[Tuple[int, Command, Heap], tuple] = {}
        # (thread, slot id, heap) -> ((move, event, slot id, heap), ...)
        self._locals: Dict[Tuple[int, int, Heap], tuple] = {}
        self.ids: Dict[tuple, int] = {}
        self.configs: List[tuple] = []  # id -> key
        self._succ: Dict[int, tuple] = {}  # id -> ((event, id, move), ...)
        heap = model.init_conc if concrete else model.init_abst
        self.start = _index(  # the initial configuration's id
            self.ids, self.configs,
            (heap,) + (0,) * len(model.dom.thread_ids()))

    def _starts(self, m: str) -> List[frozenset]:
        """The members a call m(a) starts, per argument a in order."""
        model, values = self.model, self.model.dom.values
        if not self.concrete:
            return [frozenset((APCom(m, a, v), v) for v in values)
                    for a in model.method_args[m]]
        bodies = [subst(model.body_templates[m], {"a": a})
                  for a in model.method_args[m]]
        return [frozenset((body, v) for v in values) for body in bodies]

    def _step(self, t: int, cmd, heap: Heap) -> tuple:
        """The steps of cmd by thread t at heap as (primitive, command',
        heaps') entries, built on the first call; heaps' is None where the
        primitive reads `r`."""
        steps = self._steps.get((t, cmd, heap))
        if steps is None:
            sem = self.model.sem
            if self.concrete:
                steps = state_step(cmd, lambda alpha: None
                                   if "r" in subst_names(alpha)
                                   else sem.run(alpha, t, heap))
            else:
                steps = ((cmd, SKIP, sem.run(cmd, t, heap)),)
            self._steps[t, cmd, heap] = steps
        return steps

    def local(self, t: int, sid: int, heap: Heap) -> tuple:
        """Thread t's moves from slot sid at heap, as (move, event or None,
        slot id', heap') entries, built on the first call: calls in
        `calls` order, or returns and then the members' steps grouped by
        (primitive, heap'), each distinct command stepped once (and its
        primitive instantiated per member value where it reads `r`).  A
        group that steps into the fault state is the marker (move, None,
        -1, FAULT)."""
        key = (t, sid, heap)
        table = self._locals.get(key)
        if table is not None:
            return table
        slot = self.slots[sid]
        if slot is IDLE:
            table = tuple(((t, "call", m, a),) * 2 + (started, heap)
                          for m, a, started in self.calls)
        else:
            m, members = slot
            values = {}  # command -> the values of the members holding it
            for cmd, v in members:
                values.setdefault(cmd, []).append(v)
            out, groups = [], {}
            sem = self.model.sem
            for cmd, vs in values.items():
                if type(cmd) is Skip:
                    out += [((t, "ret", m, v),) * 2 + (0, heap) for v in vs]
                    continue
                for alpha, cmd2, heaps2 in self._step(t, cmd, heap):
                    if heaps2 is not None:
                        pairs = [(cmd2, v) for v in vs]
                        for heap2 in heaps2:
                            groups.setdefault((alpha, heap2), []).extend(pairs)
                        continue
                    for v in vs:
                        beta = sem.instance(alpha, {"r": v})
                        for heap2 in sem.run(beta, t, heap):
                            groups.setdefault((beta, heap2), []).append(
                                (cmd2, v))
            out.extend(
                ((t, alpha), None, -1 if heap2 is FAULT else _index(
                    self._slot_ids, self.slots, (m, frozenset(group))), heap2)
                for (alpha, heap2), group in groups.items())
            table = tuple(out)
        self._locals[key] = table
        return table

    def successors(self, cid: int) -> tuple:
        """Configuration cid's moves as (event or None, successor id,
        move): its threads' local tables in thread order, built on the
        first call.  A fault marker is (None, -1, move) here: a walk that
        reaches it within its budget raises `_FaultMet`."""
        succ = self._succ.get(cid)
        if succ is None:
            cap = self.model.dom.cap
            if len(self._succ) > cap:
                raise UniverseTooLarge(None, cap, "configuration table",
                                       "configurations")
            key = self.configs[cid]
            heap = key[0]
            out = []
            for t in range(1, len(key)):
                head, tail = key[1:t], key[t + 1:]
                for move, ev, sid2, heap2 in self.local(t, key[t], heap):
                    out.append((None, -1, move) if sid2 < 0 else (ev, _index(
                        self.ids, self.configs,
                        (heap2,) + head + (sid2,) + tail), move))
            succ = self._succ[cid] = tuple(out)
        return succ


class _FaultMet(Exception):
    """A walk reached a fault marker; its caller reports `_least_fault`."""


def _index(ids: dict, items: list, item) -> int:
    """item's index in items, appended on first sight."""
    i = ids.get(item)
    if i is None:
        i = ids[item] = len(items)
        items.append(item)
    return i


def _least_fault(lib: _Library, bound: int) -> Optional[FaultReachable]:
    """The fault of the least faulting run within the bound, or None: least
    by length, then by its moves one by one as text (`render_event`, or
    `t=T primitive` for a step), then by message.  A merged run has the
    faults of each run it stands for, so neither the merging nor any
    iteration order changes it.

    A breadth-first scan, each configuration at its least depth, finds the
    first layer with a fault marker, where a shortest faulting run ends.
    Only then are the layers ranked by the least schedule reaching each
    configuration: (rank of the best parent, move text) keys, with the
    message added for a fault, which is keyed -1."""
    layers, seen, faulty = [[lib.start]], {lib.start}, False
    while not faulty and layers[-1] and len(layers) <= bound:
        layers.append([])
        for cid in layers[-2]:
            for _ev, cid2, _move in lib.successors(cid):
                faulty |= cid2 < 0
                if cid2 >= 0 and cid2 not in seen:
                    seen.add(cid2)
                    layers[-1].append(cid2)
    if not faulty:
        return None
    rank = {lib.start: 0}
    parent = {lib.start: None}  # config id -> (parent id, move) or None
    for layer in layers:
        best = {}  # config id of the next layer, or -1 -> (key, parent, move)
        for cid in layer:
            heap, *sids = lib.configs[cid]
            for _ev, cid2, move in lib.successors(cid):
                key = (rank[cid], render_event(move) if len(move) == 4
                       else f"t={move[0]} {move[1]!r}")
                if cid2 < 0:
                    key += (f"thread {move[0]} faults executing {move[1]!r} "
                            f"in method {lib.slots[sids[move[0] - 1]][0]} "
                            f"at state {heap!r}",)
                if cid2 not in rank and (cid2 not in best
                                         or key < best[cid2][0]):
                    best[cid2] = (key, cid, move)
        if -1 in best:
            key, cid, move = best[-1]
            schedule = [move]
            while parent[cid] is not None:
                cid, move = parent[cid]
                schedule.append(move)
            return FaultReachable(key[2], schedule[::-1])
        ranks = {key: i for i, key in enumerate(
            sorted({key for key, _cid, _move in best.values()}))}
        for cid2, (key, cid, move) in best.items():
            rank[cid2], parent[cid2] = ranks[key], (cid, move)


# ---------------------------------------------------------------------------
# History sets and their inclusion, over frontiers


class _Frontiers:
    """The determinized frontiers of one library, each interned to an int.

    The frontier of a history maps each configuration that some run
    producing exactly that history reaches, within the budget, to the
    largest number of moves such a run leaves, and is closed under silent
    steps.  A configuration with more moves left can do all that it can
    with fewer, so the largest budget is all a frontier keeps (an
    antichain; De Wulf, Doyen, Henzinger and Raskin, CAV 2006).  Frontier
    0 is empty: its history is not one of the library's within the budget.
    Configurations are the library's interned ids; `entries` counts the
    (configuration, budget) entries of every frontier interned.
    """

    def __init__(self, lib: _Library):
        self.lib = lib
        self.cap = lib.model.dom.cap
        self.ids: Dict[frozenset, int] = {}
        self.members: List[frozenset] = []  # id -> {(config id, budget), ...}
        self._next: List[Optional[dict]] = []  # id -> {event: id}
        self.entries = 0
        self._intern({})

    def start(self, budget: int) -> int:
        return self._intern(self._close({self.lib.start: budget}))

    def successors(self, fid: int) -> dict:
        """The frontier after each event the library can do from `fid`,
        computed once per frontier."""
        nxt = self._next[fid]
        if nxt is None:
            lib = self.lib
            by_event: Dict[Event, dict] = {}
            for cid, b in self.members[fid]:
                if b:
                    b -= 1
                    # `_close` has met any fault marker of a member
                    for ev, cid2, _move in lib.successors(cid):
                        if ev is not None:
                            budgets = by_event.setdefault(ev, {})
                            if budgets.get(cid2, -1) < b:
                                budgets[cid2] = b
            nxt = self._next[fid] = {
                ev: self._intern(self._close(budgets))
                for ev, budgets in by_event.items()}
        return nxt

    def _close(self, budgets: dict) -> dict:
        successors = self.lib.successors
        todo = list(budgets.items())
        while todo:
            cid, b = todo.pop()
            # an entry whose budget has since been raised is stale
            if b and budgets[cid] == b:
                b -= 1
                for ev, cid2, _move in successors(cid):
                    if cid2 < 0:
                        raise _FaultMet
                    if ev is None and budgets.get(cid2, -1) < b:
                        budgets[cid2] = b
                        todo.append((cid2, b))
        return budgets

    def _intern(self, budgets: dict) -> int:
        key = frozenset(budgets.items())
        fid = self.ids.get(key)
        if fid is None:
            if len(self.members) > self.cap:
                raise UniverseTooLarge(None, self.cap, "frontier table",
                                       "frontiers")
            fid = self.ids[key] = len(self.members)
            self.members.append(key)
            self._next.append(None)
            self.entries += len(key)
        return fid


def history_walk(model: LibraryModel, bound: int, concrete: bool
                 ) -> Tuple[int, Iterator[History]]:
    """The number of the library's histories within the bound, and an
    iterator over them, shortest first and then by their events as text.

    A history is one path from the start frontier.  Visiting every
    reachable frontier expands every configuration with a move left, as
    `check_linearizable`'s passing walk does, so it meets any fault.  A
    frontier's count is 1 + its successors'; every event lowers the
    largest budget, so frontiers in increasing largest budget come after
    their successors.  The iterator takes each frontier's events in
    `render_event` order, layer by layer, so each layer is in order."""
    lib = _Library(model, concrete)
    front = _Frontiers(lib)
    try:
        start = front.start(bound)
        edges, todo = {}, [start]  # frontier id -> ((event, id'), ...)
        while todo:
            fid = todo.pop()
            if fid not in edges:
                edges[fid] = tuple(sorted(front.successors(fid).items(),
                                          key=lambda e: render_event(e[0])))
                todo.extend(fid2 for _ev, fid2 in edges[fid])
    except _FaultMet:
        raise _least_fault(lib, bound) from None
    count = {}
    for fid in sorted(edges, key=lambda f: max(b for _c, b in
                                                front.members[f])):
        count[fid] = 1 + sum(count[fid2] for _ev, fid2 in edges[fid])

    def walk():
        layer = [((), start)]
        while layer:
            yield from (h for h, _fid in layer)
            layer = [(h + (ev,), fid2) for h, fid in layer
                     for ev, fid2 in edges[fid]]
    return count[start], walk()


def concrete_histories(model: LibraryModel, bound: int) -> frozenset:
    return frozenset(history_walk(model, bound, True)[1])


def abstract_histories(model: LibraryModel, bound: int) -> frozenset:
    return frozenset(history_walk(model, bound, False)[1])


class LinResult(NamedTuple):
    """A `check-lin` outcome: the least missing history, if any; as
    `stats`, the concrete configurations tabulated and the frontiers
    interned for both libraries; and, for a pass only, whether the
    concrete history set at `bound` differs from the one at bound - 1.
    The counts are of `_Library`'s configurations, whose bodies leave `r`
    free: more than per-value bodies make where r := v merges commands."""

    ok: bool
    bound: int
    counterexample: Optional[History]
    stats: Dict[str, int]
    still_growing: bool

    def verdict(self) -> str:
        if self.ok:
            return f"no violation up to bound {self.bound}"
        return "counterexample history found"


def check_linearizable(model: LibraryModel, bound: int) -> LinResult:
    """History inclusion up to the bound, by one breadth-first walk over
    pairs (concrete frontier, abstract frontier) of the same history.  The
    abstract bound equals the concrete one: an abstract run needs at most
    one step per completed call, never more than the concrete run it
    matches.  Each pair keeps the least history that reaches it as a
    parent pointer and takes its events in `render_event` order, so the
    first event the abstract frontier cannot follow ends the least missing
    history, shortest and then least by its events as text.  A passing
    walk visits every concrete frontier: the set still grows if one has no
    budget left.  A fault within the bound is reported, counterexample or
    not, as `_least_fault` finds it: a passing walk expands every
    configuration with a move left, so it meets any such fault.  `dom.cap`
    bounds the configurations and frontiers of each library and the
    entries of both."""
    conc = _Library(model, True)
    front, spec = _Frontiers(conc), _Frontiers(_Library(model, False))
    ce = None
    try:
        pairs = [(front.start(bound), spec.start(bound))]
        parents = {pairs[0]: None}  # pair -> (parent pair, event) or None
        for pair in pairs:
            nxt = front.successors(pair[0])
            anxt = spec.successors(pair[1]) if nxt else {}
            if front.entries + spec.entries > front.cap:
                raise UniverseTooLarge(None, front.cap, "frontier table",
                                       "entries")
            for ev in sorted(nxt, key=render_event):
                if ev not in anxt:
                    ce = [ev]
                    while parents[pair] is not None:
                        pair, ev = parents[pair]
                        ce.append(ev)
                    ce = tuple(reversed(ce))
                    break
                pair2 = (nxt[ev], anxt[ev])
                if pair2 not in parents:
                    parents[pair2] = (pair, ev)
                    pairs.append(pair2)
            if ce is not None:
                break
    except _FaultMet:
        raise _least_fault(conc, bound) from None
    fault = _least_fault(conc, bound) if ce is not None else None
    if fault is not None:
        raise fault
    stats = {"configurations": len(conc._succ),
             "frontiers": len(front.members) + len(spec.members)}
    growing = ce is None and any(
        not any(b for _cid, b in front.members[cf]) for cf, _af in pairs)
    return LinResult(ce is None, bound, ce, stats, growing)


# ---------------------------------------------------------------------------
# The soundness obligations


class ObligationItem(NamedTuple):
    obligation: str
    subject: str
    ok: bool
    detail: str = ""

    def line(self) -> str:
        mark = "pass" if self.ok else "FAIL"
        detail = f": {self.detail}" if self.detail and not self.ok else ""
        return f"[{mark}] {self.obligation} {self.subject}{detail}"


def all_instances(model: LibraryModel) -> List[Tuple[str, int, int, int]]:
    return [
        (m, t, a, r)
        for m in model.methods()
        for t in model.dom.thread_ids()
        for a in model.method_args[m]
        for r in model.dom.values
    ]


def instance_obligations(model: LibraryModel,
                         inst: Tuple[str, int, int, int]
                         ) -> List[ObligationItem]:
    """The obligations of one command instance (method, thread, argument,
    expected return): its outline (1) and the tokens pinned in its pre and
    postcondition (2), in every world each reifies to."""
    m, t, a, r = inst
    mon = model.monoid()
    subject = f"{m}(a={a},r={r}) in thread {t}"
    env = model.assertion_env(t)
    binding = {"a": a, "r": r, "t": t}
    fail = check_proof(env, model.outline_templates[m],
                       model.pre_templates[m], model.post_templates[m],
                       binding)
    items = [ObligationItem("(1) outline", subject, fail is None,
                            str(fail) if fail else "")]
    ap = APCom(m, a, r)
    try:
        pre = env.eval(model.pre_templates[m], binding)
        post = env.eval(model.post_templates[m], binding)
    except RelviewsError as exc:
        items.append(ObligationItem(
            "(2) todo pinned", subject, False,
            f"assertion family not evaluable: {exc}"))
        return items
    todo, done = Token(TODO, ap), Token(DONE, ap)
    bad_pre = [w for w in mon.reify(pre) if w.toks.get(t) != todo]
    items.append(ObligationItem(
        "(2) todo pinned", subject, not bad_pre,
        f"{len(bad_pre)} precondition worlds lack todo({ap!r})"))
    bad_post = [w for w in mon.reify(post) if w.toks.get(t) != done]
    items.append(ObligationItem(
        "(2) done pinned", subject, not bad_post,
        f"{len(bad_post)} postcondition worlds lack done({ap!r})"))
    return items


def check_obligations(model: LibraryModel) -> List[ObligationItem]:
    """Verify the linearizability obligations over the declared domains:
    per-method outlines, token pinning in the pre/post families, the
    token-swap correspondence, and coverage of the initial states by the
    composed preconditions.  One item per obligation checked, in order."""
    mon = model.monoid()
    items = [item for inst in all_instances(model)
             for item in instance_obligations(model, inst)]

    # (3): across every pair of command instances, post and pre views agree
    # up to the thread's token, which keeps its side: each distinct local
    # and shared world is stripped of it, and marked if held, once per thread.
    for t in model.dom.thread_ids():
        env = model.assertion_env(t)
        strip: Dict[World, tuple] = {}
        try:
            views = set()
            for m, a, r in model.dom.apcoms:
                b = {"t": t, "a": a, "r": r}
                for rho in (model.pre_templates[m], model.post_templates[m]):
                    view = set()
                    for l, s, _w in mon.triples(env.eval(rho, b)):
                        for w in (l, s):
                            if w not in strip:
                                strip[w] = (World(w.conc, w.abst,
                                                  w.toks.remove(t)),
                                            t in w.toks)
                        view.add(strip[l] + strip[s])
                    views.add(frozenset(view))
            ok = len(views) <= 1
            detail = "pre/post families differ by more than the thread's token"
        except RelviewsError as exc:
            ok, detail = False, f"assertion family not evaluable: {exc}"
        items.append(ObligationItem("(3) token swap", f"thread {t}", ok,
                                    detail))

    items.append(initial_coverage(model, model.dom.apcoms))
    return items


def initial_coverage(model: LibraryModel, insts: Tuple[APCom, ...]
                     ) -> ObligationItem:
    """The composed per-thread preconditions must describe the declared
    initial states for some choice of pending commands; otherwise the
    linearizability conclusion is vacuous (e.g. two threads both claiming
    the same token or cell).

    The choices are searched depth first over threads 1..N, each thread's
    instances in `insts` order, so combinations come in
    `itertools.product` order.  The search keeps an explicit stack, not a
    recursive closure, so no reference cycle keeps the model's monoid and
    views alive after it returns.  A world fits when it can be part of
    the target: it holds concrete and abstract cells of the initial
    states and only todo tokens, and a chosen thread's token, if it holds
    it, is the todo of the chosen instance.  Each precondition is cut to
    a {shared: locals} dict of the (local, shared) pairs of its triples
    whose world fits; a composed prefix composes locals pairwise under
    each shared state both hold and keeps the results whose world still
    fits (a world fits when its local and its shared part do, as each
    cell and token is tested alone), and a prefix with no pair left is
    dropped.  This is exact for every monoid, as views compose local by
    local over one shared state: a target world splits as
    s + l_1 + ... + l_N, and each l_t + s, a sub-world of the target,
    fits.  The last prefix is not cut: it must hold the target itself.

    Each (thread, instance) precondition is evaluated once, on first use.
    A loaded model's only evaluation error is an unstable precondition,
    which fails the item.  That precondition, under the same thread's env
    and the same binding, already fails obligations (2) and (3), which
    come first in the report: which unstable precondition the search
    meets first, if any, changes this item's line only, not the report's
    verdict or first failure."""
    tids = tuple(model.dom.thread_ids())
    n, k = len(tids), len(insts)
    conc, abst = set(model.init_conc.items()), set(model.init_abst.items())
    todos = [Token(TODO, ap) for ap in insts]

    def fits(w: World, chosen: dict) -> bool:
        return (conc.issuperset(w.conc.items())
                and abst.issuperset(w.abst.items())
                and all(tok.kind == TODO and chosen.get(u, tok) == tok
                        for u, tok in w.toks.items()))

    cut = {}  # (thread index, instance index) -> its cut precondition

    def precondition(d: int, j: int) -> dict:
        if (d, j) not in cut:
            t, (m, a, r) = tids[d], insts[j]
            p = model.assertion_env(t).eval(model.pre_templates[m],
                                            {"t": t, "a": a, "r": r})
            got = cut[d, j] = {}
            chosen = {t: todos[j]}
            for l, s, w in mon.triples(p):
                if fits(w, chosen):
                    got.setdefault(s, set()).add(l)
        return cut[d, j]

    # subtrees still to search, the next on top: (choices, then the
    # composed cut preconditions and the todos of all but the last choice)
    stack = [((j,), None, {}) for j in reversed(range(k))]
    try:
        mon = model.monoid()
        while stack:
            combo, view, chosen = stack.pop()
            d, j = len(combo) - 1, combo[-1]
            chosen = {**chosen, tids[d]: todos[j]}
            p = v = precondition(d, j)
            last = d + 1 == n
            if view is not None:
                v = {}
                for s, ls in view.items():
                    if s in p and (last or fits(s, chosen)):
                        for l1 in ls:
                            for l2 in p[s]:
                                l = compose_worlds(l1, l2)
                                if l is not None and (last or fits(l, chosen)):
                                    v.setdefault(s, set()).add(l)
            if v and not last:
                stack.extend((combo + (j2,), v, chosen)
                             for j2 in reversed(range(k)))
            elif v:
                target = World(model.init_conc, model.init_abst,
                               TokenMap(chosen))
                if any(compose_worlds(l, s) == target
                       for s, ls in v.items() for l in ls):
                    return ObligationItem("initial coverage", "library", True)
    except RelviewsError as exc:
        return ObligationItem("initial coverage", "library", False,
                              f"assertion family not evaluable: {exc}")
    return ObligationItem(
        "initial coverage", "library", False,
        "no choice of pending commands makes the composed preconditions "
        "cover the initial states (token composition undefined or "
        "assertions too strong)")
