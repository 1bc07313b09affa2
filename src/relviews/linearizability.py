"""Library models, bounded history generation and the soundness obligations.

Concrete histories arise from interleaving method bodies under the
small-step semantics with nondeterministically chosen expected return
values; abstract histories run each method as one atomic command.  A
library is linearizable up to a bound when its concrete history set is
included in the abstract one.  The obligations checklist verifies the
hypotheses under which that inclusion holds at every bound: per-method
proof outlines plus token pinning and the token-swap correspondence.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .command_lang import (
    AbstractTable,
    SKIP,
    Command,
    Skip,
    TransformerTable,
    state_step,
)
from .errors import (
    FaultReachable,
    ModelError,
    RelviewsError,
    UniverseTooLarge,
)
from .logic import AssertionEnv, OutlineNode, ProofOutline, check_proof
from .monoid_dcsl import DcslMonoid
from .monoid_rgsep import RgsepMonoid
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
)
from .vassn import VAssn
from .views_core import Semantics, ViewMonoid

Event = Tuple[int, str, str, int]  # (thread, "call"|"ret", method, value)
History = Tuple[Event, ...]

IDLE = None


@dataclass
class LibraryModel:
    """A fully instantiated model: everything downstream checks consume."""

    name: str
    monoid_kind: str  # "dcsl" | "rgsep"
    dom: Domains
    ctable: TransformerTable
    atable: AbstractTable
    init_conc: Heap
    init_abst: Heap
    method_args: Dict[str, Tuple[int, ...]]
    bodies: Dict[Tuple[str, int, int], Command]
    body_templates: Dict[str, Command]  # as parsed, before instantiation
    # proof data (optional)
    pre_templates: Dict[str, VAssn] = field(default_factory=dict)
    post_templates: Dict[str, VAssn] = field(default_factory=dict)
    outline_templates: Dict[str, OutlineNode] = field(default_factory=dict)
    actions: Dict[str, Tuple[VAssn, VAssn]] = field(default_factory=dict)
    guarantee_names: Tuple[str, ...] = ()
    rely_extra_names: Tuple[str, ...] = ()
    shared_universe_assn: Optional[VAssn] = None
    macros_raw: Dict[str, dict] = field(default_factory=dict)

    def __post_init__(self):
        self._monoid = None
        self._envs: Dict[int, AssertionEnv] = {}

    def semantics(self) -> Semantics:
        return Semantics(self.ctable, self.atable, self.dom.modulus)

    def methods(self) -> Tuple[str, ...]:
        return tuple(sorted(self.method_args))

    def body(self, m: str, a: int, r: int) -> Command:
        key = (m, a, r)
        if key not in self.bodies:
            raise ModelError(f"no body for {m}({a})->{r}")
        return self.bodies[key]

    def monoid(self):
        """The model's view monoid, built on the first call; `dom.cap`
        bounds its shared universe (RGSep) or frame universe (DCSL)."""
        if self._monoid is None:
            sem = self.semantics()
            if self.monoid_kind == "dcsl":
                self._monoid = DcslMonoid(self.dom, sem)
            elif self.monoid_kind == "rgsep":
                universe = None
                if self.shared_universe_assn is not None:
                    universe = ViewMonoid(self.dom, sem).fragments(
                        self.shared_universe_assn, {})
                    if not universe:
                        raise ModelError("declared shared universe is empty")
                    if len(universe) > self.dom.cap:
                        raise UniverseTooLarge(len(universe), self.dom.cap)
                self._monoid = RgsepMonoid(
                    self.dom, sem, universe, self.actions,
                    self.guarantee_names, self.rely_extra_names)
            else:
                raise ModelError(f"unknown monoid {self.monoid_kind!r}")
        return self._monoid

    def assertion_env(self, t: int) -> AssertionEnv:
        """Thread t's env, one per thread, so its eval memo is shared by
        every check of the model."""
        env = self._envs.get(t)
        if env is None:
            env = self._envs[t] = AssertionEnv(self.monoid(), t)
        return env

    def pre_assertion(self, m: str) -> VAssn:
        """Method m's precondition family, over the instance's t, a, r."""
        if m not in self.pre_templates:
            raise ModelError(f"method {m!r} declares no precondition family")
        return self.pre_templates[m]

    def post_assertion(self, m: str) -> VAssn:
        """Method m's postcondition family, over the instance's t, a, r."""
        if m not in self.post_templates:
            raise ModelError(f"method {m!r} declares no postcondition family")
        return self.post_templates[m]

    def outline(self, m: str, t: int, a: int, r: int) -> ProofOutline:
        if m not in self.outline_templates:
            raise ModelError(f"method {m!r} has no proof outline")
        return ProofOutline(
            thread=t,
            pre=self.pre_assertion(m),
            body=self.outline_templates[m],
            post=self.post_assertion(m),
            binding=(("a", a), ("r", r), ("t", t)),
        )


# ---------------------------------------------------------------------------
# History generation


def render_event(ev: Event) -> str:
    t, kind, m, v = ev
    return f"t={t} {kind} {m}({v})"


def render_history(h: History) -> str:
    if not h:
        return "ε"
    return "\n".join(render_event(ev) for ev in h)


def history_sort_key(h: History):
    return (len(h), tuple(render_event(ev) for ev in h))


class _Library:
    """One library's moves, over configurations interned to ints.

    A configuration is a pool of per-thread slots, each idle or a running
    (method, command, expected return), plus a heap.  A call starts a
    command in an idle slot, a running command takes silent steps, and a
    `Skip` command returns.  The two libraries differ only in the command
    a call starts and in how it steps: a concrete body runs under the
    small-step semantics, where a step may fault; an abstract method is
    its pending `APCom`, run atomically to `Skip`, and blocks rather than
    faults.

    Slots and heaps are interned to small ints, `IDLE` as slot 0, and a
    configuration's key is the flat tuple (heap id, slot id of thread 1,
    ..., slot id of thread N), so hashing a key hashes ints only.  Each
    thread's local moves are tabulated once per (thread, slot id, heap id)
    as (move, event or None, slot id', heap id') entries; a configuration's
    successor table splices one entry's slot id' and heap id' into its key,
    and is built once, so the frontier walk and the fault search of one
    check share it.  A call or return's move is its event; a silent step's move
    is (thread, primitive) and its event None.
    """

    def __init__(self, model: LibraryModel, concrete: bool):
        self.model = model
        self.concrete = concrete
        self.slots: List = [IDLE]  # slot id -> slot
        self._slot_ids: Dict = {IDLE: 0}
        self.heaps: List[Heap] = []  # heap id -> heap
        self._heap_ids: Dict[Heap, int] = {}
        # (method, arg, started slot id) per call
        self.calls = tuple(
            (m, a, _index(self._slot_ids, self.slots, (
                m, model.body(m, a, v) if concrete else APCom(m, a, v), v)))
            for m in model.methods() for a in model.method_args[m]
            for v in model.dom.values)
        # (thread, slot id, heap id) -> ((move, event, slot id, heap id), ...)
        self._locals: Dict[Tuple[int, int, int], tuple] = {}
        self.ids: Dict[Tuple[int, ...], int] = {}
        self.configs: List[Tuple[int, ...]] = []  # id -> key
        self._succ: Dict[int, tuple] = {}  # id -> ((event, id), ...)
        heap = model.init_conc if concrete else model.init_abst
        self._start = _index(
            self.ids, self.configs,
            (_index(self._heap_ids, self.heaps, heap),)
            + (0,) * len(model.dom.thread_ids()))

    def start(self) -> int:
        """The initial configuration's id."""
        return self._start

    def _local(self, t: int, sid: int, hid: int) -> tuple:
        """Thread t's moves from slot sid at heap hid, as (move, event or
        None, slot id', heap id') entries, built on the first call: calls
        in `calls` order, a return, or silent steps in `state_step` order.
        A step into the fault state ends the table as (move, None, -1,
        -1)."""
        key = (t, sid, hid)
        table = self._locals.get(key)
        if table is not None:
            return table
        slot = self.slots[sid]
        if slot is IDLE:
            table = tuple(((t, "call", m, a),) * 2 + (started, hid)
                          for m, a, started in self.calls)
        elif isinstance(slot[1], Skip):
            ev = (t, "ret", slot[0], slot[2])
            table = ((ev, ev, 0, hid),)
        else:
            m, cmd, v = slot
            model = self.model
            heap = self.heaps[hid]
            if self.concrete:
                steps = state_step(cmd, heap, t, model.ctable,
                                   model.dom.modulus)
            else:
                steps = ((cmd, SKIP, heap2) for heap2 in model.atable.apply(
                    *cmd, t, heap, model.dom.modulus))
            out = []
            for alpha, cmd2, heap2 in steps:
                if heap2 is FAULT:
                    out.append(((t, alpha), None, -1, -1))
                    break
                out.append(((t, alpha), None,
                            _index(self._slot_ids, self.slots, (m, cmd2, v)),
                            _index(self._heap_ids, self.heaps, heap2)))
            table = tuple(out)
        self._locals[key] = table
        return table

    def successors(self, cid: int) -> tuple:
        """Configuration cid's moves as (event or None, successor id): its
        threads' local tables in thread order, built on the first call.  A
        step into the fault state ends the table as `_FAULT_STEP`: whoever
        reaches it raises `fault(cid)`."""
        succ = self._succ.get(cid)
        if succ is None:
            key = self.configs[cid]
            hid = key[0]
            out = []
            for t in range(1, len(key)):
                head, tail = key[1:t], key[t + 1:]
                for _move, ev, sid2, hid2 in self._local(t, key[t], hid):
                    out.append(_FAULT_STEP if sid2 < 0 else (ev, _index(
                        self.ids, self.configs,
                        (hid2,) + head + (sid2,) + tail)))
                # a fault marker ends its local table and this one
                if out and out[-1] is _FAULT_STEP:
                    break
            succ = self._succ[cid] = tuple(out)
        return succ

    def move(self, cid: int, i: int):
        """The move behind entry i of cid's successor table."""
        key = self.configs[cid]
        entries = itertools.chain.from_iterable(
            self._local(t, key[t], key[0]) for t in range(1, len(key)))
        return next(itertools.islice(entries, i, None))[0]

    def fault(self, cid: int) -> FaultReachable:
        """The fault that ends cid's table, its schedule that one step."""
        key = self.configs[cid]
        pool = tuple(self.slots[sid] for sid in key[1:])
        move = self.move(cid, len(self.successors(cid)) - 1)
        return _fault(pool, self.heaps[key[0]], move)


# a successor-table entry: the configuration's next move faults
_FAULT_STEP = (None, -1)


def _index(ids: dict, items: list, item) -> int:
    """item's index in items, appended on first sight."""
    i = ids.get(item)
    if i is None:
        i = ids[item] = len(items)
        items.append(item)
    return i


def _fault(pool: tuple, heap: Heap, move) -> FaultReachable:
    t, alpha = move
    return FaultReachable(
        f"thread {t} faults executing {alpha!r} in method "
        f"{pool[t - 1][0]} at state {heap!r}", [move])


def _histories(lib: _Library, n: int, cid: int, memo: dict) -> frozenset:
    """The histories of configuration cid within n moves: the call and
    return events of its runs, memoized on (moves left, configuration id).
    Every level contributes the empty history, so level n holds all depths
    up to n; the sets are prefix-closed and monotone in the bound.  A fault
    raises with the schedule that reaches it, as in `_first_fault`."""
    key = (n, cid)
    hit = memo.get(key)
    if hit is not None:
        return hit
    cap = lib.model.dom.cap
    if len(memo) > cap:
        # how far past the cap the memo has grown depends on the
        # exploration order, so the message does not say
        raise UniverseTooLarge(None, cap, "history memo", "entries")
    out = {()}
    if n > 0:
        for i, (ev, cid2) in enumerate(lib.successors(cid)):
            if cid2 < 0:
                raise lib.fault(cid)
            try:
                sub = _histories(lib, n - 1, cid2, memo)
            except FaultReachable as exc:
                exc.schedule.insert(0, lib.move(cid, i))
                raise
            out.update(sub if ev is None else ((ev,) + h for h in sub))
    result = memo[key] = frozenset(out)
    return result


def concrete_histories(model: LibraryModel, bound: int) -> frozenset:
    lib = _Library(model, True)
    return _histories(lib, bound, lib.start(), {})


def abstract_histories(model: LibraryModel, bound: int) -> frozenset:
    lib = _Library(model, False)
    return _histories(lib, bound, lib.start(), {})


# ---------------------------------------------------------------------------
# History inclusion over pairs of frontiers


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
        return self._intern(self._close({self.lib.start(): budget}))

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
                    for ev, cid2 in lib.successors(cid):
                        if cid2 < 0:
                            raise lib.fault(cid)
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
                for ev, cid2 in successors(cid):
                    if cid2 < 0:
                        raise self.lib.fault(cid)
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


def _fault_within(lib: _Library, n: int) -> bool:
    """Whether a configuration reachable within n moves steps into the
    fault state: a breadth-first scan, each configuration at its least
    depth."""
    seen, layer = set(), {lib.start()}
    for _depth in range(n + 1):
        seen |= layer
        nxt = {cid2 for cid in layer for _ev, cid2 in lib.successors(cid)}
        if _FAULT_STEP[1] in nxt:
            return True
        layer = nxt - seen
    return False


def _first_fault(lib: _Library, bound: int) -> FaultReachable:
    """The first fault of a depth-first search over (moves left,
    configuration) that takes successors in table order, as `_histories`
    does, with the moves its stack took as the schedule; a fault must lie
    within the bound.  It skips a configuration searched to the end with
    at least as many moves left.  A frame is [config id, moves left,
    entries taken]."""
    done: Dict[int, int] = {}  # config id -> most moves left, searched
    stack = [[lib.start(), bound, 0]]
    while True:
        frame = stack[-1]
        cid, k, i = frame
        table = lib.successors(cid)
        if i == len(table):
            done[cid] = max(k, done.get(cid, 0))
            stack.pop()
            continue
        frame[2] = i + 1
        cid2 = table[i][1]
        if cid2 < 0:
            fault = lib.fault(cid)
            fault.schedule[:0] = [lib.move(f[0], f[2] - 1)
                                  for f in stack[:-1]]
            return fault
        if k > 1 and done.get(cid2, 0) < k - 1:
            stack.append([cid2, k - 1, 0])


@dataclass
class LinResult:
    """A `check-lin` outcome: the least missing history, if any; as
    `stats`, the concrete configurations tabulated and the frontiers
    interned for both libraries; and, for a pass only, whether the
    concrete history set at `bound` differs from the one at bound - 1."""

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
    history under `history_sort_key`.  A passing walk visits every
    concrete frontier: the set still grows if one has no budget left.  A
    fault within the bound is reported, counterexample or not, as
    `_first_fault` finds it.  `dom.cap` bounds the frontiers of each
    library and the entries of both."""
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
    except FaultReachable:
        raise _first_fault(conc, bound) from None
    if ce is not None and _fault_within(conc, bound - 1):
        raise _first_fault(conc, bound)
    stats = {"configurations": len(conc._succ),
             "frontiers": len(front.members) + len(spec.members)}
    growing = ce is None and any(
        not any(b for _cid, b in front.members[cf]) for cf, _af in pairs)
    return LinResult(ce is None, bound, ce, stats, growing)


# ---------------------------------------------------------------------------
# The soundness obligations


@dataclass
class ObligationItem:
    obligation: str
    subject: str
    ok: bool
    detail: str = ""

    def line(self) -> str:
        mark = "pass" if self.ok else "FAIL"
        detail = f": {self.detail}" if self.detail and not self.ok else ""
        return f"[{mark}] {self.obligation} {self.subject}{detail}"


@dataclass
class ObligationReport:
    items: List[ObligationItem]

    @property
    def ok(self) -> bool:
        return all(it.ok for it in self.items)

    def first_failure(self) -> Optional[ObligationItem]:
        for it in self.items:
            if not it.ok:
                return it
        return None


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
    postcondition (2)."""
    m, t, a, r = inst
    mon = model.monoid()
    subject = f"{m}(a={a},r={r}) in thread {t}"
    env = model.assertion_env(t)
    outline = model.outline(m, t, a, r)
    fail = check_proof(outline, env)
    items = [ObligationItem("(1) outline", subject, fail is None,
                            str(fail) if fail else "")]
    ap = APCom(m, a, r)
    try:
        pre = env.eval(outline.pre, dict(outline.binding))
        post = env.eval(outline.post, dict(outline.binding))
    except RelviewsError as exc:
        items.append(ObligationItem(
            "(2) todo pinned", subject, False,
            f"assertion family not evaluable: {exc}"))
        return items
    bad_pre = [w for w in mon.reified_token_worlds(pre)
               if w.toks.get(t) != Token(TODO, ap)]
    items.append(ObligationItem(
        "(2) todo pinned", subject, not bad_pre,
        f"{len(bad_pre)} precondition worlds lack todo({ap!r})"))
    bad_post = [w for w in mon.reified_token_worlds(post)
                if w.toks.get(t) != Token(DONE, ap)]
    items.append(ObligationItem(
        "(2) done pinned", subject, not bad_post,
        f"{len(bad_post)} postcondition worlds lack done({ap!r})"))
    return items


def check_obligations(model: LibraryModel) -> ObligationReport:
    """Verify the linearizability obligations over the declared domains:
    per-method outlines, token pinning in the pre/post families, the
    token-swap correspondence, and coverage of the initial states by the
    composed preconditions."""
    mon = model.monoid()
    methods = model.methods()
    missing = [m for m in methods if m not in model.atable.methods]
    items = [ObligationItem("dom(concrete)=dom(abstract)", "library",
                            not missing, f"abstract methods missing: {missing}")]

    for inst in all_instances(model):
        items.extend(instance_obligations(model, inst))

    # (3): across every pair of command instances, post and pre states agree
    # up to the thread's token.
    insts = [(m, a, r) for m in methods for a in model.method_args[m]
             for r in model.dom.values]
    for t in model.dom.thread_ids():
        env = model.assertion_env(t)
        try:
            stripped = {}
            for m, a, r in insts:
                b = {"t": t, "a": a, "r": r}
                p = env.eval(model.pre_assertion(m), b)
                q = env.eval(model.post_assertion(m), b)
                stripped[("P", m, a, r)] = mon.strip_token_set(p, t)
                stripped[("Q", m, a, r)] = mon.strip_token_set(q, t)
            base = stripped[("P", *insts[0])]
            ok = all(stripped[("P", *i)] == base for i in insts) and all(
                stripped[("Q", *i)] == base for i in insts)
            detail = "pre/post families differ by more than the thread's token"
        except RelviewsError as exc:
            ok, detail = False, f"assertion family not evaluable: {exc}"
        items.append(ObligationItem("(3) token swap", f"thread {t}", ok,
                                    detail))

    try:
        items.append(_initial_coverage(model, insts))
    except RelviewsError as exc:
        items.append(ObligationItem(
            "initial coverage", "library", False,
            f"assertion family not evaluable: {exc}"))
    return ObligationReport(items)


def _initial_coverage(model: LibraryModel, insts) -> ObligationItem:
    """The composed per-thread preconditions must describe the declared
    initial states for some choice of pending commands; otherwise the
    linearizability conclusion is vacuous (e.g. two threads both claiming
    the same token or cell)."""
    mon = model.monoid()
    tids = list(model.dom.thread_ids())
    for combo in itertools.product(insts, repeat=len(tids)):
        view = None
        for t, (m, a, r) in zip(tids, combo):
            env = model.assertion_env(t)
            p = env.eval(model.pre_assertion(m), {"t": t, "a": a, "r": r})
            view = p if view is None else mon.compose(view, p)
        toks = TokenMap({t: Token(TODO, APCom(*inst))
                         for t, inst in zip(tids, combo)})
        target = World(model.init_conc, model.init_abst, toks)
        if target in mon.reify(view):
            return ObligationItem("initial coverage", "library", True)
    return ObligationItem(
        "initial coverage", "library", False,
        "no choice of pending commands makes the composed preconditions "
        "cover the initial states (token composition undefined or "
        "assertions too strong)")
