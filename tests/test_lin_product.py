"""`check_linearizable`'s walk over frontier pairs and the shipped history
sets against the test-only `oracles._HistoryGen`.

The walk's oracle, `oracles.lin_by_history_sets`, builds the concrete and
abstract history sets with `_HistoryGen` and compares them.  Both must
give the same least counterexample, the same growth flag on a pass, and
the same error type and message, and for a fault the same schedule.
`concrete_histories`/`abstract_histories` must give `_HistoryGen`'s sets,
or the same error, message and schedule, and `history_walk` must count
each set and list it in `history_sort_key` order.  The fault reported is
`oracles.least_fault`, the least faulting run over unmerged
configurations, which no iteration order may change; CI runs this module
under a second `PYTHONHASHSEED`.  A capped run must either end in a cap
error that names its cap or agree with the oracle run without a cap.
"""

import copy
import json
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings

from families import flat_combiner
from oracles import (
    PerValueLibrary,
    _HistoryGen,
    heap_steps,
    history_sort_key,
    instance_body,
    lin_by_history_sets,
    per_member_local,
    per_value_stepping,
)
from relviews import linearizability
from relviews.command_lang import PrimCommand, Skip, state_step
from relviews.errors import FaultReachable, RelviewsError, UniverseTooLarge
from relviews.linearizability import (
    IDLE,
    Semantics,
    _Library,
    abstract_histories,
    check_linearizable,
    concrete_histories,
    history_walk,
)
from relviews.model_io import load_model, parse_model
from relviews.state_model import FAULT, APCom
from relviews.subst import subst, subst_names
from util import fixture_manifest, tiny_model_docs

FIX = "src/relviews/fixtures"
GHOSTS = ("ghost-concrete", "ghost-both")


def _ghost_doc(abstract_too):
    """atomic-inc with a ghost cell that the increment writes but that is
    never initialized, on the concrete side only or on both."""
    doc = json.load(open(f"{FIX}/atomic-inc/model.json"))
    doc["domains"]["locations"]["ghost"] = [0]
    doc["primitives"]["inc_atomic"]["updates"].append(["ghost", 0])
    if abstract_too:
        doc["domains"]["abstract_locations"]["GHOST"] = [0]
        doc["abstract"]["inc"]["updates"].append(["GHOST", 0])
    return doc


def _late_fault_doc():
    """One thread of atomic-inc whose abstract command never returns, and
    whose body writes an uninitialized cell once the counter is 1: the
    fault lies past the first missing history, so only an exploration
    that goes on under an empty frontier finds it (from bound 12 on)."""
    doc = json.load(open(f"{FIX}/atomic-inc/model.json"))
    doc["domains"]["threads"] = 1
    doc["domains"]["locations"]["ghost"] = [0]
    doc["methods"]["inc"]["body"] = [
        "seq", ["if", ["==", ["read", "k"], 1], ["store", "ghost", 0],
                ["skip"]],
        ["prim", "inc_atomic", ["var", "a"], ["var", "r"]]]
    doc["abstract"]["inc"]["guard"] = ["==", 0, 1]
    return doc


def _model(name):
    if name in GHOSTS:
        return parse_model(_ghost_doc(name == "ghost-both"))
    if name == "late-fault":
        return parse_model(_late_fault_doc())
    return load_model(f"{FIX}/{name}/model.json")


def _outcome(decide):
    """(least counterexample, growth flag on a pass), or the error's type,
    message and, for a fault, schedule."""
    try:
        ce, growing = decide()
    except RelviewsError as exc:
        return type(exc), str(exc), getattr(exc, "schedule", None)
    return ce, growing if ce is None else None


def _capped(model, cap):
    if cap is None:
        return model
    capped = copy.copy(model)
    capped.dom = model.dom._replace(cap=cap)
    return capped


def _assert_capped_agrees(got, cap, want):
    """`got` is a run's outcome under `cap`: a cap error must name that
    cap, and anything else must equal `want()`, the oracle's outcome
    without a cap."""
    if cap is not None and isinstance(got, tuple) and \
            got[0] is UniverseTooLarge:
        assert f" exceeds cap {cap};" in got[1]
    else:
        assert got == want()


def _lin_check(model, bound):
    res = check_linearizable(model, bound)
    return res.counterexample, res.still_growing


def _assert_agrees(model, bound, cap=None):
    """The walk on `model` under `cap` against the oracle on `model`."""
    _assert_capped_agrees(
        _outcome(lambda: _lin_check(_capped(model, cap), bound)), cap,
        lambda: _outcome(lambda: lin_by_history_sets(model, bound)))


CASES = [
    *((f.name, b, None) for f in fixture_manifest() for b in range(11)),
    *((name, b, None) for name in ("flat-combiner-nolock",
                                   "flat-combiner-stale",
                                   "flat-combiner-noaction4",
                                   "flat-combiner-valueret", "atomic-inc")
      for b in range(11, 15)),
    *((name, b, None) for name in GHOSTS for b in range(9)),
    *(("late-fault", b, None) for b in range(6, 14)),
    *((name, 8, cap) for name in ("flat-combiner", "atomic-inc")
      for cap in (5, 100, 1000)),
]


@pytest.mark.parametrize("name,bound,cap", CASES,
                         ids=lambda v: "-" if v is None else str(v))
def test_product_equals_the_history_sets(name, bound, cap):
    _assert_agrees(_model(name), bound, cap)


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=tiny_model_docs())
def test_product_equals_the_history_sets_on_generated_models(doc):
    model = parse_model(doc)
    for bound in range(7):
        _assert_agrees(model, bound)


def _history_set(histories):
    """The history set, or the error's type, message and, for a fault,
    schedule."""
    try:
        return histories()
    except RelviewsError as exc:
        return type(exc), str(exc), getattr(exc, "schedule", None)


def _assert_histories_agree(model, bound, cap=None):
    """The shipped sets under `cap` against the oracle's; when a set is
    built, `history_walk` must also count it and yield it in
    `history_sort_key` order, each history once."""
    for shipped, side in ((concrete_histories, "concrete"),
                          (abstract_histories, "abstract")):
        got = _history_set(lambda: shipped(_capped(model, cap), bound))
        _assert_capped_agrees(
            got, cap, lambda: _history_set(
                lambda: getattr(_HistoryGen(model), side)(bound)))
        if isinstance(got, frozenset):
            count, walk = history_walk(_capped(model, cap), bound,
                                       side == "concrete")
            assert list(walk) == sorted(got, key=history_sort_key)
            assert count == len(got)


# (model, largest bound, cap): every bound from 0 up is checked
HISTORY_CASES = [
    *((f.name, 10, cap) for f in fixture_manifest()
      for cap in (None, 50, 500)),
    *((name, 11, None) for name in (*GHOSTS, "late-fault")),
]


@pytest.mark.parametrize("name,top,cap", HISTORY_CASES,
                         ids=lambda v: "-" if v is None else str(v))
def test_histories_equal_the_generator(name, top, cap):
    model = _model(name)
    for bound in range(top + 1):
        _assert_histories_agree(model, bound, cap)


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=tiny_model_docs())
def test_histories_equal_the_generator_on_generated_models(doc):
    model = parse_model(doc)
    for bound in range(7):
        _assert_histories_agree(model, bound)


@pytest.mark.parametrize("run", [check_linearizable, concrete_histories])
def test_fault_schedule_replays_to_the_fault(run):
    model = _model("ghost-concrete")
    with pytest.raises(FaultReachable) as info:
        run(model, 4)
    schedule = info.value.schedule
    assert schedule and not isinstance(schedule[-1][1], str)
    # A call event does not name the expected return, so replay every
    # configuration the schedule allows.
    configs = {(tuple(IDLE for _ in model.dom.thread_ids()),
                model.init_conc)}
    for i, move in enumerate(schedule):
        last = i == len(schedule) - 1
        out = set()
        for pool, heap in configs:
            if len(move) == 4:
                t, kind, m, v = move
                slot = pool[t - 1]
                if kind == "call" and slot is IDLE:
                    out.update((_put(pool, t, (m, instance_body(
                        model, m, v, r), r)), heap) for r in model.dom.values)
                elif kind == "ret" and slot is not IDLE and \
                        isinstance(slot[1], Skip) and slot[2] == v:
                    out.add((_put(pool, t, IDLE), heap))
                continue
            t, alpha = move
            slot = pool[t - 1]
            if slot is IDLE:
                continue
            m, cmd, r = slot
            for alpha2, cmd2, heap2 in heap_steps(cmd, heap, t, model.sem):
                if alpha2 == alpha and (heap2 is FAULT) == last:
                    out.add((_put(pool, t, (m, cmd2, r)), heap2))
        assert out, f"move {i} of the schedule cannot be replayed"
        configs = out
    assert all(heap is FAULT for _pool, heap in configs)


def _put(pool, t, slot):
    return pool[:t - 1] + (slot,) + pool[t:]


# (configurations, frontiers) of each fixture at bounds 0..12, pinned: the
# concrete configurations whose moves the check tabulates and the
# frontiers it interns on both sides must stay as they are.
STATS = {
    "atomic-inc": [(0, 4), (1, 8), (3, 10), (6, 12), (9, 16), (13, 22),
                   (18, 28), (23, 32), (29, 42), (36, 52), (43, 56), (51, 70),
                   (60, 84)],
    "dcsl-cell": [(0, 4), (1, 8), (3, 8), (5, 8), (7, 8), (9, 12), (10, 20),
                  (12, 20), (12, 20), (12, 20), (12, 24), (12, 32), (12, 32)],
    "dcsl-helping": [(0, 4), (1, 8), (3, 10), (6, 12), (8, 16), (9, 18),
                     (9, 20), (9, 24), (9, 26), (9, 28), (9, 32), (9, 34),
                     (9, 36)],
    "flat-combiner": [(0, 4), (1, 12), (5, 20), (13, 22), (25, 22), (41, 22),
                      (61, 22), (85, 22), (117, 22), (154, 23), (192, 35),
                      (229, 45), (265, 47)],
    "flat-combiner-noaction4": [(0, 4), (1, 12), (5, 20), (13, 22), (25, 22),
                                (41, 22), (61, 22), (85, 22), (117, 22),
                                (154, 23), (192, 35), (229, 45), (265, 47)],
    "flat-combiner-nolock": [(0, 4), (1, 8), (3, 10), (6, 11), (10, 11),
                             (15, 11), (21, 11), (28, 11), (36, 11), (47, 11),
                             (61, 11), (76, 12), (91, 12)],
    "flat-combiner-stale": [(0, 4), (1, 6), (2, 6), (3, 6), (4, 6), (5, 6),
                            (6, 6), (7, 6), (8, 6), (9, 6), (10, 6), (11, 6),
                            (12, 6)],
    "flat-combiner-valueret": [(0, 4), (1, 8), (3, 10), (6, 11), (10, 11),
                               (15, 11), (21, 11), (28, 11), (36, 11),
                               (45, 11), (55, 11), (66, 11), (79, 11)],
}


def test_pinned_stats_cover_every_fixture():
    assert sorted(STATS) == sorted(f.name for f in fixture_manifest())


@pytest.mark.parametrize("name", sorted(STATS))
def test_stats_are_pinned(name):
    model = _model(name)
    got = [check_linearizable(model, bound).stats
           for bound in range(len(STATS[name]))]
    assert [(s["configurations"], s["frontiers"]) for s in got] == \
        STATS[name]


@pytest.mark.parametrize("name", sorted(STATS))
def test_moves_are_generated_once_per_configuration(name, monkeypatch):
    """A call's expected returns share its body until a primitive reads
    `r`, and each piece of work is done once per key: the concrete
    library builds one step table (one `state_step` call) per (thread,
    command, heap), runs a primitive once per (primitive, thread, heap)
    and instantiates a primitive only if it reads `r`, at most once per
    value; the abstract library runs an abstract command once per
    (command, heap, thread); and each library builds a configuration's
    successor table once, so every request for it returns the same
    table."""
    tables, runs, instances = Counter(), Counter(), Counter()
    model = _model(name)
    stepping = []  # the (library, thread, command, heap) being tabulated
    original_step = _Library._step

    def tracking_step(self, t, cmd, heap):
        stepping.append((id(self), t, cmd, heap))
        try:
            return original_step(self, t, cmd, heap)
        finally:
            stepping.pop()

    def counting_state_step(cmd, apply):
        tables[stepping[-1]] += 1
        return state_step(cmd, apply)

    original_run = Semantics.run

    def counting_run(self, alpha, t, heap):
        if (alpha, t, heap) not in self._runs:  # run, not looked up
            side = "abstract" if type(alpha) is APCom else "concrete"
            runs[(side, alpha, heap, t)] += 1
        return original_run(self, alpha, t, heap)

    def counting_subst(node, binding):
        if isinstance(node, PrimCommand):  # not a body
            instances[node, tuple(binding.items())] += 1
        return subst(node, binding)

    succ_tables = {}
    libs = {}
    original_successors = _Library.successors

    def recording(self, cid):
        succ = original_successors(self, cid)
        libs[id(self)] = self
        assert succ_tables.setdefault((id(self), cid), succ) is succ
        return succ

    monkeypatch.setattr(_Library, "_step", tracking_step)
    monkeypatch.setattr(linearizability, "state_step", counting_state_step)
    monkeypatch.setattr(Semantics, "run", counting_run)
    monkeypatch.setattr(linearizability, "subst", counting_subst)
    monkeypatch.setattr(_Library, "successors", recording)
    check_linearizable(model, 12)
    assert tables and max(tables.values()) == 1
    assert max(runs.values()) == 1
    assert {side for side, *_ in runs} == {"concrete", "abstract"}
    # a primitive that reads no `r` is never substituted, and one that
    # reads `r` at most once per value
    for (prim, ((var, _v),)), n in instances.items():
        assert (var, n) == ("r", 1) and "r" in subst_names(prim)
    # one library per side: the walk, its growth test and the fault scan
    # read the same concrete tables
    assert sorted(lib.concrete for lib in libs.values()) == [False, True]


# ---------------------------------------------------------------------------
# Shared bodies against per-value stepping


def _twin_doc(doc, method):
    """The model with a choice between `assume 0 == 0` and its twin
    `assume r == 0` put first in the method's body: r := 0 maps the two
    branches onto one command."""
    doc = json.loads(json.dumps(doc))
    doc["methods"][method]["body"] = [
        "seq", ["choice", ["assume", ["==", 0, 0]],
                ["assume", ["==", ["var", "r"], 0]]],
        doc["methods"][method]["body"]]
    return doc


def _cross_argument_twin_doc():
    """One thread and one method whose two arguments' bodies are each
    injective under r := v, though not together: at r = 1 the instance
    `store x (r + 0)` of op(0) is the `store x (1 + 0)` of op(1), so the
    two calls reach slots that are one slot per value (0 is an argument
    but not a value)."""
    return {
        "name": "cross-argument-twin",
        "monoid": "rgsep",
        "domains": {"values": [1, 2], "modulus": 3, "threads": 1,
                    "locations": {"x": [0, 1, 2]},
                    "abstract_locations": {"X": [0, 1, 2]}},
        "methods": {"op": {"args": [0, 1], "body": [
            "seq", ["assume", ["<", ["var", "r"], 2]],
            ["choice",
             ["seq", ["assume", ["==", ["var", "a"], 1]],
              ["store", "x", ["+", ["var", "a"], 0]]],
             ["seq", ["assume", ["==", ["var", "a"], 0]],
              ["store", "x", ["+", ["var", "r"], ["var", "a"]]]]]]}},
        "abstract": {"op": {"updates": [["X", ["var", "r"]]]}},
        "initial": {"concrete": {"x": 0}, "abstract": {"X": 0}},
    }


def _twin_paths_doc():
    """One thread and one method whose body has two paths, one ending in
    `assume 0 == 0` and one in its twin `assume r == 0`: after `assume r <
    1` leaves only r = 0, the paths' stores differ as moves but not in the
    heap they leave, so they reach two slots that are one slot per
    value."""
    return {
        "name": "twin-paths",
        "monoid": "rgsep",
        "domains": {"values": [0, 1], "modulus": 2, "threads": 1,
                    "locations": {"x": [0, 1]},
                    "abstract_locations": {"X": [0, 1]}},
        "methods": {"op": {"args": [0], "body": [
            "seq", ["assume", ["<", ["var", "r"], 1]],
            ["choice",
             ["seq", ["store", "x", 1], ["assume", ["==", 0, 0]]],
             ["seq", ["store", "x", ["+", 0, 1]],
              ["assume", ["==", ["var", "r"], 0]]]]]}},
        "abstract": {"op": {"updates": [["X", ["var", "r"]]]}},
        "initial": {"concrete": {"x": 0}, "abstract": {"X": 0}},
    }


def _fc_doc():
    return json.load(open(f"{FIX}/flat-combiner/model.json"))


def _lin_outcome(model, bound):
    """The verdict, least counterexample, stats and growth flag, or the
    error's type, message and, for a fault, schedule."""
    try:
        res = check_linearizable(model, bound)
    except RelviewsError as exc:
        return type(exc), str(exc), getattr(exc, "schedule", None)
    return res.ok, res.counterexample, res.stats, res.still_growing


def _walk_outcome(model, bound, concrete):
    """`history_walk`'s count and histories, or the error as above."""
    try:
        count, walk = history_walk(model, bound, concrete)
        return count, list(walk)
    except RelviewsError as exc:
        return type(exc), str(exc), getattr(exc, "schedule", None)


def _assert_as_per_value(model, bounds, walk_bounds=()):
    """The shipped checks on `model` give what they give on
    `PerValueLibrary`: check-lin at each of `bounds`, and the concrete
    and abstract histories at each of `walk_bounds`."""
    runs = [(_lin_outcome, bound) for bound in bounds] + [
        (lambda m, b, c=c: _walk_outcome(m, b, c), bound)
        for bound in walk_bounds for c in (True, False)]
    for run, bound in runs:
        got = run(model, bound)
        with per_value_stepping():
            assert run(model, bound) == got


def _shares_body(model) -> bool:
    """Whether the concrete library's calls start members that share one
    command."""
    lib = _Library(model, True)
    return all(len({cmd for cmd, _v in lib.slots[sid][1]}) == 1
               for _m, _a, sid in lib.calls)


@pytest.mark.parametrize("name", [*sorted(STATS), *GHOSTS, "late-fault"])
def test_shared_bodies_step_as_per_value_bodies(name):
    model = _model(name)
    _assert_as_per_value(model, range(15), range(8))
    assert _shares_body(model)


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=tiny_model_docs())
def test_shared_bodies_step_as_per_value_bodies_on_generated_models(doc):
    _assert_as_per_value(parse_model(doc), range(7), range(5))


def test_shared_bodies_step_as_per_value_bodies_on_three_threads():
    _assert_as_per_value(parse_model(flat_combiner(3)[0]), range(11))


def _libraries(model, bound, library=_Library):
    """`_lin_outcome` with the shipped checks building `library`, and the
    libraries they built."""
    made = []

    class Recording(library):
        def __init__(self, model, concrete):
            super().__init__(model, concrete)
            made.append(self)

    shipped = linearizability._Library
    linearizability._Library = Recording
    try:
        outcome = _lin_outcome(model, bound)
    finally:
        linearizability._Library = shipped
    return outcome, made


def _concrete_library(model, bound, library):
    """`_lin_outcome` with the shipped checks building `library`, and the
    concrete library they built."""
    outcome, made = _libraries(model, bound, library)
    (lib,) = [lib for lib in made if lib.concrete]
    return outcome, lib


def _tabulated(lib, image=lambda slot: slot) -> set:
    """The configurations whose moves `lib` tabulated, as (heap, slots),
    each slot mapped by `image`."""
    return {(key[0], tuple(image(lib.slots[sid]) for sid in key[1:]))
            for key in map(lib.configs.__getitem__, lib._succ)}


def _per_value_image(slot):
    """A shared slot's image: each member (c, v) as (c[r := v], v)."""
    if slot is IDLE:
        return slot
    m, members = slot
    return m, frozenset((subst(c, {"r": v}), v) for c, v in members)


TWINS = {
    "flat-combiner": lambda: _twin_doc(_fc_doc(), "inc"),
    "flat-combiner-nolock": lambda: _twin_doc(
        json.load(open(f"{FIX}/flat-combiner-nolock/model.json")), "inc"),
    "paths": _twin_paths_doc,
    "cross-argument": _cross_argument_twin_doc,
}

# (configurations, frontiers) at bound 6, shared and per value, of the
# twins where r := v maps two commands of a method onto one: two shared
# slots have one image, so the shared library tabulates more configurations
TWIN_STATS_AT_6 = {"paths": ((7, 6), (6, 6)),
                   "cross-argument": ((11, 8), (10, 8))}


@pytest.mark.parametrize("name", list(TWINS))
def test_twin_primitives_step_per_value(name):
    """Where r := v maps two primitives (or two commands) of a method onto
    one, the members still share the body, and mapping each member (c, v)
    to (c[r := v], v) is a simulation: every outcome but the counts is
    `PerValueLibrary`'s, and the images of the configurations tabulated
    are the ones the per-value library tabulates."""
    model = parse_model(TWINS[name]())
    assert _shares_body(model)
    for bound in range(15):
        got, shared = _concrete_library(model, bound, _Library)
        want, per_value = _concrete_library(model, bound, PerValueLibrary)
        if isinstance(got[0], type):  # an error
            assert got == want
            continue
        assert got[:2] + got[3:] == want[:2] + want[3:]
        assert _tabulated(shared, _per_value_image) == _tabulated(per_value)
        if bound == 6 and name in TWIN_STATS_AT_6:
            assert tuple((s["configurations"], s["frontiers"])
                         for s in (got[2], want[2])) == TWIN_STATS_AT_6[name]
    _assert_as_per_value(model, (), range(8))


# ---------------------------------------------------------------------------
# A slot's distinct commands stepped once against each member stepped


def _assert_local_as_per_member(model, bound):
    """Every local table that the check tabulates, concrete and abstract,
    holds the entries `oracles.per_member_local` gives, which steps each
    member of the slot on its own."""
    _outcome, libs = _libraries(model, bound)
    for lib in libs:
        assert lib._locals
        for key, table in list(lib._locals.items()):
            want = per_member_local(lib, *key)
            assert len(table) == len(want) and set(table) == set(want), key


@pytest.mark.parametrize("name", [*sorted(STATS), *GHOSTS, "late-fault"])
def test_slots_step_each_command_as_each_member(name):
    _assert_local_as_per_member(_model(name), 10)


@pytest.mark.parametrize("name", list(TWINS))
def test_twin_slots_step_each_command_as_each_member(name):
    _assert_local_as_per_member(parse_model(TWINS[name]()), 10)


def test_three_thread_slots_step_each_command_as_each_member():
    _assert_local_as_per_member(parse_model(flat_combiner(3)[0]), 9)


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=tiny_model_docs())
def test_slots_step_each_command_as_each_member_on_generated_models(doc):
    _assert_local_as_per_member(parse_model(doc), 6)
