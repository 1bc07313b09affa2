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

import json
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings

from oracles import _HistoryGen, history_sort_key, lin_by_history_sets
from relviews import linearizability
from relviews.command_lang import AbstractTable, Skip, state_step
from relviews.errors import FaultReachable, RelviewsError, UniverseTooLarge
from relviews.linearizability import (
    IDLE,
    _Library,
    abstract_histories,
    check_linearizable,
    concrete_histories,
    history_walk,
)
from relviews.model_io import load_model, parse_model
from relviews.state_model import FAULT, APCom
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
    return model if cap is None else replace(
        model, dom=replace(model.dom, cap=cap))


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
                    out.update((_put(pool, t, (m, model.body(m, v, r), r)),
                                heap) for r in model.dom.values)
                elif kind == "ret" and slot is not IDLE and \
                        isinstance(slot[1], Skip) and slot[2] == v:
                    out.add((_put(pool, t, IDLE), heap))
                continue
            t, alpha = move
            slot = pool[t - 1]
            if slot is IDLE:
                continue
            m, cmd, r = slot
            for alpha2, cmd2, heap2 in state_step(
                    cmd, heap, t, model.ctable, model.dom.modulus):
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
    """Each library tabulates a thread's local moves once per (slot, heap,
    thread), so one check runs `state_step` (concrete side) or the
    abstract table (abstract side) at most once per distinct (command,
    heap, thread); and it builds each configuration's successor table
    once, so every request for it returns the same table."""
    steps = Counter()

    def counting_step(cmd, heap, t, table, modulus):
        steps[("concrete", cmd, heap, t)] += 1
        return state_step(cmd, heap, t, table, modulus)

    original_apply = AbstractTable.apply

    def counting_apply(self, method, arg, ret, t, heap, modulus):
        steps[("abstract", APCom(method, arg, ret), heap, t)] += 1
        return original_apply(self, method, arg, ret, t, heap, modulus)

    tables = {}
    libs = {}
    original_successors = _Library.successors

    def recording(self, cid):
        succ = original_successors(self, cid)
        libs[id(self)] = self
        assert tables.setdefault((id(self), cid), succ) is succ
        return succ

    monkeypatch.setattr(linearizability, "state_step", counting_step)
    monkeypatch.setattr(AbstractTable, "apply", counting_apply)
    monkeypatch.setattr(_Library, "successors", recording)
    check_linearizable(_model(name), 12)
    assert max(steps.values()) == 1
    assert {side for side, *_ in steps} == {"concrete", "abstract"}
    # one library per side: the walk, its growth test and the fault scan
    # read the same concrete tables
    assert sorted(lib.concrete for lib in libs.values()) == [False, True]
