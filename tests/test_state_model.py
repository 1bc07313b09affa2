import copy
import gc
import itertools
import json
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relviews.errors import UniverseTooLarge
from relviews.linearizability import check_obligations
from relviews.model_io import load_model, load_outlines
from relviews.state_model import (
    APCom,
    DONE,
    EMPTY_HEAP,
    EMPTY_TOKENS,
    FAULT,
    Heap,
    TODO,
    Token,
    TokenMap,
    World,
    compose_maps,
    compose_worlds,
    count_worlds,
    enumerate_heaps,
    enumerate_worlds,
)
from oracles import (
    compose_states,
    compose_states_copying,
    compose_tokens_copying,
    world_leq,
    world_minus,
)
from families import flat_combiner
from util import fixture_manifest, micro_domains

AP = APCom("op", 0, 0)


def test_compose_disjoint_heaps():
    got = compose_states(Heap({"l1": 5}), Heap({"l2": 7}))
    assert got == Heap({"l1": 5, "l2": 7})


def test_fault_absorbs():
    assert compose_states(FAULT, Heap({"l": 0})) is FAULT
    assert compose_states(Heap(), FAULT) is FAULT
    assert compose_states(FAULT, FAULT) is FAULT


def test_overlap_is_undefined():
    assert compose_states(Heap({"l1": 5}), Heap({"l1": 6})) is None
    # even with equal values: domains must be disjoint
    assert compose_states(Heap({"l1": 5}), Heap({"l1": 5})) is None


def test_token_compose():
    td = TokenMap({1: Token(TODO, AP)})
    dn = TokenMap({2: Token(DONE, AP)})
    assert compose_maps(EMPTY_TOKENS, td) == td
    both = compose_maps(td, dn)
    assert both.get(1) == Token(TODO, AP) and both.get(2) == Token(DONE, AP)
    assert compose_maps(td, TokenMap({1: Token(DONE, AP)})) is None


heaps = st.builds(
    Heap,
    st.dictionaries(st.sampled_from(["a", "b", "c"]),
                    st.integers(0, 1), max_size=3),
)
states = st.one_of(heaps, st.just(FAULT))


@settings(max_examples=300, deadline=None)
@given(states, states)
def test_compose_commutative(s1, s2):
    assert compose_states(s1, s2) == compose_states(s2, s1)


@settings(max_examples=300, deadline=None)
@given(heaps, heaps, heaps)
def test_compose_associative_on_states(s1, s2, s3):
    # associativity is needed (and holds) on non-fault states, which is all
    # that views ever compose; mixing fault with undefinedness is not
    # associative and never arises
    def comp(a, b):
        if a is None or b is None:
            return None
        return compose_states(a, b)

    assert comp(comp(s1, s2), s3) == comp(s1, comp(s2, s3))


@settings(max_examples=100, deadline=None)
@given(heaps)
def test_empty_heap_is_unit(h):
    assert compose_states(h, EMPTY_HEAP) == h
    assert compose_states(EMPTY_HEAP, h) == h


toks = st.builds(
    TokenMap,
    st.dictionaries(st.integers(1, 2),
                    st.sampled_from([Token(TODO, AP), Token(DONE, AP)]),
                    max_size=2),
)


@settings(max_examples=200, deadline=None)
@given(toks, toks)
def test_token_compose_commutative(d1, d2):
    assert compose_maps(d1, d2) == compose_maps(d2, d1)


@settings(max_examples=200, deadline=None)
@given(toks, toks, toks)
def test_token_compose_associative(d1, d2, d3):
    def comp(a, b):
        if a is None or b is None:
            return None
        return compose_maps(a, b)

    assert comp(comp(d1, d2), d3) == comp(d1, comp(d2, d3))


def test_enumerate_worlds_count_one_loc():
    # one location, one value, one thread, no tokens: present/absent on each
    # side gives 2 x 2 x 1 triples
    dom = micro_domains(cloc={"l": (0,)}, aloc={"m": (0,)}, values=(0,))
    ws = enumerate_worlds(dom)
    assert len(ws) == 4
    assert count_worlds(dom) == 4


def test_enumerate_worlds_empty_domains():
    dom = micro_domains(cloc={}, aloc={}, values=(0,))
    assert enumerate_worlds(dom) == (World(EMPTY_HEAP, EMPTY_HEAP,
                                           EMPTY_TOKENS),)


def test_enumerate_worlds_cap():
    dom = micro_domains(cloc={"l": (0, 1)}, aloc={"m": (0, 1)}, values=(0, 1),
                        cap=8)
    with pytest.raises(UniverseTooLarge):
        enumerate_worlds(dom)


def test_world_minus_inverts_leq():
    dom = micro_domains(cloc={"l": (0,)}, aloc={"m": (0,)},
                        apcoms=(AP,), values=(0,))
    ws = enumerate_worlds(dom)
    for big in ws:
        for small in ws:
            if world_leq(small, big):
                rest = world_minus(big, small)
                assert compose_worlds(small, rest) == big


def _rebuilt(m):
    """The same map built by the public constructor."""
    return type(m)(dict(m.items()))


def _same_map(got, want):
    """Equal, hash-equal and with identical items, or both None or FAULT."""
    if want is None or want is FAULT:
        return got is want
    return (type(got) is type(want) and got == want
            and hash(got) == hash(want) and got.items() == want.items())


def test_kernel_matches_copying_composition_on_every_pair():
    # two locations on each heap side, so non-empty disjoint unions occur
    dom = micro_domains(cloc={"l": (0, 1), "m": (0,)},
                        aloc={"A": (0,), "B": (0,)}, nthreads=2,
                        apcoms=(AP,), values=(0, 1))
    ws = enumerate_worlds(dom)
    states = [FAULT, EMPTY_HEAP,
              *{h for w in ws for h in (w.conc, w.abst)}]
    tokens = [EMPTY_TOKENS, *{w.toks for w in ws}]
    unions = 0
    for s1 in states:
        for s2 in states:
            want = compose_states_copying(s1, s2)
            assert _same_map(compose_states(s1, s2), want), (s1, s2)
            unions += want not in (None, FAULT) and bool(s1) and bool(s2)
    for d1 in tokens:
        for d2 in tokens:
            want = compose_tokens_copying(d1, d2)
            assert _same_map(compose_maps(d1, d2), want), (d1, d2)
            unions += want is not None and bool(d1) and bool(d2)
    assert unions
    # worlds with a fault part, which absorbs
    faulty = {w._replace(**parts) for w in ws
              for parts in ({"conc": FAULT}, {"abst": FAULT},
                            {"conc": FAULT, "abst": FAULT})}
    worlds = [*ws, *sorted(faulty, key=repr)]
    for w1 in worlds:
        for w2 in worlds:
            _assert_kernel_agrees(w1, w2)
    # the (local, shared) pairs of the RGSep fixtures' triples, both ways
    pairs = 0
    for fx in fixture_manifest():
        model = load_model(fx.model_path)
        if model.monoid_kind != "rgsep" or not fx.outline_path:
            continue
        load_outlines(fx.outline_path, model)
        check_obligations(model)
        for triples in model.monoid()._triples_memo.values():
            for l, s, _w in triples:
                _assert_kernel_agrees(l, s)
                _assert_kernel_agrees(s, l)
                pairs += 1
    assert pairs > 1000


def _assert_kernel_agrees(w1, w2):
    parts = (compose_states_copying(w1.conc, w2.conc),
             compose_states_copying(w1.abst, w2.abst),
             compose_tokens_copying(w1.toks, w2.toks))
    got = compose_worlds(w1, w2)
    if None in parts:
        assert got is None, (w1, w2)
    else:
        assert got == World(*parts) and hash(got) == hash(World(*parts))
        assert all(_same_map(g, p) for g, p in zip(got, parts)), (w1, w2)


def test_internal_maps_equal_constructed_ones():
    dom = micro_domains(cloc={"l": (0, 1), "m": (0,)}, aloc={"A": (0,)},
                        nthreads=2, apcoms=(AP,), values=(0, 1))
    ws = enumerate_worlds(dom)
    built = []
    for w1 in ws:
        built.append(w1.conc.set_many((("n", 1),)))
        built.append(w1.conc.set_many((("m", 0), ("k", 1))))
        built.append(compose_maps(w1.toks.remove(2),
                                  TokenMap({2: Token(DONE, AP)})))
        built.append(w1.toks.remove(1))
        for w2 in ws:
            w = compose_worlds(w1, w2)
            if w is not None:
                built.extend(w)
            if world_leq(w2, w1):
                built.extend(world_minus(w1, w2))
    for m in built:
        assert _same_map(m, _rebuilt(m)), m
        assert repr(m) == repr(_rebuilt(m))


def test_heaps_and_token_maps_never_equal():
    assert EMPTY_HEAP != EMPTY_TOKENS
    assert EMPTY_HEAP is Heap() and EMPTY_TOKENS is TokenMap()
    assert Heap({1: 0}) != TokenMap({1: 0})
    assert Heap({1: 0}) is not TokenMap({1: 0})
    assert Heap({1: 0}).items() == TokenMap({1: 0}).items()
    assert len({EMPTY_HEAP, EMPTY_TOKENS, Heap({1: 0}), TokenMap({1: 0})}) == 4


def _copies(m):
    """m rebuilt by copying, deep copying and a pickle round trip."""
    return [copy.copy(m), copy.deepcopy(m),
            pickle.loads(pickle.dumps(m, pickle.HIGHEST_PROTOCOL))]


def test_equal_items_are_one_map_on_every_path():
    h = Heap({"a": 1, "b": 0})
    ap = Token(TODO, AP)
    t = TokenMap({1: ap, 2: Token(DONE, AP)})
    paths = [
        (h, Heap([("b", 0), ("a", 1)])),
        (h, Heap._of((("a", 1), ("b", 0)))),
        (h, Heap({"a": 0}).set_many((("a", 1),)).set_many((("b", 0),))),
        (h, Heap({"b": 1}).set_many((("a", 1), ("b", 0)))),
        (h, Heap({"a": 1, "b": 0, "c": 1})._without({"c"})),
        (h, compose_maps(Heap({"a": 1}), Heap({"b": 0}))),
        (h, compose_maps(Heap({"b": 0}), Heap({"a": 1}))),
        (h, next(x for x in enumerate_heaps((("a", (0, 1)), ("b", (0,))))
                 if len(x) == 2 and x["a"] == 1)),
        (t, TokenMap([(2, Token(DONE, AP)), (1, ap)])),
        (t, TokenMap({1: ap, 2: Token(DONE, AP), 3: ap}).remove(3)),
        (t, compose_maps(TokenMap({2: Token(DONE, AP)}), TokenMap({1: ap}))),
        (t, TokenMap({1: Token(TODO, APCom("op", 0, 0)),
                      2: Token(DONE, APCom("op", 0, 0))})),
        (EMPTY_HEAP, Heap({"a": 1})._without({"a": 0})),
        (EMPTY_TOKENS, TokenMap({1: ap}).remove(1)),
    ]
    paths += [(m, c) for m in (h, t, EMPTY_HEAP, EMPTY_TOKENS)
              for c in _copies(m)]
    for want, got in paths:
        assert got is want, (want, got)
    world = World(h, EMPTY_HEAP, t)
    assert all(c == world and all(a is b for a, b in zip(c, world))
               for c in _copies(world))


def _maps(kind, keys, vals):
    return st.builds(kind, st.dictionaries(st.sampled_from(keys),
                                           st.sampled_from(vals), max_size=3))


# disjoint, overlapping and empty pairs all occur over three keys
@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.tuples(_maps(Heap, ["a", "b", "c"], [0, 1]),
              _maps(Heap, ["a", "b", "c"], [0, 1])),
    st.tuples(_maps(TokenMap, [1, 2, 3], [Token(TODO, AP), Token(DONE, AP)]),
              _maps(TokenMap, [1, 2, 3], [Token(TODO, AP), Token(DONE, AP)]))))
def test_memoized_composition_is_the_copying_one(pair):
    m1, m2 = pair
    copying = (compose_states_copying if type(m1) is Heap
               else compose_tokens_copying)
    want = copying(m1, m2)
    # the first call may compute, the second reads m1's memo
    assert compose_maps(m1, m2) is want
    assert compose_maps(m1, m2) is want
    assert compose_maps(m2, m1) is want


def test_composed_maps_die_without_the_cycle_collector():
    """A memo holds only larger maps, so maps composed both ways round form
    no cycle, and their table entries go when the last reference does."""
    keys = [("cycle-a", 0)], [("cycle-b", 1)], [("cycle-c", 0)]
    gc.disable()
    try:
        a, b, c = (Heap(k) for k in keys)
        for x, y in itertools.permutations((a, b, c, compose_maps(a, b)), 2):
            compose_maps(x, y)
        del a, b, c, x, y
        assert not [k for k in Heap._table
                    if any(loc.startswith("cycle-") for loc, _v in k)]
    finally:
        gc.enable()


# A fresh interpreter, so that no other test's maps are alive.  Each check
# runs twice; both runs must compute the same number of non-empty
# compositions (no memo outlives its maps), and after each only the module
# constants may remain in the tables.
_LIFETIME = """
import gc, json, sys
from relviews import state_model
from relviews.linearizability import check_linearizable, check_obligations
from relviews.model_io import load_model, load_outlines
from relviews.state_model import EMPTY_HEAP, EMPTY_TOKENS, Heap, TokenMap

real = state_model.compose_maps
computed = [0]

def counted(m1, m2):
    memo = m1._memo
    if m1._key and m2._key and (memo is None or m2._serial not in memo):
        computed[0] += 1
    return real(m1, m2)

state_model.compose_maps = counted

def live():
    gc.collect()
    return [list(Heap._table.values()), list(TokenMap._table.values())]

out = {}
for path, outline in json.loads(sys.argv[1]):
    for run in range(2):
        computed[0] = 0
        model = load_model(path)
        if outline:
            load_outlines(outline, model)
            check_obligations(model)
        else:
            check_linearizable(model, 8)
        del model
        tables = [[m() for m in t] for t in live()]
        assert tables == [[EMPTY_HEAP], [EMPTY_TOKENS]], (path, tables)
        out.setdefault(f"{path} {outline}", []).append(computed[0])
print(json.dumps(out))
"""


def test_no_map_outlives_a_check():
    fixtures = fixture_manifest()
    jobs = [(fx.model_path, None) for fx in fixtures] + [
        (fx.model_path, fx.outline_path) for fx in fixtures if fx.outline_path]
    proc = subprocess.run(
        [sys.executable, "-c", _LIFETIME, json.dumps(jobs)],
        capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout)
    assert len(counts) == len(jobs)
    for job, (first, second) in counts.items():
        assert first == second, job
    # the flat-combiner proofs compose hundreds of non-empty pairs
    assert all(counts[f"{fx.model_path} {fx.outline_path}"][0] > 100
               for fx in fixtures
               if fx.outline_path and fx.name.startswith("flat-combiner"))


# A fresh interpreter, as above: counts, after `check_obligations` with the
# model still alive, the memo entries on live maps and those of them keyed
# by a serial that no live map has, whose right operand has died.
_DEAD_KEYS = """
import gc, json, sys
from relviews.linearizability import check_obligations
from relviews.model_io import load_model, load_outlines
from relviews.state_model import Heap, TokenMap

out = {}
for path, outline in json.loads(sys.argv[1]):
    model = load_model(path)
    load_outlines(outline, model)
    check_obligations(model)
    gc.collect()
    live = [m for table in (Heap._table, TokenMap._table)
            for m in (ref() for ref in list(table.values())) if m is not None]
    serials = {m._serial for m in live}
    keys = [k for m in live for k in (m._memo or ())]
    out[path] = [len(keys), sum(k not in serials for k in keys)]
print(json.dumps(out))
"""


def test_no_memo_entry_outlives_its_right_operand(tmp_path):
    """`compose_maps` keeps a result on its left operand, keyed by the
    right one's serial, so a composition of a long-lived map with one that
    dies at once belongs on the short-lived map's side."""
    jobs = [(fx.model_path, fx.outline_path) for fx in fixture_manifest()
            if fx.outline_path
            and json.load(open(fx.model_path))["monoid"] == "rgsep"]
    model, outline = flat_combiner(3)
    jobs.append((str(tmp_path / "fc3.json"), str(tmp_path / "fc3-out.json")))
    json.dump(model, open(jobs[-1][0], "w"))
    json.dump(outline, open(jobs[-1][1], "w"))
    proc = subprocess.run(
        [sys.executable, "-c", _DEAD_KEYS, json.dumps(jobs)],
        capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout)
    assert len(counts) == len(jobs) >= 3
    assert {path: dead for path, (_n, dead) in counts.items()} == {
        path: 0 for path, _outline in jobs}
    # the memos are in use: the flat combiners keep over a hundred entries
    assert counts[jobs[-1][0]][0] > 100

