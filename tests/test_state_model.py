import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relviews.errors import UniverseTooLarge
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
    compose_states,
    compose_worlds,
    count_worlds,
    enumerate_worlds,
    world_minus,
)
from oracles import (
    compose_states_copying,
    compose_tokens_copying,
    world_leq,
)
from util import micro_domains

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
    for w1 in ws:
        for w2 in ws:
            parts = (compose_states_copying(w1.conc, w2.conc),
                     compose_states_copying(w1.abst, w2.abst),
                     compose_tokens_copying(w1.toks, w2.toks))
            got = compose_worlds(w1, w2)
            if None in parts:
                assert got is None
            else:
                assert got == World(*parts) and hash(got) == hash(World(*parts))
                assert all(_same_map(g, p) for g, p in zip(got, parts))


def test_internal_maps_equal_constructed_ones():
    dom = micro_domains(cloc={"l": (0, 1), "m": (0,)}, aloc={"A": (0,)},
                        nthreads=2, apcoms=(AP,), values=(0, 1))
    ws = enumerate_worlds(dom)
    built = []
    for w1 in ws:
        built.append(w1.conc.set("n", 1))
        built.append(w1.conc.set_many((("m", 0), ("k", 1))))
        built.append(w1.toks.set(2, Token(DONE, AP)))
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
    assert EMPTY_HEAP == Heap() and EMPTY_TOKENS == TokenMap()
    assert Heap({1: 0}) != TokenMap({1: 0})
    assert len({EMPTY_HEAP, EMPTY_TOKENS}) == 2
