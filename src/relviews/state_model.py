"""States, tokens and world triples.

Concrete and abstract states are finite partial heaps (location -> value)
plus a distinguished fault element.  Token maps assign each thread at most
one one-time permission, either still pending (todo) or spent (done).
A world triple bundles one concrete state, one abstract state and one token
map; reification of any view produces a set of these, and both view
monoids compose world sets with one kernel, `compose_sets`.
"""

from __future__ import annotations

import itertools
import weakref
from typing import Iterable, NamedTuple, Optional, Tuple, Union

from .errors import UniverseTooLarge


class _Fault:
    """The fault state; absorbing for composition."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "FAULT"

    def __reduce__(self):  # keep the singleton through pickling
        return (_Fault, ())


FAULT = _Fault()


_SERIALS = itertools.count()


class _FrozenMap:
    """Immutable finite partial map, hash-consed: every way of building one
    returns the one live map of its class with those items, so equal maps
    are one object, equality is identity and hashing is the object's own,
    both in C.  A map is equal only to itself, so never to a map of the
    other class.  Each class keeps its live maps in `_table`, keyed by
    their items in sorted order, through weak references that remove their
    entry when the map dies.  `_memo` holds the map's compositions with
    right operands (see `compose_maps`), keyed by their `_serial`, a number
    no other map of the process has: a map holds only larger maps, so maps
    form no reference cycle and die as soon as no one holds them."""

    __slots__ = ("_d", "_key", "_memo", "_serial", "__weakref__")
    _brackets = "{}"
    _table: dict

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        table = cls._table = {}

        def drop(ref):
            if table.get(ref.key) is ref:
                del table[ref.key]

        cls._drop = staticmethod(drop)

    def __new__(cls, items=()):
        d = dict(items)
        return cls._of(tuple(sorted(d.items())), d)

    @classmethod
    def _of(cls, key: tuple, d: Optional[dict] = None):
        """The map with the items of key, which are sorted; d, if given, is
        a dict of them that no one else holds."""
        ref = cls._table.get(key)
        if ref is not None:
            m = ref()
            if m is not None:
                return m
        m = object.__new__(cls)
        m._d = dict(key) if d is None else d
        m._key = key
        m._memo = None
        m._serial = next(_SERIALS)
        cls._table[key] = weakref.KeyedRef(m, cls._drop, key)
        return m

    def get(self, k):
        return self._d.get(k)

    def __contains__(self, k) -> bool:
        return k in self._d

    def __getitem__(self, k):
        return self._d[k]

    def __len__(self) -> int:
        return len(self._d)

    def items(self) -> tuple:
        return self._key

    def _without(self, drop):
        return self._of(tuple(kv for kv in self._key if kv[0] not in drop))

    def __repr__(self):
        inner = ", ".join(f"{k}:{v!r}" for k, v in self._key)
        return self._brackets[0] + inner + self._brackets[1]

    def __reduce__(self):
        return (type(self), (self._key,))


class Heap(_FrozenMap):
    """Immutable finite partial map from locations to values."""

    __slots__ = ()
    _brackets = "[]"

    def set_many(self, pairs: Iterable[Tuple[str, int]]) -> "Heap":
        d = dict(self._d)
        d.update(pairs)
        return self._of(tuple(sorted(d.items())), d)


EMPTY_HEAP = Heap()

HeapState = Union[Heap, _Fault]

TODO = "todo"
DONE = "done"


class APCom(NamedTuple):
    """An abstract primitive command instance: method applied to (arg, ret)."""

    method: str
    arg: int
    ret: int

    def __repr__(self):
        return f"{self.method}({self.arg},{self.ret})"


class Token(NamedTuple):
    kind: str  # TODO or DONE
    apcom: APCom

    def __repr__(self):
        return f"{self.kind}({self.apcom!r})"


class TokenMap(_FrozenMap):
    """Immutable finite partial map from thread ids to tokens."""

    __slots__ = ()

    def remove(self, tid: int) -> "TokenMap":
        return self._without((tid,))


EMPTY_TOKENS = TokenMap()


class World(NamedTuple):
    """One (concrete state, abstract state, token map) triple."""

    conc: Heap
    abst: Heap
    toks: TokenMap

    def __repr__(self):
        return f"({self.conc!r}, {self.abst!r}, {self.toks!r})"


EMPTY_WORLD = World(EMPTY_HEAP, EMPTY_HEAP, EMPTY_TOKENS)

_new_tuple = tuple.__new__


_UNKNOWN = object()


def compose_maps(m1, m2):
    """Disjoint union of two heaps or of two token maps; None when a key is
    shared.  An empty side returns the other map itself.  Otherwise the
    result is memoized in m1's `_memo`, keyed by m2's serial number, for
    the life of m1."""
    if not m1._key:
        return m2
    if not m2._key:
        return m1
    memo = m1._memo
    if memo is None:
        memo = m1._memo = {}
    got = memo.get(m2._serial, _UNKNOWN)
    if got is _UNKNOWN:
        got = None
        if m1._d.keys().isdisjoint(m2._d):
            got = m1._of(tuple(sorted(m1._key + m2._key)))
        memo[m2._serial] = got
    return got


def compose_worlds(w1: World, w2: World) -> Optional[World]:
    """Componentwise composition; None if any component is undefined.  A
    fault state absorbs, an empty part yields the other part itself, and
    only two non-empty parts reach `compose_maps` and its memo.  The
    result is built by `tuple.__new__`, without `World`'s Python
    constructor."""
    c1, a1, t1 = w1
    c2, a2, t2 = w2
    if c1 is EMPTY_HEAP:
        c = c2
    elif c2 is EMPTY_HEAP:
        c = c1
    elif c1 is FAULT or c2 is FAULT:
        c = FAULT
    else:
        c = compose_maps(c1, c2)
        if c is None:
            return None
    if a1 is EMPTY_HEAP:
        a = a2
    elif a2 is EMPTY_HEAP:
        a = a1
    elif a1 is FAULT or a2 is FAULT:
        a = FAULT
    else:
        a = compose_maps(a1, a2)
        if a is None:
            return None
    if t1 is EMPTY_TOKENS:
        t = t2
    elif t2 is EMPTY_TOKENS:
        t = t1
    else:
        t = compose_maps(t1, t2)
        if t is None:
            return None
    return _new_tuple(World, (c, a, t))


UNIT = frozenset({EMPTY_WORLD})  # the unit of world-set composition


def compose_sets(left: frozenset, right: frozenset) -> frozenset:
    """Pairwise composition of two world sets, keeping undefined pairs
    out; with the unit on either side, the other operand as a frozenset."""
    if UNIT in (left, right):
        return frozenset(right if left == UNIT else left)
    return frozenset(w for w1 in left for w2 in right
                     for w in (compose_worlds(w1, w2),) if w is not None)


class Domains(NamedTuple):
    """Finite model-declared domains everything is enumerated over.

    cloc/aloc map each concrete/abstract location to its per-location value
    domain.  apcoms is the token alphabet.  modulus drives wrapping
    arithmetic; cap bounds every enumeration of states, worlds or histories
    (the effective cap, fixed when the model is loaded).
    """

    values: Tuple[int, ...]
    modulus: int
    nthreads: int
    cloc: Tuple[Tuple[str, Tuple[int, ...]], ...]
    aloc: Tuple[Tuple[str, Tuple[int, ...]], ...]
    apcoms: Tuple[APCom, ...]
    cap: int

    @staticmethod
    def make(values, modulus, nthreads, cloc, aloc, apcoms, cap):
        def norm(m):
            return tuple(sorted((k, tuple(v)) for k, v in dict(m).items()))

        return Domains(
            values=tuple(values),
            modulus=modulus,
            nthreads=nthreads,
            cloc=norm(cloc),
            aloc=norm(aloc),
            apcoms=tuple(apcoms),
            cap=cap,
        )

    def thread_ids(self):
        return range(1, self.nthreads + 1)


def _heap_count(locdoms) -> int:
    n = 1
    for _, vals in locdoms:
        n *= len(vals) + 1
    return n


def enumerate_heaps(locdoms):
    """Every partial heap over (location, value domain) pairs."""
    choices = []
    for loc, vals in locdoms:
        opts = [None] + list(vals)
        choices.append([(loc, v) for v in opts])
    for combo in itertools.product(*choices):
        yield Heap({loc: v for loc, v in combo if v is not None})


def token_options(dom: Domains):
    """Every token one thread may hold, under the declared alphabet."""
    return [Token(kind, ap) for ap in dom.apcoms for kind in (TODO, DONE)]


def count_worlds(dom: Domains) -> int:
    per_thread = 1 + 2 * len(dom.apcoms)
    return (
        _heap_count(dom.cloc)
        * _heap_count(dom.aloc)
        * per_thread ** dom.nthreads
    )


def enumerate_worlds(dom: Domains) -> Tuple[World, ...]:
    """The complete universe of world triples over the declared domains.

    Heaps range over all partial maps respecting the per-location domains;
    token maps over all assignments of at most one token per thread.
    More than `dom.cap` worlds raise `UniverseTooLarge`.
    """
    size = count_worlds(dom)
    if size > dom.cap:
        raise UniverseTooLarge(size, dom.cap)
    tok_opts = [None, *token_options(dom)]
    tids = list(dom.thread_ids())
    worlds = []
    for conc in enumerate_heaps(dom.cloc):
        for abst in enumerate_heaps(dom.aloc):
            for combo in itertools.product(tok_opts, repeat=len(tids)):
                toks = TokenMap(
                    {t: tok for t, tok in zip(tids, combo) if tok is not None}
                )
                worlds.append(World(conc, abst, toks))
    worlds.sort(key=world_sort_key)
    return tuple(worlds)


def world_sort_key(w: World):
    """The parts' item tuples, read without a method call."""
    c, a, t = w
    return (c._key, a._key, t._key)
