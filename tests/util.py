"""Shared builders for the shipped fixture table, commands, micro domains,
semantics, random view generation and generated library models."""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from hypothesis import strategies as st

from relviews.command_lang import (
    STORE,
    Command,
    Expr,
    GuardedUpdate,
    Prim,
    PrimCommand,
    Read,
    Const,
    Eq,
)
from relviews.fixtures import FIXTURE_ROOT
from relviews.linearizability import Semantics
from relviews.model_io import DEFAULT_CAP
from relviews.monoid_dcsl import DcslMonoid
from relviews.state_model import (
    EMPTY_WORLD,
    APCom,
    Domains,
    compose_worlds,
    enumerate_worlds,
)


@dataclass(frozen=True)
class Fixture:
    name: str
    model_path: str
    outline_path: Optional[str]
    expected: Dict


def fixture_manifest() -> Tuple[Fixture, ...]:
    """The shipped fixtures, each with its expected verdicts."""
    out = []
    for name in sorted(os.listdir(FIXTURE_ROOT)):
        base = os.path.join(FIXTURE_ROOT, name)
        if not os.path.isdir(base):
            continue
        outline = os.path.join(base, "outline.json")
        with open(os.path.join(base, "expected.json")) as fh:
            expected = json.load(fh)
        out.append(Fixture(
            name=name,
            model_path=os.path.join(base, "model.json"),
            outline_path=outline if os.path.exists(outline) else None,
            expected=expected,
        ))
    return tuple(out)


def instance_outline(model, m: str, t: int, a: int, r: int) -> tuple:
    """The arguments after the env with which the obligations check the
    outline of instance (m, t, a, r): the method's outline, pre and post
    templates and the instance's binding."""
    return (model.outline_templates[m], model.pre_templates[m],
            model.post_templates[m], {"a": a, "r": r, "t": t})


def first_failure(items):
    """The first obligation item that fails, or None."""
    return next((it for it in items if not it.ok), None)


def store(loc: str, e: Expr) -> Command:
    return Prim(PrimCommand(STORE, (Read(loc), e)))


def micro_domains(cloc=None, aloc=None, nthreads=1, apcoms=(), values=(0, 1),
                  modulus=None, cap=DEFAULT_CAP) -> Domains:
    cloc = {"l": tuple(values)} if cloc is None else cloc
    aloc = {} if aloc is None else aloc
    return Domains.make(
        values=values,
        modulus=modulus if modulus is not None else len(values),
        nthreads=nthreads,
        cloc=cloc,
        aloc=aloc,
        apcoms=apcoms,
        cap=cap,
    )


def micro_semantics(dom: Domains, abstract=None) -> Semantics:
    """Concrete builtins only; abstract methods default to pure token flips
    (guard-free identity), so every todo token can always fire."""
    methods = {"op": GuardedUpdate()}
    if abstract:
        methods.update(abstract)
    return Semantics({}, methods, dom.modulus)


def micro_dcsl(cloc=None, aloc=None, nthreads=1, apcoms=(), values=(0, 1),
               abstract=None) -> DcslMonoid:
    dom = micro_domains(cloc, aloc, nthreads, apcoms, values)
    return DcslMonoid(dom, micro_semantics(dom, abstract))


def disjoin(mono, p, q):
    """View disjunction: set union for DCSL; for RGSep the state-by-state
    union of the predicates."""
    if isinstance(mono, DcslMonoid):
        return p | q
    return rgsep_view(mono, view_pairs(mono, p) | view_pairs(mono, q))


def view_columns(mono, view) -> list:
    """The local set of each universe state, in universe order."""
    cols = [frozenset()] * len(mono.universe)
    for ls, mask in view:
        for i in range(len(cols)):
            if mask >> i & 1:
                cols[i] = ls
    return cols


def classes_of_columns(cols) -> tuple:
    """The canonical column classes of per-state local sets: each distinct
    non-empty set with the mask of its indices, sorted by mask."""
    masks = {}
    for i, ls in enumerate(cols):
        if ls:
            masks[ls] = masks.get(ls, 0) | 1 << i
    return tuple(sorted(masks.items(), key=lambda c: c[1]))


def rgsep_view(mono, pairs) -> tuple:
    """The RGSep view of the monoid whose predicate is the given (local,
    shared) pairs; every shared part must be in the monoid's universe."""
    index = {s: i for i, s in enumerate(mono.universe)}
    cols = [set() for _ in mono.universe]
    for l, s in pairs:
        cols[index[s]].add(l)
    return classes_of_columns(map(frozenset, cols))


def rgsep_unit(mono) -> tuple:
    """The unit of an RGSep monoid: the empty local fragment at every
    shared state."""
    return rgsep_view(mono, {(EMPTY_WORLD, s) for s in mono.universe})


def view_pairs(mono, view) -> frozenset:
    """The (local, shared) pairs of an RGSep view's predicate."""
    return frozenset((l, s) for s, ls in zip(mono.universe,
                                             view_columns(mono, view))
                     for l in ls)


def check_triples_contract(mono, p, q) -> None:
    """The law of `ViewMonoid.triples` on two views of a monoid: p reifies
    to the worlds of its triples, and the triples of p * q are those of p
    and q composed local by local over each shared state."""
    assert mono.reify(p) == frozenset(w for _l, _s, w in mono.triples(p))
    want = {(l, s, w) for l1, s, _w1 in mono.triples(p)
            for l2, s2, _w2 in mono.triples(q) if s2 == s
            for l in (compose_worlds(l1, l2),) if l is not None
            for w in (compose_worlds(l, s),) if w is not None}
    got = list(mono.triples(mono.compose(p, q)))
    assert len(got) == len(set(got)) and set(got) == want


def sample_view(rng: random.Random, worlds, max_size=3):
    k = rng.randint(0, min(max_size, len(worlds)))
    return frozenset(rng.sample(list(worlds), k))


PRIMS_1LOC = (
    PrimCommand("id"),
    PrimCommand("assume", (Eq(Read("l"), Const(0)),)),
    PrimCommand("store", (Read("l"), Const(1))),
    PrimCommand("cas_succ", (Read("l"), Const(0), Const(1))),
    PrimCommand("cas_fail", (Read("l"), Const(0), Const(1))),
)


def strongest_post(monoid, t, alpha, p):
    """All worlds reachable from p's worlds by one alpha step followed by any
    number of linearization steps; None if alpha can fault.  By locality this
    is a valid postcondition for the (frame-quantified) action judgement."""
    from relviews.state_model import FAULT, World
    from oracles import lp_star, ref_apply

    out = set()
    for w in p:
        for sigma2 in ref_apply(monoid.sem, alpha, t, w.conc):
            if sigma2 is FAULT:
                return None
            for s2, d2 in lp_star(w.abst, w.toks, monoid.sem):
                out.add(World(sigma2, s2, d2))
    return frozenset(out)


def suite_monoid():
    """The micro DCSL monoid the appendix property suites run on: one
    concrete and one abstract location, one always-fireable token kind."""
    ident = GuardedUpdate()
    return micro_dcsl(cloc={"l": (0, 1)}, aloc={"x": (0,)},
                      apcoms=(APCom("op", 0, 0),), values=(0, 1),
                      abstract={"op": ident})


def run_locality(count, seed=11):
    """Action judgements survive framing; returns the non-vacuous count."""
    from relviews.state_model import enumerate_worlds

    mono = suite_monoid()
    worlds = enumerate_worlds(mono.dom)
    rng = random.Random(seed)
    checked = 0
    for _ in range(count):
        p = sample_view(rng, worlds, 2)
        alpha = rng.choice(PRIMS_1LOC)
        q = strongest_post(mono, 1, alpha, p)
        if q is None:
            continue
        if mono.check_action(1, alpha, p, q) is not True:
            continue
        r = sample_view(rng, worlds, 1)
        assert mono.check_action(
            1, alpha, mono.compose(p, r), mono.compose(q, r)) is True
        checked += 1
    return checked


def run_consequence(count, seed=12):
    from relviews.state_model import enumerate_worlds

    mono = suite_monoid()
    worlds = enumerate_worlds(mono.dom)
    rng = random.Random(seed)
    checked = 0
    for _ in range(count):
        p = sample_view(rng, worlds, 2)
        alpha = rng.choice(PRIMS_1LOC)
        q = strongest_post(mono, 1, alpha, p)
        if q is None or mono.check_action(1, alpha, p, q) is not True:
            continue
        p_strong = frozenset(w for w in p if rng.random() < 0.7)
        q_weak = q | sample_view(rng, worlds, 1)
        assert mono.repart_implies(p_strong, p) is True
        assert mono.repart_implies(q, q_weak) is True
        assert mono.check_action(1, alpha, p_strong, q_weak) is True
        checked += 1
    return checked


def run_distributivity(count, seed=13):
    from relviews.state_model import enumerate_worlds

    mono = suite_monoid()
    worlds = enumerate_worlds(mono.dom)
    rng = random.Random(seed)
    checked = 0
    for _ in range(count):
        alpha = rng.choice(PRIMS_1LOC)
        p1 = sample_view(rng, worlds, 2)
        p2 = sample_view(rng, worlds, 2)
        q1 = strongest_post(mono, 1, alpha, p1)
        q2 = strongest_post(mono, 1, alpha, p2)
        if q1 is None or q2 is None:
            continue
        if (mono.check_action(1, alpha, p1, q1) is not True
                or mono.check_action(1, alpha, p2, q2) is not True):
            continue
        assert mono.check_action(
            1, alpha, disjoin(mono, p1, p2), disjoin(mono, q1, q2)) is True
        checked += 1
    return checked


# ---------------------------------------------------------------------------
# Generated library models

TINY_VALUES = (0, 1, 2)


def _tiny_expr(cells, names=("a", "r")):
    return st.one_of(
        st.sampled_from(TINY_VALUES),
        st.sampled_from([["var", n] for n in names]),
        st.sampled_from([["read", c] for c in cells]),
        st.sampled_from([["+", ["read", c], ["var", "a"]] for c in cells]))


def _tiny_update(cells, names=("a", "r")):
    """A guarded update over the variables `names`: an optional `cell ==
    e` guard and at most two writes to distinct cells."""
    expr = _tiny_expr(cells, names)
    guard = st.one_of(st.none(), st.builds(
        lambda c, e: ["==", ["read", c], e], st.sampled_from(cells), expr))
    updates = st.lists(st.tuples(st.sampled_from(cells), expr)
                       .map(list), max_size=2, unique_by=lambda u: u[0])
    return st.fixed_dictionaries({"guard": guard, "updates": updates})


@st.composite
def tiny_model_docs(draw):
    """A model document with 1-2 threads, 1-2 cells over the values 0..2
    (modulus 3) and one method `op`.  Its body is one or two steps, each a
    guarded-update primitive or a CAS whose branches are `skip` or a
    primitive.  It may also take a step of the primitive `q`, which reads
    no `r`, somewhere before the last step, and an `assume` that ties the
    expected return to a cell, last or before the last step; so a call's
    expected returns take the same steps for part of the body and then
    part ways.  The abstract `op` is a guarded update of its own.  A cell
    may be left uninitialized, so that some bodies fault."""
    cells = ["x", "y"][:draw(st.integers(1, 2))]
    acells = [c.upper() for c in cells]
    prims = {f"p{i}": dict(draw(_tiny_update(cells)), params=["a", "r"])
             for i in range(draw(st.integers(1, 2)))}
    call = st.sampled_from([["prim", p, ["var", "a"], ["var", "r"]]
                            for p in prims])
    prims["q"] = dict(draw(_tiny_update(cells, ("a",))), params=["a"])
    branch = st.one_of(st.just(["skip"]), call)
    cas = st.builds(lambda c, old, new, then, other:
                    ["cas", c, old, new, then, other],
                    st.sampled_from(cells), _tiny_expr(cells),
                    _tiny_expr(cells), branch, branch)
    body = draw(st.lists(st.one_of(call, cas), min_size=1, max_size=2))
    if draw(st.booleans()):
        body.insert(draw(st.integers(0, len(body) - 1)),
                    ["prim", "q", ["var", "a"]])
    if draw(st.booleans()):
        body.insert(len(body) - draw(st.integers(0, 1)),
                    ["assume", ["==", ["read", draw(st.sampled_from(cells))],
                                      ["var", "r"]]])
    init = {c: draw(st.sampled_from(TINY_VALUES)) for c in cells}
    if draw(st.integers(0, 4)) == 0:
        del init[cells[-1]]
    return {
        "name": "tiny",
        "monoid": "rgsep",
        "domains": {
            "values": list(TINY_VALUES),
            "modulus": len(TINY_VALUES),
            "threads": draw(st.integers(1, 2)),
            "locations": {c: list(TINY_VALUES) for c in cells},
            "abstract_locations": {c: list(TINY_VALUES) for c in acells},
        },
        "primitives": prims,
        "methods": {"op": {
            "args": draw(st.sampled_from([[1], [0, 1], [2]])),
            "body": ["seq", *body]}},
        "abstract": {"op": draw(_tiny_update(acells))},
        "initial": {
            "concrete": init,
            "abstract": {c.upper(): v for c, v in init.items()},
        },
    }
