"""DCSL's unit-frame action judgement against the singleton-frame oracle.

`DcslMonoid.check_action` checks the unit frame alone, which decides the
judgement because primitives are local.  It must return exactly what the
reference judgement (`oracles.action_over_frames`) returns over the unit
plus every singleton (`oracles.singleton_frames`): `True`, or the same
counterexample, frame and world included.  Every sampled primitive is checked local with
`oracles.locality_witness` first, since a non-local primitive voids the
argument.
"""

import copy
import json
import random
from collections import Counter

import pytest

from relviews.cli import main
from relviews.command_lang import (
    Const,
    Eq,
    GuardedUpdate,
    LVar,
    PrimCommand,
    Read,
)
from relviews.linearizability import Semantics
from relviews.monoid_dcsl import DcslMonoid
from relviews.state_model import FAULT, UNIT, APCom, enumerate_worlds
from relviews.views_core import ActionCounterexample
from oracles import (
    action_over_frames,
    locality_witness,
    singleton_frames,
    todos,
)
from util import PRIMS_1LOC, micro_domains, sample_view, strongest_post

FIX = "src/relviews/fixtures"

# local multi-cell guarded updates: a swap of l and m, and a copy of m
# into l guarded by m = 0
CPRIMS = {
    "swap": GuardedUpdate(updates=(("l", Read("m")), ("m", Read("l")))),
    "copy": GuardedUpdate(guard=Eq(Read("m"), Const(0)),
                          updates=(("l", Read("m")),)),
}
PRIMS = PRIMS_1LOC + (PrimCommand("swap"), PrimCommand("copy"))


def _monoid(cloc, aloc, nthreads, apcoms):
    dom = micro_domains(cloc=cloc, aloc=aloc, nthreads=nthreads,
                        apcoms=apcoms, values=(0, 1))
    # the abstract op writes its argument to every abstract cell
    op = GuardedUpdate(params=("a", "r"),
                       updates=tuple((loc, LVar("a")) for loc in aloc))
    return DcslMonoid(dom, Semantics(CPRIMS, {"op": op}, 2))


OP00, OP11 = APCom("op", 0, 0), APCom("op", 1, 1)
# a spare concrete cell n, so that the locality witness has a frame cell
# outside the footprint of swap and copy too
UNIVERSES = {
    "1 thread": ({"l": (0, 1), "m": (0, 1), "n": (0,)}, {"x": (0, 1)}, 1,
                 (OP00, OP11)),
    "2 threads": ({"l": (0, 1), "m": (0,), "n": (0,)}, {"x": (0,)}, 2,
                  (OP00,)),
    "2 threads, tokens only": ({"l": (0, 1), "m": (0, 1), "n": (0,)}, {}, 2,
                               (OP00, OP11)),
}


def _sample_prim(rng, mono, local):
    """A thread and a primitive, checked local on the first draw."""
    t = rng.choice(mono.dom.thread_ids())
    alpha = rng.choice(PRIMS)
    if (t, alpha) not in local:
        assert locality_witness(mono.sem, mono.dom, alpha, t) is None
        local.add((t, alpha))
    return t, alpha


def _agree(mono, frames, t, alpha, p, q):
    got = mono.check_action(t, alpha, p, q)
    want = action_over_frames(mono, t, alpha, p, q, frames)
    assert got == want, (t, alpha, p, q)
    assert got is True or isinstance(got, ActionCounterexample)
    return got


def _kind(result):
    if result is True:
        return "holds"
    if result.sigma2 is FAULT:
        return "fault"
    return "unit frame" if result.frame == UNIT else "other frame"


@pytest.mark.parametrize("name", sorted(UNIVERSES))
def test_pruned_frames_agree_with_oracle_on_sampled_triples(name):
    mono = _monoid(*UNIVERSES[name])
    worlds = enumerate_worlds(mono.dom)
    frames = tuple(singleton_frames(mono.dom))
    rng = random.Random(23)
    local = set()
    kinds = Counter()
    for _ in range(600):
        t, alpha = _sample_prim(rng, mono, local)
        p = sample_view(rng, worlds, 4)
        post = strongest_post(mono, t, alpha, p)
        q = rng.choice([
            sample_view(rng, worlds, 4),
            post if post is not None else frozenset(),
            (post or frozenset()) | sample_view(rng, worlds, 2),
        ])
        kinds[_kind(_agree(mono, frames, t, alpha, p, q))] += 1
    # no oracle counterexample names a frame other than the unit
    assert set(kinds) == {"holds", "fault", "unit frame"}, kinds
    assert len(local) == len(PRIMS) * len(mono.dom.thread_ids())


RD = APCom("rd", 0, 0)


def test_abstract_and_token_frames_never_fail_first():
    """Two threads, concrete cells l, m and n under local primitives, and
    abstract cells x and y.  `rd`'s guard reads y, so a frame that adds y
    alone, or adds the other thread's token, lets more linearization runs
    through; no such frame fails once the unit passes."""
    dom = micro_domains(cloc={"l": (0, 1), "m": (0,), "n": (0,)},
                        aloc={"x": (0,), "y": (0, 1)}, nthreads=2,
                        apcoms=(OP00, RD), values=(0, 1))
    abstract = {
        "op": GuardedUpdate(params=("a", "r"), updates=(("x", LVar("a")),)),
        "rd": GuardedUpdate(params=("a", "r"),
                            guard=Eq(Read("y"), LVar("a"))),
    }
    mono = DcslMonoid(dom, Semantics(CPRIMS, abstract, 2))
    worlds = enumerate_worlds(dom)
    frames = tuple(singleton_frames(dom))
    rng = random.Random(31)
    local = set()
    kinds = Counter()
    for _ in range(1500):
        t, alpha = _sample_prim(rng, mono, local)
        p = sample_view(rng, worlds, 3)
        post = strongest_post(mono, t, alpha, p) or frozenset()
        q = rng.choice([
            sample_view(rng, worlds, 3),
            post,
            post | sample_view(rng, worlds, 2),
            # only the runs that fire every todo: a frame that blocked a
            # command the unit lets run would fail here
            frozenset(w for w in post if not todos(w.toks)),
        ])
        kinds[_kind(_agree(mono, frames, t, alpha, p, q))] += 1
    assert set(kinds) == {"holds", "fault", "unit frame"}, kinds


def _widened(doc, nvalues, nthreads):
    """dcsl-cell with values 0..nvalues-1 and nthreads threads."""
    out = copy.deepcopy(doc)
    values = list(range(nvalues))
    dom = out["domains"]
    dom.update(values=values, modulus=nvalues, threads=nthreads)
    dom["locations"]["x"] = values
    dom["abstract_locations"]["X"] = values
    out["methods"]["put"]["args"] = values
    return out


def _wrong_midpoint(outline):
    """The dcsl-cell outline with a midpoint that gives x the expected
    return instead of the stored argument, so the store step fails."""
    out = copy.deepcopy(outline)
    out["outlines"]["put"]["steps"][1][1] = ["pt", "x", ["var", "r"]]
    return out


CASES = {
    "dcsl-cell": ("dcsl-cell", None, None),
    "dcsl-helping": ("dcsl-helping", None, None),
    "dcsl-cell 0..4, 1 thread": ("dcsl-cell", (5, 1), None),
    "dcsl-cell 0..2, 2 threads": ("dcsl-cell", (3, 2), None),
    "dcsl-cell 0..2, 2 threads, wrong midpoint": ("dcsl-cell", (3, 2),
                                                  _wrong_midpoint),
}


@pytest.mark.parametrize("case", list(CASES))
def test_every_action_check_of_a_proof_agrees_with_oracle(
        case, monkeypatch, tmp_path, capsys):
    fixture, widen, edit = CASES[case]
    model = json.load(open(f"{FIX}/{fixture}/model.json"))
    outline = json.load(open(f"{FIX}/{fixture}/outline.json"))
    if widen:
        model = _widened(model, *widen)
    if edit:
        outline = edit(outline)
    paths = []
    for name, doc in (("model", model), ("outline", outline)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths.append(str(path))

    calls = []
    original = DcslMonoid.check_action

    def recording(self, t, alpha, p, q):
        got = original(self, t, alpha, p, q)
        calls.append((self, t, alpha, p, q, got))
        return got

    monkeypatch.setattr(DcslMonoid, "check_action", recording)
    code = main(["check-proof", *paths, "--jobs", "1"])
    capsys.readouterr()
    assert code == (0 if case in ("dcsl-cell", "dcsl-cell 0..4, 1 thread")
                    else 1)
    assert calls
    for mono, t, alpha, p, q, got in calls:
        want = action_over_frames(mono, t, alpha, p, q,
                                  singleton_frames(mono.dom))
        assert got == want, (case, t, alpha)
    if edit:
        assert any(got is not True for *_, got in calls)
