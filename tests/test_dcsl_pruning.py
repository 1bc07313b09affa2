"""DCSL frame pruning against the singleton-frame oracle.

`DcslMonoid.check_action` checks the unit and then only the singleton
frames that hold concrete cells alone and compose with the pre-view.  It
must return exactly what the judgement returns over the unit plus every
singleton (`oracles.singleton_frames`): `True`, or the same
counterexample, frame and world included.
"""

import copy
import json
import random
from collections import Counter

import pytest

from relviews.cli import main
from relviews.command_lang import (
    AbstractTable,
    Eq,
    GuardedUpdate,
    LVar,
    PrimCommand,
    Read,
    TransformerTable,
)
from relviews.monoid_dcsl import UNIT_DCSL, DcslMonoid
from relviews.state_model import FAULT, APCom, enumerate_worlds
from relviews.views_core import (
    ActionCounterexample,
    Semantics,
    check_action_with_frames,
)
from oracles import singleton_frames
from util import PRIMS_1LOC, micro_domains, sample_view, strongest_post

FIX = "src/relviews/fixtures"

CENSUS = PrimCommand("census")


class _CensusTable(TransformerTable):
    """The builtins plus `census`, which stores the number of concrete
    cells into l.  It is not local: a frame changes what it writes, so
    counterexamples at frames other than the unit occur."""

    def arity(self, name):
        return 0 if name == "census" else super().arity(name)

    def apply(self, alpha, t, sigma, modulus):
        if alpha.name != "census":
            return super().apply(alpha, t, sigma, modulus)
        if "l" not in sigma:
            return (FAULT,)
        return (sigma.set("l", len(sigma) % modulus),)


def _monoid(cloc, aloc, nthreads, apcoms):
    dom = micro_domains(cloc=cloc, aloc=aloc, nthreads=nthreads,
                        apcoms=apcoms, values=(0, 1))
    # the abstract op writes its argument to every abstract cell
    op = GuardedUpdate(updates=tuple((loc, LVar("a")) for loc in aloc))
    return DcslMonoid(dom, Semantics(_CensusTable(),
                                     AbstractTable({"op": op}), 2))


OP00, OP11 = APCom("op", 0, 0), APCom("op", 1, 1)
# two concrete cells each, so that a frame can change what census writes
UNIVERSES = {
    "1 thread": ({"l": (0, 1), "m": (0,)}, {"x": (0, 1)}, 1, (OP00, OP11)),
    "2 threads": ({"l": (0, 1), "m": (0,)}, {"x": (0,)}, 2, (OP00,)),
    "2 threads, tokens only": ({"l": (0, 1), "m": (0, 1)}, {}, 2,
                               (OP00, OP11)),
}


def _agree(mono, t, alpha, p, q):
    got = mono.check_action(t, alpha, p, q)
    want = check_action_with_frames(mono, t, alpha, p, q,
                                    singleton_frames(mono.dom))
    assert got == want, (t, alpha, p, q)
    return got


def _concrete_only(frame):
    (w,) = frame
    return not w.abst and not w.toks


def _kind(result):
    if result is True:
        return "holds"
    if result.sigma2 is FAULT:
        return "fault"
    return "unit frame" if result.frame == UNIT_DCSL else "other frame"


@pytest.mark.parametrize("name", sorted(UNIVERSES))
def test_pruned_frames_agree_with_oracle_on_sampled_triples(name):
    mono = _monoid(*UNIVERSES[name])
    worlds = enumerate_worlds(mono.dom)
    unit, *singletons = singleton_frames(mono.dom)
    rng = random.Random(23)
    prims = PRIMS_1LOC + (CENSUS,)
    kinds = Counter()
    for _ in range(400):
        t = rng.choice(mono.dom.thread_ids())
        alpha = rng.choice(prims)
        p = sample_view(rng, worlds, 4)
        # exactly the singletons other than the unit that hold concrete
        # cells alone and compose with p, in the oracle's order
        assert list(mono.frames(p)) == [unit] + [
            r for r in singletons
            if r != unit and _concrete_only(r) and mono.compose(p, r)]
        post = strongest_post(mono, t, alpha, p)
        q = rng.choice([
            sample_view(rng, worlds, 4),
            post if post is not None else frozenset(),
            (post or frozenset()) | sample_view(rng, worlds, 2),
        ])
        result = _agree(mono, t, alpha, p, q)
        assert result is True or isinstance(result, ActionCounterexample)
        kinds[_kind(result)] += 1
    assert set(kinds) == {"holds", "fault", "unit frame", "other frame"}, \
        kinds


RD = APCom("rd", 0, 0)


def test_abstract_and_token_frames_never_fail_first():
    """Two threads, concrete cells l and m under the non-local census, and
    abstract cells x and y.  `rd`'s guard reads y, so a frame that adds y
    alone, or adds the other thread's token, lets more linearization runs
    through; such a frame never fails before the unit or a concrete-only
    frame does."""
    dom = micro_domains(cloc={"l": (0, 1), "m": (0,)},
                        aloc={"x": (0,), "y": (0, 1)}, nthreads=2,
                        apcoms=(OP00, RD), values=(0, 1))
    atable = AbstractTable({
        "op": GuardedUpdate(updates=(("x", LVar("a")),)),
        "rd": GuardedUpdate(guard=Eq(Read("y"), LVar("a"))),
    })
    mono = DcslMonoid(dom, Semantics(_CensusTable(), atable, 2))
    worlds = enumerate_worlds(dom)
    rng = random.Random(31)
    prims = PRIMS_1LOC + (CENSUS,)
    kinds = Counter()
    for _ in range(1500):
        t = rng.choice(dom.thread_ids())
        alpha = rng.choice(prims)
        p = sample_view(rng, worlds, 3)
        post = strongest_post(mono, t, alpha, p) or frozenset()
        q = rng.choice([
            sample_view(rng, worlds, 3),
            post,
            post | sample_view(rng, worlds, 2),
            # only the runs that fire every todo: a frame that blocked a
            # command the unit lets run would fail here
            frozenset(w for w in post if not w.toks.todos()),
        ])
        result = _agree(mono, t, alpha, p, q)
        if result is not True:
            assert result.frame == UNIT_DCSL or _concrete_only(result.frame)
        kinds[_kind(result)] += 1
    assert set(kinds) == {"holds", "fault", "unit frame", "other frame"}, \
        kinds


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
        want = check_action_with_frames(mono, t, alpha, p, q,
                                        singleton_frames(mono.dom))
        assert got == want, (case, t, alpha)
    if edit:
        assert any(got is not True for *_, got in calls)
