"""`Semantics.run` against the reference `oracles.ref_apply`.

The model's `Semantics` runs every primitive as a guarded update, a builtin
as its `command_lang.builtin_update`; the reference keeps one case per
builtin.  Both must give the same results, object for object, or the same
fault or blocked outcome: on every primitive of the shipped fixtures, of
the generated flat combiners and DCSL cells and of generated models, and on
every abstract command, over every heap of the model's domains and the
initial heap with each of its cells dropped; and on each builtin form over
partial heaps, which lack every combination of the cells it names.
"""

import itertools

import pytest
from hypothesis import given, settings

from relviews.command_lang import (
    ID,
    Const,
    Not,
    Plus,
    PrimCommand,
    Read,
    Tid,
)
from relviews.linearizability import Semantics
from relviews.model_io import load_model, parse_model
from relviews.state_model import FAULT, APCom, Heap, enumerate_heaps
from families import dcsl_cell, flat_combiner
from oracles import command_prims, instance_bodies, ref_apply
from util import fixture_manifest, tiny_model_docs


def _outcome(results):
    if results == (FAULT,):
        return "fault"
    return "ran" if results else "blocked"


def _agree(sem, alpha, t, heap):
    """The outcome of the run, which must be the reference's."""
    got, want = sem.run(alpha, t, heap), ref_apply(sem, alpha, t, heap)
    assert len(got) == len(want) and all(
        g is w for g, w in zip(got, want)), (alpha, t, heap, got, want)
    return _outcome(got)


def _heaps(locdoms, initial):
    """Every heap over the location domains, and the initial heap with one
    cell dropped."""
    yield from enumerate_heaps(sorted(locdoms.items()))
    for loc, _v in initial.items():
        yield Heap([kv for kv in initial.items() if kv[0] != loc])


def _check_model(model):
    sem, dom = model.sem, model.dom
    prims = {p for body in instance_bodies(model).values()
             for p in command_prims(body)}
    apcoms = [APCom(m, a, r) for m in model.methods()
              for a in model.method_args[m] for r in dom.values]
    assert prims and apcoms
    outcomes = set()
    for heap in _heaps(dict(dom.cloc), model.init_conc):
        for alpha, t in itertools.product(prims, dom.thread_ids()):
            outcomes.add(_agree(sem, alpha, t, heap))
    for heap in _heaps(dict(dom.aloc), model.init_abst):
        for ap, t in itertools.product(apcoms, dom.thread_ids()):
            outcomes.add(_agree(sem, ap, t, heap))
    return outcomes


_MODELS = {
    **{fx.name: (lambda fx=fx: load_model(fx.model_path))
       for fx in fixture_manifest()},
    **{f"flat-combiner-{n}": (lambda n=n: parse_model(flat_combiner(n)[0]))
       for n in (2, 3)},
    "dcsl-cell-v3-t3": lambda: parse_model(dcsl_cell(3, 3)),
}


@pytest.mark.parametrize("name", sorted(_MODELS))
def test_every_model_run_matches_the_reference(name):
    assert "ran" in _check_model(_MODELS[name]())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(doc=tiny_model_docs())
def test_every_generated_model_run_matches_the_reference(doc):
    _check_model(parse_model(doc))


LOCS = ("x", "y", "c[{t}]")
EXPRS = (Const(0), Const(1), Tid(), *map(Read, LOCS),
         Plus(Read("y"), Const(1)), Not(Read("y")))


def _forms():
    """Each builtin, over the locations and expressions above."""
    yield ID
    for e in EXPRS:
        yield PrimCommand("assume", (e,))
    for loc, e in itertools.product(LOCS, EXPRS):
        yield PrimCommand("store", (Read(loc), e))
    for src, dst in itertools.product(LOCS, repeat=2):
        yield PrimCommand("load", (Read(src), Read(dst)))
    for name in ("cas_succ", "cas_fail"):
        for loc, old, new in itertools.product(LOCS, EXPRS, EXPRS):
            yield PrimCommand(name, (Read(loc), old, new))


def test_every_builtin_form_matches_the_reference():
    sem = Semantics({}, {}, 2)
    cells = ("x", "y", "c[1]", "c[2]")
    # every partial heap over the cells: each is absent, 0 or 1
    heaps = [Heap([(c, v) for c, v in zip(cells, vals) if v is not None])
             for vals in itertools.product((None, 0, 1), repeat=len(cells))]
    outcomes = {}
    for alpha, heap, t in itertools.product(_forms(), heaps, (1, 2)):
        outcomes.setdefault(alpha.name, set()).add(
            _agree(sem, alpha, t, heap))
    assert outcomes == {
        "id": {"ran"},
        "assume": {"fault", "blocked", "ran"},
        "store": {"fault", "ran"},
        "load": {"fault", "ran"},
        "cas_succ": {"fault", "blocked", "ran"},
        "cas_fail": {"fault", "blocked", "ran"},
    }


def test_a_failing_cas_faults_where_its_new_value_does():
    # cas_succ evaluates its new value even where the comparison fails;
    # cas_fail never reads it
    heap = Heap({"x": 1})
    succ = PrimCommand("cas_succ", (Read("x"), Const(0), Read("y")))
    fail = PrimCommand("cas_fail", (Read("x"), Const(0), Read("y")))
    sem = Semantics({}, {}, 2)
    assert sem.run(succ, 1, heap) == ref_apply(sem, succ, 1, heap) == (FAULT,)
    assert sem.run(fail, 1, heap) == ref_apply(sem, fail, 1, heap) == (heap,)
