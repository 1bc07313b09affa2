"""The initial-coverage obligation: the pruned search over threads against
the product of every combination of pending commands."""

import copy
import gc
import itertools
import json
import weakref

import pytest

from relviews.logic import AssertionEnv
from relviews.linearizability import (
    ObligationItem,
    check_obligations,
    initial_coverage,
)
from relviews.model_io import (
    attach_outlines,
    load_model,
    load_outlines,
    parse_model,
)
from relviews.state_model import APCom
from families import dcsl_cell, flat_combiner
from oracles import initial_coverage_by_product
from util import first_failure, fixture_manifest

FIX = "src/relviews/fixtures"
OUTLINED = ("atomic-inc", "dcsl-cell", "dcsl-helping", "flat-combiner",
            "flat-combiner-noaction4")


def _doc(name: str) -> dict:
    with open(f"{FIX}/{name}/model.json") as fh:
        return json.load(fh)


def _insts(model):
    return [APCom(m, a, r) for m in model.methods()
            for a in model.method_args[m] for r in model.dom.values]


def _agree(model):
    """The search's item, which the product's must equal; an error from
    either fails the test."""
    got = initial_coverage(model, _insts(model))
    assert isinstance(got, ObligationItem), got
    assert got == initial_coverage_by_product(model)
    return got


def atomic_inc(nthreads: int, k: int = 0) -> dict:
    """atomic-inc with nthreads threads and the concrete counter starting
    at k; the abstract one starts at 0, so k != 0 is not covered."""
    doc = _doc("atomic-inc")
    doc["domains"]["threads"] = nthreads
    doc["initial"]["concrete"]["k"] = k
    return doc


@pytest.mark.parametrize("name", OUTLINED)
def test_outline_fixtures_agree_with_the_product(name):
    _agree(load_model(f"{FIX}/{name}/model.json"))


@pytest.mark.parametrize("nthreads,covered", [(3, False), (2, False),
                                               (1, True)])
def test_widened_dcsl_cell_agrees_with_the_product(nthreads, covered):
    item = _agree(parse_model(dcsl_cell(3, nthreads)))
    assert item.ok is covered


@pytest.mark.parametrize("n,res1", [(2, 0), (2, 4), (3, 4)])
def test_flat_combiner_family_agrees_with_the_product(n, res1):
    """RGSep preconditions composed over shared states: no choice of
    pending commands covers an initial res[1] of 4."""
    item = _agree(parse_model(flat_combiner(n, res1)[0]))
    assert item.ok is (res1 == 0)


@pytest.mark.parametrize("name", OUTLINED)
def test_every_initial_cell_value_agrees_with_the_product(name):
    """Each initial cell, concrete or abstract, set to each value of its
    domain in turn, on each fixture with pre families.  The monoid and the
    preconditions do not read the initial states, so the variants share
    the model's."""
    model = load_model(f"{FIX}/{name}/model.json")
    _agree(model)
    for side, locdoms in (("init_conc", model.dom.cloc),
                          ("init_abst", model.dom.aloc)):
        for loc, values in locdoms:
            if loc not in getattr(model, side):
                continue
            for v in values:
                variant = copy.copy(model)
                setattr(variant, side,
                        getattr(model, side).set_many([(loc, v)]))
                _agree(variant)


@pytest.mark.parametrize("nthreads", [3, 4, 5, 6])
@pytest.mark.parametrize("k", [0, 1])
def test_atomic_inc_threads_agree_with_the_product(nthreads, k):
    item = _agree(parse_model(atomic_inc(nthreads, k)))
    assert item.ok is (k == 0)


def _unstable_models():
    """atomic-inc with two threads whose inc precondition holds only with
    expected return 2, plus, at one (thread, expected return) position or
    at each of two, a disjunct that boxes the shared counter at 0: the
    other thread's increments move it, so the precondition there is
    unstable where the expected return is not 2."""
    def eq(name, v):
        return ["pure", ["==", ["var", name], v]]

    model_doc = atomic_inc(2)
    pre = model_doc["assertions"]["inc"]["pre"]
    todo = pre[2]
    with open(f"{FIX}/atomic-inc/outline.json") as fh:
        outline = json.load(fh)
    positions = [(t, r) for t in (1, 2)
                 for r in model_doc["domains"]["values"]]
    for bad in itertools.chain(itertools.combinations(positions, 1),
                               itertools.permutations(positions, 2)):
        doc = copy.deepcopy(model_doc)
        doc["assertions"]["inc"]["pre"] = ["or", ["star", eq("r", 2), pre], *(
            ["star", eq("t", t), eq("r", r),
             ["box", ["macro", "kinv", 0]], todo] for t, r in bad)]
        model = parse_model(doc)
        attach_outlines(outline, model)
        yield model


def test_an_unstable_precondition_changes_only_the_coverage_line():
    """The search evaluates a precondition on first use, so it may meet
    another unstable precondition than the product, or none.  That
    precondition already fails the earlier obligations, so the report's
    verdict and first failure are those it has with the product's
    coverage line."""
    seen = set()
    for model in _unstable_models():
        items = check_obligations(model)
        *earlier, coverage = items
        want = earlier + [initial_coverage_by_product(model)]
        fail = first_failure(items)
        assert fail is not None and first_failure(want) is not None
        assert fail == first_failure(want)
        assert fail is not coverage
        seen.add(coverage == want[-1])
    assert seen == {True, False}


def _counted_evaluations(monkeypatch, limit: int) -> list:
    """Count `AssertionEnv.eval` calls from here on, failing past limit,
    so that an exhaustive product fails at once rather than slowly."""
    calls = []
    original = AssertionEnv.eval

    def counted(env, rho, interp):
        calls.append(rho)
        assert len(calls) <= limit, f"more than {limit} evaluations"
        return original(env, rho, interp)

    monkeypatch.setattr(AssertionEnv, "eval", counted)
    return calls


@pytest.mark.parametrize("doc,limit", [
    (atomic_inc(8, k=1), 8 * 4),
    (dcsl_cell(3, 2), 2 * 9),
], ids=["atomic-inc-t8-k1", "dcsl-cell-v3-t2"])
def test_coverage_evaluates_each_precondition_once(monkeypatch, doc, limit):
    """A rejected model: the product tries |insts|^N combinations (65,536
    for atomic-inc at 8 threads); the search evaluates each (thread,
    instance) precondition at most once."""
    model = parse_model(doc)
    insts = _insts(model)
    assert len(model.dom.thread_ids()) * len(insts) == limit
    model.monoid()
    calls = _counted_evaluations(monkeypatch, limit)
    item = initial_coverage(model, insts)
    assert not item.ok and item.detail.startswith("no choice of pending")
    assert 0 < len(calls) <= limit


@pytest.mark.parametrize("fx", fixture_manifest(), ids=lambda f: f.name)
def test_the_model_lists_instances_in_search_order(fx):
    """`check_obligations` passes `dom.apcoms` as the instance list: every
    (method, argument, expected return), methods sorted."""
    model = load_model(fx.model_path)
    assert model.dom.apcoms == tuple(_insts(model))


@pytest.mark.parametrize("name", OUTLINED)
def test_the_monoid_dies_with_the_model_without_the_cycle_collector(name):
    """Nothing the obligations check builds refers back to itself: once
    the model is dropped, its monoid dies by reference counting alone."""
    model = load_model(f"{FIX}/{name}/model.json")
    load_outlines(f"{FIX}/{name}/outline.json", model)
    gc.collect()
    gc.disable()
    try:
        check_obligations(model)
        monoid = weakref.ref(model.monoid())
        del model
        assert monoid() is None
    finally:
        gc.enable()
