"""Evaluation memo keys against their definition.

`vassn.memo_key(rho, interp)` keys every evaluation memo: two evaluations
may share an entry exactly when they evaluate the same assertion under
interpretations that bind its free logical variables alike.  The key reads
the values through an `itemgetter` built once per hash-consed assertion;
an interpretation that lacks a free name keys on the pairs it has.  Checked
on every assertion node of every fixture's model and outline and of the
3-thread flat combiner, under random interpretations with and without
extra names and with and without each free name: over all of them at
once, two keys are equal exactly when their assertions are one node and
the interpretations bind the same free names to the same values.
"""

import random

from families import flat_combiner
from relviews.command_lang import walk
from relviews.model_io import (
    attach_outlines,
    load_model,
    load_outlines,
    parse_model,
)
from relviews.vassn import (
    APt,
    BoxA,
    CPt,
    EmpA,
    ExistsA,
    OrA,
    PureA,
    StarA,
    TokA,
    TrueA,
    free_lvars,
    memo_key,
)
from util import fixture_manifest

VASSN = (EmpA, CPt, APt, TokA, PureA, StarA, OrA, ExistsA, TrueA, BoxA)
EXTRA = ("t", "a", "r", "zz")


def _models():
    for fx in fixture_manifest():
        model = load_model(fx.model_path)
        if fx.outline_path:
            load_outlines(fx.outline_path, model)
        yield model
    doc, outline = flat_combiner(3)
    model = parse_model(doc)
    attach_outlines(outline, model)
    yield model


def _assertions():
    """Every assertion node of the models and outlines, each once."""
    out = {}
    for model in _models():
        trees = [*model.pre_templates.values(),
                 *model.post_templates.values(),
                 *model.outline_templates.values(),
                 *(a for pair in model.actions.values() for a in pair),
                 *filter(None, [model.shared_universe_assn])]
        for n in walk(*trees):
            if isinstance(n, VASSN):
                out[id(n)] = n
    return list(out.values())


def _interpretations(rng, names, count):
    """Random interpretations over few values, so that many agree: each
    binds each free name most of the time and some extra names."""
    pool = sorted(set(names) | set(EXTRA))
    out = []
    for _ in range(count):
        interp = {n: rng.choice((0, 1, 2)) for n in pool
                  if rng.random() < (0.85 if n in names else 0.5)}
        out.append(dict(rng.sample(list(interp.items()), len(interp))))
    return out


def test_keys_are_equal_exactly_when_the_free_bindings_are():
    rng = random.Random(44)
    assertions = _assertions()
    assert len(assertions) > 100
    meaning_of, key_of = {}, {}  # key -> (assertion, binding), and back
    repeated = partial = extra = 0
    for rho in assertions:
        names = free_lvars(rho)
        for interp in _interpretations(rng, names, 30):
            bound = frozenset((n, v) for n, v in interp.items() if n in names)
            meaning = (rho, bound)
            key = memo_key(rho, interp)
            repeated += meaning in key_of
            partial += len(bound) < len(names)
            extra += not interp.keys() <= names
            assert meaning_of.setdefault(key, meaning) == meaning, (
                rho, interp)
            assert key_of.setdefault(meaning, key) == key, (rho, interp)
    # bindings recurred, some without a free name and some with extra names
    assert min(repeated, partial, extra) > 500, (repeated, partial, extra)
