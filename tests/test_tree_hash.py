"""Command and assertion tree nodes cache their hash.

The cached value must equal the hash a frozen dataclass generates (the
hash of its field tuple), so set and dict iteration order, and with it
every report, stay as they were.  A cached hash of a tree holding strings
is valid only under the hash seed that computed it, so it must never cross
a process boundary: these tests unpickle hashed trees in a process with a
different `PYTHONHASHSEED`.
"""

import os
import pickle
import subprocess
import sys
from dataclasses import fields, is_dataclass

from relviews.command_lang import step
from relviews.fixtures import fixture_manifest
from relviews.linearizability import all_instances
from relviews.model_io import load_model, load_outlines

from oracles import reachable_commands

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")


def _load(fixture):
    model = load_model(fixture.model_path)
    if fixture.outline_path:
        load_outlines(fixture.outline_path, model)
    return model


def _trees(model):
    """Every command and assertion tree a check of the model touches: the
    bodies and the commands `step` reaches from them (with the fired
    primitives), the parsed templates, actions and shared universe, and
    each instance's outline: the method's templates and its bindings."""
    out = [model.bodies, model.body_templates, model.pre_templates,
           model.post_templates, model.outline_templates, model.actions,
           model.shared_universe_assn]
    for body in model.bodies.values():
        for c in sorted(reachable_commands(body), key=repr):
            out.append(c)
            out.extend(sorted(step(c), key=repr))
    if model.outline_templates:
        out.extend(model.outline(m, t, a, r)
                   for m, t, a, r in all_instances(model))
    return out


def _nodes(x):
    """The dataclass nodes under x, parents before children.  Callers keep
    sets out of x: their order follows the hash seed."""
    if is_dataclass(x):
        yield x
        for f in fields(x):
            yield from _nodes(getattr(x, f.name))
    elif isinstance(x, (tuple, list)):
        for e in x:
            yield from _nodes(e)
    elif isinstance(x, dict):
        for k, v in x.items():
            yield from _nodes(k)
            yield from _nodes(v)


class _Hashed:
    """Stands in for a tuple element whose hash is already known."""

    def __init__(self, h):
        self.h = h

    def __hash__(self):
        return self.h


def _field_tuple_hash(x, memo):
    """The hash a frozen dataclass generates, computed without calling any
    node's own `__hash__`; `memo` maps id(node) to its result."""
    if id(x) in memo:
        return memo[id(x)]
    if is_dataclass(x):
        parts = [getattr(x, f.name) for f in fields(x)]
    elif isinstance(x, tuple):
        parts = x
    else:
        return hash(x)
    h = memo[id(x)] = hash(tuple(_Hashed(_field_tuple_hash(p, memo))
                                 for p in parts))
    return h


def test_cached_hash_is_the_field_tuple_hash():
    for fx in fixture_manifest():
        nodes = list(_nodes(_trees(_load(fx))))
        assert nodes, fx.name
        memo = {}
        for node in nodes:
            # first call computes and caches, second reads the cache
            assert hash(node) == _field_tuple_hash(node, memo), (fx.name, node)
            assert hash(node) == _field_tuple_hash(node, memo), (fx.name, node)


def test_equal_trees_built_apart_hash_alike():
    for fx in fixture_manifest():
        one = list(_nodes(_trees(_load(fx))))
        other = list(_nodes(_trees(_load(fx))))
        assert len(one) == len(other)
        # hash one copy root first, the other leaves first
        hashes = [hash(n) for n in one]
        hashes_other = [hash(n) for n in reversed(other)][::-1]
        assert hashes == hashes_other, fx.name
        assert one == other, fx.name


def _run(seed, *args):
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, TESTS, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, test_tree_hash; test_tree_hash._main(*sys.argv[1:])",
         *args],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _main(cmd, path=None):
    """Subprocess side of the test below."""
    if cmd == "dump":
        trees = {}
        for fx in fixture_manifest():
            trees[fx.name] = _trees(_load(fx))
            for node in _nodes(trees[fx.name]):
                hash(node)
        with open(path, "wb") as fh:
            pickle.dump(trees, fh)
    elif cmd == "check":
        with open(path, "rb") as fh:
            trees = pickle.load(fh)
        for fx in fixture_manifest():
            back = list(_nodes(trees[fx.name]))
            fresh = list(_nodes(_trees(_load(fx))))
            assert back == fresh, fx.name
            for a, b in zip(back, fresh):
                assert hash(a) == hash(b), (fx.name, a)
        print(len(trees))


def test_unpickled_trees_rehash_under_their_own_seed(tmp_path):
    blob = str(tmp_path / "trees.pickle")
    _run("1", "dump", blob)
    assert _run("2", "check", blob).strip() == str(len(fixture_manifest()))

