"""Command, assertion and outline tree nodes are hash-consed.

Constructing a node returns the one node of its class with equal fields,
kept in the process-wide table `command_lang._NODES`, so equal trees are
one object.  A node hashes by identity, in C, as heaps and token maps do,
so set and dict order of nodes follows object addresses; no report may
depend on it, which CI checks by comparing each report under hash seeds
0 and 1 and under seed 0 again.  Copying, deep-copying and unpickling a
tree give the canonical nodes of the process, also in a process with a
different `PYTHONHASHSEED` from the one that pickled it.
"""

import copy
import inspect
import os
import pickle
import subprocess
import sys

import pytest

from relviews.command_lang import (
    _NODE_CLASSES,
    _NODES,
    Const,
    LVar,
    Plus,
    PrimCommand,
    Read,
    Tid,
    step,
)
from relviews.linearizability import all_instances
from relviews.logic import OConseq, OPrim
from relviews.model_io import _erase, load_model, load_outlines
from relviews.subst import subst
from relviews.vassn import TokA, TrueA

from oracles import instance_bodies, reachable_commands
from util import fixture_manifest, instance_outline

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
    bodies = instance_bodies(model)
    out = [bodies, model.body_templates, model.pre_templates,
           model.post_templates, model.outline_templates, model.actions,
           model.shared_universe_assn]
    for body in bodies.values():
        for c in sorted(reachable_commands(body), key=repr):
            out.append(c)
            out.extend(sorted(step(c), key=repr))
    if model.outline_templates:
        for inst in all_instances(model):
            node, pre, post, binding = instance_outline(model, *inst)
            out.append((node, pre, post, tuple(binding.items())))
    return out


def _is_node(x):
    return not isinstance(x, tuple) and hasattr(type(x), "_fields")


def _fields(node):
    return tuple(getattr(node, n) for n in type(node)._fields)


def _nodes(x):
    """The tree nodes under x, parents before children.  Callers keep sets
    out of x: their order follows the hash seed."""
    if _is_node(x):
        yield x
        for v in _fields(x):
            yield from _nodes(v)
    elif isinstance(x, (tuple, list)):
        for e in x:
            yield from _nodes(e)
    elif isinstance(x, dict):
        for k, v in x.items():
            yield from _nodes(k)
            yield from _nodes(v)


def _canonical(x):
    """Every node under x is the table's node for its class and fields."""
    return all(_NODES.get((type(n), _fields(n))) is n for n in _nodes(x))


def _hashed_by_identity(nodes) -> bool:
    return all(hash(n) == object.__hash__(n) for n in nodes)


def _copies_are_canonical(trees, nodes) -> bool:
    """Copied, deep-copied and unpickled, the trees are the nodes listed."""
    if not all(copy.copy(n) is n for n in nodes):
        return False
    for rebuilt in (copy.deepcopy(trees), pickle.loads(pickle.dumps(trees))):
        back = list(_nodes(rebuilt))
        if len(back) != len(nodes) or any(
                a is not b for a, b in zip(back, nodes)):
            return False
    return True


def test_fields_are_the_annotated_names_in_order():
    assert PrimCommand._fields == ("name", "args")
    assert TokA._fields == ("kind", "tid", "method", "arg", "ret")
    assert OConseq._fields == ("pre", "post", "inner")
    assert Tid._fields == () and TrueA._fields == ()
    # a default, keywords and positions name the same node
    assert (PrimCommand("id") is PrimCommand("id", ())
            is PrimCommand(args=(), name="id"))
    with pytest.raises(TypeError):
        Plus(Const(1))
    with pytest.raises(TypeError):
        Read("l", loc="m")


def test_every_node_class_has_its_annotations_as_fields():
    assert _NODE_CLASSES
    for cls in _NODE_CLASSES:
        assert cls._fields == tuple(inspect.get_annotations(cls)), cls


def _signature(cls):
    """The signature a node constructor binds: the class's annotated
    fields, each defaulting to the class attribute of its name, if any."""
    return inspect.Signature([
        inspect.Parameter(n, inspect.Parameter.POSITIONAL_OR_KEYWORD,
                          default=vars(cls).get(n, inspect.Parameter.empty))
        for n in inspect.get_annotations(cls)])


@pytest.mark.parametrize("cls,args,kwargs", [
    (Read, ("l",), {"loc": "m"}),
    (Plus, (Const(1), Const(2)), {"a": Const(3)}),
    (Read, (), {"loc": "l", "x": 1}),
    (PrimCommand, ("id",), {"arity": 0}),
    (Read, ("l", "m"), {}),
    (PrimCommand, ("id", (), 0), {}),
    (Tid, (Const(1),), {}),
    (Plus, (Const(1),), {}),
    (PrimCommand, (), {"args": ()}),
    (Plus, (Const(1), Const(2), Const(3)), {"a": Const(3)}),
    (Read, (), {"x": 1}),
], ids=["duplicated", "duplicated-second", "unknown-keyword",
        "unknown-keyword-after-default", "too-many", "too-many-after-default",
        "too-many-for-none", "missing", "missing-before-default",
        "duplicated-before-too-many", "missing-before-unknown"])
def test_a_bad_call_raises_what_signature_binding_raises(cls, args, kwargs):
    """A call that does not bind raises the `TypeError` that binding it to
    the class's signature raises, message included; the first fault is
    reported where a call has more than one."""
    with pytest.raises(TypeError) as want:
        _signature(cls).bind(*args, **kwargs)
    with pytest.raises(TypeError) as got:
        cls(*args, **kwargs)
    assert str(got.value) == str(want.value)


def test_a_good_call_binds_as_the_signature_does():
    for cls, args, kwargs in [
            (PrimCommand, ("id",), {}), (PrimCommand, (), {"name": "id"}),
            (PrimCommand, ("cas",), {"args": (Read("l"),)}),
            (Plus, (), {"b": Const(2), "a": Const(1)}),
            (Plus, (Const(1),), {"b": Const(2)}), (Tid, (), {})]:
        bound = _signature(cls).bind(*args, **kwargs)
        bound.apply_defaults()
        node = cls(*args, **kwargs)
        assert node is cls(*bound.args)
        assert tuple(getattr(node, n) for n in cls._fields) == bound.args


def test_a_node_hashes_by_identity():
    for fx in fixture_manifest():
        nodes = list(_nodes(_trees(_load(fx))))
        assert nodes, fx.name
        assert _hashed_by_identity(nodes), fx.name
        assert not any("_hash" in vars(n) for n in nodes), fx.name
    assert all("__hash__" not in vars(cls) for cls in _NODE_CLASSES)


def test_equal_trees_built_apart_hash_alike():
    """Two loads of a fixture give the same objects: its bodies, templates,
    actions, shared universe and instance outlines, and every node under
    them."""
    for fx in fixture_manifest():
        one = list(_nodes(_trees(_load(fx))))
        other = list(_nodes(_trees(_load(fx))))
        assert len(one) == len(other), fx.name
        assert all(a is b for a, b in zip(one, other)), fx.name


def test_second_load_adds_no_node():
    for fx in fixture_manifest():
        _trees(_load(fx))
        size = len(_NODES)
        again = _trees(_load(fx))
        assert len(_NODES) == size, fx.name
        assert _canonical(again), fx.name


def test_rebuilt_nodes_are_canonical():
    for fx in fixture_manifest():
        model = _load(fx)
        trees = _trees(model)
        nodes = list(_nodes(trees))
        for body in instance_bodies(model).values():
            for c in reachable_commands(body):
                assert _canonical(sorted(step(c), key=repr)), fx.name
        for m, node in model.outline_templates.items():
            assert _erase(node) is model.body_templates[m], (fx.name, m)
        for inst in all_instances(model) if model.outline_templates else ():
            node, _pre, _post, binding = instance_outline(model, *inst)
            prims = [n.prim for n in _nodes(node) if isinstance(n, OPrim)]
            assert _canonical([subst(p, binding) for p in prims])
        assert _copies_are_canonical(trees, nodes), fx.name


def test_fields_cannot_be_assigned_or_deleted():
    node = Plus(LVar("x"), Const(1))
    with pytest.raises(AttributeError):
        node.a = Const(2)
    with pytest.raises(AttributeError):
        node._parts = ()
    with pytest.raises(AttributeError):
        del node.b
    assert node is Plus(LVar("x"), Const(1)) and node.a is LVar("x")


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
        with open(path, "wb") as fh:
            pickle.dump(trees, fh)
    elif cmd == "check":
        with open(path, "rb") as fh:
            trees = pickle.load(fh)
        for fx in fixture_manifest():
            back = list(_nodes(trees[fx.name]))
            fresh = list(_nodes(_trees(_load(fx))))
            assert len(back) == len(fresh), fx.name
            assert all(a is b for a, b in zip(back, fresh)), fx.name
            assert _hashed_by_identity(back), fx.name
            assert _copies_are_canonical(trees[fx.name], back), fx.name
        print(len(trees))


def test_unpickled_trees_rehash_under_their_own_seed(tmp_path):
    blob = str(tmp_path / "trees.pickle")
    _run("1", "dump", blob)
    assert _run("2", "check", blob).strip() == str(len(fixture_manifest()))
