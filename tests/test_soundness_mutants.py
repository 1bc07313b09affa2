"""Soundness on mutants: an accepted proof outline makes the library
linearizable (the paper's Theorem 1), so whenever `check-proof` accepts a
mutant of a shipped outline fixture or of the three-thread flat combiner,
`check-lin` must pass it up to bound 8.

Each mutation is made to the method body and the outline alike, so the
outline still annotates the body and the mutant is judged on its
assertions:
- a constant in a store or an `assume` guard is raised by one;
- a store becomes `["prim", "id"]`;
- a choice's branches are swapped;
- a CAS (`cas_succ`) becomes a plain store of its new value.
The mutants are enumerated in a fixed order, with no randomness.
"""

import copy
import json

from families import flat_combiner
from relviews.errors import ModelError
from relviews.fixtures import fixture_path
from relviews.linearizability import check_linearizable, check_obligations
from relviews.model_io import attach_outlines, parse_model
from util import first_failure

OUTLINED = ("atomic-inc", "dcsl-cell", "dcsl-helping", "flat-combiner",
            "flat-combiner-noaction4")
PRIM_HEADS = ("assume", "store", "load", "prim", "cas")
LIN_BOUND = 8


def _sources():
    """(name, model document, outline document) of each subject."""
    for name in OUTLINED:
        with open(fixture_path(name, "model.json")) as fh, \
                open(fixture_path(name, "outline.json")) as gh:
            yield name, json.load(fh), json.load(gh)
    yield ("flat-combiner-3", *flat_combiner(3))


def _body_nodes(cmd, want):
    """The body's primitive commands (want "prim") or choices (want
    "choice"), in pre-order."""
    if not isinstance(cmd, list) or not cmd:
        return []
    head = cmd[0]
    if head in PRIM_HEADS:
        return [cmd] if want == "prim" else []
    out = [cmd] if head == want else []
    for child in cmd[1:]:
        out += _body_nodes(child, want)
    return out


def _outline_nodes(node, want):
    """The outline nodes of kind `want`, in pre-order: they annotate the
    body's nodes of that kind in order."""
    if not isinstance(node, dict):
        return []
    out = [node] if node.get("kind") == want else []
    for key in ("steps", "left", "right", "body", "inner"):
        value = node.get(key)
        for child in value if isinstance(value, list) else [value]:
            out += _outline_nodes(child, want)
    return out


def _constants(expr, path=()):
    """Paths to the integer constants of a JSON expression."""
    if isinstance(expr, bool):
        return []
    if isinstance(expr, int):
        return [path]
    if not isinstance(expr, list) or not expr or expr[0] in ("read", "var"):
        return []
    if expr[0] == "const":
        return [path + (1,)]
    return [p for i, e in enumerate(expr[1:], 1)
            for p in _constants(e, path + (i,))]


def _raised(cmd, path):
    cmd = copy.deepcopy(cmd)
    *outer, last = path
    node = cmd
    for i in outer:
        node = node[i]
    node[last] += 1
    return cmd


def _prim_mutants(cmd):
    """(label, replacement) per mutation of one primitive command."""
    head = cmd[0]
    if head in ("store", "assume"):
        for path in _constants(cmd):
            yield f"constant {path}", _raised(cmd, path)
    if head == "store":
        yield "store to id", ["prim", "id"]
    if cmd[:2] == ["prim", "cas_succ"]:
        _name, (_read, loc), _old, new = cmd[1:]
        yield "cas to store", ["store", loc, new]


def _mutants(model, outline):
    """(label, model document, outline document) per mutant."""
    for m, spec in model["methods"].items():
        body = spec["body"]
        prims = _body_nodes(body, "prim")
        nodes = _outline_nodes(outline["outlines"][m], "prim")
        assert [n["cmd"] for n in nodes] == prims
        for k, cmd in enumerate(prims):
            for label, new in _prim_mutants(cmd):
                model2, outline2 = copy.deepcopy((model, outline))
                _body_nodes(model2["methods"][m]["body"], "prim")[k][:] = new
                _outline_nodes(outline2["outlines"][m], "prim")[k]["cmd"] = \
                    new
                yield f"{m} #{k} {label}", model2, outline2
        for k in range(len(_body_nodes(body, "choice"))):
            model2, outline2 = copy.deepcopy((model, outline))
            choice = _body_nodes(model2["methods"][m]["body"], "choice")[k]
            choice[1], choice[2] = choice[2], choice[1]
            node = _outline_nodes(outline2["outlines"][m], "choice")[k]
            node["left"], node["right"] = node["right"], node["left"]
            yield f"{m} choice #{k} swapped", model2, outline2


def test_accepted_mutants_are_linearizable():
    counts = {"accepted": 0, "rejected": 0, "refused at load": 0}
    unsound = []
    for name, model_doc, outline_doc in _sources():
        for label, model2, outline2 in _mutants(model_doc, outline_doc):
            try:
                model = parse_model(model2, name)
                attach_outlines(outline2, model, name)
            except ModelError:
                counts["refused at load"] += 1
                continue
            if first_failure(check_obligations(model)):
                counts["rejected"] += 1
                continue
            counts["accepted"] += 1
            res = check_linearizable(model, LIN_BOUND)
            if not res.ok:
                unsound.append((name, label, res.counterexample))
    print(f"mutants: {counts}")
    assert not unsound
    assert counts["accepted"] and counts["rejected"]
