"""The node-mutation sweep over the shipped fixtures.

Every node of a fixture's model and outline documents is replaced in turn
by each of `VALUES`, and `relviews.cli.main` runs once on the result
(`check-proof` where the fixture has an outline, else `check-lin`).  Each
run must end in exit 0, 1 or 2 without a traceback; no exit-2 message may
be Python's own exception text; and a fault in a model's `macros` is never
named under the outline document.

The tier-1 test sweeps every node of `atomic-inc` and `dcsl-cell` and a
seeded sample of the other fixtures' nodes.  Run as a script, the module
sweeps every node of every fixture and prints the exit-code census:

    PYTHONPATH=src python tests/test_shape_sweep.py
"""

import contextlib
import io
import json
import os
import random
import sys
import tempfile
from collections import Counter

import pytest

from relviews.cli import main
from relviews.fixtures import FIXTURE_ROOT

VALUES = (5, "x", [], {}, None, [5], {"a": 5})
# phrases of Python's own exception text, which no load error may show
PYTHON_TEXT = ("unhashable type", "can only concatenate", "has no len()",
               "is not subscriptable", "is not iterable", "values to unpack",
               "has no attribute", "NoneType")
FULL = ("atomic-inc", "dcsl-cell")
SAMPLE = 500  # nodes drawn from the other fixtures by the tier-1 test


def _fixtures():
    return sorted(name for name in os.listdir(FIXTURE_ROOT)
                  if os.path.isdir(os.path.join(FIXTURE_ROOT, name)))


def _documents(name):
    """The fixture's documents by kind: its model and any outline."""
    docs = {}
    for kind in ("model", "outline"):
        path = os.path.join(FIXTURE_ROOT, name, f"{kind}.json")
        if os.path.exists(path):
            with open(path) as fh:
                docs[kind] = json.load(fh)
    return docs


def _nodes(doc, keys=()):
    """The key path of every node of doc, the root's first."""
    yield keys
    items = (enumerate(doc) if type(doc) is list else
             doc.items() if type(doc) is dict else ())
    for key, sub in items:
        yield from _nodes(sub, keys + (key,))


def _replaced(doc, keys, value):
    """doc with the node at `keys` replaced by value; doc is not changed."""
    if not keys:
        return value
    out = doc.copy()
    out[keys[0]] = _replaced(doc[keys[0]], keys[1:], value)
    return out


def sites(names=None, sample=None, seed=0):
    """(fixture, document kind, key path) of the nodes to mutate: every
    node of the fixtures `names` (all if None), and `sample` of the other
    fixtures' nodes drawn with `seed`."""
    full = [(name, kind, keys) for name in _fixtures()
            if names is None or name in names
            for kind, doc in _documents(name).items()
            for keys in _nodes(doc)]
    if not sample:
        return full
    rest = [(name, kind, keys) for name in _fixtures() if name not in names
            for kind, doc in _documents(name).items()
            for keys in _nodes(doc)]
    return full + random.Random(seed).sample(rest, sample)


def run(name, kind, keys, value, tmp):
    """(exit code, stderr, outline path) of one mutated run."""
    docs = _documents(name)
    docs[kind] = _replaced(docs[kind], keys, value)
    paths = {}
    for k, doc in docs.items():
        paths[k] = os.path.join(tmp, f"{k}.json")
        with open(paths[k], "w") as fh:
            json.dump(doc, fh)
    argv = (["check-proof", paths["model"], paths["outline"]]
            if "outline" in paths else
            ["check-lin", paths["model"], "--bound", "4"])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv + ["--cap", "20000"])
        except Exception as exc:  # a traceback: reported, not raised
            code, err = "traceback", io.StringIO(f"{type(exc).__name__}: "
                                                 f"{exc}")
    return code, err.getvalue(), paths.get("outline")


def faults(name, kind, keys, value, code, err, outline):
    """What is wrong with one run's outcome, if anything."""
    where = f"{name} {kind} {'/'.join(map(str, keys))} = {value!r}"
    if code not in (0, 1, 2):
        return [f"{where}: exit {code}: {err}"]
    out = []
    if code == 2:
        out += [f"{where}: Python's text {phrase!r}: {err}"
                for phrase in PYTHON_TEXT if phrase in err]
    # an emptied params list is contradicted by the outline's own
    # applications of the macro, which the outline's error names
    emptied = keys[2:] == ("params",) and value == []
    if kind == "model" and keys[:1] == ("macros",) and outline and \
            outline in err and not (emptied and "expects 0 arguments" in err):
        out.append(f"{where}: a model macro fault named under the outline: "
                   f"{err}")
    return out


def sweep(site_list):
    """(census of exit codes, faults) over every site and value."""
    census, found = Counter(), []
    with tempfile.TemporaryDirectory() as tmp:
        for name, kind, keys in site_list:
            for value in VALUES:
                code, err, outline = run(name, kind, keys, value, tmp)
                census[code] += 1
                found += faults(name, kind, keys, value, code, err, outline)
    return census, found


@pytest.mark.parametrize("part", ["full", "sample"])
def test_every_mutated_document_is_named_not_crashed(part):
    site_list = (sites(FULL) if part == "full" else
                 sites(FULL, SAMPLE)[len(sites(FULL)):])
    census, found = sweep(site_list)
    assert sum(census.values()) == len(site_list) * len(VALUES)
    assert not found, "\n".join(found[:20])


if __name__ == "__main__":
    census, found = sweep(sites())
    print("runs:", sum(census.values()),
          " ".join(f"exit {code}: {n}" for code, n in sorted(
              census.items(), key=lambda kv: str(kv[0]))))
    for line in found:
        print(line)
    print("faults:", len(found))
    sys.exit(1 if found else 0)
