"""Generated model families, kept in the tests and not shipped as fixtures.

`flat_combiner(n)` is the shipped `flat-combiner` model and outline widened
to n threads: each thread publishes its task in its own `arg[i]`/`res[i]`
slot, and the thread holding the lock helps every slot in turn.  At n = 2
it is the shipped fixture.  `dcsl_cell(nvalues, nthreads)` is the shipped
`dcsl-cell` model widened to more values and threads; the shipped outline
proves it.
"""

from __future__ import annotations

import json
from typing import Tuple

from relviews.fixtures import fixture_path

_HELPING_MACROS = ("TASKMID", "TASKMID2")


def _load(filename: str, name: str = "flat-combiner") -> dict:
    with open(fixture_path(name, filename)) as fh:
        return json.load(fh)


def dcsl_cell(nvalues: int, nthreads: int) -> dict:
    """dcsl-cell with values 0..nvalues-1 and nthreads threads."""
    doc = _load("model.json", "dcsl-cell")
    vals = list(range(nvalues))
    dom = doc["domains"]
    dom.update(values=vals, modulus=nvalues, threads=nthreads)
    dom["locations"]["x"] = vals
    dom["abstract_locations"]["X"] = vals
    doc["methods"]["put"]["args"] = vals
    return doc


def _for_slot(doc, i: int):
    """Thread 1's helping choice, rewritten for slot i: `[1]` becomes `[i]`
    in locations, and i is the slot argument of the helping mids."""
    if isinstance(doc, str):
        return doc.replace("[1]", f"[{i}]")
    if isinstance(doc, list):
        if doc[:1] == ["macro"] and doc[1] in _HELPING_MACROS:
            return [*doc[:3], i]
        return [_for_slot(d, i) for d in doc]
    if isinstance(doc, dict):
        return {k: _for_slot(v, i) for k, v in doc.items()}
    return doc


def flat_combiner(n: int, res1: int = 0) -> Tuple[dict, dict]:
    """(model, outline) of the n-thread flat combiner, n >= 1.  `res1` is
    the initial `res[1]`: 4 makes a variant whose initial state no choice
    of pending commands covers."""
    model, outline = _load("model.json"), _load("outline.json")
    model["name"] = f"flat-combiner-{n}"
    dom = model["domains"]
    dom["threads"] = n
    dom["values"] = list(range(max(4, n) + 1))
    locs = dom["locations"]
    for i in (1, 2):
        del locs[f"arg[{i}]"], locs[f"res[{i}]"]
    locs["L"] = list(range(n + 1))
    init = model["initial"]["concrete"] = {"L": 0, "k": 0}
    for i in range(1, n + 1):
        locs[f"arg[{i}]"], locs[f"res[{i}]"] = [1], [0, 4]
        init[f"arg[{i}]"], init[f"res[{i}]"] = 1, 0
    init["res[1]"] = res1

    # inc's locked branch: cas_succ, one helping choice per slot, store L 0
    locked = model["methods"]["inc"]["body"][3][1][2][1]
    help1 = locked[2]
    locked[2:-1] = [_for_slot(help1, i) for i in range(1, n + 1)]

    # the same in the outline, with a LOCKED mid after cas_succ and after
    # each helping choice
    steps = outline["outlines"]["inc"]["steps"][4]["body"]["steps"][2][
        "left"]["steps"]
    cas_succ, mid, help1, store = steps[0], steps[1], steps[2], steps[-1]
    steps[:] = [cas_succ, mid]
    for i in range(1, n + 1):
        steps += [_for_slot(help1, i), mid]
    steps.append(store)
    return model, outline
