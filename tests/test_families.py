"""The generated N-thread flat combiner: at N = 2 it is the shipped
fixture, and at N = 3 its proof is accepted, its histories are included,
and the variant with a task already published is rejected where the
shipped proofs never are, at initial coverage."""

import json

import pytest

from relviews.cli import main
from relviews.fixtures import fixture_path

from families import flat_combiner


def _write(tmp_path, n, res1=0):
    model, outline = flat_combiner(n, res1)
    paths = tmp_path / "model.json", tmp_path / "outline.json"
    for path, doc in zip(paths, (model, outline)):
        path.write_text(json.dumps(doc))
    return [str(p) for p in paths]


def _machine(capsys, *argv):
    code = main([*argv, "--format", "machine"])
    return code, json.loads(capsys.readouterr().out)


def test_two_threads_is_the_shipped_fixture():
    model, outline = flat_combiner(2)
    with open(fixture_path("flat-combiner", "model.json")) as fh:
        shipped = json.load(fh)
    with open(fixture_path("flat-combiner", "outline.json")) as fh:
        shipped_outline = json.load(fh)
    assert model.pop("name") == "flat-combiner-2"
    del shipped["name"]
    assert model == shipped
    assert outline == shipped_outline


def test_three_threads_proof_accepted(capsys, tmp_path):
    code, doc = _machine(capsys, "check-proof", *_write(tmp_path, 3))
    assert (code, doc["verdict"]) == (0, "proof accepted"), doc["detail"]


def test_three_threads_linearizable_up_to_bound_ten(capsys, tmp_path):
    model, _outline = _write(tmp_path, 3)
    code, doc = _machine(capsys, "check-lin", model, "--bound", "10")
    assert (code, doc["verdict"]) == (0, "no violation up to bound 10")


def test_three_threads_with_a_published_task_fail_initial_coverage(
        capsys, tmp_path):
    code, doc = _machine(capsys, "check-proof", *_write(tmp_path, 3, res1=4))
    assert (code, doc["verdict"]) == (1, "proof rejected")
    first = doc["detail"].split("first failure: ", 1)[1]
    assert first.startswith("initial coverage"), first
