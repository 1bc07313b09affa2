import json
import os
import subprocess
import sys

import pytest

from relviews import cli, linearizability
from relviews.cli import build_parser, main
from relviews.command_lang import PrimCommand
from relviews.model_io import load_model
from relviews.subst import subst

from util import fixture_manifest

FIX = "src/relviews/fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_lin_ok_exit_zero(capsys):
    code, out, _ = run(capsys, "check-lin", f"{FIX}/atomic-inc/model.json",
                       "--bound", "8")
    assert code == 0
    assert "no violation up to bound 8" in out


def test_check_lin_violation_exit_one(capsys):
    code, out, _ = run(capsys, "check-lin",
                       f"{FIX}/flat-combiner-nolock/model.json",
                       "--bound", "12")
    assert code == 1
    assert "t=1 call inc(1)" in out and "t=1 ret inc(0)" in out


def test_machine_format_agrees_with_text(capsys):
    code, out, _ = run(capsys, "check-lin",
                       f"{FIX}/flat-combiner-nolock/model.json",
                       "--bound", "12", "--format", "machine")
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] is False
    assert doc["counterexample"] == "t=1 call inc(1)\nt=1 ret inc(0)"
    # concrete configurations tabulated and frontiers of both libraries
    assert set(doc["stats"]) == {"configurations", "frontiers"}
    assert doc["stats"]["configurations"] > doc["stats"]["frontiers"] > 1


def test_check_proof_accepts(capsys):
    code, out, _ = run(capsys, "check-proof", f"{FIX}/dcsl-cell/model.json",
                       f"{FIX}/dcsl-cell/outline.json")
    assert code == 0
    assert "proof accepted" in out


def test_check_proof_rejects_helping_in_dcsl(capsys):
    code, out, _ = run(capsys, "check-proof",
                       f"{FIX}/dcsl-helping/model.json",
                       f"{FIX}/dcsl-helping/outline.json")
    assert code == 1
    assert "initial coverage" in out
    assert "token composition" in out


def test_model_error_exit_two(capsys, tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text('{"name": "x"}')
    code, _, err = run(capsys, "check-lin", str(bad), "--bound", "2")
    assert code == 2
    assert "malformed document: missing key 'monoid'" in err


def test_dom_mismatch_exit_two(capsys, tmp_path):
    doc = json.load(open(f"{FIX}/atomic-inc/model.json"))
    del doc["abstract"]["inc"]
    doc["abstract"]["dec"] = {"guard": None, "updates": []}
    bad = tmp_path / "mismatch.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run(capsys, "check-lin", str(bad), "--bound", "2")
    assert code == 2
    assert "dom mismatch" in err


def test_histories_bound_zero_prints_epsilon(capsys):
    code, out, _ = run(capsys, "histories", f"{FIX}/atomic-inc/model.json",
                       "--bound", "0")
    assert code == 0
    assert "ε" in out
    assert "1 histories" in out


def test_histories_abstract_contains_pair(capsys):
    code, out, _ = run(capsys, "histories", f"{FIX}/atomic-inc/model.json",
                       "--side", "abstract", "--bound", "3")
    assert code == 0
    assert "t=1 call inc(1)" in out
    assert "t=1 ret inc(1)" in out


def test_cap_env_var_triggers_universe_error(capsys, monkeypatch):
    monkeypatch.setenv("RELVIEWS_CAP", "2")
    code, _, err = run(capsys, "histories",
                       f"{FIX}/flat-combiner/model.json", "--bound", "6")
    assert code == 2
    assert "cap" in err


def test_cap_env_var_is_read_on_every_call(capsys, monkeypatch):
    """The parser is built once per process, but each `main` call reads
    RELVIEWS_CAP afresh."""
    argv = ("histories", f"{FIX}/flat-combiner/model.json", "--bound", "6",
            "--format", "machine")
    monkeypatch.setenv("RELVIEWS_CAP", "2")
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "cap 2;" in err
    monkeypatch.setenv("RELVIEWS_CAP", "100000")
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == "" and out
    monkeypatch.delenv("RELVIEWS_CAP")
    assert run(capsys, *argv)[:2] == (0, out)
    monkeypatch.setenv("RELVIEWS_CAP", "abc")
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert out.err.splitlines()[-1] == (
        "relviews histories: error: argument --cap: expected an integer "
        ">= 0 (--cap or RELVIEWS_CAP), got 'abc'")
    assert build_parser.cache_info().currsize == 1


def _first_choice(node):
    """The first outline node of kind `choice`, depth first."""
    if isinstance(node, dict):
        if node.get("kind") == "choice":
            return node
        node = list(node.values())
    if isinstance(node, list):
        for child in node:
            found = _first_choice(child)
            if found is not None:
                return found
    return None


def _break_body(doc):
    del doc["methods"]["inc"]["body"]


def _break_action(doc):
    del next(iter(doc["actions"].values()))["post"]


def _break_values(doc):
    doc["domains"]["values"] = "abc"


def _break_placeholder(doc):
    doc["methods"]["inc"]["body"] = ["store", "k[{i}]", 1]


def _break_primitive_loc(doc):
    next(iter(doc["primitives"].values()))["updates"].append(["k[{i}]", 0])


def _break_abstract_loc(doc):
    doc["abstract"]["inc"]["updates"].append(["K[{i}]", 0])


@pytest.mark.parametrize("mutate", [_break_body, _break_action,
                                    _break_values, _break_placeholder,
                                    _break_primitive_loc,
                                    _break_abstract_loc])
def test_malformed_model_exit_two(capsys, tmp_path, mutate):
    doc = json.load(open(f"{FIX}/atomic-inc/model.json"))
    mutate(doc)
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run(capsys, "check-proof", str(bad),
                       f"{FIX}/atomic-inc/outline.json")
    assert code == 2
    assert err.startswith("error:") and str(bad) in err


@pytest.mark.parametrize("body,message", [
    (["prim", "inc_atomic", ["var", "a"]],
     "arity mismatch for 'inc_atomic': takes 2, given 1"),
    (["prim", "mystery"], "command uses undeclared primitive 'mystery'"),
], ids=["arity", "undeclared"])
@pytest.mark.parametrize("argv", [
    ["check-lin", "{model}", "--bound", "2"],
    ["check-proof", "{model}", f"{FIX}/atomic-inc/outline.json"],
    ["histories", "{model}", "--side", "concrete", "--bound", "2"],
], ids=lambda argv: argv[0])
def test_body_primitive_is_checked_at_load(capsys, tmp_path, body, message,
                                           argv):
    """A body's primitives are declared and given as many arguments as
    they take, or loading fails naming the method in the document."""
    doc = json.load(open(f"{FIX}/atomic-inc/model.json"))
    doc["methods"]["inc"]["body"] = body
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, *(a.format(model=bad) for a in argv))
    assert (code, out) == (2, "")
    assert err == f"error: {bad}/methods/inc: {message}\n"


@pytest.mark.parametrize("key,value", [("threads", 0), ("modulus", 0),
                                       ("cap", -1)])
@pytest.mark.parametrize("argv", [
    ["check-lin", "{model}", "--bound", "2"],
    ["check-proof", "{model}", f"{FIX}/atomic-inc/outline.json"],
    ["histories", "{model}", "--side", "concrete", "--bound", "2"],
], ids=lambda argv: argv[0])
def test_degenerate_domain_is_a_model_error(capsys, tmp_path, key, value,
                                            argv):
    doc = json.load(open(f"{FIX}/atomic-inc/model.json"))
    doc["domains"][key] = value
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run(capsys, *(a.format(model=bad) for a in argv))
    assert code == 2
    assert err.startswith("error:") and f"domains.{key}" in err
    assert "Traceback" not in err


def _break_choice(doc):
    del _first_choice(doc)["left"]


def _break_outline_loc(doc):
    doc["outlines"]["inc"] = {"kind": "prim", "cmd": ["store", "k[{i}]", 1]}


@pytest.mark.parametrize("mutate", [_break_choice, _break_outline_loc])
def test_malformed_outline_exit_two(capsys, tmp_path, mutate):
    doc = json.load(open(f"{FIX}/flat-combiner/outline.json"))
    mutate(doc)
    bad = tmp_path / "outline.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run(capsys, "check-proof",
                       f"{FIX}/flat-combiner/model.json", str(bad))
    assert code == 2
    assert err.startswith("error:") and str(bad) in err


def test_an_action_that_cannot_be_denoted_is_a_model_error(capsys,
                                                            tmp_path):
    # an action is denoted under its variables alone, so it may not read
    # the heap; the load error leaves no report behind
    doc = json.load(open(f"{FIX}/atomic-inc/model.json"))
    doc["actions"]["incr"]["post"] = ["pt", "k", ["read", "k"]]
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check-proof", str(bad),
                         f"{FIX}/atomic-inc/outline.json")
    assert (code, out) == (2, "")
    assert err == (f"error: {bad}/actions/incr/post: an assertion may not "
                   "read the heap (location 'k')\n")


def test_an_empty_shared_universe_names_its_document(capsys, tmp_path):
    # deciding emptiness needs the monoid modules, which `check-lin` does
    # not import, so it is found when the monoid is built, not at load;
    # the error still names the document and the path in it
    doc = json.load(open(f"{FIX}/atomic-inc/model.json"))
    doc["shared_universe"] = ["star", ["macro", "kinv_any"],
                              ["pure", ["==", 0, 1]]]
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check-proof", str(bad),
                         f"{FIX}/atomic-inc/outline.json")
    assert (code, out) == (2, "")
    assert err == (f"error: {bad}/shared_universe: declared shared universe "
                   "is empty\n")


def _pre(method, wrap):
    """Set a method's precondition family to wrap(family)."""
    def edit(doc):
        family = doc["assertions"][method]
        family["pre"] = wrap(family["pre"])
    return edit


def _set(keys, value):
    """Set the entry at keys to value, or to value(doc) if it is callable."""
    def edit(doc):
        slot = doc
        for key in keys[:-1]:
            slot = slot[key]
        slot[keys[-1]] = value(doc) if callable(value) else value
    return edit


_INC_PRE = ["assertions", "inc", "pre"]
_K_IS_0 = ["pure", ["==", ["var", "k"], 0]]
# name -> (fixture, edit of its model, command, path, message)
_MALFORMED = {
    # an assertion reads no heap location and no thread id
    "heap-read": (
        "atomic-inc", _set(_INC_PRE + [2, 4], ["read", "k"]), "check-proof",
        "/assertions/inc/pre/star[1]",
        "an assertion may not read the heap (location 'k')"),
    "tid": (
        "dcsl-cell", _pre("put", lambda pre: ["star", pre[1], [
            "todo", ["tid"], "put", ["var", "a"], ["var", "r"]]]),
        "check-proof", "/assertions/put/pre/star[1]",
        'an assertion may not use ["tid"]; its thread is ["var", "t"]'),
    # `true` stands only where a box's body reads it
    "true-outside-box-body": (
        "atomic-inc", _set(_INC_PRE + [1], ["box", [
            "star", ["macro", "kinv_any"], ["or", ["true"], ["emp"]]]]),
        "check-proof", "/assertions/inc/pre",
        "`true` may stand only as a box's body or as a conjunct of the star "
        "that is a box's body"),
    # no box in a dcsl model, an action or the shared universe
    "box-in-dcsl": (
        "dcsl-cell", _pre("put", lambda pre: ["star", ["box", ["emp"]], pre]),
        "check-proof", "/assertions/put/pre",
        "a box may not stand in a dcsl model"),
    "box-in-action": (
        "atomic-inc", _set(["actions", "incr", "pre"],
                           ["box", ["macro", "kinv", ["var", "V"]]]),
        "check-proof", "/actions/incr/pre",
        "a box may not stand in an action"),
    "box-in-universe": (
        "atomic-inc",
        _set(["shared_universe"], ["box", ["macro", "kinv_any"]]),
        "check-proof", "/shared_universe",
        "a box may not stand in the shared universe"),
    # a family binds only t, a and r, the shared universe nothing
    "free-var-in-family": (
        "dcsl-cell", _pre("put", lambda pre: ["star", pre, _K_IS_0]),
        "check-proof", "/assertions/put/pre",
        "unbound logical variable 'k': a pre/post family binds only 't', "
        "'a', 'r'"),
    "free-var-in-universe": (
        "atomic-inc", _set(["shared_universe"], lambda doc: [
            "star", doc["shared_universe"], _K_IS_0]),
        "check-proof", "/shared_universe",
        "unbound logical variable 'k': the shared universe binds none"),
    # an outlined method declares its assertions
    "no-assertions": (
        "dcsl-cell", lambda doc: doc.pop("assertions"), "check-proof", "/put",
        "method 'put' has an outline but its model declares no assertions "
        "for it"),
    # a builtin's location argument is a location
    "location-argument": (
        "dcsl-cell", _set(["methods", "put", "body", 1],
                          ["prim", "store", 0, ["var", "a"]]),
        "check-lin", "/methods/put/seq[0]",
        'argument 1 of \'store\' must be a location ["read", loc], got 0'),
    # a macro's params is a list of names
    "params": (
        "dcsl-cell", _set(["macros", "cell", "params"], "V"), "check-proof",
        "/macros/cell/params", "malformed document: expected a list, got 'V'"),
}


@pytest.mark.parametrize("name", _MALFORMED)
def test_a_malformed_model_is_a_load_error(capsys, tmp_path, name):
    """Each form that a checker cannot give a meaning to is refused at
    load, naming the document and the path in it: before, each of these
    loaded and ended in an error naming no file, a rejected proof or an
    accepted one."""
    fixture, edit, command, where, message = _MALFORMED[name]
    doc = json.load(open(f"{FIX}/{fixture}/model.json"))
    edit(doc)
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(doc))
    outline = f"{FIX}/{fixture}/outline.json"
    code, out, err = run(capsys, command, str(bad), *(
        ["--bound", "4"] if command == "check-lin" else [outline]))
    # an outlined method without assertions is met in the outline document
    named = outline if name == "no-assertions" else bad
    assert (code, out) == (2, "")
    assert err == f"error: {named}{where}: {message}\n"


def test_check_proof_without_method_arguments_gives_a_verdict(capsys,
                                                               tmp_path):
    # no instance at all: the token-swap check compares no families, and
    # no choice of pending commands covers the initial states
    doc = json.load(open(f"{FIX}/atomic-inc/model.json"))
    doc["methods"]["inc"]["args"] = []
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check-proof", str(bad),
                         f"{FIX}/atomic-inc/outline.json", "--format",
                         "machine")
    assert (code, err) == (1, "")
    doc = json.loads(out)
    assert doc["verdict"] == "proof rejected" and doc["ok"] is False
    assert "[pass] (3) token swap thread 1" in doc["detail"]
    assert "first failure: initial coverage library" in doc["detail"]


def test_dropping_a_dcsl_token_fails_the_token_swap(capsys, tmp_path):
    # put's pre may also hold the cell without put's todo: the token swap
    # compares each world without the thread's token and whether it held
    # one, so a world that lacks the token no longer matches a swapped
    # one.  Obligation (2) already fails for that thread, so the verdict
    # and the first failure are those of a check that passed the swap
    doc = json.load(open(f"{FIX}/dcsl-cell/model.json"))
    put = doc["assertions"]["put"]
    put["pre"] = ["or", put["pre"], ["macro", "cell_any"]]
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check-proof", str(bad),
                         f"{FIX}/dcsl-cell/outline.json")
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert lines[0] == "verdict: proof rejected"
    assert "[FAIL] (3) token swap thread 1: pre/post families differ by " \
        "more than the thread's token" in lines
    assert "[FAIL] (2) todo pinned put(a=0,r=0) in thread 1: 2 " \
        "precondition worlds lack todo(put(0,0))" in lines
    first = lines.index("first failure: (1) outline put(a=0,r=0) in thread "
                        "1: Prim fails at seq[0] (interp {}): action "
                        "judgement fails for store(Read(loc='x'), "
                        "Const(value=0))")
    assert lines[first + 1] == (
        "  action judgement fails for t=1 store(Read(loc='x'), "
        "Const(value=0)): no linearization choice reaches the "
        "postcondition; world=([x:0], [X:0], {}), result=[x:0], "
        "frame=frozenset({([], [], {})})")


def test_an_outline_must_annotate_its_method_body(capsys, tmp_path):
    # `get` no longer ties its return to the cell: the unchanged outline
    # still proves the old body, and the changed body is not linearizable
    doc = json.load(open(f"{FIX}/flat-combiner/model.json"))
    text = json.dumps(doc).replace(
        '["assume", ["==", ["read", "k"], ["var", "r"]]]', '["assume", 1]')
    assert text != json.dumps(doc)
    bad = tmp_path / "model.json"
    bad.write_text(text)
    outline = f"{FIX}/flat-combiner/outline.json"
    code, out, err = run(capsys, "check-proof", str(bad), outline)
    assert code == 2 and out == ""
    assert err == (f"error: {outline}/get: outline does not annotate the "
                   "method body\n")
    code, out, _ = run(capsys, "check-lin", str(bad), "--bound", "12")
    assert code == 1
    assert "t=1 call get(0)\n  t=1 ret get(1)" in out


@pytest.mark.parametrize("doc", [[], "x"])
def test_outline_document_must_be_an_object(capsys, tmp_path, doc):
    bad = tmp_path / "outline.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check-proof",
                         f"{FIX}/atomic-inc/model.json", str(bad))
    assert code == 2 and out == ""
    assert err == (f"error: {bad}: malformed document: expected an object, "
                   f"got {doc!r}\n")


def test_check_lin_past_the_recursion_limit_gives_a_verdict(capsys):
    # the frontier-pair walk keeps its own queue, so a bound deeper than
    # the interpreter's recursion limit still ends in a verdict
    code, out, err = run(capsys, "check-lin", f"{FIX}/atomic-inc/model.json",
                         "--bound", "1000", "--format", "machine")
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["verdict"] == "no violation up to bound 1000"
    assert report["stats"] == {"configurations": 108, "frontiers": 13248}


def test_histories_past_the_recursion_limit_is_a_limit_error(capsys):
    # a bound past the interpreter's recursion limit ends in the
    # history-set cap, not in a recursion error: `histories` walks the
    # frontiers with its own queue and counts before printing anything
    code, out, err = run(capsys, "histories", f"{FIX}/atomic-inc/model.json",
                         "--bound", "2000", "--format", "machine")
    assert code == 2 and out == ""
    assert err == ("error: history set of more than 200000 histories exceeds "
                   "cap 200000; raise --cap / RELVIEWS_CAP or restrict the "
                   "model domains\n")


def test_histories_past_the_cap_stay_small():
    # 1,056,211 histories: counted over the frontiers, none of them built.
    # The child reads its own peak, VmHWM: on Linux a child started by
    # vfork and exec reports the parent's high-water mark as ru_maxrss
    src = os.path.abspath("src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = ("import resource, sys\n"
              "from relviews.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "try:\n"
              "    with open('/proc/self/status') as fh:\n"
              "        rss = next(int(line.split()[1]) for line in fh\n"
              "                   if line.startswith('VmHWM:'))\n"
              "except OSError:\n"
              "    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
              "print(f'maxrss_kb {rss}', file=sys.stderr)\n"
              "sys.exit(code)\n")
    proc = subprocess.run(
        [sys.executable, "-c", script, "histories",
         f"{FIX}/atomic-inc/model.json", "--side", "abstract",
         "--bound", "24"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2 and proc.stdout == ""
    cap_error, rss = proc.stderr.splitlines()
    assert cap_error.startswith(
        "error: history set of more than 200000 histories exceeds cap")
    assert int(rss.split()[1]) < 100 * 1024
    assert "Traceback" not in proc.stderr


def _deep_body_doc(path):
    """atomic-inc whose `inc` body nests 900 `seq`s."""
    doc = json.load(open(f"{FIX}/atomic-inc/model.json"))
    body = doc["methods"]["inc"]["body"]
    for _ in range(900):
        body = ["seq", body, ["skip"]]
    doc["methods"]["inc"]["body"] = body
    path.write_text(json.dumps(doc))


def _deep_arrays_doc(path):
    path.write_text("[" * 200_000 + "]" * 200_000)


_AS_MODEL = {"check-lin": ["check-lin", "{doc}", "--bound", "2"],
             "histories": ["histories", "{doc}", "--bound", "2"],
             "check-proof": ["check-proof", "{doc}",
                             f"{FIX}/atomic-inc/outline.json"]}


@pytest.mark.parametrize("make,argv", [
    *((make, argv) for make in (_deep_body_doc, _deep_arrays_doc)
      for argv in _AS_MODEL.values()),
    (_deep_arrays_doc,
     ["check-proof", f"{FIX}/atomic-inc/model.json", "{doc}"]),
], ids=[*(f"{doc}-{cmd}" for doc in ("seq-body", "arrays")
          for cmd in _AS_MODEL), "arrays-outline"])
def test_deeply_nested_document_is_a_model_error(capsys, tmp_path, make,
                                                 argv):
    # the parser's recursion, not the bound, meets the interpreter's limit
    doc = tmp_path / "deep.json"
    make(doc)
    code, out, err = run(capsys, *(a.format(doc=doc) for a in argv))
    assert code == 2 and out == ""
    assert err == f"error: {doc}: document is nested too deeply\n"
    assert "Traceback" not in err and "--bound" not in err


@pytest.mark.parametrize("argv", [["check-lin", "--bound", "6"],
                                  ["histories", "--bound", "4"]],
                         ids=lambda argv: argv[0])
@pytest.mark.parametrize("length", [1000, 5000])
def test_long_flat_body_is_not_limited_by_the_stack(capsys, tmp_path, length,
                                                    argv):
    # a flat `seq` of `length` statements is one right-nested chain as long
    # as the body; its document nests only a few levels deep
    doc = json.load(open(f"{FIX}/atomic-inc/model.json"))
    body = doc["methods"]["inc"]["body"]
    doc["methods"]["inc"]["body"] = ["seq", *[["assume", 1]] * length, body]
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    code, out, err = run(capsys, argv[0], str(model), *argv[1:])
    assert code == 0 and err == ""
    if argv[0] == "check-lin":
        assert "verdict: no violation up to bound 6" in out


def _counted_instantiation(monkeypatch):
    """Every (body template, binding) the library instantiates: the calls
    of `subst` on a command, not on a primitive."""
    calls = []

    def counted(node, binding):
        if not isinstance(node, PrimCommand):
            calls.append((node, tuple(sorted(binding.items()))))
        return subst(node, binding)

    monkeypatch.setattr(linearizability, "subst", counted)
    return calls


@pytest.mark.parametrize("fx", [f for f in fixture_manifest()
                                if f.outline_path], ids=lambda f: f.name)
def test_check_proof_instantiates_no_body(capsys, monkeypatch, fx):
    calls = _counted_instantiation(monkeypatch)
    code, _, err = run(capsys, "check-proof", fx.model_path, fx.outline_path)
    assert code in (0, 1) and err == ""
    assert calls == []


@pytest.mark.parametrize("argv", [["check-lin", "--bound", "6"],
                                  ["histories", "--bound", "4"],
                                  ["histories", "--side", "abstract",
                                   "--bound", "4"]],
                         ids=["check-lin", "histories", "histories-abstract"])
@pytest.mark.parametrize("fx", fixture_manifest(), ids=lambda f: f.name)
def test_each_method_instance_is_instantiated_at_most_once(
        capsys, monkeypatch, fx, argv):
    calls = _counted_instantiation(monkeypatch)
    code, _, err = run(capsys, argv[0], fx.model_path, *argv[1:])
    assert code in (0, 1) and err == ""
    # a call's expected returns share one body: each (method, argument)
    # body is instantiated at most once, with its argument alone
    assert len(calls) == len(set(calls))
    model = load_model(fx.model_path)
    bodies = {(model.body_templates[m], (("a", a),))
              for m in model.methods() for a in model.method_args[m]}
    assert set(calls) <= bodies


def test_undecodable_document_is_a_model_error(capsys, tmp_path):
    bad = tmp_path / "model.json"
    bad.write_bytes(b"\xff\xfe{")
    code, out, err = run(capsys, "check-lin", str(bad), "--bound", "2")
    assert code == 2 and out == ""
    assert err.startswith(f"error: {bad}: ")


@pytest.mark.parametrize("argv", [["check-lin", "--bound", "4"],
                                  ["histories", "--bound", "4"]])
def test_fault_reported_as_verdict(capsys, tmp_path, argv):
    doc = json.load(open(f"{FIX}/atomic-inc/model.json"))
    doc["methods"]["inc"]["body"] = ["store", "zz", 1]
    bad = tmp_path / "faulting.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run(capsys, argv[0], str(bad), *argv[1:],
                       "--format", "machine")
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "fault reachable" and not report["ok"]
    assert "thread 1 faults" in report["detail"]


@pytest.mark.parametrize("jobs", ["1"])
def test_check_proof_loads_model_once(capsys, monkeypatch, jobs):
    loads = []

    def logged_load(path, cap=None):
        loads.append(path)
        return load_model(path, cap)

    monkeypatch.setattr(cli, "load_model", logged_load)
    code, out, _ = run(capsys, "check-proof", f"{FIX}/atomic-inc/model.json",
                       f"{FIX}/atomic-inc/outline.json", "--jobs", jobs)
    assert code == 0 and "proof accepted" in out
    assert loads == [f"{FIX}/atomic-inc/model.json"]


@pytest.mark.parametrize("jobs", ["1"])
@pytest.mark.parametrize("via_env", [False, True])
@pytest.mark.parametrize("name", ["flat-combiner", "dcsl-cell"])
def test_check_proof_honours_cap(capsys, monkeypatch, jobs, via_env, name):
    # flat-combiner declares a 54-state shared universe; dcsl-cell's frames
    # range over 81 worlds.  The error names the whole universe, although
    # the action judgement checks the unit frame alone.
    size = {"flat-combiner": 54, "dcsl-cell": 81}[name]
    argv = ["check-proof", f"{FIX}/{name}/model.json",
            f"{FIX}/{name}/outline.json", "--jobs", jobs]
    if via_env:
        monkeypatch.setenv("RELVIEWS_CAP", "5")
    else:
        argv += ["--cap", "5"]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == (f"error: universe of size {size} exceeds cap 5; raise "
                   "--cap / RELVIEWS_CAP or restrict the model domains\n")


def test_dcsl_implication_needs_no_frames(capsys, tmp_path):
    # DCSL decides an implication by inclusion, so an outline that fails at
    # one before any primitive gets its verdict under a cap below the
    # 81-world frame universe
    doc = json.load(open(f"{FIX}/dcsl-cell/outline.json"))
    doc["outlines"]["put"] = {"kind": "conseq", "pre": ["pt", "x", 7],
                              "post": ["pt", "x", 7],
                              "inner": doc["outlines"]["put"]}
    outline = tmp_path / "outline.json"
    outline.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check-proof", f"{FIX}/dcsl-cell/model.json",
                         str(outline), "--cap", "5", "--format", "machine")
    assert code == 1 and err == ""
    report = json.loads(out)
    assert report["verdict"] == "proof rejected"
    assert "repartitioning implication fails" in report["detail"]


ATOMIC = f"{FIX}/atomic-inc/model.json"
ATOMIC_OUTLINE = f"{FIX}/atomic-inc/outline.json"


@pytest.mark.parametrize("env,argv", [
    (None, ["check-lin", ATOMIC, "--bound", "-3"]),
    (None, ["check-lin", ATOMIC, "--bound", "x"]),
    (None, ["histories", ATOMIC, "--bound", "-1"]),
    (None, ["check-lin", ATOMIC, "--bound", "4", "--cap", "-1"]),
    (None, ["check-proof", ATOMIC, ATOMIC_OUTLINE, "--jobs", "0"]),
    (None, ["check-proof", ATOMIC, ATOMIC_OUTLINE, "--jobs", "-2"]),
    (None, ["check-lin", ATOMIC, "--bound", "4", "--jobs", "8"]),
    (None, ["histories", ATOMIC, "--bound", "4", "--jobs", "2"]),
    ("abc", ["check-lin", ATOMIC, "--bound", "4"]),
    ("-4", ["check-proof", ATOMIC, ATOMIC_OUTLINE]),
    (None, ["check-proof", ATOMIC, ATOMIC_OUTLINE, "--jobs", "2"]),
])
def test_bad_numeric_input_is_usage_error(capsys, monkeypatch, env, argv):
    if env is not None:
        monkeypatch.setenv("RELVIEWS_CAP", env)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert "error:" in out.err and "Traceback" not in out.err


@pytest.mark.parametrize("body,bound,growing", [
    (None, "4", True),
    # a body that never runs leaves calls only: 5 histories from bound 2 on
    (["assume", 0], "3", False),
], ids=["atomic-inc", "blocked-body"])
def test_check_lin_says_when_the_history_set_still_grows(
        capsys, tmp_path, body, bound, growing):
    doc = json.load(open(ATOMIC))
    if body is not None:
        doc["methods"]["inc"]["body"] = body
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "check-lin", str(model), "--bound", bound,
                       "--format", "machine")
    report = json.loads(out)
    assert code == 0 and report["ok"]
    assert report["detail"] == (
        "the concrete history set is still growing at this bound; "
        "inclusion is proved up to the bound only" if growing else "")


def test_single_process_checks_accept_jobs_one(capsys):
    for argv in (["check-lin", ATOMIC, "--bound", "4"],
                 ["check-proof", ATOMIC, ATOMIC_OUTLINE],
                 ["histories", ATOMIC, "--bound", "2"]):
        code, out, _ = run(capsys, *argv, "--jobs", "1")
        assert code == 0 and out


def test_import_loads_no_process_pool():
    """Every check runs in one process, so importing the front end pulls in
    no process-pool machinery."""
    src = os.path.abspath("src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, relviews.cli; print(*sorted(sys.modules))"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    modules = proc.stdout.split()
    assert "relviews.cli" in modules
    assert [m for m in modules
            if m.startswith(("multiprocessing", "concurrent.futures"))] == []


def _fresh_modules(code: str) -> set:
    """The modules loaded in a fresh interpreter, run without `site` or
    the environment, once it has run `code` with the checkout's sources
    first on the path."""
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c",
         f"import sys; sys.path.insert(0, sys.argv[1]); {code}; "
         "print(*sorted(sys.modules))", os.path.abspath("src")],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_import_generates_no_code():
    """Importing the front end loads neither `dataclasses`, which generates
    and compiles each dataclass's methods as it is applied, nor `inspect`,
    nor `string`, which compiles a regex as it is imported; nor `ast`,
    `dis` or `tokenize`, which they pull in, unless one of the standard
    library modules that relviews imports loads it itself."""
    loaded = _fresh_modules("import relviews.cli")
    assert "relviews.cli" in loaded
    assert not {"dataclasses", "inspect", "string"} & loaded
    stdlib = _fresh_modules(
        "import _string, argparse, contextlib, enum, functools, itertools, "
        "json, operator, os, re, time, typing, weakref")
    assert not {"ast", "dis", "tokenize"} & loaded - stdlib


_MONOID_MODULES = ["relviews.monoid_dcsl", "relviews.monoid_rgsep",
                   "relviews.views_core"]

_LOADED_AFTER_EACH = """
import contextlib, io, sys
from relviews.cli import build_parser, main
model, outline = sys.argv[1:]
for argv in (["check-lin", model, "--bound", "4"],
             ["histories", model, "--bound", "2"],
             ["check-proof", model, outline]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
    print(sorted(m for m in sys.modules if m.startswith(
        ("relviews.monoid_", "relviews.views_core"))))
"""


def test_only_check_proof_loads_the_monoids():
    """`check-lin` and `histories` build no view monoid, so a process that
    runs them never imports the monoid modules; `check-proof` does."""
    src = os.path.abspath("src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_AFTER_EACH,
         f"{FIX}/flat-combiner/model.json",
         f"{FIX}/flat-combiner/outline.json"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]", str(_MONOID_MODULES)]


def _under_seeds(argv, seeds=("0", "1")):
    """(exit code, stdout, stderr) of `relviews ARGV` run in a fresh
    process under each hash seed."""
    src = os.path.abspath("src")
    runs = []
    for seed in seeds:
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "relviews.cli", *argv],
            env=env, capture_output=True, text=True, timeout=120)
        runs.append((proc.returncode, proc.stdout, proc.stderr))
    return runs


def test_cap_error_text_independent_of_hash_seed():
    """Successors are explored in per-process hash order, so how far the
    tables have grown when the cap trips varies; the message must not."""
    runs = _under_seeds(["check-lin", f"{FIX}/flat-combiner/model.json",
                         "--bound", "12", "--cap", "300"], ("0", "2"))
    assert [code for code, _out, _err in runs] == [2, 2]
    errs = {err for _code, _out, err in runs}
    assert len(errs) == 1
    assert "exceeds cap 300" in errs.pop()


def test_fault_text_independent_of_hash_seed(tmp_path):
    """The fault reported is the least faulting run's, whatever order the
    successors are explored in."""
    doc = json.load(open(f"{FIX}/atomic-inc/model.json"))
    doc["domains"]["locations"]["ghost"] = [0]
    doc["primitives"]["inc_atomic"]["updates"].append(["ghost", 0])
    bad = tmp_path / "ghost-concrete.json"
    bad.write_text(json.dumps(doc))
    runs = _under_seeds(["check-lin", str(bad), "--bound", "6",
                         "--format", "machine"])
    assert [code for code, _out, _err in runs] == [1, 1]
    details = {json.loads(out)["detail"] for _code, out, _err in runs}
    assert details == {
        "thread 1 faults executing inc_atomic(Const(value=1), "
        "Const(value=1)) in method inc at state [k:0]"}


@pytest.mark.parametrize("argv,what", [
    (["check-lin", f"{FIX}/flat-combiner/model.json", "--bound", "12",
      "--cap", "300"],
     "frontier table of more than 300 entries exceeds cap 300"),
    # here the configuration table outgrows the frontier entries
    (["check-lin", f"{FIX}/flat-combiner/model.json", "--bound", "12",
      "--cap", "200"],
     "configuration table of more than 200 configurations exceeds cap 200"),
    # cap 0 trips on the first start frontier, before any pair is expanded
    (["check-lin", f"{FIX}/atomic-inc/model.json", "--bound", "6",
      "--cap", "0"], "frontier table of more than 0 frontiers exceeds cap 0"),
    # `histories` keeps no history memo: at cap 5 its configuration table
    # trips first
    (["histories", f"{FIX}/atomic-inc/model.json", "--side", "concrete",
      "--bound", "4", "--cap", "5"],
     "configuration table of more than 5 configurations exceeds cap 5"),
    # 15 histories over 7 frontiers and 9 tabulated configurations
    (["histories", f"{FIX}/atomic-inc/model.json", "--side", "concrete",
      "--bound", "4", "--cap", "10"],
     "history set of more than 10 histories exceeds cap 10"),
], ids=["product", "configurations", "frontiers", "histories configurations",
        "history set"])
def test_history_cap_errors_name_what_they_counted(capsys, argv, what):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == (f"error: {what}; raise --cap / RELVIEWS_CAP or restrict "
                   "the model domains\n")


def test_unstable_witness_independent_of_hash_seed(tmp_path):
    """The first failure of an unstable precondition names the least
    rely edge that leaves the predicate, whatever the hash seed."""
    doc = json.load(open(f"{FIX}/atomic-inc/model.json"))
    doc["assertions"]["inc"]["pre"][1] = ["box", [
        "exists", "V", ["star", ["macro", "kinv", ["var", "V"]],
                        ["pure", ["<", ["var", "V"], 2]]]]]
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(doc))
    runs = _under_seeds(["check-proof", str(bad),
                         f"{FIX}/atomic-inc/outline.json"])
    assert [code for code, _out, _err in runs] == [1, 1]
    firsts = {next(line for line in out.splitlines()
                   if line.startswith("[FAIL]")) for _code, out, _err in runs}
    assert len(firsts) == 1
    assert "rely moves shared state ([k:0], [K:0], {}) to ([k:2], [K:2], " \
        "{})" in firsts.pop()


def test_rgsep_implication_not_established_under_two_seeds(tmp_path):
    """atomic-inc whose inc wraps its primitive in a consequence whose pre
    holds `done` where the precondition holds `todo`: RGSep's sufficient
    implication check cannot establish the step and says so, in words
    distinct from DCSL's `fails`, whatever the hash seed."""
    family = json.load(open(f"{FIX}/atomic-inc/model.json"))[
        "assertions"]["inc"]
    done_pre = json.loads(json.dumps(family["pre"]))
    done_pre[2][0] = "done"
    doc = json.load(open(f"{FIX}/atomic-inc/outline.json"))
    doc["outlines"]["inc"] = {"kind": "conseq", "pre": done_pre,
                              "post": family["post"],
                              "inner": doc["outlines"]["inc"]}
    outline = tmp_path / "outline.json"
    outline.write_text(json.dumps(doc))
    runs = _under_seeds(["check-proof", f"{FIX}/atomic-inc/model.json",
                         str(outline), "--format", "machine"])
    assert [code for code, _out, _err in runs] == [1, 1]
    assert len({out for _code, out, _err in runs}) == 1
    first = json.loads(runs[0][1])["detail"].split("first failure: ", 1)[1]
    assert first == ("(1) outline inc(a=1,r=0) in thread 1: Conseq fails at "
                     "conseq/pre (interp {}): repartitioning implication "
                     "not established")
