import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relviews.cli import main
from relviews.command_lang import (
    SKIP,
    Choice,
    Const,
    Read,
    cas,
    desugar_if,
    desugar_while,
    expr_locs,
)
from relviews import model_io
from relviews.errors import ModelError
from relviews.model_io import (
    attach_outlines,
    load_model,
    load_outlines,
    parse_command,
    parse_expr,
    parse_model,
    parse_vassn,
    MacroTable,
)
from families import dcsl_cell, flat_combiner
from oracles import command_prims, instance_body, per_instance_body_error
from util import fixture_manifest, store

FIX = "src/relviews/fixtures"


def test_while_loads_as_its_encoding():
    cmd = parse_command(["while", ["read", "l"], ["store", "l", 0]])
    assert cmd is desugar_while(Read("l"), store("l", Const(0)))


def test_if_loads_as_its_encoding():
    cmd = parse_command(["if", ["read", "l"], ["store", "l", 0], ["skip"]])
    assert cmd is desugar_if(Read("l"), store("l", Const(0)), SKIP)


def test_bad_json_reports_line_and_column():
    import tempfile

    with tempfile.NamedTemporaryFile("w", suffix=".json",
                                     delete=False) as fh:
        fh.write('{"name": \n "oops", }')
        path = fh.name
    with pytest.raises(ModelError, match="line"):
        load_model(path)


def test_missing_sections_rejected():
    doc = json.load(open(f"{FIX}/atomic-inc/model.json"))
    del doc["abstract"]
    with pytest.raises(ModelError, match="abstract"):
        parse_model(doc)


def test_unknown_expression_form():
    with pytest.raises(ModelError):
        parse_expr(["frobnicate", 1, 2])


def test_macro_recursion_rejected():
    macros = MacroTable({
        "a": {"params": [], "body": ["macro", "b"]},
        "b": {"params": [], "body": ["macro", "a"]},
    }, (), 2)
    with pytest.raises(ModelError, match="recursive"):
        parse_vassn(["macro", "a"], macros)


class _Unmemoized(MacroTable):
    """Every macro application expanded and parsed afresh."""

    def apply(self, name, args, path, stack):
        self._parsed.clear()
        return super().apply(name, args, path, stack)


def _parsed_trees(fixture):
    """Every assertion and outline tree a fixture's load parses, keyed."""
    model = load_model(fixture.model_path)
    if fixture.outline_path:
        load_outlines(fixture.outline_path, model)
    out = [("shared universe", model.shared_universe_assn)]
    for kind in ("pre_templates", "post_templates", "outline_templates"):
        out += [((kind, m), tree)
                for m, tree in sorted(getattr(model, kind).items())]
    out += [(("action", name, i), tree)
            for name, pair in sorted(model.actions.items())
            for i, tree in enumerate(pair)]
    return out


@pytest.mark.parametrize("fixture", fixture_manifest(), ids=lambda f: f.name)
def test_memoized_macros_parse_to_the_same_trees(fixture, monkeypatch):
    memoized = _parsed_trees(fixture)
    monkeypatch.setattr(model_io, "MacroTable", _Unmemoized)
    fresh = _parsed_trees(fixture)
    assert [key for key, _ in memoized] == [key for key, _ in fresh]
    assert all(a is b for (_, a), (_, b) in zip(memoized, fresh))


def _record_macro_parses(monkeypatch) -> list:
    """The list to which each parse of a macro's expanded body appends
    (table, macro name, JSON body)."""
    parses = []
    original = model_io.parse_vassn

    def recording(doc, macros, path="vassn", stack=()):
        if stack and path.endswith("/" + stack[-1]):  # a macro's body
            parses.append((macros, stack[-1], json.dumps(doc)))
        return original(doc, macros, path, stack)

    monkeypatch.setattr(model_io, "parse_vassn", recording)
    return parses


def test_each_macro_application_is_parsed_once_per_table(monkeypatch):
    parses = _record_macro_parses(monkeypatch)
    _parsed_trees(next(f for f in fixture_manifest()
                       if f.name == "flat-combiner-noaction4"))
    assert parses and len(parses) == len(set(parses))


# flat-combiner's `slot_free` with one more conjunct: `slots` (so `global`
# and `lockbox`) and `M` reach it
_SLOT_FREE = {"params": ["i"], "body": [
    "star", ["pt", "arg[{i}]", 1], ["pt", "res[{i}]", 0],
    ["pure", ["==", 0, 0]]]}


def _redefined_slot_free():
    model, outline = flat_combiner(2)
    outline["macros"]["slot_free"] = _SLOT_FREE
    return model, outline


def _outline_cases():
    """(model, outline) documents: every outline fixture, the N-thread
    flat combiner, both widened dcsl-cell variants and a flat combiner
    whose outline redefines a model macro."""
    cases = {f.name: (json.load(open(f.model_path)),
                      json.load(open(f.outline_path)))
             for f in fixture_manifest() if f.outline_path}
    for n in (2, 3, 4):
        cases[f"flat-combiner-{n}"] = flat_combiner(n)
    cell_outline = json.load(open(f"{FIX}/dcsl-cell/outline.json"))
    for nvalues, nthreads in ((5, 1), (3, 2)):
        cases[f"dcsl-cell-v{nvalues}-t{nthreads}"] = (
            dcsl_cell(nvalues, nthreads), cell_outline)
    cases["flat-combiner-slot-free"] = _redefined_slot_free()
    return cases


def _fresh_outline_templates(model_doc, outline_doc, model, path):
    """The outline templates parsed through a table built afresh over the
    model's and the outline's raw macros, the outline's winning."""
    macros = MacroTable({**model_doc.get("macros", {}),
                         **outline_doc.get("macros", {})},
                        model.method_args, model.dom.nthreads, path)
    no_box = model_io._NO_BOX_DCSL if model.monoid_kind == "dcsl" else None
    return {m: model_io.parse_outline_node(node, macros, f"{path}/{m}",
                                           no_box)
            for m, node in outline_doc["outlines"].items()}


@pytest.mark.parametrize("name", sorted(_outline_cases()))
def test_the_inherited_table_parses_what_a_fresh_table_parses(name):
    """An outline's table extends its model's, inheriting memo entries
    and box checks; its templates are the ones a fresh table over the
    merged macros builds."""
    model_doc, outline_doc = _outline_cases()[name]
    model = parse_model(model_doc, "m.json")
    attach_outlines(outline_doc, model, "o.json")
    fresh = _fresh_outline_templates(model_doc, outline_doc, model, "o.json")
    assert list(model.outline_templates) == list(fresh)
    assert all(model.outline_templates[m] is fresh[m] for m in fresh)


class _Kept(MacroTable):
    """A macro table that records itself in `built`."""

    built = None

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.built.append(self)


def _load_keeping_the_outline_table(monkeypatch, model_doc, outline_doc):
    """The loaded model (its table is `model.macros`) and its outline's
    table."""
    monkeypatch.setattr(_Kept, "built", [])
    monkeypatch.setattr(model_io, "MacroTable", _Kept)
    model = parse_model(model_doc, "m.json")
    attach_outlines(outline_doc, model, "o.json")
    assert _Kept.built[0] is model.macros and len(_Kept.built) == 2
    return model, _Kept.built[1]


def test_an_outline_redefinition_wins_and_reparses_what_reaches_it(
        monkeypatch):
    """flat-combiner's outline redefining `slot_free`: its templates are
    not the fixture's, and of the model table's memo entries the outline
    table inherits exactly those that do not reach `slot_free`."""
    plain_doc, plain_outline = flat_combiner(2)
    plain = parse_model(plain_doc, "m.json")
    attach_outlines(plain_outline, plain, "o.json")
    model, table = _load_keeping_the_outline_table(
        monkeypatch, *_redefined_slot_free())
    assert model.outline_templates != plain.outline_templates
    parsed = model.macros._parsed
    assert {key for key, hit in parsed.items()
            if table._parsed.get(key) is hit} == {
        key for key, hit in parsed.items() if "slot_free" not in hit[1]}
    reparsed = [key for key, hit in parsed.items()
                if "slot_free" in hit[1] and key in table._parsed]
    assert reparsed and all(table._parsed[key][0] is not parsed[key][0]
                            for key in reparsed)


def test_an_outline_parses_no_expansion_its_model_parsed(monkeypatch):
    """flat-combiner's outline applies model macros whose expansions the
    model's table already parsed (18 of them); its table parses none of
    them again, and keeps the model's box checks."""
    parses = _record_macro_parses(monkeypatch)
    model, table = _load_keeping_the_outline_table(monkeypatch,
                                                   *flat_combiner(2))
    by_model = {p[1:] for p in parses if p[0] is model.macros}
    by_outline = {p[1:] for p in parses if p[0] is table}
    assert len(by_model) + len(by_outline) == len(parses)
    assert by_outline and not by_model & by_outline
    assert model.macros.boxes_passed < table.boxes_passed


def _macro_error(macros, doc):
    with pytest.raises(ModelError) as info:
        parse_vassn(doc, macros)
    return str(info.value)


def test_memoized_macro_keeps_its_errors_and_paths():
    raw = {
        "ok": {"params": [], "body": ["macro", "wrap", ["emp"]]},
        # its parameter stands where an assertion goes, so an argument
        # can carry a macro application
        "wrap": {"params": ["p"], "body": ["or", ["var", "p"], ["emp"]]},
    }
    # `ok` parses alone, but under `wrap` its own `wrap` is recursive: the
    # memoized `ok` must not hide that
    recursive = ["star", ["macro", "ok"], ["macro", "wrap", ["macro", "ok"]]]
    unknown = ["star", ["macro", "ok"], ["macro", "ok"], ["macro", "nope"]]
    for doc, want in (
            (recursive, "vassn/star[1]/wrap/or[0]/ok: recursive macro "
                        "'wrap' (expansion chain wrap -> ok)"),
            (unknown, "vassn/star[2]: unknown macro 'nope'")):
        assert _macro_error(MacroTable(raw, (), 2), doc) == want
        assert _macro_error(_Unmemoized(raw, (), 2), doc) == want


def test_macro_arity_checked():
    macros = MacroTable({"a": {"params": ["x"], "body": ["emp"]}}, (), 2)
    with pytest.raises(ModelError, match="expects"):
        parse_vassn(["macro", "a"], macros)


def test_nested_box_rejected():
    doc = json.load(open(f"{FIX}/atomic-inc/model.json"))
    doc["assertions"]["inc"]["pre"] = ["box", ["box", ["emp"]]]
    with pytest.raises(ModelError, match="nested"):
        parse_model(doc)


def test_true_outside_box_rejected():
    doc = json.load(open(f"{FIX}/atomic-inc/model.json"))
    doc["assertions"]["inc"]["pre"] = ["star", ["true"], ["emp"]]
    with pytest.raises(ModelError, match="true"):
        parse_model(doc)


_FALSE = ["pure", ["==", 0, 1]]
_X0 = ["pt", "x", 0]
# `true` in a star that is not the box's body, where `fragments` would
# meet it
_BAD_BOX_PART = ["star", ["or", ["true"], ["emp"]]]
_TRUE_MISPLACED = ("`true` may stand only as a box's body or as a conjunct "
                   "of the star that is a box's body")


@pytest.mark.parametrize("doc,error", [
    (["box", ["true"]], None),
    (["box", ["star", ["true"], _X0, ["true"]]], None),
    (["star", ["box", ["or", _X0, ["exists", "v", ["star", ["true"], [
        "pure", ["==", ["var", "v"], 0]]]]]], _X0], None),
    (["star", _FALSE, ["true"]], _TRUE_MISPLACED),
    (["star", ["box", _X0], ["true"]], _TRUE_MISPLACED),
    (["or", ["star", _FALSE, ["true"]], ["box", ["true"]]], _TRUE_MISPLACED),
    (["box", ["or", ["true"], _BAD_BOX_PART]], _TRUE_MISPLACED),
    (["box", ["or", _X0, _BAD_BOX_PART]], _TRUE_MISPLACED),
    (["box", ["exists", "v", ["or", ["star", ["true"], [
        "pure", ["==", ["var", "v"], 0]]], _BAD_BOX_PART]]], _TRUE_MISPLACED),
    (["box", ["star", ["star", ["true"], _X0]]], _TRUE_MISPLACED),
    (["box", ["star", ["true"], ["box", _X0]]],
     "boxed assertions must not be nested"),
    # a subtree that passed where it stood first fails where it stands next
    (["star", ["box", ["true"]], ["true"]], _TRUE_MISPLACED),
    (["star", ["box", _X0], ["box", ["star", ["true"], ["box", _X0]]]],
     "boxed assertions must not be nested"),
], ids=["body", "conjuncts", "under-or-exists", "star", "star-with-box",
        "or", "or-in-body-star", "or-after-cell", "exists", "inner-star",
        "nested-box", "true-again-outside", "box-again-inside"])
def test_true_stands_only_where_a_box_body_reads_it(doc, error):
    """Where `RgsepMonoid._box_states` reads `true`; everywhere else the
    assertion is denoted by `fragments`, which knows no `true`.  Before,
    `true` anywhere inside a box loaded, and evaluating a misplaced one
    raised an error naming no file, or nothing where no evaluation
    reached it."""
    try:
        model_io.parse_assertion(doc, MacroTable({}, (), 1))
        got = None
    except ModelError as exc:
        got = str(exc)
    assert got == (error and f"assn: {error}")


def test_boxes_are_checked_once_per_subtree_and_slot_rule():
    """A document's `_check_boxes` results are kept in its macro table:
    a box that loaded in a slot that allows one is still an error, with
    the path of a slot that does not."""
    macros = MacroTable({}, (), 1)
    box = model_io.parse_assertion(["box", _X0], macros)
    assert macros.boxes_passed
    with pytest.raises(ModelError) as exc:
        model_io.parse_assertion(["star", ["box", _X0]], macros,
                                 "model/actions/a/pre", "no box here")
    assert str(exc.value) == "model/actions/a/pre: no box here"
    assert model_io.parse_assertion(["box", _X0], macros) is box


_K0 = ["pt", "k", 0]


@pytest.mark.parametrize("pre,universe", [
    (["star", ["box", _K0], ["true"]], None),
    (["star", ["box", _K0], ["true"]], ["macro", "kinv", 1]),
    (["box", ["or", _K0, _BAD_BOX_PART]], None),
    (["box", ["or", _K0, _BAD_BOX_PART]], ["macro", "kinv", 0]),
], ids=["star-with-box-any-k", "star-with-box-k-is-1", "or-after-cell-any-k",
        "or-after-cell-k-is-0"])
def test_a_misplaced_true_is_a_load_error_whatever_the_universe(pre,
                                                                universe):
    """The evaluator met a misplaced `true` only in the shared states that
    its star prefix or earlier disjuncts had not settled: with `k` never 0
    the star gives up first, with `k` always 0 the first disjunct holds.
    The load rule reads the assertion's form alone, so the shared
    universe plays no part in whether the model loads."""
    doc = json.load(open(f"{FIX}/atomic-inc/model.json"))
    doc["assertions"]["inc"]["pre"] = pre
    if universe is None:
        del doc["shared_universe"]
    else:
        doc["shared_universe"] = universe
    with pytest.raises(ModelError, match=_TRUE_MISPLACED):
        parse_model(doc)


@pytest.mark.parametrize("loc", ["x{0}", "x{}", "x{k.y}", "x{k!r}", "x{"])
def test_an_assertion_placeholder_is_a_name(capsys, tmp_path, loc):
    """Before, each of these loaded and ended in a traceback (exit 1) or an
    error naming no file once an outline assertion was evaluated."""
    doc = json.load(open(f"{FIX}/dcsl-cell/outline.json"))
    steps = doc["outlines"]["put"]["steps"]
    steps[1] = ["star", steps[1], ["or", ["emp"], ["pt", loc, 0]]]
    bad = tmp_path / "outline.json"
    bad.write_text(json.dumps(doc))
    assert main(["check-proof", f"{FIX}/dcsl-cell/model.json", str(bad)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (f"error: {bad}/put/mid[0]/star[1]/or[1]: location "
                       f"{loc!r} uses a brace that is not a placeholder "
                       "{name}\n")


@pytest.mark.parametrize("cmd,message", [
    (["prim", "load", ["read", "x"], 1], "argument 2 of 'load' must be a "
     'location ["read", loc], got 1'),
    (["prim", "cas_succ", ["var", "a"], 0, 1], "argument 1 of 'cas_succ' "
     'must be a location ["read", loc], got [\'var\', \'a\']'),
    (["prim", "cas_fail", ["+", ["read", "x"], 0], 0, 1], "argument 1 of "
     "'cas_fail' must be a location [\"read\", loc], got ['+', ['read', "
     "'x'], 0]"),
], ids=["load", "cas_succ", "cas_fail"])
def test_a_builtin_location_argument_is_a_location(cmd, message):
    with pytest.raises(ModelError) as info:
        parse_command(cmd)
    assert str(info.value) == f"cmd: {message}"


def test_undeclared_primitive_in_body():
    doc = json.load(open(f"{FIX}/atomic-inc/model.json"))
    doc["methods"]["inc"]["body"] = ["prim", "mystery"]
    with pytest.raises(ModelError, match="mystery"):
        parse_model(doc)


def _body_locs():
    """Locations drawing placeholders from `{t}`, `{a}`, `{r}` and the
    unbound `{q}`."""
    return st.lists(st.sampled_from(["k", "{t}", "{a}", "{r}", "{q}"]),
                    min_size=1, max_size=3).map("".join)


def _bodies():
    """Method bodies over `_body_locs`, with `skip`, the undeclared
    primitive `mystery` and `inc_atomic` short of an argument among their
    statements."""
    loc = _body_locs()
    stmt = st.one_of(
        st.builds(lambda l: ["store", l, ["var", "a"]], loc),
        st.builds(lambda l, m: ["load", l, m], loc, loc),
        st.builds(lambda l: ["assume", ["==", ["read", l], ["var", "r"]]],
                  loc),
        st.sampled_from([["prim", "inc_atomic", ["var", "a"], ["var", "r"]],
                         ["prim", "inc_atomic", ["var", "a"]],
                         ["prim", "mystery"], ["skip"]]))
    return st.one_of(
        stmt,
        st.lists(stmt, min_size=2, max_size=3).map(lambda ss: ["seq", *ss]),
        st.tuples(stmt, stmt).map(lambda lr: ["choice", *lr]),
        stmt.map(lambda s: ["iter", s]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(body=_bodies(), args=st.sampled_from([[1], [0, 3], [2]]))
def test_load_checks_a_body_template_as_every_instance_does(body, args):
    doc = json.load(open(f"{FIX}/atomic-inc/model.json"))
    doc["methods"]["inc"] = {"args": args, "body": ["assume", 1]}
    model = parse_model(doc)
    want = per_instance_body_error(parse_command(body),
                                   model.method_args["inc"],
                                   model.dom.values, model.sem.prims)
    # a method with no arguments has no instance, and its body is checked
    # all the same
    for method_args in (args, []):
        doc["methods"]["inc"] = {"args": method_args, "body": body}
        try:
            parse_model(doc)
            got = None
        except ModelError as exc:
            got = str(exc)
        assert (got is None) == (want is None), (got, want)
        assert want is None or want in got


_REPEATS = {
    "values": (lambda doc: doc["domains"]["values"].append(0),
               "domains.values lists 0 twice"),
    "args": (lambda doc: doc["methods"]["inc"]["args"].append(1),
             "method 'inc' args lists 1 twice"),
    "location": (lambda doc: doc["domains"]["locations"]["k"].append(3),
                 "location 'k' domain lists 3 twice"),
    "abstract location": (
        lambda doc: doc["domains"]["abstract_locations"]["K"].append(2),
        "abstract location 'K' domain lists 2 twice"),
}


@pytest.mark.parametrize("argv", [
    ["check-lin", "{model}", "--bound", "2"],
    ["histories", "{model}", "--side", "concrete", "--bound", "2"],
    ["check-proof", "{model}", f"{FIX}/atomic-inc/outline.json"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("place", sorted(_REPEATS))
def test_repeated_domain_entry_is_a_model_error(capsys, tmp_path, place,
                                                argv):
    repeat, message = _REPEATS[place]
    doc = json.load(open(f"{FIX}/atomic-inc/model.json"))
    repeat(doc)
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(doc))
    code = main([a.format(model=bad) for a in argv])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"error: {bad}: {message}\n"


def _prepend_to_inc(doc, cmd):
    doc["methods"]["inc"]["body"] = ["seq", cmd, doc["methods"]["inc"]["body"]]


# place -> (edit of atomic-inc, the path of the number and its value)
_WRONG_TYPES = {
    "values": (lambda doc: doc["domains"].update(values=[0, 1, 2, 3.7]),
               "/domains/values[3]", 3.7),
    "method args": (lambda doc: doc["methods"]["inc"].update(args=["1"]),
                    "/methods/inc/args[0]", "1"),
    "location domain": (
        lambda doc: doc["domains"]["locations"].update(k=[0, 1, 2, 3.0]),
        "/domains/locations/k[3]", 3.0),
    "threads float": (lambda doc: doc["domains"].update(threads=2.9),
                      "/domains/threads", 2.9),
    "threads bool": (lambda doc: doc["domains"].update(threads=True),
                     "/domains/threads", True),
    "modulus": (lambda doc: doc["domains"].update(modulus=4.0),
                "/domains/modulus", 4.0),
    "cap": (lambda doc: doc["domains"].update(cap="1000"),
            "/domains/cap", "1000"),
    "initial concrete": (
        lambda doc: doc["initial"]["concrete"].update(k=0.5),
        "/initial/concrete/k", 0.5),
    "initial abstract": (
        lambda doc: doc["initial"]["abstract"].update(K=False),
        "/initial/abstract/K", False),
    "const": (lambda doc: _prepend_to_inc(doc, ["assume", ["const", 1.5]]),
              "/methods/inc/seq[0]", 1.5),
}


@pytest.mark.parametrize("place", sorted(_WRONG_TYPES))
def test_a_number_of_the_wrong_type_is_a_model_error(capsys, tmp_path,
                                                      place):
    """No number in a model is truncated or coerced: `check-lin` rejects
    the model, naming the number's path, before any check runs."""
    edit, where, value = _WRONG_TYPES[place]
    doc = json.load(open(f"{FIX}/atomic-inc/model.json"))
    edit(doc)
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(doc))
    code = main(["check-lin", str(bad), "--bound", "4"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == (f"error: {bad}{where}: malformed document: expected an "
                   f"integer, got {value!r}\n")


def test_bare_booleans_are_expressions():
    """`true` and `false` stand for 1 and 0 wherever an expression does."""
    assert parse_expr(True) is Const(1) and parse_expr(False) is Const(0)
    doc = json.load(open(f"{FIX}/atomic-inc/model.json"))
    _prepend_to_inc(doc, ["assume", True])
    parse_model(doc)


def test_outline_for_unknown_method_rejected():
    model = load_model(f"{FIX}/atomic-inc/model.json")
    with pytest.raises(ModelError, match="unknown method"):
        attach_outlines({"outlines": {"dec": {"kind": "skip"}}}, model)


def test_outline_must_cover_all_methods():
    model = load_model(f"{FIX}/flat-combiner/model.json")
    doc = json.load(open(f"{FIX}/flat-combiner/outline.json"))
    del doc["outlines"]["get"]
    with pytest.raises(ModelError, match="missing"):
        attach_outlines(doc, model)


def test_seq_outline_alternation_enforced():
    model = load_model(f"{FIX}/atomic-inc/model.json")
    bad = {"outlines": {"inc": {"kind": "seq", "steps": [
        {"kind": "skip"}, {"kind": "skip"}]}}}
    with pytest.raises(ModelError, match="alternate"):
        attach_outlines(bad, model)


def test_inc_body_uses_expected_locations():
    model = load_model(f"{FIX}/flat-combiner/model.json")
    body = instance_body(model, "inc", 1, 0)
    prims = command_prims(body)
    assert "publish" in {p.name for p in prims}
    assert "res[{t}]" in {loc for p in prims for e in p.args
                          for loc in expr_locs(e)}


def test_cas_loads_as_success_failure_choice():
    cmd = parse_command(["cas", "L", 0, 1, ["skip"], ["skip"]])
    assert cmd is cas("L", Const(0), Const(1), SKIP, SKIP)
    assert isinstance(cmd, Choice)
    assert {p.name for p in command_prims(cmd)} == {"cas_succ", "cas_fail"}


# A repartitioning implication is the side condition of a conseq node, not
# an assertion form: a document that writes one is rejected at load.
_RIMPL = ["rimpl", ["emp"], ["emp"]]


@pytest.mark.parametrize("argv", [
    ["check-lin", "{model}", "--bound", "2"],
    ["histories", "{model}", "--side", "concrete", "--bound", "2"],
    ["check-proof", "{model}", f"{FIX}/atomic-inc/outline.json"],
])
def test_rimpl_in_model_assertions_rejected_at_load(capsys, tmp_path, argv):
    doc = json.load(open(f"{FIX}/atomic-inc/model.json"))
    doc["assertions"]["inc"]["post"] = ["star", _RIMPL, ["emp"]]
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(doc))
    code = main([a.format(model=bad) for a in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err and str(bad) in err
    assert "repartitioning implication" in err


def test_rimpl_in_outline_rejected_at_load(capsys, tmp_path):
    bad = tmp_path / "outline.json"
    bad.write_text(json.dumps({"outlines": {"inc": {
        "kind": "conseq", "pre": _RIMPL, "post": ["emp"],
        "inner": {"kind": "skip"}}}}))
    code = main(["check-proof", f"{FIX}/atomic-inc/model.json", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err and str(bad) in err
    assert "repartitioning implication" in err


def _declare_seven(doc):
    """atomic-inc with a concrete and an abstract location named "7", so
    that a location 7 coerced to a string would load."""
    doc["domains"]["locations"]["7"] = [0, 1]
    doc["domains"]["abstract_locations"]["7"] = [0, 1]
    doc["initial"]["concrete"]["7"] = 0
    doc["initial"]["abstract"]["7"] = 0


def _body_first(cmd):
    def put(doc):
        doc["methods"]["inc"]["body"] = ["seq", cmd,
                                         doc["methods"]["inc"]["body"]]
    return put


def _universe(assn):
    def put(doc):
        doc["shared_universe"] = ["star", assn, doc["shared_universe"]]
    return put


def _update(section, name):
    def put(doc):
        doc[section][name]["updates"].append([7, 0])
    return put


@pytest.mark.parametrize("put,where", [
    (_body_first(["store", 7, 1]), "/methods/inc/seq[0]"),
    (_body_first(["load", 7, "k"]), "/methods/inc/seq[0]"),
    (_body_first(["load", "k", 7]), "/methods/inc/seq[0]"),
    (_body_first(["cas", 7, 0, 1, ["skip"], ["skip"]]),
     "/methods/inc/seq[0]"),
    (_body_first(["assume", ["==", ["read", 7], 0]]), "/methods/inc/seq[0]"),
    (_universe(["pt", 7, 0]), "/shared_universe/star[0]"),
    (_universe(["apt", 7, 0]), "/shared_universe/star[0]"),
    (_update("primitives", "inc_atomic"),
     "/primitives/inc_atomic/updates[1]"),
    (_update("abstract", "inc"), "/abstract/inc/updates[1]"),
], ids=["store", "load-from", "load-to", "cas", "read", "pt", "apt",
        "update", "abstract-update"])
def test_a_location_name_must_be_a_string(capsys, tmp_path, put, where):
    doc = json.load(open(f"{FIX}/atomic-inc/model.json"))
    _declare_seven(doc)
    put(doc)
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(doc))
    assert main(["check-lin", str(bad), "--bound", "4"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (f"error: {bad}{where}: a location name must be a "
                       "string, got 7\n")


def test_a_declared_string_location_seven_loads(capsys, tmp_path):
    """The same documents with the location written "7" load and pass."""
    doc = json.load(open(f"{FIX}/atomic-inc/model.json"))
    _declare_seven(doc)
    _body_first(["store", "7", 1])(doc)
    good = tmp_path / "model.json"
    good.write_text(json.dumps(doc))
    assert main(["check-lin", str(good), "--bound", "4"]) == 0


def _macro_body(name, body):
    def put(doc):
        doc["macros"][name]["body"] = body
    return put


def _macro_params(name, params):
    def put(doc):
        doc["macros"][name]["params"] = params
    return put


@pytest.mark.parametrize("fixture,put,where", [
    ("atomic-inc", _body_first(["assume", ["==", ["var", 7], 0]]),
     "/methods/inc/seq[0]"),
    ("dcsl-cell",
     _macro_body("cell_any", ["exists", 7, ["macro", "cell", ["var", 7]]]),
     "/macros/cell_any/body"),
    ("flat-combiner",
     _macro_body("slots", ["sep_threads", 7, ["macro", "tinv", ["var", 7]]]),
     "/macros/slots/body"),
    ("dcsl-cell", _macro_params("cell", [7]), "/macros/cell/params[0]"),
], ids=["var", "exists", "sep_threads", "macro-params"])
def test_a_logical_variable_name_must_be_a_string(capsys, tmp_path, fixture,
                                                  put, where):
    """A variable name of another type is not turned into a string: the
    `exists` variant of dcsl-cell loaded and its proof was accepted."""
    doc = json.load(open(f"{FIX}/{fixture}/model.json"))
    put(doc)
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(doc))
    assert main(["check-lin", str(bad), "--bound", "2"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (f"error: {bad}{where}: a logical variable name must "
                       "be a string, got 7\n")


def _prim_seven(doc):
    """atomic-inc with `inc_atomic` renamed "7" and called as 7."""
    doc["primitives"]["7"] = doc["primitives"].pop("inc_atomic")
    doc["methods"]["inc"]["body"][1] = 7


def _macro_seven(doc):
    """dcsl-cell with `cell_any` renamed "7" and applied as 7."""
    doc["macros"]["7"] = doc["macros"].pop("cell_any")
    for spec in doc["assertions"].values():
        for side in ("pre", "post"):
            spec[side][1] = ["macro", 7]


@pytest.mark.parametrize("fixture,put,where,kind", [
    ("atomic-inc", _prim_seven, "/methods/inc", "primitive"),
    ("dcsl-cell", _macro_seven, "/assertions/put/pre/star[0]", "macro"),
], ids=["primitive", "macro"])
def test_a_primitive_or_macro_name_must_be_a_string(capsys, tmp_path,
                                                    fixture, put, where,
                                                    kind):
    """A name 7 was turned into the string "7": both documents loaded, the
    first passed check-lin and the second's proof was accepted."""
    doc = json.load(open(f"{FIX}/{fixture}/model.json"))
    put(doc)
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(doc))
    for argv in (["check-lin", str(bad), "--bound", "4"],
                 ["check-proof", str(bad), f"{FIX}/{fixture}/outline.json"]):
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (f"error: {bad}{where}: a {kind} name must be a "
                           "string, got 7\n")


_UNUSED = {"params": [7], "body": ["emp"]}


def test_an_unused_macro_with_a_bad_parameter_is_a_model_error(capsys,
                                                                tmp_path):
    """Macro parameters are checked when the table is built: the model
    with this unused macro loaded and its proof was accepted."""
    doc = json.load(open(f"{FIX}/dcsl-cell/model.json"))
    doc["macros"]["unused"] = _UNUSED
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(doc))
    for argv in (["check-lin", str(bad), "--bound", "4"],
                 ["check-proof", str(bad), f"{FIX}/dcsl-cell/outline.json"]):
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (f"error: {bad}/macros/unused/params[0]: a logical "
                           "variable name must be a string, got 7\n")


def test_the_first_bad_macro_in_name_order_is_reported(capsys, tmp_path):
    """Of an outline document's bad macros, the least name is reported,
    with the outline document's path."""
    outline = json.load(open(f"{FIX}/dcsl-cell/outline.json"))
    outline["macros"] = {"zz": {"params": ["a", 7], "body": ["emp"]},
                         "bad": {"params": [[]], "body": ["emp"]}}
    bad = tmp_path / "outline.json"
    bad.write_text(json.dumps(outline))
    assert main(["check-proof", f"{FIX}/dcsl-cell/model.json",
                 str(bad)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (f"error: {bad}/macros/bad/params[0]: a logical "
                       "variable name must be a string, got []\n")


@pytest.mark.parametrize("side,loc", [("concrete", "x"), ("abstract", "X")])
def test_an_initial_value_outside_its_domain_is_a_model_error(
        capsys, tmp_path, side, loc):
    """dcsl-cell with an initial 7 in a cell whose domain is [0, 1] is
    refused at load, not rejected by the proof's initial coverage."""
    doc = json.load(open(f"{FIX}/dcsl-cell/model.json"))
    doc["initial"][side][loc] = 7
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(doc))
    assert main(["check-proof", str(bad),
                 f"{FIX}/dcsl-cell/outline.json"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (f"error: {bad}: initial {side} value 7 of location "
                       f"{loc!r} is outside its domain [0, 1]\n")


def _guard_and(section, name, cond):
    def put(doc):
        doc[section][name]["guard"] = ["and", doc[section][name]["guard"],
                                       cond]
    return put


def _first_update_plus(section, name, e):
    def put(doc):
        loc, value = doc[section][name]["updates"][0]
        doc[section][name]["updates"][0] = [loc, ["+", value, e]]
    return put


_BODY = "a method body binds only 'a', 'r' (the thread id is [\"tid\"])"


@pytest.mark.parametrize("put,where,var,binds", [
    (_body_first(["assume", ["==", ["var", "q"], 0]]), "/methods/inc", "q",
     _BODY),
    (_body_first(["assume", ["==", ["var", "t"], 1]]), "/methods/inc", "t",
     _BODY),
    (_body_first(["prim", "inc_atomic", ["var", "q"], ["var", "r"]]),
     "/methods/inc", "q", _BODY),
    (_guard_and("primitives", "inc_atomic", ["==", ["var", "q"], 0]),
     "/primitives/inc_atomic", "q", "this primitive binds only 'a', 'r'"),
    (_first_update_plus("primitives", "inc_atomic", ["var", "t"]),
     "/primitives/inc_atomic", "t", "this primitive binds only 'a', 'r'"),
    (_guard_and("abstract", "inc", ["==", ["var", "t"], 1]),
     "/abstract/inc", "t", "an abstract method binds only 'a', 'r'"),
    (_first_update_plus("abstract", "inc", ["var", "q"]),
     "/abstract/inc", "q", "an abstract method binds only 'a', 'r'"),
], ids=["body-q", "body-t", "body-prim-arg", "prim-guard", "prim-update",
        "abstract-guard", "abstract-update"])
def test_a_variable_no_template_binds_is_a_load_error(capsys, tmp_path, put,
                                                      where, var, binds):
    """Before, these loaded and stopped at run time with an error naming
    no file; a body reading `t` even passed check-proof, whose outline
    primitives are instantiated with t, while check-lin stopped."""
    doc = json.load(open(f"{FIX}/atomic-inc/model.json"))
    put(doc)
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(doc))
    outline = f"{FIX}/atomic-inc/outline.json"
    for argv in (["check-lin", str(bad), "--bound", "4"],
                 ["check-proof", str(bad), outline]):
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (f"error: {bad}{where}: unbound logical variable "
                           f"{var!r}: {binds}\n")


_MISSPELLED = ["todo", 1, "incX", 1, 0]


def _star_first(*keys):
    def put(doc):
        slot = doc
        for key in keys[:-1]:
            slot = slot[key]
        slot[keys[-1]] = ["star", _MISSPELLED, slot[keys[-1]]]
    return put


def _rename_pre_token(name):
    def put(doc):
        doc["assertions"]["inc"]["pre"][2][2] = name
    return put


@pytest.mark.parametrize("put,where,name", [
    (_rename_pre_token("incX"), "/assertions/inc/pre/star[1]", "incX"),
    (_star_first("actions", "incr", "post"), "/actions/incr/post/star[0]",
     "incX"),
    (_star_first("shared_universe"), "/shared_universe/star[0]", "incX"),
    (_star_first("macros", "kinv_any", "body"),
     "/shared_universe/kinv_any/star[0]", "incX"),
    (_rename_pre_token(["var", "m"]), "/assertions/inc/pre/star[1]",
     ["var", "m"]),
    (_rename_pre_token(5), "/assertions/inc/pre/star[1]", 5),
], ids=["assertions", "actions", "shared-universe", "macro-body",
        "not-a-name", "number"])
def test_a_token_naming_an_undeclared_method_is_a_load_error(
        capsys, tmp_path, put, where, name):
    """Before, such a token loaded and denoted nothing, so the proof
    failed somewhere unrelated."""
    doc = json.load(open(f"{FIX}/atomic-inc/model.json"))
    put(doc)
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(doc))
    assert main(["check-lin", str(bad), "--bound", "4"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (f"error: {bad}{where}: todo token names undeclared "
                       f"method {name!r}\n")


def test_an_outline_token_naming_an_undeclared_method_is_a_load_error(
        capsys, tmp_path):
    """dcsl-cell's outline with its token renamed `putX`."""
    doc = json.load(open(f"{FIX}/dcsl-cell/outline.json"))
    doc["outlines"]["put"]["steps"][1][3][2] = "putX"
    bad = tmp_path / "outline.json"
    bad.write_text(json.dumps(doc))
    assert main(["check-proof", f"{FIX}/dcsl-cell/model.json", str(bad)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (f"error: {bad}/put/mid[0]/star[2]: todo token names "
                       "undeclared method 'putX'\n")


@pytest.mark.parametrize("name,edit,where,key", [
    ("atomic-inc", lambda doc, out: doc["methods"]["inc"].pop("body"),
     "m.json/methods/inc", "body"),
    ("atomic-inc", lambda doc, out: doc["actions"]["incr"].pop("pre"),
     "m.json/actions/incr", "pre"),
    ("atomic-inc", lambda doc, out: doc["assertions"]["inc"].pop("post"),
     "m.json/assertions/inc", "post"),
    ("atomic-inc", lambda doc, out: doc["macros"]["kinv"].pop("body"),
     "m.json/macros/kinv", "body"),
    ("flat-combiner",
     lambda doc, out: out["outlines"]["inc"]["steps"][4].pop("invariant"),
     "o.json/inc/seq[2]", "invariant"),
], ids=["method", "action", "assertion", "macro", "outline"])
def test_a_missing_key_names_its_entry(name, edit, where, key):
    """A required key missing from an entry of a per-entry section or
    from an outline node is a model error naming that entry or node, not
    only the document."""
    doc = json.load(open(f"{FIX}/{name}/model.json"))
    out = json.load(open(f"{FIX}/{name}/outline.json"))
    edit(doc, out)
    with pytest.raises(ModelError) as exc:
        attach_outlines(out, parse_model(doc, "m.json"), "o.json")
    assert str(exc.value) == \
        f"{where}: malformed document: missing key '{key}'"


@pytest.mark.parametrize("section,name,value", [
    ("methods", "inc", 5),
    ("actions", "incr", [1]),
    ("assertions", "inc", 7),
    ("macros", "kinv", 3),
    ("primitives", "inc_atomic", []),
    ("abstract", "inc", "inc"),
    ("methods", "dec", 5),
], ids=["method", "action", "assertion", "macro", "primitive", "abstract",
        "method-without-abstract"])
def test_a_wrong_shape_entry_names_its_entry(capsys, tmp_path, section,
                                             name, value):
    """An entry of a per-entry section that is not an object is a model
    error naming that entry (exit 2), not Python's own exception text
    under the document's name; its shape is reported before its other
    faults (`dec` has no abstract counterpart)."""
    doc = json.load(open(f"{FIX}/atomic-inc/model.json"))
    doc[section][name] = value
    bad = tmp_path / "m.json"
    bad.write_text(json.dumps(doc))
    assert main(["check-lin", str(bad), "--bound", "2"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (f"error: {bad}/{section}/{name}: malformed document: "
                       f"expected an object, got {value!r}\n")


@pytest.mark.parametrize("section,value", [
    ("methods", 5),
    ("macros", 3),
    ("domains", 5),
    ("actions", []),
    ("primitives", 7),
    ("abstract", "x"),
    ("assertions", 2),
    ("outline-macros", 3),
], ids=["methods", "macros", "domains", "actions", "primitives", "abstract",
        "assertions", "outline-macros"])
def test_a_wrong_shape_section_names_its_section(capsys, tmp_path, section,
                                                 value):
    """A whole section that is not an object is a model error naming the
    section (exit 2), not Python's own exception text under the
    document's name."""
    doc = json.load(open(f"{FIX}/atomic-inc/model.json"))
    outline = json.load(open(f"{FIX}/atomic-inc/outline.json"))
    model, outline_path = tmp_path / "m.json", tmp_path / "o.json"
    if section == "outline-macros":
        outline["macros"] = value
        where = f"{outline_path}/macros"
    else:
        doc[section] = value
        where = f"{model}/{section}"
    model.write_text(json.dumps(doc))
    outline_path.write_text(json.dumps(outline))
    assert main(["check-proof", str(model), str(outline_path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (f"error: {where}: malformed document: expected an "
                       f"object, got {value!r}\n")


@pytest.mark.parametrize("keys,value,shape", [
    (("initial",), 5, "an object"),
    (("initial", "concrete"), 5, "an object"),
    (("initial", "abstract"), [], "an object"),
    (("domains", "locations"), 5, "an object"),
    (("domains", "abstract_locations"), "X", "an object"),
    (("guarantee",), 5, "a list"),
    (("guarantee",), "incr", "a list"),
    (("rely_extra",), {}, "a list"),
    (("methods", "inc", "args"), 5, "a list"),
    (("methods", "inc", "args"), None, "a list"),
    (("domains", "values"), 5, "a list"),
    (("domains", "locations", "k"), 5, "a list"),
    (("domains", "abstract_locations", "K"), 5, "a list"),
    (("primitives", "inc_atomic", "params"), 5, "a list"),
    (("primitives", "inc_atomic", "updates"), 5, "a list"),
    (("abstract", "inc", "updates"), 5, "a list"),
], ids=["initial", "initial-concrete", "initial-abstract", "locations",
        "abstract-locations", "guarantee", "guarantee-string", "rely-extra",
        "args", "args-null", "values", "location-domain",
        "abstract-location-domain", "params", "updates", "abstract-updates"])
def test_a_wrong_shape_field_names_its_path(capsys, tmp_path, keys, value,
                                           shape):
    """A field that must be an object or a list and is not is a model error
    naming the field's path (exit 2), not Python's own exception text
    under the document's name."""
    doc = json.load(open(f"{FIX}/atomic-inc/model.json"))
    owner = doc
    for key in keys[:-1]:
        owner = owner[key]
    owner[keys[-1]] = value
    model = tmp_path / "m.json"
    model.write_text(json.dumps(doc))
    outline = f"{FIX}/atomic-inc/outline.json"
    assert main(["check-proof", str(model), outline]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (f"error: {model}/{'/'.join(keys)}: malformed "
                       f"document: expected {shape}, got {value!r}\n")


@pytest.mark.parametrize("section,name", [
    ("primitives", "inc_atomic"),
    ("abstract", "inc"),
])
@pytest.mark.parametrize("entry", [5, ["k"], ["k", 1, 2], {"k": 1}])
def test_a_wrong_shape_update_entry_names_its_path(capsys, tmp_path,
                                                  section, name, entry):
    """An update entry that is not a list of two items, a location and an
    expression, is a model error naming the entry (exit 2), not Python's
    own unpacking text under the document's name."""
    doc = json.load(open(f"{FIX}/atomic-inc/model.json"))
    doc[section][name]["updates"].append(entry)
    model = tmp_path / "m.json"
    model.write_text(json.dumps(doc))
    assert main(["check-lin", str(model), "--bound", "2"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (f"error: {model}/{section}/{name}/updates[1]: "
                       f"malformed document: expected a list of 2 items, "
                       f"got {entry!r}\n")


def _grammar_tables():
    """(node, form or key) of every form and object field of the grammar
    tables, the object nodes named by their path in the model or outline
    document (`*` for each entry of an object of entries)."""
    rows = {("expression", tag) for tag in model_io.EXPR_FORMS}
    rows |= {("command", tag) for tag in model_io.COMMAND_FORMS}
    rows |= {("assertion", tag) for tag in model_io.VASSN_FORMS}
    rows |= {("outline node", kind) for kind in model_io.OUTLINE_KINDS}

    def walk(node, fields):
        for key, parse, _, _ in fields:
            rows.add((node, key))
            sub = getattr(parse, "entry", parse)
            if hasattr(sub, "fields"):
                walk(f"{node}/{key}" + ("/*" if sub is not parse else ""),
                     sub.fields)

    walk("model", model_io.MODEL.fields)
    walk("model/macros/*", model_io._MACRO)
    walk("outline", model_io.OUTLINE_DOCUMENT.fields)
    return rows


def _readme_grammar():
    """(node, form or key, shape) of each row of the README's grammar."""
    text = open("README.md").read()
    block = text.split("```text\nnode ", 1)[1].split("```", 1)[0]
    return [tuple(re.split(r"\s{2,}", line.strip(), maxsplit=2))
            for line in block.splitlines()[1:] if line.strip()]


def test_the_readme_grammar_is_the_loaders_table():
    """Every form and key the README's grammar names is a key of the
    loader's tables, and the reverse; each outline node kind's row names
    its fields."""
    readme = _readme_grammar()
    assert {(node, key) for node, key, _ in readme} == _grammar_tables()
    assert len(readme) == len(_grammar_tables())
    for node, kind, shape in readme:
        if node == "outline node":
            fields, _ = model_io.OUTLINE_KINDS[kind]
            assert all(f'"{key}"' in shape for key, *_ in fields), shape
