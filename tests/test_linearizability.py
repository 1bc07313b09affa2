import json

import pytest
from hypothesis import given, settings

from relviews.errors import (
    FaultReachable,
    ModelError,
    UniverseTooLarge,
)
from relviews.linearizability import (
    abstract_histories,
    check_linearizable,
    check_obligations,
    concrete_histories,
    instance_obligations,
    render_event,
    render_history,
)
from relviews.model_io import (
    attach_outlines,
    load_model,
    load_outlines,
    parse_model,
)
from relviews.command_lang import Const, PrimCommand
from relviews.linearizability import Semantics
from relviews.state_model import FAULT, Heap
from oracles import (
    command_prims,
    history_depths,
    history_sort_key,
    heap_steps,
    instance_bodies,
    instance_body,
    locality_witness,
)
from util import fixture_manifest, tiny_model_docs

FIX = "src/relviews/fixtures"


def _atomic():
    return load_model(f"{FIX}/atomic-inc/model.json")


def test_histories_bound_zero_is_epsilon():
    m = _atomic()
    assert concrete_histories(m, 0) == frozenset({()})
    assert abstract_histories(m, 0) == frozenset({()})


def test_single_call_histories_at_depth_one():
    m = _atomic()
    hs = concrete_histories(m, 1)
    # depth one admits exactly the single-call events (deduplicated across
    # the expected-return guesses, which calls do not record)
    calls = {h for h in hs if h}
    assert calls == {((t, "call", "inc", 1),) for t in (1, 2)}


def test_overlapping_calls_history_present():
    m = _atomic()
    hs = concrete_histories(m, 6)
    want = ((1, "call", "inc", 1), (2, "call", "inc", 1),
            (1, "ret", "inc", 1), (2, "ret", "inc", 2))
    assert want in hs


def test_abstract_call_ret_pair():
    m = _atomic()
    hs = abstract_histories(m, 3)
    assert ((1, "call", "inc", 1), (1, "ret", "inc", 1)) in hs
    # a return the spec blocks on never appears
    assert ((1, "call", "inc", 1), (1, "ret", "inc", 3)) not in hs


def test_prefix_closure_and_monotonicity():
    m = _atomic()
    h5 = concrete_histories(m, 5)
    h6 = concrete_histories(m, 6)
    assert h5 <= h6
    for h in h6:
        for cut in range(len(h)):
            assert h[:cut] in h6


def test_per_thread_alternation():
    m = _atomic()
    for h in concrete_histories(m, 6):
        pending = {}
        for t, kind, method, _v in h:
            if kind == "call":
                assert t not in pending
                pending[t] = method
            else:
                assert pending.pop(t) == method


def test_trivial_wrapper_model_ok_at_any_bound():
    m = _atomic()
    for bound in (2, 5, 8):
        assert check_linearizable(m, bound).ok


def test_render_formats():
    assert render_event((1, "call", "inc", 1)) == "t=1 call inc(1)"
    assert render_event((2, "ret", "inc", 2)) == "t=2 ret inc(2)"
    assert render_history(()) == "ε"
    two = ((1, "call", "inc", 1), (1, "ret", "inc", 1))
    assert render_history(two) == "t=1 call inc(1)\nt=1 ret inc(1)"
    assert history_sort_key(()) < history_sort_key(two)


def test_fault_reachable_reported():
    doc = json.load(open(f"{FIX}/atomic-inc/model.json"))
    doc["domains"]["locations"]["ghost"] = [0]
    doc["primitives"]["inc_atomic"]["updates"].append(["ghost", 0])
    # ghost is declared but never initialized: the update faults
    m = parse_model(doc)
    with pytest.raises(FaultReachable):
        concrete_histories(m, 4)


def test_obligation_two_fails_without_token():
    doc = json.load(open(f"{FIX}/atomic-inc/model.json"))
    doc["assertions"]["inc"]["pre"] = ["box", ["macro", "kinv_any"]]
    m = parse_model(doc)
    out = json.load(open(f"{FIX}/atomic-inc/outline.json"))
    attach_outlines(out, m)
    items = instance_obligations(m, ("inc", 1, 1, 1))
    failed = {it.obligation for it in items if not it.ok}
    assert "(2) todo pinned" in failed


def test_obligation_three_fails_on_asymmetric_families():
    # pin the postcondition cell contents: post worlds no longer differ from
    # the pre worlds by the token alone
    doc = json.load(open(f"{FIX}/dcsl-cell/model.json"))
    doc["assertions"]["put"]["post"] = [
        "star", ["macro", "cell", ["var", "r"]],
        ["done", ["var", "t"], "put", ["var", "a"], ["var", "r"]]]
    m = parse_model(doc)
    out = json.load(open(f"{FIX}/dcsl-cell/outline.json"))
    attach_outlines(out, m)
    failed = {it.obligation for it in check_obligations(m) if not it.ok}
    assert "(3) token swap" in failed


def test_dom_mismatch_rejected_at_load():
    doc = json.load(open(f"{FIX}/atomic-inc/model.json"))
    del doc["abstract"]["inc"]
    with pytest.raises(ModelError, match="dom mismatch"):
        parse_model(doc)


def test_counterexample_is_shortest_then_lexicographic():
    m = load_model(f"{FIX}/flat-combiner-nolock/model.json")
    res = check_linearizable(m, 12)
    assert not res.ok
    assert res.counterexample == ((1, "call", "inc", 1),
                                  (1, "ret", "inc", 0))


def test_mutated_final_token_rejected():
    # flipping the postcondition's done token back to todo breaks both the
    # pinned-token obligation and the final reclaim step of the outline
    doc = json.load(open(f"{FIX}/flat-combiner/model.json"))
    doc["assertions"]["inc"]["post"] = [
        "star", ["macro", "global"], ["macro", "M", ["var", "t"]],
        ["todo", ["var", "t"], "inc", ["var", "a"], ["var", "r"]]]
    m = parse_model(doc)
    out = json.load(open(f"{FIX}/flat-combiner/outline.json"))
    attach_outlines(out, m)
    items = instance_obligations(m, ("inc", 1, 1, 0))
    failed = {it.obligation for it in items if not it.ok}
    assert "(2) done pinned" in failed
    assert "(1) outline" in failed


def _drive_until(cmd, sigma, t, model, stop_prim):
    """Follow the unique transition chain until the named primitive fires."""
    while True:
        steps = heap_steps(cmd, sigma, t, model.sem)
        assert len(steps) == 1, "prefix is not deterministic"
        ((alpha, cmd, sigma),) = steps
        if alpha.name == stop_prim:
            return cmd, sigma


def _complete(cmd, sigma, t, model, avoid=()):
    """Some terminal state reachable without firing the avoided primitives,
    or None."""
    from relviews.command_lang import Skip
    from relviews.state_model import Heap

    seen = set()
    stack = [(cmd, sigma)]
    while stack:
        c, s = stack.pop()
        if isinstance(c, Skip):
            return s
        if (c, s) in seen:
            continue
        seen.add((c, s))
        for alpha, c2, s2 in heap_steps(c, s, t, model.sem):
            if alpha.name in avoid or not isinstance(s2, Heap):
                continue
            stack.append((c2, s2))
    return None


def test_helping_completes_a_spinning_thread():
    m = load_model(f"{FIX}/flat-combiner/model.json")
    sigma0 = m.init_conc
    body = instance_body(m, "inc", 1, 0)
    # thread 2 cannot finish on its own without the lock
    assert _complete(body, sigma0, 2, m,
                     avoid=("cas_succ", "cas_fail")) is None
    # thread 2 publishes its task and spins
    t2_cmd, sigma1 = _drive_until(body, sigma0, 2, m, "publish")
    assert sigma1["res[2]"] == 4
    # thread 1 runs to completion as the combiner (it must take the lock and
    # must process thread 2's pending task along the way)
    sigma2 = _complete(body, sigma1, 1, m, avoid=("cas_fail",))
    assert sigma2 is not None
    assert sigma2["k"] == 2 and sigma2["res[2]"] == 0 and sigma2["L"] == 0
    # now thread 2 finishes without ever touching the lock: its
    # linearization point happened in thread 1
    done = _complete(t2_cmd, sigma2, 2, m, avoid=("cas_succ", "cas_fail"))
    assert done is not None


def _with_outline(name, cap=None):
    model = load_model(f"{FIX}/{name}/model.json", cap)
    load_outlines(f"{FIX}/{name}/outline.json", model)
    return model


def test_assertion_env_is_one_per_thread():
    model = _with_outline("atomic-inc")
    envs = {t: model.assertion_env(t) for t in model.dom.thread_ids()}
    assert len(set(map(id, envs.values()))) == len(envs)
    for t, env in envs.items():
        assert model.assertion_env(t) is env
    # the memo hands back the very view it computed
    pre, b = model.pre_templates["inc"], {"t": 1, "a": 1, "r": 0}
    assert envs[1].eval(pre, b) is envs[1].eval(pre, dict(b))


def test_obligations_honour_the_cap():
    # flat-combiner declares a 54-state shared universe; dcsl-cell's frames
    # range over 81 worlds
    for name in ("flat-combiner", "dcsl-cell"):
        model = _with_outline(name, cap=5)
        assert model.dom.cap == 5
        with pytest.raises(UniverseTooLarge):
            check_obligations(model)
        with pytest.raises(UniverseTooLarge):
            check_linearizable(model, 4)


# Both history sets against the unmemoized walk in tests/oracles.py, at
# every bound up to ORACLE_BOUND (one walk gives every smaller bound).
ORACLE_BOUND = 7


@pytest.mark.parametrize("fixture", fixture_manifest(), ids=lambda f: f.name)
def test_history_sets_equal_the_unmemoized_oracle(fixture):
    m = load_model(fixture.model_path)
    for side, histories in (("concrete", concrete_histories),
                            ("abstract", abstract_histories)):
        depths = history_depths(m, ORACLE_BOUND, side)
        for k in range(ORACLE_BOUND + 1):
            want = frozenset(h for h, d in depths.items() if d <= k)
            assert histories(m, k) == want, (side, k)


def test_a_fault_raises_on_the_concrete_side_and_blocks_on_the_abstract():
    doc = json.load(open(f"{FIX}/atomic-inc/model.json"))
    # neither ghost cell is initialized, so both updates hit a missing cell
    doc["domains"]["locations"]["ghost"] = [0]
    doc["primitives"]["inc_atomic"]["updates"].append(["ghost", 0])
    doc["domains"]["abstract_locations"]["GHOST"] = [0]
    doc["abstract"]["inc"]["updates"].append(["GHOST", 0])
    m = parse_model(doc)
    with pytest.raises(FaultReachable):
        concrete_histories(m, 4)
    with pytest.raises(FaultReachable):
        history_depths(m, 4, "concrete")
    hs = abstract_histories(m, 4)
    assert hs == frozenset(history_depths(m, 4, "abstract"))
    # every abstract call blocks, so no call ever returns
    assert len(hs) > 1
    assert all(kind == "call" for h in hs for _t, kind, _m, _v in h)


class _LeakySemantics(Semantics):
    """`inc_atomic` also zeroes the cell `spare` whenever the state has it:
    its effect depends on a frame outside its footprint."""

    def run(self, alpha, t, sigma):
        out = super().run(alpha, t, sigma)
        if alpha.name != "inc_atomic" or "spare" not in sigma:
            return out
        return tuple(s if s is FAULT else s.set_many([("spare", 0)])
                     for s in out)


def test_the_locality_oracle_catches_a_table_that_reads_its_frame():
    # guarded updates are local by construction; only a `Semantics`
    # subclass built through the API can break locality
    doc = json.load(open(f"{FIX}/atomic-inc/model.json"))
    doc["domains"]["locations"]["spare"] = [0, 1]
    model = parse_model(doc)
    sem = model.sem
    leaky = _LeakySemantics(sem.prims, sem.abstract, sem.modulus)
    # inc_atomic(1, 0) is enabled only at k = 3
    alpha = PrimCommand("inc_atomic", (Const(1), Const(0)))
    assert locality_witness(leaky, model.dom, alpha, 1) == \
        (Heap({"k": 3}), Heap({"spare": 1}))


def _thread_prims(model):
    """Every (primitive, thread) pair a check of the model can run."""
    prims = {p for body in instance_bodies(model).values()
             for p in command_prims(body)}
    return [(p, t) for p in sorted(prims, key=repr)
            for t in model.dom.thread_ids()]


@pytest.mark.parametrize("fx", fixture_manifest(), ids=lambda f: f.name)
def test_every_fixture_primitive_is_local(fx):
    # a primitive reads and writes only the locations named in its
    # arguments, guard and updates
    model = load_model(fx.model_path)
    pairs = _thread_prims(model)
    assert pairs
    for alpha, t in pairs:
        assert locality_witness(model.sem, model.dom, alpha, t) is None


@settings(max_examples=60, deadline=None, derandomize=True)
@given(doc=tiny_model_docs())
def test_every_generated_primitive_is_local(doc):
    doc["domains"]["locations"]["spare"] = [0, 1]
    model = parse_model(doc)
    for alpha, t in _thread_prims(model):
        assert locality_witness(model.sem, model.dom, alpha, t) is None
