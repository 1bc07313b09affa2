"""The acceptance gate: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance and bound is pinned here.
"""

import itertools
import random
import time

from relviews.cli import main as cli_main
from relviews.command_lang import (
    Choice,
    Const,
    Eq,
    Iter,
    Prim,
    PrimCommand,
    Read,
    SKIP,
    Seq,
)
from relviews.linearizability import (
    check_linearizable,
    check_obligations,
    instance_obligations,
    render_history,
)
from relviews.model_io import load_model, load_outlines
from relviews.monoid_dcsl import DcslMonoid
from relviews.monoid_rgsep import RgsepMonoid
from relviews.state_model import (
    APCom,
    EMPTY_WORLD,
    UNIT,
    World,
    compose_sets,
    compose_worlds,
    enumerate_worlds,
)
from relviews.vassn import CPt
from oracles import (
    action_over_frames,
    check_safe,
    closed_singletons,
    lp_star,
    powerset_frames,
    repart_implies_with_frames,
    stabilize,
    world_leq,
    world_minus,
)
from util import (
    PRIMS_1LOC,
    first_failure,
    fixture_manifest,
    micro_dcsl,
    micro_domains,
    micro_semantics,
    rgsep_view,
    run_consequence,
    run_distributivity,
    run_locality,
    sample_view,
)

FIX = "src/relviews/fixtures"


def report(n, ok, text):
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, text


# ---------------------------------------------------------------------------
# 1. Monoid-law suite


def test_criterion_1_monoid_laws():
    t0 = time.time()
    ap = APCom("op", 0, 0)
    dom = micro_domains(cloc={"l1": (0, 1), "l2": (0, 1)},
                        aloc={"m": (0, 1)}, nthreads=2, apcoms=(ap,),
                        values=(0, 1))
    worlds = enumerate_worlds(dom)
    reify = DcslMonoid(dom, micro_semantics(dom)).reify

    # pointwise composition laws, exhaustive over the full micro universe
    for w1, w2 in itertools.product(worlds[:220], worlds[:220]):
        assert compose_worlds(w1, w2) == compose_worlds(w2, w1)
    for w1 in worlds:
        assert compose_worlds(w1, EMPTY_WORLD) == w1

    # view-level monoid and disjunction laws, exhaustive over all views of a
    # five-world subuniverse
    sub = worlds[:5]
    views = [frozenset(c) for n in range(len(sub) + 1)
             for c in itertools.combinations(sub, n)]
    for p, q in itertools.product(views, views):
        assert compose_sets(p, q) == compose_sets(q, p)
        assert reify(p | q) == reify(p) | reify(q)
    for p in views:
        assert compose_sets(p, UNIT) == p
    small = views[:14]
    for p, q, r in itertools.product(small, small, small):
        assert (compose_sets(compose_sets(p, q), r)
                == compose_sets(p, compose_sets(q, r)))
        assert (compose_sets(p | q, r)
                == compose_sets(p, r) | compose_sets(q, r))

    elapsed = time.time() - t0
    report(1, elapsed < 30,
           f"monoid/disjunction laws exhaustive, zero violations "
           f"({elapsed:.1f}s < 30s)")


# ---------------------------------------------------------------------------
# 2. DCSL frame-reduction oracle


def test_criterion_2_frame_reduction_oracle():
    t0 = time.time()
    mono = micro_dcsl(cloc={"l": (0, 1)}, aloc={"x": (0, 1)}, values=(0, 1))
    worlds = enumerate_worlds(mono.dom)
    assert len(worlds) == 9
    all_frames = tuple(powerset_frames(worlds))
    assert len(all_frames) == 512
    rng = random.Random(2024)
    samples = 1000
    mismatches = 0
    for _ in range(samples):
        p = sample_view(rng, worlds, 3)
        q = sample_view(rng, worlds, 3)
        alpha = rng.choice(PRIMS_1LOC)
        fast = mono.check_action(1, alpha, p, q) is True
        slow = action_over_frames(mono, 1, alpha, p, q,
                                  all_frames) is True
        if fast != slow:
            mismatches += 1
        fast_i = mono.repart_implies(p, q)
        slow_i = repart_implies_with_frames(mono, p, q, all_frames)
        if fast_i != slow_i:
            mismatches += 1
    elapsed = time.time() - t0
    report(2, mismatches == 0 and elapsed < 300,
           f"singleton+unit frames vs full powerset: identical verdicts on "
           f"{samples} sampled triples ({elapsed:.1f}s < 300s)")


# ---------------------------------------------------------------------------
# 3. Appendix theorem suites


def _random_command(rng, depth=2):
    prims = [Prim(p) for p in PRIMS_1LOC[:4]] + [SKIP]
    if depth == 0:
        return rng.choice(prims)
    kind = rng.randrange(5)
    if kind == 0:
        return Seq(_random_command(rng, depth - 1),
                   _random_command(rng, depth - 1))
    if kind == 1:
        return Choice(_random_command(rng, depth - 1),
                      _random_command(rng, depth - 1))
    if kind == 2:
        return Iter(_random_command(rng, depth - 1))
    return rng.choice(prims)


def _closure_setup():
    mono = micro_dcsl(cloc={"l": (0, 1)}, aloc={}, values=(0, 1))
    worlds = enumerate_worlds(mono.dom)
    views = [frozenset(c) for n in range(len(worlds) + 1)
             for c in itertools.combinations(worlds, n)]
    return mono, views


def test_criterion_3_appendix_suites():
    t0 = time.time()
    n = 500
    counts = {
        "locality": run_locality(n * 3, seed=101),
        "consequence": run_consequence(n * 3, seed=102),
        "distributivity": run_distributivity(n * 3, seed=103),
    }
    for name, got in counts.items():
        assert got >= n, f"{name}: only {got} non-vacuous instances"

    mono, views = _closure_setup()
    caches = {}

    def safe(p, c, q):
        return check_safe(1, p, c, q, views, mono, caches)

    rng = random.Random(104)
    hits = {k: 0 for k in ("frame", "choice", "iter", "seq", "conseq",
                           "disj")}
    rounds = 0
    while min(hits.values()) < n and rounds < 40 * n:
        rounds += 1
        c1 = _random_command(rng, 2)
        c2 = _random_command(rng, 1)
        p, pm, q, r = (rng.choice(views) for _ in range(4))
        if hits["frame"] < n and safe(p, c1, q):
            assert safe(compose_sets(p, r), c1, compose_sets(q, r))
            hits["frame"] += 1
        if hits["choice"] < n and safe(p, c1, q) and safe(p, c2, q):
            assert safe(p, Choice(c1, c2), q)
            hits["choice"] += 1
        if hits["iter"] < n and safe(p, c1, p):
            assert safe(p, Iter(c1), p)
            hits["iter"] += 1
        if hits["seq"] < n and safe(p, c1, pm) and safe(pm, c2, q):
            assert safe(p, Seq(c1, c2), q)
            hits["seq"] += 1
        if hits["conseq"] < n:
            p2 = frozenset(w for w in p if rng.random() < 0.8)
            q2 = q | rng.choice(views)
            if safe(p, c1, q):
                assert safe(p2, c1, q2)
                hits["conseq"] += 1
        if hits["disj"] < n:
            p1, q1 = rng.choice(views), rng.choice(views)
            if safe(p, c1, q) and safe(p1, c1, q1):
                assert safe(p | p1, c1, q | q1)
                hits["disj"] += 1
    assert min(hits.values()) >= n, hits
    elapsed = time.time() - t0
    report(3, True,
           f"locality/consequence/distributivity and six safety closures, "
           f">=500 instances each, zero violations ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 4. RGSep Proposition-1 bridge


def _rgsep_micro(actions=None):
    """The micro monoid whose thread guarantees the given actions."""
    ap = APCom("op", 0, 0)
    dom = micro_domains(cloc={"l": (0, 1)}, aloc={"x": (0, 1)}, nthreads=1,
                        apcoms=(ap,), values=(0, 1))
    return RgsepMonoid(dom, micro_semantics(dom), actions=actions,
                       guarantee_names=tuple(actions or ()))


def _post_pred(mono, t, alpha, pred, guar):
    """Predicate-level strongest post: resplits of every primitive outcome
    whose shared change is granted (or absent) and whose abstract side is
    reachable by linearization steps."""
    from relviews.state_model import FAULT

    out = set()
    shared = set(mono.universe)
    for l, s in pred:
        joined = compose_worlds(l, s)
        if joined is None:
            continue
        for sigma2 in mono.sem.run(alpha, t, joined.conc):
            if sigma2 is FAULT:
                return None
            for abs2, toks2 in lp_star(joined.abst, joined.toks, mono.sem):
                w2 = World(sigma2, abs2, toks2)
                for s2 in shared:
                    if not world_leq(s2, w2):
                        continue
                    l2 = world_minus(w2, s2)
                    if s2 == s or (s, s2) in guar:
                        out.add((l2, s2))
    return frozenset(out)


def test_criterion_4_prop1_bridge():
    t0 = time.time()
    monos = [_rgsep_micro(), _rgsep_micro(
        {"set": (CPt("l", Const(0)), CPt("l", Const(1)))})]
    worlds = enumerate_worlds(monos[0].dom)
    alphas = [PrimCommand("id"),
              PrimCommand("store", (Read("l"), Const(1))),
              PrimCommand("assume", (Eq(Read("l"), Const(0)),))]
    confirmed = 0
    cases = 0
    for mono in monos:
        guar = mono.guarantee(1)
        frames = closed_singletons(mono, guar)
        # every stabilized singleton view over the micro domain
        pairs = [(l, s) for l in worlds for s in mono.universe]
        for l, s in pairs:
            pred = stabilize(frozenset({(l, s)}), frozenset())
            p = rgsep_view(mono, pred)
            for alpha in alphas:
                cases += 1
                post = _post_pred(mono, 1, alpha, pred, guar)
                if post is None:
                    continue
                q = rgsep_view(mono, post)
                if mono.check_action(1, alpha, p, q) is True:
                    assert action_over_frames(
                            mono, 1, alpha, p, q, frames) is True, (
                        f"Prop 1 accepted but the fully-quantified "
                        f"judgement fails: {alpha} {p} {q}")
                    confirmed += 1
    elapsed = time.time() - t0
    report(4, confirmed >= 50 and elapsed < 300,
           f"Prop-1 true implies fully-quantified truth on all {cases} "
           f"enumerated cases ({confirmed} confirmed non-vacuously, "
           f"{elapsed:.1f}s < 300s)")


# ---------------------------------------------------------------------------
# 5. Atomic increment end to end


def test_criterion_5_atomic_inc(capsys):
    t0 = time.time()
    code_lin = cli_main(["check-lin", f"{FIX}/atomic-inc/model.json",
                         "--bound", "8"])
    code_proof = cli_main(["check-proof", f"{FIX}/atomic-inc/model.json",
                           f"{FIX}/atomic-inc/outline.json"])
    capsys.readouterr()
    elapsed = time.time() - t0
    report(5, code_lin == 0 and code_proof == 0 and elapsed < 10,
           f"atomic-inc: check-lin@8 ok, one-line outline accepted "
           f"({elapsed:.1f}s < 10s)")


# ---------------------------------------------------------------------------
# 6. Flat combiner


def test_criterion_6_flat_combiner():
    t0 = time.time()
    model = load_model(f"{FIX}/flat-combiner/model.json")
    load_outlines(f"{FIX}/flat-combiner/outline.json", model)
    items = check_obligations(model)
    lin = check_linearizable(model, 12)
    elapsed = time.time() - t0
    detail = first_failure(items)
    report(6, detail is None and lin.ok and elapsed < 60,
           f"flat combiner: proof+obligations pass "
           f"({len(items)} checks), check-lin@12 reports no violation "
           f"({elapsed:.1f}s < 60s)"
           + (f"; first failure {detail.line()}" if detail else ""))


# ---------------------------------------------------------------------------
# 7. Bug detection


def test_criterion_7_bug_detection():
    model = load_model(f"{FIX}/flat-combiner-nolock/model.json")
    lin = check_linearizable(model, 12)
    ce_ok = (not lin.ok and lin.counterexample is not None
             and len(lin.counterexample) == 2)

    broken = load_model(f"{FIX}/flat-combiner-noaction4/model.json")
    load_outlines(f"{FIX}/flat-combiner-noaction4/outline.json", broken)
    fail = first_failure(instance_obligations(broken, ("inc", 1, 1, 0)))
    at_lp = (fail is not None and "(1) outline" == fail.obligation
             and "store(Read(loc='res[" in fail.detail)
    report(7, ce_ok and at_lp,
           "no-lock variant yields a counterexample history at bound 12 "
           f"({render_history(lin.counterexample or ())!r}); helping-action "
           "deletion is rejected at the res[i] := k linearization point")


# ---------------------------------------------------------------------------
# 8. Theorem-1 consistency


def test_criterion_8_theorem1_consistency():
    inconsistent = []
    for fx in fixture_manifest():
        model = load_model(fx.model_path)
        obligations_ok = False
        if fx.outline_path:
            load_outlines(fx.outline_path, model)
            obligations_ok = first_failure(check_obligations(model)) is None
        bounds = {spec.get("bound", 6)
                  for cmd, spec in fx.expected.items() if cmd == "check-lin"}
        bounds.add(6)
        for bound in sorted(bounds):
            lin = check_linearizable(model, bound)
            if obligations_ok and not lin.ok:
                inconsistent.append((fx.name, bound))
    report(8, not inconsistent,
           "no fixture passes check_obligations while check-lin finds a "
           f"violation at any tested bound (violations: {inconsistent})")


# ---------------------------------------------------------------------------
# 9. Determinism across repeated runs


def test_criterion_9_determinism(capsys):
    outputs = []
    for _run in range(2):
        lines = []
        for fx in fixture_manifest():
            for cmd, spec in sorted(fx.expected.items()):
                if cmd == "check-lin":
                    argv = ["check-lin", fx.model_path,
                            "--bound", str(spec["bound"]),
                            "--format", "machine"]
                elif cmd == "check-proof" and fx.outline_path:
                    argv = ["check-proof", fx.model_path, fx.outline_path,
                            "--format", "machine"]
                else:
                    continue
                code = cli_main(argv)
                out = capsys.readouterr().out
                lines.append((fx.name, cmd, code, out))
        outputs.append(lines)
    report(9, outputs[0] == outputs[1],
           "identical verdicts and counterexamples for two runs of every "
           "fixture")
