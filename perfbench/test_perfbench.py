"""Self-tests of the benchmark.

    python3 -m pytest perfbench -q

They run every workload for one round, traced and untraced, so they take
about a minute.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time
from collections import Counter

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import speed  # noqa: E402
from tracer import Tracer, covered  # noqa: E402
from workloads import (  # noqa: E402
    DCSL_VARIANTS,
    FIXTURES,
    GENERATED,
    JOBS,
    REPO_ROOT,
    WORKLOADS,
    Expect,
    Workload,
    job_stream,
    write_generated_models,
)


def spec() -> dict:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def bench(*args: str, cwd: str = REPO_ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_names_the_workloads_and_metrics_the_benchmark_prints():
    s = spec()
    assert [w["name"] for w in s["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in s["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in s["per_layer"]} == \
        run.PER_LAYER_UNITS


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_checks_verdicts_and_prints_end_to_end_metrics(workload):
    res = result(bench("--workload", workload, "--seed", "3",
                       "--seconds", "1", "--trace", "0"))
    assert res["correct"] and res["failed"] == 0
    assert res["attempted"] == len(WORKLOADS[workload].jobs)
    assert {k: v["unit"] for k, v in res["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec()["end_to_end"]}
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_traced_run_prints_per_layer_metrics(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", "1")
    res = result(proc)
    info = json.loads(proc.stdout.strip().splitlines()[-2])["info"]
    assert res["correct"] and res["failed"] == 0
    assert info["missing_bindings"] == []
    assert {k: v["unit"] for k, v in res["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec()["per_layer"]}
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert m["bench.trace_overhead_ratio"] > 0
    assert m["model_io.load_model.calls"] > 0
    if workload.startswith("lin-"):
        assert m["command_lang.state_step.calls"] > 0
        assert m["linearizability.abstract_histories.s"] > 0
        assert m["logic.AssertionEnv.eval.calls"] == 0
    else:
        assert m["command_lang.state_step.calls"] == 0
        assert 0 < m["logic.AssertionEnv.eval.useful_ratio"] <= 1
    if workload == "proof-rgsep":
        assert m["monoid_rgsep.denote_action.calls"] > 0
        assert m["monoid_dcsl.frames.count"] == 0
    if workload == "proof-dcsl":
        assert m["monoid_dcsl.frames.count"] > 0
        assert m["monoid_rgsep.check_action.calls"] == 0


def test_wrong_expectations_count_as_failed_verdicts(monkeypatch):
    cli = run.load_program(REPO_ROOT)
    helping = JOBS["proof/dcsl-helping"]
    nolock = JOBS["lin/flat-combiner-nolock@12"]
    wrong = (
        dataclasses.replace(helping, name="wrong-outcome",
                            expect=Expect("accepted", "deliberately wrong")),
        dataclasses.replace(helping, name="wrong-failure", expect=Expect(
            "rejected", "deliberately wrong", failure_contains="token swap")),
        dataclasses.replace(nolock, name="wrong-counterexample", expect=Expect(
            "violation", "deliberately wrong",
            counterexample=("t=1 call inc(1)", "t=1 ret inc(2)"))),
    )
    control = Workload("negative-control", "wrong expectations",
                       (JOBS["proof/atomic-inc"], *wrong), round_s=1.0)
    monkeypatch.setattr(run, "measure_setup", lambda w, root: [
        {"setup_s": 1.0, "reference_s": [0.03]}])
    metrics, info, results = run.end_to_end(cli, control, 1, 1, REPO_ROOT)
    assert info["verdict_fail_ratio"] == 0.75
    assert metrics["verdict_pass_ratio"] == 0.25
    line = run.result_line(metrics, run.END_TO_END_UNITS, results)
    assert (line["correct"], line["attempted"], line["failed"]) == \
        (False, 4, 3)
    assert {r.job.name for r in results if r.error} == \
        {"wrong-outcome", "wrong-failure", "wrong-counterexample"}


def test_seed_reorders_jobs_without_changing_them():
    for w in WORKLOADS.values():
        a, b = job_stream(w, 1, 8), job_stream(w, 2, 8)
        assert a == job_stream(w, 1, 8)
        assert a != b
        for stream in (a, b):
            assert all(sorted(j.name for j in r) ==
                       sorted(j.name for j in w.jobs) for r in stream)
        assert Counter(j.name for r in a for j in r) == \
            Counter(j.name for r in b for j in r)


def test_expectations_agree_with_shipped_expected_json():
    shipped_outcome = {("check-lin", "ok"): "ok",
                       ("check-lin", "violation"): "violation",
                       ("check-proof", "ok"): "accepted",
                       ("check-proof", "rejected"): "rejected"}
    compared = 0
    for job in JOBS.values():
        assert job.expect.reason and "\n" not in job.expect.reason
        if job.fixture is None:
            continue
        with open(os.path.join(REPO_ROOT, FIXTURES, job.fixture,
                               "expected.json")) as fh:
            shipped = json.load(fh).get(job.command)
        if shipped is None:
            continue
        compared += 1
        assert job.expect.outcome == \
            shipped_outcome[(job.command, shipped["verdict"])]
        if "counterexample" in shipped:
            assert job.expect.counterexample == \
                tuple(shipped["counterexample"])
        if "failure_contains" in shipped:
            assert job.expect.failure_contains == shipped["failure_contains"]
        if job.command == "check-lin" and job.bound != shipped["bound"]:
            # A raised bound keeps "ok" only on the strength of an
            # accepted proof of the same model.
            assert job.expect.outcome == "ok"
            assert any(p.fixture == job.fixture and p.command == "check-proof"
                       and p.expect.outcome == "accepted"
                       for p in JOBS.values())
    assert compared == sum(1 for j in JOBS.values() if j.fixture)


def test_generated_variants_widen_dcsl_cell():
    write_generated_models()
    run.load_program(REPO_ROOT)
    from relviews.model_io import load_model

    for name, nvalues, nthreads in DCSL_VARIANTS:
        model = load_model(os.path.join(REPO_ROOT, GENERATED, f"{name}.json"))
        assert tuple(model.dom.values) == tuple(range(nvalues))
        assert model.dom.nthreads == nthreads
        assert model.monoid_kind == "dcsl"


def test_directory_without_program_fails_without_result(tmp_path):
    shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(REPO_ROOT, "perfbench"),
                    tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("generated", "out",
                                                  "__pycache__"))
    proc = bench("--workload", "lin-explore", "--seed", "1", "--seconds",
                 "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def timed(*pairs):
    return [run.JobResult(job, t, None, None) for job, t in pairs]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    job = JOBS["proof/atomic-inc"]
    assert run.tail(timed(*((job, float(i)) for i in range(30)))) == \
        (19.0, 100 * 20 / 30)
    assert run.tail(timed(*((job, float(i)) for i in range(21)))) == \
        (10.0, 100 * 11 / 21)
    # Too few samples for ten beyond a percentile above the median: the
    # slowest job's median.
    fast, slow = JOBS["proof/dcsl-helping"], JOBS["proof/atomic-inc"]
    assert run.tail(timed((fast, 1.0), (slow, 3.0), (slow, 9.0),
                          (slow, 4.0))) == (4.0, None)


def test_p50_is_the_median_of_each_jobs_median():
    fast, slow = JOBS["proof/dcsl-helping"], JOBS["proof/atomic-inc"]
    results = timed((fast, 1.0), (fast, 1.2), (fast, 9.0), (slow, 3.0),
                    (slow, 3.4))
    assert run.job_p50(results) == pytest.approx((1.2 + 3.2) / 2)


def test_scaled_times_follow_the_reference_loop():
    assert speed.scale([speed.REFERENCE_S] * 3) == pytest.approx(1.0)
    # a machine twice as slow as the reference halves the scale
    assert speed.scale([2 * speed.REFERENCE_S]) == pytest.approx(0.5)
    job = JOBS["proof/atomic-inc"]
    loop = run.Loop([timed((job, 2.0), (job, 2.0)), timed((job, 1.0)),
                     timed((job, 9.0))], [2 * speed.REFERENCE_S] * 5)
    # round throughputs 0.5, 1 and 1/9 jobs/s; median 0.5, scaled by 1/0.5
    assert loop.jobs_per_s() == pytest.approx(1.0)


def test_self_time_is_span_minus_covered_child_time():
    assert covered([(1.0, 2.0), (1.5, 3.0), (5.0, 6.0)], 0.0, 5.5) == 2.5
    tracer = Tracer()

    def inner():
        time.sleep(0.01)

    def outer():
        time.sleep(0.01)
        tracer.call("inner", inner)

    tracer.call("outer", outer)
    agg = tracer.aggregate()
    (_, _, _, _, i0, i1), (_, parent, _, _, o0, o1) = tracer.spans
    assert parent is None and tracer.spans[0][1] == tracer.spans[1][0]
    assert agg["outer"]["self_s"] == pytest.approx((o1 - o0) - (i1 - i0))
    assert agg["inner"]["self_s"] == agg["inner"]["s"]


def test_uninstall_restores_the_program():
    cli = run.load_program(REPO_ROOT)
    from relviews import logic, model_io

    original_eval = vars(logic.AssertionEnv)["eval"]
    tracer = Tracer()
    tracer.install()
    assert cli.load_model is not model_io.load_model
    assert vars(logic.AssertionEnv)["eval"] is not original_eval
    tracer.uninstall()
    assert cli.load_model is model_io.load_model
    assert vars(logic.AssertionEnv)["eval"] is original_eval
